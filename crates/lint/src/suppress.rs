//! Inline suppressions: `// ano-lint: allow(<rule>): <justification>`.
//!
//! A suppression silences diagnostics of the named rule(s) on its own line
//! or on the next line that holds code; `allow-file(<rule>): <why>` covers
//! the whole file (for e.g. the array-index density of crypto kernels).
//! The justification is mandatory — an allow without one is itself an
//! error (`bad-suppression`), as is one naming a rule that does not exist.
//! A suppression that silences nothing is an **error** too: stale allows
//! are latent holes in the policy, not clutter. Any other `ano-lint:`
//! directive is an error too.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Lexed, LineIndex};
use crate::rules::RULES;

/// One parsed suppression directive.
#[derive(Clone, Debug)]
pub struct Suppression {
    pub rules: Vec<String>,
    /// Line the comment sits on (1-based).
    pub line: usize,
    /// First code line at or after the comment that it covers.
    pub applies_to: usize,
    /// True for `allow-file`: covers every line of the file.
    pub file_scope: bool,
    pub used: bool,
}

impl Suppression {
    /// Does this suppression cover rule `rule` at `line`?
    fn matches(&self, line: usize, rule: &str) -> bool {
        (self.file_scope || line == self.line || line == self.applies_to)
            && self.rules.iter().any(|r| r == rule)
    }
}

/// Parse result: valid suppressions plus diagnostics for malformed ones.
pub struct Suppressions {
    pub list: Vec<Suppression>,
    pub diags: Vec<Diagnostic>,
}

/// Scans captured comments for `ano-lint:` directives.
pub fn parse(path: &str, lexed: &Lexed, lines: &LineIndex) -> Suppressions {
    let mut out = Suppressions {
        list: Vec::new(),
        diags: Vec::new(),
    };
    for c in &lexed.comments {
        let Some(rest) = c.text.strip_prefix("ano-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let (line, col) = lines.line_col(c.off);
        let bad = |msg: String| Diagnostic {
            rule: "bad-suppression",
            severity: Severity::Error,
            file: path.to_string(),
            line,
            col,
            message: msg,
        };

        let (args, file_scope) = if let Some(a) = rest.strip_prefix("allow-file") {
            (a, true)
        } else if let Some(a) = rest.strip_prefix("allow") {
            (a, false)
        } else {
            out.diags.push(bad(format!(
                "unknown ano-lint directive `{rest}`; expected \
                 `allow(<rule>): <justification>` or `allow-file(<rule>): <justification>`"
            )));
            continue;
        };
        let args = args.trim_start();
        let Some(close) = args.find(')') else {
            out.diags.push(bad("malformed allow: missing `)`".to_string()));
            continue;
        };
        let inner = args.strip_prefix('(').map(|s| &s[..close - 1]);
        let Some(inner) = inner else {
            out.diags.push(bad("malformed allow: missing `(`".to_string()));
            continue;
        };
        let rules: Vec<String> = inner
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            out.diags.push(bad("allow() names no rule".to_string()));
            continue;
        }
        let mut ok = true;
        for r in &rules {
            if !RULES.contains(&r.as_str()) {
                out.diags.push(bad(format!(
                    "allow({r}) names an unknown rule; known rules: {}",
                    RULES.join(", ")
                )));
                ok = false;
            }
        }
        if !ok {
            continue;
        }
        // The justification follows the closing paren after a colon.
        let tail = args[close + 1..].trim();
        let justification = tail.strip_prefix(':').map(str::trim).unwrap_or("");
        if justification.is_empty() {
            out.diags.push(bad(format!(
                "suppression of `{}` requires a justification: \
                 `// ano-lint: allow({}): <why this is sound>`",
                rules.join(", "),
                rules.join(", ")
            )));
            continue;
        }

        // The suppression covers its own line and the next code line.
        let applies_to = lexed
            .tokens
            .iter()
            .map(|t| lines.line(t.off))
            .find(|&l| l > line)
            .unwrap_or(line);
        out.list.push(Suppression {
            rules,
            line,
            applies_to,
            file_scope,
            used: false,
        });
    }
    out
}

/// Filters `diags` through the suppressions, marking the ones used.
/// Stale-suppression errors are *not* emitted here — the engine routes
/// every pass's findings through [`apply`] first, then calls
/// [`stale_diags`].
pub fn apply(sup: &mut Suppressions, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut kept = Vec::new();
    for d in diags {
        let mut suppressed = false;
        for s in &mut sup.list {
            if s.matches(d.line, d.rule) {
                s.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(d);
        }
    }
    kept
}

/// One error per suppression that silenced nothing across *all* passes.
pub fn stale_diags(path: &str, sup: &Suppressions) -> Vec<Diagnostic> {
    sup.list
        .iter()
        .filter(|s| !s.used)
        .map(|s| Diagnostic {
            rule: "bad-suppression",
            severity: Severity::Error,
            file: path.to_string(),
            line: s.line,
            col: 1,
            message: format!(
                "suppression of `{}` matches no diagnostic; remove it",
                s.rules.join(", ")
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::{run_token_rules, test_spans, FileCtx, FileScope};

    fn lint(src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let lines = LineIndex::new(src);
        let spans = test_spans(&lexed);
        let ctx = FileCtx {
            path: "t.rs",
            lexed: &lexed,
            lines: &lines,
            test_spans: &spans,
        };
        let scope = FileScope {
            determinism: true,
            ..Default::default()
        };
        let diags = run_token_rules(&ctx, scope);
        let mut sup = parse("t.rs", &lexed, &lines);
        let mut out = apply(&mut sup, diags);
        out.extend(stale_diags("t.rs", &sup));
        out.extend(sup.diags);
        out
    }

    #[test]
    fn justified_suppression_silences_next_line() {
        let src = "// ano-lint: allow(hash-collection): keyed access only, never iterated\nuse std::collections::HashMap;\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn same_line_suppression_works() {
        let src = "use std::collections::HashMap; // ano-lint: allow(hash-collection): keyed only\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn allow_file_covers_every_line() {
        let src = "// ano-lint: allow-file(hash-collection): lookup tables, never iterated\n\
                   use std::collections::HashMap;\nfn f() {}\nuse std::collections::HashSet;\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn missing_justification_is_an_error() {
        let src = "// ano-lint: allow(hash-collection)\nuse std::collections::HashMap;\n";
        let d = lint(src);
        // The un-silenced finding plus the bad suppression itself.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.rule == "bad-suppression"
            && d.severity == Severity::Error
            && d.message.contains("justification")));
        assert!(d.iter().any(|d| d.rule == "hash-collection"));
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let src = "// ano-lint: allow(no-such-rule): because\nlet x = 1;\n";
        let d = lint(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("unknown rule"));
    }

    #[test]
    fn stale_suppression_is_an_error() {
        let src = "// ano-lint: allow(wall-clock): pretend\nlet x = 1;\n";
        let d = lint(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d[0].message.contains("matches no diagnostic"));
    }

    #[test]
    fn entry_and_cold_are_not_suppressions() {
        // Only `allow`/`allow-file` exist: a leftover annotation of any
        // other shape is an error, not a silent no-op.
        for src in ["// ano-lint: entry(root)\nfn f() {}\n", "// ano-lint: cold(setup)\nfn g() {}\n"] {
            let d = lint(src);
            assert_eq!(d.len(), 1, "{d:?}");
            assert!(d[0].message.contains("unknown ano-lint directive"), "{d:?}");
        }
    }

    #[test]
    fn suppression_does_not_leak_past_next_code_line() {
        let src = "// ano-lint: allow(hash-collection): first only\nuse std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let d = lint(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn multi_rule_allow() {
        let src = "// ano-lint: allow(hash-collection, wall-clock): both here\nuse std::collections::HashMap; fn f(t: Instant) {}\n";
        assert!(lint(src).is_empty());
    }
}

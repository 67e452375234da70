//! The rule catalogue: token-stream checks, each grounded in a workspace
//! invariant (see DESIGN.md "Static analysis").
//!
//! Every rule reports with a stable id so inline suppressions
//! (`// ano-lint: allow(<rule>): <justification>`) can target it.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Lexed, LineIndex, Token, TokenKind};

/// All rule ids a suppression may name (checked by the suppression parser).
pub const RULES: &[&str] = &[
    "wall-clock",
    "thread",
    "ptr-format",
    "hash-collection",
    "hot-path-panic",
    "hot-path-index",
    "direct-output",
    "unsafe-attr",
    "resync-table",
    "dead-export",
];

/// Which rule families apply to one file (derived from the per-crate
/// scoping table in [`crate::engine`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FileScope {
    /// Determinism rules: the file can affect traces, golden files, or the
    /// simulated schedule, so process-varying constructs are forbidden.
    pub determinism: bool,
    /// Observability rules: library code must report through `ano-trace`,
    /// never stdout/stderr.
    pub observability: bool,
    /// Panic-freedom rules: the file is a per-packet hot path.
    pub hot_path: bool,
    /// The file is a crate root and must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
}

/// Per-file context handed to every rule.
pub struct FileCtx<'a> {
    pub path: &'a str,
    pub lexed: &'a Lexed,
    pub lines: &'a LineIndex,
    /// Byte ranges of `#[cfg(test)] mod … { … }` bodies; diagnostics inside
    /// are dropped (tests may panic, index, and print freely).
    pub test_spans: &'a [(usize, usize)],
}

impl FileCtx<'_> {
    fn in_test(&self, off: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| off >= a && off < b)
    }

    fn diag(&self, rule: &'static str, off: usize, message: String) -> Diagnostic {
        let (line, col) = self.lines.line_col(off);
        Diagnostic {
            rule,
            severity: Severity::Error,
            file: self.path.to_string(),
            line,
            col,
            message,
        }
    }
}

/// Rust keywords that can directly precede `[` without it being an index
/// expression (`&mut [u8]`, `as [u8; 2]`, `return [x]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Runs every scoped token rule over one file.
pub fn run_token_rules(ctx: &FileCtx<'_>, scope: FileScope) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &ctx.lexed.tokens;

    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(t.off) {
            continue;
        }
        match &t.kind {
            TokenKind::Ident(name) => {
                if scope.determinism {
                    determinism_ident(ctx, toks, i, name, &mut out);
                }
                if scope.hot_path {
                    hot_path_ident(ctx, toks, i, name, &mut out);
                }
                if scope.observability {
                    observability_ident(ctx, toks, i, name, &mut out);
                }
            }
            TokenKind::Str(text) => {
                if scope.determinism && text.contains(":p}") {
                    out.push(ctx.diag(
                        "ptr-format",
                        t.off,
                        "pointer formatting (`{:p}`) leaks ASLR-dependent addresses into \
                         output; print a stable id instead"
                            .to_string(),
                    ));
                }
            }
            TokenKind::Punct('[') if scope.hot_path => {
                // Index expression: `expr[…]`. The previous token being an
                // identifier (non-keyword), `)`, or `]` means expression
                // position; type/attr/macro positions are preceded by
                // punctuation or keywords.
                let prev = if i > 0 { toks.get(i - 1) } else { None };
                let indexing = match prev.map(|p| &p.kind) {
                    Some(TokenKind::Ident(s)) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                    Some(TokenKind::Punct(')')) | Some(TokenKind::Punct(']')) => true,
                    _ => false,
                };
                if indexing {
                    out.push(ctx.diag(
                        "hot-path-index",
                        t.off,
                        "slice indexing can panic mid-schedule in a per-packet hot path; \
                         use `get`/`get_mut` (or split/slice helpers) and handle the miss"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }

    if scope.crate_root && !has_unsafe_attr(toks) {
        out.push(Diagnostic {
            rule: "unsafe-attr",
            severity: Severity::Error,
            file: ctx.path.to_string(),
            line: 1,
            col: 1,
            message: "crate root must carry `#![forbid(unsafe_code)]` (or \
                      `#![deny(unsafe_code)]` with a documented exception)"
                .to_string(),
        });
    }

    out
}

fn determinism_ident(
    ctx: &FileCtx<'_>,
    toks: &[Token],
    i: usize,
    name: &str,
    out: &mut Vec<Diagnostic>,
) {
    let off = toks[i].off;
    match name {
        "HashMap" | "HashSet" => out.push(ctx.diag(
            "hash-collection",
            off,
            format!(
                "{name} iteration order varies per process (SipHash keys are random); \
                 in a sim/trace-affecting crate use BTreeMap/Vec, or suppress with a \
                 justification proving it is never iterated"
            ),
        )),
        "Instant" | "SystemTime" => out.push(ctx.diag(
            "wall-clock",
            off,
            format!(
                "std::time::{name} reads the wall clock; sim/trace-affecting code must \
                 use ano_sim::time::SimTime so runs replay bit-identically"
            ),
        )),
        "thread" => {
            // `std::thread` or `thread::spawn(…)` — a real OS thread. Plain
            // variables named `thread` (no path context) are left alone.
            let after_std = i >= 2
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && i >= 3
                && toks[i - 3].ident() == Some("std");
            let before_path = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
            if after_std || before_path {
                out.push(ctx.diag(
                    "thread",
                    off,
                    "OS threads introduce scheduling nondeterminism; the simulation is \
                     single-threaded by design (ano_sim::sched)"
                        .to_string(),
                ));
            }
        }
        _ => {}
    }
}

fn hot_path_ident(
    ctx: &FileCtx<'_>,
    toks: &[Token],
    i: usize,
    name: &str,
    out: &mut Vec<Diagnostic>,
) {
    let off = toks[i].off;
    match name {
        // `.unwrap()` / `.expect(…)` method calls (not `unwrap_or`,
        // `unwrap_seq`, … — those are distinct identifiers).
        "unwrap" | "expect" => {
            let is_method = i >= 1 && toks[i - 1].is_punct('.');
            if is_method {
                out.push(ctx.diag(
                    "hot-path-panic",
                    off,
                    format!(
                        ".{name}() can panic mid-schedule in a per-packet hot path; \
                         propagate the miss or fall back to software processing"
                    ),
                ));
            }
        }
        "panic" | "todo" | "unimplemented" => {
            let is_macro = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
            if is_macro {
                out.push(ctx.diag(
                    "hot-path-panic",
                    off,
                    format!(
                        "{name}! aborts the schedule from a per-packet hot path; \
                         degrade to software fallback instead"
                    ),
                ));
            }
        }
        _ => {}
    }
}

fn observability_ident(
    ctx: &FileCtx<'_>,
    toks: &[Token],
    i: usize,
    name: &str,
    out: &mut Vec<Diagnostic>,
) {
    if matches!(name, "println" | "eprintln" | "print" | "eprint" | "dbg")
        && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
    {
        out.push(ctx.diag(
            "direct-output",
            toks[i].off,
            format!(
                "{name}! in library code bypasses the deterministic trace layer; \
                 record an ano_trace::Event or metric instead"
            ),
        ));
    }
}

/// True if the token stream contains `#![forbid(unsafe_code)]` or
/// `#![deny(unsafe_code)]`.
fn has_unsafe_attr(toks: &[Token]) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && matches!(w[3].ident(), Some("forbid") | Some("deny"))
            && w[4].is_punct('(')
            && w[5].ident() == Some("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// Computes the byte spans of `#[cfg(test)] mod … { … }` bodies.
pub fn test_spans(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].ident() == Some("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].ident() == Some("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then expect `mod name {`.
        let mut j = i + 7;
        while toks.get(j).is_some_and(|t| t.is_punct('#')) {
            j = skip_group(toks, j + 1, '[', ']');
        }
        if toks.get(j).and_then(Token::ident) == Some("mod") {
            // Find the opening brace after the module name.
            let mut k = j + 1;
            while k < toks.len() && !toks[k].is_punct('{') {
                k += 1;
            }
            if k < toks.len() {
                let end = match_brace(toks, k);
                spans.push((toks[i].off, end));
                i = k;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Given `idx` pointing at an `open` delimiter (or just past `#`), returns
/// the index one past its matching `close`.
fn skip_group(toks: &[Token], idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut i = idx;
    while i < toks.len() {
        if toks[i].is_punct(open) {
            depth += 1;
        } else if toks[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Given `idx` pointing at `{`, returns the byte offset one past the
/// matching `}` (or the last token's offset on imbalance).
fn match_brace(toks: &[Token], idx: usize) -> usize {
    let mut depth = 0usize;
    for t in &toks[idx..] {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return t.off + 1;
            }
        }
    }
    toks.last().map(|t| t.off + 1).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, scope: FileScope) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let lines = LineIndex::new(src);
        let spans = test_spans(&lexed);
        let ctx = FileCtx {
            path: "test.rs",
            lexed: &lexed,
            lines: &lines,
            test_spans: &spans,
        };
        run_token_rules(&ctx, scope)
    }

    const DET: FileScope = FileScope {
        determinism: true,
        observability: false,
        hot_path: false,
        crate_root: false,
    };
    const HOT: FileScope = FileScope {
        determinism: false,
        observability: false,
        hot_path: true,
        crate_root: false,
    };

    #[test]
    fn hashmap_fires_only_in_determinism_scope() {
        let src = "use std::collections::HashMap;";
        assert_eq!(run(src, DET).len(), 1);
        assert_eq!(run(src, DET)[0].rule, "hash-collection");
        assert!(run(src, HOT).is_empty());
    }

    #[test]
    fn hashmap_in_string_or_comment_is_fine() {
        assert!(run("// HashMap\nlet s = \"HashMap\";", DET).is_empty());
    }

    #[test]
    fn wall_clock_and_thread() {
        let d = run("let t = std::time::Instant::now(); std::thread::sleep(d);", DET);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].rule, "wall-clock");
        assert_eq!(d[1].rule, "thread");
        // A local named `thread` with no path context is fine.
        assert!(run("let thread = 1; let x = thread + 1;", DET).is_empty());
    }

    #[test]
    fn ptr_format_in_string() {
        let d = run(r#"let s = format!("{:p}", &x);"#, DET);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "ptr-format");
    }

    #[test]
    fn unwrap_expect_only_as_methods() {
        let d = run("let x = y.unwrap(); let z = w.expect(\"msg\");", HOT);
        assert_eq!(d.len(), 2);
        // unwrap_or / unwrap_seq are different identifiers entirely.
        assert!(run("let x = y.unwrap_or(0); let s = unwrap_seq(a, b);", HOT).is_empty());
        // A function *named* unwrap without a dot is not a method call.
        assert!(run("fn unwrap() {}", HOT).is_empty());
    }

    #[test]
    fn panic_macros() {
        let d = run("panic!(\"boom\"); todo!(); unimplemented!();", HOT);
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|d| d.rule == "hot-path-panic"));
    }

    #[test]
    fn indexing_detection() {
        assert_eq!(run("let x = buf[0];", HOT).len(), 1);
        assert_eq!(run("let t = &carry[(a - b) as usize..];", HOT).len(), 1);
        assert_eq!(run("let y = f()[1];", HOT).len(), 1);
        // Not indexing: types, attributes, slice patterns, vec! macro.
        assert!(run("fn f(x: &mut [u8]) -> [u8; 2] { #[allow(dead_code)] let v = vec![1]; [0, 0] }", HOT).is_empty());
    }

    #[test]
    fn direct_output() {
        let scope = FileScope {
            observability: true,
            ..Default::default()
        };
        let d = run("println!(\"x\"); dbg!(v); eprintln!(\"e\");", scope);
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|d| d.rule == "direct-output"));
        // `print` as a method name is not the macro.
        assert!(run("self.print(); let print = 2;", scope).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn f() { x.unwrap(); println!(\"t\"); }\n}\n";
        let scope = FileScope {
            determinism: true,
            observability: true,
            hot_path: true,
            crate_root: false,
        };
        let d = run(src, scope);
        assert_eq!(d.len(), 1, "only the non-test HashMap fires: {d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn unsafe_attr_check() {
        let root = FileScope {
            crate_root: true,
            ..Default::default()
        };
        assert_eq!(run("pub mod x;", root).len(), 1);
        assert!(run("#![forbid(unsafe_code)]\npub mod x;", root).is_empty());
        assert!(run("//! Doc.\n#![deny(unsafe_code)]\npub mod x;", root).is_empty());
    }
}

//! Diagnostics: severities, rendering (human text and machine JSON).

use std::fmt;

/// How bad a finding is. `Error` fails the build; `Warning` is advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding at a source position.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule identifier (`hash-collection`, `hot-path-panic`, …).
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based.
    pub line: usize,
    /// 1-based.
    pub col: usize,
    pub message: String,
}

impl Diagnostic {
    /// `error[rule]: message\n  --> file:line:col` (rustc-style).
    pub fn render_text(&self) -> String {
        format!(
            "{}[{}]: {}\n  --> {}:{}:{}",
            self.severity, self.rule, self.message, self.file, self.line, self.col
        )
    }

    /// One JSON object on a single line (machine-readable output mode).
    /// Stable field order: rule, severity, file, line, col, message.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            json_escape(self.rule),
            self.severity,
            json_escape(&self.file),
            self.line,
            self.col,
            json_escape(&self.message),
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "hash-collection",
            severity: Severity::Error,
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            message: "say \"no\"".into(),
        }
    }

    #[test]
    fn text_rendering() {
        assert_eq!(
            diag().render_text(),
            "error[hash-collection]: say \"no\"\n  --> crates/x/src/lib.rs:3:7"
        );
    }

    #[test]
    fn json_rendering_escapes() {
        let j = diag().render_json();
        assert!(j.contains("\"message\":\"say \\\"no\\\"\""), "{j}");
        assert!(j.ends_with("\"col\":7,\"message\":\"say \\\"no\\\"\"}"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn severity_order() {
        assert!(Severity::Error > Severity::Warning);
    }
}

//! CLI for `ano-lint`.
//!
//! ```text
//! cargo run -p ano-lint [--root <dir>] [--format text|json] [--json]
//! ```
//!
//! Exits non-zero iff any error-severity diagnostic survives suppression.
//! `--json` (alias for `--format json`) emits one JSON object per line in
//! stable field order (rule, severity, file, line, col, message) for
//! machine consumption.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ano_lint::lint_workspace;

const USAGE: &str = "usage: ano-lint [--root <dir>] [--format text|json] [--json]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => return usage("--format must be text or json"),
            },
            "--json" => format = Format::Json,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Default root: this crate lives at <root>/crates/lint, so the build-time
    // manifest dir puts the workspace two levels up, wherever the binary is
    // invoked from.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
    });

    let report = lint_workspace(&root);

    for d in &report.diags {
        match format {
            Format::Text => println!("{}", d.render_text()),
            Format::Json => println!("{}", d.render_json()),
        }
    }
    let (errors, warnings) = (report.errors(), report.warnings());
    if format == Format::Text {
        println!(
            "ano-lint: {} file(s) checked; {errors} error(s), {warnings} warning(s)",
            report.files
        );
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("ano-lint: {err}\n{USAGE}");
    ExitCode::FAILURE
}

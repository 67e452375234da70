//! CLI for `ano-lint`.
//!
//! ```text
//! cargo run -p ano-lint [--root <dir>] [--format text|json] [--json] [--timing]
//! ```
//!
//! Exits non-zero iff any error-severity diagnostic survives suppression.
//! `--json` (alias for `--format json`) emits one JSON object per line in
//! stable field order (rule, severity, file, line, col, message, chain)
//! for machine consumption. `--timing` appends per-pass wall-clock
//! milliseconds to stderr.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ano_lint::lint_workspace;

const USAGE: &str = "usage: ano-lint [--root <dir>] [--format text|json] [--json] [--timing]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut timing = false;
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
            "--timing" => timing = true,
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
    if timing {
        for (pass, millis) in &report.timings {
            eprintln!("ano-lint: timing {pass} {millis:.1}ms");
        }
    }

    for d in &report.diags {
        match format {
            Format::Text => println!("{}", d.render_text()),
            Format::Json => println!("{}", d.render_json()),
        }
    }
    let (errors, warnings) = (report.errors(), report.warnings());
    if format == Format::Text {
        println!(
            "ano-lint: {} file(s) checked, {} fn(s), {} call edge(s) \
             ({} unresolved), {} hot-path entr{}; {errors} error(s), {warnings} warning(s)",
            report.files,
            report.graph.fns,
            report.graph.edges,
            report.graph.unresolved,
            report.graph.entries,
            if report.graph.entries == 1 { "y" } else { "ies" },
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

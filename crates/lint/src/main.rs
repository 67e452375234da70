//! CLI for `ano-lint`.
//!
//! ```text
//! cargo run -p ano-lint [--root <dir>] [--format text|json] [--json]
//!                       [--alloc-report] [--timing]
//! ```
//!
//! Exits non-zero iff any error-severity diagnostic survives suppression.
//! `--json` (alias for `--format json`) emits one JSON object per line in
//! stable field order (rule, severity, file, line, col, message, chain)
//! for machine consumption. `--alloc-report` prints the ranked inventory
//! of allocation sites reachable from the hot-path entries instead of
//! diagnostics (and exits zero — it is a measurement, not a gate); its
//! header line also counts the inline-allow lines outside `crates/lint`.
//! `--timing` appends per-pass wall-clock milliseconds to stderr.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ano_lint::lint_workspace;

const USAGE: &str =
    "usage: ano-lint [--root <dir>] [--format text|json] [--json] [--alloc-report] [--timing]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut alloc_report = false;
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
            "--alloc-report" => alloc_report = true,
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

    if alloc_report {
        // The inventory is the deliverable: every allocation site reachable
        // from an `entry(hot-path)` fn, hottest first. Suppressed sites are
        // listed too — an audited allow silences the error, not the
        // measurement (this list feeds the arena/slab work).
        println!(
            "# allocation sites reachable from {} hot-path entr{} \
             ({} fns, {} edges, {} unresolved calls; {} suppressions outside crates/lint)",
            report.graph.entries,
            if report.graph.entries == 1 { "y" } else { "ies" },
            report.graph.fns,
            report.graph.edges,
            report.graph.unresolved,
            report.suppressions,
        );
        for (i, e) in report.alloc_report.iter().enumerate() {
            println!("{}", e.render(i + 1));
        }
        return ExitCode::SUCCESS;
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

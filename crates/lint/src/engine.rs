//! The workspace engine: file discovery, per-crate rule scoping, and the
//! top-level `lint_workspace` entry point.
//!
//! Scoping policy (see DESIGN.md "Static analysis"):
//!
//! * **determinism** rules cover every crate whose code can reach traces,
//!   golden files, or the simulated schedule;
//! * **observability** rules cover every library crate except `bench`
//!   (a measurement harness whose stdout *is* its deliverable) and `lint`
//!   (this tool — its stdout is the diagnostic report);
//! * **panic-freedom** rules cover only the per-packet hot paths;
//! * **unsafe-attr** covers every crate root;
//! * test modules (`#[cfg(test)]`), `tests/`, `benches/`, and `examples/`
//!   are out of scope for *rules* — the engine only runs them on `src/` —
//!   but their identifier usage still counts for the dead-export pass.
//!
//! The workspace run is two-phase. Phase one lexes every `src/` file,
//! runs the token rules, scans its exported items, and collects the file's
//! suppressions. Phase two is workspace-global: run the dead-export pass,
//! cross-check the resync table, and only then apply suppressions — so a
//! stale allow is judged against *every* pass, not just the per-file ones.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Severity};
use crate::facts;
use crate::lexer::{lex, LineIndex};
use crate::parser::{self, ParsedFile};
use crate::resync;
use crate::rules::{run_token_rules, test_spans, FileCtx, FileScope};
use crate::suppress::{self, Suppressions};

/// Crates whose code can affect traces, golden files, or scheduling.
/// `crypto`, `accel`, and `testkit` are pure functions of their inputs;
/// `bench` reads the wall clock only to report how long the figures
/// took (stderr); `lint` is this tool.
const DETERMINISM_CRATES: &[&str] = &[
    "sim", "tcp", "core", "tls", "nvme", "stack", "trace", "scenario", "apps",
];

/// Library crates allowed to write to stdout/stderr directly.
const OBSERVABILITY_EXEMPT: &[&str] = &["bench", "lint"];

/// Per-packet hot paths where a panic aborts the whole schedule
/// (workspace-relative paths). `fault.rs` qualifies because `on_op` sits
/// on the install and resync-mailbox paths and its empty-plan
/// short-circuit is consulted for every op even in fault-free runs.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/rx.rs",
    "crates/core/src/tx.rs",
    "crates/core/src/fault.rs",
    "crates/tcp/src/sender.rs",
    "crates/tcp/src/receiver.rs",
];

/// Derives the rule scope for one file.
pub fn scope_for(crate_name: &str, rel_path: &str, is_crate_root: bool) -> FileScope {
    FileScope {
        determinism: DETERMINISM_CRATES.contains(&crate_name),
        observability: !OBSERVABILITY_EXEMPT.contains(&crate_name),
        hot_path: HOT_PATH_FILES.contains(&rel_path),
        crate_root: is_crate_root,
    }
}

/// Lints one file's source under the given scope: token rules filtered
/// through inline suppressions, plus suppression-syntax diagnostics.
/// Per-file view only — no workspace passes (use [`lint_workspace`]).
pub fn lint_source(rel_path: &str, src: &str, scope: FileScope) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let lines = LineIndex::new(src);
    let spans = test_spans(&lexed);
    let ctx = FileCtx {
        path: rel_path,
        lexed: &lexed,
        lines: &lines,
        test_spans: &spans,
    };
    let raw = run_token_rules(&ctx, scope);
    let mut sup = suppress::parse(rel_path, &lexed, &lines);
    let mut out = suppress::apply(&mut sup, raw);
    out.extend(suppress::stale_diags(rel_path, &sup));
    out.extend(sup.diags);
    out
}

/// Result of a whole-workspace run.
pub struct Report {
    pub diags: Vec<Diagnostic>,
    pub files: usize,
    /// Inline suppressions in linted files outside `crates/lint` (the
    /// linter's own sources quote the syntax), counted per rule and keyed
    /// `allow(<rule>)` / `allow-file(<rule>)`. The self-test pins them, so
    /// a new exemption shows up in review as a snapshot diff.
    pub allows: BTreeMap<String, usize>,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }

    pub fn warnings(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warning).count()
    }
}

/// Per-file state carried between the two phases.
struct FileEntry {
    rel: String,
    sup: Suppressions,
    /// Token-rule findings awaiting workspace-level suppression.
    raw: Vec<Diagnostic>,
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Report {
    let mut entries: Vec<FileEntry> = Vec::new();
    let mut parsed: Vec<(String, ParsedFile)> = Vec::new();
    let mut io_errors: Vec<Diagnostic> = Vec::new();
    let mut files = 0usize;
    let mut allows: BTreeMap<String, usize> = BTreeMap::new();

    // Phase 1: per-file — lex once, token rules + exports + suppressions.
    for (crate_name, src_dir) in crate_src_dirs(root, &mut io_errors) {
        let mut rs_files = Vec::new();
        collect_rs_files(&src_dir, &mut rs_files);
        rs_files.sort();
        for path in rs_files {
            files += 1;
            let rel = rel_path(root, &path);
            let src = match fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    io_errors.push(io_diag(&rel, format!("cannot read file: {e}")));
                    continue;
                }
            };
            let is_root = {
                let fname = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
                let parent = path
                    .parent()
                    .and_then(|p| p.file_name())
                    .and_then(|s| s.to_str())
                    .unwrap_or("");
                // Crate roots: src/lib.rs, src/main.rs, src/bin/*.rs.
                (parent == "src" && (fname == "lib.rs" || fname == "main.rs"))
                    || parent == "bin"
            };
            let scope = scope_for(&crate_name, &rel, is_root);
            let lexed = lex(&src);
            let lines = LineIndex::new(&src);
            let spans = test_spans(&lexed);
            let ctx = FileCtx {
                path: &rel,
                lexed: &lexed,
                lines: &lines,
                test_spans: &spans,
            };
            let raw = run_token_rules(&ctx, scope);
            let sup = suppress::parse(&rel, &lexed, &lines);
            if crate_name != "lint" {
                for s in &sup.list {
                    let directive = if s.file_scope { "allow-file" } else { "allow" };
                    for rule in &s.rules {
                        *allows.entry(format!("{directive}({rule})")).or_insert(0) += 1;
                    }
                }
            }
            parsed.push((rel.clone(), parser::scan(&lexed, &lines, &spans)));
            entries.push(FileEntry { rel, sup, raw });
        }
    }

    // Phase 2a: dead exports, against src usage plus the identifiers of
    // the trees the rules do not cover — tests/, benches/, examples/.
    let dead = facts::dead_exports(&parsed, &extra_ident_counts(root));

    // Phase 2b: spec-vs-code — the resync transition table.
    let mut resync_diags = Vec::new();
    let rx_path = root.join("crates/core/src/rx.rs");
    let inv_path = root.join("crates/scenario/src/invariant.rs");
    // The pass only applies to roots that carry the resync pair at all
    // (fixture workspaces don't); losing just *one* of the two files is
    // still an error — the cross-check exists to keep them in lockstep.
    if rx_path.is_file() || inv_path.is_file() {
        match (fs::read_to_string(&rx_path), fs::read_to_string(&inv_path)) {
            (Ok(rx), Ok(inv)) => resync_diags.extend(resync::cross_check(&rx, &inv)),
            (Err(e), _) => {
                io_errors.push(io_diag("crates/core/src/rx.rs", format!("cannot read: {e}")))
            }
            (_, Err(e)) => io_errors.push(io_diag(
                "crates/scenario/src/invariant.rs",
                format!("cannot read: {e}"),
            )),
        }
    }

    // Suppression application, last: every suppressible finding (token
    // rules, dead exports, resync) is routed through its file's
    // suppressions; only then are stale allows judged.
    let by_rel: BTreeMap<String, usize> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| (e.rel.clone(), i))
        .collect();
    let mut pending: Vec<Diagnostic> = Vec::new();
    for e in &mut entries {
        pending.append(&mut e.raw);
    }
    pending.extend(dead);
    pending.extend(resync_diags);

    let mut by_file: BTreeMap<usize, Vec<Diagnostic>> = BTreeMap::new();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for d in pending {
        match by_rel.get(&d.file) {
            Some(&i) => by_file.entry(i).or_default().push(d),
            None => diags.push(d), // no suppression context for this path
        }
    }
    for (i, file_diags) in by_file {
        diags.extend(suppress::apply(&mut entries[i].sup, file_diags));
    }
    for e in &entries {
        diags.extend(suppress::stale_diags(&e.rel, &e.sup));
        diags.extend(e.sup.diags.iter().cloned());
    }
    diags.extend(io_errors);

    // Deterministic report order (the lint must satisfy its own standard).
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
    });
    Report {
        diags,
        files,
        allows,
    }
}

/// Identifier usage counts from `tests/`, `benches/`, and `examples/`
/// trees of every crate and the workspace root. The dead-export pass
/// treats any mention there as use.
fn extra_ident_counts(root: &Path) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    for sub in ["tests", "benches", "examples"] {
        dirs.push(root.join(sub));
        if let Ok(rd) = fs::read_dir(root.join("crates")) {
            for e in rd.filter_map(Result::ok) {
                dirs.push(e.path().join(sub));
            }
        }
    }
    let mut rs = Vec::new();
    for d in dirs {
        if d.is_dir() {
            collect_rs_files(&d, &mut rs);
        }
    }
    rs.sort();
    for path in rs {
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        for (name, n) in parser::ident_counts(&lex(&src)) {
            *out.entry(name).or_insert(0) += n;
        }
    }
    out
}

fn io_diag(file: &str, message: String) -> Diagnostic {
    Diagnostic {
        rule: "io",
        severity: Severity::Error,
        file: file.to_string(),
        line: 1,
        col: 1,
        message,
    }
}

/// `(crate_name, src_dir)` for every workspace member plus the root
/// package, in sorted order.
fn crate_src_dirs(root: &Path, diags: &mut Vec<Diagnostic>) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    match fs::read_dir(&crates) {
        Ok(rd) => {
            let mut dirs: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
            dirs.sort();
            for d in dirs {
                let src = d.join("src");
                if src.is_dir() {
                    let name = d
                        .file_name()
                        .and_then(|s| s.to_str())
                        .unwrap_or_default()
                        .to_string();
                    out.push((name, src));
                }
            }
        }
        Err(e) => diags.push(io_diag("crates", format!("cannot list workspace crates: {e}"))),
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        out.push(("root".to_string(), root_src));
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else {
        return;
    };
    for e in rd.filter_map(Result::ok) {
        let p = e.path();
        if p.is_dir() {
            collect_rs_files(&p, out);
        } else if p.extension().and_then(|s| s.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_table() {
        let s = scope_for("core", "crates/core/src/rx.rs", false);
        assert!(s.determinism && s.observability && s.hot_path && !s.crate_root);
        let s = scope_for("crypto", "crates/crypto/src/aes.rs", false);
        assert!(!s.determinism && s.observability);
        let s = scope_for("bench", "crates/bench/src/runners.rs", false);
        assert!(!s.determinism && !s.observability);
        let s = scope_for("tcp", "crates/tcp/src/lib.rs", true);
        assert!(s.determinism && s.crate_root && !s.hot_path);
        // PR 5: the device-fault layer is hot-path (empty-plan check runs
        // per op) and the chaos matrix is determinism-scoped via its crate.
        let s = scope_for("core", "crates/core/src/fault.rs", false);
        assert!(s.determinism && s.hot_path);
        let s = scope_for("scenario", "crates/scenario/src/chaos.rs", false);
        assert!(s.determinism && !s.hot_path);
        // runtime.rs is not panic-freedom scoped: its world-construction
        // asserts are deliberate.
        let s = scope_for("stack", "crates/stack/src/runtime.rs", false);
        assert!(s.determinism && !s.hot_path);
    }

    #[test]
    fn lint_source_end_to_end() {
        let src = "#![forbid(unsafe_code)]\nuse std::collections::BTreeMap;\n";
        let scope = FileScope {
            determinism: true,
            observability: true,
            hot_path: false,
            crate_root: true,
        };
        assert!(lint_source("x.rs", src, scope).is_empty());
    }
}

//! Fixture-based self-tests for the lint engine (ISSUE PR 4, satellite d).
//!
//! Every rule family has a known-bad fixture it must fire on and a
//! known-good twin it must stay silent on; suppression misuse is itself
//! diagnosed; the resync transition table extracted from the *real*
//! `crates/core/src/rx.rs` is pinned against the legal-edge set in
//! `crates/scenario/src/invariant.rs`; the dead-export pass runs over a
//! fixture mini-workspace; and the workspace's own inline allows are
//! pinned per rule in `tests/expected/allows.txt`.

use std::fs;
use std::path::Path;

use ano_lint::engine::{lint_source, lint_workspace};
use ano_lint::resync;
use ano_lint::{Diagnostic, FileScope, Severity};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn lint_fixture(name: &str, scope: FileScope) -> Vec<Diagnostic> {
    lint_source(name, &fixture(name), scope)
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<&str> {
    let mut r: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    r.sort();
    r.dedup();
    r
}

const DETERMINISM: FileScope = FileScope {
    determinism: true,
    observability: false,
    hot_path: false,
    crate_root: false,
};
const HOT_PATH: FileScope = FileScope {
    determinism: false,
    observability: false,
    hot_path: true,
    crate_root: false,
};
const OBSERVABILITY: FileScope = FileScope {
    determinism: false,
    observability: true,
    hot_path: false,
    crate_root: false,
};
const CRATE_ROOT: FileScope = FileScope {
    determinism: false,
    observability: false,
    hot_path: false,
    crate_root: true,
};

// ---- determinism family ------------------------------------------------

#[test]
fn determinism_bad_fires_every_rule() {
    let d = lint_fixture("bad/determinism.rs", DETERMINISM);
    assert_eq!(
        rules_fired(&d),
        ["hash-collection", "ptr-format", "thread", "wall-clock"],
        "{d:?}"
    );
    assert!(d.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn determinism_good_is_silent() {
    let d = lint_fixture("good/determinism.rs", DETERMINISM);
    assert!(d.is_empty(), "{d:?}");
}

// ---- panic-freedom family ----------------------------------------------

#[test]
fn hot_path_bad_fires_panic_and_index_rules() {
    let d = lint_fixture("bad/hot_path.rs", HOT_PATH);
    let panics = d.iter().filter(|d| d.rule == "hot-path-panic").count();
    let indexes = d.iter().filter(|d| d.rule == "hot-path-index").count();
    // unwrap, expect, panic!, todo!, unimplemented! — one each.
    assert_eq!(panics, 5, "{d:?}");
    // buf[0] and &buf[from..] — one each.
    assert_eq!(indexes, 2, "{d:?}");
    assert_eq!(d.len(), panics + indexes, "{d:?}");
}

#[test]
fn hot_path_good_is_silent_including_its_test_module() {
    let d = lint_fixture("good/hot_path.rs", HOT_PATH);
    assert!(d.is_empty(), "{d:?}");
}

// ---- observability family ----------------------------------------------

#[test]
fn output_bad_fires_on_every_direct_print() {
    let d = lint_fixture("bad/output.rs", OBSERVABILITY);
    // println!, eprintln!, print!, eprint!, dbg! — one each.
    assert_eq!(d.len(), 5, "{d:?}");
    assert!(d.iter().all(|d| d.rule == "direct-output"));
}

#[test]
fn output_good_is_silent() {
    let d = lint_fixture("good/output.rs", OBSERVABILITY);
    assert!(d.is_empty(), "{d:?}");
}

// ---- suppressions ------------------------------------------------------

#[test]
fn suppression_misuse_is_diagnosed() {
    let d = lint_fixture("bad/suppression.rs", DETERMINISM);
    // A justification-less allow is an error and silences nothing.
    assert!(
        d.iter().any(|d| d.rule == "bad-suppression"
            && d.severity == Severity::Error
            && d.message.contains("justification")),
        "{d:?}"
    );
    // An unknown rule name is an error.
    assert!(
        d.iter().any(|d| d.rule == "bad-suppression"
            && d.severity == Severity::Error
            && d.message.contains("unknown rule")),
        "{d:?}"
    );
    // None of the three HashMap findings is silenced.
    assert_eq!(
        d.iter().filter(|d| d.rule == "hash-collection").count(),
        3,
        "{d:?}"
    );
    // A well-formed suppression of the wrong rule silences nothing; a
    // stale suppression is a hard error so they cannot accumulate.
    assert!(
        d.iter().any(|d| d.rule == "bad-suppression"
            && d.severity == Severity::Error
            && d.message.contains("matches no diagnostic")),
        "{d:?}"
    );
}

#[test]
fn justified_suppressions_are_clean() {
    let d = lint_fixture("good/suppression.rs", DETERMINISM);
    assert!(d.is_empty(), "{d:?}");
}

// ---- unsafe-code hygiene -----------------------------------------------

#[test]
fn missing_forbid_unsafe_is_flagged_on_crate_roots() {
    let d = lint_fixture("bad/unsafe_attr.rs", CRATE_ROOT);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].rule, "unsafe-attr");
    let d = lint_fixture("good/unsafe_attr.rs", CRATE_ROOT);
    assert!(d.is_empty(), "{d:?}");
}

// ---- resync spec-vs-code -----------------------------------------------

#[test]
fn resync_fixture_tables_cross_check() {
    let rx_good = fixture("good/resync_rx.rs");
    let inv_good = fixture("good/resync_invariant.rs");
    assert!(resync::cross_check(&rx_good, &inv_good).is_empty());

    // An edge the engine emits but the spec rejects.
    let d = resync::cross_check(&fixture("bad/resync_rx.rs"), &inv_good);
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("Tracking->Offloading"), "{d:?}");
    assert!(d[0].message.contains("rejects it"), "{d:?}");

    // An edge the engine emits that the spec dropped.
    let d = resync::cross_check(&rx_good, &fixture("bad/resync_invariant.rs"));
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("Tracking->Searching"), "{d:?}");
}

/// The expected §4.3 edge set, sorted the way `pair_phases` sorts.
const EXPECTED_EDGES: &[(&str, &str)] = &[
    ("Confirmed", "Offloading"),
    ("Confirmed", "Searching"),
    ("Offloading", "Searching"),
    ("Searching", "Tracking"),
    ("Tracking", "Confirmed"),
    ("Tracking", "Searching"),
];

#[test]
fn real_resync_tables_match_and_are_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rx = fs::read_to_string(root.join("crates/core/src/rx.rs")).unwrap();
    let inv = fs::read_to_string(root.join("crates/scenario/src/invariant.rs")).unwrap();

    let expected: Vec<(String, String)> = EXPECTED_EDGES
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .collect();
    assert_eq!(resync::extract_rx_table(&rx).unwrap(), expected);
    assert_eq!(resync::extract_invariant_table(&inv).unwrap(), expected);

    let d = resync::cross_check(&rx, &inv);
    assert!(d.is_empty(), "{d:?}");
}

// ---- dead exports ------------------------------------------------------

#[test]
fn dead_export_fixture_workspace() {
    // `alpha` exports four items: `used` is called from `beta`,
    // `tested` only from alpha's tests/ tree, `orphan` and `Unused` by
    // nobody — and `orphan` is justified by an audited allow.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/exports");
    let report = lint_workspace(&root);
    assert_eq!(report.files, 2);
    let d: Vec<_> = report.diags.iter().map(|d| (d.rule, d.file.as_str(), d.line)).collect();
    assert_eq!(d, [("dead-export", "crates/alpha/src/lib.rs", 11)], "{:?}", report.diags);
    assert!(report.diags[0].message.contains("pub struct `Unused`"), "{:?}", report.diags);
    assert_eq!(report.errors(), 0);
}

// ---- the workspace satisfies its own lint ------------------------------

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root);
    assert!(report.files > 50, "walked only {} files", report.files);
    assert_eq!(
        report.errors(),
        0,
        "workspace has lint errors:\n{}",
        report
            .diags
            .iter()
            .map(|d| format!("{}:{}:{} [{}] {}", d.file, d.line, d.col, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.warnings(), 0, "workspace has unused suppressions");

    // Exemptions do not rise silently: the per-rule count of inline allows
    // outside crates/lint is pinned, so a new one is a reviewed diff.
    let mut got = String::from("# inline `ano-lint: allow` directives outside crates/lint, per rule\n");
    for (rule, n) in &report.allows {
        got.push_str(&format!("{rule} {n}\n"));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/expected/allows.txt");
    if std::env::var("BLESS").is_ok() {
        fs::write(&path, &got).expect("write allows.txt");
    }
    let want = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); run with BLESS=1 to create it", path.display()));
    assert_eq!(
        got,
        want,
        "inline allows moved from {}; if intended, re-bless with BLESS=1 and review the diff",
        path.display()
    );
}

//! Workspace-level self-tests for the call-graph analysis, driven by the
//! fixture mini-workspace in `fixtures/graph`: a cross-module panic chain,
//! a cross-crate taint chain, a call through a closure parameter that must
//! not bind to a same-named free fn, and a `cfg(test)` false-positive
//! guard.

use std::path::{Path, PathBuf};

use ano_lint::engine::{lint_workspace, Report};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/graph")
}

fn report() -> Report {
    lint_workspace(&fixture_root())
}

/// Chain hops are `fn-id (file:line)`; strip the location for comparisons.
fn chain_ids(chain: &[String]) -> Vec<&str> {
    chain
        .iter()
        .map(|h| h.split(" (").next().unwrap_or(h))
        .collect()
}

#[test]
fn fixture_graph_covers_both_crates() {
    let r = report();
    assert_eq!(r.files, 4, "alpha lib+frame, beta lib+clock");
    assert_eq!(r.graph.crates, 2);
    assert_eq!(r.graph.entries, 1);
    // pump, split, each, header_byte, sample, stamp, visit — and nothing
    // from the cfg(test) module in frame.rs.
    assert_eq!(r.graph.fns, 7, "cfg(test) items must be pruned");
}

#[test]
fn cross_module_panic_chain_lands_on_the_seed_line() {
    let r = report();
    let panics: Vec<_> = r
        .diags
        .iter()
        .filter(|d| d.rule == "transitive-panic")
        .collect();
    // Exactly one: the unwrap inside the cfg(test) module must not show up.
    assert_eq!(panics.len(), 1, "{panics:?}");
    let d = panics[0];
    assert_eq!(d.file, "crates/alpha/src/frame.rs");
    assert!(d.message.contains("`slice-index`"), "{}", d.message);
    assert!(
        d.message.contains("hot-path entry `alpha::pump`"),
        "{}",
        d.message
    );
    assert!(d.message.contains("2 calls deep"), "{}", d.message);
    assert_eq!(
        chain_ids(&d.chain),
        ["alpha::pump", "alpha::frame::split", "alpha::frame::header_byte"]
    );
}

#[test]
fn cross_crate_taint_chain_is_reported() {
    let r = report();
    let taints: Vec<_> = r
        .diags
        .iter()
        .filter(|d| d.rule == "transitive-nondet")
        .collect();
    assert_eq!(taints.len(), 1, "{taints:?}");
    let d = taints[0];
    assert_eq!(d.file, "crates/beta/src/clock.rs");
    assert!(d.message.contains("std::time::Instant"), "{}", d.message);
    assert_eq!(
        chain_ids(&d.chain),
        ["alpha::pump", "beta::clock::sample", "beta::clock::stamp"]
    );
}

#[test]
fn call_through_a_parameter_binds_to_no_free_fn() {
    let r = report();
    // `each` calls its `visit` closure argument; `beta::clock::visit` (an
    // unwrap) shares only the name. Binding the two would report that
    // unwrap as reachable from `alpha::pump`.
    let visit_panics: Vec<_> = r
        .diags
        .iter()
        .filter(|d| d.rule == "transitive-panic" && d.file == "crates/beta/src/clock.rs")
        .collect();
    assert!(visit_panics.is_empty(), "{visit_panics:?}");
    assert_eq!(r.graph.unresolved, 1, "the call through `visit` is unresolved");
}

#[test]
fn entry_fns_are_not_dead_exports() {
    let r = report();
    // `pump` has no caller inside the fixture workspace, but it is a
    // declared `entry(hot-path)` root; `rebuild`/`split`/`sample` are
    // called. No dead-export findings at all.
    assert!(
        r.diags.iter().all(|d| d.rule != "dead-export"),
        "{:?}",
        r.diags
    );
}

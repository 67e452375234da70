//! Fleet-tier tests: the §6.5 context-cache sensitivity curve, the PR-5
//! cache-thrash breaker, a short-lived-connection churn storm over the
//! §4.4 install ladder, and a golden trace pinning a small fleet's
//! eviction→resync→re-offload choreography. Every shape is a registry
//! entry (`fleet/*`); committed data regenerates with `BLESS=1` (see
//! `common/mod.rs`).
//!
//! The curve file (`tests/expected/fleet_sensitivity.txt`) is exact
//! integers — any drift in cache accounting, breaker policy, or scheduling
//! shows up as a diff, which *is* the review artifact.

mod common;

use ano_core::rx::RxStateKind;
use ano_scenario::runner::render_curve;
use ano_scenario::{builtin, run, run_differential, sensitivity_curve, Arm};
use ano_trace::event::Category;
use ano_trace::export;

use common::check_committed;

const CURVE_FLOWS: &[usize] = &[2, 4, 8, 16, 32];

/// The paper's context-cache sensitivity result, reproduced and pinned:
/// offload hit-rate degrades and the software-fallback share (breaker
/// trips, degraded packets) rises as the flow count crosses the server
/// cache capacity. Every point also runs its software twin with
/// byte-identical streams (inside `sensitivity_curve`), and the whole
/// sweep is run twice to pin in-process determinism.
#[test]
fn sensitivity_curve_crosses_cache_capacity() {
    let base = builtin("fleet/sensitivity").expect("built-in");
    let points = sensitivity_curve(&base, CURVE_FLOWS, 96 * 1024);
    let again = sensitivity_curve(&base, CURVE_FLOWS, 96 * 1024);
    assert_eq!(points, again, "sensitivity sweep is not deterministic");
    check_committed("expected/fleet_sensitivity.txt", &render_curve(&points));

    // Shape assertions — the committed file pins the exact numbers, these
    // pin the *physics* so a bad bless cannot hide a broken curve.
    let within: Vec<_> = points.iter().filter(|p| p.flows <= base.server_cache).collect();
    let beyond: Vec<_> = points.iter().filter(|p| p.flows > base.server_cache).collect();
    assert!(!within.is_empty() && !beyond.is_empty(), "sweep must straddle capacity");
    for p in &within {
        assert_eq!(p.breakers, 0, "flows={} fit the cache; no breaker", p.flows);
        assert_eq!(p.degraded_pkts, 0, "flows={} fit the cache", p.flows);
        assert!(
            p.hit_rate() > 0.8,
            "flows={} should run warm (hit rate {:.3})",
            p.flows,
            p.hit_rate()
        );
    }
    for p in &beyond {
        assert!(
            p.breakers > 0,
            "flows={} thrash the cache; breaker must trip",
            p.flows
        );
        assert!(p.degraded_pkts > 0, "flows={} must serve degraded packets", p.flows);
    }
    let warm = within.last().unwrap();
    let thrashed = beyond.last().unwrap();
    assert!(
        thrashed.hit_rate() < warm.hit_rate(),
        "hit rate must degrade across capacity ({:.3} -> {:.3})",
        warm.hit_rate(),
        thrashed.hit_rate()
    );
    assert!(
        beyond.last().unwrap().breakers >= beyond.first().unwrap().breakers,
        "fallback share rises with flow count"
    );
}

/// PR-5 thrash breaker, trip side: a cache far smaller than the flow
/// population with a low threshold must open breakers with the
/// `cache_thrash` reason — and the storm must stay application-invisible
/// (streams byte-exact, software twin identical).
#[test]
fn thrash_breaker_trips_with_cache_thrash_reason() {
    let d = run_differential(&builtin("fleet/thrash-trip").expect("built-in"));
    d.assert_clean();
    let reasons = d.offload.breakers();
    assert!(!reasons.is_empty(), "8 flows over a 2-entry cache must trip the breaker");
    assert!(
        reasons.iter().all(|r| *r == "cache_thrash"),
        "wrong breaker reason(s): {reasons:?}"
    );
    assert!(d.offload.degraded_pkts() > 0, "open breakers must meter degraded packets");
}

/// PR-5 thrash breaker, under-threshold side: ample cache and a high
/// threshold, plus a mid-run rx-context invalidation. The flow must walk
/// the §4.3 ladder back to `Offloading` — re-offload, not breaker (the
/// spec's `ReOffloaded` expectation, checked inside `assert_clean`
/// together with the injection oracle).
#[test]
fn under_threshold_invalidation_reoffloads() {
    let out = run(&builtin("fleet/under-threshold").expect("built-in"), Arm::Offload);
    out.assert_clean();
    assert!(out.complete, "invalidation must not stall the transfer");
    assert!(out.breakers().is_empty(), "under-threshold fault must not open a breaker");
    assert!(!out.flows[0].resync.is_empty(), "the invalidated flow must walk the ladder");
    assert_eq!(out.flows[0].rx_state, Some(RxStateKind::Offloading));
}

/// Short-lived-connection churn storm: waves of connect→stream→verify→
/// disconnect against a server whose device fails every third rx-context
/// install, stressing the §4.4 install ladder (retry/backoff) on every
/// wave. No breaker may open — 1-in-3 install failures are recoverable —
/// and every wave must deliver byte-exact streams. The software twin runs
/// the identical waves (same expected patterns) with no device to fault.
#[test]
fn churn_storm_exercises_install_ladder() {
    let d = run_differential(&builtin("fleet/churn").expect("built-in"));
    d.assert_clean();
    assert!(d.offload.complete && d.software.complete, "every wave must complete");
    assert_eq!(d.offload.flows.len(), 24, "4 waves x 6 connections");
    assert_eq!(d.software.flows.len(), 24, "software twin must cycle the same waves");
    assert!(
        d.offload.server(0).faults_injected > 0,
        "the install-fault plan must exercise the ladder"
    );
    assert!(d.offload.breakers().is_empty(), "recoverable install faults must not open breakers");
}

/// Golden trace for a small fleet: 3 clients × 2 servers, a 4-entry cache
/// on each server NIC, 8 flows placed unevenly (6 on server 0, 2 on
/// server 1) so server 0 evicts while server 1 runs warm, plus one mid-run
/// rx invalidation on server 0. The canonical Resync+Device rendering pins
/// the full eviction→resync→re-offload ladder.
#[test]
fn golden_fleet_eviction_resync_ladder() {
    let out = run(&builtin("fleet/golden-ladder").expect("built-in"), Arm::Offload);
    out.assert_clean();
    assert!(out.complete, "golden fleet must finish");
    assert_eq!(out.trace_dropped, 0, "trace ring wrapped; golden would be truncated");

    let got = export::canonical(&out.trace, &[Category::Resync, Category::Device]);
    let want = check_committed("golden/fleet_ladder.golden", &got);
    // The golden must meaningfully cover the ladder.
    assert!(want.contains("device.ctx-evict"), "golden must pin evictions");
    assert!(
        want.contains("Confirmed->Offloading"),
        "golden must pin the re-offload edge after the invalidation"
    );
}

/// Fleet scale (the CI tier's `--ignored` backstop): thousands of
/// concurrent flows across 8×2 hosts, server caches far below the flow
/// count, thrash breakers armed. Everything must complete byte-exact with
/// the fallback machinery absorbing the cache storm.
#[test]
#[ignore = "fleet-scale: thousands of flows; run via scripts/ci.sh fleet tier"]
fn fleet_scale_thousands_of_flows() {
    let sc = builtin("fleet/scale").expect("built-in");
    let on = run(&sc, Arm::Offload);
    on.assert_clean();
    assert!(on.complete, "fleet-scale run incomplete at {:?}", on.end);
    let (hits, misses) = on.server_cache();
    assert!(
        misses >= sc.flows.len() as u64,
        "1024 flows per 256-entry cache churn every context ({hits} hits / {misses} misses)"
    );
    assert!(!on.breakers().is_empty(), "thrash at this scale must trip breakers");
    assert!(on.degraded_pkts() > 0, "tripped flows must serve degraded packets");
}

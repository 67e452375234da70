//! Golden-trace regression tests: canonical trace renderings of two
//! behavior-rich scenarios, committed under `tests/golden/` and diffed
//! byte-for-byte on every run.
//!
//! The canonical form (`ano_trace::export::canonical`, Tcp + Resync
//! categories) is a pure function of the scenario's seed and schedule, so
//! any change to loss recovery, retransmit classification, or the §4.3
//! resync ladder shows up as a trace diff — including the classic mutation
//! of resuming offload without software confirmation, which rewrites the
//! `resync.transition` lines these goldens pin down.
//!
//! Regenerate after an intentional behavior change with `BLESS=1` (see
//! `common/mod.rs`) and review the new ladders.

mod common;

use ano_scenario::registry::tls_workload;
use ano_scenario::{all, builtin, run, Arm, Scenario, Workload};
use ano_sim::link::Script;
use ano_trace::event::Category;
use ano_trace::export;

use common::check_committed;

/// Runs `sc` offloaded, renders the canonical trace over `categories`, and
/// compares it to the committed golden (or rewrites it under `BLESS=1`).
/// Returns the committed text.
fn check_golden(file: &str, sc: &Scenario, categories: &[Category]) -> String {
    let out = run(sc, Arm::Offload);
    out.assert_clean();
    assert_eq!(out.trace_dropped, 0, "trace ring wrapped; golden would be truncated");
    let got = export::canonical(&out.trace, categories);
    check_committed(&format!("golden/{file}.golden"), &got)
}

/// The categories of the device-fault goldens: the degradation
/// choreography (faults, install retries, breaker trips, resets) alongside
/// the recovery and resync ladders.
const CHAOS_CATEGORIES: &[Category] = &[Category::Tcp, Category::Resync, Category::Device];

/// The reset→quiesce→resync→re-offload ladder: a mid-transfer device reset
/// wipes the rx context; the flow must quiesce to `Searching`, walk the §4.3
/// confirmation ladder, and resume offload at a record boundary. The golden
/// pins both the `device.reset` line and the full reconvergence chain.
#[test]
fn golden_chaos_reset_ladder() {
    let sc = builtin("chaos/tls/reset").expect("built-in");
    let text = check_golden("chaos_tls_reset", &sc, CHAOS_CATEGORIES);
    assert!(text.contains("device.reset"), "golden must pin the reset event");
    assert!(
        text.contains("Confirmed->Offloading"),
        "golden must pin the post-reset offload-resume edge"
    );
}

/// The breaker-open ladder: every install attempt fails, the retry/backoff
/// ladder exhausts, and the per-flow circuit breaker opens into permanent
/// software fallback. The golden pins the fail→retry→…→breaker sequence and
/// its backoff timestamps.
#[test]
fn golden_chaos_breaker_ladder() {
    let sc = builtin("chaos/tls/fail-all-installs").expect("built-in");
    let text = check_golden("chaos_tls_breaker", &sc, CHAOS_CATEGORIES);
    assert!(text.contains("device.install-fail"), "golden must pin the install failures");
    assert!(text.contains("device.install-retry"), "golden must pin the backoff ladder");
    assert!(
        text.contains("device.breaker-open reason=install_failures"),
        "golden must pin the breaker trip"
    );
}

/// The PR-1 alternating-drop regression (seed `cc 8ed59643…`, shrunk to
/// `len = 10137`, drops at indices {2,3,5,7,9,11,13,14} of a 64-cycle) as a
/// full-stack TLS scenario. Its golden pins the TCP recovery choreography —
/// SACK retransmits, RTO backoff, cwnd collapses — that the original
/// regression fixed.
fn pr1_alternating() -> Scenario {
    let mut pattern = vec![false; 64];
    for i in [2usize, 3, 5, 7, 9, 11, 13, 14] {
        pattern[i] = true;
    }
    Scenario::two_host("golden/pr1-alternating", Workload::tls(10_137))
        .data_script(Script::drop_cycle(pattern, u64::MAX))
}

#[test]
fn golden_pr1_alternating_drop() {
    check_golden("pr1_alternating", &pr1_alternating(), export::GOLDEN_CATEGORIES);
}

/// A TLS resync episode: the built-in alternating-drop schedule overtakes
/// the rx context, and the golden pins the full reconvergence ladder —
/// Offloading→Searching→Tracking→Confirmed→Offloading. (The milder burst
/// schedules never dethrone the context: the engine rides out OoS packets
/// as fallbacks and stays in `Offloading`, which is itself paper behavior.)
#[test]
fn golden_tls_alternating_resync() {
    let sc = builtin("tls/alternating").expect("built-in");
    // The golden meaningfully covers the confirmation path: mutating the
    // resync machine to skip software confirmation must change this file.
    let text = check_golden("tls_alternating", &sc, export::GOLDEN_CATEGORIES);
    assert!(
        text.contains("Tracking->Confirmed"),
        "golden must pin the software-confirmation edge"
    );
    assert!(
        text.contains("Confirmed->Offloading"),
        "golden must pin the offload-resume edge"
    );
}

/// The fleet partition ladder: one server rack of a 3×2-host fleet goes
/// dark mid-transfer and heals. The golden pins the whole choreography in
/// one file — `link.partition` events per severed direction, the RTO
/// backoff the dark flows accumulate, `link.repair` at heal, and the
/// §4.3 re-install ladder (`Searching→Tracking→Confirmed→Offloading`)
/// repair drives on every surviving flow.
#[test]
fn golden_netchaos_partition_ladder() {
    // `assert_clean` inside covers the legal-edge validation across the
    // repair: the golden diff shows *what* changed; that shows every
    // flow's ladder stayed legal.
    let sc = builtin("netchaos/tls/server-dark").expect("built-in");
    let text = check_golden("netchaos_server_dark", &sc, export::GOLDEN_CATEGORIES);
    assert!(text.contains("link.partition"), "golden must pin the partition events");
    assert!(text.contains("link.repair"), "golden must pin the repair events");
    assert!(text.contains("tcp.rto"), "golden must pin the RTO backoff while dark");
    assert!(
        text.contains("Offloading->Searching"),
        "golden must pin the partition quiesce edge"
    );
    assert!(
        text.contains("Confirmed->Offloading"),
        "golden must pin the post-repair offload-resume edge"
    );
}

/// The determinism contract the goldens stand on: running the same scenario
/// twice yields byte-identical canonical traces and full record streams.
/// Cross-process nondeterminism (wall clock, ASLR-dependent hashing) is
/// invisible to an in-process double run; [`registry_trace_hashes`] covers
/// it.
#[test]
fn identical_seeds_produce_identical_traces() {
    let sc = builtin("tls/partition").expect("built-in");
    let (a, b) = (run(&sc, Arm::Offload), run(&sc, Arm::Offload));
    assert_eq!(a.canonical_trace(), b.canonical_trace(), "canonical trace diverged");
    assert!(!a.canonical_trace().is_empty());
    assert_eq!(a.trace.len(), b.trace.len(), "full record streams diverged");
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Every trace category, high-volume ones included.
const EVERY_CATEGORY: &[Category] = &[
    Category::Tcp,
    Category::Offload,
    Category::Resync,
    Category::Crypto,
    Category::Cpu,
    Category::Device,
    Category::Net,
];

/// Prints `name arm fnv64(canonical trace) trace-records` for both arms of
/// every registry entry except the `*/scale` runs, hashing the canonical
/// rendering of every category. `scripts/ci.sh` runs it in two separate
/// release processes and diffs the outputs: any wall-clock, ASLR or
/// hash-order leak into a schedule anywhere in the registry shows as a
/// differing line, which no in-process double run can see.
#[test]
#[ignore = "132 scenario runs (a few seconds in release); run via the scripts/ci.sh trace-determinism stage"]
fn registry_trace_hashes() {
    for sc in all().iter().filter(|s| !s.name.ends_with("/scale")) {
        for (arm, label) in [(Arm::Offload, "offload"), (Arm::Software, "software")] {
            let out = run(sc, arm);
            let trace = export::canonical(&out.trace, EVERY_CATEGORY);
            println!("{} {label} {:016x} {}", sc.name, fnv64(trace.as_bytes()), out.trace.len());
        }
    }
}

/// Traces are also workload-sensitive: the same schedule over a different
/// workload must *not* collide (guards against the canonical form ignoring
/// inputs).
#[test]
fn different_schedules_produce_different_traces() {
    let clean = run(&builtin("tls/clean").expect("built-in"), Arm::Offload);
    let lossy = run(&builtin("tls/alternating").expect("built-in"), Arm::Offload);
    assert_ne!(clean.canonical_trace(), lossy.canonical_trace());
}

/// Offload-run traces carry resync transitions; software-only runs cannot
/// (no engine is installed) — the trace reflects which variant ran.
#[test]
fn software_runs_trace_no_resync() {
    let sc = Scenario::two_host("golden/sw", tls_workload()).data_script(Script::drop_nth(3));
    let out = run(&sc, Arm::Software);
    out.assert_clean();
    assert!(
        !out.canonical_trace().contains("resync.transition"),
        "software-only run has no rx engine to resync"
    );
}

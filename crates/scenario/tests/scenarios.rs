//! The adversarial scenario suite: the registry-wide shape tests, the
//! differential offload-vs-software matrix, the corruption/auth and
//! watchdog extras, and property tests over randomly generated drop
//! schedules.

use ano_scenario::gen::{drop_indices_of, script_gen, window_script_gen, windows_of};
use ano_scenario::registry::tls_workload;
use ano_scenario::{all, builtin, run, run_differential, Arm, Offload, Scenario, Workload};
use ano_sim::link::Script;
use ano_sim::time::SimTime;
use ano_testkit::Gen;

/// The eight link-adversity schedules of the `tls/` and `nvme/` matrices.
const SCHEDULES: [&str; 8] = [
    "clean", "drop-third", "early-burst", "alternating", "delay-spike", "dup-burst", "partition",
    "ack-burst",
];

/// Replay-by-name is the debugging entry point documented in DESIGN.md:
/// every registry name is unique and round-trips through `builtin`, and
/// each family keeps the shape its tier expects.
#[test]
fn registry_names_are_unique_and_round_trip() {
    let every = all();
    let mut names: Vec<&str> = every.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), every.len(), "duplicate scenario name in the registry");
    for sc in &every {
        assert_eq!(builtin(&sc.name).map(|s| s.name), Some(sc.name.clone()));
    }
    for missing in ["no/such-scenario", "chaos/tls/no-such-fault", "netchaos/tls/no-such-pattern"] {
        assert!(builtin(missing).is_none(), "{missing}");
    }

    let count = |prefix: &str| every.iter().filter(|s| s.name.starts_with(prefix)).count();
    for wl in ["tls", "nvme"] {
        for schedule in SCHEDULES {
            assert!(builtin(&format!("{wl}/{schedule}")).is_some(), "{wl}/{schedule}");
        }
    }
    assert_eq!(count("tls/") + count("nvme/"), 16 + 3, "8 schedules x 2 workloads + extras");
    assert_eq!(count("chaos/"), 24, "8 fault patterns x 3 workloads");
    assert_eq!((count("netchaos/tls/"), count("netchaos/nvme/")), (8, 6));
    // Every pure partition/hold plan is lossless by construction and
    // declares the pairs it darkens; only the impairment sweep is neither.
    for sc in every.iter().filter(|s| s.name.starts_with("netchaos/")) {
        assert_ne!(sc.lossless(), sc.dark_pairs().is_empty(), "{}", sc.name);
    }
}

/// The single twin rule, over the whole registry: no offload flag, no
/// device faults, one rx queue, no steering — and the same network.
#[test]
fn every_twin_is_software_on_the_same_network() {
    for sc in all() {
        let twin = sc.twin();
        assert_eq!(twin.offload, Offload::NONE, "{}", sc.name);
        assert!(twin.faults.is_empty(), "{}", sc.name);
        assert_eq!(twin.rx_queues, 1, "{}", sc.name);
        assert!(twin.rebalance.is_none() && twin.rss_table.is_none(), "{}", sc.name);
        assert_eq!(twin.links, sc.links, "{}", sc.name);
        assert_eq!(twin.net_plan.steps().len(), sc.net_plan.steps().len(), "{}", sc.name);
        assert_eq!(twin.flows.len(), sc.flows.len(), "{}", sc.name);
    }
}

/// The core acceptance test: every link-adversity scenario (8 schedules
/// × {TLS, NVMe}) runs offloaded and software-only, delivers
/// byte-identical streams, completes on both arms within bounded
/// divergence, and violates no invariant along the way.
#[test]
fn differential_matrix_is_invisible() {
    for wl in ["tls", "nvme"] {
        for schedule in SCHEDULES {
            let sc = builtin(&format!("{wl}/{schedule}")).expect("built-in");
            let d = run_differential(&sc);
            d.assert_clean();
            assert!(d.offload.complete, "{}: offload run completes", sc.name);
            assert_eq!(
                d.offload.stream(),
                sc.expected(),
                "{}: delivered stream equals transmitted stream",
                sc.name
            );
        }
    }
}

/// The composition the five sibling matrices could not express (ROADMAP
/// 3f): a partition pulse on one client↔server pair, a server NIC reset
/// while that pair is still recovering, 4-queue RSS and an armed
/// rebalancer — on the same 8 flows, as one spec literal held to the full
/// differential contract (byte-identical streams, legal ladders,
/// `partitioned` never `lost`, every flow re-offloaded, no breaker).
#[test]
fn composed_partition_reset_rss_holds_the_full_contract() {
    let sc = builtin("composed/partition+reset+rss").expect("built-in");
    let d = run_differential(&sc);
    d.assert_clean();
    let on = &d.offload;
    assert!(on.complete && on.breakers().is_empty());
    assert_eq!(on.server(0).faults_injected, 1, "the reset fired");
    // No flow escaped: the partition quiesced client 0's engines and the
    // reset wiped client 1's mid-stream, so every ladder was walked.
    assert!(on.flows.iter().all(|f| !f.resync.is_empty()), "chaos must force resync");
    assert!(on.server(0).migrations > 0, "the rebalancer kept working under chaos");
    let swallowed = |c: u16| on.links[&(c, 2)].partitioned + on.links[&(2, c)].partitioned;
    assert!(swallowed(0) > 0 && swallowed(1) == 0, "only the cut pair goes dark");
    assert!(on.server(0).queue_rx_pkts.iter().filter(|&&p| p > 0).count() > 1);
}

/// On a clean link the offloaded receiver stays fully offloaded — the
/// harness itself must not perturb the data path.
#[test]
fn clean_scenario_stays_offloaded() {
    let sc = builtin("tls/clean").expect("built-in");
    let out = run(&sc, Arm::Offload);
    out.assert_clean();
    assert!(out.complete);
    assert_eq!(
        out.flows[0].rx_state,
        Some(ano_core::rx::RxStateKind::Offloading),
        "no impairment: engine never leaves Offloading"
    );
    assert!(out.flows[0].resync.is_empty());
    assert_eq!(out.flows[0].alerts, 0);
}

/// A record corrupted in flight must surface as an authentication failure
/// and nothing else: no corrupted plaintext is ever delivered, and every
/// chunk that *is* delivered sits at its claimed offset with the original
/// bytes (checked by the stream-integrity invariant).
#[test]
fn corrupted_record_rejected_never_delivered() {
    let sc = builtin("tls/corrupt-record").expect("built-in");
    for arm in [Arm::Offload, Arm::Software] {
        let out = run(&sc, arm);
        out.assert_clean();
        let corrupted: u64 = out.links.values().map(|l| l.corrupted).sum();
        assert!(corrupted >= 1, "the link corrupted a frame");
        assert!(out.flows[0].alerts >= 1, "TLS refused to authenticate it");
        assert!(
            out.flows[0].delivered.bytes() < sc.expected().len() as u64,
            "the damaged record's plaintext is missing, not replaced"
        );
    }
}

/// The deliberately wedged scenario: a partition that never lifts. The
/// forward-progress watchdog and the completion check must both fire.
#[test]
fn blackhole_trips_forward_progress_watchdog() {
    let sc = builtin("tls/blackhole").expect("built-in");
    let out = run(&sc, Arm::Offload);
    assert!(!out.complete);
    for invariant in ["forward-progress", "completion"] {
        assert!(
            out.violations.iter().any(|v| v.invariant == invariant),
            "{invariant} fired: {:?}",
            out.violations
        );
    }
}

/// Any small random drop schedule is recoverable: the offloaded receiver
/// still delivers the exact transmitted stream and reconverges.
#[test]
fn random_drop_schedules_always_deliver() {
    let cfg = ano_testkit::Config::with_cases(5);
    ano_testkit::check(
        "random_drop_schedules_always_deliver",
        &cfg,
        &(script_gen(40, 4),),
        |(script,)| {
            let sc = Scenario::two_host("prop/drops", Workload::tls(24_000))
                .data_script(script.clone());
            run(&sc, Arm::Offload).assert_clean();
        },
    );
}

/// Overlapping, adjacent and empty `Match::Window` drop rules — the shape
/// stacked `Script::partition`s compose into — agree with a naive per-rule
/// containment oracle at every probe (including the exact endpoints, where
/// half-open-interval bugs live), and `last_window_end` bounds every
/// windowed drop.
#[test]
fn window_scripts_match_naive_oracle_and_bound_drops() {
    const HORIZON_NS: u64 = 1_000_000;
    let cfg = ano_testkit::Config::with_cases(128);
    ano_testkit::check(
        "window_scripts_match_naive_oracle_and_bound_drops",
        &cfg,
        &(window_script_gen(HORIZON_NS, 5),),
        |(script,)| {
            let windows = windows_of(script);
            // Probe a grid denser than the generator's own, plus every
            // window's exact `from`, `to` and `to - 1`.
            let mut probes: Vec<u64> = (0..=64).map(|i| i * (HORIZON_NS / 64)).collect();
            probes.extend(windows.iter().flat_map(|&(f, t)| [f, t, t.saturating_sub(1)]));
            for &t in &probes {
                let now = SimTime::from_nanos(t);
                let naive = windows.iter().any(|&(f, to)| f <= t && t < to);
                assert_eq!(
                    script.drops(0, now),
                    naive,
                    "composed schedule disagrees with the per-rule oracle at t={t}ns \
                     (windows {windows:?})"
                );
                if naive {
                    let end = script.last_window_end().expect("windowed drop implies a window");
                    assert!(
                        now < end,
                        "drop at t={t}ns outside last_window_end={end:?} (windows {windows:?})"
                    );
                }
            }
            assert_eq!(
                script.last_window_end(),
                windows.iter().map(|&(_, to)| to).max().map(SimTime::from_nanos),
                "last_window_end is exactly the latest rule end"
            );
        },
    );
}

/// The schedule generator shrinks a failing drop schedule to a minimal one:
/// greedy shrinking against "fails iff any drop index >= 17" converges to a
/// single drop.
#[test]
fn script_gen_shrinks_to_minimal_schedule() {
    let fails = |s: &Script| drop_indices_of(s).iter().any(|&i| i >= 17);
    let g = script_gen(40, 8);
    let mut cur = Script::drop_indices(&[3, 17, 29]);
    assert!(fails(&cur));
    loop {
        let Some(next) = g.shrink(&cur).into_iter().find(|c| fails(c)) else {
            break;
        };
        cur = next;
    }
    let minimal = drop_indices_of(&cur);
    assert_eq!(minimal.len(), 1, "one drop suffices: {minimal:?}");
    assert!(minimal[0] >= 17, "and it is a triggering index");
}

/// The PR-1 regression schedule expressed as a `Script` cycles exactly like
/// the original bool array (the drop oracle the regression port relies on).
#[test]
fn drop_cycle_script_matches_bool_schedule() {
    let mut pattern = vec![false; 64];
    for i in [2usize, 3, 5, 7, 9, 11, 13, 14] {
        pattern[i] = true;
    }
    let script = Script::drop_cycle(pattern.clone(), u64::MAX);
    for idx in 0..200u64 {
        assert_eq!(
            script.drops(idx, ano_sim::time::SimTime::ZERO),
            pattern[idx as usize % pattern.len()],
            "index {idx}"
        );
    }
}

/// The script builders aim at flow 0's payload direction and its reverse:
/// client → server for TLS, server → client for NVMe read data.
#[test]
fn scenario_builders_compose() {
    let sc = Scenario::two_host("compose", tls_workload())
        .data_script(Script::drop_nth(2))
        .ack_script(Script::drop_nth(5));
    let pairs: Vec<(u16, u16)> = sc.links.iter().map(|(p, _)| *p).collect();
    assert_eq!(pairs, [(0, 1), (1, 0)]);
    assert!(sc.links.iter().all(|(_, imp)| !imp.script.is_empty()));
    assert!(sc.expect_complete && sc.expect_reconverge);
    let nvme = builtin("nvme/drop-third").expect("built-in");
    assert_eq!(nvme.links[0].0, (1, 0), "read data flows target -> initiator");
}

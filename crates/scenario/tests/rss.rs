//! RSS steering tier: multi-queue runs vs the single-queue software twin,
//! induced imbalance and the oRSS rebalancer, and the context-survival vs
//! cache-thrash split between affinity migration and queue re-steering.
//! Every shape is a registry entry (`rss/*`).

mod common;

use ano_scenario::{builtin, run, run_differential, Arm, Outcome};
use ano_trace::event::Category;
use ano_trace::export;

use common::check_committed;

/// The distinct cores the server's connections ended on.
fn cores_used(out: &Outcome) -> usize {
    let mut cores: Vec<usize> = out.flows.iter().map(|f| f.core).collect();
    cores.sort_unstable();
    cores.dedup();
    cores.len()
}

/// An iperf-style 4-queue/4-core run is byte-identical, per flow, to its
/// single-queue software twin — steering must be application-invisible —
/// and actually spreads the population over multiple queues and cores.
#[test]
fn multi_queue_run_matches_single_queue_software_twin() {
    let sc = builtin("rss/base").expect("built-in");
    let d = run_differential(&sc);
    d.assert_clean();
    let (on, off) = (d.offload.server(0), d.software.server(0));

    let live_queues = on.queue_rx_pkts.iter().filter(|&&p| p > 0).count();
    assert!(
        live_queues > 1,
        "16 hashed flows must land on more than one queue (got {:?})",
        on.queue_rx_pkts
    );
    assert!(cores_used(&d.offload) > 1, "flows must run on more than one core");
    assert!(d.offload.flows.iter().all(|f| f.rx_queue < sc.rx_queues));
    // The single-queue twin keeps everything on queue 0 by construction.
    assert_eq!(off.queue_rx_pkts.len(), 1);
    assert!(on.migrations == 0 && off.migrations == 0, "no rebalancer configured");
}

/// With parallelism measured: the multi-queue run's per-core busy-cycle
/// spread stays far from the everything-on-one-core extreme.
#[test]
fn hashed_flows_spread_cpu_load() {
    let out = run(&builtin("rss/base").expect("built-in"), Arm::Offload);
    out.assert_clean();
    let server = out.server(0);
    let cores = server.core_cycles.len() as f64;
    assert!(
        server.busy_spread() < cores * 0.75,
        "busy-core spread {:.2} too close to single-core ({cores} cores)",
        server.busy_spread()
    );
}

/// An induced hot core (all flows steered to queue 0) trips the
/// rebalancer: migrations happen, the population ends up on several
/// cores, and every post-migration stream is still byte-identical to the
/// software twin.
#[test]
fn induced_imbalance_triggers_rebalancing() {
    let d = run_differential(&builtin("rss/induced-affinity").expect("built-in"));
    d.assert_clean();
    let on = d.offload.server(0);

    assert!(
        on.queue_imbalance > 3.0,
        "all-zeros table must overload queue 0 (imbalance {:.2})",
        on.queue_imbalance
    );
    assert!(
        on.migrations > 0,
        "hot core must trigger flow migrations (imbalance {:.2})",
        on.queue_imbalance
    );
    assert!(
        cores_used(&d.offload) > 1,
        "rebalancer must spread the population off the hot core"
    );
    // Twin equality (checked by the differential) is the headline; also
    // pin that the static twin saw no rebalancing machinery at all.
    assert_eq!(d.software.server(0).migrations, 0);
}

/// The paper-physics split the rebalancer trades on: affinity migration
/// keeps the NIC context alive (same device, same queue — zero crossings,
/// only cold-start misses), while queue re-steering thrashes it (bucket
/// remaps cross queues, each crossing evicting an rx context).
#[test]
fn migration_survives_context_while_steering_thrashes_it() {
    let affinity = run(&builtin("rss/induced-affinity").expect("built-in"), Arm::Offload);
    let steer = run(&builtin("rss/induced-steer").expect("built-in"), Arm::Offload);
    affinity.assert_clean();
    steer.assert_clean();
    let (a, s) = (affinity.server(0), steer.server(0));
    assert!(a.migrations > 0, "affinity arm must migrate");
    assert!(s.migrations > 0, "steering arm must migrate");

    // Affinity-only: the context survives every migration. The flow count
    // bounds cold misses: one per installed rx engine, nothing more.
    assert_eq!(a.nic.queue_crossings, 0, "affinity migration must not cross queues");
    assert!(
        a.nic.cache_misses <= affinity.flows.len() as u64,
        "affinity arm paid more than cold-start misses: {} > {}",
        a.nic.cache_misses,
        affinity.flows.len()
    );

    // Re-steering: every remapped flow crosses queues and pays an evict +
    // refill. Strictly more misses than the affinity arm's cold start.
    assert!(s.nic.queue_crossings > 0, "steering arm must cross queues");
    assert!(
        s.nic.cache_misses > a.nic.cache_misses,
        "queue crossings must thrash the context cache ({} vs {})",
        s.nic.cache_misses,
        a.nic.cache_misses
    );
}

/// The steer→imbalance→migrate→re-offload ladder as a committed golden
/// trace (Device category): initial `nic.queue` placements, `core.migrate`
/// moves, and — because this variant re-steers queues — the
/// `device.ctx-evict` records of each crossing, after which the flow keeps
/// offloading on the new queue.
#[test]
fn golden_rss_migrate_ladder() {
    let out = run(&builtin("rss/induced-steer").expect("built-in"), Arm::Offload);
    out.assert_clean();
    assert_eq!(out.trace_dropped, 0, "trace ring wrapped; golden would be truncated");
    let got = export::canonical(&out.trace, &[Category::Device]);
    let want = check_committed("golden/rss_migrate.golden", &got);

    // The golden meaningfully pins the ladder, not just any device noise.
    assert!(want.contains("nic.queue"), "golden must pin the initial steering");
    assert!(want.contains("core.migrate"), "golden must pin the migrations");
    assert!(
        want.contains("device.ctx-evict"),
        "golden must pin the crossing-evict cost"
    );
}

/// Scale run (CI `rss` tier): 512 flows hashed over 16 queues on an
/// 8-core server still deliver byte-identically and respect the 2× fair
/// share distribution bound end-to-end.
#[test]
#[ignore = "scale run: slow; exercised by the ci.sh rss tier"]
fn rss_scale_16_queues_512_flows() {
    let d = run_differential(&builtin("rss/scale").expect("built-in"));
    d.assert_clean();
    let pkts = &d.offload.server(0).queue_rx_pkts;
    let fair = pkts.iter().sum::<u64>() as f64 / pkts.len() as f64;
    let max = pkts.iter().copied().max().unwrap_or(0) as f64;
    assert!(
        max <= 2.0 * fair,
        "queue packet load {max} exceeds 2x fair share {fair:.0} ({pkts:?})"
    );
}

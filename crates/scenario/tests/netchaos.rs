//! Fleet network-chaos differential matrix: scheduled partition/repair
//! plans over fleet subsets, asymmetric holds, and mid-run impairment
//! sweeps — every scenario vs its software twin on the same network,
//! byte-identical streams required, with the partitioned/lost split,
//! breaker suppression on untouched pairs and the repair-driven §4.3
//! re-offload ladder checked per flow (all inside `assert_clean`).

use ano_scenario::{all, builtin, run_differential};
use ano_stack::world::NetOp;

/// Smoke: one server rack goes dark mid-transfer and heals. Affected
/// flows must quiesce, survive, re-install and re-offload; unaffected
/// flows must never notice.
#[test]
fn smoke_server_dark_reoffloads() {
    let d = run_differential(&builtin("netchaos/tls/server-dark").expect("built-in"));
    d.assert_clean();
    // The dark flows actually walked the ladder: at least one resync
    // transition was recorded fleet-wide.
    assert!(
        d.offload.flows.iter().any(|f| !f.resync.is_empty()),
        "a partition that hit live flows must force resync"
    );
    // And frames were genuinely swallowed while dark.
    let swallowed: u64 = d.offload.links.values().map(|l| l.partitioned).sum();
    assert!(swallowed > 0, "dark links swallowed nothing");
}

/// Smokes: the NVMe arm of a cut (data flows target→initiator; the
/// offloads under chaos live on the client NICs), and the asymmetric hold
/// — one direction parks deliveries in order and flushes on release;
/// nothing is lost, nothing is partitioned-counted.
#[test]
fn smoke_nvme_client_cut_and_ack_hold() {
    for name in ["netchaos/nvme/client-cut", "netchaos/tls/ack-hold"] {
        run_differential(&builtin(name).expect("built-in")).assert_clean();
    }
}

/// The two-host declared-outage extra: same blackhole shape that trips
/// the watchdog when undeclared, silent when declared — and the transfer
/// still completes and reconverges after repair.
#[test]
fn declared_partition_suspends_watchdog() {
    let d = run_differential(&builtin("tls/declared-partition").expect("built-in"));
    d.assert_clean();
    assert!(d.offload.complete && d.software.complete);
}

/// The full matrix: every pattern × workload × shape, differentially.
/// Heavier than the smokes — run with `--ignored` (CI netchaos
/// tier).
#[test]
#[ignore = "heavy: full netchaos matrix; CI runs it in the netchaos tier"]
fn netchaos_matrix_differential() {
    for sc in all().iter().filter(|s| s.name.starts_with("netchaos/")) {
        println!("== {}", sc.name);
        run_differential(sc).assert_clean();
    }
}

/// Scale: a rack partitioned in the middle of connection churn. Every
/// wave connects a fresh, doubled flow population, gets its server rack
/// cut and repaired mid-flight, and must still deliver byte-identical
/// streams in both arms — the install ladder, partition quiesce and
/// repair re-install machinery cycling together.
#[test]
#[ignore = "heavy: churn under partition; CI runs it in the netchaos tier"]
fn rack_partition_mid_churn_stays_byte_identical() {
    let base = builtin("netchaos/tls/server-dark").expect("built-in");
    for round in 0..3u64 {
        let mut sc = base.clone();
        sc.name = format!("netchaos/churn/wave{round}");
        sc.seed += round;
        run_differential(&sc.tls_flows(12, 96_000)).assert_clean();
    }
}

/// Imperative chaos: `apply_net_op` mid-run (no plan) severs and heals a
/// pair; the link mode follows, and only on the named pair.
#[test]
fn apply_net_op_is_the_imperative_spelling() {
    use ano_sim::link::LinkMode;
    use ano_stack::prelude::{Fleet, FleetSpec};

    let mut fleet = Fleet::build(FleetSpec {
        clients: 3,
        servers: 2,
        ..FleetSpec::default()
    });
    fleet.apply_net_op(NetOp::Partition(vec![0], vec![3]));
    assert_eq!(fleet.link_mode_between(0, 3), LinkMode::Partitioned);
    assert_eq!(fleet.link_mode_between(1, 3), LinkMode::Normal);
    fleet.apply_net_op(NetOp::Repair(vec![0], vec![3]));
    assert_eq!(fleet.link_mode_between(0, 3), LinkMode::Normal);
}

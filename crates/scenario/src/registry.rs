//! The one name registry: every built-in scenario, as spec literals.
//!
//! | prefix | what | count |
//! |---|---|---|
//! | `tls/`, `nvme/` | 8 scripted link-adversity schedules per workload, plus the unrecoverable / watchdog extras | 16 + 3 |
//! | `chaos/<wl>/<fault>` | 8 device-fault patterns × {tls, nvme, nvme-tls} | 24 |
//! | `netchaos/<wl>/<pattern>` | partition/hold/impair plans over fleet subsets | 14 |
//! | `fleet/` | context-cache capacity shapes (§6.5), churn, scale | 6 |
//! | `rss/` | multi-queue steering and rebalancing shapes, scale | 4 |
//! | `composed/` | several chaos sources on the same flows | 1 |
//!
//! [`builtin`] replays any of them by name:
//! `run_differential(&builtin("tls/partition").unwrap()).assert_clean()`.

use ano_core::fault::{DeviceFaults, DeviceOp, FaultAction};
use ano_sim::link::{Impairments, Match, Script};
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::RebalanceConfig;
use ano_stack::world::{NetOp, NetPlan};

use crate::chaos::DeviceChaos;
use crate::scenario::{Offload, Scenario, Workload};

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

/// The standard TLS workload of the link-adversity matrix: a few records'
/// worth of plaintext, enough for loss, resync and reconvergence to play
/// out without dominating test wall-clock.
pub fn tls_workload() -> Workload {
    Workload::tls(96_000)
}

/// The standard NVMe workload: several reads spanning distinct device
/// extents, so completion order and placement are both exercised.
fn nvme_workload() -> Workload {
    Workload::Nvme {
        reads: vec![(4096, 24_576), (1 << 20, 32_768), (3 << 20, 16_384)],
    }
}

/// The eight link-adversity schedules over one two-host workload, named
/// `<tag>/<schedule>`. All are *recoverable*: TCP retransmission heals
/// every one of them, so the differential can demand byte-identical
/// streams and completion on both arms.
fn adversity(tag: &str, workload: Workload) -> Vec<Scenario> {
    let w = |name: &str| Scenario::two_host(&format!("{tag}/{name}"), workload.clone());
    vec![
        w("clean"),
        w("drop-third").data_script(Script::drop_nth(3)),
        w("early-burst").data_script(Script::drop_burst(4, 8)),
        w("alternating").data_script(Script::drop_cycle(vec![true, false], 12)),
        w("delay-spike").data_script(Script::delay_burst(5, 9, SimDuration::from_micros(400))),
        w("dup-burst").data_script(Script::duplicate_burst(2, 10)),
        // The window opens at 20µs — before either arm can complete the
        // transfer — so both straddle it and both recover on the same RTO
        // timescale once it lifts.
        w("partition").data_script(Script::partition(us(20), us(1400))),
        w("ack-burst").ack_script(Script::drop_burst(3, 9)),
    ]
}

/// Named two-host scenarios outside the recoverable matrix.
fn extras() -> Vec<Scenario> {
    vec![
        // One mid-stream record corrupted in flight: TLS must refuse to
        // authenticate it; everything else still arrives intact.
        Scenario::two_host("tls/corrupt-record", tls_workload())
            .data_script(Script::corrupt_nth(6))
            .unrecoverable(),
        // A partition that never lifts. Deliberately left expecting
        // completion: this is the known-failing replay target proving the
        // forward-progress watchdog fires on a wedged transfer.
        Scenario {
            sim_budget: SimDuration::from_secs(2),
            ..Scenario::two_host("tls/blackhole", tls_workload())
                .data_script(Script::partition(us(10), SimTime::from_secs(60)))
        },
        // The same outage shape, longer than the progress budget — but
        // *declared*. The watchdog must stay quiet through the dark window,
        // re-arm at repair, and the transfer must still complete and
        // re-offload afterwards. The post-repair budget is raised above the
        // ~230ms of RTO backoff a 400ms outage legitimately accumulates.
        Scenario {
            outages: vec![(us(20), SimTime::from_millis(400))],
            progress_budget: SimDuration::from_millis(300),
            sim_budget: SimDuration::from_secs(2),
            ..Scenario::two_host("tls/declared-partition", tls_workload())
                .data_script(Script::partition(us(20), SimTime::from_millis(400)))
        },
    ]
}

/// Every device-fault pattern × {TLS, NVMe, NVMe-TLS} on a clean two-host
/// link (chaos isolates device faults from link adversity), named
/// `chaos/<workload>/<fault>`.
///
/// The workloads are larger than the adversity matrix's on purpose: the
/// scheduled fault times must land while the payload stream flows. TLS
/// data flows from t≈100µs, so its faults land from 300µs. Plain NVMe read
/// data is sparse until the device's first completions and flows steadily
/// only from t≈750µs, so its resync storm starts at 900µs: invalidating an
/// idle engine requests no resync, and a storm of those is no storm. NVMe
/// reads stay well under the target's 256 KiB `max_data_pdu` so C2HData
/// boundaries — the §4.3 resume points — recur every few packets; a single
/// huge read would leave a reinstalled engine with no boundary to resume
/// at before the stream ends.
fn chaos_matrix() -> Vec<Scenario> {
    let reads: Vec<(u64, u32)> = (0..48).map(|i| (i << 16, 32_768)).collect();
    // (tag, workload, first resync-storm invalidation)
    let workloads = [
        ("tls", Workload::tls(1_000_000), 300),
        ("nvme", Workload::Nvme { reads: reads.clone() }, 900),
        ("nvme-tls", Workload::NvmeTls { reads }, 300),
    ];
    let patterns = |storm: u64| [
        DeviceChaos::FailInstalls { n: 2 },
        DeviceChaos::FailAllInstalls,
        DeviceChaos::DropResyncReq { invalidate_at: us(300) },
        DeviceChaos::DelayResyncResps {
            invalidate_at: us(300),
            extra: SimDuration::from_micros(100),
        },
        DeviceChaos::ResetAt(us(300)),
        DeviceChaos::InvalidateRxAt(us(300)),
        DeviceChaos::CorruptRxAt(us(300)),
        DeviceChaos::ResyncStorm {
            at: (0..4).map(|k| us(storm + 150 * k)).collect(),
        },
    ];
    let mut out = Vec::new();
    for (tag, workload, storm) in &workloads {
        for chaos in &patterns(*storm) {
            let name = format!("chaos/{tag}/{}", chaos.label());
            out.push(Scenario::two_host(&name, workload.clone()).with_chaos(chaos));
        }
    }
    out
}

/// One partition/repair pulse over two host groups.
fn pulse(a: &[u16], b: &[u16], from: SimTime, to: SimTime) -> NetPlan {
    NetPlan::new()
        .step(from, NetOp::Partition(a.to_vec(), b.to_vec()))
        .step(to, NetOp::Repair(a.to_vec(), b.to_vec()))
}

/// The netchaos fleet: `flows` connections covering the client/server
/// pairs round-robin, 10 Gb/s links so a 20 µs chaos onset lands
/// mid-transfer. NVMe flows read two extents in a 4 MiB device region no
/// other flow touches, so cross-flow placement mixups are byte-visible.
fn netchaos_fleet(name: &str, nvme: bool, clients: usize, servers: usize, flows: usize) -> Scenario {
    let base = Scenario {
        clients,
        servers,
        link_rate_bps: 10_000_000_000,
        progress_budget: SimDuration::from_millis(50),
        sim_budget: SimDuration::from_millis(200),
        ..Scenario::fleet(name)
    };
    if !nvme {
        return base.tls_flows(flows, 96_000);
    }
    Scenario {
        offload: Offload::FULL,
        ..base
    }
    .round_robin(flows, |k| {
        let region = (k as u64) << 22;
        Workload::Nvme {
            reads: vec![(region + 4096, 48_000), (region + (1 << 21), 48_000)],
        }
    })
}

/// Partition patterns × {TLS, NVMe} on a 3×2 fleet plus two 4×1 shape
/// variants, named `netchaos/<workload>/<pattern>`. Every plan heals what
/// it breaks; offload state is disposable (§4.3), so a partition may cost
/// the affected flows their offload — quiesced at declare time,
/// re-installed at repair, reconverged through the legal ladder — but
/// never correctness, and never a breaker on an unaffected pair.
fn netchaos_matrix() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (tag, nvme) in [("tls", false), ("nvme", true)] {
        let sc = |pattern: &str, net_plan: NetPlan| Scenario {
            net_plan,
            ..netchaos_fleet(&format!("netchaos/{tag}/{pattern}"), nvme, 3, 2, 6)
        };
        // One server rack goes dark for every client, then heals.
        out.push(sc("server-dark", pulse(&[0, 1, 2], &[3], us(20), us(1_500))));
        // One client is cut off from the whole server side.
        out.push(sc("client-cut", pulse(&[0], &[3, 4], us(20), us(1_500))));
        // A subset×subset cut: two clients lose one server only.
        out.push(sc("half-dark", pulse(&[0, 1], &[3], us(20), us(1_500))));
        // The same pair partitioned twice — repair, re-partition, repair:
        // the install ladder must survive being driven repeatedly.
        out.push(sc(
            "flap",
            NetPlan::new()
                .step(us(20), NetOp::Partition(vec![1], vec![4]))
                .step(us(600), NetOp::Repair(vec![1], vec![4]))
                .step(us(1_200), NetOp::Partition(vec![1], vec![4]))
                .step(us(1_800), NetOp::Repair(vec![1], vec![4])),
        ));
        // Asymmetric stall: the server→client direction of one pair is
        // held (deliveries park in order) and later released. For TLS
        // this darkens the ACK path; for NVMe the data path itself.
        out.push(sc(
            "ack-hold",
            NetPlan::new()
                .step(us(20), NetOp::Hold(3, 0))
                .step(us(900), NetOp::Release(3, 0)),
        ));
        // Subset-targeted impairment sweep: one client's links turn lossy
        // mid-run, then heal (no partition — the dark set is empty, so no
        // flow at all may open a breaker). The transfer may finish
        // mid-resync under probabilistic loss, so reconvergence is relaxed.
        let lossy = Impairments {
            loss: 0.2,
            ..Impairments::none()
        };
        out.push(Scenario {
            expect_reconverge: false,
            ..sc(
                "lossy-client",
                NetPlan::new()
                    .step(us(20), NetOp::Impair(vec![1], vec![3, 4], lossy))
                    .step(us(2_000), NetOp::Impair(vec![1], vec![3, 4], Impairments::none())),
            )
        });
    }
    // Fleet-shape variants: a 4×1 rack where the single server is the cut
    // (full blackout, declared) and where a single client is.
    for (pattern, a) in [("server-dark@4x1", vec![0u16, 1, 2, 3]), ("client-cut@4x1", vec![2])] {
        out.push(Scenario {
            net_plan: pulse(&a, &[4], us(20), us(1_500)),
            ..netchaos_fleet(&format!("netchaos/tls/{pattern}"), false, 4, 1, 8)
        });
    }
    out
}

/// `Scenario::fleet` with the cache-thrash breaker armed at `threshold`.
fn thrash_fleet(name: &str, threshold: u32) -> Scenario {
    let mut sc = Scenario::fleet(name);
    sc.degrade.breaker_cache_thrash = Some(threshold);
    sc
}

/// Context-cache capacity shapes (§6.5): many TLS flows through one server
/// NIC's bounded cache.
fn fleet_shapes() -> Vec<Scenario> {
    vec![
        // The sensitivity base: 4 clients against one server whose NIC
        // holds 8 rx contexts, breaker armed the way a production driver
        // would run it, so flow counts past capacity degrade to software
        // instead of thrashing forever. `sensitivity_curve` re-populates
        // the flows per point. (Scaled from the paper's 20 K-flow cache so
        // the sweep runs in seconds; `fleet/scale` covers thousands.)
        Scenario {
            seed: 11,
            clients: 4,
            server_cache: 8,
            sim_budget: SimDuration::from_millis(100),
            ..thrash_fleet("fleet/sensitivity", 3)
        }
        .tls_flows(8, 96 * 1024),
        // Thrash breaker, trip side: a cache far smaller than the flow
        // population with a low threshold.
        Scenario {
            seed: 5,
            server_cache: 2,
            ..thrash_fleet("fleet/thrash-trip", 4)
        }
        .tls_flows(8, 256 * 1024),
        // Under-threshold side: ample cache, a threshold never reached,
        // and one mid-run invalidation of flow 0's rx context — it must
        // walk the §4.3 ladder back to `Offloading`, not degrade.
        {
            let mut sc = Scenario {
                seed: 5,
                link_rate_bps: 10_000_000_000,
                ..Scenario::fleet("fleet/under-threshold")
            }
            .tls_flows(4, 128 * 1024)
            .with_chaos(&DeviceChaos::InvalidateRxAt(us(100)));
            sc.degrade.breaker_cache_thrash = Some(100_000);
            sc
        },
        // Short-lived-connection churn storm against a server whose device
        // fails every third rx-context install: every wave re-walks the
        // §4.4 install ladder. 1-in-3 failures are recoverable — no breaker
        // may open — but a 16 KiB flow finishes inside one retry backoff,
        // leaving its late-installed engine `Searching` a stream that has
        // ended, so neither re-offload nor reconvergence is demanded.
        Scenario {
            seed: 23,
            clients: 3,
            waves: 4,
            expect_reconverge: false,
            faults: vec![(
                3,
                DeviceFaults::none().with(
                    DeviceOp::InstallRx,
                    Match::Cycle {
                        pattern: vec![true, false, false],
                        until: u64::MAX,
                    },
                    FaultAction::Fail,
                ),
            )],
            ..Scenario::fleet("fleet/churn")
        }
        .tls_flows(6, 16 * 1024),
        // The golden ladder: 3×2 hosts, 4-entry caches, 8 flows placed
        // unevenly (6 on server 0, 2 on server 1) so server 0 evicts while
        // server 1 runs warm, plus one invalidation of flow 0 mid-stream
        // (it has delivered ~2 records by 100 µs with ~2 more in flight, so
        // the reinstall lands in `Searching` and walks the full ladder).
        {
            let mut sc = Scenario {
                seed: 3,
                clients: 3,
                servers: 2,
                server_cache: 4,
                link_rate_bps: 10_000_000_000,
                ..Scenario::fleet("fleet/golden-ladder")
            }
            .tls_flows(8, 64 * 1024);
            for (k, f) in sc.flows.iter_mut().enumerate() {
                f.server = usize::from(k >= 6);
            }
            sc.with_chaos(&DeviceChaos::InvalidateRxAt(us(100)))
        },
        // Scale: thousands of flows across 8×2 hosts, caches far below the
        // flow count, breakers armed.
        Scenario {
            seed: 42,
            clients: 8,
            servers: 2,
            client_cores: 8,
            server_cores: 8,
            server_cache: 256,
            sim_budget: SimDuration::from_millis(500),
            ..thrash_fleet("fleet/scale", 2)
        }
        .tls_flows(2048, 24 * 1024),
    ]
}

/// A rebalancer tuned for these short runs: ticking well inside the
/// transfer, low noise floor, one move per tick.
fn fast_rebalance(steer_queues: bool) -> RebalanceConfig {
    RebalanceConfig {
        interval: SimDuration::from_micros(20),
        trigger: 1.5,
        min_cycles: 5_000,
        steer_queues,
    }
}

/// Multi-queue steering shapes: TLS flows Toeplitz-hashed over the server
/// NIC's rx queues, one core per queue.
fn rss_shapes() -> Vec<Scenario> {
    let base = |name: &str| Scenario {
        seed: 11,
        clients: 4,
        client_cores: 2,
        rx_queues: 4,
        rss_buckets: 64,
        ..Scenario::fleet(name)
    };
    // Imbalance induction: an all-zeros table pins every flow to queue 0
    // (and so core 0); the rebalancer must spread the population back out.
    let induced = |name: &str, steer_queues: bool| Scenario {
        rss_table: Some(vec![0; 64]),
        rebalance: Some(fast_rebalance(steer_queues)),
        ..base(name)
    };
    vec![
        base("rss/base").tls_flows(16, 32 * 1024),
        // Affinity migration: the NIC context survives the move.
        induced("rss/induced-affinity", false).tls_flows(16, 32 * 1024),
        // Queue re-steering: every crossing evicts the rx context.
        induced("rss/induced-steer", true).tls_flows(16, 32 * 1024),
        Scenario {
            clients: 8,
            server_cores: 8,
            rx_queues: 16,
            rss_buckets: 256,
            server_cache: 4096,
            sim_budget: SimDuration::from_millis(400),
            ..base("rss/scale")
        }
        .tls_flows(512, 2 * 1024),
    ]
}

/// Several chaos sources on the same flows (ROADMAP 3f): 2 clients × 1
/// four-queue server, 8 TLS flows; client 0 ↔ server partitioned and
/// repaired, the server NIC reset while that pair is still recovering,
/// and the rebalancer armed throughout.
fn composed() -> Scenario {
    Scenario {
        rx_queues: 4,
        rss_buckets: 64,
        link_rate_bps: 10_000_000_000,
        net_plan: pulse(&[0], &[2], us(20), us(600)),
        rebalance: Some(fast_rebalance(false)),
        progress_budget: SimDuration::from_millis(50),
        sim_budget: SimDuration::from_millis(200),
        ..Scenario::fleet("composed/partition+reset+rss")
    }
    .tls_flows(8, 256 * 1024)
    .with_chaos(&DeviceChaos::ResetAt(us(700)))
}

/// Every built-in scenario.
pub fn all() -> Vec<Scenario> {
    let mut out = adversity("tls", tls_workload());
    out.extend(adversity("nvme", nvme_workload()));
    out.extend(extras());
    out.extend(chaos_matrix());
    out.extend(netchaos_matrix());
    out.extend(fleet_shapes());
    out.extend(rss_shapes());
    out.push(composed());
    out
}

/// Finds a built-in scenario by name — the replay entry point.
pub fn builtin(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

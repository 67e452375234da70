//! Simulator-speed benchmark: the perf trajectory every PR defends.
//!
//! Measures three headline numbers and reads/writes `BENCH_baseline.json`
//! at the repo root (see EXPERIMENTS.md "Benchmark baselines"):
//!
//! * **iperf sim speed** — simulated application bytes delivered per second
//!   of *wall-clock* time on the default single-stream TLS-offload-zc iperf
//!   path (the ROADMAP item-2 headline metric), plus wall nanoseconds per
//!   simulated packet offered to the links;
//! * **event rate** — scheduler events dispatched per wall second on the
//!   same run;
//! * **kernel cycles-per-byte** — wall-clock throughput of the real crypto
//!   kernels (CRC32C, AES-128-GCM seal, SHA-256) over 16 KiB buffers,
//!   expressed as cycles/byte at a documented nominal [`NOMINAL_HZ`] clock
//!   so numbers stay comparable across runs on the same machine.
//!
//! Usage:
//!
//! ```text
//! bench                     # run, print the JSON document to stdout
//! bench --write PATH        # run, write the JSON document to PATH
//! bench --check PATH        # run, compare against PATH, exit 1 on
//!                           #   >MAX_REGRESS_PCT ns/packet regression
//! bench --pre-pr X          # record X as the pre-PR iperf sim speed
//!                           #   (carried through from the committed file)
//! ```
//!
//! `scripts/bench.sh` wraps this: it checks against the committed baseline
//! and regenerates it under `BLESS=1`.

#![forbid(unsafe_code)]

use std::time::Instant;

use ano_bench::runners::{dc_tcp, Variant};
use ano_core::nic::NicConfig;
use ano_crypto::aes::Aes;
use ano_crypto::crc32c::crc32c;
use ano_crypto::gcm;
use ano_crypto::sha::{Digest, Sha256};
use ano_sim::payload::DataMode;
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::*;

/// Nominal clock used to express measured wall ns/byte as cycles/byte.
/// This is a *unit convention*, not a claim about the host: regressions are
/// judged as ratios against the committed baseline from the same machine.
const NOMINAL_HZ: f64 = 3.0e9;

/// Regression gate: `--check` fails when the measured wall ns per simulated
/// packet exceeds the committed baseline by more than this percentage.
const MAX_REGRESS_PCT: f64 = 15.0;

/// Simulated warm-up before the measured window.
const WARMUP: SimDuration = SimDuration::from_millis(60);
/// Simulated window the wall clock is measured over.
const WINDOW: SimDuration = SimDuration::from_millis(200);
/// Timed repetitions; the fastest run is reported (noise floors, not means).
const REPS: usize = 3;

struct IperfSpeed {
    /// Simulated application bytes delivered per wall second.
    sim_bytes_per_wall_sec: f64,
    /// Wall nanoseconds per packet offered to the links (data + acks).
    ns_per_packet: f64,
    /// Scheduler events dispatched per wall second.
    events_per_wall_sec: f64,
    /// Goodput of the simulated run itself (sanity anchor, Gbit/s).
    sim_gbps: f64,
}

/// One timed iperf run: default single-stream TLS-offload-zc configuration
/// (the ROADMAP item-2 headline path), fixed seed, tracing off.
fn iperf_once() -> IperfSpeed {
    let mut w = World::new(WorldConfig {
        seed: 42,
        mode: DataMode::Modeled,
        cores: [1, 8],
        tcp: dc_tcp(),
        ..Default::default()
    });
    let conn = w.connect(Variant::TlsOffloadZc.spec(), Variant::TlsOffloadZc.spec());
    let sender = ano_apps::iperf::IperfSender::new(vec![conn], 256 * 1024, DataMode::Modeled);
    let sink = ano_apps::iperf::IperfSink::new();
    w.set_app(0, Box::new(sender));
    w.set_app(1, Box::new(sink));
    w.start();
    w.run_until(SimTime::ZERO + WARMUP);

    let t0 = w.now();
    let bytes0 = w.delivered_bytes(1, conn);
    let pkts0 = w.link_stats_between(0, 1).offered + w.link_stats_between(1, 0).offered;
    let events0 = w.events_dispatched();
    let wall = Instant::now();
    w.run_until(t0 + WINDOW);
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let sim_elapsed = w.now().since(t0);
    let bytes = (w.delivered_bytes(1, conn) - bytes0) as f64;
    let pkts = (w.link_stats_between(0, 1).offered + w.link_stats_between(1, 0).offered - pkts0) as f64;
    let events = (w.events_dispatched() - events0) as f64;

    IperfSpeed {
        sim_bytes_per_wall_sec: bytes / (wall_ns / 1e9),
        ns_per_packet: wall_ns / pkts.max(1.0),
        events_per_wall_sec: events / (wall_ns / 1e9),
        sim_gbps: bytes * 8.0 / sim_elapsed.as_secs_f64() / 1e9,
    }
}

struct FleetSpeed {
    /// Simulated application bytes delivered per wall second, summed over
    /// every flow in the fleet.
    sim_bytes_per_wall_sec: f64,
    /// Wall nanoseconds per packet offered to any link in the mesh.
    ns_per_packet: f64,
}

/// Fleet shape for the timed run: enough hosts and flows that the per-host
/// scheduler, the link mesh, and the server context caches all carry real
/// load, while the 32-entry caches stay oversubscribed (64 rx flows over
/// 2 x 32 entries) so the eviction path is on the clock too.
const FLEET_CLIENTS: usize = 4;
const FLEET_SERVERS: usize = 2;
const FLEET_FLOWS: usize = 64;

/// One timed fleet run: N×M hosts, 64 concurrent TLS flows rx-offloaded at
/// the servers, modeled payloads, fixed seed, tracing off. This is the
/// many-host counterpart of [`iperf_once`]: it prices the topology
/// scheduler and the context-cache path rather than a single stream.
fn fleet_once() -> FleetSpeed {
    let mut fleet = Fleet::build(FleetSpec {
        clients: FLEET_CLIENTS,
        servers: FLEET_SERVERS,
        client: HostSpec {
            cores: 4,
            ..HostSpec::default()
        },
        server: HostSpec {
            cores: 8,
            nic: NicConfig {
                ctx_cache_capacity: 32,
                ..NicConfig::default()
            },
        },
        impair: Vec::new(),
        scripts: Vec::new(),
        cfg: WorldConfig {
            seed: 42,
            mode: DataMode::Modeled,
            tcp: dc_tcp(),
            ..Default::default()
        },
    });

    let mut per_client: Vec<Vec<ConnId>> = vec![Vec::new(); FLEET_CLIENTS];
    let mut conns = Vec::with_capacity(FLEET_FLOWS);
    for k in 0..FLEET_FLOWS {
        let (ci, sj) = (k % FLEET_CLIENTS, k % FLEET_SERVERS);
        let conn = fleet.connect(
            ci,
            sj,
            ConnSpec::Tls(TlsSpec::default()),
            ConnSpec::Tls(TlsSpec {
                rx_offload: true,
                ..TlsSpec::default()
            }),
        );
        per_client[ci].push(conn);
        conns.push((conn, fleet.server(sj)));
    }
    for (ci, list) in per_client.into_iter().enumerate() {
        let sender = ano_apps::iperf::IperfSender::new(list, 256 * 1024, DataMode::Modeled);
        fleet.set_app(ci, Box::new(sender));
    }
    for sj in 0..FLEET_SERVERS {
        let server = fleet.server(sj);
        fleet.set_app(server, Box::new(ano_apps::iperf::IperfSink::new()));
    }
    fleet.start();
    fleet.run_until(SimTime::ZERO + WARMUP);

    let mesh_pkts = |f: &Fleet| -> u64 {
        let mut total = 0;
        for ci in 0..FLEET_CLIENTS as u16 {
            for sj in 0..FLEET_SERVERS {
                let s = (FLEET_CLIENTS + sj) as u16;
                total += f.link_stats_between(ci, s).offered;
                total += f.link_stats_between(s, ci).offered;
            }
        }
        total
    };
    let delivered = |f: &Fleet| -> u64 {
        conns
            .iter()
            .map(|&(conn, server)| f.delivered_bytes(server, conn))
            .sum()
    };

    let t0 = fleet.now();
    let bytes0 = delivered(&fleet);
    let pkts0 = mesh_pkts(&fleet);
    let wall = Instant::now();
    fleet.run_until(t0 + WINDOW);
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let bytes = (delivered(&fleet) - bytes0) as f64;
    let pkts = (mesh_pkts(&fleet) - pkts0) as f64;

    FleetSpeed {
        sim_bytes_per_wall_sec: bytes / (wall_ns / 1e9),
        ns_per_packet: wall_ns / pkts.max(1.0),
    }
}

struct RssSpeed {
    /// Simulated application bytes delivered per wall second, summed over
    /// every flow through the multi-queue server.
    sim_bytes_per_wall_sec: f64,
    /// Wall nanoseconds per packet offered to any link.
    ns_per_packet: f64,
    /// Max-over-mean packet load across the server's rx queues.
    queue_imbalance: f64,
    /// Max-over-mean busy cycles across the server's cores over the
    /// measured window (1.0 = perfectly even, cores = single-core pileup).
    busy_core_spread: f64,
}

/// Multi-queue shape for the timed run: one 4-core/4-queue server fed by
/// 32 RSS-hashed TLS flows, with the default rebalancer armed — the tile
/// prices the steering path (per-packet queue accounting, per-core stacks)
/// and reports how evenly hash placement spreads the load.
const RSS_CLIENTS: usize = 4;
const RSS_FLOWS: usize = 32;
const RSS_QUEUES: u16 = 4;
const RSS_CORES: usize = 4;

/// One timed RSS run: the multi-queue counterpart of [`fleet_once`].
fn rss_once() -> RssSpeed {
    let mut fleet = Fleet::build(FleetSpec {
        clients: RSS_CLIENTS,
        servers: 1,
        client: HostSpec {
            cores: 4,
            ..HostSpec::default()
        },
        server: HostSpec {
            cores: RSS_CORES,
            nic: NicConfig {
                rx_queues: RSS_QUEUES,
                rss_buckets: 128,
                ..NicConfig::default()
            },
        },
        impair: Vec::new(),
        scripts: Vec::new(),
        cfg: WorldConfig {
            seed: 42,
            mode: DataMode::Modeled,
            tcp: dc_tcp(),
            rebalance: Some(RebalanceConfig::default()),
            ..Default::default()
        },
    });

    let server = fleet.server(0);
    let mut per_client: Vec<Vec<ConnId>> = vec![Vec::new(); RSS_CLIENTS];
    let mut conns = Vec::with_capacity(RSS_FLOWS);
    for k in 0..RSS_FLOWS {
        let ci = k % RSS_CLIENTS;
        let conn = fleet.connect(
            ci,
            0,
            ConnSpec::Tls(TlsSpec::default()),
            ConnSpec::Tls(TlsSpec {
                rx_offload: true,
                ..TlsSpec::default()
            }),
        );
        per_client[ci].push(conn);
        conns.push(conn);
    }
    for (ci, list) in per_client.into_iter().enumerate() {
        let sender = ano_apps::iperf::IperfSender::new(list, 256 * 1024, DataMode::Modeled);
        fleet.set_app(ci, Box::new(sender));
    }
    fleet.set_app(server, Box::new(ano_apps::iperf::IperfSink::new()));
    fleet.start();
    fleet.run_until(SimTime::ZERO + WARMUP);

    let mesh_pkts = |f: &Fleet| -> u64 {
        let mut total = 0;
        for ci in 0..RSS_CLIENTS as u16 {
            let s = RSS_CLIENTS as u16;
            total += f.link_stats_between(ci, s).offered;
            total += f.link_stats_between(s, ci).offered;
        }
        total
    };
    let delivered =
        |f: &Fleet| -> u64 { conns.iter().map(|&conn| f.delivered_bytes(server, conn)).sum() };

    let t0 = fleet.now();
    let bytes0 = delivered(&fleet);
    let pkts0 = mesh_pkts(&fleet);
    let cpu0 = fleet.cpu_snapshot(server);
    let wall = Instant::now();
    fleet.run_until(t0 + WINDOW);
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let bytes = (delivered(&fleet) - bytes0) as f64;
    let pkts = (mesh_pkts(&fleet) - pkts0) as f64;

    let cpu1 = fleet.cpu_snapshot(server);
    let deltas: Vec<u64> = cpu1
        .iter()
        .zip(&cpu0)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = deltas.iter().sum();
    let max = deltas.iter().copied().max().unwrap_or(0);
    let busy_core_spread = if total == 0 || deltas.len() <= 1 {
        1.0
    } else {
        max as f64 * deltas.len() as f64 / total as f64
    };

    RssSpeed {
        sim_bytes_per_wall_sec: bytes / (wall_ns / 1e9),
        ns_per_packet: wall_ns / pkts.max(1.0),
        queue_imbalance: fleet.queue_imbalance(server),
        busy_core_spread,
    }
}

fn rss_speed() -> RssSpeed {
    let mut best: Option<RssSpeed> = None;
    for _ in 0..REPS {
        let r = rss_once();
        let better = best
            .as_ref()
            .is_none_or(|b| r.sim_bytes_per_wall_sec > b.sim_bytes_per_wall_sec);
        if better {
            best = Some(r);
        }
    }
    best.expect("REPS > 0")
}

fn fleet_speed() -> FleetSpeed {
    let mut best: Option<FleetSpeed> = None;
    for _ in 0..REPS {
        let r = fleet_once();
        let better = best
            .as_ref()
            .is_none_or(|b| r.sim_bytes_per_wall_sec > b.sim_bytes_per_wall_sec);
        if better {
            best = Some(r);
        }
    }
    best.expect("REPS > 0")
}

fn iperf_speed() -> IperfSpeed {
    let mut best: Option<IperfSpeed> = None;
    for _ in 0..REPS {
        let r = iperf_once();
        let better = best
            .as_ref()
            .is_none_or(|b| r.sim_bytes_per_wall_sec > b.sim_bytes_per_wall_sec);
        if better {
            best = Some(r);
        }
    }
    best.expect("REPS > 0")
}

/// Measures one kernel's wall ns/byte over `data`, reported as cycles/byte
/// at [`NOMINAL_HZ`].
fn kernel_cpb<R>(data_len: usize, mut f: impl FnMut() -> R) -> f64 {
    // Calibrate a batch that runs ~20 ms, then time the fastest of 5.
    let mut batch = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        if t.elapsed().as_millis() >= 20 || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let per_byte = t.elapsed().as_nanos() as f64 / batch as f64 / data_len as f64;
        best = best.min(per_byte);
    }
    best * NOMINAL_HZ / 1e9
}

struct Kernels {
    crc32c_cpb: f64,
    aes_gcm_seal_cpb: f64,
    sha256_cpb: f64,
}

fn kernels() -> Kernels {
    let data = vec![0xA5u8; 16 * 1024];
    let aes = Aes::new_128(&[7; 16]);
    Kernels {
        crc32c_cpb: kernel_cpb(data.len(), || crc32c(&data)),
        aes_gcm_seal_cpb: kernel_cpb(data.len(), || {
            let mut buf = data.clone();
            gcm::seal(&aes, &[1; 12], b"aad", &mut buf)
        }),
        sha256_cpb: kernel_cpb(data.len(), || Sha256::digest(&data)),
    }
}

/// Renders the benchmark document. Hand-rolled JSON (hermetic workspace:
/// no serde); fixed key order so diffs stay readable.
fn render(
    iperf: &IperfSpeed,
    fleet: &FleetSpeed,
    rss: &RssSpeed,
    k: &Kernels,
    pre_pr: f64,
) -> String {
    let speedup = if pre_pr > 0.0 {
        iperf.sim_bytes_per_wall_sec / pre_pr
    } else {
        0.0
    };
    format!(
        "{{\n  \"schema\": 1,\n  \"nominal_hz\": {NOMINAL_HZ:.0},\n  \"iperf\": {{\n    \
         \"sim_bytes_per_wall_sec\": {:.0},\n    \"ns_per_packet\": {:.1},\n    \
         \"events_per_wall_sec\": {:.0},\n    \"sim_gbps\": {:.2}\n  }},\n  \
         \"fleet\": {{\n    \"sim_bytes_per_wall_sec\": {:.0},\n    \
         \"ns_per_packet\": {:.1}\n  }},\n  \
         \"rss\": {{\n    \"sim_bytes_per_wall_sec\": {:.0},\n    \
         \"ns_per_packet\": {:.1},\n    \"queue_imbalance\": {:.3},\n    \
         \"busy_core_spread\": {:.3}\n  }},\n  \
         \"pre_pr\": {{\n    \"sim_bytes_per_wall_sec\": {pre_pr:.0},\n    \
         \"speedup\": {speedup:.2}\n  }},\n  \"kernels\": {{\n    \
         \"crc32c_cpb\": {:.3},\n    \"aes_gcm_seal_cpb\": {:.3},\n    \
         \"sha256_cpb\": {:.3}\n  }}\n}}\n",
        iperf.sim_bytes_per_wall_sec,
        iperf.ns_per_packet,
        iperf.events_per_wall_sec,
        iperf.sim_gbps,
        fleet.sim_bytes_per_wall_sec,
        fleet.ns_per_packet,
        rss.sim_bytes_per_wall_sec,
        rss.ns_per_packet,
        rss.queue_imbalance,
        rss.busy_core_spread,
        k.crc32c_cpb,
        k.aes_gcm_seal_cpb,
        k.sha256_cpb,
    )
}

/// Extracts `"key": <number>` from a JSON document written by [`render`].
/// Good enough for our own fixed format; not a general JSON parser.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let rest = doc.get(at..)?;
    let num: String = rest
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_val = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let write_path = flag_val("--write");
    let check_path = flag_val("--check");

    // The pre-PR anchor rides along: given explicitly for a fresh baseline,
    // otherwise carried forward from the file being checked/rewritten.
    let carried = check_path
        .as_deref()
        .or(write_path.as_deref())
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|doc| json_number(&doc, "sim_bytes_per_wall_sec_pre"))
        .unwrap_or(0.0);
    let pre_pr = flag_val("--pre-pr")
        .and_then(|s| s.parse().ok())
        .or_else(|| {
            check_path
                .as_deref()
                .or(write_path.as_deref())
                .and_then(|p| std::fs::read_to_string(p).ok())
                .and_then(|doc| {
                    // `pre_pr` object holds its own sim_bytes_per_wall_sec;
                    // scope the lookup to that object.
                    let tail = doc.split("\"pre_pr\"").nth(1)?.to_string();
                    json_number(&tail, "sim_bytes_per_wall_sec")
                })
        })
        .unwrap_or(carried);

    eprintln!("measuring iperf sim speed ({REPS} x {}ms sim window)...", WINDOW.as_nanos() / 1_000_000);
    let iperf = iperf_speed();
    eprintln!(
        "  sim {:.1} MB/wall-s | {:.0} ns/pkt | {:.2} sim-Gbps | {:.0} ev/wall-s",
        iperf.sim_bytes_per_wall_sec / 1e6,
        iperf.ns_per_packet,
        iperf.sim_gbps,
        iperf.events_per_wall_sec,
    );
    eprintln!(
        "measuring fleet sim speed ({FLEET_CLIENTS}x{FLEET_SERVERS} hosts, {FLEET_FLOWS} flows, \
         {REPS} x {}ms sim window)...",
        WINDOW.as_nanos() / 1_000_000
    );
    let fleet = fleet_speed();
    eprintln!(
        "  sim {:.1} MB/wall-s | {:.0} ns/pkt",
        fleet.sim_bytes_per_wall_sec / 1e6,
        fleet.ns_per_packet,
    );
    eprintln!(
        "measuring rss sim speed ({RSS_CLIENTS}x1 hosts, {RSS_FLOWS} flows over {RSS_QUEUES} \
         queues/{RSS_CORES} cores, {REPS} x {}ms sim window)...",
        WINDOW.as_nanos() / 1_000_000
    );
    let rss = rss_speed();
    eprintln!(
        "  sim {:.1} MB/wall-s | {:.0} ns/pkt | imbalance {:.2} | core spread {:.2}",
        rss.sim_bytes_per_wall_sec / 1e6,
        rss.ns_per_packet,
        rss.queue_imbalance,
        rss.busy_core_spread,
    );
    eprintln!("measuring kernels...");
    let k = kernels();
    eprintln!(
        "  crc32c {:.3} cpb | aes-gcm-seal {:.3} cpb | sha256 {:.3} cpb (at {:.1} GHz nominal)",
        k.crc32c_cpb,
        k.aes_gcm_seal_cpb,
        k.sha256_cpb,
        NOMINAL_HZ / 1e9
    );

    let doc = render(&iperf, &fleet, &rss, &k, pre_pr);
    if let Some(path) = &check_path {
        let committed = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("bench: cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let base_ns = json_number(&committed, "ns_per_packet").unwrap_or(0.0);
        if base_ns <= 0.0 {
            eprintln!("bench: baseline {path} has no ns_per_packet");
            std::process::exit(2);
        }
        let regress_pct = 100.0 * (iperf.ns_per_packet - base_ns) / base_ns;
        eprintln!(
            "check: ns/packet {:.1} vs baseline {base_ns:.1} ({regress_pct:+.1}%)",
            iperf.ns_per_packet
        );
        if regress_pct > MAX_REGRESS_PCT {
            eprintln!(
                "bench: REGRESSION: ns/packet worsened {regress_pct:.1}% (> {MAX_REGRESS_PCT}% gate). \
                 If intentional, regenerate with BLESS=1 scripts/bench.sh and commit the diff."
            );
            std::process::exit(1);
        }
        // Fleet gate: same ratio test, scoped to the baseline's "fleet"
        // object. Baselines written before the fleet entry existed simply
        // skip this gate; a BLESS adds the entry and arms it.
        let fleet_base = committed
            .split("\"fleet\"")
            .nth(1)
            .and_then(|tail| json_number(tail, "ns_per_packet"))
            .unwrap_or(0.0);
        if fleet_base > 0.0 {
            let fleet_pct = 100.0 * (fleet.ns_per_packet - fleet_base) / fleet_base;
            eprintln!(
                "check: fleet ns/packet {:.1} vs baseline {fleet_base:.1} ({fleet_pct:+.1}%)",
                fleet.ns_per_packet
            );
            if fleet_pct > MAX_REGRESS_PCT {
                eprintln!(
                    "bench: REGRESSION: fleet ns/packet worsened {fleet_pct:.1}% \
                     (> {MAX_REGRESS_PCT}% gate). If intentional, regenerate with \
                     BLESS=1 scripts/bench.sh and commit the diff."
                );
                std::process::exit(1);
            }
        } else {
            eprintln!("check: baseline {path} has no fleet entry (pre-fleet baseline); skipping fleet gate");
        }
        // RSS gate: same ratio test on the "rss" object; pre-RSS baselines
        // skip it until a BLESS adds the entry.
        let rss_base = committed
            .split("\"rss\"")
            .nth(1)
            .and_then(|tail| json_number(tail, "ns_per_packet"))
            .unwrap_or(0.0);
        if rss_base > 0.0 {
            let rss_pct = 100.0 * (rss.ns_per_packet - rss_base) / rss_base;
            eprintln!(
                "check: rss ns/packet {:.1} vs baseline {rss_base:.1} ({rss_pct:+.1}%)",
                rss.ns_per_packet
            );
            if rss_pct > MAX_REGRESS_PCT {
                eprintln!(
                    "bench: REGRESSION: rss ns/packet worsened {rss_pct:.1}% \
                     (> {MAX_REGRESS_PCT}% gate). If intentional, regenerate with \
                     BLESS=1 scripts/bench.sh and commit the diff."
                );
                std::process::exit(1);
            }
        } else {
            eprintln!("check: baseline {path} has no rss entry (pre-rss baseline); skipping rss gate");
        }
        println!("{doc}");
    } else if let Some(path) = &write_path {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("bench: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    } else {
        println!("{doc}");
    }
}

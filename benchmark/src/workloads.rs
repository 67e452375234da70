//! The five workloads: world construction, connections, applications, and
//! the bookkeeping (`Bench`) the measurement code reads counters through.
//!
//! Every workload is a closed loop: iperf-style senders are window-bound
//! (they refill a socket only when it drains), HTTP clients wait for each
//! response before sending the next request.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ano_apps::httpd::{Backing, Client, ClientStats, Server};
use ano_apps::iperf::IperfSender;
use ano_core::nic::NicConfig;
use ano_sim::link::Impairments;
use ano_sim::payload::DataMode;
use ano_sim::rng::SimRng;
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::*;
use ano_tcp::TcpConfig;

use crate::apps::{MessageSink, OpLog, PatternSender, SharedLog, TimedSender};

/// Host-time sizing of one workload. The measured window is a fixed
/// amount of *simulated* time — `sim_us_per_wall_s × --seconds` — so every
/// simulated statistic repeats exactly for a seed, on any machine; the
/// rate is calibrated so that the window costs about `--seconds` of host
/// time on the 2-core reference sandbox.
struct Profile {
    name: &'static str,
    /// Simulated microseconds this workload advances per host second.
    sim_us_per_wall_s: f64,
    /// Measured window of the `--quick` smoke, simulated microseconds.
    quick_us: u64,
}

const PROFILES: [Profile; 5] = [
    Profile {
        name: "stream_1flow",
        sim_us_per_wall_s: 1_180_000.0,
        quick_us: 3_000,
    },
    Profile {
        name: "fleet_rss_64flow",
        sim_us_per_wall_s: 330_000.0,
        quick_us: 40_000,
    },
    Profile {
        name: "lossy_resync_8flow",
        sim_us_per_wall_s: 181_000.0,
        quick_us: 20_000,
    },
    Profile {
        name: "rr_nvme_tls_c1",
        sim_us_per_wall_s: 191_000.0,
        quick_us: 3_000,
    },
    Profile {
        name: "stream_real_4flow",
        sim_us_per_wall_s: 3_430.0,
        quick_us: 2_000,
    },
];

/// Host seconds of simulation the warm-up is sized to, so that
/// `setup_s` (build + connect + install + warm-up) is at least 0.2 s.
const WARMUP_WALL_S: f64 = 0.25;

/// Slices the measured window is cut into.
pub const SLICES: usize = 20;

/// How long to run: `--seconds` of host time, or the smoke test's
/// millisecond windows.
#[derive(Clone, Copy)]
pub enum Length {
    Seconds(f64),
    Quick,
}

/// A two-host world or a fleet (which derefs to its world).
pub enum Sim {
    Pair(Box<World>),
    Fleet(Box<Fleet>),
}

impl std::ops::Deref for Sim {
    type Target = World;
    fn deref(&self) -> &World {
        match self {
            Sim::Pair(w) => w,
            Sim::Fleet(f) => f,
        }
    }
}

impl std::ops::DerefMut for Sim {
    fn deref_mut(&mut self) -> &mut World {
        match self {
            Sim::Pair(w) => w,
            Sim::Fleet(f) => f,
        }
    }
}

/// A built, started, not yet warmed-up workload.
pub struct Bench {
    pub sim: Sim,
    /// Every `(host, connection)` endpoint, both ends of every connection.
    pub endpoints: Vec<(usize, ConnId)>,
    /// Every directed link.
    pub links: Vec<(u16, u16)>,
    /// Endpoints whose in-order delivered bytes are the goodput.
    pub sinks: Vec<(usize, ConnId)>,
    /// Endpoints of the offloading host(s) — the receiver; the server for
    /// `rr_*` and `fleet_*` — whose kTLS record classes are reported.
    pub receivers: Vec<(usize, ConnId)>,
    /// The offloading hosts themselves (CPU cycles, NIC counters).
    pub offload_hosts: Vec<usize>,
    pub log: SharedLog,
    /// The stock HTTP client's counters (request/response workload only):
    /// its responses are the operations, its samples the latencies.
    pub client: Option<Rc<RefCell<ClientStats>>>,
    /// Host time spent inside `connect` calls, and how many there were.
    pub connect_wall: Duration,
    pub conns: usize,
    pub warmup: SimDuration,
    pub window: SimDuration,
    /// Real payload bytes: crypto runs for real, on the NIC model.
    pub functional: bool,
    /// The data-direction links drop and reorder.
    pub impaired: bool,
    /// Many flows in flight: price the scheduler at heap depth 4096.
    pub deep_heap: bool,
}

/// Datacenter-tuned TCP, as the legacy `bench` binary and the figure
/// runners use it (`ano_bench::runners::dc_tcp`).
pub fn dc_tcp() -> TcpConfig {
    TcpConfig {
        min_rto: SimDuration::from_millis(4),
        max_cwnd: 512 << 10,
        rcv_buf: 512 << 10,
        ..Default::default()
    }
}

/// Size of the workload's messages: `base` plus a seeded `8..=span` bytes
/// (a multiple of 8). The seed thereby changes the generated inputs of
/// every workload — clean links draw nothing from the world RNG — without
/// changing their shape: with `span` under one TLS record, every seed adds
/// exactly one short record per message on top of what `base` frames.
fn seeded_size(base: usize, span: usize, seed: u64) -> usize {
    base + 8 * (1 + SimRng::seed(seed).range_u64(0, span as u64 / 8) as usize)
}

/// Bulk messages: 256 KiB plus up to 8 KiB. The span covers several
/// packets because a zero-copy offloaded stream costs the modelled CPU
/// per packet and per record, never per byte: a seed that only moved
/// bytes within the last packet would leave `stream_1flow`'s simulated
/// latency the same to the nanosecond.
fn bulk_message(seed: u64) -> usize {
    seeded_size(256 * 1024, 8 * 1024, seed)
}

/// Request/response bodies and real-payload messages: 64 KiB plus up to
/// 504 bytes, within the last packet (their costs do scale with bytes).
fn small_message(seed: u64) -> usize {
    seeded_size(64 * 1024, 504, seed)
}

/// The impaired data direction of `lossy_resync_8flow`: 0.5 % loss +
/// 0.5 % reorder (ACKs travel a clean link, as in the legacy loss sweeps).
/// At 1 % loss the share of messages stalled by a second RTO is about 1 %,
/// so p99 latency lands on either side of that knee — 6.1 or 8.6 ms —
/// depending on the seed; at 0.5 % it sits on the plateau below it.
pub fn lossy_link() -> Impairments {
    Impairments {
        loss: 0.005,
        ..Impairments::reorder(0.005)
    }
}

fn both_ends(conns: &[ConnId], a: usize, b: usize) -> Vec<(usize, ConnId)> {
    conns.iter().flat_map(|&c| [(a, c), (b, c)]).collect()
}

fn at_host(conns: &[ConnId], host: usize) -> Vec<(usize, ConnId)> {
    conns.iter().map(|&c| (host, c)).collect()
}

/// Times `n` calls of `connect`.
fn connect_n(
    n: usize,
    wall: &mut Duration,
    mut connect: impl FnMut(usize) -> ConnId,
) -> Vec<ConnId> {
    let t = Instant::now();
    let conns = (0..n).map(&mut connect).collect();
    *wall += t.elapsed();
    conns
}

/// Builds workload `name` for `seed`, installs its applications and calls
/// `start`; the caller runs the warm-up and the measured window.
///
/// # Panics
///
/// Panics on a name outside [`crate::spec::WORKLOADS`].
pub fn build(name: &str, seed: u64, length: Length) -> Bench {
    let profile = PROFILES
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("unknown workload {name}"));
    let (warmup_us, window_us) = match length {
        Length::Seconds(s) => (
            profile.sim_us_per_wall_s * WARMUP_WALL_S,
            profile.sim_us_per_wall_s * s,
        ),
        Length::Quick => (profile.quick_us as f64 / 2.0, profile.quick_us as f64),
    };
    let mut b = match name {
        "stream_1flow" => stream_pair(
            seed,
            1,
            TlsSpec::offloaded_zc(),
            [1, 8],
            Impairments::none(),
        ),
        "fleet_rss_64flow" => fleet_rss(seed),
        "lossy_resync_8flow" => stream_pair(seed, 8, TlsSpec::offloaded(), [8, 8], lossy_link()),
        "rr_nvme_tls_c1" => rr_nvme_tls(seed, SimDuration::from_nanos((warmup_us * 1e3) as u64)),
        "stream_real_4flow" => stream_real(seed),
        _ => unreachable!("profile lookup above"),
    };
    b.warmup = SimDuration::from_nanos((warmup_us * 1e3) as u64);
    b.window = SimDuration::from_nanos((window_us * 1e3) as u64);
    b.sim.start();
    b
}

fn blank(sim: Sim, log: SharedLog) -> Bench {
    Bench {
        sim,
        endpoints: Vec::new(),
        links: Vec::new(),
        sinks: Vec::new(),
        receivers: Vec::new(),
        offload_hosts: Vec::new(),
        log,
        client: None,
        connect_wall: Duration::ZERO,
        conns: 0,
        warmup: SimDuration::ZERO,
        window: SimDuration::ZERO,
        functional: false,
        impaired: false,
        deep_heap: false,
    }
}

/// Two hosts, `flows` modeled TLS streams from host 0 to host 1 — with one
/// `offloaded_zc` flow, `cores [1, 8]` and a clean link this is exactly
/// the legacy `bench` binary's `iperf` path.
fn stream_pair(
    seed: u64,
    flows: usize,
    tls: TlsSpec,
    cores: [usize; 2],
    impair: Impairments,
) -> Bench {
    let impaired = impair != Impairments::none();
    let world = World::new(WorldConfig {
        seed,
        mode: DataMode::Modeled,
        cores,
        tcp: dc_tcp(),
        impair_0to1: impair,
        ..Default::default()
    });
    let log = OpLog::shared();
    let mut b = blank(Sim::Pair(Box::new(world)), Rc::clone(&log));
    let conns = connect_n(flows, &mut b.connect_wall, |_| {
        b.sim.connect(ConnSpec::Tls(tls), ConnSpec::Tls(tls))
    });
    let message = bulk_message(seed);
    let sender = IperfSender::new(conns.clone(), message, DataMode::Modeled);
    b.sim.set_app(
        0,
        Box::new(TimedSender::new(sender, conns.clone(), Rc::clone(&log))),
    );
    b.sim
        .set_app(1, Box::new(MessageSink::new(&conns, message, None, log)));
    b.endpoints = both_ends(&conns, 0, 1);
    b.links = vec![(0, 1), (1, 0)];
    b.sinks = at_host(&conns, 1);
    b.receivers = at_host(&conns, 1);
    b.offload_hosts = vec![1];
    b.conns = flows;
    b.impaired = impaired;
    b
}

const FLEET_CLIENTS: usize = 4;
const FLEET_SERVERS: usize = 2;
const FLEET_FLOWS: usize = 64;

/// 4 clients × 2 servers, 64 TLS flows rx-offloaded at servers whose NICs
/// have 4 rx queues over 128 RSS buckets and an 8-entry context cache
/// (32 flows per server: 4× oversubscribed), rebalancer armed.
fn fleet_rss(seed: u64) -> Bench {
    let fleet = Fleet::build(FleetSpec {
        clients: FLEET_CLIENTS,
        servers: FLEET_SERVERS,
        client: HostSpec {
            cores: 4,
            ..HostSpec::default()
        },
        server: HostSpec {
            // Twice as many cores as rx queues: the rebalancer has idle
            // cores to migrate hot flows onto.
            cores: 8,
            nic: NicConfig {
                ctx_cache_capacity: 8,
                rx_queues: 4,
                rss_buckets: 128,
                ..NicConfig::default()
            },
        },
        impair: Vec::new(),
        scripts: Vec::new(),
        cfg: WorldConfig {
            seed,
            mode: DataMode::Modeled,
            // 32 flows share each server's cores: with the two-host
            // 512 KiB windows and 4 ms RTO floor their standing queue at
            // the server outlasts the timer and every flow retransmits
            // spuriously. Smaller windows and a longer floor keep the
            // clean path clean.
            tcp: TcpConfig {
                max_cwnd: 128 << 10,
                rcv_buf: 128 << 10,
                min_rto: SimDuration::from_millis(50),
                ..dc_tcp()
            },
            rebalance: Some(RebalanceConfig::default()),
            ..Default::default()
        },
    });
    let log = OpLog::shared();
    let mut b = blank(Sim::Fleet(Box::new(fleet)), Rc::clone(&log));
    let Sim::Fleet(fleet) = &mut b.sim else {
        unreachable!("built as a fleet above")
    };
    let message = bulk_message(seed);
    let mut per_client: Vec<Vec<ConnId>> = vec![Vec::new(); FLEET_CLIENTS];
    let mut per_server: Vec<Vec<ConnId>> = vec![Vec::new(); FLEET_SERVERS];
    let t = Instant::now();
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
        per_server[sj].push(conn);
        let server = fleet.server(sj);
        b.endpoints
            .extend([(fleet.client(ci), conn), (server, conn)]);
        b.sinks.push((server, conn));
        b.receivers.push((server, conn));
    }
    b.connect_wall = t.elapsed();
    for (ci, conns) in per_client.into_iter().enumerate() {
        let sender = IperfSender::new(conns.clone(), message, DataMode::Modeled);
        let host = fleet.client(ci);
        fleet.set_app(
            host,
            Box::new(TimedSender::new(sender, conns, Rc::clone(&log))),
        );
    }
    for (sj, conns) in per_server.iter().enumerate() {
        let host = fleet.server(sj);
        fleet.set_app(
            host,
            Box::new(MessageSink::new(conns, message, None, Rc::clone(&log))),
        );
        b.offload_hosts.push(host);
    }
    for ci in 0..FLEET_CLIENTS as u16 {
        for sj in 0..FLEET_SERVERS as u16 {
            let s = FLEET_CLIENTS as u16 + sj;
            b.links.extend([(ci, s), (s, ci)]);
        }
    }
    b.conns = FLEET_FLOWS;
    b.deep_heap = true;
    b
}

const RR_FRONT: usize = 32;
const RR_QUEUES: usize = 8;
const RR_REQUEST: usize = 128;

/// httpd configuration C1 (`ano_bench::runners::run_rr`'s shape): the
/// server on host 0 answers each 128 B request with a ~64 KiB response it
/// first reads over NVMe-TLS from the drive on host 1, the client's host.
fn rr_nvme_tls(seed: u64, warmup: SimDuration) -> Bench {
    let world = World::new(WorldConfig {
        seed,
        mode: DataMode::Modeled,
        cores: [8, 12],
        tcp: dc_tcp(),
        ..Default::default()
    });
    let log = OpLog::shared();
    let mut b = blank(Sim::Pair(Box::new(world)), log);
    let tls = TlsSpec::offloaded_zc();
    let front = connect_n(RR_FRONT, &mut b.connect_wall, |_| {
        b.sim.connect(ConnSpec::Tls(tls), ConnSpec::Tls(tls))
    });
    // One drive behind all queues: split its bandwidth across the
    // per-queue device models so the aggregate ceiling stays 2.67 GB/s.
    let mut target = NvmeTargetSpec {
        crc_tx_offload: true,
        crc_rx_offload: true,
        ..Default::default()
    };
    target.device.bandwidth_bps /= RR_QUEUES as u64;
    let storage = connect_n(RR_QUEUES, &mut b.connect_wall, |_| {
        b.sim.connect(
            ConnSpec::NvmeTlsHost(NvmeHostSpec::offloaded(), tls),
            ConnSpec::NvmeTlsTarget(target.clone(), tls),
        )
    });
    let response = small_message(seed);
    let server = Server::new(
        RR_REQUEST,
        response,
        Backing::Storage {
            conns: storage.clone(),
            span: 64 << 30,
        },
        DataMode::Modeled,
    );
    let mut client = Client::new(front.clone(), RR_REQUEST, response, DataMode::Modeled);
    // Latencies of the warm-up stay out of the client's samples.
    client.measure_from = SimTime::ZERO + warmup;
    b.client = Some(client.stats());
    b.sim.set_app(0, Box::new(server));
    b.sim.set_app(1, Box::new(client));
    b.endpoints = both_ends(&front, 0, 1);
    b.endpoints.extend(both_ends(&storage, 0, 1));
    b.links = vec![(0, 1), (1, 0)];
    b.sinks = at_host(&front, 1);
    b.receivers = at_host(&front, 0);
    b.receivers.extend(at_host(&storage, 0));
    b.offload_hosts = vec![0];
    b.conns = RR_FRONT + RR_QUEUES;
    b.deep_heap = true;
    b
}

/// Two hosts, 4 TLS `offloaded` streams carrying real bytes: the sender
/// writes a seeded pattern, the NIC model really encrypts and decrypts,
/// and the sink compares every delivered byte.
fn stream_real(seed: u64) -> Bench {
    const FLOWS: usize = 4;
    let world = World::new(WorldConfig {
        seed,
        mode: DataMode::Functional,
        cores: [4, 8],
        tcp: dc_tcp(),
        ..Default::default()
    });
    let log = OpLog::shared();
    let mut b = blank(Sim::Pair(Box::new(world)), Rc::clone(&log));
    let tls = TlsSpec::offloaded();
    let conns = connect_n(FLOWS, &mut b.connect_wall, |_| {
        b.sim.connect(ConnSpec::Tls(tls), ConnSpec::Tls(tls))
    });
    let message = small_message(seed);
    b.sim.set_app(
        0,
        Box::new(PatternSender::new(seed, &conns, message, Rc::clone(&log))),
    );
    b.sim.set_app(
        1,
        Box::new(MessageSink::new(&conns, message, Some(seed), log)),
    );
    b.endpoints = both_ends(&conns, 0, 1);
    b.links = vec![(0, 1), (1, 0)];
    b.sinks = at_host(&conns, 1);
    b.receivers = at_host(&conns, 1);
    b.offload_hosts = vec![1];
    b.conns = FLOWS;
    b.functional = true;
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_sizes_stay_within_their_span_of_the_base() {
        let bulk: std::collections::BTreeSet<usize> = (0..200).map(bulk_message).collect();
        assert!(bulk.len() > 100, "seeds spread over the range");
        for s in bulk {
            assert!((256 * 1024 + 8..=264 * 1024).contains(&s) && s.is_multiple_of(8));
        }
        for seed in 0..200 {
            let s = small_message(seed);
            assert!((64 * 1024 + 8..=64 * 1024 + 504).contains(&s) && s.is_multiple_of(8));
        }
        assert_eq!(small_message(42), small_message(42));
    }
}

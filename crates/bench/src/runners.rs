//! Reusable experiment engines: each sets up a [`World`], runs a warm-up,
//! measures a window, and returns the quantities the paper's figures plot.

use ano_apps::fio::Fio;
use ano_apps::httpd::{Backing, Client, Server};
use ano_apps::iperf::{IperfSender, IperfSink};
use ano_core::nic::NicConfig;
use ano_sim::link::Impairments;
use ano_sim::payload::DataMode;
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::*;
use ano_tcp::TcpConfig;
use ano_tls::ktls::RecordClass;

/// The four §6.3 transport variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Plain TCP ("http").
    Http,
    /// Software kTLS ("https" baseline).
    TlsSw,
    /// kTLS + NIC crypto offload.
    TlsOffload,
    /// kTLS + NIC crypto offload + zero-copy sendfile.
    TlsOffloadZc,
}

impl Variant {
    /// Connection spec for this variant.
    pub fn spec(self) -> ConnSpec {
        match self {
            Variant::Http => ConnSpec::Raw,
            Variant::TlsSw => ConnSpec::Tls(TlsSpec::default()),
            Variant::TlsOffload => ConnSpec::Tls(TlsSpec::offloaded()),
            Variant::TlsOffloadZc => ConnSpec::Tls(TlsSpec::offloaded_zc()),
        }
    }

    /// Display label (the paper's legend names).
    pub fn label(self) -> &'static str {
        match self {
            Variant::Http => "http",
            Variant::TlsSw => "https",
            Variant::TlsOffload => "offload",
            Variant::TlsOffloadZc => "offload+zc",
        }
    }
}

/// iperf run parameters.
#[derive(Clone, Debug)]
pub struct IperfCfg {
    /// Transport variant.
    pub variant: Variant,
    /// Parallel streams.
    pub conns: usize,
    /// Application message size per send.
    pub message: usize,
    /// Sender cores (host 0) and receiver cores (host 1).
    pub cores: [usize; 2],
    /// Impairments on the data direction (0 → 1).
    pub impair: Impairments,
    /// Driver ↔ L5P resync notification delay (ablation A2).
    pub resync_delay: SimDuration,
    /// Warm-up before measuring.
    pub warmup: SimDuration,
    /// Measurement window.
    pub window: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl Default for IperfCfg {
    fn default() -> Self {
        IperfCfg {
            variant: Variant::TlsOffloadZc,
            conns: 1,
            message: 256 * 1024,
            cores: [1, 8],
            impair: Impairments::none(),
            resync_delay: SimDuration::from_micros(5),
            warmup: SimDuration::from_millis(60),
            window: SimDuration::from_millis(100),
            seed: 42,
        }
    }
}

/// iperf results.
#[derive(Clone, Debug)]
pub struct IperfResult {
    /// Goodput over the window, Gbit/s.
    pub gbps: f64,
    /// Busy cores at the sender over the window.
    pub busy_tx: f64,
    /// Busy cores at the receiver over the window.
    pub busy_rx: f64,
    /// Sender CPU cycles per record framed (whole run).
    pub tx_cycles_per_record: f64,
    /// Receiver CPU cycles per record (whole run).
    pub rx_cycles_per_record: f64,
    /// Receive-side record classification (whole run).
    pub class: RecordClass,
    /// Sender-side PCIe recovery traffic as a fraction of PCIe capacity.
    pub pcie_overhead_pct: f64,
    /// TCP loss recovery, both hosts, whole run.
    pub tcp: TcpRecovery,
    /// Packets offered to the links, both directions, whole run.
    pub pkts: u64,
}

/// TCP loss recovery summed over a run's connections on both hosts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpRecovery {
    /// Segments retransmitted (RTO, fast and SACK-directed).
    pub retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
}

impl TcpRecovery {
    /// Sums `conns` of the two-host world `w` over both hosts.
    fn of(w: &World, conns: &[ConnId]) -> TcpRecovery {
        let mut sum = TcpRecovery::default();
        for &c in conns {
            for s in (0..2).filter_map(|h| w.tcp_tx_stats(h, c)) {
                sum.retransmits += s.retransmits;
                sum.timeouts += s.timeouts;
            }
        }
        sum
    }

    /// Adds `other` in.
    pub fn add(&mut self, other: TcpRecovery) {
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
    }
}

/// Runs an iperf-style streaming experiment.
pub fn run_iperf(cfg: &IperfCfg) -> IperfResult {
    let mut w = World::new(WorldConfig {
        seed: cfg.seed,
        mode: DataMode::Modeled,
        cores: cfg.cores,
        impair_0to1: cfg.impair.clone(),
        resync_delay: cfg.resync_delay,
        tcp: dc_tcp(),
        ..Default::default()
    });
    let conns: Vec<ConnId> = (0..cfg.conns)
        .map(|_| w.connect(cfg.variant.spec(), cfg.variant.spec()))
        .collect();
    let sender = IperfSender::new(conns.clone(), cfg.message, DataMode::Modeled);
    let sink = IperfSink::new();
    w.set_app(0, Box::new(sender));
    w.set_app(1, Box::new(sink));
    w.start();
    w.run_until(SimTime::ZERO + cfg.warmup);

    let t0 = w.now();
    let snap_tx = w.cpu_snapshot(0);
    let snap_rx = w.cpu_snapshot(1);
    let delivered0: u64 = conns.iter().map(|&c| w.delivered_bytes(1, c)).sum();
    let pcie0 = w.nic_counters(0).pcie_replay_bytes;
    w.run_until(t0 + cfg.window);
    let elapsed = w.now().since(t0);
    let delivered1: u64 = conns.iter().map(|&c| w.delivered_bytes(1, c)).sum();
    let pcie1 = w.nic_counters(0).pcie_replay_bytes;

    let gbps = (delivered1 - delivered0) as f64 * 8.0 / elapsed.as_secs_f64() / 1e9;
    let busy_tx = w.busy_cores_since(0, &snap_tx, elapsed);
    let busy_rx = w.busy_cores_since(1, &snap_rx, elapsed);

    // Per-record cycle costs over the whole run (records framed at host 0).
    let mut class = RecordClass::default();
    let mut records = 0u64;
    for &c in &conns {
        if let Some(k) = w.ktls_rx_stats(1, c) {
            class.full += k.class.full;
            class.partial += k.class.partial;
            class.none += k.class.none;
            records += k.class.total();
        } else {
            // Raw: count "records" as messages for cycle normalization.
            records += w.delivered_bytes(1, c) / cfg.message as u64;
        }
    }
    let records = records.max(1);
    let pcie_bps_used = (pcie1 - pcie0) as f64 * 8.0 / elapsed.as_secs_f64();
    IperfResult {
        gbps,
        busy_tx,
        busy_rx,
        tx_cycles_per_record: w.cpu_busy_cycles(0) as f64 / records as f64,
        rx_cycles_per_record: w.cpu_busy_cycles(1) as f64 / records as f64,
        class,
        pcie_overhead_pct: 100.0 * pcie_bps_used / w.cost().pcie_bps as f64,
        tcp: TcpRecovery::of(&w, &conns),
        pkts: offered_pkts(&w),
    }
}

/// Whether NVMe offloads are applied on a storage connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NvmeVariant {
    /// Software copy + CRC.
    Baseline,
    /// NIC copy + CRC offloads.
    Offload,
}

/// nginx/Redis-style request-response run parameters.
#[derive(Clone, Debug)]
pub struct RrCfg {
    /// Front-end transport between client (host 1) and server (host 0).
    pub front: Variant,
    /// Storage configuration: `None` = C2 (page cache); `Some` = C1 with
    /// the given NVMe variant and whether the storage link runs inside TLS
    /// (the combined NVMe-TLS offload).
    pub storage: Option<(NvmeVariant, bool)>,
    /// Persistent client connections.
    pub conns: usize,
    /// Request size on the wire.
    pub request: usize,
    /// Response (file/value) size.
    pub response: usize,
    /// Server cores / client cores.
    pub cores: [usize; 2],
    /// Number of parallel storage queues (C1).
    pub storage_queues: usize,
    /// NIC context-cache capacity (Fig. 19 sweeps shrink it).
    pub nic_cache: usize,
    /// Warm-up and measurement window.
    pub warmup: SimDuration,
    /// Measurement window.
    pub window: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl Default for RrCfg {
    fn default() -> Self {
        RrCfg {
            front: Variant::TlsOffloadZc,
            storage: None,
            conns: 64,
            request: 128,
            response: 256 * 1024,
            cores: [8, 12],
            storage_queues: 4,
            nic_cache: 20_000,
            warmup: SimDuration::from_millis(30),
            window: SimDuration::from_millis(100),
            seed: 7,
        }
    }
}

/// Request-response results.
#[derive(Clone, Debug)]
pub struct RrResult {
    /// Response goodput, Gbit/s.
    pub gbps: f64,
    /// Busy cores at the server.
    pub busy_cores: f64,
    /// Responses per second.
    pub rps: f64,
    /// Mean request latency, µs.
    pub latency_us: f64,
    /// NIC context-cache hit fraction at the server (Fig. 19).
    pub cache_hit_pct: f64,
    /// TCP loss recovery, both hosts, front and storage connections,
    /// whole run.
    pub tcp: TcpRecovery,
    /// Packets offered to the links, both directions, whole run.
    pub pkts: u64,
}

/// Runs an nginx/RoF-style closed-loop experiment.
pub fn run_rr(cfg: &RrCfg) -> RrResult {
    let mut w = World::new(WorldConfig {
        seed: cfg.seed,
        mode: DataMode::Modeled,
        cores: cfg.cores,
        nic: NicConfig {
            ctx_cache_capacity: cfg.nic_cache,
            ..Default::default()
        },
        tcp: dc_tcp(),
        ..Default::default()
    });
    let mut conns: Vec<ConnId> = (0..cfg.conns)
        .map(|_| w.connect(cfg.front.spec(), cfg.front.spec()))
        .collect();
    let front = conns.clone();
    let backing = match cfg.storage {
        None => Backing::PageCache,
        Some((nv, over_tls)) => {
            let host_spec = match nv {
                NvmeVariant::Baseline => NvmeHostSpec::default(),
                NvmeVariant::Offload => NvmeHostSpec::offloaded(),
            };
            let target_spec = NvmeTargetSpec {
                crc_tx_offload: nv == NvmeVariant::Offload,
                crc_rx_offload: nv == NvmeVariant::Offload,
                ..Default::default()
            };
            let tls = match nv {
                NvmeVariant::Baseline => TlsSpec::default(),
                NvmeVariant::Offload => TlsSpec::offloaded_zc(),
            };
            // One storage queue per server core, like the in-kernel
            // nvme-tcp driver. The paper has a single drive: split its
            // bandwidth across the per-queue device models so the
            // aggregate ceiling stays 2.67 GB/s.
            let queues = cfg.storage_queues.max(cfg.cores[0]);
            let mut target_spec = target_spec;
            target_spec.device.bandwidth_bps /= queues as u64;
            let storage: Vec<ConnId> = (0..queues)
                .map(|_| {
                    if over_tls {
                        w.connect(
                            ConnSpec::NvmeTlsHost(host_spec, tls),
                            ConnSpec::NvmeTlsTarget(target_spec.clone(), tls),
                        )
                    } else {
                        w.connect(
                            ConnSpec::NvmeHost(host_spec),
                            ConnSpec::NvmeTarget(target_spec.clone()),
                        )
                    }
                })
                .collect();
            conns.extend(&storage);
            Backing::Storage {
                conns: storage,
                span: 64 << 30,
            }
        }
    };
    let server = Server::new(cfg.request, cfg.response, backing, DataMode::Modeled);
    let mut client = Client::new(front, cfg.request, cfg.response, DataMode::Modeled);
    client.measure_from = SimTime::ZERO + cfg.warmup;
    let cstats = client.stats();
    w.set_app(0, Box::new(server));
    w.set_app(1, Box::new(client));
    w.start();
    w.run_until(SimTime::ZERO + cfg.warmup);

    let t0 = w.now();
    let snap = w.cpu_snapshot(0);
    let r0 = cstats.borrow().responses;
    let hits0 = w.nic_counters(0).cache_hits;
    let miss0 = w.nic_counters(0).cache_misses;
    w.run_until(t0 + cfg.window);
    let elapsed = w.now().since(t0);
    let s = cstats.borrow();
    let responses = s.responses - r0;
    let latency_us = s.latency_us.mean();
    drop(s);
    let hits = w.nic_counters(0).cache_hits - hits0;
    let misses = w.nic_counters(0).cache_misses - miss0;

    RrResult {
        gbps: responses as f64 * cfg.response as f64 * 8.0 / elapsed.as_secs_f64() / 1e9,
        busy_cores: w.busy_cores_since(0, &snap, elapsed),
        rps: responses as f64 / elapsed.as_secs_f64(),
        latency_us,
        cache_hit_pct: if hits + misses == 0 {
            100.0
        } else {
            100.0 * hits as f64 / (hits + misses) as f64
        },
        tcp: TcpRecovery::of(&w, &conns),
        pkts: offered_pkts(&w),
    }
}

/// fio run parameters (Fig. 10).
#[derive(Clone, Debug)]
pub struct FioCfg {
    /// Read size.
    pub size: u32,
    /// Outstanding I/Os.
    pub depth: usize,
    /// Apply the NVMe offloads.
    pub offload: bool,
    /// Measurement window.
    pub window: SimDuration,
    /// Seed.
    pub seed: u64,
}

/// fio results: the Fig. 10 per-request cycle breakdown.
#[derive(Clone, Debug)]
pub struct FioResult {
    /// Requests completed in the window.
    pub completed: u64,
    /// Busy CPU cycles per request.
    pub busy_per_req: f64,
    /// Copy cycles per request, measured from the NVMe host's
    /// `NvmeHostStats::copy_cycles` over the window.
    pub copy_per_req: f64,
    /// CRC cycles per request, measured from `NvmeHostStats::crc_cycles`.
    pub crc_per_req: f64,
    /// Remaining busy cycles per request.
    pub other_per_req: f64,
    /// Idle cycles per request (wall minus busy, single core).
    pub idle_per_req: f64,
    /// copy+crc as % of total busy cycles.
    pub offloadable_pct: f64,
    /// Mean latency, µs.
    pub latency_us: f64,
    /// TCP loss recovery, both hosts, whole run.
    pub tcp: TcpRecovery,
}

/// Runs a fio-style random-read experiment on one core.
pub fn run_fio(cfg: &FioCfg) -> FioResult {
    let mut w = World::new(WorldConfig {
        seed: cfg.seed,
        mode: DataMode::Modeled,
        cores: [1, 8],
        // Deep pipelines: fio's outstanding I/O lives at the block layer,
        // not in TCP; give the queue room so TCP never throttles it.
        tcp: TcpConfig {
            max_cwnd: 32 << 20,
            rcv_buf: 32 << 20,
            max_ooo: 64 << 20,
            ..Default::default()
        },
        ..Default::default()
    });
    let host_spec = if cfg.offload {
        NvmeHostSpec::offloaded()
    } else {
        NvmeHostSpec::default()
    };
    let conn = w.connect(
        ConnSpec::NvmeHost(host_spec),
        ConnSpec::NvmeTarget(NvmeTargetSpec {
            crc_tx_offload: cfg.offload,
            crc_rx_offload: cfg.offload,
            ..Default::default()
        }),
    );
    // Working set drives the Fig. 10 copy-cost cliff.
    let ws = cfg.size as u64 * cfg.depth as u64;
    w.set_nvme_working_set(0, conn, ws);
    let mut fio = Fio::new(conn, cfg.size, cfg.depth, 64 << 30);
    let warmup = SimDuration::from_millis(20);
    fio.measure_from = SimTime::ZERO + warmup;
    let stats = fio.stats();
    w.set_app(0, Box::new(fio));
    w.start();
    w.run_until(SimTime::ZERO + warmup);

    let t0 = w.now();
    let snap = w.cpu_snapshot(0);
    let c0 = stats.borrow().completed;
    let layer0 = w.nvme_host_stats(0, conn).expect("NVMe initiator");
    w.run_until(t0 + cfg.window);
    let elapsed = w.now().since(t0);
    let s = stats.borrow();
    let completed = (s.completed - c0).max(1);
    let latency_us = s.latency_us.mean();
    drop(s);

    let busy: u64 = w
        .cpu_snapshot(0)
        .iter()
        .zip(snap.iter())
        .map(|(a, b)| a - b)
        .sum();
    let busy_per_req = busy as f64 / completed as f64;
    let cost = w.cost();
    let layer1 = w.nvme_host_stats(0, conn).expect("NVMe initiator");
    let copy_per_req = (layer1.copy_cycles - layer0.copy_cycles) as f64 / completed as f64;
    let crc_per_req = (layer1.crc_cycles - layer0.crc_cycles) as f64 / completed as f64;
    let wall_cycles = elapsed.as_secs_f64() * cost.freq_hz as f64;
    let idle_per_req = (wall_cycles - busy as f64).max(0.0) / completed as f64;
    FioResult {
        completed,
        busy_per_req,
        copy_per_req,
        crc_per_req,
        other_per_req: busy_per_req - copy_per_req - crc_per_req,
        idle_per_req,
        offloadable_pct: 100.0 * (copy_per_req + crc_per_req) / busy_per_req.max(1.0),
        latency_us,
        tcp: TcpRecovery::of(&w, &[conn]),
    }
}

/// Latency run (Table 4): single connection, single outstanding GET, C1.
#[derive(Clone, Debug)]
pub struct LatencyCfg {
    /// Response size.
    pub response: usize,
    /// Front-end TLS offload on.
    pub tls_offload: bool,
    /// NVMe copy offload on.
    pub copy_offload: bool,
    /// NVMe CRC offload on.
    pub crc_offload: bool,
    /// Requests to average over.
    pub requests: u64,
    /// Seed.
    pub seed: u64,
}

/// Table 4 results.
#[derive(Clone, Debug)]
pub struct LatencyResult {
    /// Mean GET latency, µs.
    pub latency_us: f64,
    /// TCP loss recovery, both hosts, whole run.
    pub tcp: TcpRecovery,
}

/// Runs the Table 4 latency experiment.
pub fn run_latency(cfg: &LatencyCfg) -> LatencyResult {
    let mut w = World::new(WorldConfig {
        seed: cfg.seed,
        mode: DataMode::Modeled,
        cores: [2, 2],
        ..Default::default()
    });
    let front_spec = if cfg.tls_offload {
        Variant::TlsOffloadZc.spec()
    } else {
        Variant::TlsSw.spec()
    };
    let front = w.connect(front_spec.clone(), front_spec);
    let host_spec = NvmeHostSpec {
        copy_offload: cfg.copy_offload,
        crc_offload: cfg.crc_offload,
        crc_tx_offload: cfg.crc_offload,
    };
    let tls = if cfg.tls_offload {
        TlsSpec::offloaded_zc()
    } else {
        TlsSpec::default()
    };
    let storage = w.connect(
        ConnSpec::NvmeTlsHost(host_spec, tls),
        ConnSpec::NvmeTlsTarget(
            NvmeTargetSpec {
                crc_tx_offload: cfg.crc_offload,
                crc_rx_offload: cfg.crc_offload,
                ..Default::default()
            },
            tls,
        ),
    );
    let server = Server::new(
        128,
        cfg.response,
        Backing::Storage {
            conns: vec![storage],
            span: 64 << 30,
        },
        DataMode::Modeled,
    );
    let mut client = Client::new(vec![front], 128, cfg.response, DataMode::Modeled);
    client.measure_from = SimTime::from_millis(5);
    let stats = client.stats();
    w.set_app(0, Box::new(server));
    w.set_app(1, Box::new(client));
    w.start();
    // Run until enough requests are measured.
    let mut deadline = SimTime::from_millis(50);
    while stats.borrow().measured_responses < cfg.requests && !w.is_idle() {
        w.run_until(deadline);
        deadline = deadline + SimDuration::from_millis(50);
        if deadline > SimTime::from_secs(20) {
            break;
        }
    }
    let latency_us = stats.borrow().latency_us.mean();
    LatencyResult {
        latency_us,
        tcp: TcpRecovery::of(&w, &[front, storage]),
    }
}

/// Packets handed to the two-host world's links so far, both directions.
fn offered_pkts(w: &World) -> u64 {
    w.link_stats_between(0, 1).offered + w.link_stats_between(1, 0).offered
}

/// Datacenter-tuned TCP (back-to-back links; Linux-like fast loss
/// recovery is approximated with a 4 ms minimum RTO).
pub fn dc_tcp() -> TcpConfig {
    TcpConfig {
        min_rto: ano_sim::time::SimDuration::from_millis(4),
        // Bounded per-flow windows keep the (infinitely buffered) link's
        // standing queue below the RTO floor, as receiver windows and
        // shallow switch buffers do on real datacenter hardware.
        max_cwnd: 512 << 10,
        rcv_buf: 512 << 10,
        ..Default::default()
    }
}

/// Shared quick-mode switch for tests and smoke runs.
pub fn quick_window(quick: bool) -> SimDuration {
    if quick {
        SimDuration::from_millis(30)
    } else {
        SimDuration::from_millis(100)
    }
}


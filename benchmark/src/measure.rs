//! Set-up, warm-up and the measured window of one workload, and the
//! metrics derived from it.

use std::time::{Duration, Instant};

use ano_sim::time::SimDuration;

use crate::alloc;
use crate::snap::{pct, per, Snap};
use crate::span::Recorder;
use crate::spec::Metrics;
use crate::stats::{median, percentile, slice_ends, spread};
use crate::workloads::{self, Bench, Length, SLICES};

/// A warmed-up workload and what setting it up cost.
pub struct SetUp {
    pub bench: Bench,
    /// Host time of build + connect + install + warm-up: `setup_s`.
    pub wall: Duration,
    /// Heap allocation calls of the same, the recorder's own excluded.
    pub allocs: u64,
}

/// Builds the workload and runs its warm-up: everything `setup_s` covers.
pub fn set_up(name: &str, seed: u64, length: Length, traced: bool, rec: &mut Recorder) -> SetUp {
    rec.enter("setup");
    let t = Instant::now();
    rec.enter("setup.build_connect_install");
    let a0 = alloc::counters().0;
    let mut bench = workloads::build(name, seed, length);
    let mut allocs = alloc::counters().0 - a0;
    rec.exit();
    bench.sim.tracer().set_enabled(traced);
    let until = bench.sim.now() + bench.warmup;
    rec.enter("setup.warmup");
    let a0 = alloc::counters().0;
    bench.sim.run_until(until);
    allocs += alloc::counters().0 - a0;
    rec.exit();
    let wall = t.elapsed();
    rec.exit();
    SetUp {
        bench,
        wall,
        allocs,
    }
}

/// What one measured window produced.
pub struct Window {
    /// In-situ counters over the window.
    pub counts: Snap,
    /// Simulated length of the window.
    pub sim: SimDuration,
    /// Host ns, packets offered to all links, and application bytes
    /// delivered, per slice.
    pub slice_wall_ns: Vec<f64>,
    pub slice_pkts: Vec<u64>,
    pub slice_bytes: Vec<u64>,
    /// Heap allocations (calls, bytes) inside the `run_until` calls.
    pub allocs: (u64, u64),
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Closed-loop operation latency over the window, simulated µs.
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub latency_samples: usize,
    /// Worst max-over-mean rx-queue packet load among the offloading hosts
    /// (cumulative since connect: the NIC keeps no windowed counter).
    pub queue_imbalance: f64,
    /// Max-over-mean busy cycles across the offloading hosts' cores.
    pub busy_core_spread: f64,
    /// Records the world tracer's ring dropped so far.
    pub trace_dropped: u64,
}

impl Window {
    pub fn wall_ns(&self) -> f64 {
        self.slice_wall_ns.iter().sum()
    }

    /// Per-slice host ns per packet offered.
    pub fn ns_per_pkt(&self) -> Vec<f64> {
        self.slice_wall_ns
            .iter()
            .zip(&self.slice_pkts)
            .map(|(ns, &p)| ns / p.max(1) as f64)
            .collect()
    }

    /// Per-slice simulated application megabytes per host second.
    pub fn mb_per_wall_s(&self) -> Vec<f64> {
        self.slice_wall_ns
            .iter()
            .zip(&self.slice_bytes)
            .map(|(ns, &b)| b as f64 / 1e6 / (ns / 1e9))
            .collect()
    }

    /// Every simulated statistic of the window, by name: what an untraced
    /// and a traced run of one seed must agree on exactly.
    pub fn sim_fingerprint(&self) -> Vec<(String, f64)> {
        let mut m = Metrics::default();
        self.sim_metrics(&mut m);
        let mut out: Vec<(String, f64)> = m.rows().map(|(n, v, _)| (n.to_string(), v)).collect();
        out.push(("ops_attempted".into(), self.ops_attempted as f64));
        out.push(("ops_failed".into(), self.ops_failed as f64));
        out.push(("queue_imbalance".into(), self.queue_imbalance));
        out.push(("busy_core_spread".into(), self.busy_core_spread));
        out
    }

    /// The simulated end-to-end metrics.
    pub fn sim_metrics(&self, m: &mut Metrics) {
        let c = &self.counts;
        m.set(
            "sim_goodput_gbps",
            c.delivered_bytes as f64 * 8.0 / self.sim.as_secs_f64() / 1e9,
        );
        m.set(
            "sim_cpu_cycles_per_kib",
            c.offload_host_cycles as f64 / (c.delivered_bytes as f64 / 1024.0).max(1.0),
        );
        m.set(
            "sim_offload_full_pct",
            pct(c.recv_full, c.recv_full + c.recv_partial + c.recv_none, 0.0),
        );
        m.set("sim_latency_p50_us", self.latency_p50_us);
        m.set("sim_latency_p99_us", self.latency_p99_us);
    }

    /// The host-time end-to-end metrics of the window itself.
    pub fn wall_metrics(&self, m: &mut Metrics) {
        m.set("wall_ns_per_pkt", median(&self.ns_per_pkt()));
        m.set("sim_mb_per_wall_s", median(&self.mb_per_wall_s()));
    }

    /// The in-situ per-layer counts. A ratio with nothing counted reads 0,
    /// except the hit/ok ratios, which read 100.
    pub fn layer_counts(&self, m: &mut Metrics) {
        let c = &self.counts;
        m.set("sim.sched.events_per_pkt", per(c.events, c.pkts));
        m.set("sim.link.lost_pct", pct(c.pkts_lost, c.pkts, 0.0));
        m.set("sim.link.reordered_pct", pct(c.pkts_reordered, c.pkts, 0.0));
        m.set("sim.link.wire_bytes_per_pkt", per(c.wire_bytes, c.pkts));
        let data_segments = c.tcp_segments + c.tcp_retransmits;
        m.set(
            "tcp.retransmit_pct",
            pct(c.tcp_retransmits, data_segments, 0.0),
        );
        m.set("tcp.fast_retransmits", c.tcp_fast_retransmits as f64);
        m.set("tcp.timeouts", c.tcp_timeouts as f64);
        m.set("tcp.segments_per_pkt", per(data_segments, c.pkts));
        m.set(
            "core.rx.offloaded_pkt_pct",
            pct(c.rx_offloaded, c.rx_pkts, 0.0),
        );
        m.set("core.rx.resync_requests", c.rx_resync_requests as f64);
        m.set(
            "core.rx.resync_ok_pct",
            pct(c.rx_resync_ok, c.rx_resync_requests, 100.0),
        );
        m.set("core.rx.boundary_resyncs", c.rx_boundary_resyncs as f64);
        m.set("core.rx.retransmit_bypass", c.rx_retransmit_bypass as f64);
        m.set("core.rx.desyncs", c.rx_desyncs as f64);
        m.set("core.tx.recoveries", c.tx_recoveries as f64);
        m.set(
            "core.tx.replay_bytes_per_pkt",
            per(c.tx_replay_bytes, c.tx_pkts),
        );
        m.set(
            "core.tx.offloaded_pkt_pct",
            pct(c.tx_offloaded, c.tx_pkts, 0.0),
        );
        m.set(
            "core.nic.cache_hit_pct",
            pct(c.cache_hits, c.cache_hits + c.cache_misses, 100.0),
        );
        m.set(
            "core.nic.pcie_ctx_bytes_per_pkt",
            per(c.pcie_ctx_bytes, c.pkts),
        );
        m.set("core.nic.queue_crossings", c.queue_crossings as f64);
        m.set("core.rss.queue_imbalance", self.queue_imbalance);
        m.set("core.rss.busy_core_spread", self.busy_core_spread);
        m.set("core.rss.migrations", c.migrations as f64);
        let records = c.rec_full + c.rec_partial + c.rec_none;
        m.set("tls.ktls.records_full_pct", pct(c.rec_full, records, 0.0));
        m.set(
            "tls.ktls.records_partial_pct",
            pct(c.rec_partial, records, 0.0),
        );
        m.set("tls.ktls.records_none_pct", pct(c.rec_none, records, 0.0));
        m.set("tls.ktls.alerts", c.alerts as f64);
        m.set("tls.ktls.records_per_pkt", per(records, c.pkts));
        m.set("nvme.reads", c.nvme_reads as f64);
        m.set(
            "nvme.bytes_placed_pct",
            pct(c.nvme_placed, c.nvme_placed + c.nvme_copied, 0.0),
        );
        m.set(
            "nvme.crc_skipped_pct",
            pct(c.nvme_crc_skipped, c.nvme_crc_skipped + c.nvme_crc_sw, 0.0),
        );
        m.set("nvme.crc_failures", c.nvme_crc_failures as f64);
        m.set("stack.allocs_per_pkt", per(self.allocs.0, c.pkts));
        m.set("stack.alloc_bytes_per_pkt", per(self.allocs.1, c.pkts));
    }

    /// Interquartile range of the per-slice ns/packet as a share of their
    /// median: how steady the host-time figures of this run are.
    pub fn slice_spread(&self) -> f64 {
        spread(&self.ns_per_pkt())
    }
}

fn core_cycles(b: &Bench) -> Vec<u64> {
    b.offload_hosts
        .iter()
        .flat_map(|&h| b.sim.cpu_snapshot(h))
        .collect()
}

/// Runs the measured window of a warmed-up workload, slice by slice, inside
/// a span called `name` with one child span per `run_until` slice.
pub fn run_window(b: &mut Bench, rec: &mut Recorder, name: &str) -> Window {
    b.log.borrow_mut().start_window();
    let responses0 = b.client.as_ref().map(|c| c.borrow().measured_responses);
    let cores0 = core_cycles(b);
    let before = Snap::take(b);
    let start = b.sim.now();

    let mut slice_wall_ns = Vec::with_capacity(SLICES);
    let mut slice_pkts = Vec::with_capacity(SLICES);
    let mut slice_bytes = Vec::with_capacity(SLICES);
    let mut allocs = (0u64, 0u64);
    let (mut pkts, mut bytes) = (before.pkts, before.delivered_bytes);
    rec.enter(name);
    for end in slice_ends(start, b.window, SLICES) {
        rec.enter("slice.run_until");
        let a0 = alloc::counters();
        let t = Instant::now();
        b.sim.run_until(end);
        let dt = t.elapsed();
        let a1 = alloc::counters();
        rec.exit();
        allocs.0 += a1.0 - a0.0;
        allocs.1 += a1.1 - a0.1;
        // Only the two cheap sums per slice; the full snapshot waits for
        // the end of the window.
        let (p, d) = offered_and_delivered(b);
        slice_wall_ns.push(dt.as_nanos() as f64);
        slice_pkts.push(p - pkts);
        slice_bytes.push(d - bytes);
        (pkts, bytes) = (p, d);
    }
    rec.exit();

    let after = Snap::take(b);
    let counts = after.since(&before);
    let cores: Vec<u64> = core_cycles(b)
        .iter()
        .zip(&cores0)
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = cores.iter().sum();
    let busy_core_spread = if total == 0 {
        1.0
    } else {
        *cores.iter().max().expect("an offloading host has cores") as f64 * cores.len() as f64
            / total as f64
    };
    let queue_imbalance = b
        .offload_hosts
        .iter()
        .map(|&h| b.sim.queue_imbalance(h))
        .fold(1.0, f64::max);

    // Operations and latencies: the stock HTTP client keeps its own,
    // every other workload reports through the shared log.
    let log = b.log.borrow();
    let (attempted, app_failed, p50, p99, samples) = match (&b.client, responses0) {
        (Some(client), Some(r0)) => {
            let s = client.borrow();
            (
                s.measured_responses - r0,
                0,
                s.latency_us.percentile(50.0),
                s.latency_us.percentile(99.0),
                s.latency_us.len(),
            )
        }
        _ => (
            log.attempted,
            log.failed,
            percentile(&log.latency_us, 50.0),
            percentile(&log.latency_us, 99.0),
            log.latency_us.len(),
        ),
    };
    drop(log);
    Window {
        // A TLS alert or an NVMe digest failure is a failed operation too.
        ops_failed: app_failed + counts.alerts + counts.nvme_crc_failures,
        ops_attempted: attempted,
        counts,
        sim: b.sim.now().since(start),
        slice_wall_ns,
        slice_pkts,
        slice_bytes,
        allocs,
        latency_p50_us: p50,
        latency_p99_us: p99,
        latency_samples: samples,
        queue_imbalance,
        busy_core_spread,
        trace_dropped: b.sim.tracer().dropped(),
    }
}

fn offered_and_delivered(b: &Bench) -> (u64, u64) {
    let pkts = b
        .links
        .iter()
        .map(|&(s, d)| b.sim.link_stats_between(s, d).offered)
        .sum();
    let bytes = b
        .sinks
        .iter()
        .map(|&(h, c)| b.sim.delivered_bytes(h, c))
        .sum();
    (pkts, bytes)
}

/// Process high-water mark of resident memory, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

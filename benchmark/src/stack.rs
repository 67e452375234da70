//! The ns-per-packet stack: replay cost per operation × the workload's
//! in-situ operation counts, per layer, as a share of the measured host
//! time of the same window.
//!
//! Layers are priced exclusively — a layer's driver that runs another
//! layer inside it has that layer backed out — so the shares add up to at
//! most what the drivers explain, and `stack.runtime.unattributed_pct` is
//! the remainder: event dispatch glue, application callbacks, per-host
//! bookkeeping, and everything a warm, isolated loop hides (cache misses
//! between layers).

use crate::measure::Window;
use crate::replay::{Replay, NOMINAL_HZ};
use crate::spec::Metrics;
use crate::workloads::Bench;

/// Host ns each layer explains of one window.
pub struct LayerNs {
    pub sched: f64,
    pub link: f64,
    pub tcp: f64,
    pub rx: f64,
    pub tx: f64,
    pub nic: f64,
    pub rss: f64,
    pub ktls: f64,
    pub nvme: f64,
    pub crypto: f64,
}

impl LayerNs {
    pub fn total(&self) -> f64 {
        self.sched
            + self.link
            + self.tcp
            + self.rx
            + self.tx
            + self.nic
            + self.rss
            + self.ktls
            + self.nvme
            + self.crypto
    }
}

/// Prices window `w` of workload `b` with replay timings `r`.
pub fn price(b: &Bench, w: &Window, r: &Replay) -> LayerNs {
    let c = &w.counts;
    let n = |x: u64| x as f64;
    let sched_event = if b.deep_heap {
        r.sched_d4096.ns
    } else {
        r.sched_d64.ns
    };
    let link_pkt = if b.impaired {
        // Only the data direction is impaired; ACKs ride a clean link.
        (r.link_impaired.ns + r.link_clean.ns) / 2.0
    } else {
        r.link_clean.ns
    };
    let tcp_pkt = if b.impaired { r.tcp_lossy.ns } else { r.tcp.ns };
    // What the NIC adds around an engine: `rx_process` on a hit minus the
    // engine it ran; a miss adds the eviction and fill on top.
    let nic_self = (r.nic_rx_hit.ns - r.rx_inseq.ns).max(0.0);
    let nic_miss_extra = (r.nic_rx_miss.ns - r.nic_rx_hit.ns).max(0.0);
    let records = c.rec_full + c.rec_partial + c.rec_none;
    // Real payloads: the NIC model seals every transmitted record byte and
    // opens every received one; modeled payloads run no cipher at all.
    // NVMe digests ride the CRC offload in the one workload that has them.
    let crypto_bytes = if b.functional {
        n(c.delivered_bytes)
    } else {
        0.0
    };
    LayerNs {
        sched: n(c.events) * sched_event,
        link: n(c.pkts) * link_pkt,
        tcp: n(c.pkts) * tcp_pkt,
        rx: n(c.rx_offloaded) * r.rx_inseq.ns + n(c.rx_pkts - c.rx_offloaded) * r.rx_resync.ns,
        tx: n(c.tx_pkts) * r.tx.ns + n(c.tx_recoveries) * r.tx_recovery.ns,
        nic: n(c.rx_pkts + c.tx_pkts) * nic_self + n(c.cache_misses) * nic_miss_extra,
        // The Toeplitz hash runs once per steered flow, at connect.
        rss: 0.0,
        // Every record is framed once and consumed once.
        ktls: n(records) * r.ktls_tx.ns
            + n(c.rec_full) * r.ktls_rx_offloaded.ns
            + n(c.rec_partial + c.rec_none) * r.ktls_rx_sw.ns,
        // Per read: the initiator/controller exchange, the controller's
        // parse of the command, and the two small capsules encoded.
        nvme: n(c.nvme_reads) * (r.nvme_read.ns + r.nvme_parser.ns + 2.0 * r.nvme_encode.ns),
        crypto: crypto_bytes * (r.seal_cpb + r.open_cpb) / NOMINAL_HZ * 1e9,
    }
}

/// Reports the replay timings and the stack shares.
pub fn report(m: &mut Metrics, b: &Bench, w: &Window, r: &Replay) {
    m.set("sim.sched.ns_per_event_d64", r.sched_d64.ns);
    m.set("sim.sched.ns_per_event_d4096", r.sched_d4096.ns);
    m.set("sim.sched.allocs_per_event", r.sched_d4096.allocs);
    m.set("sim.link.ns_per_pkt_clean", r.link_clean.ns);
    m.set("sim.link.ns_per_pkt_impaired", r.link_impaired.ns);
    m.set("tcp.ns_per_segment", r.tcp.ns);
    m.set("tcp.ns_per_segment_lossy", r.tcp_lossy.ns);
    m.set("tcp.allocs_per_segment", r.tcp.allocs);
    m.set("core.rx.ns_per_pkt_inseq", r.rx_inseq.ns);
    m.set("core.rx.ns_per_pkt_resync", r.rx_resync.ns);
    m.set("core.rx.allocs_per_pkt", r.rx_inseq.allocs);
    m.set("core.tx.ns_per_pkt", r.tx.ns);
    m.set("core.tx.ns_per_recovery", r.tx_recovery.ns);
    m.set("core.tx.allocs_per_pkt", r.tx.allocs);
    m.set("core.nic.ns_per_rx_pkt_hit", r.nic_rx_hit.ns);
    m.set("core.nic.ns_per_rx_pkt_miss", r.nic_rx_miss.ns);
    m.set("core.rss.ns_per_hash", r.rss_hash.ns);
    m.set("tls.ktls.ns_per_record_tx", r.ktls_tx.ns);
    m.set(
        "tls.ktls.ns_per_record_rx_offloaded",
        r.ktls_rx_offloaded.ns,
    );
    m.set("tls.ktls.ns_per_record_rx_sw", r.ktls_rx_sw.ns);
    m.set("nvme.parser.ns_per_pdu", r.nvme_parser.ns);
    m.set("nvme.pdu.encode_ns", r.nvme_encode.ns);
    m.set("nvme.host.ns_per_read", r.nvme_read.ns);
    m.set("crypto.gcm.seal_cpb", r.seal_cpb);
    m.set("crypto.gcm.open_cpb", r.open_cpb);
    m.set("crypto.crc32c.cpb", r.crc_cpb);

    let ns = price(b, w, r);
    let wall = w.wall_ns().max(1.0);
    let share = |x: f64| 100.0 * x / wall;
    m.set("sim.sched.share_pct", share(ns.sched));
    m.set("sim.link.share_pct", share(ns.link));
    m.set("tcp.share_pct", share(ns.tcp));
    m.set("core.rx.share_pct", share(ns.rx));
    m.set("core.tx.share_pct", share(ns.tx));
    m.set("core.nic.share_pct", share(ns.nic));
    m.set("core.rss.share_pct", share(ns.rss));
    m.set("tls.ktls.share_pct", share(ns.ktls));
    m.set("nvme.share_pct", share(ns.nvme));
    m.set("crypto.share_pct", share(ns.crypto));
    m.set("stack.runtime.unattributed_pct", 100.0 - share(ns.total()));
}

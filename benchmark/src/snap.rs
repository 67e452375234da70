//! In-situ counters: one snapshot of every statistic the program exposes
//! through `World`'s public accessors, summed over the workload's hosts,
//! links and connection endpoints. Two snapshots bracket a measured
//! window; their difference is exact and repeats for a fixed seed.

use ano_stack::prelude::*;

use crate::workloads::Bench;

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Monotonic counters, all `u64`, so a window is `after - before`
        /// and two runs compare with `==`.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Snap { $(pub $field: u64,)* }

        impl Snap {
            /// Field-wise `self - earlier`.
            pub fn since(&self, earlier: &Snap) -> Snap {
                Snap { $($field: self.$field - earlier.$field,)* }
            }

            /// Names of the fields on which `self` and `other` differ.
            pub fn diff(&self, other: &Snap) -> Vec<&'static str> {
                let mut out = Vec::new();
                $(if self.$field != other.$field { out.push(stringify!($field)); })*
                out
            }
        }
    };
}

counters! {
    // sim.sched / sim.link
    events, pkts, pkts_lost, pkts_reordered, wire_bytes,
    // tcp (send side of every endpoint)
    tcp_segments, tcp_retransmits, tcp_timeouts, tcp_fast_retransmits,
    // core.rx
    rx_pkts, rx_offloaded, rx_retransmit_bypass, rx_boundary_resyncs,
    rx_resync_requests, rx_resync_ok, rx_desyncs,
    // core.tx
    tx_pkts, tx_offloaded, tx_recoveries, tx_replay_bytes,
    // core.nic (all hosts)
    cache_hits, cache_misses, pcie_ctx_bytes, queue_crossings,
    // core.rss
    migrations,
    // tls.ktls (every endpoint / the offloading host's endpoints)
    rec_full, rec_partial, rec_none, alerts,
    recv_full, recv_partial, recv_none,
    // nvme (initiators)
    nvme_reads, nvme_completions, nvme_placed, nvme_copied,
    nvme_crc_sw, nvme_crc_skipped, nvme_crc_failures,
    // application
    delivered_bytes, offload_host_cycles,
}

impl Snap {
    /// Reads every counter of `b`'s world.
    pub fn take(b: &Bench) -> Snap {
        let w: &World = &b.sim;
        let mut s = Snap {
            events: w.events_dispatched(),
            ..Snap::default()
        };
        for &(src, dst) in &b.links {
            let l = w.link_stats_between(src, dst);
            s.pkts += l.offered;
            s.pkts_lost += l.lost;
            s.pkts_reordered += l.reordered;
            s.wire_bytes += l.bytes;
        }
        for &(host, conn) in &b.endpoints {
            if let Some(t) = w.tcp_tx_stats(host, conn) {
                s.tcp_segments += t.segments_sent;
                s.tcp_retransmits += t.retransmits;
                s.tcp_timeouts += t.timeouts;
                s.tcp_fast_retransmits += t.fast_retransmits;
            }
            if let Some(r) = w.rx_engine_stats(host, conn) {
                s.rx_pkts += r.pkts;
                s.rx_offloaded += r.pkts_offloaded;
                s.rx_retransmit_bypass += r.retransmit_bypass;
                s.rx_boundary_resyncs += r.boundary_resyncs;
                s.rx_resync_requests += r.resync_requests;
                s.rx_resync_ok += r.resync_ok;
                s.rx_desyncs += r.desyncs;
            }
            if let Some(t) = w.tx_engine_stats(host, conn) {
                s.tx_pkts += t.pkts;
                s.tx_offloaded += t.pkts_offloaded;
                s.tx_recoveries += t.recoveries;
                s.tx_replay_bytes += t.replay_bytes;
            }
            if let Some(k) = w.ktls_rx_stats(host, conn) {
                s.rec_full += k.class.full;
                s.rec_partial += k.class.partial;
                s.rec_none += k.class.none;
                s.alerts += k.alerts;
            }
            if let Some(n) = w.nvme_host_stats(host, conn) {
                s.nvme_reads += n.reads;
                s.nvme_completions += n.completions;
                s.nvme_placed += n.bytes_placed;
                s.nvme_copied += n.bytes_copied;
                s.nvme_crc_sw += n.crc_software;
                s.nvme_crc_skipped += n.crc_skipped;
                s.nvme_crc_failures += n.crc_failures;
            }
        }
        for &(host, conn) in &b.receivers {
            if let Some(k) = w.ktls_rx_stats(host, conn) {
                s.recv_full += k.class.full;
                s.recv_partial += k.class.partial;
                s.recv_none += k.class.none;
            }
        }
        for host in 0..w.num_hosts() {
            let n = w.nic_counters(host);
            s.cache_hits += n.cache_hits;
            s.cache_misses += n.cache_misses;
            s.pcie_ctx_bytes += n.pcie_ctx_bytes;
            s.queue_crossings += n.queue_crossings;
            s.migrations += w.migrations(host);
        }
        for &(host, conn) in &b.sinks {
            s.delivered_bytes += w.delivered_bytes(host, conn);
        }
        for &host in &b.offload_hosts {
            s.offload_host_cycles += w.cpu_busy_cycles(host);
        }
        s
    }
}

/// `100 × part / whole`, or `empty` when nothing was counted.
pub fn pct(part: u64, whole: u64, empty: f64) -> f64 {
    if whole == 0 {
        empty
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_and_diff_work_field_by_field() {
        let a = Snap {
            events: 10,
            pkts: 4,
            ..Snap::default()
        };
        let b = Snap {
            events: 25,
            pkts: 4,
            alerts: 1,
            ..Snap::default()
        };
        let d = b.since(&a);
        assert_eq!((d.events, d.pkts, d.alerts), (15, 0, 1));
        assert_eq!(a.diff(&b), vec!["events", "alerts"]);
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn ratios_handle_empty_denominators() {
        assert_eq!(pct(1, 4, 100.0), 25.0);
        assert_eq!(pct(0, 0, 100.0), 100.0);
        assert_eq!(per(6, 3), 2.0);
        assert_eq!(per(6, 0), 0.0);
    }
}

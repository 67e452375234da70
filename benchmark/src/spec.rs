//! The benchmark's vocabulary: workload names and every metric name with
//! its unit. `BENCHMARK.json` at the repo root carries the same names plus
//! direction and bound; the `--quick` smoke test holds the two together.

/// The five workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] = [
    "stream_1flow",
    "fleet_rss_64flow",
    "lossy_resync_8flow",
    "rr_nvme_tls_c1",
    "stream_real_4flow",
];

/// End-to-end metrics `(name, unit)`, reported by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_ns_per_pkt", "ns"),
    ("sim_mb_per_wall_s", "MB/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_goodput_gbps", "Gbit/s"),
    ("sim_cpu_cycles_per_kib", "cycles/KiB"),
    ("sim_offload_full_pct", "%"),
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p99_us", "us"),
];

/// Per-layer metrics `(name, unit)`, reported by `--trace 1`. In-situ
/// counts first within each layer, then replay timings, then the layer's
/// share of the ns/packet stack.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.sched.events_per_pkt", "1/pkt"),
    ("sim.sched.ns_per_event_d64", "ns"),
    ("sim.sched.ns_per_event_d4096", "ns"),
    ("sim.sched.allocs_per_event", "count"),
    ("sim.sched.share_pct", "%"),
    ("sim.link.lost_pct", "%"),
    ("sim.link.reordered_pct", "%"),
    ("sim.link.wire_bytes_per_pkt", "B/pkt"),
    ("sim.link.ns_per_pkt_clean", "ns"),
    ("sim.link.ns_per_pkt_impaired", "ns"),
    ("sim.link.share_pct", "%"),
    ("tcp.retransmit_pct", "%"),
    ("tcp.fast_retransmits", "count"),
    ("tcp.timeouts", "count"),
    ("tcp.segments_per_pkt", "1/pkt"),
    ("tcp.ns_per_segment", "ns"),
    ("tcp.ns_per_segment_lossy", "ns"),
    ("tcp.allocs_per_segment", "count"),
    ("tcp.share_pct", "%"),
    ("core.rx.offloaded_pkt_pct", "%"),
    ("core.rx.resync_requests", "count"),
    ("core.rx.resync_ok_pct", "%"),
    ("core.rx.boundary_resyncs", "count"),
    ("core.rx.retransmit_bypass", "count"),
    ("core.rx.desyncs", "count"),
    ("core.rx.ns_per_pkt_inseq", "ns"),
    ("core.rx.ns_per_pkt_resync", "ns"),
    ("core.rx.allocs_per_pkt", "count"),
    ("core.rx.share_pct", "%"),
    ("core.tx.recoveries", "count"),
    ("core.tx.replay_bytes_per_pkt", "B/pkt"),
    ("core.tx.offloaded_pkt_pct", "%"),
    ("core.tx.ns_per_pkt", "ns"),
    ("core.tx.ns_per_recovery", "ns"),
    ("core.tx.allocs_per_pkt", "count"),
    ("core.tx.share_pct", "%"),
    ("core.nic.cache_hit_pct", "%"),
    ("core.nic.pcie_ctx_bytes_per_pkt", "B/pkt"),
    ("core.nic.queue_crossings", "count"),
    ("core.nic.ns_per_rx_pkt_hit", "ns"),
    ("core.nic.ns_per_rx_pkt_miss", "ns"),
    ("core.nic.share_pct", "%"),
    ("core.rss.queue_imbalance", "ratio"),
    ("core.rss.busy_core_spread", "ratio"),
    ("core.rss.migrations", "count"),
    ("core.rss.ns_per_hash", "ns"),
    ("core.rss.share_pct", "%"),
    ("tls.ktls.records_full_pct", "%"),
    ("tls.ktls.records_partial_pct", "%"),
    ("tls.ktls.records_none_pct", "%"),
    ("tls.ktls.alerts", "count"),
    ("tls.ktls.records_per_pkt", "1/pkt"),
    ("tls.ktls.ns_per_record_tx", "ns"),
    ("tls.ktls.ns_per_record_rx_offloaded", "ns"),
    ("tls.ktls.ns_per_record_rx_sw", "ns"),
    ("tls.ktls.share_pct", "%"),
    ("nvme.reads", "count"),
    ("nvme.bytes_placed_pct", "%"),
    ("nvme.crc_skipped_pct", "%"),
    ("nvme.crc_failures", "count"),
    ("nvme.parser.ns_per_pdu", "ns"),
    ("nvme.pdu.encode_ns", "ns"),
    ("nvme.host.ns_per_read", "ns"),
    ("nvme.share_pct", "%"),
    ("crypto.gcm.seal_cpb", "cycles/B"),
    ("crypto.gcm.open_cpb", "cycles/B"),
    ("crypto.crc32c.cpb", "cycles/B"),
    ("crypto.share_pct", "%"),
    ("stack.allocs_per_pkt", "count"),
    ("stack.alloc_bytes_per_pkt", "B/pkt"),
    ("stack.connect_us_per_conn", "us"),
    ("stack.runtime.unattributed_pct", "%"),
    ("trace.dropped", "count"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values in emission order; units come from the tables
/// above, so a name outside the vocabulary cannot be reported.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both tables, a name reported twice,
    /// or a value JSON cannot carry.
    pub fn set(&mut self, name: &str, value: f64) {
        let (known, _) = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in spec.rs"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.rows.iter().all(|(n, _)| *n != known),
            "metric {name} reported twice"
        );
        self.rows.push((known, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `(name, value, unit)` rows in emission order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.rows
            .iter()
            .map(|&(n, v)| (n, v, lookup(n).expect("checked in set").1))
    }

    /// Names of `table` that were not reported.
    pub fn missing(&self, table: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.get(n).is_none())
            .collect()
    }
}

fn lookup(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charset_ok(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(charset_ok(name, "_.-", 64), "name {name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(charset_ok(unit, "_/%.-", 16), "unit {unit} of {name}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        for w in WORKLOADS {
            assert!(charset_ok(w, "_.-", 64) && seen.insert(w), "workload {w}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn metrics_reject_unknown_and_duplicate_names() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        assert_eq!(m.get("setup_s"), Some(0.25));
        assert_eq!(m.rows().next(), Some(("setup_s", 0.25, "s")));
        assert_eq!(m.missing(END_TO_END).len(), END_TO_END.len() - 1);
        assert!(std::panic::catch_unwind(|| Metrics::default().set("nope", 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| {
            let mut m = Metrics::default();
            m.set("setup_s", 1.0);
            m.set("setup_s", 2.0);
        })
        .is_err());
    }
}

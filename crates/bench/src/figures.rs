//! One function per paper table/figure: runs the experiment(s) and renders
//! the same rows/series the paper reports. Returned strings are printed by
//! the `figures` binary and captured into EXPERIMENTS.md.

use std::fmt::Write as _;

use ano_accel::{table1_row, Cipher};
use ano_sim::cost::CostModel;
use ano_sim::link::Impairments;
use ano_sim::time::SimDuration;

use crate::data;
use crate::runners::*;

fn header(id: &str, what: &str) -> String {
    format!("\n=== {id}: {what} ===\n")
}

/// The figure's closing line: TCP loss recovery summed over its runs on
/// unimpaired links, where any retransmission is the simulator's own doing.
fn clean_link(out: &mut String, tcp: TcpRecovery) {
    writeln!(out, "clean-link TCP: {} retransmits, {} RTOs", tcp.retransmits, tcp.timeouts).unwrap();
}

/// Fig. 2 — L5P overheads: cycles per message and the offloadable fraction.
pub fn fig02() -> String {
    let m = CostModel::calibrated();
    let mut out = header("Fig 2", "L5P overheads (cycles per message, offloadable %)");

    // NVMe-TCP, 256 KiB messages, DRAM-resident working set (like Fig. 2's
    // high-parallelism fio setup).
    let size = 256 * 1024;
    let pkts = (size as u64).div_ceil(1448);
    let other = m.per_req_nvme
        + pkts * m.per_pkt_nvme_rx
        + CostModel::bytes_cycles(m.stack_cpb, size);
    let crc = m.crc_cycles(size);
    let copy = m.copy_cycles(size, 64 << 20);
    let write_total = other + crc; // write: CRC outgoing, no rx copy
    let read_total = other + crc + copy; // read: verify CRC + copy
    writeln!(out, "NVMe-TCP write: total={:>7} cycles  offloadable(crc)     ={:>7} ({:>4.1}%)",
        write_total, crc, 100.0 * crc as f64 / write_total as f64).unwrap();
    writeln!(out, "NVMe-TCP read : total={:>7} cycles  offloadable(copy+crc)={:>7} ({:>4.1}%)",
        read_total, crc + copy, 100.0 * (crc + copy) as f64 / read_total as f64).unwrap();

    // TLS, 16 KiB records.
    let rec = 16 * 1024;
    let rpkts = 12u64;
    let tx_other = m.per_record_tx + rpkts * m.per_pkt_tx + CostModel::bytes_cycles(m.stack_cpb, rec);
    let rx_other = m.per_record_rx + rpkts * m.per_pkt_rx + CostModel::bytes_cycles(m.stack_cpb, rec);
    let enc = m.encrypt_cycles(rec);
    let dec = m.decrypt_cycles(rec);
    writeln!(out, "TLS transmit  : total={:>7} cycles  offloadable(encrypt) ={:>7} ({:>4.1}%)",
        tx_other + enc, enc, 100.0 * enc as f64 / (tx_other + enc) as f64).unwrap();
    writeln!(out, "TLS receive   : total={:>7} cycles  offloadable(decrypt) ={:>7} ({:>4.1}%)",
        rx_other + dec, dec, 100.0 * dec as f64 / (rx_other + dec) as f64).unwrap();
    writeln!(out, "(paper: write 46%, read 49%, tx 74%, rx 60%)").unwrap();
    out
}

/// Table 1 — QAT (off-CPU) vs AES-NI (on-CPU) encryption bandwidth.
pub fn tab01() -> String {
    let mut out = header("Table 1", "QAT vs AES-NI bandwidth, MB/s, 16 KiB blocks, 1 core");
    writeln!(out, "{:<28} {:>8} {:>9} {:>9}", "cipher", "QAT 1", "QAT 128", "AES-NI 1").unwrap();
    for (name, cipher) in [
        ("AES-128-CBC-HMAC-SHA1", Cipher::Aes128CbcHmacSha1),
        ("AES-128-GCM", Cipher::Aes128Gcm),
    ] {
        let (q1, q128, aesni) = table1_row(cipher, 16 * 1024);
        writeln!(out, "{name:<28} {q1:>8.0} {q128:>9.0} {aesni:>9.0}").unwrap();
    }
    writeln!(out, "(paper: 249/3144/695 and 249/3109/3150)").unwrap();
    out
}

/// Fig. 3 — Linux TCP/IP LoC per year (data reproduction).
pub fn fig03() -> String {
    let mut out = header("Fig 3", "Linux TCP/IP stack LoC per year (data reproduction)");
    writeln!(out, "{:>6} {:>10} {:>10} {:>7}", "year", "modified", "total", "churn%").unwrap();
    for y in data::LINUX_TCPIP_LOC {
        writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>6.1}%",
            y.year,
            y.modified,
            y.total,
            100.0 * y.modified as f64 / y.total as f64
        )
        .unwrap();
    }
    out
}

/// Fig. 4 / Table 2 — ConnectX prices vs capability (data reproduction).
pub fn fig04() -> String {
    let mut out = header("Fig 4", "ConnectX NIC prices (March 2020 list, data reproduction)");
    writeln!(out, "{:>4} {:>6} {:>6} {:>8}", "gen", "Gbps", "ports", "USD").unwrap();
    for p in data::CONNECTX_PRICES {
        writeln!(out, "{:>4} {:>6} {:>6} {:>8.0}", p.generation, p.speed_gbps, p.ports, p.usd).unwrap();
    }
    writeln!(out, "\nTable 2 — offloads added per generation:").unwrap();
    for (gen, year, what) in data::GENERATION_OFFLOADS {
        writeln!(out, "  gen {gen} ({year}): {what}").unwrap();
    }
    out
}

/// Fig. 10 — fio cycles per random read vs I/O depth.
pub fn fig10(quick: bool) -> String {
    let mut out = header("Fig 10", "NVMe-TCP/fio cycles per random read (1 core)");
    let depths: &[usize] = if quick { &[1, 64, 1024] } else { &[1, 4, 16, 64, 256, 1024, 4096] };
    let mut tcp = TcpRecovery::default();
    for size in [4 * 1024u32, 256 * 1024] {
        writeln!(out, "-- {} KiB reads --", size / 1024).unwrap();
        writeln!(
            out,
            "{:>6} {:>10} {:>9} {:>9} {:>10} {:>10} {:>7}",
            "depth", "cycles/rq", "crc", "copy", "other", "idle", "off%"
        )
        .unwrap();
        for &depth in depths {
            // Deep queues complete lumpily; lengthen the window so the
            // per-request normalization is not dominated by in-flight work.
            let scale = (depth as u64 / 64).clamp(1, 16);
            let r = run_fio(&FioCfg {
                size,
                depth,
                offload: false,
                window: SimDuration::from_nanos(quick_window(quick).as_nanos() * scale),
                seed: 10 + depth as u64,
            });
            tcp.add(r.tcp);
            writeln!(
                out,
                "{:>6} {:>10.0} {:>9.0} {:>9.0} {:>10.0} {:>10.0} {:>6.1}%",
                depth,
                r.busy_per_req,
                r.crc_per_req,
                r.copy_per_req,
                r.other_per_req,
                r.idle_per_req,
                r.offloadable_pct
            )
            .unwrap();
        }
    }
    writeln!(out, "(paper: 4KiB 2-8%; 256KiB 25% LLC-resident, ~55% once DRAM-bound)").unwrap();
    clean_link(&mut out, tcp);
    out
}

/// Fig. 11 + §6.1 — kTLS/iperf cycles per record and offload speedups.
pub fn fig11(quick: bool) -> String {
    let mut out = header("Fig 11", "kTLS/iperf per-record cycles and §6.1 offload speedups");
    let m = CostModel::calibrated();
    let sizes: &[usize] = if quick { &[2048, 16384] } else { &[2048, 4096, 8192, 16384] };
    let mut tcp = TcpRecovery::default();
    writeln!(
        out,
        "{:>9} {:>12} {:>8} {:>12} {:>8}",
        "record", "tx cyc/rec", "crypto%", "rx cyc/rec", "crypto%"
    )
    .unwrap();
    for &rec in sizes {
        let r = run_iperf(&IperfCfg {
            variant: Variant::TlsSw,
            conns: 1,
            message: rec,
            cores: [1, 1],
            window: quick_window(quick),
            ..Default::default()
        });
        tcp.add(r.tcp);
        let enc = m.encrypt_cycles(rec) as f64;
        let dec = m.decrypt_cycles(rec) as f64;
        writeln!(
            out,
            "{:>8}K {:>12.0} {:>7.0}% {:>12.0} {:>7.0}%",
            rec / 1024,
            r.tx_cycles_per_record,
            100.0 * enc / r.tx_cycles_per_record.max(1.0),
            r.rx_cycles_per_record,
            100.0 * dec / r.rx_cycles_per_record.max(1.0)
        )
        .unwrap();
    }

    // §6.1: single-core throughput ratios (tx-bound then rx-bound).
    let base_tx = run_iperf(&IperfCfg {
        variant: Variant::TlsSw,
        conns: 4,
        message: 16384,
        cores: [1, 8],
        window: quick_window(quick),
        ..Default::default()
    });
    let off_tx = run_iperf(&IperfCfg {
        variant: Variant::TlsOffloadZc,
        conns: 4,
        message: 16384,
        cores: [1, 8],
        window: quick_window(quick),
        ..Default::default()
    });
    let base_rx = run_iperf(&IperfCfg {
        variant: Variant::TlsSw,
        conns: 4,
        message: 16384,
        cores: [8, 1],
        window: quick_window(quick),
        ..Default::default()
    });
    let off_rx = run_iperf(&IperfCfg {
        variant: Variant::TlsOffloadZc,
        conns: 4,
        message: 16384,
        cores: [8, 1],
        window: quick_window(quick),
        ..Default::default()
    });
    writeln!(
        out,
        "single-core tx: {:.1} -> {:.1} Gbps ({:.1}x; paper 3.3x)",
        base_tx.gbps,
        off_tx.gbps,
        off_tx.gbps / base_tx.gbps.max(0.001)
    )
    .unwrap();
    writeln!(
        out,
        "single-core rx: {:.1} -> {:.1} Gbps ({:.1}x; paper 2.2x)",
        base_rx.gbps,
        off_rx.gbps,
        off_rx.gbps / base_rx.gbps.max(0.001)
    )
    .unwrap();
    writeln!(out, "(paper Fig 11: 16K records ~40K tx / ~47K rx cycles, 70%/60% crypto)").unwrap();
    for r in [&base_tx, &off_tx, &base_rx, &off_rx] {
        tcp.add(r.tcp);
    }
    clean_link(&mut out, tcp);
    out
}

fn sizes_for(quick: bool) -> &'static [usize] {
    if quick {
        &[16 * 1024, 256 * 1024]
    } else {
        &[4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024]
    }
}

/// The nginx-C1-shaped table Fig. 12, 14 and 15 share: per size, Gbit/s
/// at 1 and 8 cores, baseline vs offload, then busy cores at 8. `cfg`
/// builds the run for `(size, cores, offload)`. Returns the runs' TCP loss
/// recovery.
fn c1_table(out: &mut String, first: &str, quick: bool, cfg: impl Fn(usize, usize, bool) -> RrCfg) -> TcpRecovery {
    let mut tcp = TcpRecovery::default();
    writeln!(
        out,
        "{:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>7} {:>7}",
        first, "1c base", "1c off", "8c base", "8c off", "bc base", "bc off"
    )
    .unwrap();
    for &size in sizes_for(quick) {
        let mut row = Vec::new();
        let mut busy = Vec::new();
        for cores in [1usize, 8] {
            for offload in [false, true] {
                let r = run_rr(&cfg(size, cores, offload));
                tcp.add(r.tcp);
                row.push(r.gbps);
                if cores == 8 {
                    busy.push(r.busy_cores);
                }
            }
        }
        writeln!(
            out,
            "{:>6}Ki | {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>7.2} {:>7.2}",
            size / 1024,
            row[0],
            row[1],
            row[2],
            row[3],
            busy[0],
            busy[1]
        )
        .unwrap();
    }
    tcp
}

/// The storage and front end of an NVMe-TLS run: software TLS over plain
/// NVMe-TCP, or both offloaded.
fn nvme_tls(offload: bool) -> (Variant, Option<(NvmeVariant, bool)>) {
    if offload {
        (Variant::TlsOffloadZc, Some((NvmeVariant::Offload, true)))
    } else {
        (Variant::TlsSw, Some((NvmeVariant::Baseline, true)))
    }
}

/// Fig. 12 — nginx C1 with the NVMe-TCP offload.
pub fn fig12(quick: bool) -> String {
    let mut out = header("Fig 12", "nginx C1 (storage-bound) with NVMe-TCP offload");
    let tcp = c1_table(&mut out, "file", quick, |size, cores, offload| RrCfg {
        front: Variant::Http,
        storage: Some((if offload { NvmeVariant::Offload } else { NvmeVariant::Baseline }, false)),
        conns: if quick { 32 } else { 128 },
        response: size,
        cores: [cores, 12],
        window: quick_window(quick),
        ..Default::default()
    });
    writeln!(out, "(paper: 1-core gains 4%-44% with size; 8-core drive-bound ~21.4 Gbps, CPU saved up to 27%)").unwrap();
    clean_link(&mut out, tcp);
    out
}

/// Fig. 13 — nginx C2 with the TLS offload variants.
pub fn fig13(quick: bool) -> String {
    let mut out = header("Fig 13", "nginx C2 (page cache) with TLS offload variants");
    let variants = [Variant::TlsSw, Variant::TlsOffload, Variant::TlsOffloadZc, Variant::Http];
    let mut tcp = TcpRecovery::default();
    for cores in [1usize, 8] {
        writeln!(out, "-- {cores} core(s): Gbps (busy cores) --").unwrap();
        write!(out, "{:>8} |", "file").unwrap();
        for v in variants {
            write!(out, " {:>20}", v.label()).unwrap();
        }
        writeln!(out).unwrap();
        for &size in sizes_for(quick) {
            write!(out, "{:>6}Ki |", size / 1024).unwrap();
            for v in variants {
                let r = run_rr(&RrCfg {
                    front: v,
                    storage: None,
                    conns: if quick { 32 } else { 128 },
                    response: size,
                    cores: [cores, 16],
                    window: quick_window(quick),
                    ..Default::default()
                });
                tcp.add(r.tcp);
                write!(out, " {:>12.2} ({:>4.2})", r.gbps, r.busy_cores).unwrap();
            }
            writeln!(out).unwrap();
        }
    }
    writeln!(out, "(paper: 1-core offload+zc up to 2.7x https; 8-core line-rate, 88% higher at 256Ki)").unwrap();
    clean_link(&mut out, tcp);
    out
}

/// Fig. 14 — nginx C1 with the combined NVMe-TLS offload.
pub fn fig14(quick: bool) -> String {
    let mut out = header("Fig 14", "nginx C1 with the combined NVMe-TLS offload");
    let tcp = c1_table(&mut out, "file", quick, |size, cores, offload| {
        let (front, storage) = nvme_tls(offload);
        RrCfg {
            front,
            storage,
            conns: if quick { 32 } else { 128 },
            response: size,
            cores: [cores, 12],
            window: quick_window(quick),
            ..Default::default()
        }
    });
    writeln!(out, "(paper: 1-core up to 2.8x; 8-core drive-bound with up to 41% CPU saved)").unwrap();
    clean_link(&mut out, tcp);
    out
}

/// Fig. 15 — Redis-on-Flash with the combined NVMe-TLS offload.
pub fn fig15(quick: bool) -> String {
    let mut out = header("Fig 15", "Redis-on-Flash (OffloadDB) with NVMe-TLS offload");
    let tcp = c1_table(&mut out, "value", quick, |size, cores, offload| {
        let (front, storage) = nvme_tls(offload);
        RrCfg {
            front,
            storage,
            conns: 8 * cores, // 8 connections per instance, instance per core
            request: 64,
            response: size,
            cores: [cores, 12],
            window: quick_window(quick),
            ..Default::default()
        }
    });
    writeln!(out, "(paper: 1-core up to 2.3x; 8-core 12-26% higher, up to 48% CPU saved)").unwrap();
    clean_link(&mut out, tcp);
    out
}

/// Table 4 — single synchronous GET latency with cumulative offloads.
pub fn tab04(quick: bool) -> String {
    let mut out = header("Table 4", "mean GET latency (µs), offloads added cumulatively");
    writeln!(
        out,
        "{:>8} {:>9} {:>9} {:>9} {:>9}",
        "size", "base", "+TLS", "+copy", "+CRC"
    )
    .unwrap();
    let reqs = if quick { 40 } else { 200 };
    let mut tcp = TcpRecovery::default();
    for &size in sizes_for(quick) {
        let combos = [
            (false, false, false),
            (true, false, false),
            (true, true, false),
            (true, true, true),
        ];
        let vals: Vec<f64> = combos
            .iter()
            .map(|&(tls, copy, crc)| {
                let r = run_latency(&LatencyCfg {
                    response: size,
                    tls_offload: tls,
                    copy_offload: copy,
                    crc_offload: crc,
                    requests: reqs,
                    seed: 99,
                });
                tcp.add(r.tcp);
                r.latency_us
            })
            .collect();
        writeln!(
            out,
            "{:>6}Ki {:>9.0} {:>8.0} ({:.2}) {:>4.0} ({:.2}) {:>4.0} ({:.2})",
            size / 1024,
            vals[0],
            vals[1],
            vals[1] / vals[0],
            vals[2],
            vals[2] / vals[0],
            vals[3],
            vals[3] / vals[0]
        )
        .unwrap();
    }
    writeln!(out, "(paper: 256K 1321 -> 1056 (0.80) -> 980 (0.74) -> 941 (0.71))").unwrap();
    clean_link(&mut out, tcp);
    out
}

fn loss_points(quick: bool) -> &'static [f64] {
    if quick {
        &[0.0, 0.02]
    } else {
        &[0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    }
}

/// Fig. 16 — sender-side loss sweep: throughput + PCIe recovery overhead.
pub fn fig16(quick: bool) -> String {
    let mut out = header("Fig 16", "loss at sender: 1-core Gbps and PCIe recovery overhead");
    writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>9} {:>10}",
        "loss%", "tcp", "offload", "tls", "pcie-ovh%"
    )
    .unwrap();
    let mut clean = TcpRecovery::default();
    for &p in loss_points(quick) {
        let mk = |variant| {
            run_iperf(&IperfCfg {
                variant,
                conns: 16,
                message: 16 * 1024,
                cores: [1, 12],
                impair: Impairments::loss(p),
                window: quick_window(quick),
                ..Default::default()
            })
        };
        let tcp = mk(Variant::Http);
        let off = mk(Variant::TlsOffloadZc);
        let tls = mk(Variant::TlsSw);
        if p == 0.0 {
            for r in [&tcp, &off, &tls] {
                clean.add(r.tcp);
            }
        }
        writeln!(
            out,
            "{:>6.1} {:>9.2} {:>9.2} {:>9.2} {:>9.3}%",
            p * 100.0,
            tcp.gbps,
            off.gbps,
            tls.gbps,
            off.pcie_overhead_pct
        )
        .unwrap();
    }
    writeln!(out, "(paper: offload within 8-11% of TCP; >=33% above software TLS; PCIe <=2.5%)").unwrap();
    clean_link(&mut out, clean);
    out
}

fn rx_sweep(title: String, quick: bool, imp: fn(f64) -> Impairments, note: &str) -> String {
    let mut out = title;
    writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>9} | {:>6} {:>8} {:>6}",
        "rate%", "tcp", "offload", "tls", "full%", "partial%", "none%"
    )
    .unwrap();
    let mut clean = TcpRecovery::default();
    for &p in loss_points(quick) {
        let mk = |variant| {
            run_iperf(&IperfCfg {
                variant,
                conns: 16,
                message: 16 * 1024,
                cores: [12, 1],
                impair: imp(p),
                window: quick_window(quick),
                ..Default::default()
            })
        };
        let tcp = mk(Variant::Http);
        let off = mk(Variant::TlsOffloadZc);
        let tls = mk(Variant::TlsSw);
        if p == 0.0 {
            for r in [&tcp, &off, &tls] {
                clean.add(r.tcp);
            }
        }
        let t = off.class.total().max(1) as f64;
        writeln!(
            out,
            "{:>6.1} {:>9.2} {:>9.2} {:>9.2} | {:>5.1}% {:>7.1}% {:>5.1}%",
            p * 100.0,
            tcp.gbps,
            off.gbps,
            tls.gbps,
            100.0 * off.class.full as f64 / t,
            100.0 * off.class.partial as f64 / t,
            100.0 * off.class.none as f64 / t
        )
        .unwrap();
    }
    writeln!(out, "{note}").unwrap();
    clean_link(&mut out, clean);
    out
}

/// Fig. 17 — receiver-side loss sweep with record classification.
pub fn fig17(quick: bool) -> String {
    rx_sweep(
        header("Fig 17", "loss at receiver: 1-core Gbps and record classification"),
        quick,
        Impairments::loss,
        "(paper: >=19% above software TLS at 5% loss; >half the records still fully offloaded)",
    )
}

/// Fig. 18 — receiver-side reordering sweep with record classification.
pub fn fig18(quick: bool) -> String {
    rx_sweep(
        header("Fig 18", "reordering at receiver: 1-core Gbps and record classification"),
        quick,
        Impairments::reorder,
        "(paper: 9% above software TLS at 2%; at 5% performance matches software TLS)",
    )
}

/// Fig. 19 — connection-count scalability against the NIC context cache.
pub fn fig19(quick: bool) -> String {
    let mut out = header(
        "Fig 19",
        "scalability vs NIC context cache (cache capacity scaled 1:20 to 1024 contexts)",
    );
    let conn_counts: &[usize] = if quick { &[64, 1024] } else { &[64, 256, 1024, 4096] };
    let mut tcp = TcpRecovery::default();
    writeln!(
        out,
        "{:>7} {:>12} {:>22} {:>12} {:>10}",
        "conns", "https Gbps", "offload+zc Gbps(hit%)", "http Gbps", "busy(off)"
    )
    .unwrap();
    for &conns in conn_counts {
        let mk = |variant| {
            run_rr(&RrCfg {
                front: variant,
                storage: None,
                conns,
                response: 256 * 1024,
                cores: [8, 16],
                nic_cache: 1024,
                // Thousands of connections take longer to leave the
                // start-up transient; scale the warm-up accordingly.
                warmup: SimDuration::from_millis(30 * (conns as u64 / 256).clamp(1, 12)),
                window: quick_window(quick),
                ..Default::default()
            })
        };
        let https = mk(Variant::TlsSw);
        let off = mk(Variant::TlsOffloadZc);
        let http = mk(Variant::Http);
        for r in [&https, &off, &http] {
            tcp.add(r.tcp);
        }
        writeln!(
            out,
            "{:>7} {:>12.2} {:>15.2} ({:>4.1}) {:>12.2} {:>10.2}",
            conns, https.gbps, off.gbps, off.cache_hit_pct, http.gbps, off.busy_cores
        )
        .unwrap();
    }
    writeln!(out, "(paper: offload+zc stays within 10% of http and 53-94% above https up to 128K conns)").unwrap();
    clean_link(&mut out, tcp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_figures_render() {
        for s in [fig02(), tab01(), fig03(), fig04()] {
            assert!(s.lines().count() > 3, "{s}");
        }
    }

    #[test]
    fn tab01_shape_matches_paper() {
        let (q1, q128, aesni) = table1_row(Cipher::Aes128CbcHmacSha1, 16 * 1024);
        assert!(q1 < aesni && q128 > aesni);
        let (g1, g128, gni) = table1_row(Cipher::Aes128Gcm, 16 * 1024);
        assert!(g1 < gni / 5.0 && (g128 / gni) > 0.8 && (g128 / gni) < 1.25);
    }

    #[test]
    fn fig11_speedups_match_paper_band() {
        // Quick single-point check of the §6.1 headline ratios.
        let base = run_iperf(&IperfCfg {
            variant: Variant::TlsSw,
            conns: 4,
            message: 16384,
            cores: [1, 8],
            window: SimDuration::from_millis(30),
            ..Default::default()
        });
        let off = run_iperf(&IperfCfg {
            variant: Variant::TlsOffloadZc,
            conns: 4,
            message: 16384,
            cores: [1, 8],
            window: SimDuration::from_millis(30),
            ..Default::default()
        });
        let speedup = off.gbps / base.gbps;
        assert!((2.2..4.5).contains(&speedup), "tx speedup {speedup:.2} (paper 3.3x)");
    }

    #[test]
    fn fig16_offload_tracks_tcp_under_loss() {
        let mk = |variant, loss| {
            run_iperf(&IperfCfg {
                variant,
                conns: 16,
                message: 16 * 1024,
                cores: [1, 12],
                impair: Impairments::loss(loss),
                window: SimDuration::from_millis(30),
                ..Default::default()
            })
        };
        let off = mk(Variant::TlsOffloadZc, 0.02);
        let tls = mk(Variant::TlsSw, 0.02);
        assert!(off.gbps > tls.gbps, "offload beats software TLS under loss");
        assert!(off.pcie_overhead_pct < 5.0, "PCIe overhead small: {}", off.pcie_overhead_pct);
        assert!(off.tcp.retransmits > 0, "loss actually caused retransmissions");
    }
}

/// Ablations (DESIGN.md §6): design choices the paper calls out, each
/// perturbed in isolation.
pub fn ablations(quick: bool) -> String {
    let mut out = header("Ablations", "design-choice sensitivity studies");
    let m = CostModel::calibrated();

    // A1 — NIC context-cache capacity (the §6.5 scaling knob).
    writeln!(out, "-- A1: context-cache capacity (2048 conns, C2, offload+zc) --").unwrap();
    writeln!(out, "{:>9} {:>10} {:>7} {:>7}", "capacity", "Gbps", "hit%", "busy").unwrap();
    let caps: &[usize] = if quick { &[256, 4096] } else { &[256, 1024, 4096, 16384] };
    let mut clean = TcpRecovery::default();
    for &cap in caps {
        let r = run_rr(&RrCfg {
            front: Variant::TlsOffloadZc,
            conns: 2048,
            response: 256 * 1024,
            cores: [8, 16],
            nic_cache: cap,
            warmup: SimDuration::from_millis(120),
            window: quick_window(quick),
            ..Default::default()
        });
        clean.add(r.tcp);
        writeln!(out, "{:>9} {:>10.2} {:>6.1}% {:>7.2}", cap, r.gbps, r.cache_hit_pct, r.busy_cores).unwrap();
    }
    writeln!(out, "(expected: hit rate collapses below ~4096 contexts; throughput does not cliff)").unwrap();
    clean_link(&mut out, clean);

    // A2 — resync confirmation latency under receiver-side loss.
    writeln!(out, "\n-- A2: driver<->L5P resync delay (rx, 2% loss, offload+zc) --").unwrap();
    writeln!(out, "{:>9} {:>10} {:>7} {:>9}", "delay us", "Gbps", "full%", "retransmits").unwrap();
    let delays: &[u64] = if quick { &[5, 100] } else { &[1, 5, 20, 100] };
    for &d in delays {
        let r = run_iperf(&IperfCfg {
            variant: Variant::TlsOffloadZc,
            conns: 16,
            message: 16 * 1024,
            cores: [12, 1],
            impair: Impairments::loss(0.02),
            resync_delay: SimDuration::from_micros(d),
            window: quick_window(quick),
            ..Default::default()
        });
        let t = r.class.total().max(1) as f64;
        writeln!(out, "{:>9} {:>10.2} {:>6.1}% {:>9}", d, r.gbps, 100.0 * r.class.full as f64 / t, r.tcp.retransmits).unwrap();
    }
    writeln!(out, "(expected: slower confirmation -> longer tracking windows -> fewer fully offloaded records)").unwrap();

    // A3 — the §5.2 partial-record fallback penalty (analytic).
    writeln!(out, "\n-- A3: software fallback cost for one 16 KiB record --").unwrap();
    let rec = 16 * 1024usize;
    writeln!(out, "fully offloaded : {:>7} cycles", m.per_record_rx).unwrap();
    writeln!(out, "fully software  : {:>7} cycles", m.per_record_rx + m.decrypt_cycles(rec)).unwrap();
    for frac in [0.25f64, 0.5, 0.75] {
        let off = (rec as f64 * frac) as usize;
        let cyc = m.per_record_rx + m.decrypt_cycles(rec) + CostModel::bytes_cycles(m.aes_gcm_enc_cpb, off);
        writeln!(out, "partial ({:>3.0}% offloaded): {:>7} cycles — costlier than full software (§5.2)",
            frac * 100.0, cyc).unwrap();
    }

    // A4 — why resync must be hardware-driven (§4.3's raciness argument).
    writeln!(out, "\n-- A4: naive software-driven resync (analytic) --").unwrap();
    writeln!(out, "A software-driven scheme tells the NIC where a message started after").unwrap();
    writeln!(out, "the fact; it wins only if no newer bytes passed meanwhile, i.e. with").unwrap();
    writeln!(out, "probability ~max(0, 1 - rate x delay / record):").unwrap();
    writeln!(out, "{:>10} {:>10} {:>12}", "rate", "delay", "P(resume)").unwrap();
    for (gbps, delay_us) in [(10.0f64, 10.0f64), (25.0, 10.0), (100.0, 10.0), (100.0, 5.0)] {
        let bytes_in_flight = gbps * 1e9 / 8.0 * delay_us * 1e-6;
        let p = (1.0 - bytes_in_flight / (16.0 * 1024.0)).max(0.0);
        writeln!(out, "{:>7.0}Gbps {:>8.0}us {:>11.2}", gbps, delay_us, p).unwrap();
    }
    writeln!(out, "(at line rate the naive scheme essentially never converges — the paper's").unwrap();
    writeln!(out, " hardware-driven speculate-track-confirm design exists for this reason)").unwrap();
    out
}

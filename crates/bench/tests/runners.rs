//! One `quick_window`-sized point per runner, asserting the *shape* its
//! paper figure reports (`run_iperf` is covered beside the figures).

use ano_bench::runners::{
    quick_window, run_fio, run_latency, run_rr, FioCfg, LatencyCfg, NvmeVariant, RrCfg, Variant,
};

/// Fig. 14: httpd C1 over NVMe-TLS on one server core — the combined
/// offload raises goodput.
#[test]
fn rr_c1_nvme_tls_offload_beats_baseline() {
    let mk = |nv, front| {
        run_rr(&RrCfg {
            front,
            storage: Some((nv, true)),
            conns: 32,
            response: 256 * 1024,
            cores: [1, 12],
            window: quick_window(true),
            ..Default::default()
        })
    };
    let base = mk(NvmeVariant::Baseline, Variant::TlsSw);
    let off = mk(NvmeVariant::Offload, Variant::TlsOffloadZc);
    assert!(base.gbps > 0.0 && base.rps > 0.0, "baseline served nothing: {base:?}");
    assert!(off.gbps > base.gbps, "offload {:.2} <= baseline {:.2} Gbit/s", off.gbps, base.gbps);
}

/// Fig. 10: with the NVMe offloads on, the host spends no cycles on copy or
/// CRC, so busy cycles per request fall.
#[test]
fn fio_offload_removes_copy_and_crc_cycles() {
    let mk = |offload| {
        run_fio(&FioCfg {
            size: 256 * 1024,
            depth: 16,
            offload,
            window: quick_window(true),
            seed: 26,
        })
    };
    let base = mk(false);
    let off = mk(true);
    assert!(base.copy_per_req > 0.0 && base.crc_per_req > 0.0, "{base:?}");
    assert_eq!(off.copy_per_req + off.crc_per_req, 0.0, "{off:?}");
    assert!(
        off.busy_per_req < base.busy_per_req,
        "busy/req {:.0} !< {:.0}",
        off.busy_per_req,
        base.busy_per_req
    );
}

/// Table 4: each offload added cumulatively shortens the 256 KiB GET.
#[test]
fn latency_falls_with_each_offload_added() {
    let mk = |tls_offload, copy_offload, crc_offload| {
        run_latency(&LatencyCfg {
            response: 256 * 1024,
            tls_offload,
            copy_offload,
            crc_offload,
            requests: 40,
            seed: 99,
        })
        .latency_us
    };
    let lat = [
        mk(false, false, false),
        mk(true, false, false),
        mk(true, true, false),
        mk(true, true, true),
    ];
    assert!(
        lat.windows(2).all(|w| w[0] > w[1]),
        "base > +TLS > +copy > +CRC violated: {lat:?} µs"
    );
}

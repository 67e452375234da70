//! End-to-end stack tests: two full hosts, NIC offload engines, software
//! TCP, kTLS and NVMe-TCP layers — in functional mode (real bytes, real
//! crypto, real digests) and modeled mode.

use std::cell::RefCell;
use std::rc::Rc;

use ano_nvme::block::pattern_byte;
use ano_sim::link::Impairments;
use ano_sim::payload::{DataMode, Payload};
use ano_sim::time::SimTime;
use ano_stack::app::{AppEvent, HostApi, HostApp};
use ano_stack::prelude::*;

/// Collects application bytes received on any connection.
#[derive(Default)]
struct Recorder {
    got: Rc<RefCell<Vec<u8>>>,
}

impl HostApp for Recorder {
    fn on_event(&mut self, _api: &mut HostApi, event: AppEvent<'_>) {
        if let AppEvent::Data { chunks, .. } = event {
            let mut g = self.got.borrow_mut();
            for c in chunks {
                g.extend_from_slice(&c.payload.to_vec());
            }
        }
    }
}

/// Sends a fixed byte string at start.
struct SendOnce {
    conn: ConnId,
    data: Vec<u8>,
}

impl HostApp for SendOnce {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        if let AppEvent::Start = event {
            api.send(self.conn, Payload::real(self.data.clone()));
        }
    }
}

/// Issues NVMe reads at start; records completions.
struct NvmeReader {
    conn: ConnId,
    reads: Vec<(u64, u32)>, // (offset, len)
    done: Rc<RefCell<Vec<ano_nvme::host::Completion>>>,
}

impl HostApp for NvmeReader {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        match event {
            AppEvent::Start => {
                for (i, &(off, len)) in self.reads.iter().enumerate() {
                    api.nvme_read(self.conn, i as u64, off, len);
                }
            }
            AppEvent::NvmeDone { completion, .. } => {
                self.done.borrow_mut().push(completion.clone());
            }
            _ => {}
        }
    }
}

fn functional_cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        mode: DataMode::Functional,
        ..Default::default()
    }
}

#[test]
fn tls_offloaded_delivers_exact_bytes() {
    let mut w = World::new(functional_cfg(10));
    let conn = w.connect(
        ConnSpec::Tls(TlsSpec::offloaded()),
        ConnSpec::Tls(TlsSpec::offloaded()),
    );
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
    let got = Rc::new(RefCell::new(Vec::new()));
    w.set_app(0, Box::new(SendOnce { conn, data: data.clone() }));
    w.set_app(1, Box::new(Recorder { got: Rc::clone(&got) }));
    w.start();
    w.run_until(SimTime::from_secs(5));
    assert!(w.is_idle(), "transfer completes");
    assert_eq!(*got.borrow(), data, "plaintext identical end to end");

    // All records fully offloaded on a clean link.
    let k = w.ktls_rx_stats(1, conn).expect("tls stats");
    assert_eq!(k.alerts, 0);
    assert!(k.class.full > 0);
    assert_eq!(k.class.partial + k.class.none, 0, "clean link: all offloaded");
    let rx = w.rx_engine_stats(1, conn).expect("rx engine");
    assert_eq!(rx.pkts, rx.pkts_offloaded);
}

#[test]
fn tls_software_only_also_works() {
    let mut w = World::new(functional_cfg(11));
    let conn = w.connect(
        ConnSpec::Tls(TlsSpec::default()),
        ConnSpec::Tls(TlsSpec::default()),
    );
    let data: Vec<u8> = (0..50_000u32).map(|i| (i % 13) as u8).collect();
    let got = Rc::new(RefCell::new(Vec::new()));
    w.set_app(0, Box::new(SendOnce { conn, data: data.clone() }));
    w.set_app(1, Box::new(Recorder { got: Rc::clone(&got) }));
    w.start();
    w.run_until(SimTime::from_secs(5));
    assert_eq!(*got.borrow(), data);
    let k = w.ktls_rx_stats(1, conn).expect("tls stats");
    assert_eq!(k.class.full, 0, "no offload configured");
    assert!(k.class.none > 0);
}

#[test]
fn tls_offloaded_survives_loss_and_reordering() {
    let mut w = World::new(WorldConfig {
        impair_0to1: Impairments {
            loss: 0.02,
            reorder: 0.01,
            reorder_extra_ns: (50_000, 300_000),
            duplicate: 0.005,
            ..Default::default()
        },
        ..functional_cfg(12)
    });
    let conn = w.connect(
        ConnSpec::Tls(TlsSpec::offloaded()),
        ConnSpec::Tls(TlsSpec::offloaded()),
    );
    let data: Vec<u8> = (0..400_000u32).map(|i| (i % 199) as u8).collect();
    let got = Rc::new(RefCell::new(Vec::new()));
    w.set_app(0, Box::new(SendOnce { conn, data: data.clone() }));
    w.set_app(1, Box::new(Recorder { got: Rc::clone(&got) }));
    w.start();
    w.run_until(SimTime::from_secs(30));
    assert_eq!(*got.borrow(), data, "impaired link still delivers exactly");

    let k = w.ktls_rx_stats(1, conn).expect("tls stats");
    assert_eq!(k.alerts, 0, "fallbacks authenticated every record");
    assert!(k.class.none + k.class.partial > 0, "loss caused fallbacks");
    assert!(k.class.full > 0, "offloading recovered between losses");
    let rx = w.rx_engine_stats(1, conn).expect("rx engine");
    assert!(
        rx.boundary_resyncs + rx.resync_ok > 0,
        "engine used its recovery paths: {rx:?}"
    );
}

#[test]
fn tls_tx_recovery_on_retransmissions() {
    // Loss on the ACK path forces tx retransmissions through the tx engine.
    let mut w = World::new(WorldConfig {
        impair_0to1: Impairments::loss(0.03),
        ..functional_cfg(13)
    });
    let conn = w.connect(
        ConnSpec::Tls(TlsSpec::offloaded()),
        ConnSpec::Tls(TlsSpec::offloaded()),
    );
    let data: Vec<u8> = (0..300_000u32).map(|i| (i % 59) as u8).collect();
    let got = Rc::new(RefCell::new(Vec::new()));
    w.set_app(0, Box::new(SendOnce { conn, data: data.clone() }));
    w.set_app(1, Box::new(Recorder { got: Rc::clone(&got) }));
    w.start();
    w.run_until(SimTime::from_secs(30));
    assert_eq!(*got.borrow(), data);
    let tx = w.tx_engine_stats(0, conn).expect("tx engine");
    assert!(tx.recoveries > 0, "retransmissions recovered: {tx:?}");
    assert!(tx.replay_bytes > 0, "Fig 6 replays happened");
    assert_eq!(tx.desyncs, 0);
    assert!(w.nic_counters(0).pcie_replay_bytes > 0, "PCIe accounting");
}

#[test]
fn nvme_read_offloaded_places_correct_bytes() {
    let mut w = World::new(functional_cfg(14));
    let conn = w.connect(
        ConnSpec::NvmeHost(NvmeHostSpec::offloaded()),
        ConnSpec::NvmeTarget(NvmeTargetSpec {
            crc_tx_offload: true,
            crc_rx_offload: true,
            ..Default::default()
        }),
    );
    let done = Rc::new(RefCell::new(Vec::new()));
    w.set_app(
        0,
        Box::new(NvmeReader {
            conn,
            reads: vec![(4096, 16 * 1024), (1 << 20, 64 * 1024)],
            done: Rc::clone(&done),
        }),
    );
    w.start();
    w.run_until(SimTime::from_secs(5));
    let comps = done.borrow();
    assert_eq!(comps.len(), 2);
    for (i, c) in comps.iter().enumerate() {
        assert!(c.ok, "read {i} ok");
        assert!(c.placed_bytes > 0, "copy offload placed bytes");
        assert_eq!(c.copied_bytes, 0, "no software copies on a clean link");
        let buf = c.buffer.as_ref().expect("functional buffer");
        let (off, len) = [(4096u64, 16 * 1024usize), (1 << 20, 64 * 1024)][c.id as usize];
        let b = buf.borrow();
        assert_eq!(b.len(), len);
        assert!(
            b.iter()
                .enumerate()
                .all(|(j, &v)| v == pattern_byte(off + j as u64)),
            "device content placed verbatim"
        );
    }
    drop(comps);
    let hs = w.nvme_host_stats(0, conn).expect("host stats");
    assert_eq!(hs.crc_software, 0, "CRC offload skipped software digests");
    assert!(hs.crc_skipped > 0);
}

#[test]
fn nvme_read_without_offload_copies_in_software() {
    let mut w = World::new(functional_cfg(15));
    let conn = w.connect(
        ConnSpec::NvmeHost(NvmeHostSpec::default()),
        ConnSpec::NvmeTarget(NvmeTargetSpec::default()),
    );
    let done = Rc::new(RefCell::new(Vec::new()));
    w.set_app(
        0,
        Box::new(NvmeReader {
            conn,
            reads: vec![(0, 32 * 1024)],
            done: Rc::clone(&done),
        }),
    );
    w.start();
    w.run_until(SimTime::from_secs(5));
    let comps = done.borrow();
    assert_eq!(comps.len(), 1);
    assert!(comps[0].ok);
    assert_eq!(comps[0].placed_bytes, 0);
    assert_eq!(comps[0].copied_bytes, 32 * 1024);
    let b = comps[0].buffer.as_ref().unwrap().borrow();
    assert!(b.iter().enumerate().all(|(j, &v)| v == pattern_byte(j as u64)));
}

/// Writes 400 000 bytes (a few hundred packets) over the given NVMe spec
/// pair, reads them back, and checks the bytes; on a clean link
/// (`loss_0to1 == 0`) also that the target's rx engine — the inner one
/// under TLS — offloaded packets.
fn nvme_write_roundtrip(seed: u64, host: ConnSpec, target: ConnSpec, loss_0to1: f64) {
    const WRITE_LEN: u32 = 400_000;
    fn write_data() -> Vec<u8> {
        (0..WRITE_LEN).map(|i| (i % 97) as u8).collect()
    }
    struct Writer {
        conn: ConnId,
        done: Rc<RefCell<Vec<ano_nvme::host::Completion>>>,
        read_after: bool,
    }
    impl HostApp for Writer {
        fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
            match event {
                AppEvent::Start => {
                    api.nvme_write(self.conn, 1, 8192, Payload::real(write_data()));
                }
                AppEvent::NvmeDone { completion, .. } => {
                    self.done.borrow_mut().push(completion.clone());
                    if !self.read_after {
                        self.read_after = true;
                        api.nvme_read(self.conn, 2, 8192, WRITE_LEN);
                    }
                }
                _ => {}
            }
        }
    }
    let mut w = World::new(WorldConfig {
        impair_0to1: Impairments::loss(loss_0to1),
        ..functional_cfg(seed)
    });
    let conn = w.connect(host, target);
    let done = Rc::new(RefCell::new(Vec::new()));
    w.set_app(
        0,
        Box::new(Writer {
            conn,
            done: Rc::clone(&done),
            read_after: false,
        }),
    );
    w.start();
    w.run_until(SimTime::from_secs(30));
    let comps = done.borrow();
    assert_eq!(comps.len(), 2, "write then read-back completed");
    assert!(comps.iter().all(|c| c.ok));
    let read_back = comps[1].buffer.as_ref().expect("read buffer").borrow();
    assert_eq!(&read_back[..], &write_data()[..], "written bytes read back via the wire");
    if loss_0to1 > 0.0 {
        assert!(w.link_stats_between(0, 1).lost > 0, "the link did drop packets");
    } else {
        let rx = w.rx_engine_stats(1, conn).expect("target rx engine");
        assert!(rx.pkts_offloaded > 0, "target rx engine offloaded the write data");
        let tx = w.tx_engine_stats(0, conn).expect("host tx engine");
        assert!(tx.pkts_offloaded > 0, "host tx engine carried the write data");
    }
}

fn offloaded_target() -> NvmeTargetSpec {
    NvmeTargetSpec {
        crc_tx_offload: true,
        crc_rx_offload: true,
        ..Default::default()
    }
}

#[test]
fn nvme_write_roundtrip_plain() {
    nvme_write_roundtrip(
        16,
        ConnSpec::NvmeHost(NvmeHostSpec::offloaded()),
        ConnSpec::NvmeTarget(offloaded_target()),
        0.0,
    );
}

#[test]
fn nvme_write_roundtrip_over_tls() {
    nvme_write_roundtrip(
        16,
        ConnSpec::NvmeTlsHost(NvmeHostSpec::offloaded(), TlsSpec::offloaded()),
        ConnSpec::NvmeTlsTarget(offloaded_target(), TlsSpec::offloaded()),
        0.0,
    );
}

#[test]
fn nvme_write_roundtrip_over_tls_with_loss() {
    // 1 % loss on the host → target direction, the one the write data takes.
    nvme_write_roundtrip(
        16,
        ConnSpec::NvmeTlsHost(NvmeHostSpec::offloaded(), TlsSpec::offloaded()),
        ConnSpec::NvmeTlsTarget(offloaded_target(), TlsSpec::offloaded()),
        0.01,
    );
}

#[test]
fn nvme_tls_combined_offload_end_to_end() {
    let mut w = World::new(functional_cfg(17));
    let conn = w.connect(
        ConnSpec::NvmeTlsHost(NvmeHostSpec::offloaded(), TlsSpec::offloaded()),
        ConnSpec::NvmeTlsTarget(
            NvmeTargetSpec {
                crc_tx_offload: true,
                crc_rx_offload: true,
                ..Default::default()
            },
            TlsSpec::offloaded(),
        ),
    );
    let done = Rc::new(RefCell::new(Vec::new()));
    w.set_app(
        0,
        Box::new(NvmeReader {
            conn,
            reads: vec![(4096, 100_000)],
            done: Rc::clone(&done),
        }),
    );
    w.start();
    w.run_until(SimTime::from_secs(10));
    let comps = done.borrow();
    assert_eq!(comps.len(), 1, "combined NVMe-TLS read completed");
    assert!(comps[0].ok, "digest verified through TLS");
    let b = comps[0].buffer.as_ref().unwrap().borrow();
    assert!(
        b.iter()
            .enumerate()
            .all(|(j, &v)| v == pattern_byte(4096 + j as u64)),
        "device bytes decrypted, placed, and verified"
    );
    assert!(comps[0].placed_bytes > 0, "inner copy offload worked through TLS");
    // TLS layer saw fully offloaded records.
    let k = w.ktls_rx_stats(0, conn).expect("tls stats");
    assert_eq!(k.alerts, 0);
    assert!(k.class.full > 0);
}

#[test]
fn nvme_tls_combined_survives_loss() {
    let mut w = World::new(WorldConfig {
        impair_1to0: Impairments::loss(0.02),
        ..functional_cfg(18)
    });
    let conn = w.connect(
        ConnSpec::NvmeTlsHost(NvmeHostSpec::offloaded(), TlsSpec::offloaded()),
        ConnSpec::NvmeTlsTarget(
            NvmeTargetSpec {
                crc_tx_offload: true,
                crc_rx_offload: true,
                ..Default::default()
            },
            TlsSpec::offloaded(),
        ),
    );
    let done = Rc::new(RefCell::new(Vec::new()));
    let reads: Vec<(u64, u32)> = (0..8).map(|i| (i * 131_072, 65_536)).collect();
    w.set_app(
        0,
        Box::new(NvmeReader {
            conn,
            reads: reads.clone(),
            done: Rc::clone(&done),
        }),
    );
    w.start();
    w.run_until(SimTime::from_secs(60));
    let comps = done.borrow();
    assert_eq!(comps.len(), reads.len(), "all reads completed despite loss");
    for c in comps.iter() {
        assert!(c.ok, "digests verified (offloaded or software)");
        let (off, len) = reads[c.id as usize];
        let b = c.buffer.as_ref().unwrap().borrow();
        assert_eq!(b.len(), len as usize);
        assert!(
            b.iter().enumerate().all(|(j, &v)| v == pattern_byte(off + j as u64)),
            "content correct under loss"
        );
    }
}

#[test]
fn modeled_mode_moves_data_and_accounts() {
    let mut w = World::new(WorldConfig {
        seed: 19,
        mode: DataMode::Modeled,
        ..Default::default()
    });
    let conn = w.connect(
        ConnSpec::NvmeHost(NvmeHostSpec::offloaded()),
        ConnSpec::NvmeTarget(NvmeTargetSpec {
            crc_tx_offload: true,
            crc_rx_offload: true,
            ..Default::default()
        }),
    );
    let done = Rc::new(RefCell::new(Vec::new()));
    w.set_app(
        0,
        Box::new(NvmeReader {
            conn,
            reads: vec![(0, 256 * 1024)],
            done: Rc::clone(&done),
        }),
    );
    w.start();
    w.run_until(SimTime::from_secs(5));
    let comps = done.borrow();
    assert_eq!(comps.len(), 1);
    assert!(comps[0].ok);
    assert_eq!(comps[0].placed_bytes, 256 * 1024, "modeled placement accounted");
    assert!(comps[0].buffer.is_none(), "no real buffer in modeled mode");
    assert!(w.cpu_busy_cycles(0) > 0);
}

#[test]
fn raw_tcp_baseline() {
    let mut w = World::new(functional_cfg(20));
    let conn = w.connect(ConnSpec::Raw, ConnSpec::Raw);
    let data: Vec<u8> = (0..80_000u32).map(|i| (i % 17) as u8).collect();
    let got = Rc::new(RefCell::new(Vec::new()));
    w.set_app(0, Box::new(SendOnce { conn, data: data.clone() }));
    w.set_app(1, Box::new(Recorder { got: Rc::clone(&got) }));
    w.start();
    w.run_until(SimTime::from_secs(5));
    assert_eq!(*got.borrow(), data);
}

/// Every typed counter one host keeps for a connection: the facts a
/// figure or gate may read.
#[derive(Debug, PartialEq)]
struct HostStats {
    rx: Option<ano_core::rx::RxStats>,
    tx: Option<ano_core::tx::TxStats>,
    ktls_rx: Option<ano_tls::ktls::KtlsRxStats>,
    tcp_tx: Option<ano_tcp::sender::SenderStats>,
    nvme_host: Option<ano_nvme::host::NvmeHostStats>,
    nic: ano_core::nic::NicCounters,
    delivered: u64,
}

/// [`HostStats`] of both hosts for `conn`, plus both directions' link stats.
fn typed_stats(w: &World, conn: ConnId) -> (Vec<HostStats>, [ano_sim::link::LinkStats; 2]) {
    let hosts = (0..2)
        .map(|h| HostStats {
            rx: w.rx_engine_stats(h, conn),
            tx: w.tx_engine_stats(h, conn),
            ktls_rx: w.ktls_rx_stats(h, conn),
            tcp_tx: w.tcp_tx_stats(h, conn),
            nvme_host: w.nvme_host_stats(h, conn),
            nic: w.nic_counters(h),
            delivered: w.delivered_bytes(h, conn),
        })
        .collect();
    (hosts, [w.link_stats_between(0, 1), w.link_stats_between(1, 0)])
}

/// Builds the same seeded world twice, runs the untraced one and the
/// traced one to `until`, and returns them in that order.
fn untraced_then_traced(build: impl Fn() -> (World, ConnId), until: SimTime) -> [(World, ConnId); 2] {
    [false, true].map(|traced| {
        let (mut w, conn) = build();
        w.tracer().set_enabled(traced);
        w.start();
        w.run_until(until);
        (w, conn)
    })
}

fn lossy_cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        impair_0to1: Impairments {
            loss: 0.02,
            reorder: 0.01,
            reorder_extra_ns: (50_000, 300_000),
            ..Default::default()
        },
        impair_1to0: Impairments::loss(0.02),
        ..functional_cfg(seed)
    }
}

/// Tracing only observes: a lossy TLS tx+rx-offloaded transfer (so tx
/// recovery and rx resync both run) leaves every typed counter on both
/// hosts equal whether or not the tracer is on.
#[test]
fn tracing_leaves_tls_typed_stats_unchanged() {
    let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 211) as u8).collect();
    let [(plain, conn), (traced, _)] = untraced_then_traced(
        || {
            let mut w = World::new(lossy_cfg(21));
            let conn = w.connect(
                ConnSpec::Tls(TlsSpec::offloaded()),
                ConnSpec::Tls(TlsSpec::offloaded()),
            );
            w.set_app(0, Box::new(SendOnce { conn, data: data.clone() }));
            w.set_app(1, Box::new(Recorder::default()));
            (w, conn)
        },
        SimTime::from_secs(30),
    );
    assert_eq!(plain.delivered_bytes(1, conn), data.len() as u64, "transfer completed");
    let tx = plain.tx_engine_stats(0, conn).expect("tx engine");
    assert!(tx.recoveries > 0, "tx recovery ran: {tx:?}");
    let rx = plain.rx_engine_stats(1, conn).expect("rx engine");
    assert!(rx.resync_requests > 0 && rx.resync_ok > 0, "rx resync ran: {rx:?}");
    assert_eq!(typed_stats(&plain, conn), typed_stats(&traced, conn));

    assert!(plain.tracer().records().is_empty(), "the untraced run recorded nothing");
    let records = traced.tracer().records();
    let recoveries = records
        .iter()
        .filter(|r| matches!(r.event, ano_trace::Event::TxRecovery { .. }))
        .count() as u64;
    assert_eq!(recoveries, tx.recoveries, "one tx.recovery event per recovery");
    assert!(
        records.iter().any(|r| matches!(r.event, ano_trace::Event::PktOoS { .. })),
        "the rx gaps are traced as pkt.oos"
    );
}

/// The NVMe arm of the same property: the initiator's copy and CRC
/// cycles (Fig. 10's layer split) are typed stats, equal with tracing on
/// or off.
#[test]
fn tracing_leaves_nvme_typed_stats_unchanged() {
    let [(plain, conn), (traced, _)] = untraced_then_traced(
        || {
            let mut w = World::new(lossy_cfg(22));
            let conn = w.connect(
                ConnSpec::NvmeHost(NvmeHostSpec::offloaded()),
                ConnSpec::NvmeTarget(offloaded_target()),
            );
            let reads = (0..8).map(|i| (i << 20, 64 * 1024)).collect();
            w.set_app(0, Box::new(NvmeReader { conn, reads, done: Rc::default() }));
            (w, conn)
        },
        SimTime::from_secs(30),
    );
    let hs = plain.nvme_host_stats(0, conn).expect("initiator");
    assert_eq!(hs.completions, 8, "every read completed: {hs:?}");
    assert!(hs.copy_cycles > 0 && hs.crc_cycles > 0, "loss forced software copy and CRC: {hs:?}");
    assert!(hs.bytes_placed > 0, "the NIC placed the rest: {hs:?}");
    assert_eq!(typed_stats(&plain, conn), typed_stats(&traced, conn));
    assert!(!traced.tracer().records().is_empty());
}

/// An out-of-range NIC config is clamped, and the clamp is a typed fact on
/// the host's counters — no tracer needed to see it.
#[test]
fn clamped_nic_config_is_reported_untraced() {
    let fleet = Fleet::build(FleetSpec {
        clients: 1,
        servers: 1,
        server: HostSpec {
            nic: ano_core::nic::NicConfig { ctx_cache_capacity: 0, ..Default::default() },
            ..HostSpec::default()
        },
        ..FleetSpec::default()
    });
    assert!(!fleet.nic_counters(fleet.client(0)).config_clamped);
    assert!(fleet.nic_counters(fleet.server(0)).config_clamped);
}

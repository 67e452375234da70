//! Workspace-level integration tests exercising the facade across crates.

use std::cell::RefCell;
use std::rc::Rc;

use autonomous_nic_offloads::nvme::block::pattern_byte;
use autonomous_nic_offloads::sim::payload::{DataMode, Payload};
use autonomous_nic_offloads::sim::time::SimTime;
use autonomous_nic_offloads::stack::app::{AppEvent, HostApi, HostApp};
use autonomous_nic_offloads::stack::prelude::*;

struct Reader {
    conn: ConnId,
    done: Rc<RefCell<Vec<autonomous_nic_offloads::nvme::host::Completion>>>,
}

impl HostApp for Reader {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        match event {
            AppEvent::Start => api.nvme_read(self.conn, 1, 8192, 200_000),
            AppEvent::NvmeDone { completion, .. } => {
                self.done.borrow_mut().push(completion.clone())
            }
            _ => {}
        }
    }
}

/// The paper's headline composition: an encrypted remote read where the NIC
/// decrypts TLS, verifies the capsule CRC, and places the data — all three
/// offloads verified byte-for-byte through real crypto.
#[test]
fn combined_nvme_tls_read_through_the_facade() {
    let mut w = World::new(WorldConfig {
        seed: 123,
        mode: DataMode::Functional,
        ..Default::default()
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
    w.set_app(0, Box::new(Reader { conn, done: Rc::clone(&done) }));
    w.start();
    w.run_until(SimTime::from_secs(5));
    let comps = done.borrow();
    assert_eq!(comps.len(), 1);
    let c = &comps[0];
    assert!(c.ok);
    assert!(c.placed_bytes > 0, "copy offload active through TLS");
    let buf = c.buffer.as_ref().expect("buffer").borrow();
    assert!(buf
        .iter()
        .enumerate()
        .all(|(j, &v)| v == pattern_byte(8192 + j as u64)));
}

/// Configuration C1's invariant: the remote drive's bandwidth bounds nginx
/// throughput no matter how many cores serve it (Fig. 12's ceiling).
#[test]
fn c1_throughput_is_drive_bound() {
    use autonomous_nic_offloads::apps::httpd::{Backing, Client, Server};
    let mut w = World::new(WorldConfig {
        seed: 5,
        mode: DataMode::Modeled,
        cores: [8, 12],
        ..Default::default()
    });
    let conns: Vec<ConnId> = (0..64).map(|_| w.connect(ConnSpec::Raw, ConnSpec::Raw)).collect();
    let storage = w.connect(
        ConnSpec::NvmeHost(NvmeHostSpec::offloaded()),
        ConnSpec::NvmeTarget(NvmeTargetSpec {
            crc_tx_offload: true,
            ..Default::default()
        }),
    );
    let server = Server::new(
        128,
        256 * 1024,
        Backing::Storage { conns: vec![storage], span: 1 << 30 },
        DataMode::Modeled,
    );
    let client = Client::new(conns, 128, 256 * 1024, DataMode::Modeled);
    let stats = client.stats();
    w.set_app(0, Box::new(server));
    w.set_app(1, Box::new(client));
    w.start();
    w.run_until(SimTime::from_millis(100));
    let s = stats.borrow();
    let gbps = s.bytes as f64 * 8.0 / w.now().as_secs_f64() / 1e9;
    assert!(gbps > 5.0, "made progress: {gbps:.1} Gbps");
    assert!(gbps < 22.5, "drive-bound at ~21.4 Gbps: {gbps:.1} Gbps");
}

/// The Table 3 preconditions hold for both shipped offloads: crypto and
/// digest state export/resume at arbitrary byte positions.
#[test]
fn constant_size_state_preconditions() {
    use autonomous_nic_offloads::crypto::aes::Aes;
    use autonomous_nic_offloads::crypto::crc32c::Crc32c;
    use autonomous_nic_offloads::crypto::gcm::{Direction, GcmKey, GcmStream};
    use std::sync::Arc;

    let aes = Aes::new_128(&[3; 16]);
    let iv = [9u8; 12];
    let data: Vec<u8> = (0..5000u32).map(|i| (i % 255) as u8).collect();
    let mut oneshot = data.clone();
    let tag = autonomous_nic_offloads::crypto::gcm::seal(&aes, &iv, b"", &mut oneshot);

    // Split at an awkward offset, export, resume — like a NIC context
    // evicted to host memory and restored (§6.5).
    let mut buf = data.clone();
    let key = Arc::new(GcmKey::new(aes));
    let mut s = GcmStream::new(Arc::clone(&key), &iv, b"", Direction::Encrypt);
    s.process(&mut buf[..1234]);
    let saved = s.export();
    let mut s2 = GcmStream::resume(key, &iv, &saved);
    s2.process(&mut buf[1234..]);
    assert_eq!(buf, oneshot);
    assert_eq!(s2.tag(), tag);

    let mut c = Crc32c::new();
    c.update(&data[..777]);
    let st = c.export();
    let mut c2 = Crc32c::resume(st);
    c2.update(&data[777..]);
    assert_eq!(c2.finalize(), autonomous_nic_offloads::crypto::crc32c::crc32c(&data));
}

/// Modeled and functional modes must agree on behaviour: same world seed,
/// same impairments — identical packet timing, identical offload
/// classification dynamics (framing ground truth replaces byte scanning,
/// it does not change decisions).
#[test]
fn modeled_matches_functional_under_loss() {
    use autonomous_nic_offloads::sim::link::Impairments;

    let run = |mode: DataMode| {
        let mut w = World::new(WorldConfig {
            seed: 777,
            mode,
            impair_0to1: Impairments::loss(0.02),
            ..Default::default()
        });
        let conn = w.connect(
            ConnSpec::Tls(TlsSpec::offloaded()),
            ConnSpec::Tls(TlsSpec::offloaded()),
        );
        struct Send(ConnId, usize, DataMode);
        impl HostApp for Send {
            fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
                if let AppEvent::Start = event {
                    let p = match self.2 {
                        DataMode::Functional => Payload::real(vec![0x3Cu8; self.1]),
                        DataMode::Modeled => Payload::synthetic(self.1),
                    };
                    api.send(self.0, p);
                }
            }
        }
        w.set_app(0, Box::new(Send(conn, 300_000, mode)));
        w.run_until(SimTime::ZERO); // no-op; apps start below
        w.start();
        w.run_until(SimTime::from_secs(30));
        (
            w.delivered_bytes(1, conn),
            w.ktls_rx_stats(1, conn).unwrap(),
            w.rx_engine_stats(1, conn).unwrap(),
        )
    };

    let (bytes_f, ktls_f, rx_f) = run(DataMode::Functional);
    let (bytes_m, ktls_m, rx_m) = run(DataMode::Modeled);
    assert_eq!(bytes_f, 300_000, "functional delivered everything");
    assert_eq!(bytes_m, 300_000, "modeled delivered everything");
    assert_eq!(ktls_f.alerts, 0);
    // Identical seeds drive identical loss patterns; classification and
    // engine paths must match exactly.
    assert_eq!(ktls_f.class, ktls_m.class, "record classification identical");
    assert_eq!(rx_f.pkts, rx_m.pkts);
    assert_eq!(rx_f.pkts_offloaded, rx_m.pkts_offloaded);
    assert_eq!(rx_f.resync_requests, rx_m.resync_requests);
}

//! Property tests for the NIC context cache, driven through [`Nic`] itself.
//!
//! The cache's recency list ([`ano_core::cache::LruSet`]) is indexed by the
//! slots each flow's NIC record holds, so a slot left behind when its entry
//! goes — evicted, written back, invalidated, crossed to another queue or
//! wiped by a reset — silently corrupts recency order long before anything
//! panics. These properties drive arbitrary sequences of installs, packets
//! on offloaded and pass-through flows, uninstalls, invalidations,
//! destroys, resets, steering and indirection-bucket reprograms on a
//! 4-queue NIC against a naive model (`RefLru` plus the per-flow state that
//! decides which context each operation touches). After every step the
//! NIC's hit, miss, PCIe-byte and queue-crossing counters and the victim of
//! every traced `device.ctx-evict` must match the model.

use std::collections::BTreeMap;

use ano_core::demo::{self, DemoFlow};
use ano_core::flow::{L5TxSource, TxMsgRef};
use ano_core::nic::{Nic, NicConfig, CTX_BYTES};
use ano_core::rss::FourTuple;
use ano_core::rx::RxEngine;
use ano_core::tx::TxEngine;
use ano_sim::payload::Payload;
use ano_tcp::segment::FlowId;
use ano_testkit::gen::{usize_in, vec_u8};
use ano_trace::{Event, Tracer};

const QUEUES: u16 = 4;
const BUCKETS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Rx,
    Tx,
}

impl Dir {
    fn name(self) -> &'static str {
        match self {
            Dir::Rx => "rx",
            Dir::Tx => "tx",
        }
    }
}

/// Naive reference model of the cache and its PCIe accounting: O(n)
/// everything, obviously correct.
struct RefLru {
    cap: usize,
    /// Resident contexts, most recently used first.
    order: Vec<(u64, Dir)>,
    hits: u64,
    misses: u64,
    pcie_ctx_bytes: u64,
    /// `device.ctx-evict` records the NIC owes, oldest first.
    evicted: Vec<(u64, &'static str)>,
}

impl RefLru {
    fn new(cap: usize) -> RefLru {
        RefLru {
            cap: cap.max(1),
            order: Vec::new(),
            hits: 0,
            misses: 0,
            pcie_ctx_bytes: 0,
            evicted: Vec::new(),
        }
    }

    /// A packet of an offloaded flow: a hit, or a fill plus — when the
    /// cache is full — the least recently used context's write-back.
    fn touch(&mut self, key: (u64, Dir)) {
        if let Some(pos) = self.order.iter().position(|&x| x == key) {
            self.hits += 1;
            self.order.remove(pos);
            self.order.insert(0, key);
            return;
        }
        self.misses += 1;
        self.pcie_ctx_bytes += CTX_BYTES;
        if self.order.len() == self.cap {
            if let Some((flow, dir)) = self.order.pop() {
                self.pcie_ctx_bytes += CTX_BYTES;
                self.evicted.push((flow, dir.name()));
            }
        }
        self.order.insert(0, key);
    }

    /// Drops a context; returns whether it was resident.
    fn remove(&mut self, key: (u64, Dir)) -> bool {
        let pos = self.order.iter().position(|&x| x == key);
        if let Some(pos) = pos {
            self.order.remove(pos);
        }
        pos.is_some()
    }

    /// Orderly teardown: a resident context is written back.
    fn writeback(&mut self, key: (u64, Dir)) {
        if self.remove(key) {
            self.pcie_ctx_bytes += CTX_BYTES;
        }
    }
}

/// What the NIC holds for one flow, as the model sees it.
#[derive(Default)]
struct FlowModel {
    rx: bool,
    tx: bool,
    bucket: Option<usize>,
    queue: u16,
    rx_seq: u64,
    tx_seq: u64,
}

struct Model {
    cache: RefLru,
    flows: BTreeMap<u64, FlowModel>,
    table: Vec<u16>,
    crossings: u64,
}

/// A transmit source that knows no messages: the tx engine still touches
/// its context on every packet.
struct NoSrc;

impl L5TxSource for NoSrc {
    fn msg_at(&self, _off: u64) -> Option<TxMsgRef> {
        None
    }
    fn stream_bytes(&self, _from: u64, _to: u64) -> Payload {
        Payload::empty()
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    InstallRx(u64),
    InstallTx(u64),
    Rx(u64),
    /// A pure ACK: no stream bytes, so neither steering nor the cache moves.
    Ack(u64),
    Tx(u64),
    UninstallRx(u64),
    UninstallTx(u64),
    InvalidateRx(u64),
    Destroy(u64),
    Steer(u64),
    SetBucket(usize, u16),
    Reset,
}

/// Decodes one `[op, arg]` byte pair; packets dominate, as on the NIC.
fn decode(op: u8, arg: u8, flows: u64) -> Op {
    let f = u64::from(arg) % flows;
    match op % 16 {
        0..=4 => Op::Rx(f),
        5..=7 => Op::Tx(f),
        8 => Op::InstallRx(f),
        9 => Op::InstallTx(f),
        10 if arg % 2 == 0 => Op::UninstallRx(f),
        10 => Op::UninstallTx(f),
        11 => Op::InvalidateRx(f),
        12 => Op::Destroy(f),
        13 => Op::Steer(f),
        14 => Op::SetBucket(usize::from(arg) % BUCKETS, u16::from(arg / 8) % QUEUES),
        _ if arg % 4 == 0 => Op::Reset,
        _ => Op::Ack(f),
    }
}

fn tuple(f: u64) -> FourTuple {
    FourTuple { src_ip: 0x0A00_0000 | f as u32, dst_ip: 0x0A00_00FF, src_port: 443, dst_port: 443 }
}

/// Applies `op` to the NIC and the model alike.
fn apply(nic: &mut Nic, m: &mut Model, op: Op) {
    let msg = demo::encode_msg_keyed(b"context", 0);
    match op {
        Op::InstallRx(f) => {
            nic.install_rx(FlowId(f), RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
            let fm = m.flows.entry(f).or_default();
            fm.rx = true;
            fm.rx_seq = 0;
        }
        Op::InstallTx(f) => {
            nic.install_tx(FlowId(f), TxEngine::new(Box::new(DemoFlow::tx_functional(0)), 0, 0));
            let fm = m.flows.entry(f).or_default();
            fm.tx = true;
            fm.tx_seq = 0;
        }
        Op::Rx(f) => {
            let seq = m.flows.get(&f).map_or(0, |fm| fm.rx_seq);
            nic.rx_process(FlowId(f), seq, &mut Payload::real(msg.clone()));
            if let Some(fm) = m.flows.get_mut(&f) {
                fm.rx_seq += msg.len() as u64;
                if let Some(b) = fm.bucket {
                    let q = m.table[b];
                    if std::mem::replace(&mut fm.queue, q) != q {
                        m.crossings += 1;
                        if m.cache.remove((f, Dir::Rx)) {
                            m.cache.pcie_ctx_bytes += CTX_BYTES;
                            m.cache.evicted.push((f, "rx"));
                        }
                    }
                }
                if fm.rx {
                    m.cache.touch((f, Dir::Rx));
                }
            }
        }
        Op::Ack(f) => {
            nic.rx_process(FlowId(f), 0, &mut Payload::empty());
        }
        Op::Tx(f) => {
            let seq = m.flows.get(&f).map_or(0, |fm| fm.tx_seq);
            nic.tx_process(FlowId(f), seq, &mut Payload::real(msg.clone()), &NoSrc);
            if let Some(fm) = m.flows.get_mut(&f) {
                fm.tx_seq += msg.len() as u64;
                if fm.tx {
                    m.cache.touch((f, Dir::Tx));
                }
            }
        }
        Op::UninstallRx(f) => {
            let had = m.flows.get_mut(&f).is_some_and(|fm| std::mem::take(&mut fm.rx));
            assert_eq!(nic.uninstall_rx(FlowId(f)), had, "uninstall_rx({f}) presence");
            m.cache.writeback((f, Dir::Rx));
        }
        Op::UninstallTx(f) => {
            let had = m.flows.get_mut(&f).is_some_and(|fm| std::mem::take(&mut fm.tx));
            assert_eq!(nic.uninstall_tx(FlowId(f)), had, "uninstall_tx({f}) presence");
            m.cache.writeback((f, Dir::Tx));
        }
        Op::InvalidateRx(f) => {
            let had = m.flows.get_mut(&f).is_some_and(|fm| std::mem::take(&mut fm.rx));
            assert_eq!(nic.invalidate_rx(FlowId(f)), had, "invalidate_rx({f}) presence");
            // Lost, not written back.
            m.cache.remove((f, Dir::Rx));
        }
        Op::Destroy(f) => {
            nic.destroy(FlowId(f));
            if m.flows.remove(&f).is_some() {
                m.cache.writeback((f, Dir::Rx));
                m.cache.writeback((f, Dir::Tx));
            }
        }
        Op::Steer(f) => {
            let q = nic.steer_rx(FlowId(f), tuple(f));
            // Which bucket a tuple hashes into is rss_prop's subject; the
            // model takes it from the NIC and checks the table lookup.
            let bucket = nic.rx_bucket_of(FlowId(f)).expect("just steered");
            assert_eq!(q, m.table[bucket], "steer_rx({f}) queue");
            let fm = m.flows.entry(f).or_default();
            fm.bucket = Some(bucket);
            fm.queue = q;
        }
        Op::SetBucket(b, q) => {
            nic.set_rss_bucket(b, q);
            m.table[b] = q;
        }
        Op::Reset => {
            let mut engines = 0;
            for fm in m.flows.values_mut() {
                engines += u64::from(std::mem::take(&mut fm.rx));
                engines += u64::from(std::mem::take(&mut fm.tx));
            }
            assert_eq!(nic.reset(), engines, "reset wipe count");
            // Lost, not written back.
            m.cache.order.clear();
        }
    }
}

/// Replays the byte stream as NIC operations over flows `0..flows`
/// (optionally all installed and steered first) against the model,
/// checking agreement after every step.
fn run_ops(cap: usize, flows: u64, prefill: bool, ops: &[u8]) {
    let mut nic = Nic::new(NicConfig {
        ctx_cache_capacity: cap,
        rx_queues: QUEUES,
        rss_buckets: BUCKETS,
        ..NicConfig::default()
    });
    let tracer = Tracer::default();
    tracer.set_enabled(true);
    nic.set_tracer(tracer.clone());
    let mut m = Model {
        cache: RefLru::new(cap),
        flows: BTreeMap::new(),
        table: nic.rss_table().to_vec(),
        crossings: 0,
    };
    let mut seen = 0;

    let warmup = (0..flows)
        .filter(|_| prefill)
        .flat_map(|f| [Op::InstallRx(f), Op::InstallTx(f), Op::Steer(f)]);
    let script = ops.chunks_exact(2).map(|pair| decode(pair[0], pair[1], flows));
    for (step, op) in warmup.chain(script).enumerate() {
        apply(&mut nic, &mut m, op);

        let c = nic.counters();
        let want = (m.cache.hits, m.cache.misses, m.cache.pcie_ctx_bytes, m.crossings);
        assert_eq!(
            (c.cache_hits, c.cache_misses, c.pcie_ctx_bytes, c.queue_crossings),
            want,
            "step {step} ({op:?}): hits, misses, PCIe context bytes, crossings"
        );
        let records = tracer.records();
        let victims: Vec<(u64, &str)> = records[seen..]
            .iter()
            .filter_map(|r| match &r.event {
                Event::CtxEvict { dir } => Some((r.flow, *dir)),
                _ => None,
            })
            .collect();
        seen = records.len();
        assert_eq!(victims, m.cache.evicted, "step {step} ({op:?}): ctx-evict victims");
        m.cache.evicted.clear();
        for f in 0..flows {
            let fm = m.flows.get(&f);
            assert_eq!(nic.has_rx(FlowId(f)), fm.is_some_and(|fm| fm.rx), "step {step}: rx of {f}");
            assert_eq!(nic.has_tx(FlowId(f)), fm.is_some_and(|fm| fm.tx), "step {step}: tx of {f}");
        }
    }
    assert_eq!(tracer.dropped(), 0, "the trace ring held every record");
}

ano_testkit::prop_test! {
    cases = 300;
    fn lru_matches_reference_model(
        cap in usize_in(1..7),
        flows in usize_in(1..9),
        ops in vec_u8(0..240),
    ) {
        run_ops(cap, flows as u64, false, &ops);
    }
}

ano_testkit::prop_test! {
    cases = 60;
    fn lru_matches_reference_model_at_flow_scale(
        cap in usize_in(7..40),
        flows in usize_in(8..48),
        ops in vec_u8(0..400),
    ) {
        run_ops(cap, flows as u64, true, &ops);
    }
}

// The zero-capacity clamp must behave exactly like capacity one.
ano_testkit::prop_test! {
    cases = 40;
    fn zero_capacity_behaves_as_one(flows in usize_in(1..5), ops in vec_u8(0..120)) {
        run_ops(0, flows as u64, false, &ops);
    }
}

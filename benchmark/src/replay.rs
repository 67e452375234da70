//! Replay micro-drivers: each calls one layer's public API in a tight loop,
//! from outside the program, and reports host nanoseconds (and heap
//! allocations) per operation. `stack.rs` multiplies these by a workload's
//! in-situ operation counts to build its ns-per-packet stack.
//!
//! A driver prices the layer in isolation, caches warm: it bounds the
//! layer's cost from below. What the drivers together do not explain of a
//! workload's host time is reported as `stack.runtime.unattributed_pct`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ano_core::flow::{L5TxSource, TxMsgRef};
use ano_core::msg::{DataRef, EngineEvent, FrameIndex};
use ano_core::nic::{Nic, NicConfig};
use ano_core::rss::{FourTuple, Toeplitz};
use ano_core::rx::RxEngine;
use ano_core::tx::TxEngine;
use ano_crypto::aes::Aes;
use ano_crypto::crc32c::crc32c;
use ano_crypto::gcm;
use ano_nvme::block::{BlockDevice, BlockDeviceConfig};
use ano_nvme::host::{NvmeHostConfig, NvmeTcpHost};
use ano_nvme::offload::{NvmeMode, RrMap};
use ano_nvme::parser::{PduParser, StreamChunk};
use ano_nvme::pdu::{encode_capsule_cmd, encode_capsule_resp, IoOpcode};
use ano_nvme::target::{NvmeTargetConfig, NvmeTcpTarget};
use ano_sim::cost::CostModel;
use ano_sim::link::{Impairments, Link};
use ano_sim::payload::{DataMode, Payload};
use ano_sim::rng::SimRng;
use ano_sim::sched::Scheduler;
use ano_sim::time::{SimDuration, SimTime};
use ano_tcp::conn::TcpEndpoint;
use ano_tcp::segment::{FlowId, RxChunk, SkbFlags};
use ano_tls::ktls::{KtlsRx, KtlsTx, KtlsTxConfig};
use ano_tls::offload::{FlowMode, TlsRxFlow, TlsTxFlow};
use ano_tls::session::TlsSession;

use crate::alloc;
use crate::span::Recorder;
use crate::stats::median;
use crate::workloads::{dc_tcp, lossy_link};

/// Nominal clock that turns host ns/byte into cycles/byte, as the legacy
/// `bench` binary does: a unit convention, not a claim about the host.
pub const NOMINAL_HZ: f64 = 3.0e9;

/// Payload bytes per full-sized packet.
const MSS: usize = 1448;

/// One driver's result.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Median over batches of host ns per operation.
    pub ns: f64,
    /// Heap allocations per operation in the third batch: past the
    /// buffers' growth, and — unlike an average over however many batches
    /// the budget allowed — the same count on every run.
    pub allocs: f64,
}

/// Accumulates timed batches until a host-time budget is spent.
struct Meter {
    budget: Duration,
    spent: Duration,
    per_op: Vec<f64>,
    /// `(operations, allocations)` per batch.
    batches: Vec<(u64, u64)>,
}

impl Meter {
    fn new(budget: Duration) -> Meter {
        Meter {
            budget,
            spent: Duration::ZERO,
            per_op: Vec::new(),
            batches: Vec::new(),
        }
    }

    /// True while the budget is not spent (and at least 3 batches ran).
    fn more(&self) -> bool {
        self.per_op.len() < 3 || self.spent < self.budget
    }

    /// Times `f`, which performs `ops` operations.
    fn batch<R>(&mut self, ops: u64, f: impl FnOnce() -> R) -> R {
        self.batch_counted(|| (f(), ops))
    }

    /// Times `f`, which reports how many operations it performed.
    fn batch_counted<R>(&mut self, f: impl FnOnce() -> (R, u64)) -> R {
        let a0 = alloc::counters().0;
        let t = Instant::now();
        let (r, ops) = black_box(f());
        let dt = t.elapsed();
        self.batches.push((ops, alloc::counters().0 - a0));
        self.spent += dt;
        self.per_op.push(dt.as_nanos() as f64 / ops as f64);
        r
    }

    fn cost(&self) -> Cost {
        Cost {
            ns: median(&self.per_op),
            allocs: self
                .batches
                .get(2)
                .map_or(0.0, |&(ops, n)| n as f64 / ops as f64),
        }
    }
}

/// Every replay timing of one traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub sched_d64: Cost,
    pub sched_d4096: Cost,
    pub link_clean: Cost,
    pub link_impaired: Cost,
    /// Per wire packet of an in-order bulk transfer (data and pure ACKs).
    pub tcp: Cost,
    /// The same with every 100th data segment dropped.
    pub tcp_lossy: Cost,
    pub rx_inseq: Cost,
    /// Per packet the rx engine did *not* offload, on a stream with every
    /// 50th packet missing (searching, tracking, confirming).
    pub rx_resync: Cost,
    pub tx: Cost,
    /// Per context recovery, on a stream that retransmits every 20th packet.
    pub tx_recovery: Cost,
    pub nic_rx_hit: Cost,
    pub nic_rx_miss: Cost,
    pub rss_hash: Cost,
    pub ktls_tx: Cost,
    pub ktls_rx_offloaded: Cost,
    pub ktls_rx_sw: Cost,
    pub nvme_parser: Cost,
    pub nvme_encode: Cost,
    pub nvme_read: Cost,
    pub seal_cpb: f64,
    pub open_cpb: f64,
    pub crc_cpb: f64,
}

/// Runs every driver for about `budget` of host time each, one span per
/// driver.
pub fn run_all(seed: u64, budget: Duration, rec: &mut Recorder) -> Replay {
    let mut r = Replay::default();
    let mut go = |name: &str, slot: &mut Cost, f: &dyn Fn(Meter) -> Cost| {
        *slot = rec.scope(name, |_| f(Meter::new(budget)));
    };
    go("replay.sim.sched.d64", &mut r.sched_d64, &|m| sched(m, 64));
    go("replay.sim.sched.d4096", &mut r.sched_d4096, &|m| {
        sched(m, 4096)
    });
    go("replay.sim.link.clean", &mut r.link_clean, &|m| {
        link(m, seed, Impairments::none())
    });
    go("replay.sim.link.impaired", &mut r.link_impaired, &|m| {
        link(m, seed, lossy_link())
    });
    go("replay.tcp.inorder", &mut r.tcp, &|m| tcp(m, false));
    go("replay.tcp.lossy", &mut r.tcp_lossy, &|m| tcp(m, true));
    go("replay.core.rx.inseq", &mut r.rx_inseq, &|m| {
        rx_engine(m, None).0
    });
    let inseq_ns = r.rx_inseq.ns;
    go("replay.core.rx.resync", &mut r.rx_resync, &|m| {
        let (all, offloaded_share) = rx_engine(m, Some(50));
        // Back out the packets that were offloaded at the in-sequence
        // price; the rest is what one non-offloaded packet costs.
        let rest = (1.0 - offloaded_share).max(1e-9);
        Cost {
            ns: ((all.ns - offloaded_share * inseq_ns) / rest).max(0.0),
            allocs: all.allocs / rest,
        }
    });
    go("replay.core.tx.inseq", &mut r.tx, &|m| tx_engine(m, None).0);
    let tx_ns = r.tx.ns;
    go("replay.core.tx.recovery", &mut r.tx_recovery, &|m| {
        let (all, recoveries_per_pkt) = tx_engine(m, Some(20));
        let per = recoveries_per_pkt.max(1e-9);
        Cost {
            ns: ((all.ns - tx_ns) / per).max(0.0),
            allocs: all.allocs / per,
        }
    });
    go("replay.core.nic.rx_hit", &mut r.nic_rx_hit, &|m| {
        nic_rx(m, false)
    });
    go("replay.core.nic.rx_miss", &mut r.nic_rx_miss, &|m| {
        nic_rx(m, true)
    });
    go("replay.core.rss.hash", &mut r.rss_hash, &|m| rss(m, seed));
    go("replay.tls.ktls.tx", &mut r.ktls_tx, &ktls_tx);
    go(
        "replay.tls.ktls.rx_offloaded",
        &mut r.ktls_rx_offloaded,
        &|m| ktls_rx(m, true),
    );
    go("replay.tls.ktls.rx_sw", &mut r.ktls_rx_sw, &|m| {
        ktls_rx(m, false)
    });
    go("replay.nvme.parser", &mut r.nvme_parser, &nvme_parser);
    go("replay.nvme.pdu.encode", &mut r.nvme_encode, &nvme_encode);
    go("replay.nvme.host.read", &mut r.nvme_read, &nvme_read);
    let mut cpb = |name: &str, slot: &mut f64, f: &dyn Fn(Meter) -> Cost| {
        *slot = rec.scope(name, |_| f(Meter::new(budget))).ns * NOMINAL_HZ / 1e9;
    };
    cpb("replay.crypto.gcm.seal", &mut r.seal_cpb, &|m| {
        gcm_kernel(m, true)
    });
    cpb("replay.crypto.gcm.open", &mut r.open_cpb, &|m| {
        gcm_kernel(m, false)
    });
    cpb("replay.crypto.crc32c", &mut r.crc_cpb, &crc_kernel);
    r
}

/// `Scheduler::schedule` + `pop_batch` at a steady heap depth: one
/// operation is one event scheduled and later popped.
fn sched(mut m: Meter, depth: u64) -> Cost {
    const BATCH: u64 = 100_000;
    let mut s: Scheduler<u64> = Scheduler::new();
    // Distinct, irregular timestamps so sift paths vary like a real run's.
    let mut rng = SimRng::seed(depth);
    let horizon = depth * 100;
    for i in 0..depth {
        s.schedule(SimTime::from_nanos(rng.range_u64(0, horizon)), i);
    }
    let mut out = Vec::with_capacity(64);
    while m.more() {
        m.batch(BATCH, || {
            let mut done = 0;
            while done < BATCH {
                out.clear();
                let now = s.pop_batch(64, &mut out).expect("heap never drains");
                for &ev in &out {
                    let at = now + SimDuration::from_nanos(1 + rng.range_u64(0, horizon));
                    s.schedule(at, ev);
                }
                done += out.len() as u64;
            }
        });
    }
    m.cost()
}

/// `Link::transmit_into`, one full-sized frame per operation.
fn link(mut m: Meter, seed: u64, impair: Impairments) -> Cost {
    const BATCH: u64 = 200_000;
    let mut l = Link::new(100_000_000_000, SimDuration::from_micros(2), impair);
    let mut rng = SimRng::seed(seed);
    let mut out = Vec::with_capacity(4);
    let mut now = SimTime::ZERO;
    while m.more() {
        m.batch(BATCH, || {
            for _ in 0..BATCH {
                out.clear();
                l.transmit_into(now, MSS + 66, &mut rng, &mut out);
                now += SimDuration::from_nanos(125);
            }
            out.len()
        });
    }
    m.cost()
}

/// A window-bound bulk transfer between two `TcpEndpoint`s: `send`,
/// `poll_transmit`, `on_packet_wnd`, `take_ready`/`consume`, and the ACK
/// back. One operation is one wire packet (a data segment or a pure ACK).
fn tcp(mut m: Meter, lossy: bool) -> Cost {
    const BATCH: u64 = 50_000;
    let mut a = TcpEndpoint::new(FlowId(1), dc_tcp());
    let mut b = TcpEndpoint::new(FlowId(2), dc_tcp());
    let mut now = SimTime::ZERO;
    let mut data_segments = 0u64;
    while m.more() {
        m.batch(BATCH, || {
            let mut wire = 0u64;
            while wire < BATCH {
                if a.unsent_bytes() < 128 << 10 {
                    a.send(Payload::synthetic(256 << 10));
                }
                now += SimDuration::from_micros(10);
                let mut progressed = false;
                while let Some(seg) = a.poll_transmit(now) {
                    progressed = true;
                    wire += 1;
                    data_segments += 1;
                    if lossy && data_segments.is_multiple_of(100) {
                        continue;
                    }
                    b.on_packet_wnd(
                        seg.seq,
                        seg.ack,
                        seg.wnd,
                        &seg.sack,
                        seg.payload,
                        SkbFlags::default(),
                        now,
                    );
                    if b.has_ready() {
                        let ready = b.take_ready();
                        let n: u64 = ready.iter().map(|c| c.payload.len() as u64).sum();
                        b.recycle_ready(ready);
                        b.consume(n);
                    }
                    if let Some(ack) = b.poll_transmit(now) {
                        wire += 1;
                        a.on_packet_wnd(
                            ack.seq,
                            ack.ack,
                            ack.wnd,
                            &ack.sack,
                            ack.payload,
                            SkbFlags::default(),
                            now,
                        );
                    }
                }
                if !progressed {
                    // Everything in flight was lost: let the RTO fire.
                    let deadline = a.rto_deadline().expect("stalled without an armed RTO");
                    now = now.max(deadline);
                    a.on_rto(now);
                }
            }
        });
    }
    m.cost()
}

/// A modeled TLS byte stream: a `KtlsTx` frames synthetic application
/// bytes into records and registers them in the shared [`FrameIndex`] the
/// NIC-side engines read their framing from.
struct TlsStream {
    tx: KtlsTx,
    cost: CostModel,
}

impl TlsStream {
    fn new() -> TlsStream {
        let cfg = KtlsTxConfig {
            offload: true,
            zerocopy: true,
            mode: DataMode::Modeled,
        };
        TlsStream {
            tx: KtlsTx::new(TlsSession::from_seed(1), cfg),
            cost: CostModel::calibrated(),
        }
    }

    fn frames(&self) -> FrameIndex {
        self.tx.frames()
    }

    /// Frames records until the stream reaches `upto`.
    fn ensure(&mut self, upto: u64) {
        while self.tx.stream_off() < upto {
            self.tx.send(&Payload::synthetic(256 << 10), &self.cost);
        }
    }

    /// Drops framing below `acked`, as the cumulative ACK does in situ.
    fn release(&mut self, acked: u64) {
        self.tx.release_below(acked);
    }

    fn rx_engine(&self) -> RxEngine {
        let flow = TlsRxFlow::new(TlsSession::from_seed(1), FlowMode::Modeled(self.frames()));
        RxEngine::new(Box::new(flow), 0, 0)
    }
}

impl L5TxSource for TlsStream {
    fn msg_at(&self, off: u64) -> Option<TxMsgRef> {
        self.tx.record_at(off)
    }

    fn stream_bytes(&self, from: u64, to: u64) -> Payload {
        Payload::synthetic((to - from) as usize)
    }
}

/// `RxEngine::on_packet` over a modeled TLS stream, one packet per
/// operation. With `drop_every = Some(n)` every n-th packet never arrives:
/// the engine searches, tracks and asks for confirmation, which the driver
/// answers at once from the stream's framing. Also returns the share of
/// packets the engine offloaded.
fn rx_engine(mut m: Meter, drop_every: Option<u64>) -> (Cost, f64) {
    const BATCH: u64 = 50_000;
    let mut s = TlsStream::new();
    let frames = s.frames();
    let mut e = s.rx_engine();
    let (mut seq, mut n) = (0u64, 0u64);
    while m.more() {
        s.ensure(seq + (BATCH + 64) * 2 * MSS as u64);
        m.batch(BATCH, || {
            let mut fed = 0;
            while fed < BATCH {
                n += 1;
                if drop_every.is_some_and(|k| n.is_multiple_of(k)) {
                    seq += MSS as u64;
                    continue;
                }
                black_box(e.on_packet(seq, &mut DataRef::Modeled(MSS)));
                seq += MSS as u64;
                fed += 1;
                if drop_every.is_some() {
                    for ev in e.take_events() {
                        let EngineEvent::ResyncRequest { layer, tcpsn } = ev;
                        let hit = frames.at(tcpsn);
                        e.on_resync_response(
                            layer,
                            tcpsn,
                            hit.is_some(),
                            hit.map_or(0, |(_, i)| i),
                        );
                    }
                }
            }
        });
        // Keep a tail of framing behind the cursor: the engine may still
        // be confirming a candidate a few records back.
        s.release(seq.saturating_sub(1 << 20));
    }
    let st = e.stats();
    if drop_every.is_none() {
        assert_eq!(
            st.pkts, st.pkts_offloaded,
            "in-sequence replay left the fast path"
        );
    } else {
        assert!(st.resync_ok > 0, "lossy replay never resynchronised");
    }
    (m.cost(), st.pkts_offloaded as f64 / st.pkts.max(1) as f64)
}

/// `TxEngine::on_packet` over a modeled TLS stream. With
/// `retransmit_every = Some(n)` every n-th packet is followed by a
/// retransmission of the packet three back, so the engine recovers its
/// context twice (back, then forward). Also returns recoveries per packet.
fn tx_engine(mut m: Meter, retransmit_every: Option<u64>) -> (Cost, f64) {
    const BATCH: u64 = 50_000;
    let mut s = TlsStream::new();
    let flow = TlsTxFlow::new(TlsSession::from_seed(1), FlowMode::Modeled(s.frames()));
    let mut e = TxEngine::new(Box::new(flow), 0, 0);
    let (mut seq, mut n) = (0u64, 0u64);
    while m.more() {
        s.ensure(seq + (BATCH + 64) * MSS as u64);
        m.batch(BATCH, || {
            for _ in 0..BATCH {
                n += 1;
                let at = match retransmit_every {
                    Some(k) if n.is_multiple_of(k) && seq >= 3 * MSS as u64 => seq - 3 * MSS as u64,
                    _ => {
                        seq += MSS as u64;
                        seq - MSS as u64
                    }
                };
                black_box(e.on_packet(at, &mut DataRef::Modeled(MSS), &s));
            }
        });
        s.release(seq.saturating_sub(1 << 20));
    }
    let st = e.stats();
    assert_eq!(
        st.pkts, st.pkts_offloaded,
        "tx replay fell off the offload path"
    );
    assert_eq!(retransmit_every.is_some(), st.recoveries > 0);
    (m.cost(), st.recoveries as f64 / st.pkts.max(1) as f64)
}

/// `Nic::rx_process` for one data packet of an rx-offloaded flow. Hits use
/// a roomy context cache; misses alternate two flows through a one-entry
/// cache, so every packet pays an eviction and a fill.
fn nic_rx(mut m: Meter, miss: bool) -> Cost {
    const BATCH: u64 = 50_000;
    let mut nic = Nic::new(NicConfig {
        ctx_cache_capacity: if miss { 1 } else { 1024 },
        ..NicConfig::default()
    });
    let mut streams = [TlsStream::new(), TlsStream::new()];
    let flows = [FlowId(10), FlowId(11)];
    for (s, f) in streams.iter().zip(flows) {
        nic.install_rx(f, s.rx_engine());
    }
    let mut seq = 0u64;
    while m.more() {
        for s in &mut streams {
            s.ensure(seq + (BATCH + 64) * MSS as u64);
        }
        m.batch(BATCH, || {
            for _ in 0..BATCH / 2 {
                for f in flows {
                    let mut p = Payload::synthetic(MSS);
                    black_box(nic.rx_process(f, seq, &mut p));
                }
                seq += MSS as u64;
            }
        });
        for s in &mut streams {
            s.release(seq.saturating_sub(1 << 20));
        }
    }
    let c = nic.counters();
    if miss {
        assert!(c.cache_misses > c.cache_hits, "miss replay mostly hit");
    } else {
        assert!(c.cache_misses <= 2, "hit replay missed");
    }
    m.cost()
}

/// `Toeplitz::hash_tuple` over varying source ports.
fn rss(mut m: Meter, seed: u64) -> Cost {
    const BATCH: u64 = 100_000;
    let key = Toeplitz::from_seed(seed);
    let mut port = 0u16;
    while m.more() {
        m.batch(BATCH, || {
            let mut acc = 0u32;
            for _ in 0..BATCH {
                port = port.wrapping_add(1);
                acc ^= key.hash_tuple(&FourTuple {
                    src_ip: 0x0A00_0001,
                    dst_ip: 0x0A00_0005,
                    src_port: port,
                    dst_port: 443,
                });
            }
            acc
        });
    }
    m.cost()
}

/// `KtlsTx::send` of 256 KiB modeled messages; one operation per record.
fn ktls_tx(mut m: Meter) -> Cost {
    const SENDS: u64 = 2_000;
    let mut s = TlsStream::new();
    let msg = Payload::synthetic(256 << 10);
    while m.more() {
        let before = s.tx.stats().records;
        m.batch(SENDS * 16, || {
            for _ in 0..SENDS {
                black_box(s.tx.send(&msg, &s.cost));
            }
        });
        assert_eq!(s.tx.stats().records - before, SENDS * 16);
        let acked = s.tx.stream_off();
        s.release(acked);
    }
    m.cost()
}

/// `KtlsRx::on_chunks_into` over packet-sized in-order chunks of a modeled
/// stream, NIC-decrypted or not; one operation per record.
fn ktls_rx(mut m: Meter, offloaded: bool) -> Cost {
    const CHUNKS: usize = 50_000;
    let mut s = TlsStream::new();
    let mut rx = KtlsRx::new(
        TlsSession::from_seed(1),
        DataMode::Modeled,
        Some(s.frames()),
    );
    let flags = SkbFlags {
        tls_decrypted: offloaded,
        ..SkbFlags::default()
    };
    let mut off = 0u64;
    let mut out = Vec::new();
    let mut chunks: Vec<RxChunk> = Vec::with_capacity(CHUNKS);
    while m.more() {
        s.ensure(off + (CHUNKS * MSS) as u64 + (1 << 20));
        chunks.extend((0..CHUNKS as u64).map(|i| RxChunk {
            offset: off + i * MSS as u64,
            payload: Payload::synthetic(MSS),
            flags,
        }));
        off += (CHUNKS * MSS) as u64;
        let before = rx.stats().class.total();
        m.batch_counted(|| {
            black_box(rx.on_chunks_into(chunks.drain(..), &s.cost, &mut out));
            out.clear();
            ((), rx.stats().class.total() - before)
        });
        s.release(off.saturating_sub(1 << 20));
    }
    let class = rx.stats().class;
    assert_eq!(rx.stats().alerts, 0);
    assert_eq!(
        if offloaded { class.full } else { class.none },
        class.total()
    );
    m.cost()
}

/// `PduParser::on_chunk` over real command capsules; one PDU per operation.
fn nvme_parser(mut m: Meter) -> Cost {
    const BATCH: u64 = 20_000;
    let pdu = encode_capsule_cmd(7, IoOpcode::Read, 4096, 65_536, None);
    let mut parser = PduParser::new(NvmeMode::Functional);
    let mut off = 0u64;
    while m.more() {
        let parsed = m.batch(BATCH, || {
            let mut parsed = 0;
            for _ in 0..BATCH {
                parsed += parser
                    .on_chunk(StreamChunk {
                        offset: off,
                        payload: Payload::real(pdu.clone()),
                        flags: SkbFlags::default(),
                    })
                    .len();
                off += pdu.len() as u64;
            }
            parsed
        });
        assert_eq!(parsed as u64, BATCH);
    }
    assert_eq!(parser.errors, 0);
    m.cost()
}

/// `encode_capsule_cmd` + `encode_capsule_resp`; one PDU per operation.
fn nvme_encode(mut m: Meter) -> Cost {
    const BATCH: u64 = 50_000;
    let mut cid = 0u16;
    while m.more() {
        m.batch(BATCH, || {
            let mut bytes = 0;
            for _ in 0..BATCH / 2 {
                cid = cid.wrapping_add(1);
                bytes += encode_capsule_cmd(cid, IoOpcode::Read, 4096, 65_536, None).len();
                bytes += encode_capsule_resp(cid, 0).len();
            }
            bytes
        });
    }
    m.cost()
}

/// One 64 KiB read through a modeled initiator/controller pair:
/// `submit_read`, the target's `on_chunks` + `emit`, the initiator's
/// `on_chunks` over packet-sized NIC-placed chunks, `take_completions`.
fn nvme_read(mut m: Meter) -> Cost {
    const BATCH: u64 = 2_000;
    const LEN: u32 = 64 * 1024;
    let cost = CostModel::calibrated();
    let (host_frames, target_frames) = (FrameIndex::new(), FrameIndex::new());
    let mut host = NvmeTcpHost::with_frames(
        NvmeHostConfig {
            mode: DataMode::Modeled,
            copy_offload: true,
            crc_offload: true,
        },
        RrMap::new(),
        PduParser::new(NvmeMode::Modeled(target_frames.clone())),
        host_frames.clone(),
    );
    let mut target = NvmeTcpTarget::with_frames(
        NvmeTargetConfig {
            crc_tx_offload: true,
            crc_rx_offload: true,
            ..NvmeTargetConfig::default()
        },
        BlockDevice::new(BlockDeviceConfig::default()),
        PduParser::new(NvmeMode::Modeled(host_frames)),
        target_frames,
    );
    let placed = SkbFlags {
        nvme_crc_ok: true,
        nvme_placed: true,
        ..SkbFlags::default()
    };
    let (mut cmd_off, mut resp_off, mut id) = (0u64, 0u64, 0u64);
    while m.more() {
        let done = m.batch(BATCH, || {
            let mut done = 0;
            for _ in 0..BATCH {
                id += 1;
                let (cmd, _) = host.submit_read(id, (id % 1024) * 4096, LEN, &cost);
                let len = cmd.len() as u64;
                let chunk = StreamChunk {
                    offset: cmd_off,
                    payload: cmd,
                    flags: SkbFlags::default(),
                };
                cmd_off += len;
                let (replies, _) = target.on_chunks([chunk], SimTime::ZERO, &cost);
                for reply in replies {
                    let (wire, _) = target.emit(reply.reply, &cost);
                    for pdu in wire {
                        let mut at = 0;
                        while at < pdu.len() {
                            let take = MSS.min(pdu.len() - at);
                            host.on_chunks(
                                [StreamChunk {
                                    offset: resp_off,
                                    payload: pdu.slice(at, at + take),
                                    flags: placed,
                                }],
                                &cost,
                            );
                            at += take;
                            resp_off += take as u64;
                        }
                    }
                }
                done += host.take_completions().iter().filter(|c| c.ok).count();
            }
            done
        });
        assert_eq!(done as u64, BATCH, "every replayed read completes");
        host.release_below(cmd_off);
        target.release_below(resp_off);
    }
    m.cost()
}

/// AES-128-GCM over 16 KiB buffers; the operation is one *byte*, so `ns`
/// is ns/byte.
fn gcm_kernel(mut m: Meter, seal: bool) -> Cost {
    const LEN: usize = 16 * 1024;
    const REPS: u64 = 8;
    let aes = Aes::new_128(&[7; 16]);
    let plain = vec![0xA5u8; LEN];
    let mut sealed = plain.clone();
    let tag = gcm::seal(&aes, &[1; 12], b"aad", &mut sealed);
    let mut buf = vec![0u8; LEN];
    while m.more() {
        m.batch(REPS * LEN as u64, || {
            for _ in 0..REPS {
                if seal {
                    buf.copy_from_slice(&plain);
                    black_box(gcm::seal(&aes, &[1; 12], b"aad", &mut buf));
                } else {
                    buf.copy_from_slice(&sealed);
                    gcm::open(&aes, &[1; 12], b"aad", &mut buf, &tag).expect("tag verifies");
                }
            }
        });
    }
    m.cost()
}

/// CRC32C over 16 KiB buffers, ns/byte.
fn crc_kernel(mut m: Meter) -> Cost {
    const LEN: usize = 16 * 1024;
    const REPS: u64 = 64;
    let data = vec![0xA5u8; LEN];
    while m.more() {
        m.batch(REPS * LEN as u64, || {
            let mut acc = 0u32;
            for _ in 0..REPS {
                acc ^= crc32c(black_box(&data));
            }
            acc
        });
    }
    m.cost()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_driver_runs_and_reports_positive_costs() {
        // Debug build, 1 ms budgets: checks the drivers' own assertions
        // (fast path held, resync happened, reads completed), not speed.
        let mut rec = Recorder::new("test");
        let r = run_all(42, Duration::from_millis(1), &mut rec);
        for (name, c) in [
            ("sched", r.sched_d64),
            ("sched deep", r.sched_d4096),
            ("link", r.link_clean),
            ("link impaired", r.link_impaired),
            ("tcp", r.tcp),
            ("tcp lossy", r.tcp_lossy),
            ("rx", r.rx_inseq),
            ("tx", r.tx),
            ("nic hit", r.nic_rx_hit),
            ("nic miss", r.nic_rx_miss),
            ("rss", r.rss_hash),
            ("ktls tx", r.ktls_tx),
            ("ktls rx", r.ktls_rx_offloaded),
            ("ktls rx sw", r.ktls_rx_sw),
            ("parser", r.nvme_parser),
            ("encode", r.nvme_encode),
            ("read", r.nvme_read),
        ] {
            assert!(c.ns > 0.0 && c.allocs >= 0.0, "{name}: {c:?}");
        }
        assert!(r.rx_resync.ns >= 0.0 && r.tx_recovery.ns >= 0.0);
        assert!(r.seal_cpb > 0.0 && r.open_cpb > 0.0 && r.crc_cpb > 0.0);
        assert_eq!(rec.spans().len(), 22, "one span per driver");
    }
}

//! The NIC device model: per-flow engines, the bounded context cache, and
//! PCIe accounting.
//!
//! This is the "hardware" half of the architecture. Flows are registered by
//! the driver (`l5o_create`), each carrying an [`RxEngine`] and/or
//! [`TxEngine`]. Everything the NIC knows about a flow lives in one record
//! in one table, keyed by flow id: its engines, its steering entry and its
//! positions in the context cache ([`LruSet`]). Every packet of an
//! offloaded flow touches that cache through the record, so experiments can
//! observe the paper's §6.5 scaling behaviour; recovery replays and cache
//! fills are accumulated as PCIe bytes for Fig. 16b.

use std::collections::BTreeMap;

use ano_sim::payload::Payload;
use ano_tcp::segment::{FlowId, SkbFlags};

use crate::cache::{CacheOutcome, LruSet, Slot};
use crate::flow::L5TxSource;
use crate::msg::{DataRef, EngineEvent};
use crate::rss::{FourTuple, RssSteering};
use crate::rx::{RxEngine, RxStats};
use crate::tx::{TxEngine, TxStats};

/// Bytes of one per-flow offload context in NIC memory: the PCIe cost of
/// each cache fill and write-back. §6.5's scaling numbers rest on it: 4 MiB
/// of NIC memory holds 4 MiB / 208 B ≈ 20 000 contexts (the default
/// [`NicConfig::ctx_cache_capacity`]). A paper constant rather than
/// `size_of` of the engine: Rust's layout is the compiler's choice, and the
/// PCIe accounting must not move with it.
pub const CTX_BYTES: u64 = 208;

/// Seed for the Toeplitz secret key (expanded by the in-repo PRNG, so
/// steering is identical across runs and processes): "RSS!".
const RSS_KEY_SEED: u64 = 0x5253_5321;

/// NIC configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NicConfig {
    /// How many per-flow contexts fit in NIC memory (paper: 4 MiB /
    /// [`CTX_BYTES`] ≈ 20 K flows, §6.5).
    pub ctx_cache_capacity: usize,
    /// Number of receive queues. The default of 1 is the classic
    /// single-queue device and disables all RSS machinery (no steering
    /// state is consulted, no queue events are traced), so existing
    /// scenarios and golden traces are byte-identical to the pre-RSS
    /// model. Values > 1 enable Toeplitz steering ([`crate::rss`]).
    pub rx_queues: u16,
    /// RSS indirection-table size (buckets). Flows hash into a bucket;
    /// the table maps buckets to queues and can be reprogrammed per
    /// bucket at runtime.
    pub rss_buckets: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            ctx_cache_capacity: 20_000,
            rx_queues: 1,
            rss_buckets: 128,
        }
    }
}

/// A rejected [`NicConfig`] field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NicConfigError {
    /// `ctx_cache_capacity == 0`: a NIC with no room for even the context
    /// it is working on cannot offload anything.
    ZeroCacheCapacity,
    /// `rx_queues == 0`: packets have to land somewhere.
    ZeroRxQueues,
    /// `rss_buckets == 0`: the indirection table cannot be empty.
    ZeroRssBuckets,
}

impl std::fmt::Display for NicConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NicConfigError::ZeroCacheCapacity => {
                f.write_str("ctx_cache_capacity must be at least 1")
            }
            NicConfigError::ZeroRxQueues => f.write_str("rx_queues must be at least 1"),
            NicConfigError::ZeroRssBuckets => f.write_str("rss_buckets must be at least 1"),
        }
    }
}

impl NicConfig {
    /// Checks the configuration. [`Nic::new`] does not panic on a bad
    /// config — it clamps and records a traced warning — but callers that
    /// would rather surface an error can validate first.
    pub fn validate(&self) -> Result<(), NicConfigError> {
        if self.ctx_cache_capacity == 0 {
            return Err(NicConfigError::ZeroCacheCapacity);
        }
        if self.rx_queues == 0 {
            return Err(NicConfigError::ZeroRxQueues);
        }
        if self.rss_buckets == 0 {
            return Err(NicConfigError::ZeroRssBuckets);
        }
        Ok(())
    }
}

/// Direction tag for cache keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Rx,
    Tx,
}

/// Aggregate NIC counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicCounters {
    /// Context-cache hits.
    pub cache_hits: u64,
    /// Context-cache misses (each costs a PCIe fill + latency).
    pub cache_misses: u64,
    /// PCIe bytes for tx context recovery replays (Fig. 6 / Fig. 16b).
    pub pcie_replay_bytes: u64,
    /// PCIe bytes for context-cache fills and write-backs. A miss pays one
    /// context fill; displacing a resident context (eviction) or orderly
    /// teardown pays one write-back; contexts lost to invalidation or a
    /// device reset are *not* written back.
    pub pcie_ctx_bytes: u64,
    /// Resync responses discarded because they carried a pre-reset device
    /// epoch (a late answer must not resurrect a dead context).
    pub stale_resyncs: u64,
    /// Times a flow's packets started arriving on a different rx queue
    /// (indirection-table reprogramming). Each crossing evicts the flow's
    /// resident rx context — the thrash cost of steering-based
    /// rebalancing. Always 0 on a single-queue NIC.
    pub queue_crossings: u64,
    /// The [`NicConfig`] failed [`NicConfig::validate`] and [`Nic::new`]
    /// clamped it to its floor. Set at construction, so it holds whether
    /// or not tracing is on.
    pub config_clamped: bool,
}

/// Result of NIC receive processing for one packet.
#[derive(Debug)]
pub struct RxProcess {
    /// Flags the driver writes into the SKB.
    pub flags: SkbFlags,
    /// Resync requests to forward to the L5P (`l5o_resync_rx_req`).
    pub events: Vec<EngineEvent>,
    /// Whether the flow context missed in the NIC cache.
    pub cache_miss: bool,
}

impl RxProcess {
    /// What a packet no offload engine looked at gets: default flags.
    fn pass_through() -> RxProcess {
        RxProcess {
            flags: SkbFlags::default(),
            events: Vec::new(),
            cache_miss: false,
        }
    }
}

/// Result of NIC transmit processing for one packet.
#[derive(Debug)]
pub struct TxProcess {
    /// The offloaded operation ran on this packet.
    pub offloaded: bool,
    /// PCIe bytes replayed for context recovery.
    pub replay_bytes: u64,
    /// Whether the flow context missed in the NIC cache.
    pub cache_miss: bool,
}

impl TxProcess {
    /// What a packet of a flow without a tx offload gets.
    fn pass_through() -> TxProcess {
        TxProcess { offloaded: false, replay_bytes: 0, cache_miss: false }
    }
}

/// Everything the NIC holds for one flow — the paper's §4 per-flow HW
/// context, its place in the context cache and the flow's filter-table
/// (steering) entry. The engines and their cache slots come and go with
/// offload install, teardown and device reset; the steering fields are a
/// property of the *flow*, not of its offload context, and live until
/// [`Nic::destroy`].
#[derive(Default)]
struct FlowCtx {
    rx: Option<RxEngine>,
    tx: Option<TxEngine>,
    /// The rx context's position in the context cache; `None` while it is
    /// not resident. Only an installed engine's context is ever resident.
    rx_slot: Option<Slot>,
    /// The tx context's position in the context cache.
    tx_slot: Option<Slot>,
    /// The flow's hash bucket, computed once at [`Nic::steer_rx`] so the
    /// per-packet path is a table lookup, not a 96-bit hash. `None` for
    /// unsteered flows.
    rx_bucket: Option<usize>,
    /// The rx queue the flow most recently landed on (crossing detection;
    /// 0 until steered — a single-queue NIC has only queue 0).
    rx_queue: u16,
}

impl FlowCtx {
    fn slot(&mut self, dir: Dir) -> &mut Option<Slot> {
        match dir {
            Dir::Rx => &mut self.rx_slot,
            Dir::Tx => &mut self.tx_slot,
        }
    }
}

/// One NIC with autonomous-offload engines.
pub struct Nic {
    cfg: NicConfig,
    /// The one per-flow table, iterated in flow-id order.
    flows: BTreeMap<FlowId, FlowCtx>,
    /// Recency order of the resident contexts; each flow's record holds
    /// its contexts' slots.
    cache: LruSet<(FlowId, Dir)>,
    counters: NicCounters,
    tracer: ano_trace::Tracer,
    /// RSS steering state (hash key + indirection table). Built even for
    /// a single-queue NIC (steering to queue 0 is trivially correct) but
    /// only consulted when `cfg.rx_queues > 1`.
    steering: RssSteering,
    /// Per-queue received-packet counters (queue-imbalance accounting).
    queue_rx_pkts: Vec<u64>,
    /// Device epoch: bumped whenever contexts are destroyed outside the
    /// driver's control (reset, invalidation). Driver↔device exchanges
    /// carry the epoch they were issued under; answers from an older
    /// epoch are discarded.
    epoch: u64,
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("rx_flows", &self.flows.values().filter(|c| c.rx.is_some()).count())
            .field("tx_flows", &self.flows.values().filter(|c| c.tx.is_some()).count())
            .field("counters", &self.counters)
            .finish()
    }
}

impl Nic {
    /// Creates a NIC with the given configuration. An out-of-range config
    /// ([`NicConfig::validate`]) is clamped to its floor instead of
    /// panicking — a hostile configuration degrades the cache, it must not
    /// abort the simulation — and the clamp is reported as
    /// [`NicCounters::config_clamped`].
    pub fn new(mut cfg: NicConfig) -> Nic {
        let config_clamped = cfg.validate().is_err();
        if config_clamped {
            cfg.ctx_cache_capacity = cfg.ctx_cache_capacity.max(1);
            cfg.rx_queues = cfg.rx_queues.max(1);
            cfg.rss_buckets = cfg.rss_buckets.max(1);
        }
        Nic {
            cfg,
            flows: BTreeMap::new(),
            cache: LruSet::new(cfg.ctx_cache_capacity),
            counters: NicCounters { config_clamped, ..NicCounters::default() },
            tracer: ano_trace::Tracer::default(),
            steering: RssSteering::new(cfg.rx_queues, cfg.rss_buckets, RSS_KEY_SEED),
            queue_rx_pkts: vec![0; cfg.rx_queues as usize],
            epoch: 0,
        }
    }

    /// True when RSS is in play (`rx_queues > 1`). The single-queue
    /// default never consults steering state or traces queue events.
    fn multi_queue(&self) -> bool {
        self.cfg.rx_queues > 1
    }

    /// Installs the tracing handle engines registered from now on inherit
    /// (each scoped to its flow id). The default handle is disabled.
    pub fn set_tracer(&mut self, tracer: ano_trace::Tracer) {
        self.tracer = tracer;
    }

    /// The device epoch (see the field docs). Snapshot it when issuing a
    /// driver↔device exchange; pass it back with the answer.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registers a receive offload for `flow` (`l5o_create`, rx half).
    pub fn install_rx(&mut self, flow: FlowId, mut engine: RxEngine) {
        engine.set_tracer(self.tracer.scoped(flow.0));
        self.flows.entry(flow).or_default().rx = Some(engine);
    }

    /// Registers a transmit offload for `flow` (`l5o_create`, tx half).
    pub fn install_tx(&mut self, flow: FlowId, mut engine: TxEngine) {
        engine.set_tracer(self.tracer.scoped(flow.0));
        self.flows.entry(flow).or_default().tx = Some(engine);
    }

    /// Tears down a flow's offloads (`l5o_destroy`). Orderly teardown
    /// writes resident contexts back over PCIe.
    pub fn destroy(&mut self, flow: FlowId) {
        self.writeback_remove(flow, Dir::Rx);
        self.writeback_remove(flow, Dir::Tx);
        self.flows.remove(&flow);
    }

    /// Removes a flow's cache entry, charging the write-back if it was
    /// resident.
    fn writeback_remove(&mut self, flow: FlowId, dir: Dir) {
        let Some(ctx) = self.flows.get_mut(&flow) else {
            return;
        };
        if self.cache.remove(ctx.slot(dir)) {
            self.counters.pcie_ctx_bytes += CTX_BYTES;
        }
    }

    /// Uninstalls a flow's receive offload without tearing the flow down
    /// (the degradation policy's breaker opening: the connection lives on
    /// in software). The engine's transition ladder is closed first so the
    /// flow's trace shows it leaving offload. Returns whether an engine
    /// was present.
    pub fn uninstall_rx(&mut self, flow: FlowId) -> bool {
        let mut engine = self.flows.get_mut(&flow).and_then(|c| c.rx.take());
        if let Some(e) = engine.as_mut() {
            e.quiesce();
        }
        self.writeback_remove(flow, Dir::Rx);
        engine.is_some()
    }

    /// Uninstalls a flow's transmit offload (breaker opening, tx half).
    pub fn uninstall_tx(&mut self, flow: FlowId) -> bool {
        let present = self.flows.get_mut(&flow).and_then(|c| c.tx.take()).is_some();
        self.writeback_remove(flow, Dir::Tx);
        present
    }

    /// Scripted fault: the device loses one flow's receive context (e.g. a
    /// firmware table corruption detected and discarded). The context is
    /// *not* written back; the device epoch advances so in-flight resync
    /// answers for the dead context are discarded. Returns whether a
    /// context existed.
    pub fn invalidate_rx(&mut self, flow: FlowId) -> bool {
        let Some(ctx) = self.flows.get_mut(&flow) else {
            return false;
        };
        let Some(mut e) = ctx.rx.take() else {
            return false;
        };
        e.quiesce();
        self.cache.remove(&mut ctx.rx_slot);
        self.epoch += 1;
        self.tracer
            .scoped(flow.0)
            .record(|| ano_trace::Event::DeviceFault { kind: "invalidate_rx" });
        true
    }

    /// Scripted fault: one flow's receive context is damaged in place. The
    /// damage is latent — the engine's integrity check trips on the next
    /// packet and it re-derives state via the resync ladder (it never
    /// processes payload with a bad cursor). Returns whether a context
    /// existed.
    pub fn corrupt_rx(&mut self, flow: FlowId) -> bool {
        let Some(e) = self.rx_engine_mut(flow) else {
            return false;
        };
        e.corrupt_context();
        self.tracer
            .scoped(flow.0)
            .record(|| ano_trace::Event::DeviceFault { kind: "corrupt_rx" });
        true
    }

    /// Scripted fault: full device reset. Every engine context and cache
    /// entry is wiped (lost, not written back), and the epoch advances so
    /// any in-flight resync answer is discarded on arrival. Each rx
    /// engine's transition ladder is closed first, keeping per-flow traces
    /// chain-legal across the reinstall that follows. Returns how many
    /// engine contexts were wiped.
    pub fn reset(&mut self) -> u64 {
        let mut wiped = 0;
        for ctx in self.flows.values_mut() {
            if let Some(mut e) = ctx.rx.take() {
                e.quiesce();
                wiped += 1;
            }
            wiped += u64::from(ctx.tx.take().is_some());
            ctx.rx_slot = None;
            ctx.tx_slot = None;
        }
        self.cache.wipe();
        self.epoch += 1;
        self.tracer.record(|| ano_trace::Event::DeviceReset { wiped });
        wiped
    }

    /// True if `flow` has a receive offload installed.
    pub fn has_rx(&self, flow: FlowId) -> bool {
        self.rx_engine(flow).is_some()
    }

    /// True if `flow` has a transmit offload installed.
    pub fn has_tx(&self, flow: FlowId) -> bool {
        self.flows.get(&flow).is_some_and(|c| c.tx.is_some())
    }

    /// Aggregate counters.
    pub fn counters(&self) -> NicCounters {
        self.counters
    }

    /// Per-flow receive-engine stats.
    pub fn rx_stats(&self, flow: FlowId) -> Option<RxStats> {
        self.rx_engine(flow).map(|e| e.stats())
    }

    /// Per-flow transmit-engine stats.
    pub fn tx_stats(&self, flow: FlowId) -> Option<TxStats> {
        self.flows.get(&flow).and_then(|c| c.tx.as_ref()).map(|e| e.stats())
    }

    /// Immutable access to a flow's receive engine.
    pub fn rx_engine(&self, flow: FlowId) -> Option<&RxEngine> {
        self.flows.get(&flow).and_then(|c| c.rx.as_ref())
    }

    fn rx_engine_mut(&mut self, flow: FlowId) -> Option<&mut RxEngine> {
        self.flows.get_mut(&flow).and_then(|c| c.rx.as_mut())
    }

    /// Number of receive queues.
    pub fn rx_queues(&self) -> u16 {
        self.cfg.rx_queues
    }

    /// Registers RSS steering for a flow's receive side: hashes the
    /// 4-tuple once, records the bucket, and returns the queue the flow
    /// currently steers to. On a multi-queue NIC the initial placement is
    /// traced as a `nic.queue` event; a single-queue NIC records nothing.
    pub fn steer_rx(&mut self, flow: FlowId, tuple: FourTuple) -> u16 {
        let bucket = self.steering.bucket_of(&tuple);
        let q = self.steering.queue_of_bucket(bucket);
        let ctx = self.flows.entry(flow).or_default();
        ctx.rx_bucket = Some(bucket);
        ctx.rx_queue = q;
        if self.multi_queue() {
            self.tracer
                .scoped(flow.0)
                .record(|| ano_trace::Event::NicQueue { queue: q });
        }
        q
    }

    /// The rx queue a steered flow most recently landed on (0 for
    /// unsteered flows — a single-queue NIC has only queue 0).
    pub fn rx_queue_of(&self, flow: FlowId) -> u16 {
        self.flows.get(&flow).map_or(0, |c| c.rx_queue)
    }

    /// The indirection bucket a steered flow hashes into.
    pub fn rx_bucket_of(&self, flow: FlowId) -> Option<usize> {
        self.flows.get(&flow).and_then(|c| c.rx_bucket)
    }

    /// The current RSS indirection table (bucket → queue).
    pub fn rss_table(&self) -> &[u16] {
        self.steering.table()
    }

    /// Reprograms one indirection bucket. The flows hashing into that
    /// bucket cross queues on their *next* packet (hardware applies the
    /// table at steering time, not retroactively); every crossing evicts
    /// the flow's resident rx context. Returns whether the entry changed.
    pub fn set_rss_bucket(&mut self, bucket: usize, queue: u16) -> bool {
        self.steering.set_bucket(bucket, queue)
    }

    /// Replaces the whole indirection table (see [`RssSteering::set_table`]).
    pub fn set_rss_table(&mut self, table: Vec<u16>) {
        self.steering.set_table(table);
    }

    /// Per-queue received-packet counters.
    pub fn queue_rx_pkts(&self) -> &[u64] {
        &self.queue_rx_pkts
    }

    /// Queue-imbalance metric: max-over-mean of per-queue rx packets.
    /// 1.0 is perfectly balanced, `n` means one of `n` queues took
    /// everything. Single-queue and idle NICs report 1.0.
    pub fn queue_imbalance(&self) -> f64 {
        let n = self.queue_rx_pkts.len();
        let total: u64 = self.queue_rx_pkts.iter().sum();
        if n <= 1 || total == 0 {
            return 1.0;
        }
        let max = self.queue_rx_pkts.iter().copied().max().unwrap_or(0);
        max as f64 * n as f64 / total as f64
    }

    /// Charges one context-cache touch ([`LruSet::touch`]) and returns
    /// whether it missed. The victim of an eviction drops its slot.
    fn charge_touch(
        &mut self,
        (outcome, evicted): (CacheOutcome, Option<(FlowId, Dir)>),
    ) -> bool {
        if outcome == CacheOutcome::Hit {
            self.counters.cache_hits += 1;
            return false;
        }
        self.counters.cache_misses += 1;
        // Fill of the missing context...
        self.counters.pcie_ctx_bytes += CTX_BYTES;
        if let Some((victim, vdir)) = evicted {
            if let Some(ctx) = self.flows.get_mut(&victim) {
                *ctx.slot(vdir) = None;
            }
            // ...plus the write-back of the context it displaced. The
            // trace record is scoped to the victim: cache pressure is
            // the *victim's* story (its next packet pays the refill).
            self.counters.pcie_ctx_bytes += CTX_BYTES;
            self.tracer.scoped(victim.0).record(|| ano_trace::Event::CtxEvict {
                dir: match vdir {
                    Dir::Rx => "rx",
                    Dir::Tx => "tx",
                },
            });
        }
        true
    }

    /// Processes one received packet. For non-offloaded flows this is a
    /// pass-through with default flags.
    pub fn rx_process(&mut self, flow: FlowId, seq: u64, payload: &mut Payload) -> RxProcess {
        // Zero-length segments (pure ACKs) carry no stream bytes; their
        // sequence number is not meaningful to the offload cursor.
        if payload.is_empty() {
            return RxProcess::pass_through();
        }
        let multi_queue = self.multi_queue();
        let Some(ctx) = self.flows.get_mut(&flow) else {
            return RxProcess::pass_through();
        };
        // Queue steering happens in hardware before any offload engine
        // sees the packet — software (pass-through) flows land on queues
        // too, which is what routes them to per-core stacks. Charge the
        // packet to the flow's current queue and detect a crossing after
        // an indirection-table reprogram: it moves the flow's context into
        // another queue's working set, modeled as an eviction (write-back +
        // traced `device.ctx-evict`) so the `touch_cache` below pays a miss
        // — the thrash physics that couples the rebalancer to the PR-5
        // cache-thrash breaker.
        if let (true, Some(bucket)) = (multi_queue, ctx.rx_bucket) {
            let q = self.steering.queue_of_bucket(bucket);
            self.queue_rx_pkts[q as usize] += 1;
            if std::mem::replace(&mut ctx.rx_queue, q) != q {
                self.counters.queue_crossings += 1;
                if self.cache.remove(&mut ctx.rx_slot) {
                    self.counters.pcie_ctx_bytes += CTX_BYTES;
                    self.tracer
                        .scoped(flow.0)
                        .record(|| ano_trace::Event::CtxEvict { dir: "rx" });
                }
                self.tracer
                    .scoped(flow.0)
                    .record(|| ano_trace::Event::NicQueue { queue: q });
            }
        }
        let Some(engine) = ctx.rx.as_mut() else {
            return RxProcess::pass_through();
        };
        let flags = with_dataref(payload, |d| engine.on_packet(seq, d));
        let events = engine.take_events();
        let touched = self.cache.touch(&mut ctx.rx_slot, (flow, Dir::Rx));
        let cache_miss = self.charge_touch(touched);
        RxProcess {
            flags,
            events,
            cache_miss,
        }
    }

    /// Forwards the L5P's resync confirmation (`l5o_resync_rx_resp`).
    /// `epoch` is the device epoch the corresponding request was issued
    /// under ([`Nic::epoch`]): a response that raced a reset or an
    /// invalidation carries a stale epoch and is discarded — it must not
    /// resurrect (or confirm into) a context that no longer exists.
    pub fn resync_response(
        &mut self,
        flow: FlowId,
        layer: u8,
        tcpsn: u64,
        ok: bool,
        msg_index: u64,
        epoch: u64,
    ) {
        if epoch != self.epoch {
            self.counters.stale_resyncs += 1;
            self.tracer
                .scoped(flow.0)
                .record(|| ano_trace::Event::StaleResyncResp { tcpsn });
            return;
        }
        if let Some(e) = self.rx_engine_mut(flow) {
            e.on_resync_response(layer, tcpsn, ok, msg_index);
        }
    }

    /// Processes one packet being transmitted. For non-offloaded flows this
    /// is a pass-through.
    pub fn tx_process(
        &mut self,
        flow: FlowId,
        seq: u64,
        payload: &mut Payload,
        src: &dyn L5TxSource,
    ) -> TxProcess {
        let Some(ctx) = self.flows.get_mut(&flow) else {
            return TxProcess::pass_through();
        };
        let Some(engine) = ctx.tx.as_mut() else {
            return TxProcess::pass_through();
        };
        let verdict = with_dataref(payload, |d| engine.on_packet(seq, d, src));
        self.counters.pcie_replay_bytes += verdict.replay_bytes;
        let touched = self.cache.touch(&mut ctx.tx_slot, (flow, Dir::Tx));
        let cache_miss = self.charge_touch(touched);
        TxProcess {
            offloaded: verdict.offloaded,
            replay_bytes: verdict.replay_bytes,
            cache_miss,
        }
    }
}

/// Runs `f` over a payload as a [`DataRef`]. Real bytes are transformed in
/// place when the packet holds the only handle on its buffer, else in one
/// fresh copy ([`ano_sim::bytes::Bytes::make_mut`]).
pub fn with_dataref<R>(p: &mut Payload, f: impl FnOnce(&mut DataRef<'_>) -> R) -> R {
    match p {
        Payload::Real(bytes) => f(&mut DataRef::Real(bytes.make_mut())),
        Payload::Synthetic { len } => f(&mut DataRef::Modeled(*len)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{self, DemoFlow};
    use crate::flow::TxMsgRef;

    struct NoSrc;
    impl L5TxSource for NoSrc {
        fn msg_at(&self, _o: u64) -> Option<TxMsgRef> {
            None
        }
        fn stream_bytes(&self, _f: u64, _t: u64) -> Payload {
            Payload::empty()
        }
    }

    #[test]
    fn pass_through_without_offload() {
        let mut nic = Nic::new(NicConfig::default());
        let mut p = Payload::real(vec![1, 2, 3]);
        let r = nic.rx_process(FlowId(1), 0, &mut p);
        assert_eq!(r.flags, SkbFlags::default());
        assert_eq!(p.to_vec(), vec![1, 2, 3]);
        let t = nic.tx_process(FlowId(1), 0, &mut p, &NoSrc);
        assert!(!t.offloaded);
    }

    #[test]
    fn rx_offload_transforms_payload() {
        let mut nic = Nic::new(NicConfig::default());
        let flow = FlowId(5);
        nic.install_rx(
            flow,
            RxEngine::new(Box::new(DemoFlow::rx_functional(demo::DEFAULT_KEY)), 0, 0),
        );
        let body = b"nic sees everything".to_vec();
        let wire = demo::encode_msg(&body);
        let mut p = Payload::real(wire.clone());
        let r = nic.rx_process(flow, 0, &mut p);
        assert!(r.flags.tls_decrypted);
        // Body region was decrypted in place.
        let out = p.to_vec();
        assert_eq!(&out[demo::HDR_LEN..demo::HDR_LEN + body.len()], &body[..]);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cfg = NicConfig {
            ctx_cache_capacity: 2,
            ..NicConfig::default()
        };
        let mut nic = Nic::new(cfg);
        for i in 0..3u64 {
            nic.install_rx(
                FlowId(i),
                RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0),
            );
        }
        let msg = demo::encode_msg_keyed(b"x", 0);
        // Round-robin over 3 flows with a 2-entry cache: always miss.
        for round in 0..4 {
            for i in 0..3u64 {
                let seq = round * msg.len() as u64;
                let mut p = Payload::real(msg.clone());
                nic.rx_process(FlowId(i), seq, &mut p);
            }
        }
        let c = nic.counters();
        assert_eq!(c.cache_hits, 0);
        assert_eq!(c.cache_misses, 12);
        // 12 fills; the first 2 touches populate an empty cache, the other
        // 10 displace a resident context and pay its write-back too.
        assert_eq!(c.pcie_ctx_bytes, (12 + 10) * CTX_BYTES);
    }

    fn msg() -> Vec<u8> {
        demo::encode_msg_keyed(b"x", 0)
    }

    fn feed(nic: &mut Nic, flow: FlowId, seq: u64) {
        let mut p = Payload::real(msg());
        nic.rx_process(flow, seq, &mut p);
    }

    #[test]
    fn pcie_accounting_splits_fill_and_writeback() {
        // Capacity 1: the second flow's fill displaces the first.
        let cfg = NicConfig { ctx_cache_capacity: 1, ..NicConfig::default() };
        let mut nic = Nic::new(cfg);
        for i in 0..2u64 {
            nic.install_rx(FlowId(i), RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        }
        feed(&mut nic, FlowId(0), 0);
        assert_eq!(nic.counters().pcie_ctx_bytes, CTX_BYTES, "first fill, no victim");
        feed(&mut nic, FlowId(1), 0);
        assert_eq!(
            nic.counters().pcie_ctx_bytes,
            3 * CTX_BYTES,
            "second fill displaces flow 0: fill + write-back"
        );
        // Orderly teardown writes the resident context back.
        nic.destroy(FlowId(1));
        assert_eq!(nic.counters().pcie_ctx_bytes, 4 * CTX_BYTES);
        // Destroying the non-resident flow moves nothing over PCIe.
        nic.destroy(FlowId(0));
        assert_eq!(nic.counters().pcie_ctx_bytes, 4 * CTX_BYTES);
    }

    #[test]
    fn reset_wipes_without_writeback_and_bumps_epoch() {
        let cfg = NicConfig { ctx_cache_capacity: 4, ..NicConfig::default() };
        let mut nic = Nic::new(cfg);
        for i in 0..2u64 {
            nic.install_rx(FlowId(i), RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
            feed(&mut nic, FlowId(i), 0);
        }
        assert_eq!(nic.counters().pcie_ctx_bytes, 2 * CTX_BYTES, "two fills");
        assert_eq!(nic.epoch(), 0);
        let wiped = nic.reset();
        assert_eq!(wiped, 2);
        assert_eq!(nic.epoch(), 1);
        assert!(!nic.has_rx(FlowId(0)) && !nic.has_rx(FlowId(1)));
        // Lost contexts are not written back — Fig. 16b numbers must not
        // count bytes that never crossed PCIe.
        assert_eq!(nic.counters().pcie_ctx_bytes, 2 * CTX_BYTES);
        // A reinstall after the reset refills from scratch.
        nic.install_rx(FlowId(0), RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        feed(&mut nic, FlowId(0), 0);
        assert_eq!(nic.counters().pcie_ctx_bytes, 3 * CTX_BYTES, "post-reset fill");
    }

    #[test]
    fn stale_epoch_response_is_discarded() {
        let mut nic = Nic::new(NicConfig::default());
        let flow = FlowId(3);
        nic.install_rx(flow, RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        let issued_under = nic.epoch();
        nic.reset();
        // The flow is reinstalled (new context) before the old answer lands.
        nic.install_rx(flow, RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        nic.resync_response(flow, 0, 1234, true, 7, issued_under);
        assert_eq!(nic.counters().stale_resyncs, 1);
        assert_eq!(
            nic.rx_stats(flow).unwrap().resync_ok,
            0,
            "stale confirm must not touch the new context"
        );
        // The same answer under the current epoch reaches the engine (and
        // is then ignored as unsolicited by the state machine itself).
        nic.resync_response(flow, 0, 1234, true, 7, nic.epoch());
        assert_eq!(nic.counters().stale_resyncs, 1);
    }

    #[test]
    fn invalidate_rx_drops_context_and_bumps_epoch() {
        let mut nic = Nic::new(NicConfig::default());
        let flow = FlowId(2);
        nic.install_rx(flow, RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        assert!(nic.invalidate_rx(flow));
        assert!(!nic.has_rx(flow));
        assert_eq!(nic.epoch(), 1);
        assert!(!nic.invalidate_rx(flow), "already gone");
        assert_eq!(nic.epoch(), 1, "no-op does not advance the epoch");
    }

    #[test]
    fn corrupt_rx_is_detected_on_next_packet() {
        let mut nic = Nic::new(NicConfig::default());
        let flow = FlowId(6);
        nic.install_rx(
            flow,
            RxEngine::new(Box::new(DemoFlow::rx_functional(demo::DEFAULT_KEY)), 0, 0),
        );
        assert!(nic.corrupt_rx(flow));
        assert_eq!(nic.epoch(), 0, "corruption is in-place, not an epoch change");
        let body = b"damaged".to_vec();
        let wire = demo::encode_msg(&body);
        let mut p = Payload::real(wire.clone());
        let r = nic.rx_process(flow, 0, &mut p);
        assert!(!r.flags.tls_decrypted, "no offload with a damaged context");
        assert_eq!(p.to_vec(), wire, "payload untouched");
        assert_eq!(nic.rx_stats(flow).unwrap().corrupt_detected, 1);
    }

    #[test]
    fn uninstall_halves_independently() {
        let mut nic = Nic::new(NicConfig::default());
        let flow = FlowId(8);
        nic.install_rx(flow, RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        assert!(nic.uninstall_rx(flow));
        assert!(!nic.has_rx(flow));
        assert!(!nic.uninstall_rx(flow));
        assert!(!nic.uninstall_tx(flow), "no tx half was installed");
        assert_eq!(nic.epoch(), 0, "orderly uninstall keeps the epoch");
    }

    #[test]
    fn zero_capacity_config_clamps_not_panics() {
        assert_eq!(
            NicConfig { ctx_cache_capacity: 0, ..NicConfig::default() }.validate(),
            Err(NicConfigError::ZeroCacheCapacity)
        );
        let mut nic = Nic::new(NicConfig { ctx_cache_capacity: 0, ..NicConfig::default() });
        nic.install_rx(FlowId(0), RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        feed(&mut nic, FlowId(0), 0);
        assert_eq!(nic.counters().cache_misses, 1, "single-entry cache works");
        assert!(nic.counters().config_clamped, "the clamp is reported untraced");
        assert!(!Nic::new(NicConfig::default()).counters().config_clamped);
    }

    #[test]
    fn destroy_removes_everything() {
        let mut nic = Nic::new(NicConfig::default());
        let flow = FlowId(9);
        nic.install_rx(flow, RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        assert!(nic.has_rx(flow));
        nic.destroy(flow);
        assert!(!nic.has_rx(flow));
        assert!(nic.rx_stats(flow).is_none());
    }

    use crate::rss::FourTuple;

    fn rss_nic(queues: u16) -> Nic {
        Nic::new(NicConfig { rx_queues: queues, rss_buckets: 8, ..NicConfig::default() })
    }

    fn tuple(n: u32) -> FourTuple {
        FourTuple { src_ip: 0x0A00_0000 | n, dst_ip: 0x0A00_00FF, src_port: 443, dst_port: 443 }
    }

    #[test]
    fn single_queue_nic_ignores_steering() {
        let mut nic = rss_nic(1);
        assert_eq!(nic.steer_rx(FlowId(0), tuple(0)), 0, "one queue, one destination");
        feed(&mut nic, FlowId(0), 0);
        assert_eq!(nic.queue_rx_pkts(), &[0], "single-queue path never counts queues");
        assert_eq!(nic.queue_imbalance(), 1.0);
        assert_eq!(nic.counters().queue_crossings, 0);
    }

    #[test]
    fn packets_land_on_the_steered_queue() {
        let mut nic = rss_nic(4);
        nic.install_rx(FlowId(0), RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        let q = nic.steer_rx(FlowId(0), tuple(1));
        assert!(q < 4);
        for round in 0..3u64 {
            feed(&mut nic, FlowId(0), round * msg().len() as u64);
        }
        assert_eq!(nic.queue_rx_pkts()[q as usize], 3);
        assert_eq!(nic.queue_rx_pkts().iter().sum::<u64>(), 3, "only the steered queue counts");
        assert_eq!(nic.rx_queue_of(FlowId(0)), q);
        assert_eq!(nic.counters().queue_crossings, 0, "stable steering never crosses");
    }

    #[test]
    fn bucket_reprogram_crosses_queue_and_evicts_context() {
        let mut nic = rss_nic(4);
        let flow = FlowId(0);
        nic.install_rx(flow, RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        let q = nic.steer_rx(flow, tuple(1));
        feed(&mut nic, flow, 0);
        let filled = nic.counters().pcie_ctx_bytes;
        assert_eq!(nic.counters().cache_misses, 1, "first touch fills");

        // Point the flow's bucket at a different queue: next packet crosses.
        let bucket = nic.rx_bucket_of(flow).expect("steered");
        let new_q = (q + 1) % 4;
        assert!(nic.set_rss_bucket(bucket, new_q));
        feed(&mut nic, flow, msg().len() as u64);
        assert_eq!(nic.rx_queue_of(flow), new_q);
        assert_eq!(nic.counters().queue_crossings, 1);
        // The crossing wrote the old context back and refilled it on the
        // new queue: write-back + fill on top of the original fill.
        assert_eq!(nic.counters().cache_misses, 2, "crossing thrashes the context");
        assert_eq!(nic.counters().pcie_ctx_bytes, filled + 2 * CTX_BYTES);

        // Stable again: the next packet hits.
        feed(&mut nic, flow, 2 * msg().len() as u64);
        assert_eq!(nic.counters().queue_crossings, 1);
        assert_eq!(nic.counters().cache_hits, 1);
    }

    #[test]
    fn queue_imbalance_reports_max_over_mean() {
        let mut nic = rss_nic(4);
        assert_eq!(nic.queue_imbalance(), 1.0, "idle NIC is balanced");
        // Find tuples for two distinct queues and send 3:1 traffic.
        nic.install_rx(FlowId(0), RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        nic.install_rx(FlowId(1), RxEngine::new(Box::new(DemoFlow::rx_functional(0)), 0, 0));
        let q0 = nic.steer_rx(FlowId(0), tuple(1));
        let mut n = 2;
        while nic.steer_rx(FlowId(1), tuple(n)) == q0 {
            n += 1;
        }
        for round in 0..3u64 {
            feed(&mut nic, FlowId(0), round * msg().len() as u64);
        }
        feed(&mut nic, FlowId(1), 0);
        // max=3, mean=1 over 4 queues: spread 3.0.
        assert!((nic.queue_imbalance() - 3.0).abs() < 1e-9, "{}", nic.queue_imbalance());
    }

    #[test]
    fn zero_queue_config_clamps_not_panics() {
        assert_eq!(
            NicConfig { rx_queues: 0, ..NicConfig::default() }.validate(),
            Err(NicConfigError::ZeroRxQueues)
        );
        assert_eq!(
            NicConfig { rss_buckets: 0, ..NicConfig::default() }.validate(),
            Err(NicConfigError::ZeroRssBuckets)
        );
        let mut nic = Nic::new(NicConfig { rx_queues: 0, rss_buckets: 0, ..NicConfig::default() });
        assert_eq!(nic.rx_queues(), 1);
        assert_eq!(nic.steer_rx(FlowId(0), tuple(0)), 0);
        assert!(nic.counters().config_clamped);
    }
}

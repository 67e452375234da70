//! The discrete-event world: host registry, link topology, construction
//! and accessors.
//!
//! A [`World`] owns a registry of hosts (CPUs, per-host NICs, TCP
//! endpoints, L5P layers), a directed-pair [`LinkRegistry`], and the event
//! queue. Topology worlds are built with [`World::with_topology`] +
//! [`World::add_link`] + [`World::connect_pair`] (see
//! [`crate::topology::Fleet`] for the N×M builder); [`World::new`] remains
//! the two-host client↔server façade every scenario and golden-trace test
//! runs through — host 0, host 1, `links` ids 0 (`0→1`) and 1 (`1→0`),
//! byte-identical event ordering. Connections are created with a
//! [`ConnSpec`] per endpoint. A spec names a *stack of layers* over TCP —
//! TLS and/or one end of an NVMe-TCP queue — and `build_endpoint` builds
//! each present layer once into the endpoint's `Proto`, then derives the
//! NIC engine factories by one nesting rule: the outermost offloaded layer
//! owns the engine, an NVMe engine nests inside an offloaded TLS direction
//! (§5.3), and a software TLS direction means no engine. Applications
//! ([`crate::app::HostApp`]) drive traffic and receive events.
//!
//! Timing model: every packet charges the paper-calibrated per-packet stack
//! costs to the connection's core; L5P layers return their own cycle counts
//! (crypto, copies, digests, fallbacks); NIC offload upkeep (context
//! recovery replays, cache fills) is accounted as PCIe bytes and NIC-side
//! latency, never as CPU cycles — that asymmetry *is* the paper's thesis.
//!
//! Event processing lives in [`crate::runtime`].

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use ano_core::fault::DeviceFaults;
use ano_core::flow::{L5Flow, L5TxSource, ResyncResponder, TxMsgRef};
use ano_core::msg::{FlowMode, FrameIndex};
use ano_core::nic::{Nic, NicConfig};
use ano_core::rss::FourTuple;
use ano_core::rx::RxEngine;
use ano_core::tx::TxEngine;
use ano_nvme::block::{BlockDevice, BlockDeviceConfig};
use ano_nvme::host::{NvmeHostConfig, NvmeTcpHost};
use ano_nvme::offload::{NvmeRxFlow, NvmeTxFlow, RrMap};
use ano_nvme::parser::PduParser;
use ano_nvme::target::{NvmeTargetConfig, NvmeTcpTarget, Reply};
use ano_sim::cost::CostModel;
use ano_sim::cpu::CpuSet;
use ano_sim::link::{Impairments, Link, LinkMode, LinkRegistry, Script};
use ano_sim::payload::{DataMode, Payload};
use ano_sim::rng::SimRng;
use ano_sim::sched::{Lane, Scheduler};
use ano_sim::time::{SimDuration, SimTime};
use ano_tcp::conn::TcpEndpoint;
use ano_tcp::segment::{FlowId, RxChunk};
use ano_tcp::TcpConfig;
use ano_tls::ktls::{KtlsRx, KtlsTx, KtlsTxConfig};
use ano_tls::offload::{TlsRxFlow, TlsTxFlow};
use ano_tls::session::TlsSession;

use crate::app::HostApp;

/// Identifies one connection (same id on both hosts).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// TLS endpoint options.
#[derive(Clone, Copy, Debug, Default)]
pub struct TlsSpec {
    /// Offload transmit crypto to the NIC.
    pub tx_offload: bool,
    /// Offload receive crypto to the NIC.
    pub rx_offload: bool,
    /// Zero-copy sendfile (only meaningful with `tx_offload`).
    pub zerocopy: bool,
}

impl TlsSpec {
    /// All offloads on, zero-copy.
    pub fn offloaded_zc() -> TlsSpec {
        TlsSpec {
            tx_offload: true,
            rx_offload: true,
            zerocopy: true,
        }
    }

    /// All offloads on, with the copy path.
    pub fn offloaded() -> TlsSpec {
        TlsSpec {
            tx_offload: true,
            rx_offload: true,
            zerocopy: false,
        }
    }
}

/// NVMe initiator options.
#[derive(Clone, Copy, Debug, Default)]
pub struct NvmeHostSpec {
    /// NIC copy offload for C2H data.
    pub copy_offload: bool,
    /// NIC CRC verification offload (receive).
    pub crc_offload: bool,
    /// NIC CRC fill offload for outgoing write data.
    pub crc_tx_offload: bool,
}

impl NvmeHostSpec {
    /// All offloads on.
    pub fn offloaded() -> NvmeHostSpec {
        NvmeHostSpec {
            copy_offload: true,
            crc_offload: true,
            crc_tx_offload: true,
        }
    }
}

/// NVMe controller options.
#[derive(Clone, Debug)]
pub struct NvmeTargetSpec {
    /// Backing device.
    pub device: BlockDeviceConfig,
    /// NIC CRC fill offload for outgoing read data.
    pub crc_tx_offload: bool,
    /// NIC CRC verification offload for incoming write data.
    pub crc_rx_offload: bool,
    /// Maximum data bytes per C2HData PDU.
    pub max_data_pdu: usize,
}

impl Default for NvmeTargetSpec {
    fn default() -> Self {
        NvmeTargetSpec {
            device: BlockDeviceConfig::default(),
            crc_tx_offload: false,
            crc_rx_offload: false,
            max_data_pdu: 256 * 1024,
        }
    }
}

/// Per-endpoint protocol configuration.
#[derive(Clone, Debug)]
pub enum ConnSpec {
    /// Plain TCP (the paper's "http" baseline).
    Raw,
    /// kTLS endpoint.
    Tls(TlsSpec),
    /// NVMe-TCP initiator (peer must be `NvmeTarget`).
    NvmeHost(NvmeHostSpec),
    /// NVMe-TCP controller.
    NvmeTarget(NvmeTargetSpec),
    /// NVMe-TCP initiator inside TLS (combined NVMe-TLS, §5.3).
    NvmeTlsHost(NvmeHostSpec, TlsSpec),
    /// NVMe-TCP controller inside TLS.
    NvmeTlsTarget(NvmeTargetSpec, TlsSpec),
}

/// The NVMe half of a [`ConnSpec`]: which end of the queue this endpoint is.
#[derive(Clone, Copy)]
enum NvmeRole<'a> {
    Host(&'a NvmeHostSpec),
    Target(&'a NvmeTargetSpec),
}

impl ConnSpec {
    /// The layers this endpoint stacks on TCP: TLS (outer) and/or NVMe
    /// (inner). The six variants are the public spelling of this product.
    fn layers(&self) -> (Option<TlsSpec>, Option<NvmeRole<'_>>) {
        match self {
            ConnSpec::Raw => (None, None),
            ConnSpec::Tls(t) => (Some(*t), None),
            ConnSpec::NvmeHost(n) => (None, Some(NvmeRole::Host(n))),
            ConnSpec::NvmeTarget(n) => (None, Some(NvmeRole::Target(n))),
            ConnSpec::NvmeTlsHost(n, t) => (Some(*t), Some(NvmeRole::Host(n))),
            ConnSpec::NvmeTlsTarget(n, t) => (Some(*t), Some(NvmeRole::Target(n))),
        }
    }
}

/// Offload degradation policy: how the driver reacts when the device
/// misbehaves (see [`DeviceFaults`]). Installs that fail are retried with
/// exponential backoff and seeded jitter; a flow whose offload keeps
/// failing — exhausted install ladders, resync storms, context-cache
/// thrash — has its **circuit breaker** opened and runs in software for
/// the rest of the connection's life. Offload is an optimization: the
/// breaker trades throughput for never wedging on a sick device.
#[derive(Clone, Debug)]
pub struct DegradeConfig {
    /// First install-retry backoff; doubles per failed attempt.
    pub install_retry_base: SimDuration,
    /// Ceiling on the exponential backoff.
    pub install_retry_cap: SimDuration,
    /// Install attempts per ladder before the breaker opens.
    pub install_max_attempts: u32,
    /// Resync requests within [`DegradeConfig::storm_window`] that open
    /// the breaker (a flow constantly re-deriving its context gains
    /// nothing from offload).
    pub breaker_resync_storm: u32,
    /// Rx context-cache misses within the window that open the breaker
    /// (`None` disables the thrash breaker; most experiments *measure*
    /// thrash rather than react to it).
    pub breaker_cache_thrash: Option<u32>,
    /// Width of the storm/thrash observation window.
    pub storm_window: SimDuration,
    /// Re-emit an unanswered resync request every N tracked packets
    /// ([`RxEngine::set_rerequest_pkts`]); `None` assumes a lossless
    /// driver mailbox.
    pub rerequest_pkts: Option<u32>,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            install_retry_base: SimDuration::from_micros(20),
            install_retry_cap: SimDuration::from_micros(2_000),
            install_max_attempts: 5,
            breaker_resync_storm: 64,
            breaker_cache_thrash: None,
            storm_window: SimDuration::from_micros(10_000),
            rerequest_pkts: None,
        }
    }
}

/// oRSS-style flow→core rebalancing policy. When set, every host watches
/// per-core cycle consumption over fixed windows and migrates the hottest
/// flow off an overloaded core onto the idlest one. Migration alone is an
/// *affinity* change: the flow's NIC context survives (same device, same
/// queue). With [`RebalanceConfig::steer_queues`] the rebalancer also
/// reprograms the NIC's RSS indirection bucket toward a queue of the
/// destination core, which makes interrupts follow the flow — at the cost
/// of a queue crossing that evicts the flow's rx context (the thrash the
/// PR-7 cache accounting and the PR-5 `cache_thrash` breaker observe).
#[derive(Clone, Copy, Debug)]
pub struct RebalanceConfig {
    /// Observation-window width; the rebalancer ticks once per window
    /// while the host is receiving traffic (it disarms when idle, so a
    /// drained world still reports idle).
    pub interval: SimDuration,
    /// A core is *hot* when its window cycles exceed `trigger ×` the
    /// per-core mean.
    pub trigger: f64,
    /// Noise floor: hot cores below this many window cycles are ignored.
    pub min_cycles: u64,
    /// Also reprogram the RSS indirection bucket so the flow's queue
    /// follows it to the new core (context-thrashing; see above).
    pub steer_queues: bool,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            interval: SimDuration::from_micros(1_000),
            trigger: 1.25,
            min_cycles: 20_000,
            steer_queues: false,
        }
    }
}

/// One network-chaos operation over the fleet's links. Group operations
/// (`Partition`/`Repair`/`Impair`) address every link crossing between two
/// host subsets, both directions; pair operations (`Hold`/`Release`/
/// `Script`) address one directed link. Applied immediately by
/// [`World::apply_net_op`] or on schedule through a [`NetPlan`].
#[derive(Clone, Debug)]
pub enum NetOp {
    /// Sever every link crossing between the two host groups: frames are
    /// swallowed (counted as `partitioned`, never `lost`) and the affected
    /// connections' offload engines are quiesced to software — offload
    /// state is disposable (§4.3), so declaring it gone is free.
    Partition(Vec<u16>, Vec<u16>),
    /// Restore every link crossing between the two host groups and drive
    /// each surviving connection back through the §4.4 install ladder; the
    /// reinstalled engines start in `Searching` and reconverge via §4.3.
    Repair(Vec<u16>, Vec<u16>),
    /// Stall the directed `src → dst` link: deliveries buffer in order
    /// until the matching `Release` (asymmetric ACK-path outage).
    Hold(u16, u16),
    /// Resume a held link, flushing its buffered deliveries in order.
    Release(u16, u16),
    /// Replace the impairments of every link crossing between the two
    /// groups ("this client's links turn lossy").
    Impair(Vec<u16>, Vec<u16>, Impairments),
    /// Install a scripted per-packet schedule on one directed link.
    SetScript(u16, u16, Script),
}

/// A deterministic timed chaos schedule over the fleet's links: each step
/// fires as a simulation event at its declared time, under the same seed
/// discipline as everything else (no wall clock, no extra RNG draws).
/// Install with [`World::set_net_plan`] before (or while) running.
#[derive(Clone, Debug, Default)]
pub struct NetPlan {
    steps: Vec<(SimTime, NetOp)>,
}

impl NetPlan {
    /// An empty plan.
    pub fn new() -> NetPlan {
        NetPlan::default()
    }

    /// Appends a step (builder-style). Steps may be appended in any order;
    /// the scheduler fires them by time.
    pub fn step(mut self, when: SimTime, op: NetOp) -> NetPlan {
        self.steps.push((when, op));
        self
    }

    /// The scheduled steps, in insertion order.
    pub fn steps(&self) -> &[(SimTime, NetOp)] {
        &self.steps
    }

    /// True when the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The *declared outage windows* of this plan: for every `Partition`
    /// (or `Hold`) step, the interval until the first later `Repair` over
    /// the same groups (resp. `Release` of the same pair), or `horizon`
    /// when the plan never heals it. Forward-progress watchdogs suspend
    /// inside these windows and re-arm at their ends — a stall *during* a
    /// declared outage is chaos; a stall after repair is a bug.
    pub fn outage_windows(&self, horizon: SimTime) -> Vec<(SimTime, SimTime)> {
        let mut windows = Vec::new();
        for (i, (from, op)) in self.steps.iter().enumerate() {
            let heals: Box<dyn Fn(&NetOp) -> bool> = match op {
                NetOp::Partition(a, b) => {
                    let (a, b) = (a.clone(), b.clone());
                    Box::new(move |later| match later {
                        NetOp::Repair(ra, rb) => {
                            (*ra == a && *rb == b) || (*ra == b && *rb == a)
                        }
                        _ => false,
                    })
                }
                NetOp::Hold(src, dst) => {
                    let (src, dst) = (*src, *dst);
                    Box::new(move |later| matches!(later, NetOp::Release(rs, rd) if *rs == src && *rd == dst))
                }
                _ => continue,
            };
            let to = self
                .steps
                .iter()
                .skip(i + 1)
                .filter(|(t, later)| *t >= *from && heals(later))
                .map(|(t, _)| *t)
                .min()
                .unwrap_or(horizon);
            windows.push((*from, to));
        }
        windows
    }
}

/// Per-host hardware description for topology worlds: core count and the
/// NIC (context-cache) configuration. [`World::new`]'s two-host façade
/// derives these from [`WorldConfig::cores`] / [`WorldConfig::nic`]; fleet
/// builders mix heterogeneous hosts — e.g. many small clients against one
/// server whose NIC cache is the experiment's bottleneck.
#[derive(Clone, Debug)]
pub struct HostSpec {
    /// Cores on this host.
    pub cores: usize,
    /// This host's NIC configuration (context cache).
    pub nic: NicConfig,
}

impl Default for HostSpec {
    fn default() -> Self {
        HostSpec {
            cores: 8,
            nic: NicConfig::default(),
        }
    }
}

/// One-way propagation delay of every link.
const LINK_DELAY: SimDuration = SimDuration::from_micros(2);

/// World construction parameters.
///
/// `cores`, `nic`, `impair_0to1` and `impair_1to0` describe the two-host
/// façade ([`World::new`]); [`World::with_topology`] takes per-host
/// [`HostSpec`]s instead and starts with no links.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// RNG seed (drives loss, reordering, key material).
    pub seed: u64,
    /// Payload fidelity for all connections.
    pub mode: DataMode,
    /// Cost model (per-host).
    pub cost: CostModel,
    /// Link rate, bits/second (both directions).
    pub link_rate_bps: u64,
    /// Impairments on host0 → host1.
    pub impair_0to1: Impairments,
    /// Impairments on host1 → host0.
    pub impair_1to0: Impairments,
    /// Cores per host: `[host0, host1]`.
    pub cores: [usize; 2],
    /// NIC configuration (context cache).
    pub nic: NicConfig,
    /// TCP tunables.
    pub tcp: TcpConfig,
    /// Delay for driver↔L5P resync notifications.
    pub resync_delay: SimDuration,
    /// Offload degradation policy (fault retry/backoff, circuit breaker).
    pub degrade: DegradeConfig,
    /// Flow→core rebalancing policy (`None` = static placement; the
    /// default, so existing scenarios and goldens see no new events).
    pub rebalance: Option<RebalanceConfig>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 1,
            mode: DataMode::Modeled,
            cost: CostModel::calibrated(),
            link_rate_bps: 100_000_000_000,
            impair_0to1: Impairments::none(),
            impair_1to0: Impairments::none(),
            cores: [8, 8],
            nic: NicConfig::default(),
            tcp: TcpConfig::default(),
            resync_delay: SimDuration::from_micros(5),
            degrade: DegradeConfig::default(),
            rebalance: None,
        }
    }
}

/// Per-connection offload health: the windowed counters feeding the
/// circuit breaker, the breaker itself, and degraded-mode metering.
#[derive(Debug, Default)]
pub(crate) struct OffloadHealth {
    /// Why the breaker opened, when it did (`None` = closed; offloads may
    /// be installed). Once open it never closes: re-offloading a flow that
    /// proved the device sick would flap.
    pub(crate) breaker_open: Option<&'static str>,
    /// Start of the current observation window.
    window_start: SimTime,
    /// Resync requests seen in the window.
    resyncs_in_window: u32,
    /// Rx context-cache misses seen in the window.
    misses_in_window: u32,
    /// Payload packets processed while the breaker was open.
    pub(crate) degraded_pkts: u64,
}

impl OffloadHealth {
    fn roll(&mut self, now: SimTime, window: SimDuration) {
        if now >= self.window_start + window {
            self.window_start = now;
            self.resyncs_in_window = 0;
            self.misses_in_window = 0;
        }
    }

    /// Counts one resync request; true when the storm threshold is hit.
    pub(crate) fn note_resync(&mut self, now: SimTime, cfg: &DegradeConfig) -> bool {
        self.roll(now, cfg.storm_window);
        self.resyncs_in_window += 1;
        self.resyncs_in_window >= cfg.breaker_resync_storm
    }

    /// Counts one rx cache miss; true when the thrash threshold is hit.
    pub(crate) fn note_miss(&mut self, now: SimTime, cfg: &DegradeConfig) -> bool {
        let Some(limit) = cfg.breaker_cache_thrash else {
            return false;
        };
        self.roll(now, cfg.storm_window);
        self.misses_in_window += 1;
        self.misses_in_window >= limit
    }
}

/// Rebuilds a connection's receive engine: `None` installs a fresh context
/// at stream offset 0 (the `l5o_create` moment), `Some(off)` reinstalls
/// mid-stream in `Searching` (after a device reset or invalidation — the
/// new context knows nothing about the current framing).
pub(crate) type RxFactory = Rc<dyn Fn(Option<u64>) -> RxEngine>;

/// Rebuilds a connection's transmit engine. Mid-stream reinstalls need no
/// offset: the tx engine recovers its cursor autonomously via the §4.2
/// `l5o_get_tx_msgstate` + byte-replay path on the first packet it sees.
pub(crate) type TxFactory = Rc<dyn Fn() -> TxEngine>;

fn mk_rx(flow: Box<dyn L5Flow>, at: Option<u64>) -> RxEngine {
    match at {
        None => RxEngine::new(flow, 0, 0),
        Some(off) => RxEngine::new_searching(flow, off),
    }
}

/// Retained plaintext-stream bytes for nested tx-engine recovery.
#[derive(Debug, Default)]
pub(crate) struct RetainBuf {
    start: u64,
    chunks: VecDeque<Payload>,
}

impl RetainBuf {
    fn push(&mut self, p: Payload) {
        self.chunks.push_back(p);
    }

    fn end(&self) -> u64 {
        self.start + self.chunks.iter().map(|c| c.len() as u64).sum::<u64>()
    }

    fn range(&self, from: u64, to: u64) -> Option<Payload> {
        if from < self.start || to > self.end() {
            return None;
        }
        let mut parts = Vec::new();
        let mut off = self.start;
        for c in &self.chunks {
            let c_end = off + c.len() as u64;
            if c_end > from && off < to {
                let s = from.saturating_sub(off) as usize;
                let e = (to.min(c_end) - off) as usize;
                parts.push(c.slice(s, e));
            }
            off = c_end;
            if off >= to {
                break;
            }
        }
        Some(Payload::concat(parts.iter()))
    }

    fn prune(&mut self, below: u64) {
        while let Some(front) = self.chunks.front() {
            let end = self.start + front.len() as u64;
            if end <= below {
                self.start = end;
                self.chunks.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Shared transmit state for a *nested* NVMe engine inside a TLS tx offload,
/// in plaintext-stream offsets (the inner engine's recovery upcalls resolve
/// here): capsule boundaries from the NVMe layer's own frame index, which
/// logs the same capsules at the same offsets, and the retained plaintext
/// bytes.
#[derive(Debug)]
pub(crate) struct InnerTxShared {
    capsules: FrameIndex,
    retain: RetainBuf,
}

impl InnerTxShared {
    fn new(capsules: FrameIndex) -> InnerTxShared {
        InnerTxShared {
            capsules,
            retain: RetainBuf::default(),
        }
    }

    pub(crate) fn push_capsule(&mut self, payload: &Payload) {
        self.retain.push(payload.clone());
    }

    pub(crate) fn prune(&mut self, below: u64) {
        self.retain.prune(below);
    }
}

impl L5TxSource for InnerTxShared {
    fn msg_at(&self, off: u64) -> Option<TxMsgRef> {
        self.capsules.containing(off)
    }

    fn stream_bytes(&self, from: u64, to: u64) -> Payload {
        self.retain
            .range(from, to)
            .unwrap_or_else(|| Payload::synthetic((to - from) as usize))
    }
}

/// The kTLS layer of an endpoint.
pub(crate) struct TlsLayer {
    pub(crate) tx: KtlsTx,
    pub(crate) rx: KtlsRx,
}

/// The NVMe-TCP layer of an endpoint: one end of the queue.
pub(crate) enum NvmeLayer {
    Host(NvmeTcpHost),
    Target {
        target: NvmeTcpTarget,
        /// Replies waiting for their device I/O (`Event::TargetReply`).
        pending: BTreeMap<u64, Reply>,
        next_token: u64,
    },
}

impl NvmeLayer {
    pub(crate) fn parser_mut(&mut self) -> &mut PduParser {
        match self {
            NvmeLayer::Host(host) => host.parser_mut(),
            NvmeLayer::Target { target, .. } => target.parser_mut(),
        }
    }

    pub(crate) fn record_at(&self, off: u64) -> Option<TxMsgRef> {
        match self {
            NvmeLayer::Host(host) => host.record_at(off),
            NvmeLayer::Target { target, .. } => target.record_at(off),
        }
    }

    pub(crate) fn release_below(&mut self, acked: u64) {
        match self {
            NvmeLayer::Host(host) => host.release_below(acked),
            NvmeLayer::Target { target, .. } => target.release_below(acked),
        }
    }
}

/// The L5P layer stack of one connection endpoint, outermost first: TLS
/// over TCP, NVMe over TLS or over TCP. Plain TCP has neither; NVMe-TLS
/// (§5.3) is both, plus the plaintext-stream tx state its nested engine
/// recovers from. [`crate::runtime`] runs rx, tx, release and resync as
/// pipelines over whichever layers are present.
pub(crate) struct Proto {
    pub(crate) tls: Option<TlsLayer>,
    pub(crate) nvme: Option<NvmeLayer>,
    /// `Some` exactly when both layers are.
    pub(crate) inner: Option<Rc<RefCell<InnerTxShared>>>,
}

impl Proto {
    /// The software resync responders in NIC layer order: an engine's
    /// layer `k` request is answered by the `k`-th *present* layer (TLS is
    /// 0; NVMe is 1 under TLS, else 0).
    pub(crate) fn responders(&mut self) -> impl Iterator<Item = &mut ResyncResponder> {
        let tls = self.tls.as_mut().map(|t| t.rx.resync_mut());
        let nvme = self.nvme.as_mut().map(|n| n.parser_mut().resync_mut());
        tls.into_iter().chain(nvme)
    }
}

/// One endpoint of a connection.
pub(crate) struct ConnState {
    pub(crate) tcp: TcpEndpoint,
    pub(crate) out_flow: FlowId,
    pub(crate) in_flow: FlowId,
    /// The host at the other end of this connection.
    pub(crate) peer: u16,
    /// Registry id of the outgoing link (this host → peer); resolved with
    /// a plain index in the transmit pump.
    pub(crate) link_out: u32,
    pub(crate) proto: Proto,
    pub(crate) core: usize,
    /// The connection's true retransmission deadline (mirrors
    /// `tcp.rto_deadline()` as of the last pump).
    pub(crate) armed_rto: Option<SimTime>,
    /// The single live `Event::Rto` for this connection: `(fire time, gen)`.
    /// When the deadline extends past the fire time the event re-schedules
    /// itself on dispatch instead of a new event being queued per ACK —
    /// keeping timer churn out of the scheduler heap.
    pub(crate) rto_event: Option<(SimTime, u64)>,
    pub(crate) rto_gen: u64,
    /// Application bytes delivered in order (throughput metering).
    pub(crate) delivered: u64,
    /// App asked to be told when the send queue drains.
    pub(crate) blocked: bool,
    /// Rebuilds the rx engine (install retries, post-reset re-offload).
    pub(crate) rx_factory: Option<RxFactory>,
    /// Rebuilds the tx engine.
    pub(crate) tx_factory: Option<TxFactory>,
    /// Circuit-breaker state and the counters feeding it.
    pub(crate) health: OffloadHealth,
    /// An rx engine has been installed at least once. Only the *first*
    /// install may take the at-offset-0 fast path (engine born in
    /// `Offloading`); any reinstall — install retry, post-partition repair
    /// — starts `Searching` so the flow's transition ladder stays legal
    /// and reconvergence is earned on live traffic.
    pub(crate) rx_installed_once: bool,
    /// Payload packets received in the current rebalance window (hot-flow
    /// selection; reset every tick, untouched when rebalancing is off).
    pub(crate) pkts_in_window: u64,
}

/// A host's connections, indexed by `ConnId.0` (the world hands ids out
/// densely): one boxed record per connection of this host plus 8 bytes per
/// id issued so far, iterated in `ConnId` order like the map it replaces.
#[derive(Default)]
pub(crate) struct ConnTable(Vec<Option<Box<ConnState>>>);

impl ConnTable {
    pub(crate) fn get(&self, id: &ConnId) -> Option<&ConnState> {
        self.0.get(id.0 as usize)?.as_deref()
    }

    pub(crate) fn get_mut(&mut self, id: &ConnId) -> Option<&mut ConnState> {
        self.0.get_mut(id.0 as usize)?.as_deref_mut()
    }

    fn insert(&mut self, id: ConnId, c: ConnState) {
        let i = id.0 as usize;
        if self.0.len() <= i {
            self.0.resize_with(i + 1, || None);
        }
        self.0[i] = Some(Box::new(c));
    }

    fn remove(&mut self, id: &ConnId) -> Option<ConnState> {
        self.0.get_mut(id.0 as usize)?.take().map(|c| *c)
    }

    /// Live connections in `ConnId` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ConnId, &ConnState)> {
        let live = self.0.iter().enumerate();
        live.filter_map(|(i, c)| Some((ConnId(i as u32), c.as_deref()?)))
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &ConnState> {
        self.iter().map(|(_, c)| c)
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut ConnState> {
        self.0.iter_mut().filter_map(|c| c.as_deref_mut())
    }
}

pub(crate) struct HostState {
    pub(crate) cpu: CpuSet,
    pub(crate) nic: Nic,
    pub(crate) conns: ConnTable,
    /// The scheduler lane of each core's `Event::Consume` completions (a
    /// core's completion times never decrease).
    pub(crate) core_lanes: Vec<Lane>,
    /// Last connection whose packets each core processed (batching model).
    pub(crate) last_conn: Vec<Option<ConnId>>,
    /// The host NIC's scripted fault schedule (empty by default: every
    /// query is a counter bump, nothing else).
    pub(crate) faults: DeviceFaults,
    /// IRQ affinity: which core services each NIC rx queue (default
    /// `queue % cores`). Connections land on the core of their steered
    /// queue when the NIC is multi-queue.
    pub(crate) queue_core: Vec<usize>,
    /// A rebalance tick is scheduled (armed lazily on traffic, disarmed
    /// after an idle window so `is_idle` can drain).
    pub(crate) rebalance_armed: bool,
    /// Per-core cycle snapshot at the current rebalance-window start.
    pub(crate) rebalance_snapshot: Vec<u64>,
    /// Flow→core migrations performed by the rebalancer on this host.
    pub(crate) migrations: u64,
}

/// Queued events.
pub(crate) enum Event {
    Packet {
        host: u16,
        conn: ConnId,
        seq: u32,
        seq64: u64,
        ack: u32,
        wnd: u32,
        sack: Vec<(u32, u32)>,
        payload: Payload,
    },
    /// The application finished processing `bytes` of conn's stream
    /// (reopens the advertised receive window at CPU-completion time).
    Consume {
        host: u16,
        conn: ConnId,
        bytes: u64,
    },
    Rto {
        host: u16,
        conn: ConnId,
        gen: u64,
    },
    ResyncReq {
        host: u16,
        conn: ConnId,
        layer: u8,
        tcpsn: u64,
    },
    ResyncResp {
        host: u16,
        conn: ConnId,
        layer: u8,
        tcpsn: u64,
        ok: bool,
        idx: u64,
        /// Device epoch the request was issued under; the NIC discards the
        /// response if a reset or invalidation intervened.
        epoch: u64,
    },
    /// Retry one half of a connection's offload install after a backoff.
    InstallRetry {
        host: u16,
        conn: ConnId,
        rx: bool,
        attempt: u32,
    },
    /// Fire entry `idx` of the host's scheduled device-fault list.
    DeviceFault {
        host: u16,
        idx: usize,
    },
    /// Fire step `idx` of the world's scheduled network-chaos plan
    /// ([`World::set_net_plan`]).
    NetStep {
        idx: usize,
    },
    TargetReply {
        host: u16,
        conn: ConnId,
        token: u64,
    },
    /// Periodic flow→core rebalance tick for one host (armed lazily by
    /// the first payload packet of a window; not rescheduled after an
    /// idle window).
    Rebalance {
        host: u16,
    },
    AppTimer {
        host: u16,
        token: u64,
    },
}

/// The simulation.
pub struct World {
    pub(crate) cfg: WorldConfig,
    pub(crate) sched: Scheduler<Event>,
    pub(crate) rng: SimRng,
    pub(crate) hosts: Vec<HostState>,
    /// Directed-pair link registry. The two-host façade registers ids 0
    /// (`0→1`) and 1 (`1→0`) so dir-based accessors keep their meaning.
    pub(crate) links: LinkRegistry,
    /// The scheduler lane of each link's on-time deliveries, by link id.
    pub(crate) link_lanes: Vec<Lane>,
    pub(crate) apps: Vec<Option<Box<dyn HostApp>>>,
    pub(crate) tracer: ano_trace::Tracer,
    /// Endpoint hosts per live connection (`disconnect` teardown).
    conn_hosts: BTreeMap<ConnId, (u16, u16)>,
    next_conn: u32,
    /// The installed network-chaos schedule ([`World::set_net_plan`]);
    /// `Event::NetStep { idx }` indexes into it.
    net_plan: NetPlan,
    /// Deliveries buffered per held link id ([`LinkMode::Held`]): the link
    /// computes arrival times as usual, the world parks the packet events
    /// here and flushes them — in order, clamped to "now" — on release.
    pub(crate) held: BTreeMap<u32, Vec<(SimTime, Event)>>,
    /// Reusable event-burst buffer for the batched `run_until` loop; lives
    /// here so steady state dispatches with zero allocation per batch.
    pub(crate) batch: Vec<Event>,
    /// Reusable link-delivery buffer for `pump_conn`'s transmit fan-out.
    pub(crate) burst: Vec<ano_sim::link::Delivery>,
    /// Reusable deferred-app-call buffer for `handle_packet`.
    pub(crate) app_calls: Vec<crate::runtime::AppCall>,
    /// Small pool of plaintext-chunk buffers recycled between the kTLS
    /// receive path and the application-notification path.
    pub(crate) plains_pool: Vec<Vec<RxChunk>>,
    /// Scheduler clamp count already surfaced to the tracer.
    pub(crate) clamps_traced: u64,
}

impl World {
    /// Builds the two-host client↔server façade: hosts 0 and 1 from
    /// `cfg.cores` / `cfg.nic`, links `0→1` (registry id 0, with
    /// `cfg.impair_0to1`) and `1→0` (id 1, `cfg.impair_1to0`). Every
    /// pre-topology scenario, chaos and golden-trace test runs through
    /// this constructor unchanged.
    pub fn new(cfg: WorldConfig) -> World {
        let specs = [0, 1].map(|i| HostSpec {
            cores: cfg.cores[i],
            nic: cfg.nic,
        });
        let mut w = World::with_topology(cfg, specs.to_vec());
        w.add_link(0, 1, w.cfg.impair_0to1.clone());
        w.add_link(1, 0, w.cfg.impair_1to0.clone());
        w
    }

    /// Builds an idle world with one host per [`HostSpec`] and **no
    /// links**: wire the topology with [`World::add_link`] before
    /// connecting. `cfg.cores`, `cfg.nic` and `cfg.impair_*` are façade
    /// parameters and are ignored here.
    pub fn with_topology(cfg: WorldConfig, specs: Vec<HostSpec>) -> World {
        assert!(
            specs.len() >= 2 && specs.len() <= u16::MAX as usize,
            "a topology needs 2..=65535 hosts"
        );
        let rng = SimRng::seed(cfg.seed);
        let tracer = ano_trace::Tracer::default();
        let mut sched = Scheduler::new();
        let hosts: Vec<HostState> = specs
            .iter()
            .map(|spec| {
                let mut nic = Nic::new(spec.nic);
                nic.set_tracer(tracer.clone());
                let queues = spec.nic.rx_queues.max(1) as usize;
                HostState {
                    cpu: CpuSet::new(spec.cores, cfg.cost.freq_hz),
                    nic,
                    conns: ConnTable::default(),
                    core_lanes: (0..spec.cores).map(|_| sched.add_lane()).collect(),
                    last_conn: vec![None; spec.cores],
                    faults: DeviceFaults::none(),
                    queue_core: (0..queues).map(|q| q % spec.cores).collect(),
                    rebalance_armed: false,
                    rebalance_snapshot: Vec::new(),
                    migrations: 0,
                }
            })
            .collect();
        let apps = specs.iter().map(|_| None).collect();
        World {
            cfg,
            sched,
            rng,
            hosts,
            links: LinkRegistry::new(),
            link_lanes: Vec::new(),
            apps,
            tracer,
            conn_hosts: BTreeMap::new(),
            next_conn: 0,
            net_plan: NetPlan::new(),
            held: BTreeMap::new(),
            batch: Vec::new(),
            burst: Vec::new(),
            app_calls: Vec::new(),
            plains_pool: Vec::new(),
            clamps_traced: 0,
        }
    }

    /// Registers the unidirectional `src → dst` link (rate and propagation
    /// from the world config) and returns its registry id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range hosts or a duplicate pair.
    pub fn add_link(&mut self, src: u16, dst: u16, impair: Impairments) -> u32 {
        assert!(
            (src as usize) < self.hosts.len() && (dst as usize) < self.hosts.len() && src != dst,
            "link endpoints must be distinct registered hosts"
        );
        self.link_lanes.push(self.sched.add_lane());
        self.links.add(
            src,
            dst,
            Link::new(self.cfg.link_rate_bps, LINK_DELAY, impair),
        )
    }

    /// Number of hosts in the topology.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// The world's shared [`ano_trace::Tracer`]. Disabled by default; call
    /// `tracer().set_enabled(true)` before [`World::start`] to record. Every
    /// layer holds a flow-scoped clone, so enabling here turns the whole
    /// stack's instrumentation on at once.
    pub fn tracer(&self) -> &ano_trace::Tracer {
        &self.tracer
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The cost model in use.
    pub fn cost(&self) -> CostModel {
        self.cfg.cost.clone()
    }

    /// Installs the application for a host.
    pub fn set_app(&mut self, host: usize, app: Box<dyn HostApp>) {
        self.apps[host] = Some(app);
    }

    /// Replaces the `src → dst` link's impairments (per-pair partitions
    /// and sweeps in topology worlds).
    ///
    /// # Panics
    ///
    /// Panics if the pair has no link.
    pub fn set_impairments_between(&mut self, src: u16, dst: u16, imp: Impairments) {
        self.links
            .between_mut(src, dst)
            .unwrap_or_else(|| panic!("no link {src} -> {dst}"))
            .set_impairments(imp);
    }

    /// Installs a scripted schedule on the `src → dst` link, keeping its
    /// probabilistic knobs.
    ///
    /// # Panics
    ///
    /// Panics if the pair has no link.
    pub fn set_script_between(&mut self, src: u16, dst: u16, script: ano_sim::link::Script) {
        self.links
            .between_mut(src, dst)
            .unwrap_or_else(|| panic!("no link {src} -> {dst}"))
            .set_script(script);
    }

    /// Creates a connection with `spec0` on host 0 and `spec1` on host 1
    /// (the two-host façade of [`World::connect_pair`]).
    pub fn connect(&mut self, spec0: ConnSpec, spec1: ConnSpec) -> ConnId {
        self.connect_pair(0, 1, spec0, spec1)
    }

    /// Creates a connection with `spec_a` on host `a` and `spec_b` on host
    /// `b`. Both directed links must already be registered.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical pairings (an NVMe host whose peer is not a
    /// matching target, TLS against Raw, …), identical endpoints, or a
    /// missing link in either direction.
    pub fn connect_pair(&mut self, a: u16, b: u16, spec0: ConnSpec, spec1: ConnSpec) -> ConnId {
        check_pairing(&spec0, &spec1);
        let link_ab = self
            .links
            .id(a, b)
            .unwrap_or_else(|| panic!("no link {a} -> {b}"));
        let link_ba = self
            .links
            .id(b, a)
            .unwrap_or_else(|| panic!("no link {b} -> {a}"));
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        let flow0 = FlowId(id.0 as u64 * 2);
        let flow1 = FlowId(id.0 as u64 * 2 + 1);
        let dirs = [flow0, flow1].map(|f| StreamDir {
            sess: TlsSession::from_seed(self.cfg.seed ^ f.0.wrapping_mul(0x9E37_79B9)),
            tls_frames: FrameIndex::new(),
            nvme_frames: FrameIndex::new(),
        });
        let ends = [
            (a, b, flow0, flow1, link_ab, &spec0, &dirs[0], &dirs[1]),
            (b, a, flow1, flow0, link_ba, &spec1, &dirs[1], &dirs[0]),
        ];
        for (h, peer, out_flow, in_flow, link_out, spec, dir_out, dir_in) in ends {
            let mut built = self.build_endpoint(spec, dir_out, dir_in);
            // L5P receive layers are labeled with the flow they consume; the
            // NIC scopes engine handles itself at install time.
            attach_proto_tracer(&mut built.proto, &self.tracer, in_flow);
            // Receive-side placement. Single-queue hosts keep the historical
            // round-robin core assignment (byte-identical to every pre-RSS
            // trace); multi-queue hosts steer the incoming flow through the
            // NIC's RSS hash and land the connection on the steered queue's
            // IRQ core.
            let host = &mut self.hosts[h as usize];
            let core = Self::place_conn(host, id, in_flow, peer, h);
            let mut tcp = TcpEndpoint::new(out_flow, self.cfg.tcp.clone());
            tcp.set_tracer(self.tracer.scoped(out_flow.0));
            host.conns.insert(
                id,
                ConnState {
                    tcp,
                    out_flow,
                    in_flow,
                    peer,
                    link_out,
                    proto: built.proto,
                    core,
                    armed_rto: None,
                    rto_event: None,
                    rto_gen: 0,
                    delivered: 0,
                    blocked: false,
                    rx_factory: built.rx_factory,
                    tx_factory: built.tx_factory,
                    health: OffloadHealth::default(),
                    rx_installed_once: false,
                    pkts_in_window: 0,
                },
            );
        }
        self.conn_hosts.insert(id, (a, b));
        // Offloads go through the degradation policy: the host's fault
        // script may fail or delay the install, starting a retry ladder.
        for h in [a, b] {
            self.try_install(h as usize, id, true, 0);
            self.try_install(h as usize, id, false, 0);
        }
        id
    }

    /// Tears a connection down on both hosts: offload contexts are
    /// destroyed with orderly write-back, per-core batching state is
    /// cleared, and the id is retired. In-flight events addressed to the
    /// dead connection are discarded on dispatch — exactly how the runtime
    /// already treats unknown connections — so churn workloads (short-lived
    /// connections stressing the §4.4 install path) need no quiescing.
    pub fn disconnect(&mut self, conn: ConnId) {
        let Some((a, b)) = self.conn_hosts.remove(&conn) else {
            return;
        };
        for h in [a, b] {
            let host = &mut self.hosts[h as usize];
            if let Some(c) = host.conns.remove(&conn) {
                host.nic.destroy(c.in_flow);
                host.nic.destroy(c.out_flow);
                for slot in host.last_conn.iter_mut() {
                    if *slot == Some(conn) {
                        *slot = None;
                    }
                }
            }
        }
    }

    /// The `(host_a, host_b)` endpoints of a live connection.
    pub fn conn_endpoints(&self, conn: ConnId) -> Option<(u16, u16)> {
        self.conn_hosts.get(&conn).copied()
    }

    /// Deterministic synthetic 4-tuple for the `src → dst` direction of a
    /// connection: hosts live in 10.0.0.0/8 numbered by id, the source
    /// port encodes the connection id, and every flow terminates on :443.
    /// The simulator has no real addressing — this exists so the RSS hash
    /// has honest per-flow entropy to chew on.
    fn flow_tuple(src: u16, dst: u16, conn: u32) -> FourTuple {
        FourTuple {
            src_ip: 0x0A00_0000 | src as u32,
            dst_ip: 0x0A00_0000 | dst as u32,
            src_port: 10_000u16.wrapping_add(conn as u16),
            dst_port: 443,
        }
    }

    /// Picks the core a new connection runs on at `host` (whose incoming
    /// flow is `in_flow`, flowing `src → dst`). Multi-queue NICs steer the
    /// flow through the RSS hash and return the steered queue's IRQ core
    /// (the NIC keeps the flow's bucket for later indirection-table
    /// reprogramming); single-queue NICs keep the historical round-robin
    /// placement.
    fn place_conn(host: &mut HostState, id: ConnId, in_flow: FlowId, src: u16, dst: u16) -> usize {
        if host.nic.rx_queues() > 1 {
            let q = host.nic.steer_rx(in_flow, Self::flow_tuple(src, dst, id.0));
            host.queue_core[q as usize]
        } else {
            id.0 as usize % host.cpu.num_cores()
        }
    }

    /// One rung of an install ladder: offers the install to the host's
    /// fault script, then installs, retries with exponential backoff, or —
    /// once the ladder is exhausted — opens the connection's breaker.
    pub(crate) fn try_install(&mut self, h: usize, conn: ConnId, rx: bool, attempt: u32) {
        use ano_core::fault::{DeviceOp, FaultAction};
        let now = self.sched.now();
        let (flow, at) = {
            let host = &mut self.hosts[h];
            let Some(c) = host.conns.get_mut(&conn) else {
                return;
            };
            if c.health.breaker_open.is_some() {
                return;
            }
            let flow = if rx { c.in_flow } else { c.out_flow };
            let have_factory = if rx {
                c.rx_factory.is_some()
            } else {
                c.tx_factory.is_some()
            };
            let installed = if rx {
                host.nic.has_rx(flow)
            } else {
                host.nic.has_tx(flow)
            };
            if !have_factory || installed {
                return; // nothing to offload, or a live engine already won
            }
            // Install at stream offset 0 only on the flow's *first* install
            // while no bytes have been delivered; after either, the
            // context's cursor must be re-derived (Searching) like any
            // mid-stream install — a reinstalled engine earns `Offloading`
            // back through the §4.3 ladder on live traffic.
            let rcv = c.tcp.rcv_nxt();
            (flow, if rcv == 0 && !c.rx_installed_once { None } else { Some(rcv) })
        };
        let op = if rx { DeviceOp::InstallRx } else { DeviceOp::InstallTx };
        let dir = if rx { "rx" } else { "tx" };
        match self.hosts[h].faults.on_op(op, now) {
            // Fail: the device rejected the install. Drop: the request was
            // lost in the mailbox — the driver's completion timeout makes
            // that indistinguishable from a rejection, so both retry.
            Some(FaultAction::Fail | FaultAction::Drop) => {
                self.tracer
                    .scoped(flow.0)
                    .record(|| ano_trace::Event::InstallFail { dir, attempt });
                let next = attempt + 1;
                if next >= self.cfg.degrade.install_max_attempts {
                    self.open_breaker(h, conn, "install_failures");
                } else {
                    let delay = self.install_backoff(next);
                    self.tracer.scoped(flow.0).record(|| ano_trace::Event::InstallRetry {
                        dir,
                        attempt: next,
                        delay_ns: delay.as_nanos(),
                    });
                    self.sched.schedule(
                        now + delay,
                        Event::InstallRetry {
                            host: h as u16,
                            conn,
                            rx,
                            attempt: next,
                        },
                    );
                }
            }
            Some(FaultAction::Delay(d)) => {
                // The install completes late; when the deferred rung fires
                // it is offered to the script again as a fresh attempt.
                self.sched.schedule(
                    now + d,
                    Event::InstallRetry {
                        host: h as u16,
                        conn,
                        rx,
                        attempt,
                    },
                );
            }
            None => {
                let host = &mut self.hosts[h];
                let Some(c) = host.conns.get_mut(&conn) else {
                    return;
                };
                if rx {
                    let Some(f) = &c.rx_factory else { return };
                    let mut engine = f(at);
                    engine.set_rerequest_pkts(self.cfg.degrade.rerequest_pkts);
                    host.nic.install_rx(flow, engine);
                    c.rx_installed_once = true;
                } else {
                    let Some(f) = &c.tx_factory else { return };
                    host.nic.install_tx(flow, f());
                }
                if attempt > 0 {
                    self.tracer
                        .scoped(flow.0)
                        .record(|| ano_trace::Event::InstallOk { dir, attempt });
                }
            }
        }
    }

    /// Exponential install backoff with seeded jitter: `base * 2^(n-1)`
    /// capped, plus a uniform draw in `[0, base/2)` so synchronized retry
    /// ladders (e.g. every flow after a reset) de-correlate.
    fn install_backoff(&mut self, attempt: u32) -> SimDuration {
        let d = &self.cfg.degrade;
        let base = d.install_retry_base.as_nanos().max(1);
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(20));
        let capped = exp.min(d.install_retry_cap.as_nanos().max(base));
        let jitter = self.rng.range_u64(0, (base / 2).max(1));
        SimDuration::from_nanos(capped + jitter)
    }

    /// Opens a connection's circuit breaker: its offload engines are
    /// uninstalled (orderly, with context write-back) and the flow runs in
    /// software permanently. Idempotent.
    pub(crate) fn open_breaker(&mut self, h: usize, conn: ConnId, reason: &'static str) {
        let host = &mut self.hosts[h];
        let Some(c) = host.conns.get_mut(&conn) else {
            return;
        };
        if c.health.breaker_open.is_some() {
            return;
        }
        c.health.breaker_open = Some(reason);
        host.nic.uninstall_rx(c.in_flow);
        host.nic.uninstall_tx(c.out_flow);
        self.tracer
            .scoped(c.in_flow.0)
            .record(|| ano_trace::Event::BreakerOpen { reason });
    }

    /// Installs a device-fault schedule on a host's NIC. Scheduled one-shot
    /// faults become simulation events now; operation rules apply from the
    /// next install/resync attempt on.
    pub fn set_device_faults(&mut self, host: usize, plan: DeviceFaults) {
        for (idx, (when, _)) in plan.scheduled().iter().enumerate() {
            self.sched.schedule(
                *when,
                Event::DeviceFault {
                    host: host as u16,
                    idx,
                },
            );
        }
        self.hosts[host].faults = plan;
    }

    // ------------------------------------------------------------------
    // Network chaos: partitions, holds and subset impairments.

    /// Installs a timed network-chaos schedule: every step becomes a
    /// simulation event at its declared time. Deterministic under the
    /// world's seed — plan application draws no randomness.
    pub fn set_net_plan(&mut self, plan: NetPlan) {
        for (idx, (when, _)) in plan.steps().iter().enumerate() {
            self.sched.schedule(*when, Event::NetStep { idx });
        }
        self.net_plan = plan;
    }

    /// Fires one step of the installed chaos plan (dispatch target of
    /// `Event::NetStep`).
    pub(crate) fn handle_net_step(&mut self, idx: usize) {
        let Some((_, op)) = self.net_plan.steps().get(idx) else {
            return;
        };
        let op = op.clone();
        self.apply_net_op(op);
    }

    /// Applies one chaos operation immediately (imperative spelling of a
    /// [`NetPlan`] step; harnesses drive mid-run chaos through this).
    pub fn apply_net_op(&mut self, op: NetOp) {
        match op {
            NetOp::Partition(a, b) => {
                self.partition(&a, &b);
            }
            NetOp::Repair(a, b) => {
                self.repair(&a, &b);
            }
            NetOp::Hold(src, dst) => self.hold_between(src, dst),
            NetOp::Release(src, dst) => self.release_between(src, dst),
            NetOp::Impair(a, b, imp) => {
                self.links.impair_crossing(&a, &b, &imp);
            }
            NetOp::SetScript(src, dst, script) => {
                self.links.set_script_between(src, dst, script);
            }
        }
    }

    /// Severs every link crossing between two host groups (both
    /// directions) and quiesces the affected connections' offload engines
    /// to software. Quiescing at declare time is the §4.3 autonomy
    /// property made operational: offload state is disposable, so the
    /// driver throws it away the moment the path goes dark instead of
    /// letting a blind engine accumulate resync noise; the engines'
    /// transition ladders close at `Searching`, keeping per-flow traces
    /// legal across the outage. Returns the severed pairs.
    pub fn partition(&mut self, hosts_a: &[u16], hosts_b: &[u16]) -> Vec<(u16, u16)> {
        let cut = self.links.partition(hosts_a, hosts_b);
        for &(src, dst) in &cut {
            self.tracer.record(|| ano_trace::Event::LinkPartition {
                src: src as u64,
                dst: dst as u64,
            });
        }
        self.quiesce_cut(&cut);
        cut
    }

    /// Restores every link crossing between two host groups, flushes any
    /// deliveries a `Hold` buffered on them, and drives each surviving
    /// connection back through the install ladder — reinstalled rx engines
    /// start in `Searching` at the current stream cursor and reconverge
    /// through the §4.3 resync ladder on the next data. Breaker-open
    /// connections stay in software. Returns the healed pairs.
    pub fn repair(&mut self, hosts_a: &[u16], hosts_b: &[u16]) -> Vec<(u16, u16)> {
        let healed = self.links.repair(hosts_a, hosts_b);
        for &(src, dst) in &healed {
            self.tracer.record(|| ano_trace::Event::LinkRepair {
                src: src as u64,
                dst: dst as u64,
            });
            if let Some(id) = self.links.id(src, dst) {
                self.flush_held(id);
            }
        }
        self.reoffload_cut(&healed);
        healed
    }

    /// Stalls the directed `src → dst` link: deliveries buffer (in the
    /// world's hold queue) until [`World::release_between`].
    ///
    /// # Panics
    ///
    /// Panics when the pair has no link.
    pub fn hold_between(&mut self, src: u16, dst: u16) {
        self.links.hold(src, dst);
        self.tracer.record(|| ano_trace::Event::LinkHold {
            src: src as u64,
            dst: dst as u64,
        });
    }

    /// Resumes a held `src → dst` link, flushing its buffered deliveries
    /// in order (arrival times clamped to "now").
    ///
    /// # Panics
    ///
    /// Panics when the pair has no link.
    pub fn release_between(&mut self, src: u16, dst: u16) {
        self.links.release(src, dst);
        let flushed = match self.links.id(src, dst) {
            Some(id) => self.flush_held(id),
            None => 0,
        };
        self.tracer.record(|| ano_trace::Event::LinkRelease {
            src: src as u64,
            dst: dst as u64,
            flushed,
        });
    }

    /// The chaos mode of the `src → dst` link.
    ///
    /// # Panics
    ///
    /// Panics if the pair has no link.
    pub fn link_mode_between(&self, src: u16, dst: u16) -> LinkMode {
        self.links
            .between(src, dst)
            .unwrap_or_else(|| panic!("no link {src} -> {dst}"))
            .mode()
    }

    /// Deliveries currently parked on the held `src → dst` link.
    pub fn held_between(&self, src: u16, dst: u16) -> usize {
        self.links
            .id(src, dst)
            .and_then(|id| self.held.get(&id))
            .map(|v| v.len())
            .unwrap_or(0)
    }

    /// Reschedules every delivery parked on link `id`; returns the count.
    fn flush_held(&mut self, id: u32) -> u64 {
        let Some(buf) = self.held.remove(&id) else {
            return 0;
        };
        let now = self.sched.now();
        let n = buf.len() as u64;
        for (at, ev) in buf {
            self.sched.schedule(at.max(now), ev);
        }
        n
    }

    /// Uninstalls the offload engines of every connection whose outgoing
    /// link is in `cut` (orderly, with quiesce + write-back — the same
    /// teardown a breaker performs, without opening the breaker).
    fn quiesce_cut(&mut self, cut: &[(u16, u16)]) {
        for &(src, dst) in cut {
            let host = &mut self.hosts[src as usize];
            for c in host.conns.values() {
                if c.peer == dst {
                    host.nic.uninstall_rx(c.in_flow);
                    host.nic.uninstall_tx(c.out_flow);
                }
            }
        }
    }

    /// Re-runs the install ladder for every connection whose outgoing link
    /// is in `healed`.
    fn reoffload_cut(&mut self, healed: &[(u16, u16)]) {
        for &(src, dst) in healed {
            let conns: Vec<ConnId> = self.hosts[src as usize]
                .conns
                .iter()
                .filter(|(_, c)| c.peer == dst)
                .map(|(id, _)| id)
                .collect();
            for conn in conns {
                self.try_install(src as usize, conn, true, 0);
                self.try_install(src as usize, conn, false, 0);
            }
        }
    }

    /// Builds one endpoint's layer stack and engine factories; `out` and
    /// `inn` are the directions it sends and receives on.
    fn build_endpoint(&self, spec: &ConnSpec, out: &StreamDir, inn: &StreamDir) -> BuiltEndpoint {
        let mode = self.cfg.mode;
        let modeled = mode == DataMode::Modeled;
        let (tls_spec, nvme_spec) = spec.layers();

        let tls = tls_spec.map(|t| TlsLayer {
            tx: KtlsTx::with_frames(
                out.sess.clone(),
                KtlsTxConfig {
                    offload: t.tx_offload,
                    zerocopy: t.zerocopy,
                    mode,
                },
                out.tls_frames.clone(),
            ),
            rx: KtlsRx::new(inn.sess.clone(), mode, modeled.then(|| inn.tls_frames.clone())),
        });

        // The NVMe layer, and what its own NIC engines would be given its
        // flags: a tx engine when it leaves digests for the NIC to fill, an
        // rx engine (over this RR map, with or without data placement) when
        // it relies on the NIC's `crc_ok`/`placed` bits.
        let parser = || PduParser::new(FlowMode::new(modeled, &inn.nvme_frames));
        let (nvme, nvme_tx, nvme_rx) = match nvme_spec {
            None => (None, false, None),
            Some(NvmeRole::Host(n)) => {
                let rr = RrMap::new();
                let host = NvmeTcpHost::with_frames(
                    NvmeHostConfig {
                        mode,
                        copy_offload: n.copy_offload,
                        crc_offload: n.crc_offload,
                    },
                    rr.clone(),
                    parser(),
                    out.nvme_frames.clone(),
                );
                let rx = (n.copy_offload || n.crc_offload).then_some((rr, n.copy_offload));
                (Some(NvmeLayer::Host(host)), n.crc_tx_offload, rx)
            }
            Some(NvmeRole::Target(t)) => {
                let target = NvmeTcpTarget::with_frames(
                    NvmeTargetConfig {
                        mode,
                        crc_tx_offload: t.crc_tx_offload,
                        crc_rx_offload: t.crc_rx_offload,
                        max_data_pdu: t.max_data_pdu,
                    },
                    BlockDevice::new(BlockDeviceConfig { mode, ..t.device }),
                    parser(),
                    out.nvme_frames.clone(),
                );
                let layer = NvmeLayer::Target {
                    target,
                    pending: BTreeMap::new(),
                    next_token: 0,
                };
                let rx = t.crc_rx_offload.then(|| (RrMap::new(), false));
                (Some(layer), t.crc_tx_offload, rx)
            }
        };
        let inner = (tls.is_some() && nvme.is_some())
            .then(|| Rc::new(RefCell::new(InnerTxShared::new(out.nvme_frames.clone()))));

        let nvme_tx = nvme_tx.then(|| {
            let fi = out.nvme_frames.clone();
            move || TxEngine::new(Box::new(NvmeTxFlow::new(FlowMode::new(modeled, &fi))), 0, 0)
        });
        let nvme_rx = nvme_rx.map(|(rr, copy)| {
            let fi = inn.nvme_frames.clone();
            move || NvmeRxFlow::new(FlowMode::new(modeled, &fi), rr.clone(), copy)
        });

        // Engine nesting: the outermost *offloaded* layer owns the NIC
        // engine. Under an offloaded TLS direction the NVMe engine nests
        // inside it (§5.3); under a software TLS direction there is no
        // engine at all — the NIC cannot see plaintext.
        let (tx_factory, rx_factory) = match tls_spec {
            None => (
                nvme_tx.map(|mk| Rc::new(mk) as TxFactory),
                nvme_rx.map(|mk| {
                    Rc::new(move |at: Option<u64>| mk_rx(Box::new(mk()), at)) as RxFactory
                }),
            ),
            Some(t) => (
                t.tx_offload.then(|| {
                    let (sess, fi, inner) = (out.sess.clone(), out.tls_frames.clone(), inner.clone());
                    Rc::new(move || {
                        let mut flow = TlsTxFlow::new(sess.clone(), FlowMode::new(modeled, &fi));
                        if let (Some(mk), Some(inner)) = (&nvme_tx, &inner) {
                            flow = flow
                                .with_inner(mk(), Rc::clone(inner) as Rc<RefCell<dyn L5TxSource>>);
                        }
                        TxEngine::new(Box::new(flow), 0, 0)
                    }) as TxFactory
                }),
                t.rx_offload.then(|| {
                    let (sess, fi) = (inn.sess.clone(), inn.tls_frames.clone());
                    Rc::new(move |at: Option<u64>| {
                        let mut flow = TlsRxFlow::new(sess.clone(), FlowMode::new(modeled, &fi));
                        if let Some(mk) = &nvme_rx {
                            flow = flow.with_inner(RxEngine::new(Box::new(mk()), 0, 0));
                        }
                        mk_rx(Box::new(flow), at)
                    }) as RxFactory
                }),
            ),
        };
        BuiltEndpoint {
            proto: Proto { tls, nvme, inner },
            tx_factory,
            rx_factory,
        }
    }

    // ------------------------------------------------------------------
    // Accessors for experiments.

    /// Total busy cycles on a host.
    pub fn cpu_busy_cycles(&self, host: usize) -> u64 {
        self.hosts[host].cpu.total_busy_cycles()
    }

    /// Snapshot of per-core busy cycles (windowed utilization).
    pub fn cpu_snapshot(&self, host: usize) -> Vec<u64> {
        self.hosts[host].cpu.snapshot()
    }

    /// Average busy cores over a window started at `snapshot`.
    pub fn busy_cores_since(&self, host: usize, snapshot: &[u64], window: SimDuration) -> f64 {
        self.hosts[host].cpu.busy_cores_since(snapshot, window)
    }

    /// NIC counters for a host.
    pub fn nic_counters(&self, host: usize) -> ano_core::nic::NicCounters {
        self.hosts[host].nic.counters()
    }

    /// The core `conn` currently runs on at `host` (moves when the
    /// rebalancer migrates the connection).
    pub fn conn_core(&self, host: usize, conn: ConnId) -> Option<usize> {
        self.hosts[host].conns.get(&conn).map(|c| c.core)
    }

    /// The NIC rx queue `conn`'s incoming flow last landed on at `host`.
    pub fn rx_queue_of(&self, host: usize, conn: ConnId) -> Option<u16> {
        let c = self.hosts[host].conns.get(&conn)?;
        Some(self.hosts[host].nic.rx_queue_of(c.in_flow))
    }

    /// Per-queue received-packet counters of a host's NIC.
    pub fn queue_rx_pkts(&self, host: usize) -> &[u64] {
        self.hosts[host].nic.queue_rx_pkts()
    }

    /// Max-over-mean packet load across a host's NIC rx queues.
    pub fn queue_imbalance(&self, host: usize) -> f64 {
        self.hosts[host].nic.queue_imbalance()
    }

    /// Flow→core migrations the rebalancer performed on `host`.
    pub fn migrations(&self, host: usize) -> u64 {
        self.hosts[host].migrations
    }

    /// The RSS indirection table of a host's NIC (`bucket → queue`).
    pub fn rss_table(&self, host: usize) -> &[u16] {
        self.hosts[host].nic.rss_table()
    }

    /// Replaces the RSS indirection table of a host's NIC — the software
    /// knob tests use to induce (or cure) queue imbalance. Flows already
    /// hashed to a remapped bucket cross queues on their next packet,
    /// with the context-thrash cost that implies.
    pub fn set_rss_table(&mut self, host: usize, table: Vec<u16>) {
        self.hosts[host].nic.set_rss_table(table);
    }

    /// Reprograms one RSS indirection bucket on a host's NIC. Returns
    /// `false` (no change) for an out-of-range queue or a no-op remap.
    pub fn set_rss_bucket(&mut self, host: usize, bucket: usize, queue: u16) -> bool {
        self.hosts[host].nic.set_rss_bucket(bucket, queue)
    }

    /// Receive-engine stats for a connection's incoming flow at `host`.
    pub fn rx_engine_stats(&self, host: usize, conn: ConnId) -> Option<ano_core::rx::RxStats> {
        let c = self.hosts[host].conns.get(&conn)?;
        self.hosts[host].nic.rx_stats(c.in_flow)
    }

    /// Current receive-engine state (Fig. 7 node) for a connection's
    /// incoming flow at `host`, or `None` without an rx engine. Invariant
    /// checkers use this to assert the engine reconverges to `Offloading`
    /// once impairments end.
    pub fn rx_engine_state(&self, host: usize, conn: ConnId) -> Option<ano_core::rx::RxStateKind> {
        let c = self.hosts[host].conns.get(&conn)?;
        self.hosts[host]
            .nic
            .rx_engine(c.in_flow)
            .map(|e| e.state_kind())
    }

    /// The `(out_flow, in_flow)` labels of `conn` at `host` — the flow ids
    /// trace records carry, for filtering a shared trace down to one
    /// direction of one connection.
    pub fn flow_ids(&self, host: usize, conn: ConnId) -> Option<(u64, u64)> {
        let c = self.hosts[host].conns.get(&conn)?;
        Some((c.out_flow.0, c.in_flow.0))
    }

    /// Transmit-engine stats for a connection's outgoing flow at `host`.
    pub fn tx_engine_stats(&self, host: usize, conn: ConnId) -> Option<ano_core::tx::TxStats> {
        let c = self.hosts[host].conns.get(&conn)?;
        self.hosts[host].nic.tx_stats(c.out_flow)
    }

    /// Application bytes delivered in order on `conn` at `host`.
    pub fn delivered_bytes(&self, host: usize, conn: ConnId) -> u64 {
        self.hosts[host]
            .conns
            .get(&conn)
            .map(|c| c.delivered)
            .unwrap_or(0)
    }

    /// kTLS receive stats (record classification, Fig. 17b/18b).
    pub fn ktls_rx_stats(&self, host: usize, conn: ConnId) -> Option<ano_tls::ktls::KtlsRxStats> {
        let tls = self.hosts[host].conns.get(&conn)?.proto.tls.as_ref()?;
        Some(tls.rx.stats())
    }

    /// NVMe host stats for an initiator connection.
    pub fn nvme_host_stats(&self, host: usize, conn: ConnId) -> Option<ano_nvme::host::NvmeHostStats> {
        match &self.hosts[host].conns.get(&conn)?.proto.nvme {
            Some(NvmeLayer::Host(h)) => Some(h.stats()),
            _ => None,
        }
    }

    /// TCP transmit stats.
    pub fn tcp_tx_stats(&self, host: usize, conn: ConnId) -> Option<ano_tcp::sender::SenderStats> {
        self.hosts[host].conns.get(&conn).map(|c| c.tcp.tx_stats())
    }

    /// Statistics of the `src → dst` link.
    ///
    /// # Panics
    ///
    /// Panics if the pair has no link.
    pub fn link_stats_between(&self, src: u16, dst: u16) -> ano_sim::link::LinkStats {
        self.links
            .between(src, dst)
            .unwrap_or_else(|| panic!("no link {src} -> {dst}"))
            .stats()
    }

    /// Why `conn`'s circuit breaker opened at `host`, or `None` while it
    /// is closed (offloads may be installed).
    pub fn breaker_reason(&self, host: usize, conn: ConnId) -> Option<&'static str> {
        self.hosts[host].conns.get(&conn)?.health.breaker_open
    }

    /// Payload packets `conn` processed at `host` with its breaker open
    /// (degraded-mode metering).
    pub fn degraded_pkts(&self, host: usize, conn: ConnId) -> u64 {
        self.hosts[host]
            .conns
            .get(&conn)
            .map(|c| c.health.degraded_pkts)
            .unwrap_or(0)
    }

    /// How many operations a host's device-fault script acted on (the
    /// injection oracle: chaos tests assert their schedule actually fired).
    pub fn device_faults_injected(&self, host: usize) -> u64 {
        self.hosts[host].faults.injected()
    }

    /// Sets the NVMe copy-cost working-set hint for a host connection
    /// (drives Fig. 10's LLC cliff).
    pub fn set_nvme_working_set(&mut self, host: usize, conn: ConnId, ws: u64) {
        if let Some(c) = self.hosts[host].conns.get_mut(&conn) {
            if let Some(NvmeLayer::Host(h)) = &mut c.proto.nvme {
                h.working_set = ws;
            }
        }
    }
}

/// What the two endpoints of one direction of a connection share: the TLS
/// session keys and the modeled-mode frame indexes — TLS records in
/// TCP-stream offsets, NVMe capsules in their own (plaintext) stream offsets.
struct StreamDir {
    sess: TlsSession,
    tls_frames: FrameIndex,
    nvme_frames: FrameIndex,
}

struct BuiltEndpoint {
    proto: Proto,
    /// Factory for this endpoint's outgoing flow's engine (installed on
    /// its own NIC; re-invoked after device resets).
    tx_factory: Option<TxFactory>,
    /// Factory for this endpoint's *incoming* flow's engine.
    rx_factory: Option<RxFactory>,
}

/// Hands flow-scoped tracer clones to the endpoint's L5P receive layers
/// (`in_flow` is the flow whose bytes they consume). Transmit layers trace
/// through the TCP sender and tx engine, which are scoped elsewhere.
fn attach_proto_tracer(proto: &mut Proto, tracer: &ano_trace::Tracer, in_flow: FlowId) {
    if let Some(tls) = &mut proto.tls {
        tls.rx.set_tracer(tracer.scoped(in_flow.0));
    }
    if let Some(NvmeLayer::Host(host)) = &mut proto.nvme {
        host.set_tracer(tracer.scoped(in_flow.0));
    }
}

/// Endpoints pair when both run TLS or neither does, and their NVMe roles
/// are complementary (or absent on both).
fn check_pairing(a: &ConnSpec, b: &ConnSpec) {
    let ((tls_a, nvme_a), (tls_b, nvme_b)) = (a.layers(), b.layers());
    let roles_ok = matches!(
        (nvme_a, nvme_b),
        (None, None)
            | (Some(NvmeRole::Host(_)), Some(NvmeRole::Target(_)))
            | (Some(NvmeRole::Target(_)), Some(NvmeRole::Host(_)))
    );
    assert!(
        tls_a.is_some() == tls_b.is_some() && roles_ok,
        "incompatible connection specs"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ano_core::flow::TxMsgLog;

    #[test]
    fn retain_buf_ranges_and_prune() {
        let mut r = RetainBuf::default();
        r.push(Payload::real(vec![1, 2, 3]));
        r.push(Payload::real(vec![4, 5]));
        assert_eq!(r.end(), 5);
        assert_eq!(r.range(1, 4).unwrap().to_vec(), vec![2, 3, 4]);
        assert!(r.range(0, 6).is_none(), "beyond end");
        r.prune(3);
        assert!(r.range(0, 2).is_none(), "pruned below");
        assert_eq!(r.range(3, 5).unwrap().to_vec(), vec![4, 5]);
    }

    #[test]
    fn inner_tx_shared_resolves_messages() {
        // The NVMe layer logs each capsule; the nested engine reads its log.
        let mut log = TxMsgLog::default();
        let mut s = InnerTxShared::new(log.frames());
        for capsule in [Payload::real(vec![0u8; 100]), Payload::real(vec![1u8; 50])] {
            log.push(capsule.len() as u32, None);
            s.push_capsule(&capsule);
        }
        let m = s.msg_at(120).expect("second capsule");
        assert_eq!((m.msg_start, m.msg_index), (100, 1));
        assert!(s.msg_at(150).is_none(), "past the stream end");
        assert_eq!(s.stream_bytes(100, 110).to_vec(), vec![1u8; 10]);
        log.release_below(100);
        s.prune(100);
        assert!(s.msg_at(10).is_none(), "acked capsule released");
        // Pruned ranges degrade to synthetic (modeled-safe) bytes.
        assert_eq!(s.stream_bytes(0, 10).len(), 10);
    }

    #[test]
    fn connect_rejects_mismatched_specs() {
        let result = std::panic::catch_unwind(|| {
            let mut w = World::new(WorldConfig::default());
            w.connect(ConnSpec::Raw, ConnSpec::Tls(TlsSpec::default()));
        });
        assert!(result.is_err());
    }

    #[test]
    fn engines_installed_per_spec() {
        let mut w = World::new(WorldConfig::default());
        let offl = w.connect(
            ConnSpec::Tls(TlsSpec::offloaded_zc()),
            ConnSpec::Tls(TlsSpec::offloaded_zc()),
        );
        let sw = w.connect(ConnSpec::Tls(TlsSpec::default()), ConnSpec::Tls(TlsSpec::default()));
        assert!(w.rx_engine_stats(1, offl).is_some(), "rx engine installed");
        assert!(w.tx_engine_stats(0, offl).is_some(), "tx engine installed");
        assert!(w.rx_engine_stats(1, sw).is_none(), "software-only: no engines");
        assert!(w.tx_engine_stats(0, sw).is_none());
    }
}

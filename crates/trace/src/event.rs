//! Typed trace events and their stable textual forms.
//!
//! Every event carries only plain integers so that a trace is a pure
//! function of the simulation's inputs: identical seeds produce identical
//! event streams, which is what lets golden-trace tests diff the canonical
//! rendering byte-for-byte.

use std::fmt;

/// Coarse event class, used to filter exports (golden traces keep only the
/// classes whose volume is bounded by the scenario's loss schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// TCP sender loss-recovery machinery.
    Tcp,
    /// Per-packet offload classification (high volume).
    Offload,
    /// Rx resync state machine transitions and driver round-trips.
    Resync,
    /// Record/PDU authentication and digest outcomes.
    Crypto,
    /// Per-layer CPU cycle attribution (high volume).
    Cpu,
    /// Device faults and the degradation policy (install retries, breaker
    /// transitions, resets). Silent on a healthy device: the clean
    /// first-attempt install path records nothing, so enabling the
    /// category cannot perturb fault-free golden traces.
    Device,
    /// Fleet-level network chaos: link partitions, repairs, and holds over
    /// host subsets. Silent on a chaos-free run — only explicit
    /// `NetPlan`/group operations record anything, so enabling the category
    /// cannot perturb historical golden traces.
    Net,
}

/// Why a TCP segment was retransmitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetransmitKind {
    /// Retransmission timeout fired.
    Rto,
    /// Triple-duplicate-ACK fast retransmit.
    Fast,
    /// SACK-directed hole fill.
    Sack,
}

impl fmt::Display for RetransmitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RetransmitKind::Rto => "rto",
            RetransmitKind::Fast => "fast",
            RetransmitKind::Sack => "sack",
        })
    }
}

/// Rx offload engine phase as seen by the trace layer.
///
/// This shadows `ano-core`'s `RxState` but splits `Tracking` into the
/// unconfirmed and confirmed halves, because the paper's §4.3 state machine
/// treats "software confirmed the candidate" (decision point d2 armed) as
/// the step that licenses resuming hardware offload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResyncPhase {
    /// Hardware owns framing; in-sequence packets decrypt inline.
    Offloading,
    /// Framing lost; scanning the byte stream for a candidate header.
    Searching,
    /// Candidate found; tracking it while software confirmation is pending.
    Tracking,
    /// Software confirmed the candidate; waiting for the next boundary.
    Confirmed,
}

impl fmt::Display for ResyncPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResyncPhase::Offloading => "Offloading",
            ResyncPhase::Searching => "Searching",
            ResyncPhase::Tracking => "Tracking",
            ResyncPhase::Confirmed => "Confirmed",
        })
    }
}

/// One trace event. Variants carry TCP sequence numbers (`seq`), byte
/// counts, or cycle counts — never floats or pointers, so rendering is
/// exact and platform-independent.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A segment left the sender again.
    TcpRetransmit {
        /// First sequence number of the resent segment.
        seq: u64,
        /// Payload bytes resent.
        len: usize,
        /// Which recovery path triggered it.
        kind: RetransmitKind,
    },
    /// The retransmission timer fired.
    TcpRto {
        /// Oldest unacknowledged byte at the time of the timeout.
        snd_una: u64,
        /// Consecutive-backoff count (1 for the first timeout in a row).
        backoff: u32,
    },
    /// The sender entered SACK/dupACK-driven fast recovery.
    TcpRecoveryEnter {
        /// Highest sequence outstanding; recovery ends when cumulatively ACKed.
        recover: u64,
    },
    /// Recovery finished (cumulative ACK covered `recover`).
    TcpRecoveryExit {
        /// The cumulative ACK that ended recovery.
        ack: u64,
    },
    /// Congestion window changed due to a loss event (not per-ACK growth).
    TcpCwnd {
        /// New congestion window, bytes.
        cwnd: u64,
        /// New slow-start threshold, bytes.
        ssthresh: u64,
    },
    /// An in-sequence packet was handled by the offload context.
    PktOffloaded {
        /// TCP sequence of the packet.
        seq: u64,
        /// Payload length.
        len: usize,
    },
    /// A packet passed through unprocessed (software path).
    PktFallback {
        /// TCP sequence of the packet.
        seq: u64,
        /// Payload length.
        len: usize,
    },
    /// A received packet left a gap ahead of the rx context's expected
    /// sequence (§4.3); the rx engine records it before re-seating or
    /// losing framing. Transmit-side recoveries are [`Event::TxRecovery`].
    PktOoS {
        /// TCP sequence that arrived.
        seq: u64,
        /// Sequence the context expected next.
        expected: u64,
    },
    /// The tx engine saw an out-of-sequence packet (a retransmission) and
    /// recovered its context (§4.2): it re-seated at the containing
    /// message and replayed that message's bytes up to the packet over
    /// PCIe (the diagonal of Fig. 6).
    TxRecovery {
        /// TCP sequence of the out-of-sequence packet.
        seq: u64,
        /// Stream offset of the message containing `seq`.
        msg_start: u64,
        /// Bytes replayed from host memory (`seq - msg_start`).
        replayed: u64,
    },
    /// The rx resync state machine moved between phases.
    Resync {
        /// Phase before the transition.
        from: ResyncPhase,
        /// Phase after the transition.
        to: ResyncPhase,
        /// TCP sequence at which the transition happened (candidate header
        /// position for `Tracking`/`Confirmed`, packet seq otherwise).
        seq: u64,
    },
    /// The NIC asked software to confirm a candidate record header (§4.3 d1→d2).
    ResyncRequest {
        /// TCP sequence of the candidate header.
        tcpsn: u64,
    },
    /// Software answered a resync request.
    ResyncResponse {
        /// TCP sequence the response refers to.
        tcpsn: u64,
        /// Whether software confirmed the candidate.
        ok: bool,
    },
    /// A TLS record (or NVMe PDU) authenticated successfully.
    AuthAccept {
        /// Stream offset of the record start.
        seq: u64,
        /// Plaintext bytes released.
        len: usize,
    },
    /// Authentication failed; the record was dropped and an alert raised.
    AuthReject {
        /// Stream offset of the record start.
        seq: u64,
    },
    /// An NVMe/TCP data digest verified clean.
    DigestOk {
        /// Command identifier of the PDU.
        cid: u16,
    },
    /// An NVMe/TCP data digest mismatched.
    DigestFail {
        /// Command identifier of the PDU.
        cid: u16,
    },
    /// CPU cycles charged to a processing layer for one unit of work.
    Cpu {
        /// Layer label (static: "tcp", "tls", "nvme", "crc", "driver").
        layer: &'static str,
        /// Cycles spent.
        cycles: u64,
    },
    /// A scripted device fault fired (scheduled one-shot or operation rule).
    DeviceFault {
        /// Stable fault label ("reset", "invalidate_rx", "corrupt_rx",
        /// "install_rx", "resync_resp", ...).
        kind: &'static str,
    },
    /// An offload-context install attempt failed on the device.
    InstallFail {
        /// Which half ("rx" or "tx").
        dir: &'static str,
        /// 0-based attempt number for this context.
        attempt: u32,
    },
    /// A failed install was rescheduled with exponential backoff.
    InstallRetry {
        /// Which half ("rx" or "tx").
        dir: &'static str,
        /// 0-based attempt number being scheduled.
        attempt: u32,
        /// Backoff delay until the retry, nanoseconds.
        delay_ns: u64,
    },
    /// A context was installed after at least one failure or a reset
    /// (clean first-attempt installs are not recorded).
    InstallOk {
        /// Which half ("rx" or "tx").
        dir: &'static str,
        /// 0-based attempt number that succeeded.
        attempt: u32,
    },
    /// The per-flow circuit breaker opened: the flow runs in permanent
    /// software fallback from here on.
    BreakerOpen {
        /// What tripped it ("install_failures", "resync_storm", "cache_thrash").
        reason: &'static str,
    },
    /// Full device reset: every offload context was wiped.
    DeviceReset {
        /// Number of per-flow engine contexts lost (rx + tx).
        wiped: u64,
    },
    /// A resync response from a pre-reset epoch was discarded instead of
    /// resurrecting a dead context.
    StaleResyncResp {
        /// TCP sequence the late response referred to.
        tcpsn: u64,
    },
    /// This flow's context was displaced from the NIC's bounded LRU context
    /// cache by another flow's fill (§6.5 context-cache pressure). The
    /// record is scoped to the *victim* flow; the write-back and the
    /// displacing fill are both charged as PCIe bytes.
    CtxEvict {
        /// Which half of the victim's context ("rx" or "tx").
        dir: &'static str,
    },
    /// The flow's rx steering landed on (or was reprogrammed onto) a NIC
    /// receive queue. Recorded on initial RSS placement and on every
    /// queue crossing — never per packet — and only when the NIC is
    /// configured with more than one queue, so single-queue golden
    /// traces cannot see it.
    NicQueue {
        /// The rx queue the flow now steers to.
        queue: u16,
    },
    /// The stack rebalancer migrated a flow between cores (oRSS-style
    /// hot-core mitigation). The flow's NIC context survives the move —
    /// only a queue crossing (a separate [`Event::NicQueue`] +
    /// [`Event::CtxEvict`] pair) costs device state.
    CoreMigrate {
        /// Core the flow ran on before the migration.
        from: u64,
        /// Core the flow was moved to.
        to: u64,
    },
    /// The scheduler clamped past-time events to "now" since the last
    /// dispatch batch. Small counts are benign (completion times computed
    /// before the clock advanced); steady growth signals a
    /// latency-accounting bug. Category [`Category::Cpu`]: a simulator
    /// bookkeeping signal, deliberately outside the golden-trace exports.
    SchedClamped {
        /// Clamps observed since the previous `sched.clamped` record.
        count: u64,
    },
    /// A chaos plan severed the directed `src → dst` link: everything
    /// offered to it until the matching [`Event::LinkRepair`] is swallowed
    /// (counted as `partitioned`, not `lost`). One record per severed
    /// direction, flow 0 (link events are flow-agnostic).
    LinkPartition {
        /// Source host of the dark link.
        src: u64,
        /// Destination host of the dark link.
        dst: u64,
    },
    /// A chaos plan restored the directed `src → dst` link; surviving flows
    /// crossing it re-enter the §4.3 resync→re-offload ladder.
    LinkRepair {
        /// Source host of the repaired link.
        src: u64,
        /// Destination host of the repaired link.
        dst: u64,
    },
    /// A chaos plan stalled the directed `src → dst` link: deliveries are
    /// buffered, not dropped, until the matching [`Event::LinkRelease`].
    LinkHold {
        /// Source host of the stalled link.
        src: u64,
        /// Destination host of the stalled link.
        dst: u64,
    },
    /// A stalled link resumed; `flushed` buffered deliveries were released
    /// in order.
    LinkRelease {
        /// Source host of the resumed link.
        src: u64,
        /// Destination host of the resumed link.
        dst: u64,
        /// Buffered deliveries flushed at release time.
        flushed: u64,
    },
}

impl Event {
    /// The event's class, for export filtering.
    pub fn category(&self) -> Category {
        match self {
            Event::TcpRetransmit { .. }
            | Event::TcpRto { .. }
            | Event::TcpRecoveryEnter { .. }
            | Event::TcpRecoveryExit { .. }
            | Event::TcpCwnd { .. } => Category::Tcp,
            Event::PktOffloaded { .. }
            | Event::PktFallback { .. }
            | Event::PktOoS { .. }
            | Event::TxRecovery { .. } => Category::Offload,
            Event::Resync { .. } | Event::ResyncRequest { .. } | Event::ResyncResponse { .. } => {
                Category::Resync
            }
            Event::AuthAccept { .. }
            | Event::AuthReject { .. }
            | Event::DigestOk { .. }
            | Event::DigestFail { .. } => Category::Crypto,
            Event::Cpu { .. } | Event::SchedClamped { .. } => Category::Cpu,
            Event::DeviceFault { .. }
            | Event::InstallFail { .. }
            | Event::InstallRetry { .. }
            | Event::InstallOk { .. }
            | Event::BreakerOpen { .. }
            | Event::DeviceReset { .. }
            | Event::StaleResyncResp { .. }
            | Event::CtxEvict { .. }
            | Event::NicQueue { .. }
            | Event::CoreMigrate { .. } => Category::Device,
            Event::LinkPartition { .. }
            | Event::LinkRepair { .. }
            | Event::LinkHold { .. }
            | Event::LinkRelease { .. } => Category::Net,
        }
    }

    /// Short stable name (the canonical line key).
    pub fn name(&self) -> &'static str {
        match self {
            Event::TcpRetransmit { .. } => "tcp.retransmit",
            Event::TcpRto { .. } => "tcp.rto",
            Event::TcpRecoveryEnter { .. } => "tcp.recovery-enter",
            Event::TcpRecoveryExit { .. } => "tcp.recovery-exit",
            Event::TcpCwnd { .. } => "tcp.cwnd",
            Event::PktOffloaded { .. } => "pkt.offloaded",
            Event::PktFallback { .. } => "pkt.fallback",
            Event::PktOoS { .. } => "pkt.oos",
            Event::TxRecovery { .. } => "tx.recovery",
            Event::Resync { .. } => "resync.transition",
            Event::ResyncRequest { .. } => "resync.request",
            Event::ResyncResponse { .. } => "resync.response",
            Event::AuthAccept { .. } => "auth.accept",
            Event::AuthReject { .. } => "auth.reject",
            Event::DigestOk { .. } => "digest.ok",
            Event::DigestFail { .. } => "digest.fail",
            Event::Cpu { .. } => "cpu",
            Event::SchedClamped { .. } => "sched.clamped",
            Event::DeviceFault { .. } => "device.fault",
            Event::InstallFail { .. } => "device.install-fail",
            Event::InstallRetry { .. } => "device.install-retry",
            Event::InstallOk { .. } => "device.install-ok",
            Event::BreakerOpen { .. } => "device.breaker-open",
            Event::DeviceReset { .. } => "device.reset",
            Event::StaleResyncResp { .. } => "device.stale-resync",
            Event::CtxEvict { .. } => "device.ctx-evict",
            Event::NicQueue { .. } => "nic.queue",
            Event::CoreMigrate { .. } => "core.migrate",
            Event::LinkPartition { .. } => "link.partition",
            Event::LinkRepair { .. } => "link.repair",
            Event::LinkHold { .. } => "link.hold",
            Event::LinkRelease { .. } => "link.release",
        }
    }

    /// Canonical argument rendering: `key=value` pairs in fixed order.
    pub fn args(&self) -> String {
        match self {
            Event::TcpRetransmit { seq, len, kind } => format!("seq={seq} len={len} kind={kind}"),
            Event::TcpRto { snd_una, backoff } => format!("snd_una={snd_una} backoff={backoff}"),
            Event::TcpRecoveryEnter { recover } => format!("recover={recover}"),
            Event::TcpRecoveryExit { ack } => format!("ack={ack}"),
            Event::TcpCwnd { cwnd, ssthresh } => format!("cwnd={cwnd} ssthresh={ssthresh}"),
            Event::PktOffloaded { seq, len } => format!("seq={seq} len={len}"),
            Event::PktFallback { seq, len } => format!("seq={seq} len={len}"),
            Event::PktOoS { seq, expected } => format!("seq={seq} expected={expected}"),
            Event::TxRecovery { seq, msg_start, replayed } => {
                format!("seq={seq} msg_start={msg_start} replayed={replayed}")
            }
            Event::Resync { from, to, seq } => format!("{from}->{to} seq={seq}"),
            Event::ResyncRequest { tcpsn } => format!("tcpsn={tcpsn}"),
            Event::ResyncResponse { tcpsn, ok } => format!("tcpsn={tcpsn} ok={ok}"),
            Event::AuthAccept { seq, len } => format!("seq={seq} len={len}"),
            Event::AuthReject { seq } => format!("seq={seq}"),
            Event::DigestOk { cid } => format!("cid={cid}"),
            Event::DigestFail { cid } => format!("cid={cid}"),
            Event::Cpu { layer, cycles } => format!("layer={layer} cycles={cycles}"),
            Event::SchedClamped { count } => format!("count={count}"),
            Event::DeviceFault { kind } => format!("kind={kind}"),
            Event::InstallFail { dir, attempt } => format!("dir={dir} attempt={attempt}"),
            Event::InstallRetry { dir, attempt, delay_ns } => {
                format!("dir={dir} attempt={attempt} delay_ns={delay_ns}")
            }
            Event::InstallOk { dir, attempt } => format!("dir={dir} attempt={attempt}"),
            Event::BreakerOpen { reason } => format!("reason={reason}"),
            Event::DeviceReset { wiped } => format!("wiped={wiped}"),
            Event::StaleResyncResp { tcpsn } => format!("tcpsn={tcpsn}"),
            Event::CtxEvict { dir } => format!("dir={dir}"),
            Event::NicQueue { queue } => format!("queue={queue}"),
            Event::CoreMigrate { from, to } => format!("from={from} to={to}"),
            Event::LinkPartition { src, dst } => format!("src={src} dst={dst}"),
            Event::LinkRepair { src, dst } => format!("src={src} dst={dst}"),
            Event::LinkHold { src, dst } => format!("src={src} dst={dst}"),
            Event::LinkRelease { src, dst, flushed } => {
                format!("src={src} dst={dst} flushed={flushed}")
            }
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name(), self.args())
    }
}

/// One recorded event: a monotone record number, the simulation timestamp,
/// the flow it belongs to, and the event itself.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Monotone per-tracer record number (total order, survives equal timestamps).
    pub n: u64,
    /// Simulation time, nanoseconds.
    pub t_ns: u64,
    /// Flow label (0 for flow-agnostic events).
    pub flow: u64,
    /// The event.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_cover_all_variants() {
        let cases = [
            (Event::TcpRto { snd_una: 1, backoff: 1 }, Category::Tcp),
            (Event::PktOoS { seq: 9, expected: 5 }, Category::Offload),
            (Event::TxRecovery { seq: 9, msg_start: 4, replayed: 5 }, Category::Offload),
            (
                Event::Resync { from: ResyncPhase::Searching, to: ResyncPhase::Tracking, seq: 7 },
                Category::Resync,
            ),
            (Event::AuthReject { seq: 3 }, Category::Crypto),
            (Event::Cpu { layer: "tls", cycles: 40 }, Category::Cpu),
            (Event::SchedClamped { count: 2 }, Category::Cpu),
            (Event::DeviceFault { kind: "reset" }, Category::Device),
            (Event::InstallFail { dir: "rx", attempt: 0 }, Category::Device),
            (Event::InstallRetry { dir: "rx", attempt: 1, delay_ns: 500 }, Category::Device),
            (Event::InstallOk { dir: "tx", attempt: 2 }, Category::Device),
            (Event::BreakerOpen { reason: "install_failures" }, Category::Device),
            (Event::DeviceReset { wiped: 4 }, Category::Device),
            (Event::StaleResyncResp { tcpsn: 99 }, Category::Device),
            (Event::CtxEvict { dir: "rx" }, Category::Device),
            (Event::NicQueue { queue: 3 }, Category::Device),
            (Event::CoreMigrate { from: 0, to: 2 }, Category::Device),
            (Event::LinkPartition { src: 0, dst: 3 }, Category::Net),
            (Event::LinkRepair { src: 3, dst: 0 }, Category::Net),
            (Event::LinkHold { src: 1, dst: 2 }, Category::Net),
            (Event::LinkRelease { src: 1, dst: 2, flushed: 7 }, Category::Net),
        ];
        for (ev, cat) in cases {
            assert_eq!(ev.category(), cat, "{ev}");
        }
    }

    #[test]
    fn display_is_stable() {
        let ev = Event::Resync {
            from: ResyncPhase::Tracking,
            to: ResyncPhase::Confirmed,
            seq: 4242,
        };
        assert_eq!(ev.to_string(), "resync.transition Tracking->Confirmed seq=4242");
        let ev = Event::TcpRetransmit { seq: 100, len: 1448, kind: RetransmitKind::Sack };
        assert_eq!(ev.to_string(), "tcp.retransmit seq=100 len=1448 kind=sack");
        let ev = Event::TxRecovery { seq: 9, msg_start: 4, replayed: 5 };
        assert_eq!(ev.to_string(), "tx.recovery seq=9 msg_start=4 replayed=5");
        let ev = Event::InstallRetry { dir: "rx", attempt: 2, delay_ns: 40_000 };
        assert_eq!(ev.to_string(), "device.install-retry dir=rx attempt=2 delay_ns=40000");
        let ev = Event::DeviceReset { wiped: 3 };
        assert_eq!(ev.to_string(), "device.reset wiped=3");
        let ev = Event::BreakerOpen { reason: "resync_storm" };
        assert_eq!(ev.to_string(), "device.breaker-open reason=resync_storm");
        let ev = Event::CtxEvict { dir: "rx" };
        assert_eq!(ev.to_string(), "device.ctx-evict dir=rx");
        let ev = Event::NicQueue { queue: 3 };
        assert_eq!(ev.to_string(), "nic.queue queue=3");
        let ev = Event::CoreMigrate { from: 0, to: 2 };
        assert_eq!(ev.to_string(), "core.migrate from=0 to=2");
        let ev = Event::LinkPartition { src: 0, dst: 3 };
        assert_eq!(ev.to_string(), "link.partition src=0 dst=3");
        let ev = Event::LinkRepair { src: 3, dst: 0 };
        assert_eq!(ev.to_string(), "link.repair src=3 dst=0");
        let ev = Event::LinkRelease { src: 1, dst: 2, flushed: 7 };
        assert_eq!(ev.to_string(), "link.release src=1 dst=2 flushed=7");
    }
}

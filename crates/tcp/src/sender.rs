//! TCP send side: segmentation, congestion control (Reno with NewReno-style
//! partial-ack handling), RTT estimation, and retransmission.
//!
//! The sender is a pure state machine — the surrounding stack pumps it with
//! [`TcpSender::poll_transmit`], feeds acknowledgments via
//! [`TcpSender::on_ack_wnd`], and fires [`TcpSender::on_rto`] when the deadline
//! from [`TcpSender::rto_deadline`] passes.

// Per-packet hot path: a panic here aborts the whole simulated schedule.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::VecDeque;

use ano_sim::payload::Payload;
use ano_sim::time::{SimDuration, SimTime};
use ano_trace::{Event, RetransmitKind, Tracer};

use crate::segment::{FlowId, Segment};
use crate::seq::unwrap_seq;
use crate::TcpConfig;

/// Send-buffer of stream bytes not yet acknowledged, indexed by absolute
/// stream offset.
#[derive(Debug, Default)]
struct SendBuffer {
    /// Chunks in offset order; front chunk starts at `start`.
    chunks: VecDeque<Payload>,
    /// Stream offset of the first byte of `chunks[0]`.
    start: u64,
    /// Stream offset one past the last buffered byte.
    end: u64,
}

impl SendBuffer {
    fn push(&mut self, p: Payload) {
        if p.is_empty() {
            return;
        }
        self.end += p.len() as u64;
        self.chunks.push_back(p);
    }

    /// Copies out the byte range `[from, to)`. The overwhelmingly common
    /// case — the range falls inside one buffered chunk — is a zero-copy,
    /// zero-allocation slice; only ranges straddling a chunk boundary pay
    /// for stitching.
    fn range(&self, from: u64, to: u64) -> Payload {
        assert!(from >= self.start && to <= self.end && from <= to, "range outside buffer");
        if from == to {
            return Payload::empty();
        }
        let mut first: Option<Payload> = None;
        let mut rest: Vec<Payload> = Vec::new();
        let mut off = self.start;
        for c in &self.chunks {
            let c_end = off + c.len() as u64;
            if c_end > from && off < to {
                let s = from.saturating_sub(off) as usize;
                let e = (to.min(c_end) - off) as usize;
                let piece = c.slice(s, e);
                match &mut first {
                    None => first = Some(piece),
                    Some(_) => rest.push(piece),
                }
            }
            off = c_end;
            if off >= to {
                break;
            }
        }
        match first {
            // A validated non-empty range always lands in at least one
            // chunk; an empty result here would mean the offset accounting
            // is broken, and an empty payload degrades that to a no-op
            // segment instead of a mid-schedule panic.
            None => Payload::empty(),
            Some(first) if rest.is_empty() => first,
            Some(first) => {
                let mut parts = Vec::with_capacity(1 + rest.len());
                parts.push(first);
                parts.append(&mut rest);
                Payload::concat(parts.iter())
            }
        }
    }

    /// Releases all bytes below `upto` (they were cumulatively acked).
    fn release(&mut self, upto: u64) {
        while let Some(front) = self.chunks.front() {
            let front_end = self.start + front.len() as u64;
            if front_end <= upto {
                self.start = front_end;
                self.chunks.pop_front();
            } else {
                break;
            }
        }
    }
}

/// What an incoming ACK did (diagnostics and stack wake-up hints).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckOutcome {
    /// Acknowledged new data.
    Advanced,
    /// A duplicate ACK that did not (yet) trigger recovery.
    Duplicate,
    /// Third duplicate — fast retransmit was armed.
    FastRetransmit,
    /// Old/irrelevant ACK.
    Ignored,
}

/// TCP sender state machine.
#[derive(Debug)]
pub struct TcpSender {
    flow: FlowId,
    cfg: TcpConfig,
    buf: SendBuffer,
    /// Oldest unacknowledged stream offset.
    snd_una: u64,
    /// Next stream offset to send for the first time.
    snd_nxt: u64,
    /// Retransmission cursor: resend `[cursor, snd_nxt)` before new data.
    resend_from: Option<u64>,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_recovery: bool,
    /// Recovery point: leave recovery when `snd_una` passes this.
    recover: u64,
    /// RTO recovery point: everything below this was in flight when the
    /// last timeout fired. While `snd_una < rto_recover`, partial ACKs keep
    /// the go-back-N continuation going (RFC 6582 §4 logic applied to
    /// timeout recovery) instead of waiting out another backed-off RTO.
    rto_recover: u64,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    rto_deadline: Option<SimTime>,
    /// RTT probe: (stream offset whose ack samples RTT, send time).
    rtt_probe: Option<(u64, SimTime)>,
    /// Right edge of the peer's advertised window (absolute offset).
    snd_limit: u64,
    /// SACK scoreboard: merged ranges the peer holds out of order.
    sacked: Vec<(u64, u64)>,
    /// Highest byte retransmitted in the current recovery round
    /// (RTT-paced hole probing).
    retx_mark: u64,
    /// What armed `resend_from` (labels cursor retransmits in traces).
    resend_kind: RetransmitKind,
    /// Consecutive timeouts without an intervening cumulative ACK.
    rto_backoff: u32,
    tracer: Tracer,
    stats: SenderStats,
}

/// Counters for the send side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Segments sent for the first time.
    pub segments_sent: u64,
    /// Segments re-sent (fast retransmit or RTO).
    pub retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
}

impl TcpSender {
    /// Creates an established-state sender for `flow`.
    pub fn new(flow: FlowId, cfg: TcpConfig) -> TcpSender {
        let cwnd = (cfg.init_cwnd_pkts * cfg.mss) as f64;
        TcpSender {
            flow,
            buf: SendBuffer::default(),
            snd_una: 0,
            snd_nxt: 0,
            resend_from: None,
            cwnd,
            ssthresh: cfg.max_cwnd as f64,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            rto_recover: 0,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: cfg.min_rto.mul(4),
            rto_deadline: None,
            rtt_probe: None,
            snd_limit: cfg.rcv_buf,
            sacked: Vec::new(),
            retx_mark: 0,
            resend_kind: RetransmitKind::Fast,
            rto_backoff: 0,
            tracer: Tracer::default(),
            stats: SenderStats::default(),
            cfg,
        }
    }

    /// The flow this sender feeds.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Installs a (typically flow-scoped) tracing handle. The default
    /// handle is disabled, so an unwired sender records nothing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Appends application bytes to the stream.
    pub fn push(&mut self, payload: Payload) {
        self.buf.push(payload);
    }

    /// Bytes queued but not yet sent for the first time.
    pub fn unsent_bytes(&self) -> u64 {
        self.buf.end - self.snd_nxt
    }

    /// Bytes sent and not yet acknowledged.
    pub fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Total stream bytes accepted so far.
    pub fn stream_end(&self) -> u64 {
        self.buf.end
    }

    /// Oldest unacknowledged stream offset.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Send-side counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// True when everything pushed has been acknowledged.
    pub fn is_idle(&self) -> bool {
        self.snd_una == self.buf.end
    }

    /// Copies the stream bytes `[from, to)` for offload context recovery
    /// (the L5P keeps references to in-flight message bytes, §4.2).
    ///
    /// # Panics
    ///
    /// Panics if the range is below `snd_una` (already released) or beyond
    /// the buffered stream.
    pub fn stream_range(&self, from: u64, to: u64) -> Payload {
        self.buf.range(from, to)
    }

    /// Produces the next segment to emit, or `None` if cwnd/buffer don't
    /// allow one. Call in a loop until `None`.
    pub fn poll_transmit(&mut self, now: SimTime, ack_for_peer: u32) -> Option<Segment> {
        // SACK-driven loss recovery: while loss is established (fast
        // recovery, or the go-back-N window after a timeout), probe the
        // holes the scoreboard exposes, one segment at a time, gated by
        // cwnd and re-armed once per ACK (RTT-paced, like Linux's SACK
        // recovery). An RTO must not silence this path — post-timeout is
        // exactly when the scoreboard knows which segments are missing.
        if self.loss_established() && !self.sacked.is_empty() {
            if let Some(seg) = self.poll_sack_retransmit(now, ack_for_peer) {
                // The scoreboard walk covers the cursor's hole; keeping
                // both would retransmit the same segment twice per round.
                if let Some(c) = self.resend_from {
                    if seg.seq64 <= c.max(self.snd_una) {
                        self.resend_from = None;
                    }
                }
                return Some(seg);
            }
        }
        // Retransmissions first. Each trigger (fast retransmit, RTO,
        // NewReno partial ack) re-sends exactly one segment; re-sending the
        // whole flight on every trigger would amplify a single hole into a
        // go-back-N storm of spurious duplicates.
        if let Some(cursor) = self.resend_from {
            // An ACK processed after the trigger may have advanced
            // `snd_una` past the cursor: the hole it pointed at is plugged,
            // so resume from the oldest outstanding byte. (Without the
            // clamp, `cursor - snd_una` underflows and the wrapped value
            // never passes the cwnd gate — wedging the sender for good.)
            let cursor = cursor.max(self.snd_una);
            if cursor < self.snd_nxt {
                if (cursor - self.snd_una) < self.cwnd as u64 {
                    // Clip at the next SACKed range: the peer already holds
                    // those bytes, re-sending them is pure waste.
                    let sacked_cap = self
                        .sacked
                        .iter()
                        .map(|&(s, _)| s)
                        .find(|&s| s > cursor)
                        .unwrap_or(u64::MAX);
                    let end = (cursor + self.cfg.mss as u64)
                        .min(self.snd_nxt)
                        .min(sacked_cap);
                    let payload = self.buf.range(cursor, end);
                    self.resend_from = None;
                    self.stats.retransmits += 1;
                    self.tracer.record(|| Event::TcpRetransmit {
                        seq: cursor,
                        len: payload.len(),
                        kind: self.resend_kind,
                    });
                    self.arm_rto(now);
                    return Some(Segment {
                        flow: self.flow,
                        seq: cursor as u32,
                        seq64: cursor,
                        ack: ack_for_peer,
                        wnd: 0, // filled by the endpoint
                        sack: Vec::new(),
                        is_retransmit: true,
                        payload,
                    });
                }
                return None; // window-limited; resume on next ack
            }
            self.resend_from = None;
        }

        // New data, gated by both cwnd and the peer's advertised window.
        let flight = self.bytes_in_flight();
        if flight >= self.cwnd as u64 || self.snd_nxt >= self.buf.end || self.snd_nxt >= self.snd_limit
        {
            return None;
        }
        let window_room = self.cwnd as u64 - flight;
        let end = (self.snd_nxt + (self.cfg.mss as u64).min(window_room))
            .min(self.buf.end)
            .min(self.snd_limit);
        if end == self.snd_nxt {
            return None;
        }
        let payload = self.buf.range(self.snd_nxt, end);
        let seq64 = self.snd_nxt;
        if self.rtt_probe.is_none() {
            self.rtt_probe = Some((end, now));
        }
        self.snd_nxt = end;
        self.stats.segments_sent += 1;
        self.arm_rto(now);
        Some(Segment {
            flow: self.flow,
            seq: seq64 as u32,
            seq64,
            ack: ack_for_peer,
            wnd: 0, // filled by the endpoint
            sack: Vec::new(),
            is_retransmit: false,
            payload,
        })
    }

    /// Incorporates selective acknowledgments from the peer.
    pub fn on_sack(&mut self, ranges: &[(u32, u32)]) {
        for &(s, e) in ranges {
            let start = unwrap_seq(self.snd_una, s);
            let end = unwrap_seq(start.max(1), e).max(start);
            if end <= self.snd_una || start >= self.snd_nxt {
                continue;
            }
            self.sacked.push((start.max(self.snd_una), end.min(self.snd_nxt)));
        }
        // Merge and prune the scoreboard.
        self.sacked.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.sacked.len());
        for &(s, e) in &self.sacked {
            if e <= self.snd_una {
                continue;
            }
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s.max(self.snd_una), e)),
            }
        }
        self.sacked = merged;
    }

    /// True while loss has been established and retransmission should be
    /// driven from the SACK scoreboard: fast recovery, or the go-back-N
    /// window after a timeout (everything below `rto_recover` was lost or
    /// in flight when the timer fired).
    fn loss_established(&self) -> bool {
        self.in_recovery || self.snd_una < self.rto_recover
    }

    /// The next un-SACKed hole at or after `from`, below the highest SACK.
    fn next_hole(&self, mut from: u64) -> Option<(u64, u64)> {
        let highest = self.sacked.last()?.1;
        for &(s, e) in &self.sacked {
            if from < s {
                return Some((from, s));
            }
            from = from.max(e);
        }
        if from < highest {
            Some((from, highest))
        } else {
            None
        }
    }

    fn poll_sack_retransmit(&mut self, now: SimTime, ack_for_peer: u32) -> Option<Segment> {
        let from = self.retx_mark.max(self.snd_una);
        let (h, hole_end) = self.next_hole(from)?;
        if h.saturating_sub(self.snd_una) >= self.cwnd as u64 {
            return None;
        }
        let end = (h + self.cfg.mss as u64).min(hole_end).min(self.snd_nxt);
        if end <= h {
            return None;
        }
        self.retx_mark = end;
        self.stats.retransmits += 1;
        self.tracer.record(|| Event::TcpRetransmit {
            seq: h,
            len: (end - h) as usize,
            kind: RetransmitKind::Sack,
        });
        self.arm_rto(now);
        Some(Segment {
            flow: self.flow,
            seq: h as u32,
            seq64: h,
            ack: ack_for_peer,
            wnd: 0, // filled by the endpoint
            sack: Vec::new(),
            is_retransmit: true,
            payload: self.buf.range(h, end),
        })
    }

    /// Processes the cumulative acknowledgment and advertised window `wnd`
    /// of one segment from the peer; `carries_data` says whether that
    /// segment also carries payload (the ACK then rides on data).
    pub fn on_ack_wnd(&mut self, ack_wire: u32, wnd: u32, carries_data: bool, now: SimTime) -> AckOutcome {
        let ack = unwrap_seq(self.snd_una, ack_wire);
        // The window's right edge never moves left.
        let new_limit = self.snd_limit.max(ack + wnd as u64);
        let window_update = new_limit > self.snd_limit;
        self.snd_limit = new_limit;
        // RFC 5681 §2: an ACK that rides on data (b) or changes the
        // advertised window (e) is not a duplicate — it must not feed fast
        // retransmit.
        if (carries_data && ack <= self.snd_una) || (window_update && ack == self.snd_una) {
            return AckOutcome::Ignored;
        }
        self.on_ack64(ack, now)
    }

    fn on_ack64(&mut self, ack: u64, now: SimTime) -> AckOutcome {
        if ack > self.snd_nxt {
            return AckOutcome::Ignored;
        }
        if ack > self.snd_una {
            let newly_acked = ack - self.snd_una;
            self.snd_una = ack;
            self.buf.release(ack);
            self.dupacks = 0;
            self.sacked.retain(|&(_, e)| e > ack);
            for r in &mut self.sacked {
                r.0 = r.0.max(ack);
            }
            // Allow one fresh probing round of the remaining holes.
            self.retx_mark = ack;

            // RTT sample (Karn: probe is only set on first transmissions).
            if let Some((probe_end, sent_at)) = self.rtt_probe {
                if ack >= probe_end {
                    self.sample_rtt(now.since(sent_at));
                    self.rtt_probe = None;
                }
            }

            if self.in_recovery {
                if ack >= self.recover {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                    self.resend_from = None;
                    self.tracer.record(|| Event::TcpRecoveryExit { ack });
                    self.tracer.record(|| Event::TcpCwnd {
                        cwnd: self.cwnd as u64,
                        ssthresh: self.ssthresh as u64,
                    });
                } else {
                    // NewReno partial ack: retransmit the next hole.
                    self.resend_from = Some(self.snd_una);
                    self.cwnd = (self.cwnd - newly_acked as f64 + self.cfg.mss as f64)
                        .max(self.cfg.mss as f64);
                }
            } else if self.cwnd < self.ssthresh {
                // Slow start.
                self.cwnd = (self.cwnd + newly_acked as f64).min(self.cfg.max_cwnd as f64);
            } else {
                // Congestion avoidance.
                let mss = self.cfg.mss as f64;
                self.cwnd = (self.cwnd + mss * mss / self.cwnd).min(self.cfg.max_cwnd as f64);
            }

            if !self.in_recovery && ack < self.rto_recover {
                // Go-back-N continuation after a timeout: this partial ack
                // plugged one hole and proves the peer is alive, so resend
                // the next hole now. Waiting silently for another
                // (exponentially backed-off) RTO per hole is how tail loss
                // turned 10 KB transfers into multi-second recoveries.
                self.resend_from = Some(self.snd_una);
            }

            // A cumulative ack for new data ends the current backoff round:
            // recompute the timeout from the live RTT estimate (RFC 6298
            // §5.7 / Linux's `icsk_backoff` reset). Without this, one early
            // loss burst taxes every later, unrelated loss with a
            // seconds-long timer.
            self.refresh_rto_from_estimate();
            self.rto_backoff = 0;

            if self.bytes_in_flight() == 0 {
                self.rto_deadline = None;
            } else {
                self.rto_deadline = Some(now + self.rto);
            }
            return AckOutcome::Advanced;
        }

        // Duplicate ACK. Modern stacks retransmit early when the window is
        // too small to ever produce three duplicates (RFC 5827); without
        // this, thin flows degenerate to RTO-bound recovery.
        if self.bytes_in_flight() == 0 {
            return AckOutcome::Ignored;
        }
        self.dupacks += 1;
        // RFC 5827 gating: only lower the threshold when the window is too
        // small to produce three dupacks AND no new data could be sent
        // (otherwise limited-transmit-style sending keeps dupacks flowing,
        // and a lowered threshold turns spurious dupacks into storms).
        let dupthresh = if self.bytes_in_flight() <= (4 * self.cfg.mss) as u64
            && self.unsent_bytes() == 0
        {
            1
        } else {
            3
        };
        if self.dupacks >= dupthresh && !self.in_recovery {
            self.enter_fast_retransmit();
            return AckOutcome::FastRetransmit;
        }
        if self.in_recovery {
            // Window inflation while the hole persists.
            self.cwnd = (self.cwnd + self.cfg.mss as f64).min(self.cfg.max_cwnd as f64);
        }
        AckOutcome::Duplicate
    }

    fn enter_fast_retransmit(&mut self) {
        self.retx_mark = self.snd_una;
        let flight = self.bytes_in_flight() as f64;
        self.ssthresh = (flight / 2.0).max((2 * self.cfg.mss) as f64);
        self.cwnd = self.ssthresh + (3 * self.cfg.mss) as f64;
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        self.resend_from = Some(self.snd_una);
        self.resend_kind = RetransmitKind::Fast;
        self.stats.fast_retransmits += 1;
        self.rtt_probe = None; // Karn's rule
        self.tracer.record(|| Event::TcpRecoveryEnter { recover: self.recover });
        self.tracer.record(|| Event::TcpCwnd {
            cwnd: self.cwnd as u64,
            ssthresh: self.ssthresh as u64,
        });
    }

    /// When the retransmission timer fires.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Handles RTO expiry: collapse the window and go back to `snd_una`.
    pub fn on_rto(&mut self, now: SimTime) {
        if self.bytes_in_flight() == 0 {
            self.rto_deadline = None;
            return;
        }
        self.stats.timeouts += 1;
        self.rto_backoff += 1;
        let flight = self.bytes_in_flight() as f64;
        self.ssthresh = (flight / 2.0).max((2 * self.cfg.mss) as f64);
        self.cwnd = self.cfg.mss as f64;
        self.in_recovery = false;
        self.dupacks = 0;
        self.resend_from = Some(self.snd_una);
        self.resend_kind = RetransmitKind::Rto;
        self.rto_recover = self.snd_nxt;
        self.rtt_probe = None;
        self.tracer.record(|| Event::TcpRto {
            snd_una: self.snd_una,
            backoff: self.rto_backoff,
        });
        self.tracer.record(|| Event::TcpCwnd {
            cwnd: self.cwnd as u64,
            ssthresh: self.ssthresh as u64,
        });
        self.rto = self
            .rto
            .mul(2)
            .min(SimDuration::from_secs(2));
        self.rto_deadline = Some(now + self.rto);
    }

    /// Arms the retransmission timer if it is not already running.
    fn arm_rto(&mut self, now: SimTime) {
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    fn sample_rtt(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = SimDuration::from_nanos(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                let delta = if srtt > rtt { srtt.saturating_sub(rtt) } else { rtt.saturating_sub(srtt) };
                self.rttvar = SimDuration::from_nanos(
                    (3 * self.rttvar.as_nanos() + delta.as_nanos()) / 4,
                );
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + rtt.as_nanos()) / 8,
                ));
            }
        }
        self.refresh_rto_from_estimate();
    }

    /// Recomputes `rto = srtt + 4·rttvar` (floored at `min_rto`), discarding
    /// any accumulated exponential backoff. No-op before the first sample.
    fn refresh_rto_from_estimate(&mut self) {
        let Some(srtt) = self.srtt else { return };
        let candidate = srtt + SimDuration::from_nanos(4 * self.rttvar.as_nanos());
        self.rto = SimDuration::from_nanos(candidate.as_nanos().max(self.cfg.min_rto.as_nanos()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    fn sender() -> TcpSender {
        TcpSender::new(FlowId(1), cfg())
    }

    /// A pure ACK that keeps the default receive window.
    fn pure_ack(s: &mut TcpSender, ack: u32, now: SimTime) -> AckOutcome {
        s.on_ack_wnd(ack, cfg().rcv_buf as u32, false, now)
    }

    fn drain(s: &mut TcpSender, now: SimTime) -> Vec<Segment> {
        std::iter::from_fn(|| s.poll_transmit(now, 0)).collect()
    }

    #[test]
    fn segments_respect_mss_and_cwnd() {
        let mut s = sender();
        s.push(Payload::synthetic(100_000));
        let segs = drain(&mut s, SimTime::ZERO);
        let total: usize = segs.iter().map(|x| x.payload.len()).sum();
        assert_eq!(total as u64, s.cwnd().min(100_000), "initial window limits flight");
        assert!(segs.iter().all(|x| x.payload.len() <= cfg().mss));
        assert!(segs.iter().all(|x| !x.is_retransmit));
    }

    #[test]
    fn ack_advances_and_grows_window() {
        let mut s = sender();
        s.push(Payload::synthetic(1_000_000));
        let segs = drain(&mut s, SimTime::ZERO);
        let cwnd0 = s.cwnd();
        let first_end = segs[0].payload.len() as u32;
        let out = pure_ack(&mut s, first_end, SimTime::from_micros(100));
        assert_eq!(out, AckOutcome::Advanced);
        assert_eq!(s.snd_una(), first_end as u64);
        assert!(s.cwnd() > cwnd0, "slow start grows cwnd");
        assert!(!drain(&mut s, SimTime::from_micros(100)).is_empty(), "ack frees window");
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = sender();
        s.push(Payload::synthetic(1_000_000));
        let segs = drain(&mut s, SimTime::ZERO);
        assert!(segs.len() >= 4);
        // Peer acks nothing new (first segment lost): 3 dup acks at snd_una=0.
        assert_eq!(pure_ack(&mut s, 0, SimTime::from_micros(10)), AckOutcome::Duplicate);
        assert_eq!(pure_ack(&mut s, 0, SimTime::from_micros(20)), AckOutcome::Duplicate);
        assert_eq!(pure_ack(&mut s, 0, SimTime::from_micros(30)), AckOutcome::FastRetransmit);
        let rtx = s.poll_transmit(SimTime::from_micros(31), 0).expect("retransmit");
        assert!(rtx.is_retransmit);
        assert_eq!(rtx.seq, 0);
        assert_eq!(s.stats().fast_retransmits, 1);
    }

    #[test]
    fn rto_collapses_window_and_resends() {
        let mut s = sender();
        s.push(Payload::synthetic(100_000));
        let _ = drain(&mut s, SimTime::ZERO);
        let deadline = s.rto_deadline().expect("armed");
        s.on_rto(deadline);
        assert_eq!(s.cwnd(), cfg().mss as u64);
        let rtx = s.poll_transmit(deadline, 0).expect("resend after rto");
        assert_eq!(rtx.seq, 0);
        assert!(rtx.is_retransmit);
        assert_eq!(s.stats().timeouts, 1);
        // cwnd of 1 MSS: only one retransmission allowed until acked.
        assert!(s.poll_transmit(deadline, 0).is_none());
    }

    #[test]
    fn recovery_exits_at_recover_point() {
        let mut s = sender();
        s.push(Payload::synthetic(1_000_000));
        let segs = drain(&mut s, SimTime::ZERO);
        let recover = s.snd_nxt;
        for _ in 0..3 {
            pure_ack(&mut s, 0, SimTime::from_micros(5));
        }
        assert!(s.in_recovery);
        // Full ack of everything outstanding ends recovery.
        pure_ack(&mut s, recover as u32, SimTime::from_micros(50));
        assert!(!s.in_recovery);
        let _ = segs;
    }

    #[test]
    fn idle_when_all_acked() {
        let mut s = sender();
        s.push(Payload::synthetic(2000));
        let segs = drain(&mut s, SimTime::ZERO);
        assert!(!s.is_idle());
        let end: u32 = segs.last().unwrap().seq_end();
        pure_ack(&mut s, end, SimTime::from_micros(40));
        assert!(s.is_idle());
        assert!(s.rto_deadline().is_none(), "timer disarmed when idle");
    }

    #[test]
    fn stream_range_supports_recovery_replay() {
        let mut s = sender();
        s.push(Payload::real(vec![1, 2, 3, 4, 5]));
        s.push(Payload::real(vec![6, 7, 8]));
        let _ = drain(&mut s, SimTime::ZERO);
        assert_eq!(s.stream_range(2, 7).to_vec(), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn rtt_sampling_sets_rto() {
        let mut s = sender();
        s.push(Payload::synthetic(5000));
        let segs = drain(&mut s, SimTime::ZERO);
        let end = segs.last().unwrap().seq_end();
        pure_ack(&mut s, end, SimTime::from_micros(200));
        assert!(s.srtt.is_some());
        assert!(s.rto >= cfg().min_rto);
    }
}

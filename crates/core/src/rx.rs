//! The receive-side offload engine: the paper's §4.3 state machine (Fig. 7).
//!
//! Per flow, the NIC is in one of three states:
//!
//! * **Offloading** — the context knows the next expected TCP sequence and
//!   the position within the current L5P message; in-sequence packets are
//!   processed inline.
//! * **Searching** — after unrecoverable out-of-sequence data, the NIC scans
//!   payloads for the protocol's plaintext magic pattern; a hit issues an
//!   `l5o_resync_rx_req` to software and moves to tracking.
//! * **Tracking** — the NIC follows message boundaries via length fields,
//!   verifying each expected header, while the candidate awaits software
//!   confirmation; confirmation resumes offloading at the next boundary
//!   (transition d2), a mismatch or rejection returns to searching (d1).
//!
//! The state is the constant-size part of the NIC context: `Copy` and
//! heap-free. Offloading and Tracking hold the same [`Walker`] cursor —
//! tracking is the offload walk without the operation ([`Walker::track`]) —
//! and Searching carries at most `header_len - 1` bytes of the previous
//! packet, so a pattern split across two in-sequence packets is still found.

// Per-packet hot path: a panic here aborts the whole simulated schedule.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use ano_tcp::segment::SkbFlags;
use ano_trace::{Event, ResyncPhase, Tracer};

use crate::flow::L5Flow;
use crate::msg::{DataRef, EngineEvent, FixedBytes, MsgHeader, SearchWindow, MAX_HDR_LEN};
use crate::walker::{WalkOutcome, Walker};

/// Receive-engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RxStats {
    /// Packets inspected.
    pub pkts: u64,
    /// Packets fully offloaded (every byte processed, checks passing).
    pub pkts_offloaded: u64,
    /// Retransmissions of already-processed data bypassed (Fig. 8a).
    pub retransmit_bypass: u64,
    /// Boundary-based context updates without software help (Fig. 8b).
    pub boundary_resyncs: u64,
    /// Speculative-search confirmations requested from software (Fig. 8c).
    pub resync_requests: u64,
    /// Confirmations that matched and resumed offloading (d2).
    pub resync_ok: u64,
    /// Confirmations rejected by software or invalidated by tracking (d1).
    pub resync_failed: u64,
    /// Header parse failures while offloading (stream desync).
    pub desyncs: u64,
    /// Re-emitted resync requests for a still-unconfirmed candidate (the
    /// original request is assumed lost in the driver mailbox).
    pub rerequests: u64,
    /// Context corruptions detected by the integrity check on next use.
    pub corrupt_detected: u64,
}

/// Which state the engine is in (diagnostics; names follow Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxStateKind {
    /// Processing in-sequence packets.
    Offloading,
    /// Scanning for a magic pattern.
    Searching,
    /// Following a speculative candidate, awaiting confirmation.
    Tracking,
}

#[derive(Clone, Copy, Debug)]
enum RxState {
    Offloading(Walker),
    Searching {
        /// Trailing bytes of the previous contiguous packet, so magic
        /// patterns split across packets are still found (§4.3: "it can
        /// identify patterns split between packets if they arrive
        /// in-sequence"). At most `header_len - 1` bytes.
        carry: FixedBytes<MAX_HDR_LEN>,
        /// Stream offset of the first carried byte.
        carry_off: u64,
    },
    Tracking {
        candidate: u64,
        /// Positioned inside the candidate ([`Walker::tracking`]).
        walker: Walker,
        /// Software already confirmed; resume at the next known boundary.
        confirmed: Option<u64>, // base msg_index from software
    },
}

/// Walks `data[from..]` through `w` without writing transformed bytes back:
/// the packet is not offloaded (its SKB bit stays clear, software will
/// process these bytes itself), but the context's dynamic state must still
/// advance — exactly what HW does when it processes a tail to re-seat the
/// cursor. Real payloads are walked over a scratch copy.
fn ghost_walk(
    w: &mut Walker,
    op: &mut dyn L5Flow,
    data: &mut DataRef<'_>,
    from: usize,
) -> WalkOutcome {
    match data {
        DataRef::Real(b) => {
            // `from` is in bounds by construction (caller clamps to the
            // packet), but a hot path must not be able to panic: an
            // out-of-range tail degrades to an empty walk.
            let mut tmp = b.get(from..).unwrap_or_default().to_vec();
            w.walk(op, &mut DataRef::Real(&mut tmp))
        }
        DataRef::Modeled(n) => w.walk(op, &mut DataRef::Modeled(*n - from)),
    }
}

/// The complete set of resync-phase transitions the engine can emit —
/// the §4.3 machine's edges, with `Tracking` split into its unconfirmed
/// and software-confirmed halves as the trace layer reports them.
///
/// This match table is the *code-side* declaration of the state machine.
/// The scenario crate's `invariant::tests::table_matches_rx_engine_declaration`
/// compares it with the spec-side legal-edge set (`LEGAL_EDGES` in
/// `crates/scenario/src/invariant.rs`) over the whole phase space; drift
/// on either side fails that test. [`RxEngine`] also debug-asserts every
/// emitted transition against it, so an illegal edge dies in tests before
/// it can reach a trace.
pub fn legal_transition(from: ResyncPhase, to: ResyncPhase) -> bool {
    matches!(
        (from, to),
        (ResyncPhase::Offloading, ResyncPhase::Searching)
            | (ResyncPhase::Searching, ResyncPhase::Tracking)
            | (ResyncPhase::Tracking, ResyncPhase::Searching)
            | (ResyncPhase::Tracking, ResyncPhase::Confirmed)
            | (ResyncPhase::Confirmed, ResyncPhase::Offloading)
            | (ResyncPhase::Confirmed, ResyncPhase::Searching)
    )
}

/// The per-flow receive offload engine (NIC context + resync logic).
pub struct RxEngine {
    op: Box<dyn L5Flow>,
    state: RxState,
    events: Vec<EngineEvent>,
    stats: RxStats,
    tracer: Tracer,
    /// Phase most recently reported to the tracer. `Confirmed` is the
    /// trace-level split of `Tracking { confirmed: Some(_) }` — the §4.3
    /// step that licenses resuming offload — so transition events expose
    /// exactly the Searching→Tracking→Confirmed→Offloading ladder the
    /// scenario invariants check.
    last_phase: ResyncPhase,
    /// Re-emit the pending resync request after this many tracked packets
    /// without a confirmation (`None` disables re-requests — the default,
    /// so a lossless driver mailbox never sees duplicates). Set by the
    /// degradation policy when the mailbox can drop messages.
    rerequest_pkts: Option<u32>,
    /// Packets walked while `Tracking { confirmed: None }` since the last
    /// (re-)request.
    track_pkts: u32,
    /// The context was damaged in place; the integrity check trips on next
    /// use and the engine re-derives its state via the resync ladder.
    ctx_corrupt: bool,
    /// The rx queue this context's completions are delivered on (RSS
    /// steering; 0 on a single-queue device). Diagnostic: kept current by
    /// the NIC across indirection-table reprograms.
    queue: u16,
}

impl std::fmt::Debug for RxEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RxEngine")
            .field("state", &self.state_kind())
            .field("stats", &self.stats)
            .finish()
    }
}

impl RxEngine {
    /// Creates an engine whose context starts offloading at stream offset
    /// `start_off`, message index `msg_index` (the `l5o_create` moment).
    pub fn new(op: Box<dyn L5Flow>, start_off: u64, msg_index: u64) -> RxEngine {
        RxEngine {
            op,
            state: RxState::Offloading(Walker::new(start_off, msg_index)),
            events: Vec::new(),
            stats: RxStats::default(),
            tracer: Tracer::default(),
            last_phase: ResyncPhase::Offloading,
            rerequest_pkts: None,
            track_pkts: 0,
            ctx_corrupt: false,
            queue: 0,
        }
    }

    /// Creates an engine installed *mid-stream* (reinstall after a device
    /// reset or context invalidation): the context knows nothing about the
    /// current framing, so it starts in `Searching` at stream offset
    /// `at_off`. No transition event is emitted — the predecessor engine's
    /// quiesce already closed its ladder at `Searching`, so the per-flow
    /// transition chain stays legal across the engine swap.
    pub fn new_searching(op: Box<dyn L5Flow>, at_off: u64) -> RxEngine {
        RxEngine {
            op,
            state: RxState::Searching {
                carry: FixedBytes::default(),
                carry_off: at_off,
            },
            events: Vec::new(),
            stats: RxStats::default(),
            tracer: Tracer::default(),
            last_phase: ResyncPhase::Searching,
            rerequest_pkts: None,
            track_pkts: 0,
            ctx_corrupt: false,
            queue: 0,
        }
    }

    /// Records the rx queue this context's packets arrive on (set by the
    /// NIC at steer time and after every queue crossing).
    pub fn set_queue(&mut self, queue: u16) {
        self.queue = queue;
    }

    /// The rx queue this context's packets arrive on.
    pub fn queue(&self) -> u16 {
        self.queue
    }

    /// Enables re-emitting an unanswered resync request every `pkts`
    /// tracked packets (degradation policy for a lossy driver mailbox).
    pub fn set_rerequest_pkts(&mut self, pkts: Option<u32>) {
        self.rerequest_pkts = pkts;
    }

    /// Damages the context in place (scripted `CorruptRx` fault). The
    /// damage is latent: the integrity check trips on the next packet and
    /// the engine falls back to `Searching` instead of processing with a
    /// bad cursor.
    pub fn corrupt_context(&mut self) {
        self.ctx_corrupt = true;
    }

    /// Closes this engine's transition ladder before it is torn down
    /// (device reset, invalidation, or a breaker opening): the flow's
    /// trace must show it leaving offload, and a successor engine — if one
    /// is ever installed — starts at `Searching`, keeping the per-flow
    /// chain of transition events continuous.
    pub fn quiesce(&mut self) {
        self.enter_searching(self.expected().unwrap_or(0));
    }

    /// Installs a (typically flow-scoped) tracing handle. The default
    /// handle is disabled, so an unwired engine records nothing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The trace-level phase: [`RxStateKind`] with `Tracking` split into
    /// its unconfirmed and software-confirmed halves.
    pub fn phase(&self) -> ResyncPhase {
        match &self.state {
            RxState::Offloading(_) => ResyncPhase::Offloading,
            RxState::Searching { .. } => ResyncPhase::Searching,
            RxState::Tracking { confirmed: None, .. } => ResyncPhase::Tracking,
            RxState::Tracking { confirmed: Some(_), .. } => ResyncPhase::Confirmed,
        }
    }

    /// Emits a `Resync` transition event if the phase changed since the
    /// last note. Called at every state-mutation site (not merely per
    /// packet), so multi-step transitions inside one `on_packet` — e.g.
    /// Fig. 8c's Offloading→Searching→Tracking — appear edge by edge.
    fn note_phase(&mut self, at_seq: u64) {
        self.force_phase(self.phase(), at_seq);
    }

    /// Like [`RxEngine::note_phase`] but for a phase the engine passed
    /// through transiently inside one call (e.g. Tracking that a failed
    /// walk invalidates before `on_packet` returns).
    fn force_phase(&mut self, to: ResyncPhase, at_seq: u64) {
        if to != self.last_phase {
            let from = self.last_phase;
            debug_assert!(
                legal_transition(from, to),
                "illegal resync transition {from:?}->{to:?} at seq {at_seq}"
            );
            self.tracer.record(|| Event::Resync { from, to, seq: at_seq });
            self.last_phase = to;
        }
    }

    /// Current state (Fig. 7 node).
    pub fn state_kind(&self) -> RxStateKind {
        match &self.state {
            RxState::Offloading(_) => RxStateKind::Offloading,
            RxState::Searching { .. } => RxStateKind::Searching,
            RxState::Tracking { .. } => RxStateKind::Tracking,
        }
    }

    /// Counters.
    pub fn stats(&self) -> RxStats {
        self.stats
    }

    /// The next offloadable stream offset, when offloading.
    pub fn expected(&self) -> Option<u64> {
        match &self.state {
            RxState::Offloading(w) => Some(w.expected()),
            _ => None,
        }
    }

    /// Drains pending driver events (resync requests), including any from a
    /// nested (composed) engine.
    pub fn take_events(&mut self) -> Vec<EngineEvent> {
        let mut ev = std::mem::take(&mut self.events);
        ev.extend(self.op.take_events());
        ev
    }

    /// Access to the flow op (for protocol-specific inspection in tests).
    pub fn op(&self) -> &dyn L5Flow {
        self.op.as_ref()
    }

    /// Processes one packet whose payload starts at unwrapped stream offset
    /// `seq`. Returns the SKB flags the driver attaches.
    pub fn on_packet(&mut self, seq: u64, data: &mut DataRef<'_>) -> SkbFlags {
        self.stats.pkts += 1;
        if self.ctx_corrupt {
            // The context integrity check trips on load: discard the
            // damaged state and re-derive it via the §4.3 ladder, starting
            // the search with this very packet.
            self.ctx_corrupt = false;
            self.stats.corrupt_detected += 1;
            self.enter_searching(seq);
        }
        let offloaded = match self.state {
            RxState::Offloading(_) => self.offload(seq, data),
            RxState::Searching { .. } => {
                self.do_search(seq, data);
                false
            }
            RxState::Tracking { .. } => {
                self.do_track(seq, data);
                false
            }
        };
        let len = data.len();
        if offloaded {
            self.stats.pkts_offloaded += 1;
            self.tracer.record(|| Event::PktOffloaded { seq, len });
            self.tracer.count("rx.pkts_offloaded", 1);
        } else {
            self.tracer.record(|| Event::PktFallback { seq, len });
            self.tracer.count("rx.pkts_fallback", 1);
        }
        self.op.packet_flags(offloaded)
    }

    /// Delivers the software's answer to a resync request
    /// (`l5o_resync_rx_resp`): does a message really start at `tcpsn`, and
    /// if so, which message index is it?
    pub fn on_resync_response(&mut self, layer: u8, tcpsn: u64, ok: bool, msg_index: u64) {
        if layer > 0 {
            self.op.resync_response(layer - 1, tcpsn, ok, msg_index);
            return;
        }
        match &mut self.state {
            RxState::Tracking {
                candidate,
                confirmed,
                ..
            } if *candidate == tcpsn => {
                self.tracer.record(|| Event::ResyncResponse { tcpsn, ok });
                if ok {
                    *confirmed = Some(msg_index);
                    self.stats.resync_ok += 1;
                    self.note_phase(tcpsn);
                    self.try_resume();
                } else {
                    // d1: back to searching.
                    self.stats.resync_failed += 1;
                    self.enter_searching(tcpsn);
                }
            }
            // Stale or mismatched response: ignore it.
            _ => {}
        }
    }

    /// The Offloading state's packet: the in-sequence walk, or one of the
    /// three out-of-sequence cases of Fig. 8. Returns whether the packet
    /// was offloaded.
    fn offload(&mut self, seq: u64, data: &mut DataRef<'_>) -> bool {
        let RxState::Offloading(w) = &mut self.state else {
            return false;
        };
        let exp = w.expected();
        let seq_end = seq + data.len() as u64;
        let out = if seq == exp {
            w.walk(self.op.as_mut(), data)
        } else if seq_end <= exp {
            // Fig. 8a: pure retransmission of the past — bypass.
            self.stats.retransmit_bypass += 1;
            return false;
        } else if seq < exp {
            // Overlap: the tail from `exp` is new, in-sequence data; the
            // packet itself is not offloaded (its seq does not match the
            // context), so HW advances its state without writing back
            // (software will process these bytes).
            self.stats.retransmit_bypass += 1;
            ghost_walk(w, self.op.as_mut(), data, (exp - seq) as usize)
        } else {
            // Gap: where is the next message boundary M?
            self.tracer.record(|| Event::PktOoS { seq, expected: exp });
            match w.next_boundary() {
                // Packet entirely before M: ignore it (§4.3).
                Some(nb) if nb >= seq_end => return false,
                Some(nb) if nb >= seq => {
                    // Fig. 8b: M's header is inside this packet — re-seat
                    // the context at M and advance state over the tail
                    // (not written back: packet unoffloaded).
                    self.stats.boundary_resyncs += 1;
                    let idx = w.boundary_msg_index();
                    self.op.resync_to(idx);
                    *w = Walker::new(nb, idx);
                    ghost_walk(w, self.op.as_mut(), data, (nb - seq) as usize)
                }
                _ => {
                    // Fig. 8c: M passed inside the gap (or is unknown) —
                    // speculative search, starting with this very packet.
                    self.enter_searching(seq);
                    self.do_search(seq, data);
                    return false;
                }
            }
        };
        if out.desync {
            self.stats.desyncs += 1;
            self.enter_searching(seq_end);
        }
        // Only the in-sequence walk offloads; a ghost walk re-seats the cursor.
        seq == exp && out.clean
    }

    fn enter_searching(&mut self, carry_off: u64) {
        self.state = RxState::Searching {
            carry: FixedBytes::default(),
            carry_off,
        };
        self.note_phase(carry_off);
    }

    /// d2: if confirmed and the tracker knows the next boundary, resume.
    fn try_resume(&mut self) {
        let RxState::Tracking {
            walker,
            confirmed: Some(base_idx),
            ..
        } = self.state
        else {
            return;
        };
        if let Some(nb) = walker.next_boundary() {
            let idx = base_idx + walker.boundary_msg_index();
            self.op.resync_to(idx);
            self.state = RxState::Offloading(Walker::new(nb, idx));
            self.note_phase(nb);
        }
    }

    fn do_search(&mut self, seq: u64, data: &mut DataRef<'_>) {
        let hl = self.op.header_len();
        let hit = self
            .carry_search(seq, data)
            .or_else(|| self.op.search(seq, data.window()));
        if let Some((c, h)) = hit.filter(|(_, h)| h.total_len as usize >= hl) {
            self.stats.resync_requests += 1;
            self.events.push(EngineEvent::ResyncRequest { layer: 0, tcpsn: c });
            self.tracer.record(|| Event::ResyncRequest { tcpsn: c });
            self.tracer.count("rx.resync_requests", 1);
            // The candidate puts the engine in Tracking from here on, even
            // if walking the packet tail invalidates it again below.
            self.force_phase(ResyncPhase::Tracking, c);
            self.track_pkts = 0;
            // Track the rest of this packet past the candidate header. The
            // header ends inside the packet even when it starts in the
            // carry, which holds fewer than `hl` bytes.
            let mut walker = Walker::tracking(c, h, hl);
            let from = ((c + hl as u64).saturating_sub(seq) as usize).min(data.len());
            if walker.track(&*self.op, &mut data.slice(from, data.len())) {
                self.state = RxState::Tracking {
                    candidate: c,
                    walker,
                    confirmed: None,
                };
                self.note_phase(c);
            } else {
                // Immediately invalidated (d1): back to searching.
                self.stats.resync_failed += 1;
                self.update_carry(seq, data, hl);
                self.note_phase(seq);
            }
        } else {
            self.update_carry(seq, data, hl);
            self.note_phase(seq);
        }
    }

    /// The first candidate that starts in the carry, when this real packet
    /// continues it. A header starting there ends within the packet's first
    /// `hl - 1` bytes, so the window is the carry followed by those bytes,
    /// contiguous on the stack.
    fn carry_search(&self, seq: u64, data: &DataRef<'_>) -> Option<(u64, MsgHeader)> {
        let RxState::Searching { carry, carry_off } = &self.state else {
            return None;
        };
        let bytes = data.as_real()?;
        if carry.is_empty() || carry_off + carry.len() as u64 != seq {
            return None;
        }
        let mut window = FixedBytes::<{ 2 * MAX_HDR_LEN }>::default();
        window.extend(carry.as_slice());
        window.extend(bytes.get(..self.op.header_len() - 1).unwrap_or(bytes));
        self.op.search(*carry_off, SearchWindow::Real(window.as_slice()))
    }

    /// Remembers the last `header_len - 1` bytes for split-pattern search.
    fn update_carry(&mut self, seq: u64, data: &DataRef<'_>, hl: usize) {
        let mut carry = FixedBytes::default();
        let carry_off = match data.as_real() {
            Some(bytes) => {
                let start = bytes.len().saturating_sub(hl - 1);
                carry.extend(bytes.get(start..).unwrap_or_default());
                seq + start as u64
            }
            None => seq + data.len() as u64,
        };
        self.state = RxState::Searching { carry, carry_off };
    }

    fn do_track(&mut self, seq: u64, data: &mut DataRef<'_>) {
        let RxState::Tracking {
            candidate,
            ref mut walker,
            confirmed,
        } = self.state
        else {
            return;
        };
        let seq_end = seq + data.len() as u64;
        let exp = walker.expected();
        if seq_end <= exp {
            // Duplicate of tracked data: ignore.
            return;
        }
        if seq > exp {
            // Lost track of the stream: back to searching, scan this packet.
            self.stats.resync_failed += 1;
            self.enter_searching(seq);
            self.do_search(seq, data);
            return;
        }
        if !walker.track(&*self.op, &mut data.slice((exp - seq) as usize, data.len())) {
            // d1: unexpected pattern — back to searching.
            self.stats.resync_failed += 1;
            self.enter_searching(seq_end);
            return;
        }
        if confirmed.is_none() {
            // Still waiting on software. If the mailbox can lose messages,
            // the original request may be gone — re-emit it every
            // `rerequest_pkts` tracked packets so a dropped request heals
            // instead of wedging the flow in Tracking.
            self.track_pkts += 1;
            if let Some(n) = self.rerequest_pkts {
                if self.track_pkts >= n {
                    self.track_pkts = 0;
                    self.stats.rerequests += 1;
                    self.events.push(EngineEvent::ResyncRequest {
                        layer: 0,
                        tcpsn: candidate,
                    });
                    self.tracer.record(|| Event::ResyncRequest { tcpsn: candidate });
                    self.tracer.count("rx.resync_rerequests", 1);
                }
            }
        }
        self.try_resume();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{self, DemoFlow};
    use crate::msg::FrameIndex;

    /// Builds a stream of demo messages and splits it into packets of
    /// `mtu` bytes; returns (packets as (seq, bytes), full wire stream).
    fn packets(bodies: &[usize], mtu: usize) -> (Vec<(u64, Vec<u8>)>, Vec<u8>) {
        let mut stream = Vec::new();
        for &b in bodies {
            let body: Vec<u8> = (0..b).map(|i| (i % 251) as u8).collect();
            stream.extend_from_slice(&demo::encode_msg(&body));
        }
        let pkts = stream
            .chunks(mtu)
            .enumerate()
            .map(|(i, c)| ((i * mtu) as u64, c.to_vec()))
            .collect();
        (pkts, stream)
    }

    fn engine() -> RxEngine {
        RxEngine::new(Box::new(DemoFlow::rx_functional(demo::DEFAULT_KEY)), 0, 0)
    }

    #[test]
    fn in_sequence_fully_offloaded() {
        let (pkts, _) = packets(&[100, 200, 50], 60);
        let mut e = engine();
        for (seq, mut p) in pkts {
            let flags = e.on_packet(seq, &mut DataRef::Real(&mut p));
            assert!(flags.tls_decrypted, "packet at {seq} offloaded");
        }
        let s = e.stats();
        assert_eq!(s.pkts, s.pkts_offloaded);
        assert_eq!(e.state_kind(), RxStateKind::Offloading);
    }

    #[test]
    fn retransmission_bypasses_offload() {
        let (pkts, _) = packets(&[300], 100);
        let mut e = engine();
        let (s0, p0) = pkts[0].clone();
        e.on_packet(s0, &mut DataRef::Real(&mut p0.clone()));
        // Same packet again: Fig. 8a.
        let flags = e.on_packet(s0, &mut DataRef::Real(&mut p0.clone()));
        assert!(!flags.tls_decrypted);
        assert_eq!(e.stats().retransmit_bypass, 1);
        // Stream continues offloaded.
        let (s1, mut p1) = pkts[1].clone();
        assert!(e.on_packet(s1, &mut DataRef::Real(&mut p1)).tls_decrypted);
    }

    #[test]
    fn data_loss_resumes_at_known_boundary() {
        // Fig. 8b: drop a mid-message packet; the engine re-seats at the
        // next header (offset 205), which falls inside packet 3 [180, 240).
        let (pkts, _) = packets(&[200, 100, 100], 60);
        let mut e = engine();
        let mut offloaded = Vec::new();
        for (i, (seq, p)) in pkts.iter().enumerate() {
            if i == 2 {
                continue; // lost, never retransmitted (receiver-side view)
            }
            let flags = e.on_packet(*seq, &mut DataRef::Real(&mut p.clone()));
            offloaded.push((i, flags.tls_decrypted));
        }
        assert!(e.stats().boundary_resyncs >= 1, "used Fig 8b path");
        assert_eq!(e.stats().resync_requests, 0, "no software help needed");
        // Everything after the re-seat boundary packet is offloaded again.
        let last = offloaded.last().unwrap();
        assert!(last.1, "tail packets offloaded after boundary resync");
    }

    #[test]
    fn header_loss_triggers_speculative_search_and_confirm() {
        // Fig. 8c: drop packets containing a message boundary the context
        // cannot compute past, forcing search + tracking + confirmation.
        // Wire lengths: 505, 85, 85, 85, 405, 505, 405 ->
        // boundaries at 0, 505, 590, 675, 760, 1165, 1670; total 2075.
        let bodies = [500usize, 80, 80, 80, 400, 500, 400];
        let (pkts, _) = packets(&bodies, 100);
        let boundaries = [0u64, 505, 590, 675, 760, 1165, 1670];
        let mut e = engine();
        let mut events = Vec::new();
        for (i, (seq, p)) in pkts.iter().enumerate().take(13) {
            if i == 5 || i == 6 {
                continue; // lost, never retransmitted (receiver-side view)
            }
            e.on_packet(*seq, &mut DataRef::Real(&mut p.clone()));
            events.extend(e.take_events());
        }
        assert!(!events.is_empty(), "engine asked software for confirmation");
        let EngineEvent::ResyncRequest { tcpsn, layer } = events[0];
        assert_eq!(layer, 0);
        assert_eq!(e.state_kind(), RxStateKind::Tracking);

        // Software confirms: it knows the message index at that offset.
        let idx = boundaries.iter().position(|&b| b == tcpsn).expect("real boundary") as u64;
        e.on_resync_response(0, tcpsn, true, idx);
        assert_eq!(e.stats().resync_ok, 1);

        // Feed the rest of the stream; offloading resumes at a boundary.
        let mut tail_offloaded = false;
        for (seq, p) in pkts.iter().skip(13) {
            let flags = e.on_packet(*seq, &mut DataRef::Real(&mut p.clone()));
            tail_offloaded |= flags.tls_decrypted;
        }
        assert!(tail_offloaded, "offloading resumed after confirmation");
        assert_eq!(e.state_kind(), RxStateKind::Offloading);
    }

    #[test]
    fn rejection_returns_to_searching() {
        // Wire lengths 505, 405, 305: boundaries at 0, 505, 910.
        let (pkts, _) = packets(&[500, 400, 300], 100);
        let mut e = engine();
        // Start mid-stream: the engine must search.
        let mut tcpsn = None;
        for (s, p) in pkts.iter().skip(6) {
            e.on_packet(*s, &mut DataRef::Real(&mut p.clone()));
            if let Some(EngineEvent::ResyncRequest { tcpsn: t, .. }) = e.take_events().first() {
                tcpsn = Some(*t);
                break;
            }
        }
        let t = tcpsn.expect("boundary at 910 lies in packet 9");
        assert_eq!(t, 910);
        e.on_resync_response(0, t, false, 0);
        assert_eq!(e.state_kind(), RxStateKind::Searching);
        assert!(e.stats().resync_failed >= 1);
    }

    #[test]
    fn stale_response_is_ignored() {
        let mut e = engine();
        e.on_resync_response(0, 1234, true, 0);
        assert_eq!(e.state_kind(), RxStateKind::Offloading, "unchanged");
        assert_eq!(e.stats().resync_ok, 0);
    }

    #[test]
    fn modeled_mode_matches_functional_behaviour() {
        let bodies = [100usize, 100, 100];
        let (pkts, stream) = packets(&bodies, 60);
        let fi = FrameIndex::new();
        let mut off = 0u64;
        for &b in &bodies {
            let total = (demo::HDR_LEN + b + 1) as u32;
            fi.push(off, total);
            off += total as u64;
        }
        assert_eq!(off, stream.len() as u64);

        let mut ef = engine();
        let mut em = RxEngine::new(Box::new(DemoFlow::rx_modeled(fi)), 0, 0);
        for (i, (seq, p)) in pkts.iter().enumerate() {
            if i == 1 {
                continue;
            }
            let ff = ef.on_packet(*seq, &mut DataRef::Real(&mut p.clone()));
            let fm = em.on_packet(*seq, &mut DataRef::Modeled(p.len()));
            assert_eq!(
                ff.tls_decrypted, fm.tls_decrypted,
                "packet {i}: functional and modeled agree"
            );
        }
        assert_eq!(ef.stats().boundary_resyncs, em.stats().boundary_resyncs);
    }

    #[test]
    fn split_magic_pattern_found_via_carry() {
        // Put the engine in searching, then deliver a header split across
        // two contiguous packets, at every split inside the header.
        let body = vec![9u8; 50];
        let msg = demo::encode_msg(&body);
        for split in 1..demo::HDR_LEN {
            let mut e = engine();
            // Jump into the void so the engine searches (gap with no boundary).
            let mut junk = vec![0u8; 40];
            e.on_packet(1000, &mut DataRef::Real(&mut junk));
            assert_eq!(e.state_kind(), RxStateKind::Searching);

            let base = 1040u64;
            let mut a = msg[..split].to_vec();
            let mut b = msg[split..].to_vec();
            e.on_packet(base, &mut DataRef::Real(&mut a));
            assert_eq!(e.state_kind(), RxStateKind::Searching, "part of a header is not enough");
            e.on_packet(base + split as u64, &mut DataRef::Real(&mut b));
            assert_eq!(e.state_kind(), RxStateKind::Tracking, "carry found the pattern split at {split}");
            let ev = e.take_events();
            assert!(matches!(
                ev.first(),
                Some(EngineEvent::ResyncRequest { tcpsn, .. }) if *tcpsn == base
            ));
            // Tracking walked the rest of the message: confirming resumes
            // offload at the next boundary.
            e.on_resync_response(0, base, true, 0);
            assert_eq!(e.expected(), Some(base + msg.len() as u64), "split {split}");
        }
    }

    #[test]
    fn context_state_is_copy_and_fits_the_nic_context() {
        fn copy<T: Copy>() {}
        copy::<Walker>();
        copy::<RxState>();
        // The cursor and resync state (80 B on x86-64) take at most half of
        // the context's 208 B; the other half is the L5P's own dynamic state
        // (AES-GCM's counter block, GHASH accumulator and tag; or NVMe's
        // CRC32C, CID and placement offset).
        let size = std::mem::size_of::<RxState>();
        assert!(size <= crate::nic::CTX_BYTES as usize / 2, "RxState is {size} B");
    }

    #[test]
    fn desync_on_garbage_enters_search() {
        let mut e = engine();
        let mut junk = vec![0xEEu8; 100];
        let flags = e.on_packet(0, &mut DataRef::Real(&mut junk));
        assert!(!flags.tls_decrypted);
        assert_eq!(e.stats().desyncs, 1);
        assert_eq!(e.state_kind(), RxStateKind::Searching);
    }

    /// Builds a stream whose second message *body* contains, on the wire, a
    /// byte sequence indistinguishable from a demo header (`A5 00 08 5A` —
    /// a plausible 8-byte-body frame). Layout:
    ///
    /// ```text
    /// msg 0: [0,   125)  body 120
    /// msg 1: [125, 190)  body 60; fake header on the wire at 139
    /// msg 2: [190, 275)  body 80
    /// msg 3: [275, 320)  body 40
    /// ```
    fn stream_with_fake_header() -> Vec<u8> {
        // Wire byte = plain ^ DEFAULT_KEY, so pick plaintext that ciphers to
        // the magic pattern.
        let mut body1 = vec![0u8; 60];
        for (i, w) in [0xA5u8, 0x00, 0x08, 0x5A].into_iter().enumerate() {
            body1[10 + i] = w ^ demo::DEFAULT_KEY;
        }
        let mut stream = Vec::new();
        stream.extend_from_slice(&demo::encode_msg(&vec![1u8; 120]));
        stream.extend_from_slice(&demo::encode_msg(&body1));
        stream.extend_from_slice(&demo::encode_msg(&vec![2u8; 80]));
        stream.extend_from_slice(&demo::encode_msg(&vec![3u8; 40]));
        assert_eq!(stream.len(), 320);
        assert_eq!(&stream[139..143], &[0xA5, 0x00, 0x08, 0x5A], "fake header placed");
        stream
    }

    #[test]
    fn false_positive_pattern_rejected_by_software_then_recovers() {
        // A search that lands on payload bytes mimicking a header must not
        // corrupt the stream: software rejects the candidate (d1) and the
        // engine later locks onto the *true* next boundary.
        let stream = stream_with_fake_header();
        let mut e = engine();

        // Everything before the fake pattern is lost; the first packet the
        // NIC sees starts exactly at the look-alike bytes and ends before
        // the fake frame's implied next boundary (139 + 13 = 152), so
        // tracking cannot self-invalidate yet.
        let mut p = stream[139..152].to_vec();
        e.on_packet(139, &mut DataRef::Real(&mut p));
        assert_eq!(e.state_kind(), RxStateKind::Tracking, "took the bait");
        let ev = e.take_events();
        assert!(
            matches!(ev.first(), Some(EngineEvent::ResyncRequest { tcpsn, .. }) if *tcpsn == 139),
            "asked software about the fake offset"
        );

        // Software knows 139 is mid-body: reject. d1 back to searching.
        e.on_resync_response(0, 139, false, 0);
        assert_eq!(e.state_kind(), RxStateKind::Searching);
        assert_eq!(e.stats().resync_failed, 1);
        assert_eq!(e.stats().resync_ok, 0);

        // The rest of msg 1 carries no pattern; msg 2's real header does.
        let mut p = stream[152..190].to_vec();
        e.on_packet(152, &mut DataRef::Real(&mut p));
        assert_eq!(e.state_kind(), RxStateKind::Searching);
        let mut p = stream[190..275].to_vec();
        e.on_packet(190, &mut DataRef::Real(&mut p));
        assert_eq!(e.state_kind(), RxStateKind::Tracking);
        let ev = e.take_events();
        assert!(
            matches!(ev.first(), Some(EngineEvent::ResyncRequest { tcpsn, .. }) if *tcpsn == 190),
            "found the true boundary"
        );
        e.on_resync_response(0, 190, true, 2);
        assert_eq!(e.stats().resync_ok, 1);
        assert_eq!(e.state_kind(), RxStateKind::Offloading, "resumed at msg 3");

        let mut p = stream[275..320].to_vec();
        let flags = e.on_packet(275, &mut DataRef::Real(&mut p));
        assert!(flags.tls_decrypted, "msg 3 fully offloaded again");
    }

    #[test]
    fn false_positive_invalidated_by_tracking_ignores_late_response() {
        // Here the packet extends past the fake frame's implied boundary
        // (152): tracking parses the "next header" there, finds garbage, and
        // self-invalidates before software even answers. The response that
        // then arrives — even an (erroneous) confirmation — must be ignored
        // as stale.
        let stream = stream_with_fake_header();
        let mut e = engine();

        let mut p = stream[139..175].to_vec();
        e.on_packet(139, &mut DataRef::Real(&mut p));
        assert_eq!(e.stats().resync_requests, 1, "request was issued");
        assert_eq!(e.stats().resync_failed, 1, "tracking self-invalidated (d1)");
        assert_eq!(e.state_kind(), RxStateKind::Searching);

        e.on_resync_response(0, 139, true, 1);
        assert_eq!(e.state_kind(), RxStateKind::Searching, "stale confirm ignored");
        assert_eq!(e.stats().resync_ok, 0);
    }

    /// Extracts the resync transitions from a tracer as (from, to) pairs.
    fn transitions(t: &Tracer) -> Vec<(ResyncPhase, ResyncPhase)> {
        t.records()
            .into_iter()
            .filter_map(|r| match r.event {
                Event::Resync { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn trace_shows_confirmation_ladder() {
        // The happy resync path must appear in the trace as the full
        // ordered ladder: Offloading→Searching→Tracking→Confirmed→Offloading.
        let stream = stream_with_fake_header();
        let mut e = engine();
        let tracer = Tracer::default();
        tracer.set_enabled(true);
        e.set_tracer(tracer.scoped(1));

        let mut p = stream[125..139].to_vec();
        e.on_packet(125, &mut DataRef::Real(&mut p)); // msg 1 header found
        e.on_resync_response(0, 125, true, 1);
        let mut p = stream[139..190].to_vec();
        e.on_packet(139, &mut DataRef::Real(&mut p)); // boundary 190 → resume

        use ResyncPhase::*;
        assert_eq!(
            transitions(&tracer),
            vec![
                (Offloading, Searching),
                (Searching, Tracking),
                (Tracking, Confirmed),
                (Confirmed, Offloading),
            ]
        );
    }

    #[test]
    fn trace_false_positive_shows_tracking_to_searching_not_confirmed() {
        // A magic-pattern false positive that software rejects must appear
        // in the trace as Tracking→Searching (d1) — never as a transition
        // into Confirmed.
        let stream = stream_with_fake_header();
        let mut e = engine();
        let tracer = Tracer::default();
        tracer.set_enabled(true);
        e.set_tracer(tracer.scoped(1));

        let mut p = stream[139..152].to_vec();
        e.on_packet(139, &mut DataRef::Real(&mut p)); // bait taken
        e.on_resync_response(0, 139, false, 0); // software rejects

        let trans = transitions(&tracer);
        assert!(
            trans.contains(&(ResyncPhase::Tracking, ResyncPhase::Searching)),
            "rejection must show as Tracking→Searching, got {trans:?}"
        );
        assert!(
            trans.iter().all(|&(_, to)| to != ResyncPhase::Confirmed),
            "no bogus Confirmed for a rejected candidate: {trans:?}"
        );
        // The rejected exchange is visible as request + negative response.
        let evs = tracer.records();
        assert!(evs.iter().any(|r| r.event == Event::ResyncRequest { tcpsn: 139 }));
        assert!(evs.iter().any(|r| r.event == Event::ResyncResponse { tcpsn: 139, ok: false }));
    }

    #[test]
    fn trace_self_invalidation_passes_through_tracking() {
        // Even when the tail of the very packet that produced the candidate
        // invalidates it, the trace shows the transient Tracking phase
        // rather than jumping Searching→Searching.
        let stream = stream_with_fake_header();
        let mut e = engine();
        let tracer = Tracer::default();
        tracer.set_enabled(true);
        e.set_tracer(tracer.scoped(1));

        let mut p = stream[139..175].to_vec();
        e.on_packet(139, &mut DataRef::Real(&mut p));
        use ResyncPhase::*;
        assert_eq!(
            transitions(&tracer),
            vec![(Offloading, Searching), (Searching, Tracking), (Tracking, Searching)]
        );
    }

    #[test]
    fn midstream_install_searches_then_reoffloads() {
        // Reinstall after reset/invalidation: the fresh engine knows no
        // framing, starts in Searching, and reconverges via the ladder.
        // Boundaries 0, 505, 910, 1215; total 1520 (16 packets of 100).
        let (pkts, _) = packets(&[500, 400, 300, 300], 100);
        let mut e = RxEngine::new_searching(
            Box::new(DemoFlow::rx_functional(demo::DEFAULT_KEY)),
            600,
        );
        assert_eq!(e.state_kind(), RxStateKind::Searching);
        let mut tcpsn = None;
        for (s, p) in pkts.iter().skip(6) {
            e.on_packet(*s, &mut DataRef::Real(&mut p.clone()));
            if let Some(EngineEvent::ResyncRequest { tcpsn: t, .. }) = e.take_events().first() {
                tcpsn = Some(*t);
                break;
            }
        }
        assert_eq!(tcpsn, Some(910), "found the msg-2 boundary");
        e.on_resync_response(0, 910, true, 2);
        assert_eq!(e.stats().resync_ok, 1);
        // The rest of the stream offloads again.
        let mut tail_offloaded = false;
        for (s, p) in pkts.iter().skip(10) {
            tail_offloaded |= e
                .on_packet(*s, &mut DataRef::Real(&mut p.clone()))
                .tls_decrypted;
        }
        assert!(tail_offloaded, "offload resumed after mid-stream install");
    }

    #[test]
    fn quiesce_closes_the_transition_ladder() {
        // Tearing down an offloading engine must leave the per-flow trace
        // chain at Searching, so a successor created with `new_searching`
        // (which emits nothing) continues a legal chain.
        let mut e = engine();
        let tracer = Tracer::default();
        tracer.set_enabled(true);
        e.set_tracer(tracer.scoped(1));
        let (pkts, _) = packets(&[100], 60);
        let (s0, p0) = pkts[0].clone();
        e.on_packet(s0, &mut DataRef::Real(&mut p0.clone()));
        e.quiesce();
        assert_eq!(e.state_kind(), RxStateKind::Searching);
        use ResyncPhase::*;
        assert_eq!(transitions(&tracer), vec![(Offloading, Searching)]);
        // Quiescing twice (or from Searching) emits nothing further.
        e.quiesce();
        assert_eq!(transitions(&tracer).len(), 1);
        // A successor starts silent, at Searching.
        let e2 = RxEngine::new_searching(Box::new(DemoFlow::rx_functional(0)), 0);
        assert_eq!(e2.state_kind(), RxStateKind::Searching);
    }

    #[test]
    fn corrupt_context_detected_on_next_packet_then_recovers() {
        // Layout: msg 0 [0,125), msg 1 [125,190), msg 2 [190,275), msg 3 [275,320).
        let stream = stream_with_fake_header();
        let mut e = engine();
        let mut p = stream[0..125].to_vec();
        assert!(e.on_packet(0, &mut DataRef::Real(&mut p)).tls_decrypted);
        e.corrupt_context();
        // The damage is latent until the context is next loaded.
        assert_eq!(e.state_kind(), RxStateKind::Offloading);
        // Next in-sequence packet: integrity check trips, no offload, the
        // bytes are NOT touched (software will process them).
        let orig = stream[125..139].to_vec();
        let mut p = orig.clone();
        let flags = e.on_packet(125, &mut DataRef::Real(&mut p));
        assert!(!flags.tls_decrypted);
        assert_eq!(p, orig, "damaged context must not rewrite payload");
        assert_eq!(e.stats().corrupt_detected, 1);
        // The search already latched onto msg 1's real header at 125.
        assert_eq!(e.state_kind(), RxStateKind::Tracking);
        e.on_resync_response(0, 125, true, 1);
        let mut p = stream[190..275].to_vec();
        assert!(e.on_packet(190, &mut DataRef::Real(&mut p)).tls_decrypted, "recovered");
    }

    #[test]
    fn unanswered_request_is_reemitted_when_enabled() {
        let stream = stream_with_fake_header();
        let mut e = engine();
        e.set_rerequest_pkts(Some(2));
        // Msg 0 lost; msg 1's header at 125 becomes the candidate.
        let mut p = stream[125..139].to_vec();
        e.on_packet(125, &mut DataRef::Real(&mut p));
        assert_eq!(e.stats().resync_requests, 1);
        let _ = e.take_events();
        // Two more tracked packets, still below the 190 boundary: the
        // pending request is re-emitted for the same candidate.
        let mut p = stream[139..150].to_vec();
        e.on_packet(139, &mut DataRef::Real(&mut p));
        let mut p = stream[150..160].to_vec();
        e.on_packet(150, &mut DataRef::Real(&mut p));
        assert_eq!(e.stats().rerequests, 1);
        let ev = e.take_events();
        assert!(
            matches!(ev.first(), Some(EngineEvent::ResyncRequest { tcpsn, .. }) if *tcpsn == 125),
            "re-request names the same candidate: {ev:?}"
        );
        // Confirmation still lands normally.
        e.on_resync_response(0, 125, true, 1);
        assert_eq!(e.stats().resync_ok, 1);
    }

    #[test]
    fn rerequest_disabled_by_default() {
        let stream = stream_with_fake_header();
        let mut e = engine();
        let mut p = stream[125..139].to_vec();
        e.on_packet(125, &mut DataRef::Real(&mut p));
        let _ = e.take_events();
        for (a, b) in [(139u64, 150usize), (150, 160), (160, 175)] {
            let mut p = stream[a as usize..b].to_vec();
            e.on_packet(a, &mut DataRef::Real(&mut p));
        }
        assert_eq!(e.stats().rerequests, 0);
        assert!(e.take_events().is_empty(), "no duplicate requests by default");
    }

    #[test]
    fn confirmation_races_retransmitted_segment() {
        // A retransmission arriving while the candidate awaits confirmation
        // must neither advance nor reset the tracker; the confirmation that
        // follows still resumes offloading at the correct boundary.
        // Layout: msg 0 [0, 125), msg 1 [125, 190), msg 2 [190, 275).
        let stream = stream_with_fake_header();
        let mut e = engine();

        // Msg 0 is lost; the stream resumes at msg 1's real header, ending
        // before msg 1's boundary at 190 so the candidate stays speculative.
        let mut p = stream[125..139].to_vec();
        e.on_packet(125, &mut DataRef::Real(&mut p));
        assert_eq!(e.state_kind(), RxStateKind::Tracking);
        let ev = e.take_events();
        assert!(
            matches!(ev.first(), Some(EngineEvent::ResyncRequest { tcpsn, .. }) if *tcpsn == 125)
        );

        // The same segment is retransmitted (e.g. a spurious RTO) before the
        // driver's response lands: a pure duplicate of tracked data.
        let mut p = stream[125..139].to_vec();
        e.on_packet(125, &mut DataRef::Real(&mut p));
        assert_eq!(e.state_kind(), RxStateKind::Tracking, "duplicate ignored");
        assert_eq!(e.stats().resync_requests, 1, "no second request");

        // More of msg 1 streams in while still awaiting confirmation (the
        // fake pattern at 139 is irrelevant: tracking only parses at the
        // *expected* boundary, 190).
        let mut p = stream[139..190].to_vec();
        e.on_packet(139, &mut DataRef::Real(&mut p));
        assert_eq!(e.state_kind(), RxStateKind::Tracking);

        // The confirmation finally arrives and wins the race.
        e.on_resync_response(0, 125, true, 1);
        assert_eq!(e.stats().resync_ok, 1);
        assert_eq!(e.state_kind(), RxStateKind::Offloading);

        let mut p = stream[190..275].to_vec();
        let flags = e.on_packet(190, &mut DataRef::Real(&mut p));
        assert!(flags.tls_decrypted, "msg 2 offloaded after the race");
    }
}

//! The offloadable-operation interface between the generic engines and a
//! concrete L5P (TLS, NVMe-TCP, or a composition).
//!
//! A type implementing [`L5Flow`] captures everything protocol-specific the
//! NIC needs, and nothing else. The trait is the codification of Table 3's
//! preconditions:
//!
//! * **size-preserving / pre-provisioned buffers** — [`L5Flow::process`]
//!   transforms bytes in place (or places them into pre-registered
//!   destination buffers) and never changes stream length;
//! * **incrementally computable, constant-size state** — `process` is called
//!   with arbitrary byte ranges in order; all state lives inside the impl
//!   and must be reconstructible at a message boundary from the message
//!   *count* alone ([`L5Flow::resync_to`]);
//! * **plaintext magic pattern + length field** — [`L5Flow::parse`]
//!   validates header bytes and yields the message's total length.
//!
//! The modeled shortcut is written once, here: [`L5Flow::parse_at`] and
//! [`L5Flow::search`] read real headers in functional mode and the sender's
//! [`FrameIndex`] in modeled mode, per the flow's [`FlowMode`].

use std::collections::VecDeque;

use ano_sim::payload::Payload;
use ano_tcp::segment::SkbFlags;

use crate::msg::{DataRef, EngineEvent, FlowMode, FrameIndex, MsgHeader, SearchWindow};

/// Per-flow, per-direction protocol handler executed "in the NIC".
pub trait L5Flow: std::fmt::Debug {
    /// Number of leading bytes required to parse any message header
    /// (the generic header carrying the length field).
    fn header_len(&self) -> usize;

    /// Where this flow's framing comes from.
    fn mode(&self) -> &FlowMode;

    /// The real-bytes header check: validates the magic pattern of the
    /// [`L5Flow::header_len`] bytes in `hdr` and reads the length field.
    fn parse(&self, hdr: &[u8]) -> Option<MsgHeader>;

    /// The header of the message starting at `stream_off`, at a known
    /// boundary or a speculative candidate (§4.3). `hdr` holds exactly
    /// [`L5Flow::header_len`] bytes in functional mode and is `None` in
    /// modeled mode, where the frame index answers. `None` means the bytes
    /// do not form a valid header (desynchronization or corruption).
    fn parse_at(&self, stream_off: u64, hdr: Option<&[u8]>) -> Option<MsgHeader> {
        self.mode().msg_at(stream_off, hdr, |h| self.parse(h), Some)
    }

    /// Begins message number `msg_index`, whose header `msg` (as
    /// [`L5Flow::parse_at`] returned it) starts at stream offset
    /// `stream_off`; `hdr` as in `parse_at`.
    fn begin_msg(&mut self, msg_index: u64, stream_off: u64, hdr: Option<&[u8]>, msg: MsgHeader);

    /// Processes message bytes `[msg_off, msg_off + data.len())`, where
    /// `msg_off` counts from the start of the message and the first call
    /// for a message begins at `header_len()` (the generic header bytes are
    /// delivered via [`L5Flow::begin_msg`]). Ranges arrive in order and
    /// exactly once per message.
    fn process(&mut self, msg_off: u32, data: DataRef<'_>);

    /// Ends the current message; returns whether integrity checks (CRC,
    /// AEAD tag) passed.
    fn end_msg(&mut self) -> bool;

    /// Repositions dynamic state to the boundary *before* message
    /// `msg_index` (§3.2: boundary state depends only on the number of
    /// previous messages — e.g. the TLS record sequence number).
    fn resync_to(&mut self, msg_index: u64);

    /// Maps this packet's walk outcome onto SKB offload bits. `offloaded`
    /// is true when every byte of the packet was processed with all
    /// integrity checks passing so far.
    fn packet_flags(&mut self, offloaded: bool) -> SkbFlags;

    /// Speculative search: the stream offset and header of the first valid
    /// magic pattern whose header begins *and* fits inside `window` (which
    /// starts at stream offset `window_off`), or `None`.
    fn search(&self, window_off: u64, window: SearchWindow<'_>) -> Option<(u64, MsgHeader)> {
        match (self.mode(), window) {
            (FlowMode::Functional, SearchWindow::Real(b)) => scan_window(self, window_off, b),
            (FlowMode::Functional, SearchWindow::Modeled(_)) => None,
            (FlowMode::Modeled(frames), w) => frames
                .next_at_or_after(window_off)
                .filter(|&(off, _, _)| {
                    off + self.header_len() as u64 <= window_off + w.len() as u64
                })
                .map(|(off, h, _)| (off, h)),
        }
    }

    /// Drains engine events produced by a nested (composed) engine, if any.
    fn take_events(&mut self) -> Vec<EngineEvent> {
        Vec::new()
    }

    /// Forwards a resync confirmation to a nested engine, if any. Returns
    /// true if a nested engine consumed it.
    fn resync_response(&mut self, _layer: u8, _tcpsn: u64, _ok: bool, _msg_index: u64) -> bool {
        false
    }
}

/// Scans real bytes for the first offset where [`L5Flow::parse_at`]
/// accepts a header. Headers must begin *and* fit within the window to be
/// found (split patterns are handled by the engine's carry buffer).
pub fn scan_window<F: L5Flow + ?Sized>(op: &F, window_off: u64, bytes: &[u8]) -> Option<(u64, MsgHeader)> {
    bytes.windows(op.header_len()).enumerate().find_map(|(i, hdr)| {
        let off = window_off + i as u64;
        op.parse_at(off, Some(hdr)).map(|h| (off, h))
    })
}

/// Reference to the L5P message containing a given stream offset, for
/// transmit-side context recovery (§4.2, Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxMsgRef {
    /// Stream offset of the message's first header byte.
    pub msg_start: u64,
    /// The message's index in the stream (drives boundary state).
    pub msg_index: u64,
}

/// The transmit-side upcall interface the L5P exposes to the NIC driver —
/// the Rust rendering of Listing 2's `l5o_get_tx_msgstate`, plus access to
/// the retransmit-buffered stream bytes the driver replays over PCIe.
pub trait L5TxSource {
    /// `l5o_get_tx_msgstate`: which message contains `stream_off`?
    ///
    /// The L5P must answer for any byte still unacknowledged (it "holds a
    /// reference to the buffers which contain transmitted L5P message data,
    /// similarly to how TCP holds a reference to all unacknowledged data").
    fn msg_at(&self, stream_off: u64) -> Option<TxMsgRef>;

    /// Fetches stream bytes `[from, to)` from host memory for replay.
    /// The driver accounts this transfer against PCIe bandwidth (Fig. 16b).
    fn stream_bytes(&self, from: u64, to: u64) -> Payload;
}

/// The transmit-side message log every L5P keeps to answer
/// `l5o_get_tx_msgstate` (§4.2): each message handed to the layer below is
/// pushed into the stream's [`FrameIndex`] — the same entries modeled-mode
/// engines and the peer's parser read — and held there until the whole
/// message is acknowledged.
#[derive(Debug, Default)]
pub struct TxMsgLog {
    frames: FrameIndex,
    /// Stream offset one past the last logged message.
    end: u64,
}

impl TxMsgLog {
    /// An empty log over `frames`.
    pub fn with_frames(frames: FrameIndex) -> TxMsgLog {
        TxMsgLog { frames, end: 0 }
    }

    /// The log's frame index.
    pub fn frames(&self) -> FrameIndex {
        self.frames.clone()
    }

    /// Stream offset one past the last logged message.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Messages logged so far (the next message's index).
    pub fn count(&self) -> u64 {
        self.frames.pushed()
    }

    /// Logs a message of `total_len` bytes at the current stream end
    /// (`header` as in [`FrameIndex::push_full`]); returns its index.
    pub fn push(&mut self, total_len: u32, header: Option<Box<[u8]>>) -> u64 {
        let msg_index = self.frames.push_full(self.end, total_len, header);
        self.end += total_len as u64;
        msg_index
    }

    /// `l5o_get_tx_msgstate`: the logged message containing `stream_off`.
    pub fn msg_at(&self, stream_off: u64) -> Option<TxMsgRef> {
        self.frames.containing(stream_off)
    }

    /// Releases every message that ends at or below the cumulative ack
    /// (§4.2: "the L5P releases its reference when the entire message is
    /// acknowledged").
    pub fn release_below(&mut self, acked: u64) {
        self.frames.prune_below(acked);
    }
}

/// Message starts remembered for resync confirmation.
const RESYNC_HISTORY: usize = 4096;

/// The software half of the §4.3 resync handshake, kept by every receive-side
/// L5P parser: it remembers where recent messages started, queues the NIC's
/// `l5o_resync_rx_req` guesses until the in-order stream has passed them, and
/// produces the `l5o_resync_rx_resp` answers.
#[derive(Debug, Default)]
pub struct ResyncResponder {
    /// Recent message starts, oldest first; the index of `starts[i]` is
    /// `seen - starts.len() + i`.
    starts: VecDeque<u64>,
    /// Message starts noted so far.
    seen: u64,
    /// Stream offset the parser has consumed up to (as of the last flush).
    pos: u64,
    pending: Vec<u64>,
    responses: Vec<(u64, bool, u64)>,
}

impl ResyncResponder {
    /// Notes that the next message starts at stream offset `off`.
    pub fn note_start(&mut self, off: u64) {
        if self.starts.len() >= RESYNC_HISTORY {
            self.starts.pop_front();
        }
        self.starts.push_back(off);
        self.seen += 1;
    }

    /// Registers a NIC resync request (`l5o_resync_rx_req`): is `tcpsn` a
    /// message boundary? Answered at once if the stream is already past it.
    pub fn request(&mut self, tcpsn: u64) {
        self.pending.push(tcpsn);
        self.flush(self.pos);
    }

    /// Answers every pending request the stream, now consumed up to `pos`,
    /// has passed.
    pub fn flush(&mut self, pos: u64) {
        self.pos = pos;
        let ResyncResponder {
            starts,
            seen,
            pending,
            responses,
            ..
        } = self;
        pending.retain(|&tcpsn| {
            if tcpsn >= pos {
                return true; // stream has not reached it yet
            }
            responses.push(match starts.binary_search(&tcpsn) {
                Ok(i) => (tcpsn, true, *seen - (starts.len() - i) as u64),
                Err(_) => (tcpsn, false, 0),
            });
            false
        });
    }

    /// Drains the ready answers: `(tcpsn, is-a-boundary, msg_index)`.
    pub fn take(&mut self) -> std::vec::Drain<'_, (u64, bool, u64)> {
        self.responses.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Nop(FlowMode);

    impl L5Flow for Nop {
        fn header_len(&self) -> usize {
            3
        }
        fn mode(&self) -> &FlowMode {
            &self.0
        }
        fn parse(&self, h: &[u8]) -> Option<MsgHeader> {
            (h[0] == 0xAB).then_some(MsgHeader { total_len: 10 })
        }
        fn begin_msg(&mut self, _i: u64, _o: u64, _h: Option<&[u8]>, _m: MsgHeader) {}
        fn process(&mut self, _o: u32, _d: DataRef<'_>) {}
        fn end_msg(&mut self) -> bool {
            true
        }
        fn resync_to(&mut self, _i: u64) {}
        fn packet_flags(&mut self, offloaded: bool) -> SkbFlags {
            SkbFlags {
                tls_decrypted: offloaded,
                ..Default::default()
            }
        }
    }

    #[test]
    fn provided_framing_follows_the_mode() {
        let real = Nop(FlowMode::Functional);
        let window = [0u8, 0, 0xAB, 1, 2, 0xAB, 9];
        assert_eq!(real.search(100, SearchWindow::Real(&window)).map(|(o, _)| o), Some(102));
        assert_eq!(real.search(100, SearchWindow::Real(&window[3..6])), None, "must fit");
        assert_eq!(real.parse_at(0, None), None, "functional needs bytes");

        let frames = FrameIndex::new();
        frames.push(100, 40);
        let modeled = Nop(FlowMode::Modeled(frames));
        assert_eq!(modeled.parse_at(100, None), Some(MsgHeader { total_len: 40 }));
        assert_eq!(modeled.parse_at(101, None), None);
        let hit = modeled.search(90, SearchWindow::Modeled(13));
        assert_eq!(hit, Some((100, MsgHeader { total_len: 40 })));
        assert_eq!(modeled.search(90, SearchWindow::Modeled(12)), None, "header must fit");
    }

    #[test]
    fn tx_msg_log_lookup_and_release() {
        let mut log = TxMsgLog::default();
        assert_eq!(log.push(100, None), 0);
        assert_eq!(log.push(50, None), 1);
        assert_eq!((log.end(), log.count(), log.frames().len()), (150, 2, 2));
        let at = |log: &TxMsgLog, off| log.msg_at(off).map(|m| (m.msg_start, m.msg_index));
        assert_eq!(at(&log, 0), Some((0, 0)), "at a message start");
        assert_eq!(at(&log, 99), Some((0, 0)), "inside the first message");
        assert_eq!(at(&log, 120), Some((100, 1)), "inside the second");
        assert_eq!(at(&log, 150), None, "past the stream end");

        log.release_below(99);
        assert_eq!(at(&log, 10), Some((0, 0)), "partially acked message is kept");
        log.release_below(100);
        assert_eq!(at(&log, 10), None, "fully acked message released");
        assert_eq!(at(&log, 100), Some((100, 1)), "unacked message kept");
        assert_eq!(log.frames().len(), 1, "frame index pruned alongside");
        log.release_below(150);
        assert_eq!(at(&log, 120), None, "last message released once fully acked");
        assert_eq!(log.push(10, None), 2, "indices keep counting after a full release");
        assert_eq!(at(&log, 155), Some((150, 2)));
    }

    #[test]
    fn resync_responder_answers_once_the_stream_passes() {
        let mut r = ResyncResponder::default();
        let drain = |r: &mut ResyncResponder| r.take().collect::<Vec<_>>();
        r.note_start(0);
        r.flush(40);
        r.request(0); // already passed: answered at once
        assert_eq!(drain(&mut r), vec![(0, true, 0)]);

        r.request(40); // exactly at `pos`: not passed yet
        r.request(43); // beyond `pos`, and not a boundary
        assert!(drain(&mut r).is_empty(), "stream has not reached them");
        r.note_start(40);
        r.flush(41);
        assert_eq!(drain(&mut r), vec![(40, true, 1)]);
        r.flush(90);
        assert_eq!(drain(&mut r), vec![(43, false, 0)], "non-boundary guess refused");
        assert!(drain(&mut r).is_empty(), "each request is answered once");
    }

    #[test]
    fn resync_responder_history_is_bounded() {
        let mut r = ResyncResponder::default();
        for i in 0..RESYNC_HISTORY as u64 + 1 {
            r.note_start(i * 10);
        }
        r.flush(u64::MAX);
        r.request(0); // fell out of the 4096-entry history
        r.request(10);
        r.request(RESYNC_HISTORY as u64 * 10);
        assert_eq!(
            r.take().collect::<Vec<_>>(),
            vec![(0, false, 0), (10, true, 1), (40_960, true, 4096)]
        );
    }

    #[test]
    fn default_trait_methods() {
        let mut n = Nop(FlowMode::Functional);
        assert!(n.take_events().is_empty());
        assert!(!n.resync_response(0, 0, true, 0));
        assert!(n.packet_flags(true).tls_decrypted);
    }

    #[test]
    fn trait_is_object_safe() {
        let b: Box<dyn L5Flow> = Box::new(Nop(FlowMode::Functional));
        assert_eq!(b.header_len(), 3);
    }
}

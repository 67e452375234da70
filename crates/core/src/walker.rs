//! In-sequence message traversal.
//!
//! [`Walker`] is the "cursor" part of a per-flow hardware context: the TCP
//! sequence the context can offload, the position within the current L5P
//! message, and the message count. It drives an [`L5Flow`] over packet
//! payloads, handling headers and trailers that split across packets and
//! multiple messages per packet — the paper's §3.2 note that "the offload
//! cannot assume L5P message alignment to TCP packets".
//!
//! [`TrackWalker`] is the verification-only variant used while the NIC is in
//! the *tracking* state (§4.3): it follows message boundaries via length
//! fields and checks each expected header's magic pattern, without
//! performing the offloaded operation.

use crate::flow::L5Flow;
use crate::msg::{DataRef, MsgHeader, SearchWindow};

/// Result of walking one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Every message that *ended* during this walk passed integrity checks.
    pub clean: bool,
    /// A header failed to parse — the stream is desynchronized and the
    /// engine must fall back to speculative search.
    pub desync: bool,
}

/// Streaming cursor over in-sequence message bytes.
#[derive(Debug)]
pub struct Walker {
    hdr_buf: Vec<u8>,
    hdr_collected: usize,
    cur: Option<MsgHeader>,
    /// Bytes of the current message consumed, counting its header.
    msg_consumed: u32,
    /// Index of the current (or next, when at a boundary) message.
    msg_index: u64,
    /// Next expected stream offset.
    next_off: u64,
}

impl Walker {
    /// Creates a cursor positioned at a message boundary: stream offset
    /// `start_off` is the first header byte of message `msg_index`.
    pub fn new(start_off: u64, msg_index: u64) -> Walker {
        Walker {
            // ano-lint: allow(hot-alloc): capacity-0 header buffer; fills only when a header spans packets
            hdr_buf: Vec::new(),
            hdr_collected: 0,
            cur: None,
            msg_consumed: 0,
            msg_index,
            next_off: start_off,
        }
    }

    /// The next stream offset this cursor can process (the context `tcpsn`).
    pub fn expected(&self) -> u64 {
        self.next_off
    }

    /// Index of the message the cursor is inside of (or about to start).
    pub fn msg_index(&self) -> u64 {
        self.msg_index
    }

    /// Stream offset of the next message boundary, when known.
    ///
    /// Mid-header (length not yet parsed) it is unknown — `None`.
    pub fn next_boundary(&self) -> Option<u64> {
        match &self.cur {
            Some(m) => Some(self.next_off + (m.total_len - self.msg_consumed) as u64),
            None if self.hdr_collected == 0 => Some(self.next_off),
            None => None,
        }
    }

    /// The message index at [`Walker::next_boundary`].
    pub fn boundary_msg_index(&self) -> u64 {
        match &self.cur {
            Some(_) => self.msg_index + 1,
            None => self.msg_index,
        }
    }

    /// Walks `data`, which must start exactly at [`Walker::expected`],
    /// feeding `op`. Returns what happened.
    pub fn walk(&mut self, op: &mut dyn L5Flow, data: &mut DataRef<'_>) -> WalkOutcome {
        let hl = op.header_len();
        let len = data.len();
        let mut pos = 0usize;
        let mut clean = true;
        while pos < len {
            match self.cur {
                None => {
                    // Collect header bytes (may span packets).
                    let need = hl - self.hdr_collected;
                    let take = need.min(len - pos);
                    if let Some(bytes) = data.as_real() {
                        // ano-lint: allow(transitive-panic): pos+take clamped by min() against the buffer length
                        self.hdr_buf.extend_from_slice(&bytes[pos..pos + take]);
                    }
                    self.hdr_collected += take;
                    pos += take;
                    self.next_off += take as u64;
                    if self.hdr_collected == hl {
                        let boundary = self.next_off - hl as u64;
                        let hdr = if self.hdr_buf.len() == hl {
                            Some(self.hdr_buf.as_slice())
                        } else {
                            None
                        };
                        match op.parse_at(boundary, hdr) {
                            Some(m) if (m.total_len as usize) >= hl => {
                                op.begin_msg(self.msg_index, boundary, hdr, m);
                                self.cur = Some(m);
                                self.msg_consumed = hl as u32;
                                if m.total_len as usize == hl {
                                    clean &= op.end_msg();
                                    self.finish_msg();
                                }
                            }
                            _ => {
                                // Desync: skip the rest of the packet.
                                self.next_off += (len - pos) as u64;
                                return WalkOutcome {
                                    clean: false,
                                    desync: true,
                                };
                            }
                        }
                    }
                }
                Some(m) => {
                    let remaining = (m.total_len - self.msg_consumed) as usize;
                    let take = remaining.min(len - pos);
                    op.process(self.msg_consumed, data.slice(pos, pos + take));
                    self.msg_consumed += take as u32;
                    pos += take;
                    self.next_off += take as u64;
                    if self.msg_consumed == m.total_len {
                        clean &= op.end_msg();
                        self.finish_msg();
                    }
                }
            }
        }
        WalkOutcome {
            clean,
            desync: false,
        }
    }

    fn finish_msg(&mut self) {
        self.cur = None;
        self.msg_consumed = 0;
        self.msg_index += 1;
        self.hdr_collected = 0;
        self.hdr_buf.clear();
    }
}

/// Verification-only cursor for the tracking state.
#[derive(Debug)]
pub struct TrackWalker {
    hdr_buf: Vec<u8>,
    hdr_collected: usize,
    /// Remaining body bytes of the message being skipped.
    remaining: u32,
    /// Next expected stream offset.
    next_off: u64,
    /// Message boundaries crossed since the candidate (candidate excluded).
    boundaries_passed: u64,
}

impl TrackWalker {
    /// Starts tracking *inside* the candidate message: the candidate header
    /// began at `candidate_off` with parsed header `h`, and tracking starts
    /// consuming at `candidate_off + header_len` (the engine verifies the
    /// header itself before constructing the tracker).
    pub fn new(candidate_off: u64, h: MsgHeader, header_len: usize) -> TrackWalker {
        TrackWalker {
            // ano-lint: allow(hot-alloc): capacity-0 header buffer; fills only when a header spans packets
            hdr_buf: Vec::new(),
            hdr_collected: 0,
            remaining: h.total_len - header_len as u32,
            next_off: candidate_off + header_len as u64,
            boundaries_passed: 0,
        }
    }

    /// Next stream offset the tracker expects.
    pub fn expected(&self) -> u64 {
        self.next_off
    }

    /// Message boundaries crossed since the candidate header.
    pub fn boundaries_passed(&self) -> u64 {
        self.boundaries_passed
    }

    /// The next message boundary, when known (mid-header it is not).
    pub fn next_boundary(&self) -> Option<u64> {
        if self.hdr_collected > 0 {
            None
        } else {
            Some(self.next_off + self.remaining as u64)
        }
    }

    /// Follows `data` (which must start at [`TrackWalker::expected`]),
    /// verifying each expected header's magic pattern via
    /// [`L5Flow::parse_at`]. Returns false on a mismatch (→ transition d1,
    /// back to searching).
    pub fn walk(&mut self, op: &dyn L5Flow, data: &DataRef<'_>) -> bool {
        let hl = op.header_len();
        let len = data.len();
        let bytes = data.as_real();
        let mut pos = 0usize;
        while pos < len {
            if self.remaining > 0 {
                let take = (self.remaining as usize).min(len - pos);
                self.remaining -= take as u32;
                pos += take;
                self.next_off += take as u64;
            } else {
                // At a boundary: collect and verify the next header.
                let need = hl - self.hdr_collected;
                let take = need.min(len - pos);
                if let Some(b) = bytes {
                    // ano-lint: allow(transitive-panic): pos+take clamped by min() against the buffer length
                    self.hdr_buf.extend_from_slice(&b[pos..pos + take]);
                }
                self.hdr_collected += take;
                pos += take;
                self.next_off += take as u64;
                if self.hdr_collected == hl {
                    let boundary = self.next_off - hl as u64;
                    let hdr = if self.hdr_buf.len() == hl {
                        Some(self.hdr_buf.as_slice())
                    } else {
                        None
                    };
                    match op.parse_at(boundary, hdr) {
                        Some(m) if (m.total_len as usize) >= hl => {
                            self.remaining = m.total_len - hl as u32;
                            self.boundaries_passed += 1;
                            self.hdr_collected = 0;
                            self.hdr_buf.clear();
                        }
                        _ => return false,
                    }
                }
            }
        }
        true
    }
}

/// Convenience for building a [`SearchWindow`] over a packet range.
pub fn window_of<'a>(data: &'a DataRef<'_>, start: usize) -> SearchWindow<'a> {
    match data.as_real() {
        // ano-lint: allow(transitive-panic): window start is clamped by the walker's collected-offset accounting
        Some(b) => SearchWindow::Real(&b[start..]),
        None => SearchWindow::Modeled(data.len() - start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::DemoFlow;
    use crate::msg::FrameIndex;

    /// Builds a functional-mode demo stream of messages with the given body
    /// lengths; returns (stream bytes, frame index).
    fn demo_stream(bodies: &[usize]) -> (Vec<u8>, FrameIndex) {
        let fi = FrameIndex::new();
        let mut out = Vec::new();
        for &b in bodies {
            let start = out.len() as u64;
            out.extend_from_slice(&crate::demo::encode_msg(&vec![0x11u8; b]));
            fi.push(start, (b + crate::demo::HDR_LEN + 1) as u32);
        }
        (out, fi)
    }

    #[test]
    fn walks_multiple_messages_in_one_packet() {
        let (stream, _) = demo_stream(&[5, 3, 10]);
        let mut op = DemoFlow::rx_functional(7);
        let mut w = Walker::new(0, 0);
        let mut buf = stream.clone();
        let mut d = DataRef::Real(&mut buf);
        let out = w.walk(&mut op, &mut d);
        assert!(out.clean && !out.desync);
        assert_eq!(w.msg_index(), 3);
        assert_eq!(w.expected(), stream.len() as u64);
        assert_eq!(w.next_boundary(), Some(stream.len() as u64));
    }

    #[test]
    fn header_split_across_packets() {
        let (stream, _) = demo_stream(&[100]);
        let mut op = DemoFlow::rx_functional(7);
        let mut w = Walker::new(0, 0);
        // Split inside the 4-byte header.
        for split in [1usize, 2, 3] {
            let mut op2 = DemoFlow::rx_functional(7);
            let mut w2 = Walker::new(0, 0);
            let mut a = stream[..split].to_vec();
            let mut b = stream[split..].to_vec();
            let o1 = w2.walk(&mut op2, &mut DataRef::Real(&mut a));
            assert!(!o1.desync);
            assert_eq!(w2.next_boundary(), None, "mid-header boundary unknown");
            let o2 = w2.walk(&mut op2, &mut DataRef::Real(&mut b));
            assert!(o2.clean && !o2.desync, "split {split}");
        }
        // Whole-packet sanity.
        let mut buf = stream.clone();
        assert!(w.walk(&mut op, &mut DataRef::Real(&mut buf)).clean);
    }

    #[test]
    fn garbage_header_desyncs() {
        let mut op = DemoFlow::rx_functional(7);
        let mut w = Walker::new(0, 0);
        let mut junk = vec![0u8; 64];
        let out = w.walk(&mut op, &mut DataRef::Real(&mut junk));
        assert!(out.desync);
        assert_eq!(w.expected(), 64, "desync still consumes the packet");
    }

    #[test]
    fn modeled_walk_uses_frame_index() {
        let (stream, fi) = demo_stream(&[20, 30]);
        let mut op = DemoFlow::rx_modeled(fi);
        let mut w = Walker::new(0, 0);
        let mut d = DataRef::Modeled(stream.len());
        let out = w.walk(&mut op, &mut d);
        assert!(out.clean && !out.desync);
        assert_eq!(w.msg_index(), 2);
    }

    #[test]
    fn track_walker_follows_lengths() {
        let (stream, _) = demo_stream(&[5, 3, 10, 2]);
        let op = DemoFlow::rx_functional(7);
        // Candidate is the second message (offset of msg 1).
        let m0_len = 5 + crate::demo::HDR_LEN + 1;
        let h = MsgHeader {
            total_len: (3 + crate::demo::HDR_LEN + 1) as u32,
        };
        let mut t = TrackWalker::new(m0_len as u64, h, crate::demo::HDR_LEN);
        let body = &stream[m0_len + crate::demo::HDR_LEN..];
        let ok = t.walk(&op, &DataRef::Real(&mut body.to_vec()));
        assert!(ok);
        assert_eq!(t.boundaries_passed(), 2);
        assert_eq!(t.expected(), stream.len() as u64);
    }

    #[test]
    fn track_walker_rejects_bad_pattern() {
        let (mut stream, _) = demo_stream(&[5, 3]);
        let op = DemoFlow::rx_functional(7);
        let first_len = 5 + crate::demo::HDR_LEN + 1;
        // Corrupt the second message's magic byte.
        stream[first_len] = 0x00;
        let h = MsgHeader {
            total_len: first_len as u32,
        };
        let mut t = TrackWalker::new(0, h, crate::demo::HDR_LEN);
        let body = stream[crate::demo::HDR_LEN..].to_vec();
        assert!(!t.walk(&op, &DataRef::Real(&mut body.to_vec())));
        let _ = body;
    }
}

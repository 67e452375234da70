//! In-sequence message traversal.
//!
//! [`Walker`] is the "cursor" part of a per-flow hardware context: the TCP
//! sequence the context can offload, the position within the current L5P
//! message, and the message count. It drives an [`L5Flow`] over packet
//! payloads, handling headers and trailers that split across packets and
//! multiple messages per packet — the paper's §3.2 note that "the offload
//! cannot assume L5P message alignment to TCP packets". It is `Copy` and
//! heap-free: a header split across packets is assembled in a fixed
//! [`MAX_HDR_LEN`]-byte buffer.
//!
//! The same cursor serves the *tracking* state (§4.3): [`Walker::tracking`]
//! starts it inside a speculative candidate, and [`Walker::track`] is the
//! offload walk without the operation — it follows message boundaries via
//! length fields and checks each expected header's magic pattern.

use ano_tcp::segment::SkbFlags;

use crate::flow::L5Flow;
use crate::msg::{DataRef, FixedBytes, FlowMode, MsgHeader, MAX_HDR_LEN};

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
#[derive(Clone, Copy, Debug)]
pub struct Walker {
    /// The real bytes of the header being collected.
    hdr: FixedBytes<MAX_HDR_LEN>,
    /// Header bytes consumed so far, real or modeled.
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
            hdr: FixedBytes::default(),
            hdr_collected: 0,
            cur: None,
            msg_consumed: 0,
            msg_index,
            next_off: start_off,
        }
    }

    /// Creates a tracking cursor *inside* a speculative candidate (§4.3):
    /// the candidate's header `h`, already verified by the engine, began at
    /// `candidate_off`, and the cursor resumes after its `header_len` bytes.
    /// The candidate is message 0, so [`Walker::boundary_msg_index`] counts
    /// messages from it.
    pub fn tracking(candidate_off: u64, h: MsgHeader, header_len: usize) -> Walker {
        Walker {
            cur: Some(h),
            msg_consumed: header_len as u32,
            ..Walker::new(candidate_off + header_len as u64, 0)
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
                        self.hdr.extend(bytes.get(pos..pos + take).unwrap_or_default());
                    }
                    self.hdr_collected += take;
                    pos += take;
                    self.next_off += take as u64;
                    if self.hdr_collected == hl {
                        let boundary = self.next_off - hl as u64;
                        // Functional framing needs every header byte real.
                        let hdr = (self.hdr.len() == hl).then(|| self.hdr.as_slice());
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

    /// Follows `data` (which must start at [`Walker::expected`]) as the
    /// tracking state does: each expected header's magic pattern is checked
    /// via [`L5Flow::parse_at`], but no message is processed. Returns false
    /// on a mismatch (→ transition d1, back to searching).
    pub fn track(&mut self, op: &dyn L5Flow, data: &mut DataRef<'_>) -> bool {
        !self.walk(&mut Verify(op), data).desync
    }

    fn finish_msg(&mut self) {
        self.cur = None;
        self.msg_consumed = 0;
        self.msg_index += 1;
        self.hdr_collected = 0;
        self.hdr.clear();
    }
}

/// A flow as the tracking state sees it: headers parse exactly as the
/// flow's own, and every message operation is a no-op.
#[derive(Debug)]
struct Verify<'a>(&'a dyn L5Flow);

impl L5Flow for Verify<'_> {
    fn header_len(&self) -> usize {
        self.0.header_len()
    }

    fn mode(&self) -> &FlowMode {
        self.0.mode()
    }

    fn parse(&self, hdr: &[u8]) -> Option<MsgHeader> {
        self.0.parse(hdr)
    }

    fn begin_msg(&mut self, _msg_index: u64, _stream_off: u64, _hdr: Option<&[u8]>, _msg: MsgHeader) {}

    fn process(&mut self, _msg_off: u32, _data: DataRef<'_>) {}

    fn end_msg(&mut self) -> bool {
        true
    }

    fn resync_to(&mut self, _msg_index: u64) {}

    fn packet_flags(&mut self, _offloaded: bool) -> SkbFlags {
        SkbFlags::default()
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
        let mut t = Walker::tracking(m0_len as u64, h, crate::demo::HDR_LEN);
        assert_eq!(t.next_boundary(), Some((m0_len + 3 + crate::demo::HDR_LEN + 1) as u64));
        assert_eq!(t.boundary_msg_index(), 1, "the candidate is message 0");
        let mut body = stream[m0_len + crate::demo::HDR_LEN..].to_vec();
        assert!(t.track(&op, &mut DataRef::Real(&mut body)));
        assert_eq!(t.boundary_msg_index(), 3, "two boundaries past the candidate");
        assert_eq!(t.expected(), stream.len() as u64);
        assert_eq!(t.next_boundary(), Some(stream.len() as u64));
        assert_eq!(body, stream[m0_len + crate::demo::HDR_LEN..], "tracking transforms nothing");
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
        let mut t = Walker::tracking(0, h, crate::demo::HDR_LEN);
        let mut body = stream[crate::demo::HDR_LEN..].to_vec();
        assert!(!t.track(&op, &mut DataRef::Real(&mut body)));
    }
}

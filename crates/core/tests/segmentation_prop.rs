//! Segmentation invariance of the one NIC cursor ([`ano_core::walker::Walker`]).
//!
//! §3.2 requires the offloaded computation to be incremental over *any*
//! byte range. A functional demo stream is cut at random packet boundaries
//! — 1-byte packets and cuts inside headers included — and walked packet by
//! packet. Whatever the cuts:
//!
//! * an offloading walker gives the same per-message `end_msg` verdicts,
//!   plaintext, `msg_index` and `expected()` as the one-packet walk;
//! * a tracking walker started inside any message *k* reports, after every
//!   packet, the same `next_boundary` and boundary index as the walker that
//!   walked from 0.
//!
//! A failing case shrinks toward the fewest cuts.

use ano_core::demo::{self, DemoFlow};
use ano_core::flow::L5Flow;
use ano_core::msg::{DataRef, FlowMode, MsgHeader};
use ano_core::walker::Walker;
use ano_tcp::segment::SkbFlags;
use ano_testkit::gen::{sorted_u64_set, usize_in, vec_of};

/// The demo receive flow, recording every message's `end_msg` verdict.
#[derive(Debug)]
struct Recorder {
    flow: DemoFlow,
    verdicts: Vec<bool>,
}

impl L5Flow for Recorder {
    fn header_len(&self) -> usize {
        self.flow.header_len()
    }
    fn mode(&self) -> &FlowMode {
        self.flow.mode()
    }
    fn parse(&self, hdr: &[u8]) -> Option<MsgHeader> {
        self.flow.parse(hdr)
    }
    fn begin_msg(&mut self, msg_index: u64, stream_off: u64, hdr: Option<&[u8]>, msg: MsgHeader) {
        self.flow.begin_msg(msg_index, stream_off, hdr, msg);
    }
    fn process(&mut self, msg_off: u32, data: DataRef<'_>) {
        self.flow.process(msg_off, data);
    }
    fn end_msg(&mut self) -> bool {
        let ok = self.flow.end_msg();
        self.verdicts.push(ok);
        ok
    }
    fn resync_to(&mut self, msg_index: u64) {
        self.flow.resync_to(msg_index);
    }
    fn packet_flags(&mut self, offloaded: bool) -> SkbFlags {
        self.flow.packet_flags(offloaded)
    }
}

/// Demo messages with the given body lengths, with the byte at `flip`
/// corrupted when it lies outside every header (its message then fails its
/// check). Returns the wire bytes and each message's start offset.
fn stream(bodies: &[usize], flip: usize) -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    let mut starts = Vec::new();
    for (m, &len) in bodies.iter().enumerate() {
        starts.push(wire.len());
        let body: Vec<u8> = (0..len).map(|i| (i * 31 + m) as u8).collect();
        wire.extend_from_slice(&demo::encode_msg(&body));
    }
    let in_header = starts.iter().any(|&s| (s..s + demo::HDR_LEN).contains(&flip));
    if flip < wire.len() && !in_header {
        wire[flip] ^= 0x5A;
    }
    (wire, starts)
}

/// `[start, end)` of each packet when `0..len` is cut at `cuts`.
fn packets(len: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
    let bounds: Vec<usize> = std::iter::once(0).chain(cuts.iter().copied()).chain([len]).collect();
    bounds.windows(2).map(|b| (b[0], b[1])).collect()
}

/// Offloads `wire` packet by packet; returns the transformed bytes, the
/// verdicts, and the final cursor.
fn offload(wire: &[u8], cuts: &[usize]) -> (Vec<u8>, Vec<bool>, Walker) {
    let mut flow = Recorder {
        flow: DemoFlow::rx_functional(demo::DEFAULT_KEY),
        verdicts: Vec::new(),
    };
    let mut w = Walker::new(0, 0);
    let mut out = Vec::new();
    for (start, end) in packets(wire.len(), cuts) {
        let mut p = wire[start..end].to_vec();
        assert!(!w.walk(&mut flow, &mut DataRef::Real(&mut p)).desync, "packet [{start}, {end})");
        assert_eq!(w.expected(), end as u64);
        out.extend_from_slice(&p);
    }
    (out, flow.verdicts, w)
}

fn check(bodies: &[usize], cuts: &[u64], flip: usize, k: usize) {
    let (wire, starts) = stream(bodies, flip);
    let cuts: Vec<usize> = cuts.iter().map(|&c| c as usize).filter(|&c| c < wire.len()).collect();

    let (one_out, one_verdicts, one) = offload(&wire, &[]);
    let (out, verdicts, w) = offload(&wire, &cuts);
    assert_eq!(verdicts, one_verdicts, "per-message verdicts");
    assert_eq!(verdicts.len(), bodies.len());
    assert_eq!(out, one_out, "plaintext");
    assert_eq!((w.msg_index(), w.expected()), (one.msg_index(), one.expected()));

    // Tracking from inside message k, beside the walker that walked from 0.
    let k = k % bodies.len();
    let h = MsgHeader {
        total_len: (demo::HDR_LEN + bodies[k] + 1) as u32,
    };
    let flow = DemoFlow::rx_functional(demo::DEFAULT_KEY);
    let mut tracker = Walker::tracking(starts[k] as u64, h, demo::HDR_LEN);
    let mut from0 = Walker::new(0, 0);
    let mut op = DemoFlow::rx_functional(demo::DEFAULT_KEY);
    for (start, end) in packets(wire.len(), &cuts) {
        from0.walk(&mut op, &mut DataRef::Real(&mut wire[start..end].to_vec()));
        let at = tracker.expected() as usize;
        if at >= end {
            continue; // the tracker starts past this packet
        }
        let mut tail = wire[at.max(start)..end].to_vec();
        assert!(tracker.track(&flow, &mut DataRef::Real(&mut tail)), "every header verifies");
        assert_eq!(tracker.expected(), from0.expected());
        assert_eq!(tracker.next_boundary(), from0.next_boundary(), "packet [{start}, {end})");
        assert_eq!(k as u64 + tracker.boundary_msg_index(), from0.boundary_msg_index());
    }
}

ano_testkit::prop_test! {
    cases = 256;
    fn one_cursor_is_segmentation_invariant(
        bodies in vec_of(usize_in(0..30), 1..7),
        cuts in sorted_u64_set(1..256, 64),
        flip in usize_in(0..256),
        k in usize_in(0..6),
    ) {
        check(&bodies, &cuts, flip, k);
    }
}

/// The extreme cut: every byte its own packet, tracking from every message.
#[test]
fn one_byte_packets() {
    let bodies = [0, 7, 1, 29, 3];
    let cuts: Vec<u64> = (1..256).collect();
    for k in 0..bodies.len() {
        check(&bodies, &cuts, 30, k);
    }
}

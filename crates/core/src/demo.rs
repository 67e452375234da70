//! A deliberately tiny L5P used by tests, benches and the quickstart
//! example.
//!
//! The demo protocol has every property Table 3 demands, in miniature:
//!
//! * messages are `[0xA5, len_hi, len_lo, 0x5A] body… trailer`, where the
//!   4-byte header carries a **plaintext magic pattern** (`0xA5 … 0x5A`) and
//!   a **length field**;
//! * the offloaded operation XORs body bytes with a key (size-preserving
//!   "encryption") and fills/verifies a 1-byte XOR-sum trailer (a toy
//!   digest) — both **incrementally computable with constant-size state**.

use ano_tcp::segment::SkbFlags;

use crate::flow::L5Flow;
use crate::msg::{DataRef, FlowMode, FrameIndex, MsgHeader};

/// First magic byte of the demo header.
pub const MAGIC0: u8 = 0xA5;
/// Last magic byte of the demo header.
pub const MAGIC1: u8 = 0x5A;
/// Demo header length.
pub const HDR_LEN: usize = 4;
/// Key used by [`encode_msg`] and the examples.
pub const DEFAULT_KEY: u8 = 7;

/// Encodes a plaintext body into a wire message with [`DEFAULT_KEY`].
pub fn encode_msg(plain: &[u8]) -> Vec<u8> {
    encode_msg_keyed(plain, DEFAULT_KEY)
}

/// Encodes a plaintext body into a wire message: header, XOR-ciphered body,
/// XOR-sum trailer.
///
/// # Panics
///
/// Panics if the body exceeds 65535 bytes.
pub fn encode_msg_keyed(plain: &[u8], key: u8) -> Vec<u8> {
    assert!(plain.len() <= u16::MAX as usize, "demo body too large");
    let mut out = Vec::with_capacity(HDR_LEN + plain.len() + 1);
    out.push(MAGIC0);
    out.extend_from_slice(&(plain.len() as u16).to_be_bytes());
    out.push(MAGIC1);
    let mut sum = 0u8;
    for &b in plain {
        let wire = b ^ key;
        sum ^= wire;
        out.push(wire);
    }
    out.push(sum);
    out
}

/// Decodes one wire message back to its plaintext body.
///
/// Returns `None` on bad framing or a trailer mismatch.
pub fn decode_msg(wire: &[u8], key: u8) -> Option<Vec<u8>> {
    if wire.len() < HDR_LEN + 1 || wire[0] != MAGIC0 || wire[3] != MAGIC1 {
        return None;
    }
    let body_len = u16::from_be_bytes([wire[1], wire[2]]) as usize;
    if wire.len() != HDR_LEN + body_len + 1 {
        return None;
    }
    let body = &wire[HDR_LEN..HDR_LEN + body_len];
    let sum = body.iter().fold(0u8, |a, b| a ^ b);
    if sum != wire[HDR_LEN + body_len] {
        return None;
    }
    Some(body.iter().map(|b| b ^ key).collect())
}

/// Direction of the demo op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Tx,
    Rx,
}

/// Demo [`L5Flow`] implementation.
#[derive(Debug)]
pub struct DemoFlow {
    mode: FlowMode,
    /// The XOR key of the functional transform.
    key: u8,
    dir: Dir,
    cur_total: u32,
    sum: u8,
    trailer: Option<u8>,
    ok: bool,
}

impl DemoFlow {
    fn new(mode: FlowMode, key: u8, dir: Dir) -> DemoFlow {
        DemoFlow {
            mode,
            key,
            dir,
            cur_total: 0,
            sum: 0,
            trailer: None,
            ok: true,
        }
    }

    /// Receive-side functional-mode flow ("decrypt" with `key`, verify sums).
    pub fn rx_functional(key: u8) -> DemoFlow {
        DemoFlow::new(FlowMode::Functional, key, Dir::Rx)
    }

    /// Transmit-side functional-mode flow ("encrypt", fill sums).
    pub fn tx_functional(key: u8) -> DemoFlow {
        DemoFlow::new(FlowMode::Functional, key, Dir::Tx)
    }

    /// Receive-side modeled-mode flow over a shared frame index.
    pub fn rx_modeled(frames: FrameIndex) -> DemoFlow {
        DemoFlow::new(FlowMode::Modeled(frames), DEFAULT_KEY, Dir::Rx)
    }

    /// Transmit-side modeled-mode flow over a shared frame index.
    pub fn tx_modeled(frames: FrameIndex) -> DemoFlow {
        DemoFlow::new(FlowMode::Modeled(frames), DEFAULT_KEY, Dir::Tx)
    }
}

impl L5Flow for DemoFlow {
    fn header_len(&self) -> usize {
        HDR_LEN
    }

    fn mode(&self) -> &FlowMode {
        &self.mode
    }

    fn parse(&self, hdr: &[u8]) -> Option<MsgHeader> {
        if hdr.len() != HDR_LEN || hdr[0] != MAGIC0 || hdr[3] != MAGIC1 {
            return None;
        }
        let body_len = u16::from_be_bytes([hdr[1], hdr[2]]) as u32;
        Some(MsgHeader {
            total_len: HDR_LEN as u32 + body_len + 1,
        })
    }

    fn begin_msg(&mut self, _msg_index: u64, _stream_off: u64, _hdr: Option<&[u8]>, msg: MsgHeader) {
        self.cur_total = msg.total_len;
        self.sum = 0;
        self.trailer = None;
    }

    fn process(&mut self, msg_off: u32, mut data: DataRef<'_>) {
        let DataRef::Real(bytes) = &mut data else {
            return; // modeled: nothing to transform
        };
        let trailer_off = self.cur_total - 1;
        for (i, b) in bytes.iter_mut().enumerate() {
            let off = msg_off + i as u32;
            if off < trailer_off {
                match self.dir {
                    Dir::Rx => {
                        self.sum ^= *b;
                        *b ^= self.key;
                    }
                    Dir::Tx => {
                        *b ^= self.key;
                        self.sum ^= *b;
                    }
                }
            } else {
                match self.dir {
                    Dir::Rx => self.trailer = Some(*b),
                    Dir::Tx => *b = self.sum, // fill the dummy trailer
                }
            }
        }
    }

    fn end_msg(&mut self) -> bool {
        let ok = match (&self.mode, self.dir) {
            (FlowMode::Functional, Dir::Rx) => self.trailer == Some(self.sum),
            _ => true,
        };
        self.ok &= ok;
        ok
    }

    fn resync_to(&mut self, _msg_index: u64) {
        self.sum = 0;
        self.trailer = None;
        self.cur_total = 0;
    }

    fn packet_flags(&mut self, offloaded: bool) -> SkbFlags {
        SkbFlags {
            tls_decrypted: offloaded,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::SearchWindow;

    #[test]
    fn encode_decode_roundtrip() {
        let plain = b"hello autonomous offloads".to_vec();
        let wire = encode_msg_keyed(&plain, 0x33);
        assert_eq!(wire.len(), HDR_LEN + plain.len() + 1);
        assert_eq!(decode_msg(&wire, 0x33), Some(plain));
    }

    #[test]
    fn decode_rejects_corruption() {
        let wire = encode_msg(b"payload");
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            // Any single-bit-ish corruption must be rejected (magic, length,
            // body-vs-trailer, or trailer itself).
            assert_ne!(decode_msg(&bad, DEFAULT_KEY), Some(b"payload".to_vec()), "byte {i}");
        }
    }

    #[test]
    fn header_parse() {
        let wire = encode_msg(&[0u8; 300]);
        let f = DemoFlow::rx_functional(DEFAULT_KEY);
        let h = f.parse(&wire[..HDR_LEN]).expect("valid header");
        assert_eq!(h.total_len as usize, wire.len());
        assert!(f.parse(&[0xA5, 0, 0, 0]).is_none());
    }

    #[test]
    fn tx_flow_encrypts_like_encode() {
        use crate::walker::Walker;
        let plain = b"the quick brown fox".to_vec();
        let expect = encode_msg_keyed(&plain, 9);
        // Build a "skipped" message: header + plaintext body + dummy trailer.
        let mut wire = Vec::new();
        wire.push(MAGIC0);
        wire.extend_from_slice(&(plain.len() as u16).to_be_bytes());
        wire.push(MAGIC1);
        wire.extend_from_slice(&plain);
        wire.push(0); // dummy trailer the NIC must fill
        let mut op = DemoFlow::tx_functional(9);
        let mut w = Walker::new(0, 0);
        let out = w.walk(&mut op, &mut DataRef::Real(&mut wire));
        assert!(out.clean && !out.desync);
        assert_eq!(wire, expect, "NIC-transformed bytes match software encode");
    }

    /// Receive-side mirror of `tx_flow_encrypts_like_encode`: walking an
    /// encoded message through the rx flow decrypts it in place and the
    /// trailer verifies, so `end_msg` reports success.
    #[test]
    fn rx_flow_decrypts_and_verifies() {
        use crate::walker::Walker;
        let plain = b"receive side decrypt".to_vec();
        let mut wire = encode_msg_keyed(&plain, 9);
        let mut op = DemoFlow::rx_functional(9);
        let mut w = Walker::new(0, 0);
        let out = w.walk(&mut op, &mut DataRef::Real(&mut wire));
        assert!(out.clean && !out.desync);
        assert_eq!(&wire[HDR_LEN..HDR_LEN + plain.len()], plain.as_slice());
        assert!(op.ok, "trailer must verify");
    }

    /// A corrupted body byte must surface as an `end_msg` failure — the
    /// toy digest is what the CRC/auth-tag check abstracts.
    #[test]
    fn rx_flow_flags_bad_trailer() {
        use crate::walker::Walker;
        let mut wire = encode_msg_keyed(b"some body bytes", 9);
        wire[HDR_LEN + 2] ^= 0x10;
        let mut op = DemoFlow::rx_functional(9);
        let mut w = Walker::new(0, 0);
        w.walk(&mut op, &mut DataRef::Real(&mut wire));
        assert!(!op.ok, "corruption must fail the digest check");
    }

    /// `resync_to` clears all per-message accumulator state, so a flow that
    /// abandoned a half-processed message verifies the next one cleanly —
    /// the §4.3 re-arm path in miniature.
    #[test]
    fn resync_clears_partial_message_state() {
        let mut op = DemoFlow::rx_functional(9);
        let mut wire = encode_msg_keyed(b"abandoned half-way", 9);
        let hdr: Vec<u8> = wire[..HDR_LEN].to_vec();
        let msg = op.parse(&hdr).expect("valid header");
        op.begin_msg(0, 0, Some(&hdr), msg);
        let split = HDR_LEN + 5;
        op.process(HDR_LEN as u32, DataRef::Real(&mut wire[HDR_LEN..split]));
        assert_ne!(op.sum, 0, "partial state accumulated");

        op.resync_to(1);
        assert_eq!((op.sum, op.trailer, op.cur_total), (0, None, 0));

        use crate::walker::Walker;
        let mut next = encode_msg_keyed(b"fresh message", 9);
        let mut w = Walker::new(1, 0);
        let out = w.walk(&mut op, &mut DataRef::Real(&mut next));
        assert!(out.clean && op.ok, "post-resync message verifies");
    }

    /// The functional search scans raw bytes for the magic pattern, so a
    /// header mid-window is found at its absolute stream offset — and
    /// garbage that merely *contains* 0xA5 without the full pattern is not.
    #[test]
    fn functional_search_finds_header_mid_window() {
        let f = DemoFlow::rx_functional(9);
        let msg = encode_msg(b"found me");
        let mut window = vec![0xA5, 0x00, 0x11, 0x22, 0x33]; // lone magic byte, no 0x5A
        let hdr_at = window.len() as u64;
        window.extend_from_slice(&msg);
        let hit = f.search(1000, SearchWindow::Real(&window));
        let (off, h) = hit.expect("header inside window");
        assert_eq!(off, 1000 + hdr_at);
        assert_eq!(h.total_len as usize, msg.len());
    }

    #[test]
    fn modeled_search_uses_index() {
        let fi = FrameIndex::new();
        fi.push(100, 50);
        let f = DemoFlow::rx_modeled(fi);
        let hit = f.search(0, SearchWindow::Modeled(200));
        assert_eq!(hit.map(|(o, _)| o), Some(100));
        assert!(f.search(0, SearchWindow::Modeled(50)).is_none(), "out of window");
        assert!(f.search(101, SearchWindow::Modeled(500)).is_none(), "no later frame");
    }
}

//! NIC-side NVMe-TCP offload flows (§5.1).
//!
//! Receive ([`NvmeRxFlow`]): verifies each capsule's CRC32C data digest and
//! DMA-places C2HData payloads directly into the pre-registered block-layer
//! buffer for their CID (Fig. 9), setting the per-packet `crc_ok` and
//! `placed` SKB bits. Transmit ([`NvmeTxFlow`]): computes the data digest of
//! outgoing capsules and fills the dummy digest field the software left.
//!
//! The CID → buffer map ([`RrMap`]) is the request-response state of
//! Listing 1's `l5o_add_rr_state` / `l5o_del_rr_state`.
//!
//! Both flows decode PDU headers with the real codec in either
//! [`FlowMode`]: the common header off the wire (its PSH follows through
//! `process`), or the whole encoded header a modeled frame carries.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ano_core::flow::L5Flow;
use ano_core::msg::{DataRef, FixedBytes, FlowMode, MsgHeader};
use ano_crypto::crc32c::Crc32c;
use ano_tcp::segment::SkbFlags;

use crate::pdu::{parse_header, CommonHeader, Psh, PduType, CH_LEN, DDGST_LEN, SQE_LEN};

/// [`FlowMode`] under its former NVMe name, which the standalone
/// `benchmark/` package still uses.
pub use ano_core::msg::FlowMode as NvmeMode;

/// A destination buffer for a read request (block-layer pages).
pub type RrBuffer = Rc<RefCell<Vec<u8>>>;

/// One registered request-response state entry.
#[derive(Clone, Debug)]
pub struct RrEntry {
    /// Destination bytes (None in modeled mode — presence still gates the
    /// `placed` bit).
    pub buf: Option<RrBuffer>,
    /// Expected transfer length.
    pub len: u32,
}

/// The CID → destination-buffer map shared between the host L5P software
/// and the NIC (`l5o_add_rr_state` / `l5o_del_rr_state`, §4.1).
#[derive(Clone, Debug, Default)]
pub struct RrMap(Rc<RefCell<BTreeMap<u16, RrEntry>>>);

impl RrMap {
    /// Creates an empty map.
    pub fn new() -> RrMap {
        RrMap::default()
    }

    /// Registers state for `cid` before the request goes out.
    pub fn add(&self, cid: u16, entry: RrEntry) {
        self.0.borrow_mut().insert(cid, entry);
    }

    /// Deletes state after the response is consumed.
    pub fn del(&self, cid: u16) {
        self.0.borrow_mut().remove(&cid);
    }

    /// Looks up an entry.
    pub fn get(&self, cid: u16) -> Option<RrEntry> {
        self.0.borrow().get(&cid).cloned()
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True when no state is registered.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

/// The §5.1 magic pattern and length field of a common header.
fn common(hdr: &[u8]) -> Option<MsgHeader> {
    CommonHeader::parse(hdr).map(|ch| MsgHeader { total_len: ch.plen })
}

/// Decodes the header of the PDU starting at `off` with the same
/// [`parse_header`] in either mode: the common header off the wire (its
/// PSH follows later, through the data path), or the whole encoded header
/// the sender registered with a modeled frame.
pub(crate) fn pdu_at(mode: &FlowMode, off: u64, hdr: Option<&[u8]>) -> Option<(CommonHeader, Option<Psh>)> {
    mode.msg_at(off, hdr, parse_header, |_| None)
}

/// Receive-side NVMe flow: CRC verification + direct data placement.
pub struct NvmeRxFlow {
    mode: FlowMode,
    rr: RrMap,
    /// Copy offload enabled (place C2HData into registered buffers).
    place: bool,
    // Per-PDU cursor state.
    ch: Option<CommonHeader>,
    cid: Option<u16>,
    datao: u32,
    /// The PSH collected off the wire. A command's SQE is the longest one
    /// decoded; an ICReq/ICResp PSH is never decoded, so its tail is dropped.
    ext_buf: FixedBytes<SQE_LEN>,
    crc: Crc32c,
    ddgst_buf: [u8; DDGST_LEN],
    ddgst_got: usize,
    // Per-packet accumulation.
    pkt_placed: bool,
}

impl std::fmt::Debug for NvmeRxFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmeRxFlow")
            .field("kind", &self.ch.map(|ch| ch.kind))
            .field("place", &self.place)
            .finish()
    }
}

impl NvmeRxFlow {
    /// Creates the receive flow. `place` enables the copy offload.
    pub fn new(mode: FlowMode, rr: RrMap, place: bool) -> NvmeRxFlow {
        NvmeRxFlow {
            mode,
            rr,
            place,
            ch: None,
            cid: None,
            datao: 0,
            ext_buf: FixedBytes::default(),
            crc: Crc32c::new(),
            ddgst_buf: [0; DDGST_LEN],
            ddgst_got: 0,
            pkt_placed: true,
        }
    }

    /// Takes the CID and placement offset from a decoded PSH.
    fn note_psh(&mut self, psh: Psh) {
        self.cid = psh.cid();
        self.datao = psh.ext.map_or(0, |e| e.datao);
    }
}

impl L5Flow for NvmeRxFlow {
    fn header_len(&self) -> usize {
        CH_LEN
    }

    fn mode(&self) -> &FlowMode {
        &self.mode
    }

    fn parse(&self, hdr: &[u8]) -> Option<MsgHeader> {
        common(hdr)
    }

    fn begin_msg(&mut self, _msg_index: u64, stream_off: u64, hdr: Option<&[u8]>, _msg: MsgHeader) {
        self.ext_buf.clear();
        self.crc = Crc32c::new();
        self.ddgst_got = 0;
        self.cid = None;
        self.datao = 0;
        let pdu = pdu_at(&self.mode, stream_off, hdr);
        self.ch = pdu.map(|(ch, _)| ch);
        if let Some((_, Some(psh))) = pdu {
            self.note_psh(psh);
        }
    }

    fn process(&mut self, msg_off: u32, mut data: DataRef<'_>) {
        let Some(ch) = self.ch else {
            return;
        };
        let len = data.len() as u32;
        let ext_end = ch.hlen as u32;
        let data_end = ext_end + ch.data_len() as u32;
        let mut pos = 0u32;
        // PSH bytes off the wire: extract CID & geometry once complete.
        if msg_off < ext_end {
            let take = (ext_end - msg_off).min(len);
            if let Some(bytes) = data.as_real() {
                self.ext_buf.extend(&bytes[..take as usize]);
                if msg_off + take == ext_end {
                    self.note_psh(Psh::parse(ch.kind, self.ext_buf.as_slice()));
                }
            }
            pos += take;
        }
        // Data section: digest + placement.
        while pos < len {
            let off = msg_off + pos;
            if off < data_end {
                let take = (data_end - off).min(len - pos);
                let chunk = data.slice(pos as usize, (pos + take) as usize);
                if let Some(bytes) = chunk.as_real() {
                    self.crc.update(bytes);
                }
                if self.place && ch.kind == PduType::C2HData {
                    let entry = self.cid.and_then(|c| self.rr.get(c));
                    match entry {
                        Some(e) => {
                            if let (Some(buf), Some(bytes)) = (&e.buf, chunk.as_real()) {
                                // `datao` is off the wire: widen before
                                // adding, so a hostile one cannot overflow.
                                let dst = self.datao as usize + (off - ext_end) as usize;
                                let mut b = buf.borrow_mut();
                                if dst + bytes.len() <= b.len() {
                                    b[dst..dst + bytes.len()].copy_from_slice(bytes);
                                } else {
                                    self.pkt_placed = false;
                                }
                            }
                        }
                        None => self.pkt_placed = false,
                    }
                }
                pos += take;
            } else {
                // Data digest bytes.
                let take = len - pos;
                if let Some(bytes) = data.slice(pos as usize, len as usize).as_real() {
                    let start = (off - data_end) as usize;
                    self.ddgst_buf[start..start + bytes.len()].copy_from_slice(bytes);
                    self.ddgst_got = start + bytes.len();
                }
                pos += take;
            }
        }
    }

    fn end_msg(&mut self) -> bool {
        match (&self.mode, self.ch.take()) {
            (FlowMode::Functional, Some(ch)) if ch.has_ddgst() => {
                self.ddgst_got == DDGST_LEN
                    && self.crc.finalize() == u32::from_le_bytes(self.ddgst_buf)
            }
            _ => true,
        }
    }

    fn resync_to(&mut self, _msg_index: u64) {
        // Capsule digests are per-message; nothing carries across boundaries.
        self.ch = None;
        self.ext_buf.clear();
        self.ddgst_got = 0;
    }

    fn packet_flags(&mut self, offloaded: bool) -> SkbFlags {
        let placed = offloaded && self.pkt_placed;
        self.pkt_placed = true;
        SkbFlags {
            tls_decrypted: false,
            nvme_crc_ok: offloaded,
            nvme_placed: placed,
        }
    }
}

/// Transmit-side NVMe flow: computes data digests and fills the dummy
/// digest fields the software left behind (§5.1, "NVMe-TCP prepares
/// capsules with dummy CRC fields, which the offload fills").
pub struct NvmeTxFlow {
    mode: FlowMode,
    ch: Option<CommonHeader>,
    crc: Crc32c,
    digest: Option<[u8; DDGST_LEN]>,
}

impl std::fmt::Debug for NvmeTxFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmeTxFlow").field("kind", &self.ch.map(|ch| ch.kind)).finish()
    }
}

impl NvmeTxFlow {
    /// Creates the transmit flow.
    pub fn new(mode: FlowMode) -> NvmeTxFlow {
        NvmeTxFlow {
            mode,
            ch: None,
            crc: Crc32c::new(),
            digest: None,
        }
    }
}

impl L5Flow for NvmeTxFlow {
    fn header_len(&self) -> usize {
        CH_LEN
    }

    fn mode(&self) -> &FlowMode {
        &self.mode
    }

    fn parse(&self, hdr: &[u8]) -> Option<MsgHeader> {
        common(hdr)
    }

    fn begin_msg(&mut self, _msg_index: u64, stream_off: u64, hdr: Option<&[u8]>, _msg: MsgHeader) {
        self.crc = Crc32c::new();
        self.digest = None;
        self.ch = pdu_at(&self.mode, stream_off, hdr).map(|(ch, _)| ch);
    }

    fn process(&mut self, msg_off: u32, mut data: DataRef<'_>) {
        let Some(ch) = self.ch.filter(|ch| ch.has_ddgst()) else {
            return;
        };
        let len = data.len() as u32;
        let data_start = ch.hlen as u32;
        let data_end = data_start + ch.data_len() as u32;
        let mut pos = 0u32;
        while pos < len {
            let off = msg_off + pos;
            if off < data_start {
                pos += (data_start - off).min(len - pos);
            } else if off < data_end {
                let take = (data_end - off).min(len - pos);
                if let Some(bytes) = data.slice(pos as usize, (pos + take) as usize).as_real() {
                    self.crc.update(bytes);
                }
                pos += take;
            } else {
                // Digest field: fill it.
                let take = len - pos;
                let digest = *self
                    .digest
                    .get_or_insert_with(|| self.crc.finalize().to_le_bytes());
                let mut range = data.slice(pos as usize, len as usize);
                if let DataRef::Real(bytes) = &mut range {
                    let start = (off - data_end) as usize;
                    bytes.copy_from_slice(&digest[start..start + bytes.len()]);
                }
                pos += take;
            }
        }
    }

    fn end_msg(&mut self) -> bool {
        self.ch = None;
        true
    }

    fn resync_to(&mut self, _msg_index: u64) {
        self.ch = None;
        self.digest = None;
    }

    fn packet_flags(&mut self, offloaded: bool) -> SkbFlags {
        SkbFlags {
            nvme_crc_ok: offloaded,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::{data_pdu_header, encode_capsule_resp, encode_data_pdu};
    use ano_core::rx::RxEngine;
    use ano_crypto::crc32c::crc32c;

    #[test]
    fn rx_places_and_verifies() {
        let rr = RrMap::new();
        let buf: RrBuffer = Rc::new(RefCell::new(vec![0u8; 8192]));
        rr.add(
            5,
            RrEntry {
                buf: Some(Rc::clone(&buf)),
                len: 8192,
            },
        );
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
        let wire = [
            encode_data_pdu(PduType::C2HData, 5, 0, &data[..4096], false),
            encode_data_pdu(PduType::C2HData, 5, 4096, &data[4096..], false),
            encode_capsule_resp(5, 0),
        ]
        .concat();

        let mut e = RxEngine::new(
            Box::new(NvmeRxFlow::new(FlowMode::Functional, rr.clone(), true)),
            0,
            0,
        );
        for (i, chunk) in wire.chunks(1448).enumerate() {
            let mut b = chunk.to_vec();
            let flags = e.on_packet((i * 1448) as u64, &mut DataRef::Real(&mut b));
            assert!(flags.nvme_crc_ok, "packet {i} crc ok");
            assert!(flags.nvme_placed, "packet {i} placed");
        }
        assert_eq!(&buf.borrow()[..], &data[..], "zero-copy placement landed");
    }

    #[test]
    fn rx_detects_bad_digest() {
        let rr = RrMap::new();
        let mut wire = encode_data_pdu(PduType::C2HData, 1, 0, &[1, 2, 3, 4], false);
        let n = wire.len();
        wire[n - 1] ^= 0xFF;
        let mut e = RxEngine::new(
            Box::new(NvmeRxFlow::new(FlowMode::Functional, rr, false)),
            0,
            0,
        );
        let flags = e.on_packet(0, &mut DataRef::Real(&mut wire));
        assert!(!flags.nvme_crc_ok);
    }

    #[test]
    fn rx_without_registration_clears_placed() {
        let rr = RrMap::new(); // nothing registered
        let mut wire = encode_data_pdu(PduType::C2HData, 9, 0, &[7; 100], false);
        let mut e = RxEngine::new(
            Box::new(NvmeRxFlow::new(FlowMode::Functional, rr, true)),
            0,
            0,
        );
        let flags = e.on_packet(0, &mut DataRef::Real(&mut wire));
        assert!(flags.nvme_crc_ok, "digest still verifies");
        assert!(!flags.nvme_placed, "no RR state, no placement");
    }

    #[test]
    fn tx_fills_dummy_digest() {
        use ano_core::flow::{L5TxSource, TxMsgRef};
        use ano_core::tx::TxEngine;
        use ano_sim::payload::Payload;

        struct Src(Vec<u8>);
        impl L5TxSource for Src {
            fn msg_at(&self, off: u64) -> Option<TxMsgRef> {
                (off < self.0.len() as u64).then_some(TxMsgRef {
                    msg_start: 0,
                    msg_index: 0,
                })
            }
            fn stream_bytes(&self, f: u64, t: u64) -> Payload {
                Payload::real(self.0[f as usize..t as usize].to_vec())
            }
        }

        let data: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        let skipped = encode_data_pdu(PduType::C2HData, 2, 0, &data, true);
        let src = Src(skipped.clone());
        let mut e = TxEngine::new(Box::new(NvmeTxFlow::new(FlowMode::Functional)), 0, 0);
        let mut wire = Vec::new();
        for chunk in skipped.chunks(1448) {
            let mut b = chunk.to_vec();
            let v = e.on_packet(wire.len() as u64, &mut DataRef::Real(&mut b), &src);
            assert!(v.offloaded);
            wire.extend_from_slice(&b);
        }
        let n = wire.len();
        let filled = u32::from_le_bytes(wire[n - 4..].try_into().unwrap());
        assert_eq!(filled, crc32c(&data), "NIC filled the real digest");
        // Everything else untouched.
        assert_eq!(&wire[..n - 4], &skipped[..n - 4]);
    }

    #[test]
    fn modeled_rx_uses_meta() {
        use ano_core::msg::FrameIndex;
        let frames = FrameIndex::new();
        let rr = RrMap::new();
        rr.add(3, RrEntry { buf: None, len: 4096 });
        let header = data_pdu_header(PduType::C2HData, 3, 0, 4096);
        let total = crate::pdu::pdu_len(&header) as u32;
        frames.push_full(0, total, Some(Box::new(header)));
        let mut e = RxEngine::new(
            Box::new(NvmeRxFlow::new(FlowMode::Modeled(frames), rr, true)),
            0,
            0,
        );
        let flags = e.on_packet(0, &mut DataRef::Modeled(total as usize));
        assert!(flags.nvme_crc_ok && flags.nvme_placed);
    }
}

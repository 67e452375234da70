//! Software-side PDU stream parser, shared by host and target.
//!
//! Consumes in-order byte-stream chunks (raw TCP chunks, or plaintext
//! chunks from kTLS in the combined NVMe-TLS stack) and yields complete
//! PDUs, preserving per-packet offload flags so the caller can decide
//! whether to skip the copy and CRC work (§5.1's software fallback rules).
//!
//! Headers are decoded by the one `pdu` codec in either [`FlowMode`]: off
//! the wire, or — with synthetic payloads — from the encoded header the
//! sender registered with the frame, so a modeled [`ParsedPdu`] carries the
//! same SQE, data header or CQE a functional one does.

use ano_core::flow::ResyncResponder;
use ano_core::msg::FlowMode;
use ano_sim::payload::Payload;
use ano_tcp::segment::SkbFlags;

use crate::offload::pdu_at;
use crate::pdu::{CommonHeader, PduType, Psh, CH_LEN, DDGST_LEN};

/// One in-order run of stream bytes with its packet's offload flags: TCP's
/// chunk as is, or kTLS's plaintext chunk under NVMe-TLS.
pub use ano_tcp::segment::RxChunk as StreamChunk;

/// A fully reassembled PDU.
#[derive(Clone, Debug)]
pub struct ParsedPdu {
    /// Stream offset of the PDU's first byte.
    pub start: u64,
    /// PDU type.
    pub kind: PduType,
    /// Total wire length.
    pub total: u32,
    /// The decoded PDU-specific header (SQE, data header or CQE).
    pub psh: Psh,
    /// Data-section runs with their flags.
    pub data: Vec<(Payload, SkbFlags)>,
    /// Wire data digest (functional mode, when present).
    pub ddgst: Option<u32>,
    /// Every data byte arrived with the NIC `crc_ok` bit.
    pub all_crc_ok: bool,
    /// Every data byte arrived with the NIC `placed` bit.
    pub all_placed: bool,
}

impl ParsedPdu {
    /// The command id this PDU refers to.
    pub fn cid(&self) -> Option<u16> {
        self.psh.cid()
    }

    /// Data-section length.
    pub fn data_len(&self) -> usize {
        self.data.iter().map(|(p, _)| p.len()).sum()
    }

    /// Concatenated data bytes (functional mode).
    pub fn data_bytes(&self) -> Payload {
        Payload::concat(self.data.iter().map(|(p, _)| p))
    }
}

struct CurPdu {
    start: u64,
    ch: CommonHeader,
    consumed: u32,
    /// PSH bytes as they arrive off the wire.
    ext: Vec<u8>,
    /// The PSH, when the header came whole from a modeled frame.
    psh: Option<Psh>,
    data: Vec<(Payload, SkbFlags)>,
    ddgst: [u8; DDGST_LEN],
    ddgst_got: usize,
    all_crc_ok: bool,
    all_placed: bool,
}

/// The parser state machine.
pub struct PduParser {
    mode: FlowMode,
    pos: u64,
    hdr: Vec<u8>,
    hdr_start: u64,
    cur: Option<CurPdu>,
    /// Stream-framing errors (garbage headers).
    pub errors: u64,
    /// `l5o_resync_rx_req`/`resp` bookkeeping over the PDU stream.
    resync: ResyncResponder,
}

impl std::fmt::Debug for PduParser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PduParser")
            .field("pos", &self.pos)
            .field("errors", &self.errors)
            .finish()
    }
}

impl PduParser {
    /// Creates a parser. In modeled mode, `mode` must hold the *sender's*
    /// frame index.
    pub fn new(mode: FlowMode) -> PduParser {
        PduParser {
            mode,
            pos: 0,
            hdr: Vec::new(),
            hdr_start: 0,
            cur: None,
            errors: 0,
            resync: ResyncResponder::default(),
        }
    }

    /// Current consumed stream offset.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// The resync responder over this protocol layer's stream (the driver
    /// registers `l5o_resync_rx_req`s and drains the answers here).
    pub fn resync_mut(&mut self) -> &mut ResyncResponder {
        &mut self.resync
    }

    /// Consumes one in-order chunk, returning completed PDUs.
    pub fn on_chunk(&mut self, chunk: StreamChunk) -> Vec<ParsedPdu> {
        debug_assert_eq!(chunk.offset, self.pos, "chunks must be in order");
        let mut out = Vec::new();
        let len = chunk.payload.len();
        let mut consumed = 0usize;
        while consumed < len {
            match &mut self.cur {
                None => {
                    if self.hdr.is_empty() {
                        self.hdr_start = self.pos;
                    }
                    let need = CH_LEN - self.hdr.len();
                    let take = need.min(len - consumed);
                    match chunk.payload.as_real() {
                        Some(bytes) => self.hdr.extend_from_slice(&bytes[consumed..consumed + take]),
                        None => self.hdr.extend(std::iter::repeat(0).take(take)),
                    }
                    consumed += take;
                    self.pos += take as u64;
                    if self.hdr.len() == CH_LEN {
                        let started = self.begin_pdu();
                        self.hdr.clear();
                        if !started {
                            self.errors += 1;
                        }
                    }
                }
                Some(cur) => {
                    let take = ((cur.ch.plen - cur.consumed) as usize).min(len - consumed);
                    let off = cur.consumed;
                    Self::feed(cur, off, chunk.payload.slice(consumed, consumed + take), chunk.flags);
                    cur.consumed += take as u32;
                    consumed += take;
                    self.pos += take as u64;
                    if cur.consumed == cur.ch.plen {
                        out.push(self.finish_pdu());
                    }
                }
            }
        }
        self.resync.flush(self.pos);
        out
    }

    /// Starts a PDU once the common header is known — off the wire, or
    /// (modeled) the whole header from the sender's frame index. Returns
    /// false on a framing error.
    fn begin_pdu(&mut self) -> bool {
        let start = self.hdr_start;
        let Some((ch, psh)) = pdu_at(&self.mode, start, Some(&self.hdr)) else {
            return false;
        };
        self.resync.note_start(start);
        self.cur = Some(CurPdu {
            start,
            ch,
            consumed: CH_LEN as u32,
            ext: Vec::new(),
            psh,
            data: Vec::new(),
            ddgst: [0; DDGST_LEN],
            ddgst_got: 0,
            all_crc_ok: true,
            all_placed: true,
        });
        true
    }

    fn feed(cur: &mut CurPdu, off: u32, payload: Payload, flags: SkbFlags) {
        let len = payload.len() as u32;
        let ext_end = cur.ch.hlen as u32;
        let data_end = ext_end + cur.ch.data_len() as u32;
        let mut pos = 0u32;
        // Extended header.
        if off < ext_end {
            let take = (ext_end - off).min(len);
            if let Some(bytes) = payload.as_real() {
                cur.ext.extend_from_slice(&bytes[..take as usize]);
            }
            pos += take;
        }
        while pos < len {
            let o = off + pos;
            if o < data_end {
                let take = (data_end - o).min(len - pos);
                cur.data
                    .push((payload.slice(pos as usize, (pos + take) as usize), flags));
                cur.all_crc_ok &= flags.nvme_crc_ok;
                cur.all_placed &= flags.nvme_placed;
                pos += take;
            } else {
                // The NIC's verdict on a digest comes with the packet that
                // ends it: the data packets before it were flagged while
                // the CRC was still running.
                cur.all_crc_ok &= flags.nvme_crc_ok;
                let take = len - pos;
                if let Some(bytes) = payload.slice(pos as usize, len as usize).as_real() {
                    let s = (o - data_end) as usize;
                    cur.ddgst[s..s + bytes.len()].copy_from_slice(bytes);
                    cur.ddgst_got = s + bytes.len();
                }
                pos += take;
            }
        }
    }

    fn finish_pdu(&mut self) -> ParsedPdu {
        let cur = self.cur.take().expect("PDU in progress");
        ParsedPdu {
            start: cur.start,
            kind: cur.ch.kind,
            total: cur.ch.plen,
            psh: cur.psh.unwrap_or_else(|| Psh::parse(cur.ch.kind, &cur.ext)),
            data: cur.data,
            ddgst: (cur.ch.has_ddgst() && cur.ddgst_got == DDGST_LEN)
                .then(|| u32::from_le_bytes(cur.ddgst)),
            all_crc_ok: cur.all_crc_ok,
            all_placed: cur.all_placed,
        }
    }

    /// The parser's payload-fidelity mode.
    pub fn mode(&self) -> &FlowMode {
        &self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::{encode_capsule_cmd, encode_capsule_resp, encode_data_pdu, IoOpcode};
    use ano_crypto::crc32c::crc32c;

    fn chunkify(stream: &[u8], sz: usize, flags: SkbFlags) -> Vec<StreamChunk> {
        stream
            .chunks(sz)
            .enumerate()
            .map(|(i, c)| StreamChunk {
                offset: (i * sz) as u64,
                payload: Payload::real(c.to_vec()),
                flags,
            })
            .collect()
    }

    #[test]
    fn parses_mixed_pdu_stream() {
        let data = vec![9u8; 3000];
        let stream = [
            encode_capsule_cmd(1, IoOpcode::Read, 0, 3000, None),
            encode_data_pdu(PduType::C2HData, 1, 0, &data, false),
            encode_capsule_resp(1, 0),
        ]
        .concat();
        let mut p = PduParser::new(FlowMode::Functional);
        let mut pdus = Vec::new();
        for c in chunkify(&stream, 700, SkbFlags::default()) {
            pdus.extend(p.on_chunk(c));
        }
        assert_eq!(pdus.len(), 3);
        assert_eq!(pdus[0].kind, PduType::CapsuleCmd);
        assert_eq!(pdus[0].cid(), Some(1));
        assert_eq!(pdus[1].kind, PduType::C2HData);
        assert_eq!(pdus[1].data_len(), 3000);
        assert_eq!(pdus[1].ddgst, Some(crc32c(&data)));
        assert!(!pdus[1].all_crc_ok, "no offload bits on these packets");
        assert_eq!(pdus[2].kind, PduType::CapsuleResp);
        assert_eq!(p.errors, 0);
    }

    #[test]
    fn flags_gate_crc_and_placed() {
        let data = vec![1u8; 2000];
        let stream = encode_data_pdu(PduType::C2HData, 2, 0, &data, false);
        let ok_flags = SkbFlags {
            nvme_crc_ok: true,
            nvme_placed: true,
            ..Default::default()
        };
        let mut p = PduParser::new(FlowMode::Functional);
        let mut pdus = Vec::new();
        for c in chunkify(&stream, 512, ok_flags) {
            pdus.extend(p.on_chunk(c));
        }
        assert!(pdus[0].all_crc_ok && pdus[0].all_placed);

        // One un-offloaded packet poisons the PDU classification.
        let mut p = PduParser::new(FlowMode::Functional);
        let mut chunks = chunkify(&stream, 512, ok_flags);
        chunks[1].flags = SkbFlags::default();
        let mut pdus = Vec::new();
        for c in chunks {
            pdus.extend(p.on_chunk(c));
        }
        assert!(!pdus[0].all_crc_ok && !pdus[0].all_placed);
    }

    #[test]
    fn unverified_digest_packet_poisons_crc_ok() {
        // The NIC flags data packets before the digest is in; only the
        // packet ending the PDU carries its verdict.
        let data = vec![3u8; 1000];
        let stream = encode_data_pdu(PduType::C2HData, 4, 0, &data, false);
        let ok_flags = SkbFlags {
            nvme_crc_ok: true,
            ..Default::default()
        };
        let split = stream.len() - 2;
        let mut p = PduParser::new(FlowMode::Functional);
        p.on_chunk(StreamChunk {
            offset: 0,
            payload: Payload::real(stream[..split].to_vec()),
            flags: ok_flags,
        });
        let pdus = p.on_chunk(StreamChunk {
            offset: split as u64,
            payload: Payload::real(stream[split..].to_vec()),
            flags: SkbFlags::default(),
        });
        assert_eq!(pdus.len(), 1);
        assert!(!pdus[0].all_crc_ok, "the digest's packet was not verified");
    }

    #[test]
    fn resync_confirmation_over_pdu_stream() {
        let stream = [
            encode_capsule_resp(1, 0),
            encode_capsule_resp(2, 0),
        ]
        .concat();
        let second_start = (stream.len() / 2) as u64;
        let mut p = PduParser::new(FlowMode::Functional);
        p.resync_mut().request(second_start);
        p.resync_mut().request(5); // not a boundary
        for c in chunkify(&stream, 16, SkbFlags::default()) {
            p.on_chunk(c);
        }
        let mut r: Vec<_> = p.resync_mut().take().collect();
        r.sort();
        assert_eq!(r, vec![(5, false, 0), (second_start, true, 1)]);
    }

    #[test]
    fn garbage_header_counts_error() {
        let mut p = PduParser::new(FlowMode::Functional);
        p.on_chunk(StreamChunk {
            offset: 0,
            payload: Payload::real(vec![0xFFu8; 16]),
            flags: SkbFlags::default(),
        });
        assert!(p.errors >= 1);
    }
}

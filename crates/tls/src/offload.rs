//! The NIC-side TLS offload: [`L5Flow`] implementations for receive
//! (decrypt + authenticate, §5.2) and transmit (encrypt + fill ICV), with
//! optional *nested* NVMe engines for the combined NVMe-TLS offload (§5.3).
//!
//! Composition exploits that TLS protection is size-preserving: every
//! plaintext byte sits at a fixed TCP stream offset, so the plaintext byte
//! stream offset of a body byte is `tcp_off - (OVERHEAD * record_index +
//! HEADER_LEN)` — computable from the record index alone, even after the
//! outer engine skipped records during resync. The inner NVMe engine
//! operates in that plaintext-offset space.

use std::cell::RefCell;
use std::rc::Rc;

use ano_core::flow::{scan_window, L5Flow, L5TxSource};
use ano_core::msg::{DataRef, EngineEvent, FrameIndex, MsgHeader, SearchWindow};
use ano_core::rx::RxEngine;
use ano_core::tx::TxEngine;
use ano_crypto::gcm::{Direction, GcmStream};
use ano_tcp::segment::SkbFlags;

use crate::record::{RecordHeader, HEADER_LEN, OVERHEAD, TAG_LEN};
use crate::session::TlsSession;

/// Payload fidelity of a flow.
#[derive(Debug, Clone)]
pub enum FlowMode {
    /// Real bytes; the NIC really encrypts/decrypts.
    Functional,
    /// Synthetic bytes; framing comes from the shared index.
    Modeled(FrameIndex),
}

/// Plaintext-stream offset of the first body byte of record `idx` starting
/// at TCP offset `record_start`.
pub fn plain_offset(record_start: u64, idx: u64) -> u64 {
    record_start + HEADER_LEN as u64 - (OVERHEAD as u64 * idx + HEADER_LEN as u64)
}

/// Nested receive engine state for NVMe-TLS composition.
struct InnerRx {
    engine: RxEngine,
    /// AND-accumulated flags of inner ranges fed during the current packet.
    pkt_crc_ok: Option<bool>,
    pkt_placed: Option<bool>,
}

/// TLS receive offload for one flow.
pub struct TlsRxFlow {
    session: TlsSession,
    mode: FlowMode,
    // Per-record cursor state (the HW context's dynamic part).
    msg_index: u64,
    record_start: u64,
    total: u32,
    gcm: Option<GcmStream>,
    tag_buf: [u8; TAG_LEN],
    tag_got: usize,
    inner: Option<InnerRx>,
}

impl std::fmt::Debug for TlsRxFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsRxFlow")
            .field("msg_index", &self.msg_index)
            .field("composed", &self.inner.is_some())
            .finish()
    }
}

impl TlsRxFlow {
    /// Creates the receive offload.
    pub fn new(session: TlsSession, mode: FlowMode) -> TlsRxFlow {
        TlsRxFlow {
            session,
            mode,
            msg_index: 0,
            record_start: 0,
            total: 0,
            gcm: None,
            tag_buf: [0; TAG_LEN],
            tag_got: 0,
            inner: None,
        }
    }

    /// Nests an NVMe receive engine (combined NVMe-TLS offload, §5.3).
    /// `inner` must operate in plaintext-stream offsets.
    pub fn with_inner(mut self, inner: RxEngine) -> TlsRxFlow {
        self.inner = Some(InnerRx {
            engine: inner,
            pkt_crc_ok: None,
            pkt_placed: None,
        });
        self
    }

    fn parse_hdr(&self, stream_off: u64, hdr: Option<&[u8]>) -> Option<MsgHeader> {
        match (&self.mode, hdr) {
            (FlowMode::Functional, Some(h)) => RecordHeader::parse(h).map(|r| MsgHeader {
                total_len: r.total_len() as u32,
            }),
            (FlowMode::Modeled(frames), _) => frames.at(stream_off).map(|(m, _)| m),
            _ => None,
        }
    }

    fn feed_inner(&mut self, msg_off: u32, data: &mut DataRef<'_>) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let plain =
            plain_offset(self.record_start, self.msg_index) + (msg_off as u64 - HEADER_LEN as u64);
        let flags = inner.engine.on_packet(plain, data);
        inner.pkt_crc_ok = Some(inner.pkt_crc_ok.unwrap_or(true) && flags.nvme_crc_ok);
        inner.pkt_placed = Some(inner.pkt_placed.unwrap_or(true) && flags.nvme_placed);
    }
}

impl L5Flow for TlsRxFlow {
    fn header_len(&self) -> usize {
        HEADER_LEN
    }

    fn parse_at(&self, stream_off: u64, hdr: Option<&[u8]>) -> Option<MsgHeader> {
        self.parse_hdr(stream_off, hdr)
    }

    fn probe_at(&self, stream_off: u64, hdr: Option<&[u8]>) -> Option<MsgHeader> {
        self.parse_hdr(stream_off, hdr)
    }

    fn begin_msg(&mut self, msg_index: u64, stream_off: u64, hdr: Option<&[u8]>) {
        self.msg_index = msg_index;
        self.record_start = stream_off;
        self.tag_got = 0;
        match (&self.mode, hdr) {
            (FlowMode::Functional, Some(h)) => {
                let rh = RecordHeader::parse(h).expect("walker validated header");
                self.total = rh.total_len() as u32;
                let hdr5: [u8; HEADER_LEN] = h.try_into().expect("header length");
                self.gcm = Some(self.session.stream(msg_index, &hdr5, Direction::Decrypt));
            }
            (FlowMode::Modeled(frames), _) => {
                self.total = frames.at(stream_off).map(|(m, _)| m.total_len).unwrap_or(0);
                self.gcm = None;
            }
            _ => {
                self.total = 0;
                self.gcm = None;
            }
        }
    }

    fn process(&mut self, msg_off: u32, mut data: DataRef<'_>) {
        let body_end = self.total - TAG_LEN as u32;
        let len = data.len() as u32;
        // Split the range at the body/trailer boundary.
        let body_take = body_end.saturating_sub(msg_off).min(len);
        if body_take > 0 {
            let mut body = data.slice(0, body_take as usize);
            if let (Some(gcm), DataRef::Real(bytes)) = (&mut self.gcm, &mut body) {
                gcm.process(bytes);
            }
            self.feed_inner(msg_off, &mut body);
        }
        // Trailer bytes: collect the ICV for verification.
        if len > body_take {
            let tag_range = data.slice(body_take as usize, len as usize);
            if let Some(bytes) = tag_range.as_real() {
                let start = (msg_off + body_take - body_end) as usize;
                self.tag_buf[start..start + bytes.len()].copy_from_slice(bytes);
                self.tag_got = start + bytes.len();
            }
        }
    }

    fn end_msg(&mut self) -> bool {
        match (&self.mode, self.gcm.take()) {
            (FlowMode::Functional, Some(gcm)) => {
                self.tag_got == TAG_LEN && gcm.verify(&self.tag_buf).is_ok()
            }
            (FlowMode::Modeled(_), _) => true,
            _ => false,
        }
    }

    fn resync_to(&mut self, msg_index: u64) {
        // Per-record state is rebuilt in `begin_msg`; the record sequence
        // number (= message index) is supplied by the walker. Nothing else
        // persists across records — exactly the §3.2 property.
        self.msg_index = msg_index;
        self.gcm = None;
        self.tag_got = 0;
    }

    fn packet_flags(&mut self, offloaded: bool) -> SkbFlags {
        let mut f = SkbFlags {
            tls_decrypted: offloaded,
            ..Default::default()
        };
        if let Some(inner) = &mut self.inner {
            if offloaded {
                f.nvme_crc_ok = inner.pkt_crc_ok.unwrap_or(true);
                f.nvme_placed = inner.pkt_placed.unwrap_or(true);
            }
            inner.pkt_crc_ok = None;
            inner.pkt_placed = None;
        }
        f
    }

    fn search(&self, window_off: u64, window: SearchWindow<'_>) -> Option<(u64, MsgHeader)> {
        match (&self.mode, window) {
            (FlowMode::Functional, SearchWindow::Real(b)) => scan_window(self, window_off, b),
            (FlowMode::Modeled(frames), w) => frames
                .next_at_or_after(window_off)
                .filter(|&(off, _, _)| off + HEADER_LEN as u64 <= window_off + w.len() as u64)
                .map(|(off, h, _)| (off, h)),
            _ => None,
        }
    }

    fn take_events(&mut self) -> Vec<EngineEvent> {
        match &mut self.inner {
            Some(inner) => inner
                .engine
                .take_events()
                .into_iter()
                .map(|e| match e {
                    EngineEvent::ResyncRequest { layer, tcpsn } => EngineEvent::ResyncRequest {
                        layer: layer + 1,
                        tcpsn,
                    },
                })
                .collect(),
            None => Vec::new(),
        }
    }

    fn resync_response(&mut self, layer: u8, tcpsn: u64, ok: bool, msg_index: u64) -> bool {
        match &mut self.inner {
            Some(inner) => {
                inner.engine.on_resync_response(layer, tcpsn, ok, msg_index);
                true
            }
            None => false,
        }
    }
}

/// Nested transmit engine state for NVMe-TLS composition.
struct InnerTx {
    engine: TxEngine,
    src: Rc<RefCell<dyn L5TxSource>>,
}

/// TLS transmit offload for one flow: encrypts "skipped" plaintext records
/// and fills their dummy ICVs on the way to the wire.
pub struct TlsTxFlow {
    session: TlsSession,
    mode: FlowMode,
    msg_index: u64,
    record_start: u64,
    total: u32,
    gcm: Option<GcmStream>,
    tag: Option<[u8; TAG_LEN]>,
    inner: Option<InnerTx>,
}

impl std::fmt::Debug for TlsTxFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsTxFlow")
            .field("msg_index", &self.msg_index)
            .field("composed", &self.inner.is_some())
            .finish()
    }
}

impl TlsTxFlow {
    /// Creates the transmit offload.
    pub fn new(session: TlsSession, mode: FlowMode) -> TlsTxFlow {
        TlsTxFlow {
            session,
            mode,
            msg_index: 0,
            record_start: 0,
            total: 0,
            gcm: None,
            tag: None,
            inner: None,
        }
    }

    /// Nests an NVMe transmit engine (fills capsule CRCs before encryption;
    /// §5.3: "on transmit we do NVMe-TCP then TLS"). `src` answers inner
    /// recovery upcalls in plaintext-offset space.
    pub fn with_inner(mut self, engine: TxEngine, src: Rc<RefCell<dyn L5TxSource>>) -> TlsTxFlow {
        self.inner = Some(InnerTx { engine, src });
        self
    }
}

impl L5Flow for TlsTxFlow {
    fn header_len(&self) -> usize {
        HEADER_LEN
    }

    fn parse_at(&self, stream_off: u64, hdr: Option<&[u8]>) -> Option<MsgHeader> {
        match (&self.mode, hdr) {
            (FlowMode::Functional, Some(h)) => RecordHeader::parse(h).map(|r| MsgHeader {
                total_len: r.total_len() as u32,
            }),
            (FlowMode::Modeled(frames), _) => frames.at(stream_off).map(|(m, _)| m),
            _ => None,
        }
    }

    fn probe_at(&self, stream_off: u64, hdr: Option<&[u8]>) -> Option<MsgHeader> {
        self.parse_at(stream_off, hdr)
    }

    fn begin_msg(&mut self, msg_index: u64, stream_off: u64, hdr: Option<&[u8]>) {
        self.msg_index = msg_index;
        self.record_start = stream_off;
        self.tag = None;
        match (&self.mode, hdr) {
            (FlowMode::Functional, Some(h)) => {
                let rh = RecordHeader::parse(h).expect("walker validated header");
                self.total = rh.total_len() as u32;
                let hdr5: [u8; HEADER_LEN] = h.try_into().expect("header length");
                self.gcm = Some(self.session.stream(msg_index, &hdr5, Direction::Encrypt));
            }
            (FlowMode::Modeled(frames), _) => {
                self.total = frames.at(stream_off).map(|(m, _)| m.total_len).unwrap_or(0);
                self.gcm = None;
            }
            _ => {
                self.total = 0;
                self.gcm = None;
            }
        }
    }

    fn process(&mut self, msg_off: u32, mut data: DataRef<'_>) {
        let body_end = self.total - TAG_LEN as u32;
        let len = data.len() as u32;
        let body_take = body_end.saturating_sub(msg_off).min(len);
        if body_take > 0 {
            let mut body = data.slice(0, body_take as usize);
            // Inner first (NVMe CRC fill on plaintext), then encrypt (§5.3).
            if let Some(inner) = &mut self.inner {
                let plain = plain_offset(self.record_start, self.msg_index)
                    + (msg_off as u64 - HEADER_LEN as u64);
                let src = Rc::clone(&inner.src);
                let src_ref = src.borrow();
                inner.engine.on_packet(plain, &mut body, &*src_ref);
            }
            if let (Some(gcm), DataRef::Real(bytes)) = (&mut self.gcm, &mut body) {
                gcm.process(bytes);
            }
        }
        // Trailer: fill the dummy ICV with the real tag.
        if len > body_take {
            if let Some(gcm) = &self.gcm {
                let tag = *self.tag.get_or_insert_with(|| gcm.tag());
                let mut range = data.slice(body_take as usize, len as usize);
                if let DataRef::Real(bytes) = &mut range {
                    let start = (msg_off + body_take - body_end) as usize;
                    bytes.copy_from_slice(&tag[start..start + bytes.len()]);
                }
            }
        }
    }

    fn end_msg(&mut self) -> bool {
        self.gcm = None;
        self.tag = None;
        true
    }

    fn resync_to(&mut self, msg_index: u64) {
        self.msg_index = msg_index;
        self.gcm = None;
        self.tag = None;
    }

    fn packet_flags(&mut self, offloaded: bool) -> SkbFlags {
        SkbFlags {
            tls_decrypted: offloaded,
            ..Default::default()
        }
    }

    fn search(&self, window_off: u64, window: SearchWindow<'_>) -> Option<(u64, MsgHeader)> {
        match (&self.mode, window) {
            (FlowMode::Functional, SearchWindow::Real(b)) => scan_window(self, window_off, b),
            (FlowMode::Modeled(frames), w) => frames
                .next_at_or_after(window_off)
                .filter(|&(off, _, _)| off + HEADER_LEN as u64 <= window_off + w.len() as u64)
                .map(|(off, h, _)| (off, h)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ano_core::rx::RxEngine;
    use ano_core::tx::TxEngine;
    use ano_sim::payload::Payload;

    /// A transmit source over a pre-built plaintext-record stream.
    struct Src {
        stream: Vec<u8>,
        records: ano_core::flow::TxMsgLog,
    }

    impl L5TxSource for Src {
        fn msg_at(&self, off: u64) -> Option<ano_core::flow::TxMsgRef> {
            self.records.msg_at(off)
        }
        fn stream_bytes(&self, f: u64, t: u64) -> Payload {
            Payload::real(self.stream[f as usize..t as usize].to_vec())
        }
    }

    /// Builds the "skipped" transmit stream: header + plaintext + zero ICV.
    fn skipped_stream(records: &[Vec<u8>]) -> Src {
        let mut stream = Vec::new();
        let mut log = ano_core::flow::TxMsgLog::default();
        for r in records {
            log.push((r.len() + OVERHEAD) as u32, None);
            stream.extend_from_slice(&RecordHeader::for_plaintext(r.len()).encode());
            stream.extend_from_slice(r);
            stream.extend_from_slice(&[0u8; TAG_LEN]);
        }
        Src { stream, records: log }
    }

    #[test]
    fn tx_offload_equals_software_seal() {
        let session = TlsSession::from_seed(11);
        let records = vec![vec![1u8; 3000], (0..=255).cycle().take(500).collect()];
        let src = skipped_stream(&records);
        let want: Vec<u8> = records
            .iter()
            .enumerate()
            .flat_map(|(i, r)| session.seal_record(i as u64, r))
            .collect();

        let mut e = TxEngine::new(
            Box::new(TlsTxFlow::new(session.clone(), FlowMode::Functional)),
            0,
            0,
        );
        let mut wire = Vec::new();
        for chunk in src.stream.chunks(1448) {
            let seq = wire.len() as u64;
            let mut buf = chunk.to_vec();
            let v = e.on_packet(seq, &mut DataRef::Real(&mut buf), &src);
            assert!(v.offloaded);
            wire.extend_from_slice(&buf);
        }
        assert_eq!(wire, want, "NIC-encrypted stream equals software TLS");
    }

    #[test]
    fn tx_retransmit_reproduces_ciphertext() {
        let session = TlsSession::from_seed(12);
        let records = vec![vec![7u8; 5000]];
        let src = skipped_stream(&records);
        let mut e = TxEngine::new(
            Box::new(TlsTxFlow::new(session.clone(), FlowMode::Functional)),
            0,
            0,
        );
        let mut pkts = Vec::new();
        for (i, chunk) in src.stream.chunks(1000).enumerate() {
            let mut buf = chunk.to_vec();
            e.on_packet((i * 1000) as u64, &mut DataRef::Real(&mut buf), &src);
            pkts.push(buf);
        }
        // Retransmit packet 2.
        let mut again = src.stream[2000..3000].to_vec();
        let v = e.on_packet(2000, &mut DataRef::Real(&mut again), &src);
        assert!(v.offloaded);
        assert_eq!(v.replay_bytes, 2000);
        assert_eq!(again, pkts[2]);
    }

    #[test]
    fn rx_offload_decrypts_and_validates() {
        let session = TlsSession::from_seed(13);
        let plains = [vec![3u8; 2000], vec![9u8; 100]];
        let wire: Vec<u8> = plains
            .iter()
            .enumerate()
            .flat_map(|(i, p)| session.seal_record(i as u64, p))
            .collect();
        let mut e = RxEngine::new(
            Box::new(TlsRxFlow::new(session.clone(), FlowMode::Functional)),
            0,
            0,
        );
        let mut out = Vec::new();
        for (i, chunk) in wire.chunks(700).enumerate() {
            let mut buf = chunk.to_vec();
            let flags = e.on_packet((i * 700) as u64, &mut DataRef::Real(&mut buf));
            assert!(flags.tls_decrypted, "packet {i}");
            out.extend_from_slice(&buf);
        }
        // Body regions now hold plaintext.
        assert_eq!(&out[HEADER_LEN..HEADER_LEN + 2000], &plains[0][..]);
        let r1 = 2000 + OVERHEAD;
        assert_eq!(&out[r1 + HEADER_LEN..r1 + HEADER_LEN + 100], &plains[1][..]);
    }

    #[test]
    fn rx_detects_corrupted_tag() {
        let session = TlsSession::from_seed(14);
        let mut wire = session.seal_record(0, &vec![1u8; 500]);
        let n = wire.len();
        wire[n - 1] ^= 1; // corrupt ICV
        let mut e = RxEngine::new(
            Box::new(TlsRxFlow::new(session, FlowMode::Functional)),
            0,
            0,
        );
        let flags = e.on_packet(0, &mut DataRef::Real(&mut wire));
        assert!(!flags.tls_decrypted, "ICV failure clears the decrypted bit");
    }

    #[test]
    fn rx_recovers_after_loss_with_real_records() {
        // End-to-end Fig. 8c on real TLS bytes: drop packets spanning a
        // record boundary, watch search → track → confirm → resume.
        let session = TlsSession::from_seed(15);
        let plains: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 4000]).collect();
        let wire: Vec<u8> = plains
            .iter()
            .enumerate()
            .flat_map(|(i, p)| session.seal_record(i as u64, p))
            .collect();
        let record_total = 4000 + OVERHEAD;
        let mut e = RxEngine::new(
            Box::new(TlsRxFlow::new(session.clone(), FlowMode::Functional)),
            0,
            0,
        );
        let pkts: Vec<(u64, Vec<u8>)> = wire
            .chunks(1448)
            .enumerate()
            .map(|(i, c)| ((i * 1448) as u64, c.to_vec()))
            .collect();
        let mut events = Vec::new();
        for (i, (seq, p)) in pkts.iter().enumerate() {
            if (3..=5).contains(&i) {
                continue; // drop three packets spanning the record-1 header
            }
            e.on_packet(*seq, &mut DataRef::Real(&mut p.clone()));
            events.extend(e.take_events());
            if let Some(EngineEvent::ResyncRequest { tcpsn, layer }) = events.first().copied() {
                assert_eq!(layer, 0);
                assert_eq!(
                    (tcpsn as usize) % record_total,
                    0,
                    "candidate is a true record boundary"
                );
                let idx = tcpsn / record_total as u64;
                e.on_resync_response(0, tcpsn, true, idx);
                events.clear();
            }
        }
        let s = e.stats();
        assert!(s.resync_requests >= 1);
        assert!(s.resync_ok >= 1);
        assert!(
            matches!(e.state_kind(), ano_core::rx::RxStateKind::Offloading),
            "resumed offloading"
        );
        assert!(s.pkts_offloaded > 0);
    }

    #[test]
    fn composed_rx_decrypts_and_places_through_tls() {
        use ano_nvme::offload::{NvmeMode, NvmeRxFlow, RrEntry, RrMap};
        use ano_nvme::pdu::{encode_capsule_resp, encode_data_pdu, PduType};
        use std::cell::RefCell;
        use std::rc::Rc;

        // Plaintext stream: one C2HData capsule + completion, for CID 3.
        let payload: Vec<u8> = (0..6000u32).map(|i| (i % 231) as u8).collect();
        let plain: Vec<u8> = [
            encode_data_pdu(PduType::C2HData, 3, 0, &payload, false),
            encode_capsule_resp(3, 0),
        ]
        .concat();

        // Wrap it in TLS records of 2 KiB.
        let session = TlsSession::from_seed(44);
        let wire: Vec<u8> = plain
            .chunks(2048)
            .enumerate()
            .flat_map(|(i, c)| session.seal_record(i as u64, c))
            .collect();

        // Composed engine: TLS outer + NVMe inner with a registered buffer.
        let rr = RrMap::new();
        let buf = Rc::new(RefCell::new(vec![0u8; payload.len()]));
        rr.add(
            3,
            RrEntry {
                buf: Some(Rc::clone(&buf)),
                len: payload.len() as u32,
            },
        );
        let inner = RxEngine::new(
            Box::new(NvmeRxFlow::new(NvmeMode::Functional, rr, true)),
            0,
            0,
        );
        let flow = TlsRxFlow::new(session, FlowMode::Functional).with_inner(inner);
        let mut e = RxEngine::new(Box::new(flow), 0, 0);
        for (i, chunk) in wire.chunks(1448).enumerate() {
            let mut b = chunk.to_vec();
            let flags = e.on_packet((i * 1448) as u64, &mut DataRef::Real(&mut b));
            assert!(flags.tls_decrypted, "packet {i} decrypted");
            assert!(flags.nvme_crc_ok, "packet {i} capsule CRC verified through TLS");
            assert!(flags.nvme_placed, "packet {i} placed through TLS");
        }
        assert_eq!(&buf.borrow()[..], &payload[..], "decrypt→verify→place chain intact");
    }

    #[test]
    fn plain_offset_mapping_is_consistent() {
        // Record 0 starts at tcp 0: first body byte tcp 5 -> plain 0.
        assert_eq!(plain_offset(0, 0), 0);
        // Record 1 starts at tcp (N + 21): first body byte -> plain N.
        let n = 16384u64;
        assert_eq!(plain_offset(n + OVERHEAD as u64, 1), n);
        // Record 7 with 16K bodies.
        let start7 = 7 * (n + OVERHEAD as u64);
        assert_eq!(plain_offset(start7, 7), 7 * n);
    }
}

//! The kernel-TLS-style software data path (§5.2).
//!
//! [`KtlsTx`] frames application bytes into records. With offload enabled it
//! "skips" encryption — emitting plaintext records with dummy ICVs for the
//! NIC to fill — and keeps the per-record map that answers the driver's
//! `l5o_get_tx_msgstate` upcalls. Without offload it encrypts in software.
//!
//! [`KtlsRx`] consumes in-order TCP chunks with their SKB offload bits and
//! reassembles records. Records whose packets all carry the `decrypted` bit
//! skip crypto entirely; records with no bits fall back to full software
//! decryption; *partially* offloaded records pay the §5.2 penalty — the
//! NIC-decrypted ranges must be re-encrypted to reconstruct the ciphertext
//! that AES-GCM authentication is computed over.
//!
//! All CPU work is returned as cycle counts priced by the [`CostModel`].

use ano_core::flow::{ResyncResponder, TxMsgLog, TxMsgRef};
use ano_core::msg::{FlowMode, FrameIndex};
use ano_crypto::gcm::Direction;
use ano_sim::cost::CostModel;
use ano_sim::payload::{DataMode, Payload};
use ano_tcp::segment::{RxChunk, SkbFlags};

use crate::record::{RecordHeader, HEADER_LEN, MAX_PLAINTEXT, TAG_LEN};
use crate::session::TlsSession;

/// Transmit-path configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KtlsTxConfig {
    /// NIC crypto offload enabled (records go down as plaintext).
    pub offload: bool,
    /// Zero-copy sendfile: hand page-cache buffers straight to the NIC.
    /// Only meaningful with `offload` (software TLS cannot encrypt the page
    /// cache in place).
    pub zerocopy: bool,
    /// Payload fidelity.
    pub mode: DataMode,
}

/// Transmit-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KtlsTxStats {
    /// Records framed.
    pub records: u64,
    /// Application payload bytes accepted.
    pub app_bytes: u64,
}

/// The kTLS transmit half for one connection.
#[derive(Debug)]
pub struct KtlsTx {
    session: TlsSession,
    cfg: KtlsTxConfig,
    /// One entry per record; a record's log index is its TLS sequence number.
    log: TxMsgLog,
    stats: KtlsTxStats,
}

impl KtlsTx {
    /// Creates the transmit half.
    pub fn new(session: TlsSession, cfg: KtlsTxConfig) -> KtlsTx {
        KtlsTx::with_frames(session, cfg, FrameIndex::new())
    }

    /// Creates the transmit half over a caller-provided frame index (so the
    /// receiving side and NIC engines can share it in modeled mode).
    pub fn with_frames(session: TlsSession, cfg: KtlsTxConfig, frames: FrameIndex) -> KtlsTx {
        KtlsTx {
            session,
            cfg,
            log: TxMsgLog::with_frames(frames),
            stats: KtlsTxStats::default(),
        }
    }

    /// The shared frame index (hand to modeled-mode NIC engines).
    pub fn frames(&self) -> FrameIndex {
        self.log.frames()
    }

    /// Counters.
    pub fn stats(&self) -> KtlsTxStats {
        self.stats
    }

    /// Current TCP-stream offset (bytes handed down so far).
    pub fn stream_off(&self) -> u64 {
        self.log.end()
    }

    /// Frames `app` into records; returns the wire chunks for TCP and the
    /// CPU cycles consumed.
    ///
    /// # Panics
    ///
    /// Panics in functional mode if `app` is synthetic.
    pub fn send(&mut self, app: &Payload, cost: &CostModel) -> (Vec<Payload>, u64) {
        let mut out = Vec::new();
        let mut cycles = 0u64;
        let len = app.len();
        self.stats.app_bytes += len as u64;
        let mut off = 0usize;
        while off < len {
            let take = MAX_PLAINTEXT.min(len - off);
            let chunk = app.slice(off, off + take);
            cycles += cost.per_record_tx;
            let wire = match (self.cfg.mode, self.cfg.offload) {
                (DataMode::Functional, true) => {
                    let plain = chunk.as_real().expect("functional mode requires real bytes");
                    let mut w = Vec::with_capacity(take + HEADER_LEN + TAG_LEN);
                    w.extend_from_slice(&RecordHeader::for_plaintext(take).encode());
                    w.extend_from_slice(plain);
                    w.extend_from_slice(&[0u8; TAG_LEN]); // dummy ICV, NIC fills
                    if !self.cfg.zerocopy {
                        cycles += cost.copy_cycles(take, 0);
                    }
                    Payload::real(w)
                }
                (DataMode::Functional, false) => {
                    let plain = chunk.as_real().expect("functional mode requires real bytes");
                    cycles += cost.record_alloc + cost.encrypt_cycles(take);
                    Payload::real(self.session.seal_record(self.log.count(), plain))
                }
                (DataMode::Modeled, offload) => {
                    if offload {
                        if !self.cfg.zerocopy {
                            cycles += cost.copy_cycles(take, 0);
                        }
                    } else {
                        cycles += cost.record_alloc + cost.encrypt_cycles(take);
                    }
                    Payload::synthetic(take + HEADER_LEN + TAG_LEN)
                }
            };
            self.log.push(wire.len() as u32, None);
            self.stats.records += 1;
            out.push(wire);
            off += take;
        }
        (out, cycles)
    }

    /// `l5o_get_tx_msgstate`: the record containing stream offset `off`.
    pub fn record_at(&self, off: u64) -> Option<TxMsgRef> {
        self.log.msg_at(off)
    }

    /// Releases record references below the cumulative ack (§4.2: "the L5P
    /// releases its reference when the entire message is acknowledged").
    pub fn release_below(&mut self, acked: u64) {
        self.log.release_below(acked);
    }
}

/// One in-order run of plaintext handed up by kTLS: `offset` counts
/// plaintext bytes, and the flags are those of the wire packet it came from
/// (so a layered NVMe-TCP consumer can keep its own per-packet bookkeeping).
pub use ano_tcp::segment::RxChunk as PlainChunk;

/// Record classification counters (Fig. 17b / Fig. 18b).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecordClass {
    /// Records whose packets were all offloaded.
    pub full: u64,
    /// Records with some offloaded packets (§5.2 costly fallback).
    pub partial: u64,
    /// Records with no offloaded packets.
    pub none: u64,
}

impl RecordClass {
    /// Total records.
    pub fn total(&self) -> u64 {
        self.full + self.partial + self.none
    }
}

/// Receive-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KtlsRxStats {
    /// Record classification.
    pub class: RecordClass,
    /// Authentication/framing failures.
    pub alerts: u64,
    /// Plaintext bytes delivered.
    pub plain_bytes: u64,
}

/// The kTLS receive half for one connection.
#[derive(Debug)]
pub struct KtlsRx {
    session: TlsSession,
    /// Where record framing comes from (modeled: the sender's `KtlsTx`).
    mode: FlowMode,
    /// Consumed wire-stream offset.
    pos: u64,
    /// Next record sequence number.
    next_seq: u64,
    /// Plaintext-stream offset delivered so far.
    plain_pos: u64,
    /// The current record's header as received: filled byte by byte, then
    /// kept until the record completes — it is the record's AAD.
    hdr_buf: Vec<u8>,
    /// Wire offset where the in-progress header began.
    hdr_start: u64,
    /// Current record: (total wire length, start offset).
    cur: Option<(u32, u64)>,
    /// Collected body+tag byte runs of the current record.
    parts: Vec<(Payload, SkbFlags)>,
    /// `l5o_resync_rx_req`/`resp` bookkeeping over the record stream.
    resync: ResyncResponder,
    /// A record header failed the magic-pattern check. Its bytes were
    /// skipped, so a later record that authenticates sits at an unknown
    /// plaintext offset: nothing is delivered from here on.
    framing_lost: bool,
    stats: KtlsRxStats,
    tracer: ano_trace::Tracer,
}

impl KtlsRx {
    /// Creates the receive half. `frames` must be the sender's index in
    /// modeled mode and `None` in functional mode.
    pub fn new(session: TlsSession, mode: DataMode, frames: Option<FrameIndex>) -> KtlsRx {
        assert_eq!(
            mode == DataMode::Modeled,
            frames.is_some(),
            "modeled mode needs the sender's frame index"
        );
        KtlsRx {
            session,
            mode: frames.map_or(FlowMode::Functional, FlowMode::Modeled),
            pos: 0,
            next_seq: 0,
            plain_pos: 0,
            hdr_buf: Vec::new(),
            hdr_start: 0,
            cur: None,
            parts: Vec::new(),
            resync: ResyncResponder::default(),
            framing_lost: false,
            stats: KtlsRxStats::default(),
            tracer: ano_trace::Tracer::default(),
        }
    }

    /// Installs a (typically flow-scoped) tracing handle. The default
    /// handle is disabled, so an unwired receiver records nothing.
    pub fn set_tracer(&mut self, tracer: ano_trace::Tracer) {
        self.tracer = tracer;
    }

    /// Counters.
    pub fn stats(&self) -> KtlsRxStats {
        self.stats
    }

    /// The resync responder over this layer's wire stream (the driver
    /// registers `l5o_resync_rx_req`s and drains the answers here).
    pub fn resync_mut(&mut self) -> &mut ResyncResponder {
        &mut self.resync
    }

    /// Consumes in-order chunks from TCP; returns plaintext chunks and the
    /// CPU cycles spent.
    pub fn on_chunks<I>(&mut self, chunks: I, cost: &CostModel) -> (Vec<PlainChunk>, u64)
    where
        I: IntoIterator<Item = RxChunk>,
    {
        let mut out = Vec::new();
        let cycles = self.on_chunks_into(chunks, cost, &mut out);
        (out, cycles)
    }

    /// [`on_chunks`], but appending plaintext into a caller-provided buffer
    /// so the steady-state receive path allocates nothing.
    ///
    /// [`on_chunks`]: KtlsRx::on_chunks
    pub fn on_chunks_into<I>(
        &mut self,
        chunks: I,
        cost: &CostModel,
        out: &mut Vec<PlainChunk>,
    ) -> u64
    where
        I: IntoIterator<Item = RxChunk>,
    {
        let mut cycles = 0u64;
        for chunk in chunks {
            debug_assert_eq!(chunk.offset, self.pos, "chunks must be in order");
            let mut consumed = 0usize;
            let len = chunk.payload.len();
            while consumed < len {
                match self.cur {
                    None => {
                        if self.hdr_buf.is_empty() {
                            self.hdr_start = self.pos;
                        }
                        let need = HEADER_LEN - self.hdr_buf.len();
                        let take = need.min(len - consumed);
                        match chunk.payload.as_real() {
                            Some(bytes) => self
                                .hdr_buf
                                .extend_from_slice(&bytes[consumed..consumed + take]),
                            None => self.hdr_buf.extend(std::iter::repeat(0).take(take)),
                        }
                        consumed += take;
                        self.pos += take as u64;
                        if self.hdr_buf.len() == HEADER_LEN {
                            let start = self.hdr_start;
                            let msg = self.mode.msg_at(
                                start,
                                Some(&self.hdr_buf),
                                |h| RecordHeader::parse(h).map(|r| r.total_len() as u32),
                                |m| Some(m.total_len),
                            );
                            match msg {
                                Some(total) => {
                                    self.resync.note_start(start);
                                    self.begin_record(total, start);
                                }
                                None => {
                                    // Stream garbage: fatal protocol error.
                                    self.hdr_buf.clear();
                                    self.framing_lost = true;
                                    self.stats.alerts += 1;
                                    self.tracer.record(|| ano_trace::Event::AuthReject {
                                        seq: start,
                                    });
                                    self.tracer.count("tls.alerts", 1);
                                }
                            }
                        }
                    }
                    Some((total, _start)) => {
                        let body_and_tag = total as usize - HEADER_LEN;
                        let have: usize = self.parts.iter().map(|(p, _)| p.len()).sum();
                        let take = (body_and_tag - have).min(len - consumed);
                        self.parts
                            .push((chunk.payload.slice(consumed, consumed + take), chunk.flags));
                        consumed += take;
                        self.pos += take as u64;
                        if have + take == body_and_tag {
                            cycles += self.finish_record(cost, out);
                        }
                    }
                }
            }
            self.resync.flush(self.pos);
        }
        cycles
    }

    fn begin_record(&mut self, total: u32, start: u64) {
        self.cur = Some((total, start));
        self.parts.clear();
    }

    /// Completes the in-progress record, appending its plaintext chunks to
    /// `out` and returning the CPU cycles spent. Appends (rather than
    /// returns) so the per-record output needs no fresh allocation.
    fn finish_record(&mut self, cost: &CostModel, out: &mut Vec<PlainChunk>) -> u64 {
        let (total, start) = self.cur.take().expect("record in progress");
        let parts = std::mem::take(&mut self.parts);
        let plen = total as usize - HEADER_LEN - TAG_LEN;
        let seq = self.next_seq;
        self.next_seq += 1;

        // Classify by per-packet decrypted bits (never coalesced, §4.3).
        let n_dec = parts.iter().filter(|(_, f)| f.tls_decrypted).count();
        let offloaded_bytes: usize = parts
            .iter()
            .filter(|(_, f)| f.tls_decrypted)
            .map(|(p, _)| p.len())
            .sum();
        let class = if n_dec == parts.len() {
            self.stats.class.full += 1;
            Class::Full
        } else if n_dec == 0 {
            self.stats.class.none += 1;
            Class::None
        } else {
            self.stats.class.partial += 1;
            Class::Partial
        };

        let mut cycles = cost.per_record_rx;
        match class {
            Class::Full => {}
            Class::None => cycles += cost.decrypt_cycles(plen),
            // §5.2: re-encrypt what the NIC decrypted, then decrypt it all.
            Class::Partial => {
                cycles += cost.decrypt_cycles(plen)
                    + CostModel::bytes_cycles(cost.aes_gcm_enc_cpb, offloaded_bytes)
            }
        }
        // Crypto cycles the CPU actually spends (everything beyond the flat
        // per-record bookkeeping cost) — the per-layer attribution figures
        // read this off the metrics registry.
        let crypto = cycles - cost.per_record_rx;
        if crypto > 0 {
            self.tracer.count("cpu.tls.decrypt", crypto);
            self.tracer.record(|| ano_trace::Event::Cpu { layer: "tls", cycles: crypto });
        }

        let mark = out.len();
        match self.mode {
            FlowMode::Modeled(_) => {
                self.tracer.record(|| ano_trace::Event::AuthAccept { seq: start, len: plen });
                self.emit_chunks(&parts, plen, None, out);
            }
            FlowMode::Functional => {
                let plain = if self.framing_lost {
                    None
                } else {
                    self.recover_plaintext(seq, total, &parts, class)
                };
                match plain {
                    Some(plain) => {
                        self.tracer.record(|| ano_trace::Event::AuthAccept {
                            seq: start,
                            len: plen,
                        });
                        self.emit_chunks(&parts, plen, Some(&plain), out);
                    }
                    None => {
                        self.stats.alerts += 1;
                        self.tracer.record(|| ano_trace::Event::AuthReject { seq: start });
                        self.tracer.count("tls.alerts", 1);
                    }
                }
            }
        }
        self.tracer.count("tls.records", 1);
        let delivered: u64 = out[mark..].iter().map(|c| c.payload.len() as u64).sum();
        self.plain_pos += plen as u64;
        self.stats.plain_bytes += delivered;
        // Hand the (emptied) parts buffer back so the next record reuses its
        // capacity instead of re-growing from zero.
        let mut parts = parts;
        parts.clear();
        self.parts = parts;
        self.hdr_buf.clear();
        cycles
    }

    /// Splits the record's plaintext back into per-packet chunks (appended
    /// to `out`) so flags stay packet-accurate for layered consumers.
    fn emit_chunks(
        &self,
        parts: &[(Payload, SkbFlags)],
        plen: usize,
        plain: Option<&[u8]>,
        out: &mut Vec<PlainChunk>,
    ) {
        let mut off = 0usize;
        for (p, flags) in parts {
            if off >= plen {
                break; // tag-only parts
            }
            let take = p.len().min(plen - off);
            let payload = match plain {
                Some(bytes) => Payload::real(bytes[off..off + take].to_vec()),
                None => Payload::synthetic(take),
            };
            out.push(PlainChunk {
                offset: self.plain_pos + off as u64,
                payload,
                flags: *flags,
            });
            off += take;
        }
    }

    /// Functional-mode plaintext recovery for all three record classes.
    fn recover_plaintext(
        &self,
        seq: u64,
        total: u32,
        parts: &[(Payload, SkbFlags)],
        class: Class,
    ) -> Option<Vec<u8>> {
        let plen = total as usize - HEADER_LEN - TAG_LEN;
        let mut body_tag = Vec::with_capacity(total as usize - HEADER_LEN);
        for (p, _) in parts {
            body_tag.extend_from_slice(p.as_real().expect("functional bytes"));
        }
        debug_assert_eq!(body_tag.len(), total as usize - HEADER_LEN);
        // The AAD is the header as received, as in the NIC's `TlsRxFlow`:
        // a record whose header was altered on the way fails to
        // authenticate rather than being delivered as application data.
        let hdr: [u8; HEADER_LEN] = self.hdr_buf.as_slice().try_into().ok()?;
        match class {
            Class::Full => {
                // NIC already decrypted and authenticated: body is plaintext.
                Some(body_tag[..plen].to_vec())
            }
            Class::None | Class::Partial => {
                // Reconstruct the full ciphertext. For partially offloaded
                // records, NIC-decrypted ranges must be re-encrypted first
                // (AES-GCM authenticates ciphertext, §5.2).
                let mut ct = body_tag.clone();
                if class == Class::Partial {
                    // XOR-keystream pass over a copy flips plain<->cipher.
                    let mut flipped = body_tag[..plen].to_vec();
                    let mut enc = self.session.stream(seq, &hdr, Direction::Encrypt);
                    enc.process(&mut flipped);
                    let mut off = 0usize;
                    for (p, f) in parts {
                        let take = p.len().min(plen.saturating_sub(off));
                        if f.tls_decrypted {
                            ct[off..off + take].copy_from_slice(&flipped[off..off + take]);
                        }
                        off += take;
                        if off >= plen {
                            break;
                        }
                    }
                }
                let tag: [u8; TAG_LEN] = ct[plen..plen + TAG_LEN].try_into().expect("tag");
                let mut body = ct[..plen].to_vec();
                let mut dec = self.session.stream(seq, &hdr, Direction::Decrypt);
                dec.process(&mut body);
                dec.verify(&tag).ok()?;
                Some(body)
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Full,
    Partial,
    None,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::calibrated()
    }

    fn sessions() -> TlsSession {
        TlsSession::from_seed(77)
    }

    fn chunk(off: u64, bytes: Vec<u8>, dec: bool) -> RxChunk {
        RxChunk {
            offset: off,
            payload: Payload::real(bytes),
            flags: SkbFlags {
                tls_decrypted: dec,
                ..Default::default()
            },
        }
    }

    #[test]
    fn tx_software_framing_roundtrips_via_rx() {
        let s = sessions();
        let mut tx = KtlsTx::new(
            s.clone(),
            KtlsTxConfig {
                offload: false,
                zerocopy: false,
                mode: DataMode::Functional,
            },
        );
        let app: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let (wire, cycles) = tx.send(&Payload::real(app.clone()), &cost());
        assert!(cycles > 0);
        assert_eq!(tx.stats().records, 3, "40000 bytes -> 3 records");

        let mut rx = KtlsRx::new(s, DataMode::Functional, None);
        let mut stream = Vec::new();
        for w in &wire {
            stream.extend_from_slice(&w.to_vec());
        }
        // Deliver as un-offloaded packets of 1448.
        let mut plains = Vec::new();
        let mut off = 0u64;
        for c in stream.chunks(1448) {
            let (p, _) = rx.on_chunks([chunk(off, c.to_vec(), false)], &cost());
            plains.extend(p);
            off += c.len() as u64;
        }
        let got: Vec<u8> = plains.iter().flat_map(|p| p.payload.to_vec()).collect();
        assert_eq!(got, app);
        assert_eq!(rx.stats().class.none, 3);
        assert_eq!(rx.stats().alerts, 0);
    }

    #[test]
    fn corrupted_record_rejected_never_delivered_as_plaintext() {
        // A record damaged in flight must fail authentication and vanish:
        // one alert, zero plaintext bytes from it — and the records around
        // it still decrypt at their correct stream offsets.
        let s = sessions();
        let mut tx = KtlsTx::new(
            s.clone(),
            KtlsTxConfig {
                offload: false,
                zerocopy: false,
                mode: DataMode::Functional,
            },
        );
        let app: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let (wire, _) = tx.send(&Payload::real(app.clone()), &cost());
        assert_eq!(wire.len(), 3, "three records");

        let mut stream = Vec::new();
        for w in &wire {
            stream.extend_from_slice(&w.to_vec());
        }
        // Flip one byte in the middle of record 1's ciphertext body.
        let r0_len = wire[0].len();
        let bad = r0_len + wire[1].len() / 2;
        stream[bad] ^= 0xA5;

        let mut rx = KtlsRx::new(s, DataMode::Functional, None);
        let mut plains = Vec::new();
        let mut off = 0u64;
        for c in stream.chunks(1448) {
            let (p, _) = rx.on_chunks([chunk(off, c.to_vec(), false)], &cost());
            plains.extend(p);
            off += c.len() as u64;
        }
        assert_eq!(rx.stats().alerts, 1, "exactly the damaged record alerted");

        // Every surviving chunk carries the original plaintext at its
        // claimed offset; none carries bytes from the damaged record.
        let mut delivered = 0u64;
        for p in &plains {
            let b = p.payload.to_vec();
            let start = p.offset as usize;
            assert_eq!(
                b.as_slice(),
                &app[start..start + b.len()],
                "chunk at {start} matches the transmitted plaintext"
            );
            delivered += b.len() as u64;
        }
        assert!(
            delivered < app.len() as u64,
            "the damaged record's plaintext is missing, not substituted"
        );
    }

    #[test]
    fn offloaded_records_skip_crypto_cycles() {
        let s = sessions();
        let c = cost();
        let mut rx = KtlsRx::new(s.clone(), DataMode::Functional, None);
        // Simulate a NIC-decrypted record: plaintext body + valid-looking tag,
        // flagged decrypted.
        let plain = vec![0x5Au8; 1000];
        let wire = s.seal_record(0, &plain);
        // NIC would have decrypted the body in place:
        let mut nic_view = wire.clone();
        nic_view[HEADER_LEN..HEADER_LEN + 1000].copy_from_slice(&plain);
        let (plains, cycles) = rx.on_chunks([chunk(0, nic_view, true)], &c);
        assert_eq!(plains.len(), 1);
        assert_eq!(plains[0].payload.to_vec(), plain);
        assert_eq!(
            cycles,
            c.per_record_rx,
            "offloaded record pays only the per-record cost"
        );
        assert_eq!(rx.stats().class.full, 1);
    }

    #[test]
    fn partial_record_pays_more_than_full_software() {
        let c = cost();
        let s = sessions();
        let plain = vec![0x77u8; 8000];
        let wire = s.seal_record(0, &plain);

        // Split into two packets; NIC decrypted only the first.
        let split = 4000;
        let mut first = wire[..split].to_vec();
        // NIC decrypts bytes [5, 4000) in place.
        let hdr: [u8; HEADER_LEN] = wire[..HEADER_LEN].try_into().unwrap();
        let mut dec = s.stream(0, &hdr, Direction::Decrypt);
        dec.process(&mut first[HEADER_LEN..]);
        let second = wire[split..].to_vec();

        let mut rx = KtlsRx::new(s.clone(), DataMode::Functional, None);
        let (plains, cycles_partial) = rx.on_chunks(
            [
                chunk(0, first, true),
                chunk(split as u64, second, false),
            ],
            &c,
        );
        let got: Vec<u8> = plains.iter().flat_map(|p| p.payload.to_vec()).collect();
        assert_eq!(got, plain, "partial fallback recovers the plaintext");
        assert_eq!(rx.stats().class.partial, 1);
        assert_eq!(rx.stats().alerts, 0);

        // Cost comparison vs a fully software record.
        let mut rx2 = KtlsRx::new(s, DataMode::Functional, None);
        let (_, cycles_none) = rx2.on_chunks([chunk(0, wire, false)], &c);
        assert!(
            cycles_partial > cycles_none,
            "partial ({cycles_partial}) costlier than none ({cycles_none}) — §5.2"
        );
    }

    #[test]
    fn resync_requests_answered_after_stream_passes() {
        let s = sessions();
        let c = cost();
        let mut tx = KtlsTx::new(
            s.clone(),
            KtlsTxConfig {
                offload: false,
                zerocopy: false,
                mode: DataMode::Functional,
            },
        );
        let (wire, _) = tx.send(&Payload::real(vec![1u8; 20_000]), &c);
        let stream: Vec<u8> = wire.iter().flat_map(|w| w.to_vec()).collect();
        let rec1_start = (16_384 + HEADER_LEN + TAG_LEN) as u64;

        let mut rx = KtlsRx::new(s, DataMode::Functional, None);
        // NIC asks about a boundary before software reaches it.
        rx.resync_mut().request(rec1_start);
        rx.resync_mut().request(rec1_start + 3); // not a boundary
        assert_eq!(rx.resync_mut().take().count(), 0, "not reached yet");

        let mut off = 0u64;
        for ch in stream.chunks(1448) {
            rx.on_chunks([chunk(off, ch.to_vec(), false)], &c);
            off += ch.len() as u64;
        }
        let mut resp: Vec<_> = rx.resync_mut().take().collect();
        resp.sort();
        assert_eq!(resp, vec![(rec1_start, true, 1), (rec1_start + 3, false, 0)]);
    }

    #[test]
    fn modeled_roundtrip_classifies() {
        let s = sessions();
        let c = cost();
        let mut tx = KtlsTx::new(
            s.clone(),
            KtlsTxConfig {
                offload: true,
                zerocopy: true,
                mode: DataMode::Modeled,
            },
        );
        let (wire, _) = tx.send(&Payload::synthetic(33_000), &c);
        let mut rx = KtlsRx::new(s, DataMode::Modeled, Some(tx.frames()));
        let mut off = 0u64;
        let mut plains = Vec::new();
        for w in &wire {
            // Deliver each record as two chunks, all offloaded.
            let half = w.len() / 2;
            let (p1, _) = rx.on_chunks(
                [RxChunk {
                    offset: off,
                    payload: Payload::synthetic(half),
                    flags: SkbFlags {
                        tls_decrypted: true,
                        ..Default::default()
                    },
                }],
                &c,
            );
            let (p2, _) = rx.on_chunks(
                [RxChunk {
                    offset: off + half as u64,
                    payload: Payload::synthetic(w.len() - half),
                    flags: SkbFlags {
                        tls_decrypted: true,
                        ..Default::default()
                    },
                }],
                &c,
            );
            off += w.len() as u64;
            plains.extend(p1);
            plains.extend(p2);
        }
        let total: usize = plains.iter().map(|p| p.payload.len()).sum();
        assert_eq!(total, 33_000);
        assert_eq!(rx.stats().class.full, 3);
    }
}

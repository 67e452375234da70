//! The NVMe-TCP host (initiator): submits I/O capsules, registers
//! request-response state with the NIC, and consumes response streams with
//! offload-aware fallbacks (§5.1).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ano_core::flow::{TxMsgLog, TxMsgRef};
use ano_core::msg::FrameIndex;
use ano_crypto::crc32c::crc32c;
use ano_sim::cost::CostModel;
use ano_sim::payload::{DataMode, Payload};

use crate::offload::{RrBuffer, RrEntry, RrMap};
use crate::parser::{ParsedPdu, PduParser, StreamChunk};
use crate::pdu::{capsule_cmd_header, encode_capsule_cmd, pdu_len, IoOpcode, PduType, DDGST_LEN};

/// Host configuration.
#[derive(Clone, Copy, Debug)]
pub struct NvmeHostConfig {
    /// Payload fidelity.
    pub mode: DataMode,
    /// Rely on the NIC copy offload (skip the memcpy when bytes were placed).
    pub copy_offload: bool,
    /// Rely on the NIC CRC offload (skip software digest verification).
    pub crc_offload: bool,
}

/// A finished I/O.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Caller's request id.
    pub id: u64,
    /// Opcode.
    pub op: IoOpcode,
    /// Success (digest verified, status 0).
    pub ok: bool,
    /// Bytes the NIC placed directly (copy skipped).
    pub placed_bytes: u64,
    /// Bytes copied in software.
    pub copied_bytes: u64,
    /// The destination buffer (reads, functional mode).
    pub buffer: Option<RrBuffer>,
}

#[derive(Debug)]
struct Inflight {
    id: u64,
    op: IoOpcode,
    len: u32,
    buf: Option<RrBuffer>,
    failed: bool,
    placed_bytes: u64,
    copied_bytes: u64,
}

/// Host-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NvmeHostStats {
    /// Reads submitted.
    pub reads: u64,
    /// Writes submitted.
    pub writes: u64,
    /// Completions received.
    pub completions: u64,
    /// Data bytes placed by the NIC (copy skipped).
    pub bytes_placed: u64,
    /// Data bytes copied by software.
    pub bytes_copied: u64,
    /// CPU cycles spent copying those bytes (Fig. 10's copy share).
    pub copy_cycles: u64,
    /// Data PDUs whose digest was verified in software.
    pub crc_software: u64,
    /// CPU cycles spent on those software digests (Fig. 10's CRC share).
    pub crc_cycles: u64,
    /// Data PDUs whose digest check was skipped (NIC verified).
    pub crc_skipped: u64,
    /// Digest failures.
    pub crc_failures: u64,
}

/// The initiator endpoint for one NVMe-TCP queue (one TCP connection).
pub struct NvmeTcpHost {
    cfg: NvmeHostConfig,
    rr: RrMap,
    parser: PduParser,
    next_cid: u16,
    inflight: BTreeMap<u16, Inflight>,
    /// One entry per command capsule.
    tx_log: TxMsgLog,
    completions: Vec<Completion>,
    /// Working-set hint for the copy cost model (Fig. 10's LLC cliff).
    pub working_set: u64,
    stats: NvmeHostStats,
    tracer: ano_trace::Tracer,
}

impl std::fmt::Debug for NvmeTcpHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmeTcpHost")
            .field("inflight", &self.inflight.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl NvmeTcpHost {
    /// Creates a host endpoint. `rr` must be the map shared with the NIC's
    /// receive flow; `parser` must be built over the *target's* frame index
    /// in modeled mode.
    pub fn new(cfg: NvmeHostConfig, rr: RrMap, parser: PduParser) -> NvmeTcpHost {
        NvmeTcpHost::with_frames(cfg, rr, parser, FrameIndex::new())
    }

    /// Like [`NvmeTcpHost::new`] with a caller-provided transmit frame index.
    pub fn with_frames(
        cfg: NvmeHostConfig,
        rr: RrMap,
        parser: PduParser,
        tx_frames: FrameIndex,
    ) -> NvmeTcpHost {
        NvmeTcpHost {
            cfg,
            rr,
            parser,
            next_cid: 0,
            inflight: BTreeMap::new(),
            tx_log: TxMsgLog::with_frames(tx_frames),
            completions: Vec::new(),
            working_set: 0,
            stats: NvmeHostStats::default(),
            tracer: ano_trace::Tracer::default(),
        }
    }

    /// Installs a (typically flow-scoped) tracing handle. The default
    /// handle is disabled, so an unwired host records nothing.
    pub fn set_tracer(&mut self, tracer: ano_trace::Tracer) {
        self.tracer = tracer;
    }

    /// The RR-state map (shared with the NIC).
    pub fn rr(&self) -> RrMap {
        self.rr.clone()
    }

    /// The host's transmit frame index (for a modeled-mode NIC tx engine
    /// or the peer's modeled-mode parser).
    pub fn tx_frames(&self) -> FrameIndex {
        self.tx_log.frames()
    }

    /// Counters.
    pub fn stats(&self) -> NvmeHostStats {
        self.stats
    }

    /// In-flight request count.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Access to the parser (resync request/response plumbing).
    pub fn parser_mut(&mut self) -> &mut PduParser {
        &mut self.parser
    }

    fn alloc_cid(&mut self) -> u16 {
        loop {
            let cid = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(1);
            if !self.inflight.contains_key(&cid) {
                return cid;
            }
        }
    }

    /// Submits a read of `len` bytes at device offset `offset`. Returns the
    /// wire bytes to hand to TCP and the CPU cycles consumed.
    pub fn submit_read(&mut self, id: u64, offset: u64, len: u32, cost: &CostModel) -> (Payload, u64) {
        let cid = self.alloc_cid();
        self.stats.reads += 1;
        // l5o_add_rr_state: register the destination buffer before sending.
        let buf: Option<RrBuffer> = match self.cfg.mode {
            DataMode::Functional => Some(Rc::new(RefCell::new(vec![0u8; len as usize]))),
            DataMode::Modeled => None,
        };
        if self.cfg.copy_offload {
            self.rr.add(
                cid,
                RrEntry {
                    buf: buf.clone(),
                    len,
                },
            );
        }
        self.inflight.insert(
            cid,
            Inflight {
                id,
                op: IoOpcode::Read,
                len,
                buf,
                failed: false,
                placed_bytes: 0,
                copied_bytes: 0,
            },
        );
        (self.emit_cmd(cid, IoOpcode::Read, offset, len, None), cost.syscall)
    }

    /// Submits a write of `data` at device offset `offset`.
    pub fn submit_write(&mut self, id: u64, offset: u64, data: &Payload, cost: &CostModel) -> (Payload, u64) {
        let cid = self.alloc_cid();
        self.stats.writes += 1;
        let len = data.len() as u32;
        self.inflight.insert(
            cid,
            Inflight {
                id,
                op: IoOpcode::Write,
                len,
                buf: None,
                failed: false,
                placed_bytes: 0,
                copied_bytes: 0,
            },
        );
        let mut cycles = cost.syscall;
        if !self.cfg.crc_offload {
            cycles += cost.crc_cycles(len as usize);
        }
        (self.emit_cmd(cid, IoOpcode::Write, offset, len, Some(data)), cycles)
    }

    /// Frames one command capsule (`data`: a write's inline bytes) and logs
    /// it. A synthetic capsule registers its encoded header with the frame,
    /// for the peer's modeled parser and NIC flows to decode.
    fn emit_cmd(&mut self, cid: u16, op: IoOpcode, offset: u64, len: u32, data: Option<&Payload>) -> Payload {
        let inline = data.map_or(0, |d| d.len() as u32);
        let header = capsule_cmd_header(cid, op, offset, len, inline);
        let (wire, header) = match self.cfg.mode {
            DataMode::Functional => {
                let bytes = data.map(|d| d.as_real().expect("functional mode requires real bytes"));
                let mut w = encode_capsule_cmd(cid, op, offset, len, bytes);
                if inline > 0 && self.cfg.crc_offload {
                    // Dummy digest: the NIC tx offload fills it (§5.1).
                    let n = w.len();
                    w[n - DDGST_LEN..].copy_from_slice(&[0; DDGST_LEN]);
                }
                (Payload::real(w), None)
            }
            DataMode::Modeled => (Payload::synthetic(pdu_len(&header)), Some(Box::new(header) as Box<[u8]>)),
        };
        self.tx_log.push(wire.len() as u32, header);
        wire
    }

    /// `l5o_get_tx_msgstate` for the host's capsule stream.
    pub fn record_at(&self, off: u64) -> Option<TxMsgRef> {
        self.tx_log.msg_at(off)
    }

    /// Releases acknowledged capsule state.
    pub fn release_below(&mut self, acked: u64) {
        self.tx_log.release_below(acked);
    }

    /// Consumes in-order response-stream chunks; returns CPU cycles.
    pub fn on_chunks<I>(&mut self, chunks: I, cost: &CostModel) -> u64
    where
        I: IntoIterator<Item = StreamChunk>,
    {
        let mut cycles = 0u64;
        for c in chunks {
            for pdu in self.parser.on_chunk(c) {
                cycles += self.on_pdu(pdu, cost);
            }
        }
        cycles
    }

    /// Drains completed requests.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    fn on_pdu(&mut self, pdu: ParsedPdu, cost: &CostModel) -> u64 {
        let mut cycles = 0u64;
        match pdu.kind {
            PduType::C2HData => {
                let Some(cid) = pdu.cid() else {
                    return 0;
                };
                let Some(req) = self.inflight.get_mut(&cid) else {
                    return 0;
                };
                let dlen = pdu.data_len();
                // Copy: skipped when every byte was placed by the NIC
                // ("the relevant memcpy source and destination addresses
                // turn out to be equal", §5.1).
                let placed = self.cfg.copy_offload && pdu.all_placed;
                if placed {
                    req.placed_bytes += dlen as u64;
                    self.stats.bytes_placed += dlen as u64;
                } else {
                    let copy = cost.copy_cycles(dlen, self.working_set);
                    cycles += copy;
                    req.copied_bytes += dlen as u64;
                    self.stats.bytes_copied += dlen as u64;
                    self.stats.copy_cycles += copy;
                    if let (Some(buf), Some(bytes)) =
                        (&req.buf, pdu.data_bytes().as_real())
                    {
                        let datao = pdu.psh.ext.map_or(0, |e| e.datao) as usize;
                        let mut b = buf.borrow_mut();
                        if datao + bytes.len() <= b.len() {
                            b[datao..datao + bytes.len()].copy_from_slice(bytes);
                        } else {
                            req.failed = true;
                        }
                    }
                }
                // Digest: skipped when the NIC verified every packet.
                if self.cfg.crc_offload && pdu.all_crc_ok {
                    self.stats.crc_skipped += 1;
                    self.tracer.record(|| ano_trace::Event::DigestOk { cid });
                } else {
                    let crc = cost.crc_cycles(dlen);
                    cycles += crc;
                    self.stats.crc_software += 1;
                    self.stats.crc_cycles += crc;
                    let mut digest_ok = true;
                    if let (Some(wire_dg), Some(bytes)) = (pdu.ddgst, pdu.data_bytes().as_real()) {
                        // NOTE: placed bytes were delivered decrypted/placed;
                        // the wire digest covers the original data, which for
                        // NVMe (no transformation) is the same bytes.
                        if crc32c(bytes) != wire_dg {
                            req.failed = true;
                            self.stats.crc_failures += 1;
                            digest_ok = false;
                        }
                    }
                    if digest_ok {
                        self.tracer.record(|| ano_trace::Event::DigestOk { cid });
                    } else {
                        self.tracer.record(|| ano_trace::Event::DigestFail { cid });
                    }
                }
            }
            PduType::CapsuleResp => {
                let Some(cid) = pdu.cid() else {
                    return 0;
                };
                let Some(req) = self.inflight.remove(&cid) else {
                    return 0;
                };
                cycles += cost.per_req_nvme;
                self.rr.del(cid); // l5o_del_rr_state
                self.stats.completions += 1;
                self.completions.push(Completion {
                    id: req.id,
                    op: req.op,
                    ok: !req.failed,
                    placed_bytes: req.placed_bytes,
                    copied_bytes: req.copied_bytes,
                    buffer: req.buf,
                });
                let _ = req.len;
            }
            _ => {}
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ano_core::msg::FlowMode;
    use crate::pdu::{encode_capsule_resp, encode_data_pdu};
    use ano_tcp::segment::SkbFlags;

    fn cost() -> CostModel {
        CostModel::calibrated()
    }

    fn host(copy: bool, crc: bool) -> NvmeTcpHost {
        NvmeTcpHost::new(
            NvmeHostConfig {
                mode: DataMode::Functional,
                copy_offload: copy,
                crc_offload: crc,
            },
            RrMap::new(),
            PduParser::new(FlowMode::Functional),
        )
    }

    fn deliver(h: &mut NvmeTcpHost, stream: &[u8], flags: SkbFlags, c: &CostModel) -> u64 {
        let mut cycles = 0;
        let mut off = 0u64;
        for ch in stream.chunks(1448) {
            cycles += h.on_chunks(
                [StreamChunk {
                    offset: off,
                    payload: Payload::real(ch.to_vec()),
                    flags,
                }],
                c,
            );
            off += ch.len() as u64;
        }
        cycles
    }

    #[test]
    fn read_completes_with_software_copy_and_crc() {
        let c = cost();
        let mut h = host(false, false);
        let (_wire, _) = h.submit_read(1, 0, 4096, &c);
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let stream = [
            encode_data_pdu(PduType::C2HData, 0, 0, &data, false),
            encode_capsule_resp(0, 0),
        ]
        .concat();
        let cycles = deliver(&mut h, &stream, SkbFlags::default(), &c);
        let comps = h.take_completions();
        assert_eq!(comps.len(), 1);
        assert!(comps[0].ok);
        assert_eq!(comps[0].copied_bytes, 4096);
        assert_eq!(comps[0].placed_bytes, 0);
        let buf = comps[0].buffer.as_ref().expect("functional buffer");
        assert_eq!(&buf.borrow()[..], &data[..]);
        assert!(cycles >= c.crc_cycles(4096) + c.copy_cycles(4096, 0));
        let s = h.stats();
        assert_eq!(s.crc_software, 1);
        assert_eq!((s.copy_cycles, s.crc_cycles), (c.copy_cycles(4096, 0), c.crc_cycles(4096)));
    }

    #[test]
    fn offloaded_read_skips_copy_and_crc() {
        let c = cost();
        let mut h = host(true, true);
        let (_wire, _) = h.submit_read(2, 0, 2048, &c);
        // The NIC placed the bytes already (simulate by writing the buffer).
        let data = vec![0x5Au8; 2048];
        {
            let entry = h.rr().get(0).expect("registered");
            entry.buf.as_ref().unwrap().borrow_mut().copy_from_slice(&data);
        }
        let stream = [
            encode_data_pdu(PduType::C2HData, 0, 0, &data, false),
            encode_capsule_resp(0, 0),
        ]
        .concat();
        let flags = SkbFlags {
            nvme_crc_ok: true,
            nvme_placed: true,
            ..Default::default()
        };
        let cycles = deliver(&mut h, &stream, flags, &c);
        let comps = h.take_completions();
        assert!(comps[0].ok);
        assert_eq!(comps[0].placed_bytes, 2048);
        assert_eq!(comps[0].copied_bytes, 0);
        assert_eq!(&comps[0].buffer.as_ref().unwrap().borrow()[..], &data[..]);
        assert_eq!(
            cycles,
            c.syscall * 0 + c.per_req_nvme,
            "only completion-path cycles remain"
        );
        assert_eq!((h.stats().copy_cycles, h.stats().crc_cycles), (0, 0));
        assert!(h.rr().is_empty(), "l5o_del_rr_state after response");
    }

    #[test]
    fn crc_failure_fails_request() {
        let c = cost();
        let mut h = host(false, false);
        h.submit_read(3, 0, 100, &c);
        let data = vec![1u8; 100];
        let mut pdu = encode_data_pdu(PduType::C2HData, 0, 0, &data, false);
        let n = pdu.len();
        pdu[n - 2] ^= 0xFF; // corrupt digest
        let stream = [pdu, encode_capsule_resp(0, 0)].concat();
        deliver(&mut h, &stream, SkbFlags::default(), &c);
        let comps = h.take_completions();
        assert!(!comps[0].ok);
        assert_eq!(h.stats().crc_failures, 1);
    }

    #[test]
    fn write_capsule_carries_dummy_digest_under_offload() {
        let c = cost();
        let mut h = host(false, true);
        let data = Payload::real(vec![3u8; 500]);
        let (wire, cycles) = h.submit_write(4, 0, &data, &c);
        let bytes = wire.as_real().unwrap();
        assert_eq!(&bytes[bytes.len() - 4..], &[0, 0, 0, 0], "dummy digest");
        assert_eq!(cycles, c.syscall, "no software CRC under offload");

        let mut h2 = host(false, false);
        let (wire2, cycles2) = h2.submit_write(5, 0, &data, &c);
        let b2 = wire2.as_real().unwrap();
        assert_ne!(&b2[b2.len() - 4..], &[0, 0, 0, 0], "real digest");
        assert!(cycles2 > cycles);
    }
}

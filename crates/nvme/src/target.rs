//! The NVMe-TCP target (controller): serves capsules from a block device.
//!
//! The target parses command capsules from the rx stream, performs device
//! I/O with the [`BlockDevice`] timing model, and emits C2HData + response
//! capsules. With the transmit CRC offload the emitted data PDUs carry
//! dummy digests for the NIC to fill; with the receive CRC offload the
//! target skips software verification of inline write data when the NIC's
//! `crc_ok` bits cover it.

use ano_core::flow::{TxMsgLog, TxMsgRef};
use ano_core::msg::FrameIndex;
use ano_crypto::crc32c::crc32c;
use ano_sim::cost::CostModel;
use ano_sim::payload::{DataMode, Payload};
use ano_sim::time::SimTime;

use crate::block::BlockDevice;
use crate::parser::{PduParser, StreamChunk};
use crate::pdu::{capsule_resp_header, data_pdu_header, encode_data_pdu, pdu_len, IoOpcode, PduType};

/// The largest transfer one command may ask for, in bytes (the role of
/// NVMe's MDTS). It sits above the largest request any workload issues —
/// the 3 MiB extents of the `nvme/*` scenarios — and far below the 4 GiB a
/// wire-derived `u32` length can claim.
pub const MAX_TRANSFER: u32 = 4 << 20;

/// Target configuration.
#[derive(Clone, Copy, Debug)]
pub struct NvmeTargetConfig {
    /// Payload fidelity.
    pub mode: DataMode,
    /// Emit data PDUs with dummy digests for the NIC tx offload to fill.
    pub crc_tx_offload: bool,
    /// Skip software verification of write data covered by `crc_ok` bits.
    pub crc_rx_offload: bool,
    /// Maximum data bytes per C2HData PDU.
    pub max_data_pdu: usize,
}

impl Default for NvmeTargetConfig {
    fn default() -> Self {
        NvmeTargetConfig {
            mode: DataMode::Modeled,
            crc_tx_offload: false,
            crc_rx_offload: false,
            max_data_pdu: 256 * 1024,
        }
    }
}

/// A deferred reply, ready once the device I/O completes.
#[derive(Debug)]
pub struct PendingReply {
    /// When the device finishes.
    pub ready: SimTime,
    /// What to send.
    pub reply: Reply,
}

/// Reply contents.
#[derive(Debug)]
pub enum Reply {
    /// Read data followed by a completion.
    ReadData {
        /// Command id.
        cid: u16,
        /// The data read from the device.
        data: Payload,
    },
    /// Just a completion (writes).
    WriteAck {
        /// Command id.
        cid: u16,
        /// Completion status.
        status: u16,
    },
}

/// Target counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NvmeTargetStats {
    /// Read commands served.
    pub reads: u64,
    /// Write commands served.
    pub writes: u64,
    /// Write-data digests verified in software.
    pub crc_software: u64,
    /// Write-data digest checks skipped (NIC verified).
    pub crc_skipped: u64,
    /// Digest failures on inline write data.
    pub crc_failures: u64,
    /// Commands dropped unserved: their byte range runs past the end of
    /// the device address space, or is longer than [`MAX_TRANSFER`].
    pub dropped: u64,
}

/// The controller endpoint for one NVMe-TCP queue.
pub struct NvmeTcpTarget {
    cfg: NvmeTargetConfig,
    device: BlockDevice,
    parser: PduParser,
    /// One entry per emitted PDU.
    tx_log: TxMsgLog,
    stats: NvmeTargetStats,
}

impl std::fmt::Debug for NvmeTcpTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmeTcpTarget").field("stats", &self.stats).finish()
    }
}

impl NvmeTcpTarget {
    /// Creates a target over `device`. `parser` must be built over the
    /// host's frame index in modeled mode.
    pub fn new(cfg: NvmeTargetConfig, device: BlockDevice, parser: PduParser) -> NvmeTcpTarget {
        NvmeTcpTarget::with_frames(cfg, device, parser, FrameIndex::new())
    }

    /// Like [`NvmeTcpTarget::new`] with a caller-provided transmit frame index.
    pub fn with_frames(
        cfg: NvmeTargetConfig,
        device: BlockDevice,
        parser: PduParser,
        tx_frames: FrameIndex,
    ) -> NvmeTcpTarget {
        NvmeTcpTarget {
            cfg,
            device,
            parser,
            tx_log: TxMsgLog::with_frames(tx_frames),
            stats: NvmeTargetStats::default(),
        }
    }

    /// The target's transmit frame index (for modeled-mode NIC engines and
    /// the host's parser).
    pub fn tx_frames(&self) -> FrameIndex {
        self.tx_log.frames()
    }

    /// Counters.
    pub fn stats(&self) -> NvmeTargetStats {
        self.stats
    }

    /// Device access (stats, test setup).
    pub fn device_mut(&mut self) -> &mut BlockDevice {
        &mut self.device
    }

    /// Access to the parser (resync request/response plumbing).
    pub fn parser_mut(&mut self) -> &mut PduParser {
        &mut self.parser
    }

    /// Consumes in-order command-stream chunks; returns pending replies and
    /// CPU cycles spent.
    pub fn on_chunks<I>(&mut self, chunks: I, now: SimTime, cost: &CostModel) -> (Vec<PendingReply>, u64)
    where
        I: IntoIterator<Item = StreamChunk>,
    {
        let mut out = Vec::new();
        let mut cycles = 0u64;
        for c in chunks {
            for pdu in self.parser.on_chunk(c) {
                if pdu.kind != PduType::CapsuleCmd {
                    continue;
                }
                let Some(sqe) = pdu.psh.sqe else { continue };
                let (cid, offset, inline) = (sqe.cid, sqe.offset, pdu.data_len() as u32);
                // `offset` and the length come off the wire: the device is
                // only asked for ranges it can address.
                let len = if sqe.op == IoOpcode::Read { sqe.len } else { inline };
                if len > MAX_TRANSFER || offset.checked_add(u64::from(len)).is_none() {
                    self.stats.dropped += 1;
                    continue;
                }
                cycles += cost.per_req_nvme / 2; // submission half of the I/O path
                match sqe.op {
                    IoOpcode::Read => {
                        self.stats.reads += 1;
                        let (data, ready) = self.device.read(now, offset, len as usize);
                        out.push(PendingReply {
                            ready,
                            reply: Reply::ReadData { cid, data },
                        });
                    }
                    IoOpcode::Write => {
                        self.stats.writes += 1;
                        let mut status = 0u16;
                        // Digest of inline data: skip when NIC verified.
                        if inline > 0 {
                            if self.cfg.crc_rx_offload && pdu.all_crc_ok {
                                self.stats.crc_skipped += 1;
                            } else {
                                cycles += cost.crc_cycles(inline as usize);
                                self.stats.crc_software += 1;
                                if let (Some(dg), Some(bytes)) =
                                    (pdu.ddgst, pdu.data_bytes().as_real())
                                {
                                    if crc32c(bytes) != dg {
                                        self.stats.crc_failures += 1;
                                        status = 1;
                                    }
                                }
                            }
                        }
                        let data = pdu.data_bytes();
                        let ready = if status == 0 {
                            self.device.write(now, offset, &data)
                        } else {
                            now
                        };
                        out.push(PendingReply {
                            ready,
                            reply: Reply::WriteAck { cid, status },
                        });
                    }
                }
            }
        }
        (out, cycles)
    }

    /// Emits the wire bytes for a ready reply (called by the stack at the
    /// reply's `ready` time, so stream offsets follow emission order).
    /// Returns wire chunks and CPU cycles.
    pub fn emit(&mut self, reply: Reply, cost: &CostModel) -> (Vec<Payload>, u64) {
        let mut out = Vec::new();
        let mut cycles = cost.per_req_nvme / 2; // completion half
        let (cid, status) = match reply {
            Reply::ReadData { cid, data } => {
                let mut datao = 0usize;
                let len = data.len();
                while datao < len || (len == 0 && datao == 0) {
                    let take = self.cfg.max_data_pdu.min(len - datao);
                    let chunk = data.slice(datao, datao + take);
                    if !self.cfg.crc_tx_offload {
                        cycles += cost.crc_cycles(take);
                    }
                    let header = data_pdu_header(PduType::C2HData, cid, datao as u32, take as u32);
                    let wire = match chunk.as_real() {
                        Some(bytes) => Payload::real(encode_data_pdu(
                            PduType::C2HData,
                            cid,
                            datao as u32,
                            bytes,
                            self.cfg.crc_tx_offload,
                        )),
                        None => Payload::synthetic(pdu_len(&header)),
                    };
                    self.push_pdu(wire, &header, &mut out);
                    datao += take;
                    if len == 0 {
                        break;
                    }
                }
                (cid, 0)
            }
            Reply::WriteAck { cid, status } => (cid, status),
        };
        let header = capsule_resp_header(cid, status);
        let resp = match self.cfg.mode {
            DataMode::Functional => Payload::real(header.to_vec()),
            DataMode::Modeled => Payload::synthetic(header.len()),
        };
        self.push_pdu(resp, &header, &mut out);
        (out, cycles)
    }

    /// Logs one emitted PDU and queues it. A synthetic PDU registers its
    /// encoded header with the frame, for the peer's modeled parser and
    /// NIC flows to decode.
    fn push_pdu(&mut self, wire: Payload, header: &[u8], out: &mut Vec<Payload>) {
        let header = wire.as_real().is_none().then(|| Box::from(header));
        self.tx_log.push(wire.len() as u32, header);
        out.push(wire);
    }

    /// `l5o_get_tx_msgstate` for the target's reply stream.
    pub fn record_at(&self, off: u64) -> Option<TxMsgRef> {
        self.tx_log.msg_at(off)
    }

    /// Releases acknowledged reply state.
    pub fn release_below(&mut self, acked: u64) {
        self.tx_log.release_below(acked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{pattern_byte, BlockDevice, BlockDeviceConfig};
    use ano_core::msg::FlowMode;
    use crate::pdu::{encode_capsule_cmd, CH_LEN, DATA_EXT_LEN};
    use ano_tcp::segment::SkbFlags;

    fn cost() -> CostModel {
        CostModel::calibrated()
    }

    fn target(crc_tx: bool) -> NvmeTcpTarget {
        NvmeTcpTarget::new(
            NvmeTargetConfig {
                mode: DataMode::Functional,
                crc_tx_offload: crc_tx,
                crc_rx_offload: false,
                max_data_pdu: 256 * 1024,
            },
            BlockDevice::new(BlockDeviceConfig {
                mode: DataMode::Functional,
                ..Default::default()
            }),
            PduParser::new(FlowMode::Functional),
        )
    }

    fn feed_cmd(t: &mut NvmeTcpTarget, cmd: Vec<u8>, at: u64) -> Vec<PendingReply> {
        let (replies, _) = t.on_chunks(
            [StreamChunk {
                offset: at,
                payload: Payload::real(cmd),
                flags: SkbFlags::default(),
            }],
            SimTime::ZERO,
            &cost(),
        );
        replies
    }

    #[test]
    fn read_produces_data_and_completion() {
        let mut t = target(false);
        let cmd = encode_capsule_cmd(1, IoOpcode::Read, 4096, 8192, None);
        let replies = feed_cmd(&mut t, cmd, 0);
        assert_eq!(replies.len(), 1);
        assert!(replies[0].ready > SimTime::ZERO, "device latency applies");
        let (wire, _) = match replies.into_iter().next().unwrap().reply {
            r @ Reply::ReadData { .. } => t.emit(r, &cost()),
            _ => panic!("expected read data"),
        };
        assert_eq!(wire.len(), 2, "one data PDU + completion");
        let data_pdu = wire[0].as_real().unwrap();
        // Device background pattern shows through.
        assert_eq!(data_pdu[CH_LEN + DATA_EXT_LEN], pattern_byte(4096));
        assert_eq!(t.stats().reads, 1);
    }

    #[test]
    fn read_segments_by_max_pdu() {
        let mut t = target(false);
        t.cfg.max_data_pdu = 4096;
        let cmd = encode_capsule_cmd(2, IoOpcode::Read, 0, 10_000, None);
        let replies = feed_cmd(&mut t, cmd, 0);
        let (wire, _) = match replies.into_iter().next().unwrap().reply {
            r @ Reply::ReadData { .. } => t.emit(r, &cost()),
            _ => panic!(),
        };
        assert_eq!(wire.len(), 4, "3 data PDUs + completion");
    }

    #[test]
    fn write_roundtrips_to_device() {
        let mut t = target(false);
        let data = vec![0x42u8; 5000];
        let cmd = encode_capsule_cmd(3, IoOpcode::Write, 8192, 5000, Some(&data));
        let replies = feed_cmd(&mut t, cmd, 0);
        match &replies[0].reply {
            Reply::WriteAck { cid, status } => {
                assert_eq!((*cid, *status), (3, 0));
            }
            _ => panic!("expected ack"),
        }
        let (read_back, _) = t.device_mut().read(SimTime::ZERO, 8192, 5000);
        assert_eq!(read_back.to_vec(), data);
        assert_eq!(t.stats().crc_software, 1);
    }

    #[test]
    fn corrupt_write_digest_fails() {
        let mut t = target(false);
        let data = vec![1u8; 100];
        let mut cmd = encode_capsule_cmd(4, IoOpcode::Write, 0, 100, Some(&data));
        let n = cmd.len();
        cmd[n - 1] ^= 0xFF;
        let replies = feed_cmd(&mut t, cmd, 0);
        match &replies[0].reply {
            Reply::WriteAck { status, .. } => assert_eq!(*status, 1),
            _ => panic!(),
        }
        assert_eq!(t.stats().crc_failures, 1);
    }

    #[test]
    fn tx_offload_emits_dummy_digests() {
        let mut t = target(true);
        let cmd = encode_capsule_cmd(5, IoOpcode::Read, 0, 1000, None);
        let replies = feed_cmd(&mut t, cmd, 0);
        let (wire, cycles_off) = match replies.into_iter().next().unwrap().reply {
            r @ Reply::ReadData { .. } => t.emit(r, &cost()),
            _ => panic!(),
        };
        let data_pdu = wire[0].as_real().unwrap();
        assert_eq!(&data_pdu[data_pdu.len() - 4..], &[0, 0, 0, 0]);
        assert!(cycles_off < cost().crc_cycles(1000) + cost().per_req_nvme);
    }
}

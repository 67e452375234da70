//! Modeled NVMe framing ≡ functional framing.
//!
//! A modeled-mode frame carries the PDU's real encoded header, so the
//! software parser and the NIC receive flow must read the same PDUs — kinds,
//! boundaries, CIDs, SQE / data header / CQE — from synthetic payloads plus
//! the frame index as from the real bytes, at any packet cut — including
//! every cut inside every PDU header, so the NIC flow assembles each PSH
//! across two packets at each split.

use ano_core::msg::{DataRef, FlowMode, FrameIndex};
use ano_core::rx::RxEngine;
use ano_nvme::block::{BlockDevice, BlockDeviceConfig};
use ano_nvme::host::{NvmeHostConfig, NvmeTcpHost};
use ano_nvme::offload::{NvmeRxFlow, RrEntry, RrMap};
use ano_nvme::parser::{ParsedPdu, PduParser, StreamChunk};
use ano_nvme::pdu::{
    capsule_cmd_header, capsule_resp_header, data_pdu_header, encode_capsule_cmd,
    encode_capsule_resp, encode_data_pdu, IoOpcode, PduType,
};
use ano_nvme::target::{NvmeTargetConfig, NvmeTcpTarget, Reply};
use ano_sim::cost::CostModel;
use ano_sim::payload::{DataMode, Payload};
use ano_sim::time::SimTime;
use ano_tcp::segment::SkbFlags;

const READ_LEN: usize = 9000;
const MSS: [usize; 5] = [1, 7, 100, 1448, 9000];

/// One mixed PDU stream — a read command, a write with inline data, the
/// read's C2HData split across two PDUs, an ok and an error response — as
/// real bytes, the frame index those PDUs' encoded headers fill, and each
/// header's `(offset, length)`.
fn stream() -> (Vec<u8>, FrameIndex, Vec<(usize, usize)>) {
    let read = read_data();
    let write = vec![0x5Au8; 3000];
    let pdus: [(Vec<u8>, Box<[u8]>); 6] = [
        (
            encode_capsule_cmd(1, IoOpcode::Read, 4096, READ_LEN as u32, None),
            Box::new(capsule_cmd_header(1, IoOpcode::Read, 4096, READ_LEN as u32, 0)),
        ),
        (
            encode_capsule_cmd(2, IoOpcode::Write, 8192, 3000, Some(&write)),
            Box::new(capsule_cmd_header(2, IoOpcode::Write, 8192, 3000, 3000)),
        ),
        (
            encode_data_pdu(PduType::C2HData, 1, 0, &read[..4096], false),
            Box::new(data_pdu_header(PduType::C2HData, 1, 0, 4096)),
        ),
        (
            encode_data_pdu(PduType::C2HData, 1, 4096, &read[4096..], false),
            Box::new(data_pdu_header(PduType::C2HData, 1, 4096, (READ_LEN - 4096) as u32)),
        ),
        (encode_capsule_resp(1, 0), Box::new(capsule_resp_header(1, 0))),
        (encode_capsule_resp(2, 1), Box::new(capsule_resp_header(2, 1))),
    ];
    let frames = FrameIndex::new();
    let mut wire = Vec::new();
    let mut headers = Vec::new();
    for (bytes, header) in pdus {
        assert_eq!(&bytes[..header.len()], &header[..], "the registered header is the wire header");
        headers.push((wire.len(), header.len()));
        frames.push_full(wire.len() as u64, bytes.len() as u32, Some(header));
        wire.extend_from_slice(&bytes);
    }
    (wire, frames, headers)
}

/// The bytes the read returns.
fn read_data() -> Vec<u8> {
    (0..READ_LEN).map(|i| (i % 241) as u8).collect()
}

/// Labelled packet-cut schedules (ascending cut offsets): packets of each
/// `MSS` size, then one cut at every byte boundary inside every header.
fn schedules(wire: &[u8], headers: &[(usize, usize)]) -> Vec<(String, Vec<usize>)> {
    let uniform = MSS.iter().map(|&mss| (format!("mss {mss}"), (mss..wire.len()).step_by(mss).collect()));
    let splits = headers
        .iter()
        .flat_map(|&(start, len)| (start + 1..start + len).map(|cut| (format!("cut at {cut}"), vec![cut])));
    uniform.chain(splits).collect()
}

/// `(offset, payload)` packets of `wire` cut at `cuts`, real or synthetic.
fn packets(wire: &[u8], cuts: &[usize], real: bool) -> Vec<(u64, Payload)> {
    let bounds: Vec<usize> = std::iter::once(0).chain(cuts.iter().copied()).chain([wire.len()]).collect();
    bounds
        .windows(2)
        .map(|b| {
            let c = &wire[b[0]..b[1]];
            let p = if real { Payload::real(c.to_vec()) } else { Payload::synthetic(c.len()) };
            (b[0] as u64, p)
        })
        .collect()
}

fn parse(mode: FlowMode, wire: &[u8], cuts: &[usize]) -> Vec<ParsedPdu> {
    let real = matches!(mode, FlowMode::Functional);
    let mut parser = PduParser::new(mode);
    let mut pdus = Vec::new();
    for (offset, payload) in packets(wire, cuts, real) {
        pdus.extend(parser.on_chunk(StreamChunk {
            offset,
            payload,
            flags: SkbFlags::default(),
        }));
    }
    assert_eq!(parser.errors, 0);
    pdus
}

#[test]
fn parser_reads_the_same_pdus_in_both_modes() {
    let (wire, frames, headers) = stream();
    for (label, cuts) in schedules(&wire, &headers) {
        let real = parse(FlowMode::Functional, &wire, &cuts);
        let modeled = parse(FlowMode::Modeled(frames.clone()), &wire, &cuts);
        assert_eq!(real.len(), 6, "{label}");
        assert_eq!(modeled.len(), 6, "{label}");
        for (r, m) in real.iter().zip(&modeled) {
            let view = |p: &ParsedPdu| (p.kind, p.start, p.total, p.cid(), p.psh, p.data_len());
            assert_eq!(view(r), view(m), "{label}, PDU at {}", r.start);
        }
        let psh = |i: usize| modeled[i].psh;
        assert_eq!(psh(0).sqe.map(|s| (s.op, s.offset, s.len)), Some((IoOpcode::Read, 4096, 9000)));
        assert_eq!(psh(1).sqe.map(|s| s.cid), Some(2));
        assert_eq!(psh(3).ext.map(|e| (e.cid, e.datao, e.datal)), Some((1, 4096, 4904)));
        assert_eq!(psh(5).cqe, Some((2, 1)), "error response");
        assert_eq!(modeled[1].data_len(), 3000, "write inline data");
    }
}

/// Per-packet `(crc_ok, placed)` of an `NvmeRxFlow` with placement on.
/// Functional placement must land every read byte where its PSH says.
fn nic_flags(mode: FlowMode, wire: &[u8], cuts: &[usize], registered: bool) -> Vec<(bool, bool)> {
    let real = matches!(mode, FlowMode::Functional);
    let rr = RrMap::new();
    let buf = (registered && real).then(|| std::rc::Rc::new(std::cell::RefCell::new(vec![0u8; READ_LEN])));
    if registered {
        rr.add(1, RrEntry { buf: buf.clone(), len: READ_LEN as u32 });
    }
    let mut e = RxEngine::new(Box::new(NvmeRxFlow::new(mode, rr, true)), 0, 0);
    let flags = packets(wire, cuts, real)
        .into_iter()
        .map(|(seq, p)| {
            let flags = match p.as_real() {
                Some(b) => e.on_packet(seq, &mut DataRef::Real(&mut b.to_vec())),
                None => e.on_packet(seq, &mut DataRef::Modeled(p.len())),
            };
            (flags.nvme_crc_ok, flags.nvme_placed)
        })
        .collect();
    if let Some(buf) = buf {
        assert!(*buf.borrow() == read_data(), "read placed at each PSH's offset");
    }
    flags
}

#[test]
fn nic_rx_flow_flags_match_in_both_modes() {
    let (wire, frames, headers) = stream();
    for (label, cuts) in schedules(&wire, &headers) {
        for registered in [true, false] {
            let real = nic_flags(FlowMode::Functional, &wire, &cuts, registered);
            let modeled = nic_flags(FlowMode::Modeled(frames.clone()), &wire, &cuts, registered);
            assert_eq!(real, modeled, "{label}, registered {registered}");
            assert!(real.iter().all(|&(crc, _)| crc), "clean stream: every digest verifies ({label})");
            assert_eq!(
                real.iter().all(|&(_, placed)| placed),
                registered,
                "C2HData placed iff its CID is registered ({label})"
            );
        }
    }
}

/// The modeled host and target register exactly the header bytes their
/// functional twins put on the wire.
#[test]
fn endpoints_register_their_wire_headers() {
    let cost = CostModel::calibrated();
    let header_at = |frames: &FrameIndex, off: u64| {
        FlowMode::Modeled(frames.clone()).msg_at(off, None, |h| Some(h.to_vec()), |_| None)
    };
    let host = |mode| {
        let cfg = NvmeHostConfig { mode, copy_offload: true, crc_offload: false };
        NvmeTcpHost::new(cfg, RrMap::new(), PduParser::new(FlowMode::Functional))
    };
    let (mut real, mut modeled) = (host(DataMode::Functional), host(DataMode::Modeled));
    let read = real.submit_read(7, 4096, 65536, &cost).0;
    modeled.submit_read(7, 4096, 65536, &cost);
    let write = real.submit_write(8, 0, &Payload::real(vec![1; 500]), &cost).0;
    modeled.submit_write(8, 0, &Payload::synthetic(500), &cost);
    let real_wire = [read.to_vec(), write.to_vec()].concat();
    for (off, hlen) in [(0, 72), (read.len() as u64, 72)] {
        let at = off as usize;
        assert_eq!(header_at(&modeled.tx_frames(), off).as_deref(), Some(&real_wire[at..at + hlen]));
    }

    let target = |mode| {
        let cfg = NvmeTargetConfig { mode, max_data_pdu: 4096, ..NvmeTargetConfig::default() };
        let device = BlockDevice::new(BlockDeviceConfig { mode, ..BlockDeviceConfig::default() });
        NvmeTcpTarget::new(cfg, device, PduParser::new(FlowMode::Functional))
    };
    let (mut real, mut modeled) = (target(DataMode::Functional), target(DataMode::Modeled));
    let read_reply = |t: &mut NvmeTcpTarget| {
        let (data, _) = t.device_mut().read(SimTime::ZERO, 0, 6000);
        t.emit(Reply::ReadData { cid: 3, data }, &cost).0
    };
    let real_pdus = read_reply(&mut real);
    read_reply(&mut modeled);
    let (mut off, frames) = (0u64, modeled.tx_frames());
    for pdu in &real_pdus {
        let bytes = pdu.to_vec();
        let header = header_at(&frames, off).expect("registered header");
        assert_eq!(&bytes[..header.len()], &header[..], "PDU at {off}");
        off += bytes.len() as u64;
    }
    assert_eq!(real_pdus.len(), 3, "two data PDUs and a response");
}

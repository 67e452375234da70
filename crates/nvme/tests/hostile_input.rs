//! Hostile-input properties for the NVMe/TCP receive path: the host PDU
//! parser ([`PduParser`]) and the NIC offload ([`NvmeRxFlow`] inside an
//! [`RxEngine`]) read wire bytes that a peer, a middlebox or the §5.1
//! magic-pattern search over arbitrary payloads can make anything.
//!
//! Every case starts from a valid mixed stream — read and write command
//! capsules, C2H/H2C data PDUs and response capsules — with false common
//! headers planted in the data sections, and cuts it into packets of 1 byte
//! to one MSS. The properties:
//!
//! * nothing panics (overflow checks are on in the debug profile that runs
//!   these);
//! * the unmutated stream yields the same PDUs under every cut, through the
//!   software parser alone and through the NIC first;
//! * after 1–4 byte mutations, no data section is accepted that the sender
//!   did not send: mutated data fails its CRC32C digest or breaks the
//!   framing, and the parser reports a framing error.
//!
//! A data section counts as accepted when the host would take it: the NIC
//! verified every packet of it (`nvme_crc_ok`), or its wire digest matches.
//! Header digests are off in this binding, so a mutated CID or offset can
//! misdirect genuine data; that is a documented simplification, not a
//! violation.
//!
//! The `#[ignore]`d twins run the same properties over many more cases;
//! `scripts/ci.sh` runs them in the debug profile.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use ano_core::msg::{DataRef, EngineEvent, FlowMode};
use ano_core::rx::RxEngine;
use ano_crypto::crc32c::crc32c;
use ano_nvme::offload::{NvmeRxFlow, RrEntry, RrMap};
use ano_nvme::parser::{ParsedPdu, PduParser, StreamChunk};
use ano_nvme::pdu::{
    capsule_resp_header, data_pdu_header, encode_capsule_cmd, encode_capsule_resp, encode_data_pdu, IoOpcode,
    PduType, CH_LEN,
};
use ano_sim::payload::Payload;
use ano_sim::rng::SimRng;
use ano_tcp::segment::SkbFlags;
use ano_testkit::gen::{any_u8, u64_in, vec_of};
use ano_testkit::stream::{cut_sizes, packets};

const MSS: usize = 1448;

/// Values a mutated header byte is set to: PDU types, flag bits, the
/// per-type header lengths, and the extremes.
const INTERESTING: [u8; 11] = [0x00, 0x01, 0x02, 0x03, 0x05, 0x07, 0x18, 0x48, 0x7F, 0x80, 0xFF];

/// A valid stream and where its PDUs start.
struct Sent {
    wire: Vec<u8>,
    starts: Vec<usize>,
    /// Every data section the sender sent.
    data: BTreeSet<Vec<u8>>,
    /// C2H transfers the host registered buffers for: `(cid, len)`.
    reads: Vec<(u16, u32)>,
}

/// Random data with false common headers planted in it.
fn data(rng: &mut SimRng) -> Vec<u8> {
    let max = if rng.chance(0.2) { 6000 } else { 1500 };
    let len = 1 + rng.index(max);
    let mut d = vec![0u8; len];
    rng.fill_bytes(&mut d);
    for _ in 0..rng.index(3) {
        let fake = if rng.chance(0.5) {
            capsule_resp_header(0x77, 0).to_vec()
        } else {
            data_pdu_header(PduType::C2HData, 0x77, 0, rng.index(4096) as u32).to_vec()
        };
        if len > CH_LEN {
            let at = rng.index(len - CH_LEN);
            d[at..at + CH_LEN].copy_from_slice(&fake[..CH_LEN]);
        }
    }
    d
}

/// A valid stream of 4–12 PDUs of every kind the data path carries.
fn stream(seed: u64) -> Sent {
    let mut rng = SimRng::seed(seed);
    let mut sent = Sent {
        wire: Vec::new(),
        starts: Vec::new(),
        data: BTreeSet::new(),
        reads: Vec::new(),
    };
    for i in 0..4 + rng.index(9) {
        let cid = i as u16 + 1;
        let offset = rng.index(1 << 20) as u64 * 512;
        let pdu = match rng.index(5) {
            0 => encode_capsule_cmd(cid, IoOpcode::Read, offset, 4096, None),
            1 => {
                let d = data(&mut rng);
                let pdu = encode_capsule_cmd(cid, IoOpcode::Write, offset, d.len() as u32, Some(&d));
                sent.data.insert(d);
                pdu
            }
            k @ (2 | 3) => {
                let d = data(&mut rng);
                let kind = if k == 2 { PduType::C2HData } else { PduType::H2CData };
                let pdu = encode_data_pdu(kind, cid, 0, &d, false);
                if kind == PduType::C2HData {
                    sent.reads.push((cid, d.len() as u32));
                }
                sent.data.insert(d);
                pdu
            }
            _ => encode_capsule_resp(cid, 0),
        };
        sent.starts.push(sent.wire.len());
        sent.wire.extend_from_slice(&pdu);
    }
    sent
}

/// Applies mutations `(selector, value)`: an even selector XORs a random
/// byte of the stream with `value`; an odd one sets a byte of a random
/// PDU's common header to an [`INTERESTING`] value.
fn mutate(sent: &Sent, muts: &[(u64, u8)]) -> Vec<u8> {
    let mut wire = sent.wire.clone();
    for &(sel, v) in muts {
        if sel & 1 == 0 {
            let at = (sel >> 1) as usize % wire.len();
            wire[at] ^= v.max(1);
        } else {
            let start = sent.starts[(sel >> 8) as usize % sent.starts.len()];
            let at = start + (sel >> 1) as usize % CH_LEN;
            wire[at] = INTERESTING[v as usize % INTERESTING.len()];
        }
    }
    wire
}

/// The parser's output: PDUs, framing errors, packets the NIC offloaded
/// and packets in all.
struct Run {
    pdus: Vec<ParsedPdu>,
    errors: u64,
    offloaded: u64,
    pkts: u64,
}

/// The host parser alone, on packets the NIC did not touch.
fn software(wire: &[u8], sizes: &[usize]) -> Run {
    let mut sw = PduParser::new(FlowMode::Functional);
    let mut pdus = Vec::new();
    for (offset, bytes) in packets(wire, sizes) {
        pdus.extend(sw.on_chunk(StreamChunk {
            offset,
            payload: Payload::real(bytes.to_vec()),
            flags: SkbFlags::default(),
        }));
    }
    Run { pdus, errors: sw.errors, offloaded: 0, pkts: sizes.len() as u64 }
}

/// The NIC's receive offload first (CRC + placement into the registered
/// read buffers, resync requests answered by the parser), then the parser.
fn offloaded(sent: &Sent, wire: &[u8], sizes: &[usize]) -> Run {
    let rr = RrMap::new();
    for &(cid, len) in &sent.reads {
        let buf = Some(Rc::new(RefCell::new(vec![0u8; len as usize])));
        rr.add(cid, RrEntry { buf, len });
    }
    let mut nic = RxEngine::new(Box::new(NvmeRxFlow::new(FlowMode::Functional, rr, true)), 0, 0);
    let mut sw = PduParser::new(FlowMode::Functional);
    let mut pdus = Vec::new();
    for (offset, bytes) in packets(wire, sizes) {
        let mut pkt = bytes.to_vec();
        let flags = nic.on_packet(offset, &mut DataRef::Real(&mut pkt));
        for EngineEvent::ResyncRequest { tcpsn, .. } in nic.take_events() {
            sw.resync_mut().request(tcpsn);
        }
        pdus.extend(sw.on_chunk(StreamChunk { offset, payload: Payload::real(pkt), flags }));
        let answers: Vec<_> = sw.resync_mut().take().collect();
        for (tcpsn, ok, msg_index) in answers {
            nic.on_resync_response(0, tcpsn, ok, msg_index);
        }
    }
    let s = nic.stats();
    Run { pdus, errors: sw.errors, offloaded: s.pkts_offloaded, pkts: s.pkts }
}

/// What the host would act on, flags aside: one line per PDU.
fn render(pdus: &[ParsedPdu]) -> Vec<String> {
    pdus.iter()
        .map(|p| format!("{} {:?} {} {:?} {:?} {:?}", p.start, p.kind, p.total, p.cid(), p.ddgst, p.data_bytes().to_vec()))
        .collect()
}

/// Asserts that every data section the host would accept was sent.
fn assert_sent_only(sent: &Sent, run: &Run, what: &str) {
    for p in run.pdus.iter().filter(|p| p.data_len() > 0) {
        let bytes = p.data_bytes().to_vec();
        let accepted = p.all_crc_ok || p.ddgst == Some(crc32c(&bytes));
        assert!(
            !accepted || sent.data.contains(&bytes),
            "{what}: accepted {} data bytes of a {:?} at {} the sender never sent",
            bytes.len(),
            p.kind,
            p.start
        );
    }
}

/// The unmutated stream, under two cut schedules and as one chunk.
fn check_cut_invariance(seed: u64, cut_a: u64, cut_b: u64) {
    let sent = stream(seed);
    let whole = software(&sent.wire, &[sent.wire.len()]);
    assert_eq!(whole.errors, 0);
    assert_eq!(whole.pdus.len(), sent.starts.len());
    let want = render(&whole.pdus);
    for cut in [cut_a, cut_b] {
        let sizes = cut_sizes(cut, sent.wire.len(), MSS);
        let sw = software(&sent.wire, &sizes);
        assert_eq!(render(&sw.pdus), want, "software parser, cut seed {cut}");
        let hw = offloaded(&sent, &sent.wire, &sizes);
        assert_eq!(render(&hw.pdus), want, "NIC then parser, cut seed {cut}");
        assert_eq!(hw.errors, 0);
        assert_eq!(hw.offloaded, hw.pkts, "an in-order valid stream is offloaded whole");
        assert!(hw.pdus.iter().all(|p| p.all_crc_ok), "the NIC verified every digest");
    }
}

/// A mutated stream, through both receive paths.
fn check_hostile(seed: u64, muts: &[(u64, u8)], cut: u64) {
    let sent = stream(seed);
    check_wire(&sent, &mutate(&sent, muts), cut);
}

/// `wire`, a damaged copy of `sent`'s, through both receive paths.
fn check_wire(sent: &Sent, wire: &[u8], cut: u64) {
    let sizes = cut_sizes(cut, wire.len(), MSS);
    assert_sent_only(sent, &software(wire, &sizes), "software parser");
    assert_sent_only(sent, &offloaded(sent, wire, &sizes), "NIC then parser");
}

ano_testkit::prop_test! {
    cases = 48;
    fn unmutated_streams_parse_identically_under_every_cut(
        seed in u64_in(0..u64::MAX), cut_a in u64_in(0..u64::MAX), cut_b in u64_in(0..u64::MAX)
    ) {
        check_cut_invariance(seed, cut_a, cut_b);
    }
}

ano_testkit::prop_test! {
    cases = 256;
    fn mutated_streams_deliver_only_sent_data(
        seed in u64_in(0..u64::MAX), muts in vec_of((u64_in(0..u64::MAX), any_u8()), 1..5), cut in u64_in(0..u64::MAX)
    ) {
        check_hostile(seed, &muts, cut);
    }
}

/// Every byte of every common header of one stream, set to every
/// [`INTERESTING`] value in turn, through both receive paths.
#[test]
fn every_common_header_byte_takes_every_interesting_value() {
    let sent = stream(3);
    for pdu in 0..sent.starts.len() as u64 {
        for byte in 0..CH_LEN as u64 {
            for v in 0..INTERESTING.len() as u8 {
                check_hostile(3, &[(pdu << 8 | byte << 1 | 1, v)], 11);
            }
        }
    }
}

/// Every 32-bit word of every PDU-specific header (command identifiers,
/// offsets, lengths) of eight streams, set to 0 and to `u32::MAX`.
#[test]
fn every_psh_word_takes_its_extremes() {
    for seed in 0..8 {
        let sent = stream(seed);
        for &start in &sent.starts {
            let hlen = sent.wire[start + 2] as usize;
            for word in (start + CH_LEN..start + hlen).step_by(4) {
                for v in [0u8, 0xFF] {
                    let mut wire = sent.wire.clone();
                    wire[word..word + 4].fill(v);
                    check_wire(&sent, &wire, seed);
                }
            }
        }
    }
}

ano_testkit::prop_test! {
    cases = 20_000;
    #[ignore = "large-case tier; scripts/ci.sh runs it in the debug profile"]
    fn mutated_streams_deliver_only_sent_data_large(
        seed in u64_in(0..u64::MAX), muts in vec_of((u64_in(0..u64::MAX), any_u8()), 1..5), cut in u64_in(0..u64::MAX)
    ) {
        check_hostile(seed, &muts, cut);
    }
}

ano_testkit::prop_test! {
    cases = 2_000;
    #[ignore = "large-case tier; scripts/ci.sh runs it in the debug profile"]
    fn unmutated_streams_parse_identically_under_every_cut_large(
        seed in u64_in(0..u64::MAX), cut_a in u64_in(0..u64::MAX), cut_b in u64_in(0..u64::MAX)
    ) {
        check_cut_invariance(seed, cut_a, cut_b);
    }
}

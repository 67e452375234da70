//! Hostile-input properties for the kTLS receive path: the software record
//! layer ([`KtlsRx`]) and the NIC offload ([`TlsRxFlow`] inside an
//! [`RxEngine`]) read wire bytes that a peer, a middlebox or the §5.2
//! magic-pattern search over ciphertext can make anything.
//!
//! Every case starts from a valid stream of TLS records whose ciphertext
//! carries planted false record headers (the plaintext is chosen against
//! the known keystream), and cuts it into packets of 1 byte to one MSS.
//! The properties:
//!
//! * nothing panics (overflow checks are on in the debug profile that runs
//!   these);
//! * the unmutated stream yields the same plaintext under every cut,
//!   through the software record layer alone and through the NIC first;
//! * after 1–4 byte mutations, every plaintext byte delivered is the byte
//!   the sender sent at that plaintext offset: mutated records end in an
//!   authentication alert, never in substituted plaintext.
//!
//! The `#[ignore]`d twins run the same properties over many more cases;
//! `scripts/ci.sh` runs them in the debug profile.

use ano_core::msg::{DataRef, EngineEvent, FlowMode};
use ano_core::rx::RxEngine;
use ano_sim::cost::CostModel;
use ano_sim::payload::{DataMode, Payload};
use ano_sim::rng::SimRng;
use ano_tcp::segment::{RxChunk, SkbFlags};
use ano_testkit::gen::{any_u8, u64_in, vec_of};
use ano_testkit::stream::{cut_sizes, packets};
use ano_tls::ktls::KtlsRx;
use ano_tls::offload::TlsRxFlow;
use ano_tls::record::{RecordHeader, HEADER_LEN, TAG_LEN};
use ano_tls::session::TlsSession;

const MSS: usize = 1448;

/// Values a mutated header byte is set to: content types, the version
/// bytes, length bytes around the limits, and the extremes.
const INTERESTING: [u8; 10] = [0x00, 0x03, 0x14, 0x17, 0x18, 0x40, 0x41, 0x7F, 0x80, 0xFF];

fn session() -> TlsSession {
    TlsSession::from_seed(77)
}

/// A valid record stream, where its records start, and its plaintext.
struct Sent {
    wire: Vec<u8>,
    starts: Vec<usize>,
    plain: Vec<u8>,
}

/// 2–10 records of 1 to ~6000 plaintext bytes. Some ciphertexts carry a
/// valid-looking record header: GCM is a stream cipher, so sealing zeros
/// yields the keystream, and plaintext `fake ^ keystream` puts `fake` on
/// the wire.
fn stream(seed: u64) -> Sent {
    let mut rng = SimRng::seed(seed);
    let s = session();
    let mut sent = Sent { wire: Vec::new(), starts: Vec::new(), plain: Vec::new() };
    for seq in 0..2 + rng.index(9) as u64 {
        let max = if rng.chance(0.2) { 6000 } else { 1500 };
        let len = 1 + rng.index(max);
        let mut plain = vec![0u8; len];
        rng.fill_bytes(&mut plain);
        let keystream = s.seal_record(seq, &vec![0u8; len]);
        for _ in 0..rng.index(3) {
            if len > HEADER_LEN {
                let fake = RecordHeader::for_plaintext(rng.index(4096)).encode();
                let at = rng.index(len - HEADER_LEN);
                for (k, b) in fake.iter().enumerate() {
                    plain[at + k] = b ^ keystream[HEADER_LEN + at + k];
                }
            }
        }
        sent.starts.push(sent.wire.len());
        sent.wire.extend_from_slice(&s.seal_record(seq, &plain));
        sent.plain.extend_from_slice(&plain);
    }
    sent
}

/// Applies mutations `(selector, value)`: an even selector XORs a random
/// byte of the stream with `value`; an odd one sets a byte of a random
/// record header to an [`INTERESTING`] value.
fn mutate(sent: &Sent, muts: &[(u64, u8)]) -> Vec<u8> {
    let mut wire = sent.wire.clone();
    for &(sel, v) in muts {
        if sel & 1 == 0 {
            let at = (sel >> 1) as usize % wire.len();
            wire[at] ^= v.max(1);
        } else {
            let start = sent.starts[(sel >> 8) as usize % sent.starts.len()];
            let at = start + (sel >> 1) as usize % HEADER_LEN;
            wire[at] = INTERESTING[v as usize % INTERESTING.len()];
        }
    }
    wire
}

/// The record layer's output: plaintext chunks, alerts, packets the NIC
/// offloaded and packets in all.
struct Run {
    plain: Vec<RxChunk>,
    alerts: u64,
    offloaded: u64,
    pkts: u64,
}

/// The software record layer alone, on packets the NIC did not touch.
fn software(wire: &[u8], sizes: &[usize]) -> Run {
    let cost = CostModel::calibrated();
    let mut rx = KtlsRx::new(session(), DataMode::Functional, None);
    let mut plain = Vec::new();
    for (offset, bytes) in packets(wire, sizes) {
        let chunk = RxChunk { offset, payload: Payload::real(bytes.to_vec()), flags: SkbFlags::default() };
        rx.on_chunks_into([chunk], &cost, &mut plain);
    }
    Run { plain, alerts: rx.stats().alerts, offloaded: 0, pkts: sizes.len() as u64 }
}

/// The NIC's receive offload first (decrypt + authenticate in place,
/// resync requests answered by the record layer), then the record layer.
fn offloaded(wire: &[u8], sizes: &[usize]) -> Run {
    let cost = CostModel::calibrated();
    let mut nic = RxEngine::new(Box::new(TlsRxFlow::new(session(), FlowMode::Functional)), 0, 0);
    let mut rx = KtlsRx::new(session(), DataMode::Functional, None);
    let mut plain = Vec::new();
    for (offset, bytes) in packets(wire, sizes) {
        let mut pkt = bytes.to_vec();
        let flags = nic.on_packet(offset, &mut DataRef::Real(&mut pkt));
        for EngineEvent::ResyncRequest { tcpsn, .. } in nic.take_events() {
            rx.resync_mut().request(tcpsn);
        }
        rx.on_chunks_into([RxChunk { offset, payload: Payload::real(pkt), flags }], &cost, &mut plain);
        let answers: Vec<_> = rx.resync_mut().take().collect();
        for (tcpsn, ok, msg_index) in answers {
            nic.on_resync_response(0, tcpsn, ok, msg_index);
        }
    }
    let s = nic.stats();
    Run { plain, alerts: rx.stats().alerts, offloaded: s.pkts_offloaded, pkts: s.pkts }
}

/// Asserts that every delivered plaintext byte is the sender's byte at its
/// plaintext offset.
fn assert_sent_only(sent: &Sent, run: &Run, what: &str) {
    for c in &run.plain {
        let bytes = c.payload.to_vec();
        let at = c.offset as usize;
        assert!(
            sent.plain.get(at..at + bytes.len()) == Some(&bytes[..]),
            "{what}: delivered {} plaintext bytes at {at} the sender never sent there",
            bytes.len()
        );
    }
}

/// The unmutated stream, under two cut schedules and as one chunk.
fn check_cut_invariance(seed: u64, cut_a: u64, cut_b: u64) {
    let sent = stream(seed);
    let whole = software(&sent.wire, &[sent.wire.len()]);
    let got: Vec<u8> = whole.plain.iter().flat_map(|c| c.payload.to_vec()).collect();
    assert_eq!(got, sent.plain);
    assert_eq!(whole.alerts, 0);
    for cut in [cut_a, cut_b] {
        let sizes = cut_sizes(cut, sent.wire.len(), MSS);
        for (what, run) in [("software", software(&sent.wire, &sizes)), ("NIC", offloaded(&sent.wire, &sizes))] {
            let got: Vec<u8> = run.plain.iter().flat_map(|c| c.payload.to_vec()).collect();
            assert!(got == sent.plain, "{what} path, cut seed {cut}: plaintext differs");
            assert_eq!(run.alerts, 0, "{what} path, cut seed {cut}");
            assert_sent_only(&sent, &run, what);
        }
        let hw = offloaded(&sent.wire, &sizes);
        assert_eq!(hw.offloaded, hw.pkts, "an in-order valid stream is offloaded whole");
    }
}

/// A mutated stream, through both receive paths; returns both runs.
fn check_hostile(seed: u64, muts: &[(u64, u8)], cut: u64) -> [(&'static str, Run); 2] {
    let sent = stream(seed);
    let wire = mutate(&sent, muts);
    let sizes = cut_sizes(cut, wire.len(), MSS);
    let runs = [("software", software(&wire, &sizes)), ("NIC then software", offloaded(&wire, &sizes))];
    for (what, run) in &runs {
        assert_sent_only(&sent, run, what);
    }
    runs
}

ano_testkit::prop_test! {
    cases = 24;
    fn unmutated_streams_decrypt_identically_under_every_cut(
        seed in u64_in(0..u64::MAX), cut_a in u64_in(0..u64::MAX), cut_b in u64_in(0..u64::MAX)
    ) {
        check_cut_invariance(seed, cut_a, cut_b);
    }
}

ano_testkit::prop_test! {
    cases = 64;
    fn mutated_streams_deliver_only_sent_plaintext(
        seed in u64_in(0..u64::MAX), muts in vec_of((u64_in(0..u64::MAX), any_u8()), 1..5), cut in u64_in(0..u64::MAX)
    ) {
        check_hostile(seed, &muts, cut);
    }
}

/// Every byte of every record header of one stream, set to every
/// [`INTERESTING`] value in turn, through both receive paths. A record
/// whose header differs from the sent one delivers nothing: the header is
/// the record's AAD, so even a change to another valid content type fails
/// authentication.
#[test]
fn every_record_header_byte_takes_every_interesting_value() {
    let sent = stream(5);
    for (record, &start) in sent.starts.iter().enumerate() {
        let end = sent.starts.get(record + 1).copied().unwrap_or(sent.wire.len());
        let overhead = (HEADER_LEN + TAG_LEN) as u64;
        let plain_from = start as u64 - record as u64 * overhead;
        let plain_to = end as u64 - (record as u64 + 1) * overhead;
        for byte in 0..HEADER_LEN {
            for v in 0..INTERESTING.len() as u8 {
                let sel = (record as u64) << 8 | (byte as u64) << 1 | 1;
                let runs = check_hostile(5, &[(sel, v)], 13);
                if mutate(&sent, &[(sel, v)]) == sent.wire {
                    continue;
                }
                for (what, run) in &runs {
                    assert!(
                        run.plain.iter().all(|c| c.offset + c.payload.len() as u64 <= plain_from
                            || c.offset >= plain_to),
                        "{what}: record {record} delivered plaintext under a mutated header \
                         (selector {sel:#x}, value {:#04x})",
                        INTERESTING[v as usize]
                    );
                }
            }
        }
    }
}

ano_testkit::prop_test! {
    cases = 2_000;
    #[ignore = "large-case tier; scripts/ci.sh runs it in the debug profile"]
    fn mutated_streams_deliver_only_sent_plaintext_large(
        seed in u64_in(0..u64::MAX), muts in vec_of((u64_in(0..u64::MAX), any_u8()), 1..5), cut in u64_in(0..u64::MAX)
    ) {
        check_hostile(seed, &muts, cut);
    }
}

ano_testkit::prop_test! {
    cases = 400;
    #[ignore = "large-case tier; scripts/ci.sh runs it in the debug profile"]
    fn unmutated_streams_decrypt_identically_under_every_cut_large(
        seed in u64_in(0..u64::MAX), cut_a in u64_in(0..u64::MAX), cut_b in u64_in(0..u64::MAX)
    ) {
        check_cut_invariance(seed, cut_a, cut_b);
    }
}

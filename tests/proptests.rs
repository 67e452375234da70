//! Property-based tests over the core invariants, on the in-repo
//! `ano-testkit` harness (hermetic `proptest` stand-in).
//!
//! Failures print a minimal shrunk counterexample plus an
//! `ANO_TESTKIT_SEED=<seed>` replay line. Counterexamples worth keeping are
//! committed as *named replay cases* (explicit inputs, `runner::replay`)
//! rather than opaque RNG-state hashes — see `tcp_regression_len_10137`
//! below, the port of the historical `proptest-regressions` entry.

use ano_testkit::gen::{any_bool, usize_in, vec_bool, vec_of, vec_u8};
use ano_testkit::prop_test;

use autonomous_nic_offloads::core::demo::{self, DemoFlow};
use autonomous_nic_offloads::core::msg::DataRef;
use autonomous_nic_offloads::core::rx::RxEngine;
use autonomous_nic_offloads::crypto::aes::Aes;
use autonomous_nic_offloads::crypto::crc32c::{combine, crc32c, Crc32c};
use autonomous_nic_offloads::crypto::gcm::{seal, Direction, GcmKey, GcmStream};
use autonomous_nic_offloads::tcp::conn::TcpEndpoint;
use autonomous_nic_offloads::tcp::segment::{FlowId, SkbFlags};
use autonomous_nic_offloads::tcp::TcpConfig;
use ano_sim::payload::Payload;
use ano_sim::time::SimTime;
use std::sync::Arc;

/// §3.2's precondition: incremental AES-GCM over arbitrary byte ranges
/// equals one-shot, in either direction and across an export → resume of
/// the dynamic state at any offset (checked as a reusable body so replay
/// cases can call it).
fn check_gcm_incremental(data: &[u8], splits: &[usize], resume_at: usize, dir: Direction) {
    let aes = Aes::new_128(&[0x11; 16]);
    let iv = [5u8; 12];
    let mut sealed = data.to_vec();
    let tag = seal(&aes, &iv, b"hdr", &mut sealed);
    let (input, want) = match dir {
        Direction::Encrypt => (data, &sealed[..]),
        Direction::Decrypt => (&sealed[..], data),
    };

    let n = data.len();
    let resume_at = resume_at % (n + 1);
    let mut cuts: Vec<usize> = splits.iter().map(|s| s % (n + 1)).collect();
    cuts.extend([0, n, resume_at]);
    cuts.sort_unstable();
    cuts.dedup();

    let key = Arc::new(GcmKey::new(aes));
    let resume = |s: &GcmStream| GcmStream::resume(Arc::clone(&key), &iv, &s.export());
    let mut buf = input.to_vec();
    let mut s = GcmStream::new(Arc::clone(&key), &iv, b"hdr", dir);
    for w in cuts.windows(2) {
        if w[0] == resume_at {
            s = resume(&s);
        }
        s.process(&mut buf[w[0]..w[1]]);
    }
    if resume_at == n {
        s = resume(&s);
    }
    assert_eq!(buf, want);
    assert_eq!(s.tag(), tag);
}

/// TCP delivers exactly the sent stream under an arbitrary loss schedule
/// (drops applied round-robin to the sender's data segments; recovery is
/// driven by SACK, fast retransmit, and the RTO with backoff).
fn check_tcp_exactly_once(len: usize, drops: &[bool]) {
    let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
    let mut a = TcpEndpoint::new(FlowId(1), TcpConfig::default());
    let mut b = TcpEndpoint::new(FlowId(2), TcpConfig::default());
    a.send(Payload::real(data.clone()));
    let mut t = 0u64;
    let mut drop_i = 0usize;
    let mut got = Vec::new();
    for iter in 0..40_000 {
        t += 50;
        let now = SimTime::from_micros(t);
        if let Some(d) = a.rto_deadline() {
            if d <= now {
                a.on_rto(now);
            }
        }
        let mut quiet = true;
        while let Some(seg) = a.poll_transmit(now) {
            quiet = false;
            // Arbitrary loss schedule, but let the tail drain so every
            // run terminates (a 100%-loss schedule proves nothing).
            let dropped = iter < 20_000 && !seg.payload.is_empty() && drops[drop_i % drops.len()];
            drop_i += 1;
            if !dropped {
                b.on_packet_wnd(
                    seg.seq,
                    seg.ack,
                    seg.wnd,
                    &seg.sack,
                    seg.payload,
                    SkbFlags::default(),
                    now,
                );
            }
        }
        for c in b.take_ready() {
            got.extend_from_slice(&c.payload.to_vec());
            b.consume(c.payload.len() as u64);
        }
        while let Some(seg) = b.poll_transmit(now) {
            quiet = false;
            a.on_packet_wnd(
                seg.seq,
                seg.ack,
                seg.wnd,
                &seg.sack,
                seg.payload,
                SkbFlags::default(),
                now,
            );
        }
        if quiet {
            if a.is_quiescent() && got.len() == data.len() {
                break;
            }
            // Nothing in flight to react to: jump the clock to the next
            // retransmission deadline (RTO backoff reaches seconds).
            if let Some(d) = a.rto_deadline() {
                t = t.max(d.as_nanos() / 1_000);
            }
        }
    }
    assert_eq!(got, data, "stream delivered exactly once, in order");
}

prop_test! {
    cases = 32;
    /// `short` cuts the message to `len % 64` bytes, so lengths 0..=63 —
    /// every mix of whole and partial 16-byte blocks — are drawn often.
    fn gcm_incremental_equals_oneshot(
        data in vec_u8(0..2048),
        short in any_bool(),
        splits in vec_of(usize_in(0..2048), 3..8),
        resume_at in usize_in(0..2048),
    ) {
        let data = if short { &data[..data.len() % 64] } else { &data[..] };
        for dir in [Direction::Encrypt, Direction::Decrypt] {
            check_gcm_incremental(data, &splits, resume_at, dir);
        }
    }
}

prop_test! {
    cases = 32;
    /// CRC32C combine over any split equals the whole-buffer digest.
    fn crc_combine_any_split(
        data in vec_u8(0..4096),
        cut in usize_in(0..4096),
    ) {
        let k = if data.is_empty() { 0 } else { cut % data.len() };
        let (a, b) = data.split_at(k);
        assert_eq!(combine(crc32c(a), crc32c(b), b.len() as u64), crc32c(&data));
        let mut inc = Crc32c::new();
        inc.update(a);
        inc.update(b);
        assert_eq!(inc.finalize(), crc32c(&data));
    }
}

prop_test! {
    cases = 24;
    fn tcp_exactly_once_under_loss(
        len in usize_in(1..30_000),
        drops in vec_bool(64),
    ) {
        check_tcp_exactly_once(len, &drops);
    }
}

prop_test! {
    cases = 24;
    /// The offload engine's transformation is packetization-invariant: any
    /// way of cutting an in-sequence stream into packets produces the same
    /// decrypted bytes and all-offloaded packets.
    fn rx_engine_packetization_invariant(
        bodies in vec_of(vec_u8(1..300), 1..6),
        mtu in usize_in(16..600),
    ) {
        let stream: Vec<u8> = bodies.iter().flat_map(|b| demo::encode_msg(b)).collect();
        let mut engine = RxEngine::new(Box::new(DemoFlow::rx_functional(demo::DEFAULT_KEY)), 0, 0);
        let mut out = Vec::new();
        let mut off = 0u64;
        for chunk in stream.chunks(mtu) {
            let mut buf = chunk.to_vec();
            let flags = engine.on_packet(off, &mut DataRef::Real(&mut buf));
            assert!(flags.tls_decrypted, "in-sequence packets all offload");
            out.extend_from_slice(&buf);
            off += chunk.len() as u64;
        }
        // Decrypted bodies appear in place.
        let mut pos = 0usize;
        for body in &bodies {
            let plain = &out[pos + demo::HDR_LEN..pos + demo::HDR_LEN + body.len()];
            assert_eq!(plain, &body[..]);
            pos += demo::HDR_LEN + body.len() + 1;
        }
    }
}

prop_test! {
    cases = 48;
    /// `Samples::percentile` with its sorted cache (invalidated on `add`)
    /// matches the naive clone-and-sort implementation across interleaved
    /// add/query sequences and arbitrary percentile points.
    fn samples_percentile_matches_naive(
        raw in vec_of(usize_in(0..1_000_000), 1..200),
        queries in vec_of(usize_in(0..101), 1..8),
    ) {
        let mut s = ano_sim::stats::Samples::new();
        let mut naive: Vec<f64> = Vec::new();
        let cut = raw.len() / 2;
        for &v in &raw[..cut] {
            s.add(v as f64);
            naive.push(v as f64);
        }
        let naive_pct = |vals: &[f64], p: f64| -> f64 {
            if vals.is_empty() {
                return 0.0;
            }
            let mut v = vals.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize]
        };
        for &q in &queries {
            let p = q as f64;
            assert_eq!(s.percentile(p), naive_pct(&naive, p), "p{p} before growth");
        }
        // Grow after querying: the cache must be invalidated, not stale.
        for &v in &raw[cut..] {
            s.add(v as f64);
            naive.push(v as f64);
        }
        for &q in &queries {
            let p = q as f64;
            assert_eq!(s.percentile(p), naive_pct(&naive, p), "p{p} after growth");
        }
    }
}

/// Named replay of the historical `proptest-regressions` entry
/// (`cc 8ed59643…`, shrunk to `len = 10137` with an alternating-drop
/// schedule): a tail-loss pattern that once wedged loss recovery.
#[test]
fn tcp_regression_len_10137() {
    let mut drops = [false; 64];
    for i in [2usize, 3, 5, 7, 9, 11, 13, 14] {
        drops[i] = true;
    }
    ano_testkit::replay("tcp_regression_len_10137", (10137usize, drops.to_vec()), |(len, drops)| {
        check_tcp_exactly_once(*len, drops);
    });
}

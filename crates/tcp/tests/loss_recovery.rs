//! Deterministic loss-recovery regression tests.
//!
//! These replay, with hardcoded inputs, the failure modes once found by the
//! property harness (`tests/proptests.rs` at the workspace root) so the
//! cases survive any change to the harness or its seeds:
//!
//! * the `len = 10137` alternating-drop schedule from the checked-in
//!   regression seed, which exposed pathological tail-loss recovery
//!   (back-to-back backed-off RTOs, no SACK-driven retransmission after a
//!   timeout, seconds to move 10 KB);
//! * an ACK arriving between `on_rto` and the next `poll_transmit`, which
//!   made the stale resend cursor underflow `cursor - snd_una` (debug
//!   panic; in release the wrapped value never passed the cwnd gate and the
//!   sender wedged permanently).

use ano_sim::payload::Payload;
use ano_sim::time::SimTime;
use ano_tcp::conn::TcpEndpoint;
use ano_tcp::segment::{FlowId, SkbFlags};
use ano_tcp::sender::{SenderStats, TcpSender};
use ano_tcp::TcpConfig;

/// Pumps a lossy A→B transfer to completion, mirroring the property
/// harness's loop exactly. Returns (delivered-ok, sender stats, finish µs).
fn run_lossy(len: usize, drops: &[bool]) -> (bool, SenderStats, u64) {
    let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
    let mut a = TcpEndpoint::new(FlowId(1), TcpConfig::default());
    let mut b = TcpEndpoint::new(FlowId(2), TcpConfig::default());
    a.send(Payload::real(data.clone()));
    let (mut t, mut drop_i) = (0u64, 0usize);
    let mut got = Vec::new();
    let mut end_t = 0;
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
            let dropped = iter < 20_000 && !seg.payload.is_empty() && drops[drop_i % drops.len()];
            drop_i += 1;
            if !dropped {
                b.on_packet_wnd(seg.seq, seg.ack, seg.wnd, &seg.sack, seg.payload, SkbFlags::default(), now);
            }
        }
        for c in b.take_ready() {
            got.extend_from_slice(&c.payload.to_vec());
            b.consume(c.payload.len() as u64);
        }
        while let Some(seg) = b.poll_transmit(now) {
            quiet = false;
            a.on_packet_wnd(seg.seq, seg.ack, seg.wnd, &seg.sack, seg.payload, SkbFlags::default(), now);
        }
        if quiet {
            if a.is_quiescent() && got.len() == data.len() {
                end_t = t;
                break;
            }
            if let Some(d) = a.rto_deadline() {
                t = t.max(d.as_nanos() / 1_000);
            }
        }
    }
    (got == data, a.tx_stats(), end_t)
}

/// The drop schedule from the checked-in regression seed
/// (`cc 8ed59643…`, shrunk to `len = 10137`).
fn regression_drops() -> [bool; 64] {
    let mut drops = [false; 64];
    for i in [2usize, 3, 5, 7, 9, 11, 13, 14] {
        drops[i] = true;
    }
    drops
}

/// The exact regression scenario must deliver the stream exactly once.
#[test]
fn regression_len_10137_delivers_exactly_once() {
    let (ok, _, end_t) = run_lossy(10137, &regression_drops());
    assert!(ok, "stream delivered exactly once, in order");
    assert!(end_t > 0, "transfer completed within the iteration budget");
}

/// Recovery dynamics for the regression scenario: before the fix this
/// burned 8 exponentially backed-off timeouts and 2.55 simulated seconds to
/// move 10 KB (SACK retransmission was gated off after an RTO, partial acks
/// did not continue go-back-N, and backoff never reset). The bounds below
/// leave slack over the fixed behavior (5 timeouts, ~60 ms) but exclude the
/// broken one by an order of magnitude.
#[test]
fn regression_len_10137_recovers_promptly() {
    let (ok, stats, end_t) = run_lossy(10137, &regression_drops());
    assert!(ok);
    assert!(stats.timeouts <= 6, "timeouts: {}", stats.timeouts);
    assert!(end_t <= 300_000, "finished at {end_t}µs, expected well under 0.3s");
}

/// Pure tail loss (last three segments of the initial flight dropped) must
/// not stack exponential backoff across the holes.
#[test]
fn tail_loss_recovers_without_backoff_stacking() {
    let mut drops = [false; 64];
    drops[7] = true;
    drops[8] = true;
    drops[9] = true;
    let (ok, stats, end_t) = run_lossy(10137, &drops);
    assert!(ok);
    assert!(stats.timeouts <= 4, "timeouts: {}", stats.timeouts);
    assert!(end_t <= 300_000, "finished at {end_t}µs");
}

/// An ACK that lands between the RTO firing and the next `poll_transmit`
/// advances `snd_una` past the resend cursor. The cursor must be clamped:
/// unclamped, `cursor - snd_una` underflows (debug panic / release wedge).
#[test]
fn ack_between_rto_and_poll_does_not_wedge_sender() {
    let cfg = TcpConfig::default();
    let (mss, wnd) = (cfg.mss, cfg.rcv_buf as u32);
    let mut s = TcpSender::new(FlowId(1), cfg);
    s.push(Payload::synthetic(4 * mss));
    let t0 = SimTime::from_micros(0);
    while s.poll_transmit(t0, 0).is_some() {}
    let deadline = s.rto_deadline().expect("timer armed");
    s.on_rto(deadline);
    // The "lost" first two segments were merely delayed: their ACK arrives
    // before the sender gets to retransmit anything.
    let t1 = deadline + ano_sim::time::SimDuration::from_micros(10);
    s.on_ack_wnd((2 * mss) as u32, wnd, false, t1);
    // Must neither panic nor wedge: the remaining bytes retransmit and new
    // progress is possible.
    let seg = s.poll_transmit(t1, 0).expect("sender still makes progress");
    assert_eq!(seg.seq64, (2 * mss) as u64, "resumes from the oldest outstanding byte");
    assert!(seg.is_retransmit);
}

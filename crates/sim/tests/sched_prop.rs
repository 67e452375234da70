//! Property tests for the scheduler's dispatch order. Burst draining:
//! `pop_batch`/`pop_batch_until` must dispatch in exactly the order the
//! single-pop loop does, for any schedule, any burst bound, and any
//! pattern of events scheduled *while* a burst is being processed. FIFO
//! lanes: events scheduled through `schedule_on` must dispatch exactly as
//! if they had gone through `schedule`, whatever their times.

use ano_sim::sched::{Lane, Scheduler};
use ano_sim::time::{SimDuration, SimTime};
use ano_testkit::gen::{u64_in, usize_in, vec_of};
use ano_testkit::prop_test;

/// Deterministic "dispatch side effect": every third event schedules a
/// follow-up a fixed (possibly zero) delay after its own timestamp, the
/// way `pump_conn` schedules completions mid-burst.
fn followup(s: &mut Scheduler<u64>, t: SimTime, ev: u64, budget: &mut u32) {
    if ev % 3 == 0 && ev < 1_000 && *budget > 0 {
        *budget -= 1;
        s.schedule(t + SimDuration::from_nanos(ev % 2), 1_000 + ev);
    }
}

/// Oracle: pop one event at a time.
fn drain_single(times: &[u64]) -> Vec<(u64, u64)> {
    let mut s = Scheduler::new();
    for (i, &t) in times.iter().enumerate() {
        s.schedule(SimTime::from_nanos(t), i as u64);
    }
    let mut budget = 64u32;
    let mut out = Vec::new();
    while let Some((t, ev)) = s.pop() {
        out.push((t.as_nanos(), ev));
        followup(&mut s, t, ev, &mut budget);
    }
    out
}

/// Burst loop mirroring `World::run_until`: drain same-instant groups up
/// to `max` at a time, running side effects only after the drain.
fn drain_batched(times: &[u64], max: usize) -> Vec<(u64, u64)> {
    let mut s = Scheduler::new();
    for (i, &t) in times.iter().enumerate() {
        s.schedule(SimTime::from_nanos(t), i as u64);
    }
    let mut budget = 64u32;
    let mut out = Vec::new();
    let mut batch = Vec::new();
    while let Some(t) = s.pop_batch(max, &mut batch) {
        for ev in batch.drain(..) {
            out.push((t.as_nanos(), ev));
            followup(&mut s, t, ev, &mut budget);
        }
    }
    out
}

prop_test! {
    cases = 200;
    fn batch_drain_matches_single_pop(
        times in vec_of(u64_in(0..16), 0..48),
        max in usize_in(1..9),
    ) {
        let single = drain_single(&times);
        let batched = drain_batched(&times, max);
        assert_eq!(single, batched, "times={times:?} max={max}");
    }
}

#[test]
fn pop_batch_until_respects_the_bound() {
    let mut s = Scheduler::new();
    s.schedule(SimTime::from_nanos(10), "a");
    s.schedule(SimTime::from_nanos(10), "b");
    s.schedule(SimTime::from_nanos(20), "c");

    let mut out = Vec::new();
    // Head (10) is within the bound: the whole same-instant group drains.
    let t = s.pop_batch_until(SimTime::from_nanos(15), 8, &mut out);
    assert_eq!(t, Some(SimTime::from_nanos(10)));
    assert_eq!(out, ["a", "b"]);

    // Head (20) is past the bound: nothing pops, clock does not move.
    out.clear();
    assert_eq!(s.pop_batch_until(SimTime::from_nanos(15), 8, &mut out), None);
    assert!(out.is_empty());
    assert_eq!(s.peek_time(), Some(SimTime::from_nanos(20)));

    // An inclusive bound drains the head.
    let t = s.pop_batch_until(SimTime::from_nanos(20), 8, &mut out);
    assert_eq!(t, Some(SimTime::from_nanos(20)));
    assert_eq!(out, ["c"]);
    assert!(s.is_empty());
}

/// What a lanes-vs-heap run observes: every dispatch with its time, and
/// the counters and head time after every call.
#[derive(Debug, PartialEq)]
struct Observed {
    order: Vec<(u64, u64)>,
    after_each: Vec<(usize, u64, u64, Option<SimTime>)>,
}

/// Schedules `ev` plainly (`target` 0, or any target without lanes) or on
/// lane `target - 1` (mod the lane count).
fn put(s: &mut Scheduler<u64>, lanes: Option<&[Lane]>, target: u64, at: SimTime, ev: u64) {
    match (lanes, target.checked_sub(1)) {
        (Some(ids), Some(l)) => s.schedule_on(ids[l as usize % ids.len()], at, ev),
        _ => s.schedule(at, ev),
    }
}

/// One drain call in mode `drain` (0 `pop`, 1 `pop_batch`, 2
/// `pop_batch_until(until)`); every third event schedules a follow-up
/// mid-batch, on a lane or plain. Returns false when nothing popped.
fn drain_once(
    s: &mut Scheduler<u64>,
    lanes: Option<&[Lane]>,
    drain: usize,
    max: usize,
    until: SimTime,
    budget: &mut u32,
    obs: &mut Observed,
) -> bool {
    let mut batch = Vec::new();
    let t = match drain {
        0 => s.pop().map(|(t, ev)| {
            batch.push(ev);
            t
        }),
        1 => s.pop_batch(max, &mut batch),
        _ => s.pop_batch_until(until, max, &mut batch),
    };
    let Some(t) = t else { return false };
    for ev in batch {
        obs.order.push((t.as_nanos(), ev));
        if ev % 3 == 0 && *budget > 0 {
            *budget -= 1;
            put(s, lanes, ev % 5, t + SimDuration::from_nanos(ev % 2), 10_000 + ev);
        }
    }
    true
}

/// Replays `ops` — `(target, offset, drains)`: schedule event `i` at
/// `now + offset - 3` ns (up to 3 ns in the past, so clamped), then run
/// `drains` drain calls — and drains the rest. With `lanes: false` every
/// `schedule_on` becomes a plain `schedule`: the oracle.
fn run_ops(ops: &[(u64, u64, u64)], n_lanes: usize, drain: usize, max: usize, lanes: bool) -> Observed {
    let mut s = Scheduler::new();
    let ids: Vec<Lane> = (0..n_lanes).map(|_| s.add_lane()).collect();
    let lanes = lanes.then_some(ids.as_slice());
    let mut obs = Observed {
        order: Vec::new(),
        after_each: Vec::new(),
    };
    let mut budget = 64u32;
    let note = |s: &Scheduler<u64>, obs: &mut Observed| {
        obs.after_each
            .push((s.pending(), s.dispatched(), s.clamped(), s.peek_time()));
    };
    for (i, &(target, offset, drains)) in ops.iter().enumerate() {
        let at = SimTime::from_nanos((s.now().as_nanos() + offset).saturating_sub(3));
        put(&mut s, lanes, target, at, i as u64);
        note(&s, &mut obs);
        for _ in 0..drains {
            let until = s.now() + SimDuration::from_nanos(2);
            drain_once(&mut s, lanes, drain, max, until, &mut budget, &mut obs);
            note(&s, &mut obs);
        }
    }
    while drain_once(&mut s, lanes, drain, max, SimTime::MAX, &mut budget, &mut obs) {
        note(&s, &mut obs);
    }
    assert!(s.is_empty() && s.pending() == 0);
    obs
}

prop_test! {
    cases = 200;
    fn lanes_dispatch_like_the_plain_heap(
        ops in vec_of((u64_in(0..5), u64_in(0..16), u64_in(0..3)), 0..64),
        n_lanes in usize_in(1..5),
        drain in usize_in(0..3),
        max in usize_in(1..9),
    ) {
        let with_lanes = run_ops(&ops, n_lanes, drain, max, true);
        let plain = run_ops(&ops, n_lanes, drain, max, false);
        assert_eq!(with_lanes, plain, "ops={ops:?} lanes={n_lanes} drain={drain} max={max}");
    }
}

/// In-order lane events stay out of the heap: a lane holds one heap entry
/// however long it grows, and a backward time falls back to the heap.
#[test]
fn a_sorted_lane_costs_one_heap_entry() {
    let mut s = Scheduler::new();
    let lane = s.add_lane();
    for i in 0..100u64 {
        s.schedule_on(lane, SimTime::from_nanos(10 + i / 4), i);
    }
    assert_eq!((s.pending(), s.heap_peak()), (100, 1));
    s.schedule_on(lane, SimTime::from_nanos(5), 100);
    assert_eq!(s.heap_peak(), 2);
    let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
    assert_eq!(order[0], 100);
    assert_eq!(order[1..], (0..100).collect::<Vec<_>>());
}

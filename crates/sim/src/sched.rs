//! Deterministic discrete-event scheduler.
//!
//! Events are ordered by `(time, insertion sequence)`, so two events scheduled
//! for the same instant fire in the order they were scheduled. This makes
//! whole-system runs reproducible for a fixed RNG seed.
//!
//! # Storage
//!
//! Events live in a slab (`slots` + free list); the 4-ary heap orders small
//! `(at, seq, slot)` records. Heap sift operations therefore move 16-byte
//! entries instead of the full event payload — for a stack-sized `Event`
//! (SACK vector, payload handle, resync frames) that is the difference
//! between a memmove-bound hot loop and a cache-resident one. Slots are
//! recycled LIFO so a steady-state run reaches a fixed slab size and stops
//! allocating entirely.
//!
//! # FIFO lanes
//!
//! Most events arrive in order: a link's arrivals, one core's completions.
//! [`Scheduler::schedule_on`] appends such an event to a [`Lane`], a list
//! threaded through the slab by each slot's `next` index; only the lane's
//! head sits in the heap, and popping it puts the lane's next event in its
//! place with one sift-down. An event earlier than its lane's tail goes to
//! the heap as a plain [`Scheduler::schedule`], so every lane stays sorted
//! by `(at, seq)`, the heap's minimum is the global minimum, and dispatch
//! order is exactly the lane-free order for any input.
//!
//! # Batching
//!
//! [`Scheduler::pop_batch`] drains every event sharing the earliest pending
//! timestamp (up to a caller-provided cap) in one call. Because the batch
//! contains only events that were already queued — anything scheduled
//! *while the caller processes the batch* gets a higher insertion sequence
//! and a timestamp clamped to ≥ now — the dispatch order is bit-identical to
//! calling [`Scheduler::pop`] in a loop. Batching changes wall-clock cost,
//! never simulated behavior.

use crate::time::{SimDuration, SimTime};

/// Heap record: event ordering key plus the slab slot holding the payload.
/// Kept intentionally tiny (16 bytes) so heap sifts stay cheap: `key`
/// packs the insertion sequence into the high bits and the slab slot into
/// the low [`SLOT_BITS`], so comparing `(at, key)` orders exactly like
/// `(at, seq)` — sequences are unique, the slot bits never tip a
/// comparison. The derived order compares `at`, then `key`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: SimTime,
    key: u64,
}

/// Low bits of [`Entry::key`] holding the slab slot (16M slots); the
/// remaining 40 bits count insertion sequence (~10^12 schedules per run).
const SLOT_BITS: u32 = 24;

impl Entry {
    fn slot(&self) -> u32 {
        (self.key & ((1 << SLOT_BITS) - 1)) as u32
    }
}

/// A 4-ary min-heap of [`Entry`] records. Quaternary rather than binary
/// because the queue sits under every simulated event: half the depth of a
/// binary heap, and a node's four 16-byte children span one cache line, so
/// a sift-down touches fewer lines per level. The comparison key
/// `(at, key)` is a total order (insertion sequences are unique), so pop
/// order is exactly time-then-FIFO no matter the internal layout.
#[derive(Default)]
struct Heap4 {
    v: Vec<Entry>,
    /// High-water mark of `v.len()` ([`Scheduler::heap_peak`]).
    peak: usize,
}

impl Heap4 {
    fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    fn peek(&self) -> Option<&Entry> {
        self.v.first()
    }

    fn push(&mut self, e: Entry) {
        self.v.push(e);
        self.peak = self.peak.max(self.v.len());
        let mut i = self.v.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.v[i] < self.v[parent] {
                self.v.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        let last = self.v.len().checked_sub(1)?;
        self.v.swap(0, last);
        let top = self.v.pop();
        self.sift_down();
        top
    }

    /// Replaces the minimum with `e`: one sift-down instead of pop + push.
    fn replace_top(&mut self, e: Entry) {
        self.v[0] = e;
        self.sift_down();
    }

    fn sift_down(&mut self) {
        let len = self.v.len();
        let mut i = 0;
        loop {
            let first_child = i * 4 + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            let end = (first_child + 4).min(len);
            for c in first_child + 1..end {
                if self.v[c] < self.v[min] {
                    min = c;
                }
            }
            if self.v[min] < self.v[i] {
                self.v.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

/// Sentinel index: no slot (end of a lane) or no lane (a plain heap event).
const NIL: u32 = u32::MAX;

/// One slab slot: a pending event and its place in the queue.
struct Slot<E> {
    ev: Option<E>,
    /// The event's heap entry; a lane event not yet at its lane's head
    /// waits here until its predecessor pops.
    entry: Entry,
    /// The lane the event is queued on, or [`NIL`].
    lane: u32,
    /// The next event on the same lane, or [`NIL`] at the tail.
    next: u32,
}

/// A FIFO lane of a [`Scheduler`] (see the module docs), from
/// [`Scheduler::add_lane`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lane(u32);

/// A deterministic event queue parameterized over the event type `E`.
///
/// # Examples
///
/// ```
/// use ano_sim::sched::Scheduler;
/// use ano_sim::time::{SimDuration, SimTime};
///
/// let mut s = Scheduler::new();
/// s.schedule_in(SimDuration::from_micros(10), "b");
/// s.schedule_in(SimDuration::from_micros(5), "a");
/// assert_eq!(s.pop().map(|(_, e)| e), Some("a"));
/// assert_eq!(s.now(), SimTime::from_micros(5));
/// ```
pub struct Scheduler<E> {
    heap: Heap4,
    /// Slab of pending events, indexed by `Entry::slot`.
    slots: Vec<Slot<E>>,
    /// Recycled slot indices, reused LIFO (hot slots stay cache-warm).
    free: Vec<u32>,
    /// Tail slot of each lane, [`NIL`] while the lane is empty.
    lanes: Vec<u32>,
    now: SimTime,
    seq: u64,
    dispatched: u64,
    clamped: u64,
    clamp_epsilon: SimDuration,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Default tolerance for past-time schedules before the debug assertion
/// fires: completion times computed just before the clock advanced lag by
/// one event's worth of simulated work, never by milliseconds.
const DEFAULT_CLAMP_EPSILON: SimDuration = SimDuration::from_millis(1);

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            heap: Heap4::default(),
            slots: Vec::new(),
            free: Vec::new(),
            lanes: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            dispatched: 0,
            clamped: 0,
            clamp_epsilon: DEFAULT_CLAMP_EPSILON,
        }
    }

    /// The current simulated time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of schedules whose requested time was in the past and got
    /// clamped to `now`. A small count is normal (completion times computed
    /// before the clock advanced); a count growing with every packet is a
    /// latency-accounting bug.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Sets the tolerated past-time lag before [`Scheduler::schedule`]'s
    /// debug assertion fires. Clamping itself always remains silent-safe;
    /// the epsilon only controls when a debug build refuses to hide it.
    pub fn set_clamp_epsilon(&mut self, epsilon: SimDuration) {
        self.clamp_epsilon = epsilon;
    }

    /// Number of events still pending, in the heap or behind a lane head.
    pub fn pending(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The most entries the heap has held at once: lane events wait outside
    /// it, so this counts only lane heads and plain events.
    pub fn heap_peak(&self) -> usize {
        self.heap.peak
    }

    /// Opens a new, empty FIFO lane.
    pub fn add_lane(&mut self) -> Lane {
        self.lanes.push(NIL);
        Lane(u32::try_from(self.lanes.len() - 1).expect("lane overflow"))
    }

    /// Clamps `at` to now (counting the clamp, see
    /// [`Scheduler::schedule_lagged`]), numbers the event and stores it in
    /// the slab; returns its heap entry and the clamp lag.
    fn store(&mut self, at: SimTime, event: E, lane: u32) -> (Entry, SimDuration) {
        let lag = if at < self.now {
            self.clamped += 1;
            let lag = self.now.since(at);
            debug_assert!(
                lag <= self.clamp_epsilon,
                "event scheduled {}ns in the past (epsilon {}ns): negative latency bug?",
                lag.as_nanos(),
                self.clamp_epsilon.as_nanos(),
            );
            lag
        } else {
            SimDuration::ZERO
        };
        let seq = self.seq;
        self.seq += 1;
        assert!(seq < 1 << (64 - SLOT_BITS), "insertion sequence overflow");
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => u32::try_from(self.slots.len()).expect("slab overflow"),
        };
        assert!(slot < 1 << SLOT_BITS, "slab slot overflow");
        let entry = Entry {
            at: at.max(self.now),
            key: (seq << SLOT_BITS) | slot as u64,
        };
        let rec = Slot {
            ev: Some(event),
            entry,
            lane,
            next: NIL,
        };
        match self.slots.get_mut(slot as usize) {
            Some(s) => *s = rec,
            None => self.slots.push(rec),
        }
        (entry, lag)
    }

    fn take(&mut self, slot: u32) -> E {
        let ev = self.slots[slot as usize]
            .ev
            .take()
            .expect("heap entry points at an empty slot");
        self.free.push(slot);
        ev
    }

    /// Removes the heap's minimum. A lane head hands its heap place to the
    /// lane's next event; the lane's last event empties the lane.
    fn pop_entry(&mut self) -> Option<Entry> {
        let top = *self.heap.peek()?;
        let s = &self.slots[top.slot() as usize];
        if s.lane != NIL {
            if s.next != NIL {
                let next = self.slots[s.next as usize].entry;
                self.heap.replace_top(next);
                return Some(top);
            }
            self.lanes[s.lane as usize] = NIL;
        }
        self.heap.pop()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Events scheduled in the past are clamped to fire "now" (this can
    /// happen when a completion time was computed before the clock advanced);
    /// ordering among same-instant events follows insertion order. Each
    /// clamp bumps [`Scheduler::clamped`], and a debug build asserts the lag
    /// stays within [`Scheduler::set_clamp_epsilon`] — a genuinely negative
    /// latency should fail loudly, not vanish into the clamp.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.schedule_lagged(at, event);
    }

    /// Like [`Scheduler::schedule`], but reports how far in the past the
    /// requested time was ([`SimDuration::ZERO`] when no clamp happened), so
    /// callers can surface the clamp in their own telemetry.
    pub fn schedule_lagged(&mut self, at: SimTime, event: E) -> SimDuration {
        let (entry, lag) = self.store(at, event, NIL);
        self.heap.push(entry);
        lag
    }

    /// Schedules `event` at `at` on `lane`. Dispatch order is exactly that
    /// of [`Scheduler::schedule`]; the lane only saves heap work while its
    /// events arrive in time order. An event earlier than the lane's tail
    /// goes to the heap as a plain schedule.
    pub fn schedule_on(&mut self, lane: Lane, at: SimTime, event: E) {
        let tail = self.lanes[lane.0 as usize];
        if tail != NIL && at.max(self.now) < self.slots[tail as usize].entry.at {
            return self.schedule(at, event);
        }
        let (entry, _) = self.store(at, event, lane.0);
        if tail == NIL {
            self.heap.push(entry);
        } else {
            self.slots[tail as usize].next = entry.slot();
        }
        self.lanes[lane.0 as usize] = entry.slot();
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.pop_entry()?;
        debug_assert!(e.at >= self.now, "scheduler time went backwards");
        self.now = e.at;
        self.dispatched += 1;
        Some((e.at, self.take(e.slot())))
    }

    /// Drains every pending event sharing the earliest timestamp — at most
    /// `max` of them — into `out` in FIFO order, advances the clock to that
    /// timestamp, and returns it. Returns `None` (leaving `out` untouched)
    /// when the queue is empty.
    ///
    /// Equivalent to calling [`Scheduler::pop`] until the head timestamp
    /// changes: the batch only ever contains events that were already
    /// queued, so interleaving new `schedule` calls between `pop_batch`
    /// calls cannot reorder anything (new events have higher sequence
    /// numbers and clamp to ≥ now). `max` merely bounds burst size; a
    /// same-instant group larger than `max` is delivered across successive
    /// calls, still in FIFO order.
    pub fn pop_batch(&mut self, max: usize, out: &mut Vec<E>) -> Option<SimTime> {
        let (at, ev) = self.pop()?;
        out.push(ev);
        while out.len() < max && self.peek_time() == Some(at) {
            out.push(self.pop().expect("peeked entry").1);
        }
        Some(at)
    }

    /// Like [`Scheduler::pop_batch`], but only if the next event fires at
    /// or before `until`. Returns `None` (queue and clock untouched) when
    /// the queue is empty or its head is later than the bound — fusing the
    /// caller's peek-then-pop into a single heap access per burst.
    pub fn pop_batch_until(
        &mut self,
        until: SimTime,
        max: usize,
        out: &mut Vec<E>,
    ) -> Option<SimTime> {
        if self.heap.peek()?.at > until {
            return None;
        }
        self.pop_batch(max, out)
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("dispatched", &self.dispatched)
            .field("clamped", &self.clamped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_nanos(30), 3);
        s.schedule(SimTime::from_nanos(10), 1);
        s.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(s.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_nanos(100), "late");
        s.pop();
        assert_eq!(s.clamped(), 0);
        let lag = s.schedule_lagged(SimTime::from_nanos(50), "early-but-clamped");
        assert_eq!(lag, SimDuration::from_nanos(50));
        assert_eq!(s.clamped(), 1);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "negative latency bug")]
    #[cfg(debug_assertions)]
    fn clamp_beyond_epsilon_asserts() {
        let mut s = Scheduler::new();
        s.set_clamp_epsilon(SimDuration::from_nanos(10));
        s.schedule(SimTime::from_nanos(100), "late");
        s.pop();
        s.schedule(SimTime::from_nanos(50), "way too early");
    }

    #[test]
    fn counters_track_activity() {
        let mut s = Scheduler::new();
        assert!(s.is_empty());
        s.schedule_in(SimDuration::from_nanos(1), ());
        s.schedule_in(SimDuration::from_nanos(2), ());
        assert_eq!(s.pending(), 2);
        s.pop();
        assert_eq!(s.dispatched(), 1);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    fn pop_batch_drains_same_instant_fifo() {
        let mut s = Scheduler::new();
        for i in 0..5 {
            s.schedule(SimTime::from_nanos(10), i);
        }
        s.schedule(SimTime::from_nanos(20), 99);
        let mut out = Vec::new();
        let t = s.pop_batch(usize::MAX, &mut out);
        assert_eq!(t, Some(SimTime::from_nanos(10)));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.dispatched(), 5);
        out.clear();
        assert_eq!(s.pop_batch(usize::MAX, &mut out), Some(SimTime::from_nanos(20)));
        assert_eq!(out, vec![99]);
        assert_eq!(s.pop_batch(usize::MAX, &mut out), None);
    }

    #[test]
    fn pop_batch_respects_max_across_calls() {
        let mut s = Scheduler::new();
        for i in 0..7 {
            s.schedule(SimTime::from_nanos(10), i);
        }
        let mut out = Vec::new();
        assert_eq!(s.pop_batch(3, &mut out), Some(SimTime::from_nanos(10)));
        assert_eq!(out, vec![0, 1, 2]);
        out.clear();
        assert_eq!(s.pop_batch(3, &mut out), Some(SimTime::from_nanos(10)));
        assert_eq!(out, vec![3, 4, 5]);
        out.clear();
        assert_eq!(s.pop_batch(3, &mut out), Some(SimTime::from_nanos(10)));
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut s = Scheduler::new();
        for round in 0..10 {
            for i in 0..8 {
                s.schedule_in(SimDuration::from_nanos(i + 1), (round, i));
            }
            while s.pop().is_some() {}
        }
        // Steady state: the slab never grows past the high-water mark.
        assert!(s.slots.len() <= 8, "slab grew to {}", s.slots.len());
        assert_eq!(s.free.len(), s.slots.len());
    }

    #[test]
    fn batch_matches_single_pop_with_interleaved_schedules() {
        // The equivalence the batched world loop relies on: drain-a-batch
        // then schedule follow-ups produces the same dispatch order as
        // pop-one/schedule-follow-up, because follow-ups always sort after
        // the already-queued batch.
        let run = |batched: bool| -> Vec<u32> {
            let mut s = Scheduler::new();
            for i in 0..4u32 {
                s.schedule(SimTime::from_nanos(10), i);
            }
            let mut order = Vec::new();
            let mut follow = 100u32;
            if batched {
                let mut out = Vec::new();
                while s.pop_batch(usize::MAX, &mut out).is_some() {
                    for ev in out.drain(..) {
                        order.push(ev);
                        if ev < 100 && follow < 104 {
                            // Same-instant follow-up: must sort after the batch.
                            s.schedule(s.now(), follow);
                            follow += 1;
                        }
                    }
                }
            } else {
                while let Some((_, ev)) = s.pop() {
                    order.push(ev);
                    if ev < 100 && follow < 104 {
                        s.schedule(s.now(), follow);
                        follow += 1;
                    }
                }
            }
            order
        };
        assert_eq!(run(true), run(false));
    }
}

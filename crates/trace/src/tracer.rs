//! The [`Tracer`]: a cheaply cloneable handle over a shared ring buffer of
//! [`Record`]s.
//!
//! The simulation is single-threaded, so the shared state lives behind
//! `Rc<Cell/RefCell>`. Handles are handed to every layer at connection
//! setup; each handle can be re-scoped to a flow label with
//! [`Tracer::scoped`] so events carry the flow they belong to without the
//! layers knowing anything about connection identity.
//!
//! Tracing is off by default. The disabled path is a single `Cell` load and
//! branch — event construction happens inside a closure that is never
//! called when disabled (pinned by the
//! `disabled_records_nothing_and_skips_closure` test below); what enabling
//! costs is the repo benchmark's `trace.overhead_pct`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::event::{Event, Record};

/// Default ring capacity: enough for the Tcp+Resync volume of every
/// scenario in the adversarial matrix without wrapping.
pub const DEFAULT_CAPACITY: usize = 65_536;

struct Ring {
    buf: Vec<Record>,
    cap: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
}

struct TracerInner {
    enabled: Cell<bool>,
    now_ns: Cell<u64>,
    next_n: Cell<u64>,
    dropped: Cell<u64>,
    ring: RefCell<Ring>,
}

/// Shared tracing handle. Clones share the same buffer; [`Tracer::scoped`]
/// rebinds the flow label only.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<TracerInner>,
    flow: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// Creates a disabled tracer with a ring of `capacity` records.
    pub fn new(capacity: usize) -> Tracer {
        assert!(capacity > 0, "tracer ring capacity must be positive");
        Tracer {
            inner: Rc::new(TracerInner {
                enabled: Cell::new(false),
                now_ns: Cell::new(0),
                next_n: Cell::new(0),
                dropped: Cell::new(0),
                ring: RefCell::new(Ring { buf: Vec::new(), cap: capacity, head: 0 }),
            }),
            flow: 0,
        }
    }

    /// Turns recording on or off. State is shared across all clones.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    /// Whether recording is currently on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Advances the shared clock. Called once per dispatched simulation
    /// event by the runtime; every record between two calls carries the
    /// same timestamp and is ordered by its record number.
    #[inline]
    pub fn set_now(&self, t_ns: u64) {
        self.inner.now_ns.set(t_ns);
    }

    /// A handle that records under flow label `flow` into the same ring.
    pub fn scoped(&self, flow: u64) -> Tracer {
        Tracer { inner: Rc::clone(&self.inner), flow }
    }

    /// Records the event produced by `f` — if tracing is enabled. The
    /// closure is not called when disabled, so argument formatting and
    /// event construction cost nothing on the common path.
    #[inline]
    pub fn record(&self, f: impl FnOnce() -> Event) {
        if !self.inner.enabled.get() {
            return;
        }
        self.push(f());
    }

    #[cold]
    fn push(&self, event: Event) {
        let n = self.inner.next_n.get();
        self.inner.next_n.set(n + 1);
        let rec = Record { n, t_ns: self.inner.now_ns.get(), flow: self.flow, event };
        let mut ring = self.inner.ring.borrow_mut();
        if ring.buf.len() < ring.cap {
            ring.buf.push(rec);
        } else {
            let head = ring.head;
            ring.buf[head] = rec;
            ring.head = (head + 1) % ring.cap;
            self.inner.dropped.set(self.inner.dropped.get() + 1);
        }
    }

    /// Number of records overwritten because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// All retained records, oldest first.
    pub fn records(&self) -> Vec<Record> {
        let ring = self.inner.ring.borrow();
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        out
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("flow", &self.flow)
            .field("records", &self.inner.ring.borrow().buf.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> Event {
        Event::PktOffloaded { seq, len: 1448 }
    }

    #[test]
    fn disabled_records_nothing_and_skips_closure() {
        let t = Tracer::new(8);
        let mut called = false;
        t.record(|| {
            called = true;
            ev(0)
        });
        assert!(!called, "closure must not run while disabled");
        assert!(t.records().is_empty());
    }

    #[test]
    fn clones_share_ring_and_scoped_rebinds_flow() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        t.set_now(10);
        let f1 = t.scoped(1);
        let f2 = t.scoped(2);
        f1.record(|| ev(100));
        f2.record(|| ev(200));
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].flow, recs[0].t_ns), (1, 10));
        assert_eq!((recs[1].flow, recs[1].n), (2, 1));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new(4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.record(|| ev(i));
        }
        assert_eq!(t.dropped(), 6);
        let recs = t.records();
        assert_eq!(recs.len(), 4);
        let seqs: Vec<u64> = recs
            .iter()
            .map(|r| match r.event {
                Event::PktOffloaded { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first after wrap");
    }
}

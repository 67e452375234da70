//! The [`Tracer`]: a cheaply cloneable handle over a shared ring buffer of
//! [`Record`]s plus a [`MetricsRegistry`].
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
use crate::metrics::MetricsRegistry;

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
    metrics: RefCell<MetricsRegistry>,
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
                metrics: RefCell::new(MetricsRegistry::new()),
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

    /// The clock most recently installed with [`Tracer::set_now`].
    pub fn now_ns(&self) -> u64 {
        self.inner.now_ns.get()
    }

    /// A handle that records under flow label `flow` into the same ring.
    pub fn scoped(&self, flow: u64) -> Tracer {
        Tracer { inner: Rc::clone(&self.inner), flow }
    }

    /// The flow label this handle stamps on records.
    pub fn flow(&self) -> u64 {
        self.flow
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

    /// The trailing `n` records, oldest first (diagnostic window for
    /// invariant-failure panics).
    pub fn tail(&self, n: usize) -> Vec<Record> {
        let all = self.records();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }

    /// Discards all records and resets drop accounting (metrics are kept).
    pub fn clear(&self) {
        let mut ring = self.inner.ring.borrow_mut();
        ring.buf.clear();
        ring.head = 0;
        self.inner.dropped.set(0);
    }

    /// Bumps the counter `name` under this handle's flow — if enabled.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if !self.inner.enabled.get() {
            return;
        }
        self.inner.metrics.borrow_mut().count(self.flow, name, delta);
    }

    /// Sets the gauge `name` under this handle's flow — if enabled.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: i64) {
        if !self.inner.enabled.get() {
            return;
        }
        self.inner.metrics.borrow_mut().gauge(self.flow, name, value);
    }

    /// Records a histogram observation under this handle's flow — if enabled.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if !self.inner.enabled.get() {
            return;
        }
        self.inner.metrics.borrow_mut().observe(self.flow, name, value);
    }

    /// Runs `f` against the shared metrics registry (read access for
    /// exporters and bench reporting).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.inner.metrics.borrow())
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
    use crate::event::ResyncPhase;

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
        assert_eq!(t.tail(2).len(), 2);
    }

    #[test]
    fn metrics_gated_by_enabled() {
        let t = Tracer::new(4);
        t.count("cpu.tls", 5);
        t.set_enabled(true);
        t.count("cpu.tls", 7);
        t.observe("rec.len", 1024);
        assert_eq!(t.with_metrics(|m| m.counter(0, "cpu.tls")), 7);
    }

    #[test]
    fn clear_resets_ring_but_keeps_metrics() {
        let t = Tracer::new(2);
        t.set_enabled(true);
        t.count("x", 3);
        for i in 0..5u64 {
            t.record(|| {
                Event::Resync { from: ResyncPhase::Searching, to: ResyncPhase::Tracking, seq: i }
            });
        }
        t.clear();
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.with_metrics(|m| m.counter(0, "x")), 3);
    }
}

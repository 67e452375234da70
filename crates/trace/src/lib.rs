//! # ano-trace — deterministic observability for the offload stack
//!
//! A zero-dependency event tracer threaded through every layer of the
//! simulation. The paper's claims are behavioral — the
//! NIC context drops to software on out-of-sequence packets and re-acquires
//! framing through the §4.3 resync state machine — and this crate turns
//! those behaviors into first-class, diffable artifacts:
//!
//! - [`Tracer`]: typed, timestamped [`Event`]s in a bounded ring buffer
//!   with drop accounting. Off by default; the disabled path is one branch.
//! - [`export`]: a human timeline and the stable *canonical* form used
//!   for golden-trace regression tests.
//!
//! Counts live in each layer's typed stats struct (`RxStats`,
//! `NvmeHostStats`, `NicCounters`, ...), which are always on; the trace
//! records *when* and *in what order* those facts happened.
//!
//! ## Determinism
//!
//! The simulation clock is injected via [`Tracer::set_now`] and every other
//! field is a plain integer, so a trace is a pure function of the
//! scenario's seed and schedule: same seed ⇒ byte-identical canonical
//! output. Golden tests in `ano-scenario` stand on this guarantee.
//!
//! ## Example
//!
//! ```
//! use ano_trace::{Tracer, Event, ResyncPhase, export};
//!
//! let tracer = Tracer::default();
//! tracer.set_enabled(true);
//! tracer.set_now(2_000);
//! let rx = tracer.scoped(7); // the handle a per-flow engine would hold
//! rx.record(|| Event::Resync {
//!     from: ResyncPhase::Searching,
//!     to: ResyncPhase::Tracking,
//!     seq: 4096,
//! });
//! let text = export::canonical(&tracer.records(), export::GOLDEN_CATEGORIES);
//! assert_eq!(text, "t=2000 flow=7 resync.transition Searching->Tracking seq=4096\n");
//! ```

pub mod event;
pub mod export;
pub mod tracer;

pub use event::{Category, Event, Record, ResyncPhase, RetransmitKind};
pub use tracer::Tracer;

#[cfg(test)]
mod tests {
    use super::*;

    /// The crate-level determinism contract: driving two tracers through
    /// the same scripted sequence yields byte-identical canonical output
    /// (the full-stack version of this test lives in `ano-scenario`).
    #[test]
    fn identical_inputs_yield_identical_canonical_traces() {
        let run = || {
            let t = Tracer::new(16);
            t.set_enabled(true);
            for i in 0..20u64 {
                t.set_now(i * 1_000);
                let h = t.scoped(i % 2);
                h.record(|| Event::TcpRetransmit {
                    seq: i * 1448,
                    len: 1448,
                    kind: RetransmitKind::Fast,
                });
            }
            (export::canonical(&t.records(), export::GOLDEN_CATEGORIES), t.dropped())
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.1, 4, "20 events into a 16-slot ring drop 4");
    }
}

//! Discrete-event simulation substrate for the *Autonomous NIC Offloads*
//! reproduction.
//!
//! This crate provides the deterministic machinery shared by every layer of
//! the reproduced system:
//!
//! * [`time`] — integer-nanosecond simulated clock types;
//! * [`sched`] — a deterministic event queue;
//! * [`rng`] — seeded randomness (loss/reorder processes, workloads);
//! * [`link`] — rate/latency links with loss, reorder and duplication;
//! * [`cpu`] — per-core cycle accounting ("busy cores" reporting);
//! * [`cost`] — the calibrated cycle-cost model standing in for the paper's
//!   Xeon E5-2660 v4 testbed;
//! * [`payload`] — dual-fidelity packet payloads (real vs synthetic bytes);
//! * [`stats`] — throughput meters and sample collectors.
//!
//! # Examples
//!
//! ```
//! use ano_sim::prelude::*;
//!
//! let mut sched: Scheduler<&str> = Scheduler::new();
//! sched.schedule_in(SimDuration::from_micros(1), "wakeup");
//! let (t, ev) = sched.pop().expect("one event");
//! assert_eq!((t, ev), (SimTime::from_micros(1), "wakeup"));
//! ```

pub mod bytes;
pub mod cost;
pub mod cpu;
pub mod link;
pub mod payload;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::bytes::Bytes;
    pub use crate::cost::CostModel;
    pub use crate::cpu::CpuSet;
    pub use crate::link::{Impairments, Link};
    pub use crate::payload::{DataMode, Payload};
    pub use crate::rng::SimRng;
    pub use crate::sched::Scheduler;
    pub use crate::stats::{Samples, ThroughputMeter};
    pub use crate::time::{SimDuration, SimTime};
}

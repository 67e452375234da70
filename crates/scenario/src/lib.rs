//! Adversarial scenarios with differential offload-vs-software checking:
//! one declarative spec, one runner, one registry.
//!
//! The paper's contribution lives in the corner cases — out-of-sequence
//! fallback, the §4.3 resync state machine, retransmit overlap — and its
//! autonomy claim is that offload state is disposable: any loss, reorder,
//! device fault or partition costs a resync, never a wrong byte. This crate
//! asserts that on deterministic, scripted adversity:
//!
//! * [`scenario::Scenario`] describes a run as data — an N×M topology
//!   (two hosts are the 1×1 case), per-flow workloads, per-link
//!   [`ano_sim::link::Impairments`], a timed
//!   [`ano_stack::world::NetPlan`], per-host device-fault plans
//!   ([`chaos::DeviceChaos`] is the pattern catalogue), RSS shape and
//!   rebalancer, churn waves, budgets and expectations;
//! * [`runner::run`] executes one arm of it in one world, checking at
//!   every step, for every flow:
//!   **stream integrity** (every delivered plaintext chunk equals the
//!   transmitted stream at its claimed offset, every read buffer matches
//!   the device pattern) and **forward progress** (a per-flow watchdog,
//!   suspended only inside *declared* outages); and at the end:
//!   **auth integrity** (corruption surfaces as TLS alerts and nothing
//!   else), **resync legality and reconvergence** (every engine's ladder
//!   walks only [`invariant::LEGAL_EDGES`] and ends in `Offloading`),
//!   the **partitioned/lost split**, **no sideways degradation**,
//!   **clean-link quiescence** (no TCP retransmission or timeout on a flow
//!   whose links nothing in the spec touches), and the spec's declared
//!   [`chaos::Degradation`];
//! * [`runner::run_differential`] runs the spec and its
//!   [`scenario::Scenario::twin`] (offload off, device faults stripped,
//!   one rx queue, no rebalancer; same links, same net plan) and demands
//!   byte-identical per-flow streams with bounded completion-time
//!   divergence: the offload must be *autonomous*, invisible at the
//!   application layer under any adversity;
//! * [`registry::builtin`] replays any built-in scenario by name, and
//!   [`gen::ScriptGen`] generates random drop schedules that shrink (via
//!   `ano-testkit`) to a minimal failing schedule.

pub mod apps;
pub mod chaos;
pub mod gen;
pub mod invariant;
pub mod registry;
pub mod runner;
pub mod scenario;

pub use chaos::{Degradation, DeviceChaos};
pub use invariant::Violation;
pub use registry::{all, builtin};
pub use runner::{run, run_differential, sensitivity_curve, Arm, Diff, Outcome};
pub use scenario::{Flow, Offload, Scenario, Workload};

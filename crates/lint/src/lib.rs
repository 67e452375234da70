//! `ano-lint`: a zero-dependency static-analysis pass for this workspace.
//!
//! The reproduction's core guarantees — bit-identical traces across
//! processes, a panic-free per-packet data path, all observability routed
//! through `ano-trace`, and a resync state machine that matches its spec —
//! are otherwise enforced only dynamically (golden traces, the scenario
//! matrix, CI's two-process hash check). This crate enforces them
//! *structurally*, at analysis time, before anything runs:
//!
//! * a minimal Rust lexer ([`lexer`]) turns each source file into a token
//!   stream with byte offsets (no `syn`, preserving the hermetic build);
//! * a rule engine ([`rules`], [`engine`]) applies scoped rule families —
//!   determinism, panic-freedom, observability, unsafe-code hygiene;
//! * an item/call-site extractor ([`parser`]) lifts each file to its fns,
//!   call sites, and fact seeds, pruning `#[cfg(test)]` code;
//! * a cross-crate call graph ([`graph`]) links those fns workspace-wide,
//!   with method calls resolved by receiver-name heuristics and everything
//!   unresolvable counted in an explicit bucket;
//! * fixed-point fact propagation ([`facts`]) pushes may-panic and
//!   nondeterminism-taint facts along the graph and reports any that
//!   reach a `// ano-lint: entry(hot-path)` fn, with the full call chain
//!   (`transitive-panic`, `transitive-nondet`), plus a dead-export pass;
//! * inline suppressions ([`suppress`]) allow audited exceptions but
//!   *require* a written justification, and error when stale;
//! * a spec-vs-code pass ([`resync`]) extracts the §4.3 resync transition
//!   table from `crates/core/src/rx.rs` and cross-checks it against the
//!   legal-edge set in `crates/scenario/src/invariant.rs`.
//!
//! Run with `cargo run -p ano-lint` (workspace root is inferred); CI runs
//! it as the `static analysis` tier before building anything. Heap
//! allocation is measured, not inferred: the allocation gate in
//! `crates/bench/tests/alloc_gate.rs` counts it per packet.

#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod resync;
pub mod rules;
pub mod suppress;

pub use diag::{Diagnostic, Severity};
pub use engine::{lint_source, lint_workspace, scope_for, GraphStats, Report};
pub use rules::FileScope;

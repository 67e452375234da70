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
//! * a token-level item scan ([`parser`]) and the dead-export pass over it
//!   ([`facts`]) flag `pub` items whose names occur nowhere else in the
//!   workspace;
//! * inline suppressions ([`suppress`]) allow audited exceptions but
//!   *require* a written justification, and error when stale;
//! * a spec-vs-code pass ([`resync`]) extracts the §4.3 resync transition
//!   table from `crates/core/src/rx.rs` and cross-checks it against the
//!   legal-edge set in `crates/scenario/src/invariant.rs`.
//!
//! Every rule is local to the tokens it reads; nothing is inferred across
//! calls. What a call graph would have to guess is measured instead: heap
//! allocation per packet by the allocation gate
//! (`crates/bench/tests/alloc_gate.rs`), panics by hostile-input properties
//! over the wire parsers (`crates/nvme/tests/hostile_input.rs`,
//! `crates/tls/tests/hostile_input.rs`), and cross-process nondeterminism by
//! CI's trace-hash comparison over the whole scenario registry.
//!
//! Run with `cargo run -p ano-lint` (workspace root is inferred); CI runs
//! it as the `static analysis` tier before building anything.

#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod facts;
pub mod lexer;
pub mod parser;
pub mod resync;
pub mod rules;
pub mod suppress;

pub use diag::{Diagnostic, Severity};
pub use engine::{lint_source, lint_workspace, scope_for, Report};
pub use rules::FileScope;

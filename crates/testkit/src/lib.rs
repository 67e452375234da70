//! In-repo property-based testing for the *Autonomous NIC Offloads*
//! reproduction — a hermetic stand-in for `proptest`, so `cargo test` needs
//! no registry access.
//!
//! Four pieces:
//!
//! * [`gen`] — composable seeded generators ([`gen::vec_u8`],
//!   [`gen::usize_in`], [`gen::vec_bool`], tuples, nesting) that also know
//!   how to *shrink* failing values;
//! * [`runner`] — the case loop: deterministic per-case seeds, panic
//!   capture, greedy shrinking, and replay instructions on failure
//!   (`ANO_TESTKIT_SEED=<seed> cargo test <name>`);
//! * [`prop_test!`] — a `proptest!`-like macro wrapping both;
//! * [`stream`] — seeded packet cuts of a byte stream.
//!
//! Regression seeds are replayed as *named cases* via [`runner::replay`]:
//! instead of proptest's opaque RNG-state hashes, the shrunk inputs are
//! committed verbatim in a regular `#[test]`, so they survive any harness
//! change (see `tests/proptests.rs` and `ano-tcp`'s loss-recovery replay).
//!
//! # Examples
//!
//! ```
//! // Macro form (expands to a `#[test]`):
//! ano_testkit::prop_test! {
//!     cases = 32;
//!     fn reverse_is_involutive(v in ano_testkit::gen::vec_u8(0..64)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(w, v);
//!     }
//! }
//!
//! // Builder form, usable anywhere:
//! let cfg = ano_testkit::Config::with_cases(16);
//! ano_testkit::check("sum_commutes", &cfg, &(ano_testkit::gen::vec_u8(0..32),), |(v,)| {
//!     let fwd: u64 = v.iter().map(|&b| b as u64).sum();
//!     let rev: u64 = v.iter().rev().map(|&b| b as u64).sum();
//!     assert_eq!(fwd, rev);
//! });
//! ```

pub mod gen;
pub mod runner;
pub mod stream;

pub use gen::Gen;
pub use runner::{check, replay, Config};

/// Declares a `#[test]` that checks a property over generated inputs.
///
/// Syntax mirrors `proptest!`: `cases = N;` then a function whose arguments
/// bind `name in generator` pairs. The body uses ordinary `assert!` macros.
#[macro_export]
macro_rules! prop_test {
    (
        cases = $cases:expr;
        $(#[$meta:meta])*
        fn $name:ident($($var:ident in $gen:expr),+ $(,)?) $body:block
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let cfg = $crate::Config::with_cases($cases);
            let gen = ($($gen,)+);
            $crate::check(stringify!($name), &cfg, &gen, |value| {
                let ($($var,)+) = value.clone();
                $body
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::gen::{usize_in, vec_u8};

    prop_test! {
        cases = 40;
        fn macro_binds_multiple_vars(data in vec_u8(1..128), cut in usize_in(0..128)) {
            let k = cut % data.len();
            let (a, b) = data.split_at(k);
            assert_eq!(a.len() + b.len(), data.len());
        }
    }

    prop_test! {
        cases = 8;
        fn macro_single_var(n in usize_in(1..100)) {
            assert!(n >= 1 && n < 100);
        }
    }
}

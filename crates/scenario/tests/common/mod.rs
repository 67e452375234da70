//! Committed-data comparison shared by the golden-trace and curve tests.
//!
//! # Regenerating after an intentional behavior change
//!
//! ```text
//! BLESS=1 cargo test -q -p ano-scenario
//! git diff crates/scenario/tests/golden/ crates/scenario/tests/expected/
//! ```
//!
//! Never bless blindly: the diff *is* the review artifact. A legitimate
//! change shifts timestamps or adds/removes recovery events; an illegal
//! ladder (e.g. `Tracking->Offloading`) means the resync machine broke and
//! the ordered-transition invariant should have caught it first.

use std::fs;
use std::path::PathBuf;

/// Compares `got` to the committed file `tests/<rel>` byte for byte (or
/// rewrites the file under `BLESS=1`) and returns the committed text.
pub fn check_committed(rel: &str, got: &str) -> String {
    assert!(!got.is_empty(), "{rel}: nothing to compare — the run produced no output");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join(rel);
    if std::env::var("BLESS").is_ok() {
        fs::write(&path, got).expect("write committed data");
        eprintln!("blessed {} ({} lines)", path.display(), got.lines().count());
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing {} ({e}); run with BLESS=1 to create it", path.display())
    });
    if got != want {
        let first = want
            .lines()
            .zip(got.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
        panic!(
            "{rel} mismatch at line {}:\n  committed: {}\n  got:       {}\n\
             ({} committed lines, {} actual). If the behavior change is intentional, \
             re-bless with BLESS=1 and review the diff.",
            first + 1,
            want.lines().nth(first).unwrap_or("<eof>"),
            got.lines().nth(first).unwrap_or("<eof>"),
            want.lines().count(),
            got.lines().count(),
        );
    }
    want
}

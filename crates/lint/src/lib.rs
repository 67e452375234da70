//! `ano-lint`: the workspace checks the compiler does not ship.
//!
//! The lint policy itself lives in the compiler: the root manifest's
//! `[workspace.lints]` table, `clippy.toml`, and the panic-freedom
//! `#![deny(...)]` atop the five per-packet hot-path files, run as
//! `cargo clippy --workspace` under `-D warnings` (this crate's
//! `tests/clippy_gate.rs` and CI's static-analysis stage). What remains
//! here is workspace-global, which no per-crate lint can see:
//!
//! * **dead exports** ([`facts`]): a `pub` item whose name occurs nowhere
//!   else in the workspace — not in any crate's `src/`, `tests/`,
//!   `benches/` or `examples/` — is API nobody calls;
//! * **expect counts**: the per-lint number of `#[expect(...)]` exceptions
//!   in `src/`, pinned by `tests/expected/allows.txt` so an exemption does
//!   not rise silently.
//!
//! Both read a token stream ([`lexer`]) through an item scan ([`parser`]);
//! there is no `syn` and no registry dependency. `src/` is scanned without
//! its `#[cfg(test)]` items — the same code `cargo clippy --workspace`
//! lints.

pub mod facts;
pub mod lexer;
pub mod parser;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, LineIndex};
use crate::parser::{ParsedFile, PubItem};

/// Result of a whole-workspace scan.
pub struct Report {
    /// `src/` files scanned.
    pub files: usize,
    /// Exported items nobody references, with their workspace-relative
    /// file.
    pub dead_exports: Vec<(String, PubItem)>,
    /// `#[expect(...)]` attributes in `src/` (test code excluded), per
    /// lint named.
    pub expects: BTreeMap<String, usize>,
}

/// Scans the workspace rooted at `root`: every `crates/*/src` tree and the
/// root package's `src/`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut src_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path().join("src")))
        .collect::<io::Result<_>>()?;
    src_dirs.push(root.join("src"));
    let mut files = Vec::new();
    for dir in src_dirs.iter().filter(|d| d.is_dir()) {
        collect_rs_files(dir, &mut files)?;
    }
    files.sort();

    let mut parsed: Vec<(String, ParsedFile)> = Vec::new();
    let mut expects = BTreeMap::new();
    for path in &files {
        let src = fs::read_to_string(path)?;
        let scan = parser::scan(&lex(&src), &LineIndex::new(&src));
        for lint in &scan.expects {
            *expects.entry(lint.clone()).or_insert(0) += 1;
        }
        let rel = path.strip_prefix(root).unwrap_or(path);
        parsed.push((rel.to_string_lossy().replace('\\', "/"), scan));
    }
    Ok(Report {
        files: files.len(),
        dead_exports: facts::dead_exports(&parsed, &extra_ident_counts(root)?),
        expects,
    })
}

/// Identifier usage counts from the `tests/`, `benches/` and `examples/`
/// trees of every crate and of the workspace root. The dead-export pass
/// treats any mention there as use.
fn extra_ident_counts(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    let mut bases = vec![root.to_path_buf()];
    for e in fs::read_dir(root.join("crates"))? {
        bases.push(e?.path());
    }
    let mut rs = Vec::new();
    for base in &bases {
        for sub in ["tests", "benches", "examples"] {
            let d = base.join(sub);
            if d.is_dir() {
                collect_rs_files(&d, &mut rs)?;
            }
        }
    }
    let mut out = BTreeMap::new();
    for path in rs {
        for (name, n) in parser::ident_counts(&lex(&fs::read_to_string(path)?)) {
            *out.entry(name).or_insert(0) += n;
        }
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for e in fs::read_dir(dir)? {
        let p = e?.path();
        if p.is_dir() {
            collect_rs_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

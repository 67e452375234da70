//! The lint gate: the workspace's lint policy (`[workspace.lints]` in the
//! root manifest, `clippy.toml`, the hot-path files' `#![deny(...)]`) holds
//! under `cargo clippy --workspace -D warnings`, and no member opts out of
//! it. A stale `#[expect]` fails here as `unfulfilled_lint_expectations`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn workspace_is_clippy_clean() {
    // Its own target dir, so the run never waits on the build lock of the
    // `cargo test` that runs it. Fails closed: no clippy is a failure.
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "-q", "--offline", "--workspace"])
        .current_dir(root())
        .env("RUSTFLAGS", "-D warnings")
        .env("CARGO_TARGET_DIR", root().join("target/clippy"))
        .output()
        .unwrap_or_else(|e| panic!("cannot run `cargo clippy`: {e}"));
    assert!(
        out.status.success(),
        "`cargo clippy --workspace` under -D warnings failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn every_member_inherits_workspace_lints() {
    let mut manifests = vec![root().join("Cargo.toml")];
    for e in fs::read_dir(root().join("crates")).expect("list crates/") {
        let m = e.expect("crates/ entry").path().join("Cargo.toml");
        if m.is_file() {
            manifests.push(m);
        }
    }
    assert!(
        manifests.len() > 10,
        "found only {} manifests",
        manifests.len()
    );
    for m in manifests {
        let text = fs::read_to_string(&m).expect("read manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lint table: add `[lints]\\nworkspace = true`",
            m.display()
        );
    }
}

//! The workspace pass over a fixture mini-workspace and over this
//! workspace: no dead exports, and the `#[expect(...)]` exceptions in
//! `src/` pinned per lint in `tests/expected/allows.txt`.

use std::fs;
use std::path::Path;

use ano_lint::lint_workspace;

#[test]
fn dead_export_fixture_workspace() {
    // `alpha` exports four items: `used` is called from `beta`, `tested`
    // only from alpha's tests/ tree, `orphan` and `Unused` by nobody — an
    // `#[expect]` on `Unused` does not hide it. `used_only_here` sits in a
    // test module and is no export.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/exports");
    let report = lint_workspace(&root).expect("scan fixture workspace");
    assert_eq!(report.files, 2);
    let d: Vec<_> = report
        .dead_exports
        .iter()
        .map(|(f, it)| (f.as_str(), it.line, it.kind, it.name.as_str()))
        .collect();
    assert_eq!(
        d,
        [
            ("crates/alpha/src/lib.rs", 5, "fn", "orphan"),
            ("crates/alpha/src/lib.rs", 9, "struct", "Unused"),
        ]
    );
    assert_eq!(
        report.expects.into_iter().collect::<Vec<_>>(),
        [("dead_code".to_string(), 1)]
    );
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("scan workspace");
    assert!(report.files > 50, "walked only {} files", report.files);
    assert!(
        report.dead_exports.is_empty(),
        "pub items nobody references (remove them or narrow their visibility):\n{}",
        report
            .dead_exports
            .iter()
            .map(|(f, it)| format!("{f}:{} pub {} `{}`", it.line, it.kind, it.name))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Exemptions do not rise silently: the per-lint count of `#[expect]`
    // attributes in src/ is pinned, so a new one is a reviewed diff.
    let mut got =
        String::from("# `#[expect(<lint>)]` attributes in src/ outside test code, per lint\n");
    for (lint, n) in &report.expects {
        got.push_str(&format!("expect({lint}) {n}\n"));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/expected/allows.txt");
    if std::env::var("BLESS").is_ok() {
        fs::write(&path, &got).expect("write allows.txt");
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "expect attributes moved from {}; if intended, re-bless with BLESS=1 and review the diff",
        path.display()
    );
}

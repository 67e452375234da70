//! The dead-export pass (`dead-export`): a `pub` item whose name occurs
//! nowhere in the workspace beyond its own definitions is API nobody
//! calls — not even tests, benches, or examples.
//!
//! Conservative by construction: any other mention of a name — a call, a
//! re-export, an `impl` block, a same-named item elsewhere — counts as
//! use, so a finding means the name is verifiably orphaned.

use std::collections::BTreeMap;

use crate::parser::{ParsedFile, PubItem};

/// The pass over every linted file (`(path, scan)` pairs) and the
/// identifier counts of the trees the rules do not cover (`tests/`,
/// `benches/`, `examples/`). An item is dead when its name's mentions do
/// not exceed its definitions: the fns of that name, or the same-named
/// exported items. Returns each dead item with its file.
pub fn dead_exports(
    files: &[(String, ParsedFile)],
    extra_idents: &BTreeMap<String, usize>,
) -> Vec<(String, PubItem)> {
    let mut mentions = extra_idents.clone();
    let mut fn_defs: BTreeMap<&str, usize> = BTreeMap::new();
    let mut item_defs: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, f) in files {
        for (name, n) in &f.ident_counts {
            *mentions.entry(name.clone()).or_insert(0) += n;
        }
        for name in &f.fn_defs {
            *fn_defs.entry(name).or_insert(0) += 1;
        }
        for it in f.items.iter().filter(|it| it.kind != "fn") {
            *item_defs.entry(&it.name).or_insert(0) += 1;
        }
    }
    let mut out = Vec::new();
    for (file, f) in files {
        for it in &f.items {
            let defs = if it.kind == "fn" { &fn_defs } else { &item_defs };
            let defs = defs.get(it.name.as_str()).copied().unwrap_or(1);
            if mentions.get(&it.name).copied().unwrap_or(0) > defs {
                continue;
            }
            out.push((file.clone(), it.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, LineIndex};
    use crate::parser::scan;

    fn files(srcs: &[(&str, &str)]) -> Vec<(String, ParsedFile)> {
        srcs.iter()
            .map(|(path, src)| (path.to_string(), scan(&lex(src), &LineIndex::new(src))))
            .collect()
    }

    #[test]
    fn dead_export_flags_orphans_only() {
        let f = files(&[
            ("crates/a/src/lib.rs", "pub fn used() {}\npub fn orphan() {}\npub struct Lonely;\n"),
            ("crates/b/src/lib.rs", "fn f() { used(); }"),
        ]);
        let d = dead_exports(&f, &BTreeMap::new());
        let d: Vec<_> = d.iter().map(|(f, it)| (f.as_str(), it.name.as_str(), it.kind)).collect();
        assert_eq!(
            d,
            [("crates/a/src/lib.rs", "orphan", "fn"), ("crates/a/src/lib.rs", "Lonely", "struct")]
        );
    }

    #[test]
    fn test_only_use_counts_as_use() {
        let f = files(&[("crates/a/src/lib.rs", "pub fn only_tested() {}\n")]);
        let mut extra = BTreeMap::new();
        extra.insert("only_tested".to_string(), 1usize); // a tests/ file calls it
        assert!(dead_exports(&f, &extra).is_empty());
    }

    #[test]
    fn a_same_named_fn_is_a_definition_not_a_use() {
        // Two fns named `go` and two mentions: neither is a call.
        let f = files(&[("crates/a/src/lib.rs", "pub fn go() {}\nimpl T { fn go(&self) {} }\n")]);
        assert_eq!(dead_exports(&f, &BTreeMap::new()).len(), 1);
    }
}

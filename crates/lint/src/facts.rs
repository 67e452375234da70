//! Fact propagation over the call graph: turns "this helper two crates
//! away can panic" into a hot-path diagnostic with the full call chain.
//!
//! Two fact lattices, each a may-analysis seeded by token patterns the
//! parser recorded and propagated along resolved call edges:
//!
//! * **may-panic** (`transitive-panic`): `unwrap`/`expect`, the panic
//!   macro family, slice indexing, integer `/`/`%` by a non-literal
//!   divisor;
//! * **nondeterminism taint** (`transitive-nondet`): wall-clock reads,
//!   OS threads, hash-ordered collections.
//!
//! Every fn annotated `// ano-lint: entry(hot-path)` is a root: any seed
//! reachable from a root (breadth-first, so chains are shortest) becomes a
//! diagnostic at the *seed site* — that is where the fix or the audited
//! `allow` belongs — carrying the entry→seed call chain.
//!
//! Allocation is not inferred here: the tier-1 allocation gate
//! (`crates/bench/tests/alloc_gate.rs`) measures it.

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, Severity};
use crate::graph::Graph;
use crate::parser::Fact;

/// Runs both lattices over `g` and returns their diagnostics.
///
/// `allow(file, line, rules)` must return true when an inline suppression
/// covers the given site for *any* of the rule ids (the transitive rule or
/// its per-file syntactic siblings — one audited allow covers both views),
/// marking the suppression used as a side effect.
pub fn analyze(g: &Graph, mut allow: impl FnMut(&str, usize, &[&str]) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let entries = g.entries();
    if entries.is_empty() {
        return out;
    }

    // Per-seed suppression check, evaluated once up front so suppressions
    // are marked used even for seeds that turn out to be unreachable (the
    // allow documents the site either way).
    // seed key: (node, seed index) → suppressed?
    let mut seed_allowed: BTreeMap<(usize, usize), bool> = BTreeMap::new();
    for (ni, node) in g.nodes.iter().enumerate() {
        for (si, seed) in node.item.seeds.iter().enumerate() {
            let mut rules: Vec<&str> = vec![seed.fact.rule()];
            rules.extend_from_slice(seed.fact.syntactic_rule());
            let covered = allow(&node.file, seed.line, &rules);
            seed_allowed.insert((ni, si), covered);
        }
    }

    let reach = multi_source_bfs(g, &entries);
    for fact in [Fact::Panic, Fact::Nondet] {
        // Diagnostics: one per (rule, file, line) with the shortest chain.
        let mut seen: BTreeMap<(&str, String, usize), ()> = BTreeMap::new();
        for (ni, node) in g.nodes.iter().enumerate() {
            if !reach.depth.contains_key(&ni) {
                continue;
            }
            for (si, seed) in node.item.seeds.iter().enumerate() {
                if seed.fact != fact || seed_allowed.get(&(ni, si)).copied().unwrap_or(false) {
                    continue;
                }
                let key = (fact.rule(), node.file.clone(), seed.line);
                if seen.contains_key(&key) {
                    continue;
                }
                seen.insert(key, ());
                let chain = reach.chain_to(g, ni);
                let entry_id = chain.first().cloned().unwrap_or_default();
                let entry_name = entry_id.split(" (").next().unwrap_or("").to_string();
                let depth = chain.len().saturating_sub(1);
                let verb = match fact {
                    Fact::Panic => "can panic mid-schedule and",
                    Fact::Nondet => "reads process-varying state and",
                };
                out.push(Diagnostic {
                    rule: fact.rule(),
                    severity: Severity::Error,
                    file: node.file.clone(),
                    line: seed.line,
                    col: 1,
                    message: format!(
                        "`{}` {verb} is reachable from hot-path entry `{entry_name}` \
                         ({depth} call{} deep); fix the site or add an audited \
                         `// ano-lint: allow({})` with a justification",
                        seed.what,
                        if depth == 1 { "" } else { "s" },
                        fact.rule(),
                    ),
                    chain,
                });
            }
        }
    }

    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });
    out
}

/// Reachability with shortest-path parents from a root set.
struct Reach {
    /// node → hops from the nearest root.
    depth: BTreeMap<usize, usize>,
    /// node → predecessor on a shortest path (roots map to themselves).
    parent: BTreeMap<usize, usize>,
}

impl Reach {
    /// The chain root → … → `node`, each hop `fn-id (file:def-line)`.
    fn chain_to(&self, g: &Graph, node: usize) -> Vec<String> {
        let mut rev = vec![node];
        let mut cur = node;
        while let Some(&p) = self.parent.get(&cur) {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.iter()
            .map(|&i| {
                let n = &g.nodes[i];
                format!("{} ({}:{})", n.item.id, n.file, n.item.line)
            })
            .collect()
    }
}

/// BFS over call edges from `roots`.
fn multi_source_bfs(g: &Graph, roots: &[usize]) -> Reach {
    let mut depth = BTreeMap::new();
    let mut parent = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    for &r in roots {
        depth.insert(r, 0usize);
        parent.insert(r, r);
        queue.push_back(r);
    }
    while let Some(i) = queue.pop_front() {
        let d = depth[&i];
        for e in &g.edges[i] {
            let j = e.callee;
            if depth.contains_key(&j) {
                continue;
            }
            depth.insert(j, d + 1);
            parent.insert(j, i);
            queue.push_back(j);
        }
    }
    Reach { depth, parent }
}

/// The dead-export pass: a `pub` item whose name occurs nowhere in the
/// workspace beyond its own definitions is API nobody calls — not even
/// tests, benches, or examples (`extra_idents` carries their identifier
/// counts, since those trees are not otherwise analyzed).
///
/// Conservative by construction: any other mention of the name — a call, a
/// re-export, an `impl` block, a same-named item elsewhere — counts as use,
/// so a finding means the name is verifiably orphaned. Trait-impl methods
/// are skipped (their names are the trait's choice, not an export), as are
/// `main`/bin roots.
pub fn dead_exports(
    g: &Graph,
    ident_totals: &BTreeMap<String, usize>,
    extra_idents: &BTreeMap<String, usize>,
) -> Vec<Diagnostic> {
    // How many tokens each name spends on *definitions* we know about.
    let mut def_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for n in &g.nodes {
        *def_counts.entry(n.item.name.as_str()).or_insert(0) += 1;
    }

    let mut out = Vec::new();
    let mut flag = |name: &str, kind: &str, file: &str, line: usize, defs: usize| {
        let total = ident_totals.get(name).copied().unwrap_or(0)
            + extra_idents.get(name).copied().unwrap_or(0);
        if total > defs {
            return;
        }
        out.push(Diagnostic {
            rule: "dead-export",
            severity: Severity::Warning,
            file: file.to_string(),
            line,
            col: 1,
            message: format!(
                "pub {kind} `{name}` is never referenced anywhere in the workspace \
                 (src, tests, benches, or examples); remove it or justify with \
                 `// ano-lint: allow(dead-export)`"
            ),
            chain: Vec::new(),
        });
    };

    for n in &g.nodes {
        let it = &n.item;
        // `entry(...)` fns are declared roots: invoked from outside the
        // graph by definition, so absence of callers is not deadness.
        if !it.is_pub || it.trait_impl || it.name == "main" || it.entry.is_some() {
            continue;
        }
        let defs = def_counts.get(it.name.as_str()).copied().unwrap_or(1);
        flag(&it.name, "fn", &n.file, it.line, defs);
    }
    // Non-fn pub items live on the parsed files; the graph carries only
    // fns, so the engine passes them through `ident_totals` and the caller
    // invokes `dead_pub_items` separately.
    out
}

/// Dead-export check for non-fn `pub` items (structs, enums, traits,
/// consts). `defs` for these is the count of same-named pub items — an
/// `impl` block or field mention elsewhere already counts as use.
pub fn dead_pub_items(
    items: &[(String, &'static str, String, usize)], // (name, kind, file, line)
    ident_totals: &BTreeMap<String, usize>,
    extra_idents: &BTreeMap<String, usize>,
) -> Vec<Diagnostic> {
    let mut def_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (name, _, _, _) in items {
        *def_counts.entry(name.as_str()).or_insert(0) += 1;
    }
    let mut out = Vec::new();
    for (name, kind, file, line) in items {
        let defs = def_counts.get(name.as_str()).copied().unwrap_or(1);
        let total = ident_totals.get(name).copied().unwrap_or(0)
            + extra_idents.get(name).copied().unwrap_or(0);
        if total > defs {
            continue;
        }
        out.push(Diagnostic {
            rule: "dead-export",
            severity: Severity::Warning,
            file: file.clone(),
            line: *line,
            col: 1,
            message: format!(
                "pub {kind} `{name}` is never referenced anywhere in the workspace \
                 (src, tests, benches, or examples); remove it or justify with \
                 `// ano-lint: allow(dead-export)`"
            ),
            chain: Vec::new(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::parser::parse_file;

    fn analyze_src(files: &[(&str, &str, &str)]) -> (Graph, Vec<Diagnostic>) {
        let parsed: Vec<_> = files
            .iter()
            .map(|(path, krate, src)| parse_file(path, krate, &[], src))
            .collect();
        let g = graph::build(&parsed);
        let r = analyze(&g, |_, _, _| false);
        (g, r)
    }

    #[test]
    fn transitive_panic_two_hops_with_chain() {
        let (_, r) = analyze_src(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "// ano-lint: entry(hot-path)\npub fn hot() { b::mid(); }",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
                "pub fn mid() { deep(); }\nfn deep(x: Option<u8>) { x.unwrap(); }",
            ),
        ]);
        let panics: Vec<_> = r.iter().filter(|d| d.rule == "transitive-panic").collect();
        assert_eq!(panics.len(), 1, "{:?}", r);
        let d = panics[0];
        assert_eq!(d.file, "crates/b/src/lib.rs");
        assert_eq!(d.chain.len(), 3, "{:?}", d.chain);
        assert!(d.chain[0].starts_with("a::hot "), "{:?}", d.chain);
        assert!(d.chain[2].starts_with("b::deep "), "{:?}", d.chain);
        assert!(d.message.contains("a::hot"), "{}", d.message);
    }

    #[test]
    fn unreachable_seed_is_silent() {
        let (_, r) = analyze_src(&[(
            "crates/a/src/lib.rs",
            "a",
            "// ano-lint: entry(hot-path)\npub fn hot() {}\nfn island(x: Option<u8>) { x.unwrap(); }",
        )]);
        assert!(r.is_empty(), "{:?}", r);
    }

    #[test]
    fn nondet_taint_propagates() {
        let (_, r) = analyze_src(&[(
            "crates/a/src/lib.rs",
            "a",
            "// ano-lint: entry(hot-path)\npub fn hot() { now(); }\n\
             fn now() -> u64 { let t = Instant::now(); 0 }",
        )]);
        assert_eq!(r.len(), 1, "{:?}", r);
        assert_eq!(r[0].rule, "transitive-nondet");
    }

    #[test]
    fn dead_export_flags_orphans_only() {
        let parsed = vec![
            parse_file(
                "crates/a/src/lib.rs",
                "a",
                &[],
                "pub fn used() {}\npub fn orphan() {}\n",
            ),
            parse_file("crates/b/src/lib.rs", "b", &[], "fn f() { used(); }"),
        ];
        let g = graph::build(&parsed);
        let mut totals = BTreeMap::new();
        for p in &parsed {
            for (k, v) in &p.ident_counts {
                *totals.entry(k.clone()).or_insert(0) += v;
            }
        }
        let d = dead_exports(&g, &totals, &BTreeMap::new());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`orphan`"), "{:?}", d[0]);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn test_only_use_counts_as_use() {
        let parsed = vec![parse_file(
            "crates/a/src/lib.rs",
            "a",
            &[],
            "pub fn only_tested() {}\n",
        )];
        let g = graph::build(&parsed);
        let mut totals = BTreeMap::new();
        for p in &parsed {
            for (k, v) in &p.ident_counts {
                *totals.entry(k.clone()).or_insert(0) += v;
            }
        }
        let mut extra = BTreeMap::new();
        extra.insert("only_tested".to_string(), 1usize); // a tests/ file calls it
        assert!(dead_exports(&g, &totals, &extra).is_empty());
    }
}

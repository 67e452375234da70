//! The cross-crate call graph: every parsed `fn` becomes a node keyed by
//! `crate::module::fn`, and every call site either resolves to edges or
//! lands in an explicit unresolved bucket.
//!
//! Resolution is heuristic by design — there is no type checker here — but
//! the heuristics err on the side the analysis needs:
//!
//! * **qualified calls** (`a::b::f`, `Type::f`, `Self::f`) match by path
//!   suffix, so cross-crate calls resolve without `use`-tracking;
//! * **bare calls** (`f(…)`) prefer the caller's module, then the caller's
//!   crate, then a workspace-unique match — unless `f` names a parameter
//!   of the caller or of one of its closures: that call goes through a
//!   value and counts as unresolved;
//! * **method calls** (`recv.m(…)`) resolve by receiver name: `self.m()`
//!   binds inside the caller's impl type; other receivers match a type
//!   whose name contains the receiver identifier (`nic` → `Nic`,
//!   `tcp` → `TcpSender`); a workspace-unique method name resolves
//!   regardless of receiver;
//! * anything that matches *some* workspace fn by name but cannot be
//!   pinned to one goes into [`Graph::unresolved`] — visible in the
//!   summary so the soundness gap is measured, not silent. Names that
//!   match nothing are std/core calls and are dropped.

use std::collections::BTreeMap;

use crate::parser::{CallSite, FnItem, ParsedFile};

/// One node of the call graph (a parsed fn plus its origin).
#[derive(Debug)]
pub struct Node {
    pub item: FnItem,
    /// Workspace-relative file the fn lives in.
    pub file: String,
    pub crate_name: String,
}

/// One resolved edge: `caller` calls `callee` at `line` of the caller's
/// file.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub callee: usize,
    pub line: usize,
}

/// A call site that named a workspace fn but could not be pinned to one.
#[derive(Debug)]
pub struct Unresolved {
    pub caller: usize,
    pub name: String,
    pub line: usize,
    pub candidates: usize,
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[i]` are the resolved callees of node `i`.
    pub edges: Vec<Vec<Edge>>,
    pub unresolved: Vec<Unresolved>,
    /// Crates that contributed at least one parsed file (even if fn-free).
    pub crates: Vec<String>,
}

impl Graph {
    /// Node index by fn id.
    pub fn node_by_id(&self, id: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.item.id == id)
    }

    /// All `entry(<class>)` nodes.
    pub fn entries(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].item.entry.is_some())
            .collect()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Builds the graph from every parsed file.
pub fn build(files: &[ParsedFile]) -> Graph {
    let mut g = Graph::default();
    for f in files {
        if !g.crates.contains(&f.crate_name) {
            g.crates.push(f.crate_name.clone());
        }
        for item in &f.fns {
            g.nodes.push(Node {
                item: item.clone(),
                file: f.path.clone(),
                crate_name: f.crate_name.clone(),
            });
        }
    }
    g.crates.sort();

    // Indexes. Method index excludes free fns (no impl type).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in g.nodes.iter().enumerate() {
        by_name.entry(&n.item.name).or_default().push(i);
        if n.item.impl_type.is_some() {
            methods.entry(&n.item.name).or_default().push(i);
        }
    }

    g.edges = vec![Vec::new(); g.nodes.len()];
    for caller in 0..g.nodes.len() {
        // The split keeps the borrow checker happy: resolution only reads.
        let calls = g.nodes[caller].item.calls.clone();
        for call in &calls {
            match resolve(&g, &by_name, &methods, caller, call) {
                Resolution::Edges(targets) => {
                    for t in targets {
                        g.edges[caller].push(Edge {
                            callee: t,
                            line: call.line(),
                        });
                    }
                }
                Resolution::Unresolved { name, candidates } => {
                    g.unresolved.push(Unresolved {
                        caller,
                        name,
                        line: call.line(),
                        candidates,
                    });
                }
                Resolution::External => {}
            }
        }
    }
    g
}

enum Resolution {
    Edges(Vec<usize>),
    Unresolved { name: String, candidates: usize },
    External,
}

/// `snake_or_lower` matches type `CamelCase`? Used for receiver hints:
/// strip `_`, lowercase the type, and test containment (`lru` → `LruSet`,
/// `tcp` → `TcpSender`, `nic` → `Nic`). Short receivers (< 3 chars) only
/// match exactly, so `c`/`h` never bind by accident.
fn receiver_matches(receiver: &str, ty: &str) -> bool {
    let r: String = receiver.chars().filter(|c| *c != '_').collect::<String>().to_lowercase();
    let t = ty.to_lowercase();
    if r.is_empty() {
        return false;
    }
    if r.len() < 3 {
        return r == t;
    }
    t.contains(&r) || r.contains(&t)
}

fn resolve(
    g: &Graph,
    by_name: &BTreeMap<&str, Vec<usize>>,
    methods: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    call: &CallSite,
) -> Resolution {
    match call {
        CallSite::Direct { path, .. } => resolve_direct(g, by_name, caller, path),
        CallSite::Method { name, receiver, .. } => {
            resolve_method(g, methods, caller, name, receiver.as_deref())
        }
    }
}

fn resolve_direct(
    g: &Graph,
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    path: &[String],
) -> Resolution {
    let Some(name) = path.last() else {
        return Resolution::External;
    };
    let Some(cands) = by_name.get(name.as_str()) else {
        return Resolution::External;
    };

    if path.len() >= 2 {
        let qual = &path[path.len() - 2];
        // `Self::f` / `Type::f`: an impl-type-qualified associated call.
        let ty_target = if qual == "Self" {
            g.nodes[caller].item.impl_type.clone()
        } else if qual.chars().next().is_some_and(char::is_uppercase) {
            Some(qual.clone())
        } else {
            None
        };
        if let Some(ty) = ty_target {
            let hits: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| g.nodes[i].item.impl_type.as_deref() == Some(ty.as_str()))
                .collect();
            return finish(name, cands.len(), hits);
        }
        // Module-qualified: match the path suffix against the node id,
        // ignoring leading `crate`/`super`/`self` segments and mapping the
        // `ano_x` crate-name spelling onto the `x` directory name.
        let suffix: Vec<&str> = path
            .iter()
            .map(String::as_str)
            .filter(|s| !matches!(*s, "crate" | "super" | "self"))
            .map(|s| s.strip_prefix("ano_").unwrap_or(s))
            .collect();
        let hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| id_has_suffix(&g.nodes[i].item.id, &suffix))
            .collect();
        return finish(name, cands.len(), hits);
    }

    // A bare call through a parameter (`f(x)` with `f: impl Fn(..)`, or a
    // closure argument) calls a value: no free fn of that name is the
    // callee, whatever its module.
    let c = &g.nodes[caller];
    if c.item.params.contains(name) {
        return Resolution::Unresolved {
            name: name.clone(),
            candidates: cands.len(),
        };
    }
    // Bare call: same module, then same crate, then workspace-unique.
    let same_mod: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| {
            g.nodes[i].crate_name == c.crate_name
                && g.nodes[i].item.module == c.item.module
                && g.nodes[i].item.impl_type.is_none()
        })
        .collect();
    if !same_mod.is_empty() {
        return Resolution::Edges(same_mod);
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| g.nodes[i].crate_name == c.crate_name && g.nodes[i].item.impl_type.is_none())
        .collect();
    if !same_crate.is_empty() {
        return Resolution::Edges(same_crate);
    }
    let free: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| g.nodes[i].item.impl_type.is_none())
        .collect();
    finish(name, cands.len(), free)
}

/// Does `id` (`crate::m1::m2::[Type::]name[#k]`) end with the call-path
/// segments, in order? The id's optional `#k` disambiguator is stripped.
fn id_has_suffix(id: &str, suffix: &[&str]) -> bool {
    let segs: Vec<&str> = id.split("::").map(|s| s.split('#').next().unwrap_or(s)).collect();
    if suffix.len() > segs.len() {
        return false;
    }
    // The suffix may skip the impl-type segment (`m::f` matching
    // `crate::m::Type::f`): try both the strict tail and the tail with the
    // type segment removed.
    if segs.ends_with(suffix) {
        return true;
    }
    if segs.len() >= 2 {
        let mut no_ty = segs.clone();
        no_ty.remove(segs.len() - 2);
        return no_ty.ends_with(suffix);
    }
    false
}

fn resolve_method(
    g: &Graph,
    methods: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    name: &str,
    receiver: Option<&str>,
) -> Resolution {
    let Some(cands) = methods.get(name) else {
        return Resolution::External;
    };
    if cands.len() == 1 {
        return Resolution::Edges(cands.clone());
    }
    // `self.m()` binds inside the caller's own impl type first.
    if receiver == Some("self") {
        if let Some(ty) = g.nodes[caller].item.impl_type.as_deref() {
            let hits: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| g.nodes[i].item.impl_type.as_deref() == Some(ty))
                .collect();
            if !hits.is_empty() {
                return Resolution::Edges(hits);
            }
        }
    }
    if let Some(r) = receiver.filter(|r| *r != "self") {
        let hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                g.nodes[i]
                    .item
                    .impl_type
                    .as_deref()
                    .is_some_and(|t| receiver_matches(r, t))
            })
            .collect();
        if !hits.is_empty() {
            return Resolution::Edges(hits);
        }
    }
    Resolution::Unresolved {
        name: name.to_string(),
        candidates: cands.len(),
    }
}

fn finish(name: &str, total: usize, hits: Vec<usize>) -> Resolution {
    match hits.len() {
        0 => {
            if total == 0 {
                Resolution::External
            } else {
                Resolution::Unresolved {
                    name: name.to_string(),
                    candidates: total,
                }
            }
        }
        _ => Resolution::Edges(hits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph_of(files: &[(&str, &str, &[&str], &str)]) -> Graph {
        let parsed: Vec<_> = files
            .iter()
            .map(|(path, krate, mods, src)| {
                let mods: Vec<String> = mods.iter().map(|s| s.to_string()).collect();
                parse_file(path, krate, &mods, src)
            })
            .collect();
        build(&parsed)
    }

    fn edge_ids(g: &Graph, from: &str) -> Vec<String> {
        let i = g.node_by_id(from).unwrap_or_else(|| panic!("no node {from}"));
        let mut out: Vec<String> = g.edges[i]
            .iter()
            .map(|e| g.nodes[e.callee].item.id.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn bare_call_prefers_same_module_then_crate() {
        let g = graph_of(&[
            ("crates/a/src/m.rs", "a", &["m"], "fn f() { helper(); } fn helper() {}"),
            ("crates/a/src/n.rs", "a", &["n"], "fn helper() {}"),
            ("crates/b/src/m.rs", "b", &["m"], "fn helper() {}"),
        ]);
        assert_eq!(edge_ids(&g, "a::m::f"), ["a::m::helper"]);
    }

    #[test]
    fn qualified_call_resolves_cross_crate() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "a", &[], "fn f() { b::util::helper(); ano_c::deep(); }"),
            ("crates/b/src/util.rs", "b", &["util"], "pub fn helper() {}"),
            ("crates/c/src/lib.rs", "c", &[], "pub fn deep() {}"),
        ]);
        assert_eq!(edge_ids(&g, "a::f"), ["b::util::helper", "c::deep"]);
    }

    #[test]
    fn type_qualified_and_self_calls() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            &[],
            "struct Nic; impl Nic { fn new() -> Nic { Nic } fn go(&self) { Self::new(); } }\n\
             fn f() { Nic::new(); }",
        )]);
        assert_eq!(edge_ids(&g, "a::f"), ["a::Nic::new"]);
        assert_eq!(edge_ids(&g, "a::Nic::go"), ["a::Nic::new"]);
    }

    #[test]
    fn method_receiver_heuristics() {
        let g = graph_of(&[
            (
                "crates/core/src/nic.rs",
                "core",
                &["nic"],
                "pub struct Nic; impl Nic { pub fn rx_process(&mut self) {} pub fn poll(&self) {} }",
            ),
            (
                "crates/tcp/src/sender.rs",
                "tcp",
                &["sender"],
                "pub struct TcpSender; impl TcpSender { pub fn poll(&self) {} }",
            ),
            (
                "crates/stack/src/rt.rs",
                "stack",
                &["rt"],
                "fn pump(nic: &mut Nic, tcp: &TcpSender) { nic.rx_process(); nic.poll(); tcp.poll(); }",
            ),
        ]);
        // rx_process: workspace-unique → resolves without the receiver.
        // poll: ambiguous, pinned by receiver name on both sides.
        assert_eq!(
            edge_ids(&g, "stack::rt::pump"),
            ["core::nic::Nic::poll", "core::nic::Nic::rx_process", "tcp::sender::TcpSender::poll"]
        );
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
    }

    #[test]
    fn ambiguous_method_goes_to_unresolved_bucket() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "a", &[], "struct A; impl A { fn go(&self) {} }"),
            ("crates/b/src/lib.rs", "b", &[], "struct B; impl B { fn go(&self) {} }"),
            (
                "crates/c/src/lib.rs",
                "c",
                &[],
                "fn f(x: &Thing) { x.go(); }",
            ),
        ]);
        assert!(edge_ids(&g, "c::f").is_empty());
        assert_eq!(g.unresolved.len(), 1);
        assert_eq!(g.unresolved[0].name, "go");
        assert_eq!(g.unresolved[0].candidates, 2);
    }

    #[test]
    fn std_calls_are_external_not_unresolved() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            &[],
            "fn f(v: &[u8]) { v.iter(); String::from(\"x\"); std::mem::take(&mut 0); }",
        )]);
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn crates_are_recorded_even_when_fn_free() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "a", &[], "pub use x::Y;"),
            ("crates/b/src/lib.rs", "b", &[], "fn f() {}"),
        ]);
        assert_eq!(g.crates, ["a", "b"]);
    }
}

//! A lightweight item extractor over the lexer: turns one file's token
//! stream into `fn` items with their call sites and fact seeds.
//!
//! Deliberately *not* a full parser — the call-graph pass needs exactly
//! four things from each file, and a brace-matching walk over the token
//! stream delivers all of them without `syn`:
//!
//! * **items**: `fn` definitions with their enclosing `mod` path and
//!   `impl`/`trait` context (so each gets a stable workspace-unique id of
//!   the form `crate::module::Type::fn`);
//! * **call sites**: qualified calls (`a::b::f(…)`, `Self::f(…)`),
//!   bare calls (`f(…)`), and method calls (`recv.m(…)`) with the
//!   receiver identifier kept as a resolution hint, plus the names of the
//!   fn's own and its closures' parameters (a bare call through one of
//!   those is a call through a value, not to a free fn);
//! * **fact seeds**: the token patterns that *introduce* a panic
//!   (`unwrap`/`expect`/`panic!`/`assert!`/slice-index/integer-div) or
//!   nondeterminism (wall clock, OS threads, hash-ordered collections);
//! * **annotations**: `// ano-lint: entry(hot-path)` marks the fn that
//!   follows as a hot-path root the fact pass must prove clean.
//!
//! `#[cfg(test)]` modules and items are pruned entirely: a test twin of a
//! hot-path helper must never contribute edges or seeds.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, LineIndex, Token, TokenKind};
use crate::rules;

/// Which fact lattice a seed feeds (see `facts`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fact {
    /// The site can panic and unwind the whole schedule.
    Panic,
    /// The site reads process-varying state (clock, OS scheduler, hash
    /// ordering) that would leak into traces.
    Nondet,
}

impl Fact {
    /// The transitive rule id findings of this fact report under.
    pub fn rule(self) -> &'static str {
        match self {
            Fact::Panic => "transitive-panic",
            Fact::Nondet => "transitive-nondet",
        }
    }

    /// The per-file syntactic rule whose suppression also kills seeds of
    /// this fact (so one audited `allow` covers both views of a site).
    pub fn syntactic_rule(self) -> &'static [&'static str] {
        match self {
            Fact::Panic => &["hot-path-panic", "hot-path-index"],
            Fact::Nondet => &["hash-collection", "wall-clock", "thread"],
        }
    }
}

/// One fact-introducing site inside a fn body.
#[derive(Clone, Debug)]
pub struct Seed {
    pub fact: Fact,
    /// 1-based source line of the site.
    pub line: usize,
    /// Human-readable site description (`.unwrap()`, `slice-index`, …).
    pub what: String,
}

/// One call site inside a fn body.
#[derive(Clone, Debug)]
pub enum CallSite {
    /// `f(…)`, `a::b::f(…)`, `Self::f(…)`, `Type::f(…)`. The path keeps
    /// every segment the source spelled.
    Direct { path: Vec<String>, line: usize },
    /// `recv.m(…)` — `receiver` is the identifier immediately left of the
    /// dot when there is one (`self`, `nic`, `tcp`, …), the resolution
    /// hint `graph` keys its heuristics on.
    Method {
        name: String,
        receiver: Option<String>,
        line: usize,
    },
}

impl CallSite {
    pub fn line(&self) -> usize {
        match self {
            CallSite::Direct { line, .. } | CallSite::Method { line, .. } => *line,
        }
    }
}

/// One extracted `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Workspace-unique id: `crate::module::fn` or `crate::module::Type::fn`.
    pub id: String,
    /// Bare fn name.
    pub name: String,
    /// Module path inside the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// Inherent/trait-impl type or trait name, if inside an `impl`/`trait`.
    pub impl_type: Option<String>,
    /// True when the fn lives in an `impl Trait for Type` block (its name
    /// is dictated by the trait, so it is never a "dead export").
    pub trait_impl: bool,
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub calls: Vec<CallSite>,
    /// Parameter names of the fn and of every closure in its body. A bare
    /// call `f(…)` through one of them calls a value, so `graph` must not
    /// bind it to a same-named free fn.
    pub params: Vec<String>,
    pub seeds: Vec<Seed>,
    /// `entry(<class>)` annotation, e.g. `hot-path`.
    pub entry: Option<String>,
}

/// A `pub` item other than `fn` (struct/enum/trait/const/static/type),
/// tracked for the dead-export pass.
#[derive(Clone, Debug)]
pub struct PubItem {
    pub name: String,
    pub kind: &'static str,
    pub line: usize,
}

/// Everything the workspace passes need from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub path: String,
    pub crate_name: String,
    pub fns: Vec<FnItem>,
    pub pub_items: Vec<PubItem>,
    /// Every identifier token in the file (test modules included) with a
    /// count — the dead-export pass marks a name "used" when it occurs
    /// anywhere beyond its own definitions.
    pub ident_counts: std::collections::BTreeMap<String, usize>,
    /// Malformed `entry` annotations.
    pub diags: Vec<Diagnostic>,
}

/// Entry classes `entry(<class>)` may name.
pub const ENTRY_CLASSES: &[&str] = &["hot-path"];

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut",
    "pub", "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

const PANIC_MACROS: &[&str] = &[
    "panic", "assert", "assert_eq", "assert_ne", "todo", "unimplemented", "unreachable",
];

/// Parses one file into items, call sites, seeds, and annotations.
///
/// `file_mod` is the module path the file's location implies
/// (`crates/core/src/rx.rs` → `["rx"]`, `src/lib.rs` → `[]`).
pub fn parse_file(path: &str, crate_name: &str, file_mod: &[String], src: &str) -> ParsedFile {
    let lexed = lex(src);
    let lines = LineIndex::new(src);
    let test_spans = rules::test_spans(&lexed);

    let mut out = ParsedFile {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        ..Default::default()
    };

    for t in &lexed.tokens {
        if let TokenKind::Ident(s) = &t.kind {
            *out.ident_counts.entry(s.clone()).or_insert(0) += 1;
        }
    }

    // `entry` annotations, in offset order; each binds to the next
    // extracted fn.
    let mut anns: Vec<Ann> = Vec::new();
    for c in &lexed.comments {
        let Some(rest) = c.text.strip_prefix("ano-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(kind) = rest.strip_prefix("entry") else {
            continue; // allow/allow-file directives belong to `suppress`
        };
        let (line, col) = lines.line_col(c.off);
        let arg = kind
            .trim_start()
            .strip_prefix('(')
            .and_then(|s| s.rfind(')').map(|i| s[..i].trim().to_string()));
        let bad = |msg: String| Diagnostic {
            rule: "bad-entry",
            severity: Severity::Error,
            file: path.to_string(),
            line,
            col,
            message: msg,
            chain: Vec::new(),
        };
        match arg {
            None => out.diags.push(bad(format!(
                "malformed annotation `{rest}`; expected `entry(<class>)`"
            ))),
            Some(a) if !ENTRY_CLASSES.contains(&a.as_str()) => out.diags.push(bad(format!(
                "entry({a}) names an unknown entry class; known classes: {}",
                ENTRY_CLASSES.join(", ")
            ))),
            Some(a) => anns.push(Ann {
                off: c.off,
                line,
                arg: a,
                used: false,
            }),
        }
    }

    let mut w = Walker {
        toks: &lexed.tokens,
        lines: &lines,
        test_spans: &test_spans,
        crate_name,
        anns: &mut anns,
        out_fns: Vec::new(),
        out_pub: Vec::new(),
        id_seen: std::collections::BTreeMap::new(),
    };
    let n = w.toks.len();
    let mut mods: Vec<String> = file_mod.to_vec();
    w.walk_items(0, n, &mut mods, None);
    out.fns = std::mem::take(&mut w.out_fns);
    out.pub_items = std::mem::take(&mut w.out_pub);

    for a in anns.iter().filter(|a| !a.used) {
        out.diags.push(Diagnostic {
            rule: "bad-entry",
            severity: Severity::Error,
            file: path.to_string(),
            line: a.line,
            col: 1,
            message: format!("`entry({})` annotation does not precede a fn item", a.arg),
            chain: Vec::new(),
        });
    }

    out
}

struct Ann {
    off: usize,
    line: usize,
    arg: String,
    used: bool,
}

/// Impl/trait context a fn is extracted under.
#[derive(Clone)]
struct ImplCtx {
    ty: String,
    trait_impl: bool,
}

struct Walker<'a> {
    toks: &'a [Token],
    lines: &'a LineIndex,
    test_spans: &'a [(usize, usize)],
    crate_name: &'a str,
    anns: &'a mut Vec<Ann>,
    out_fns: Vec<FnItem>,
    out_pub: Vec<PubItem>,
    /// Id → times seen, to keep ids unique (`X::fmt` from two trait impls).
    id_seen: std::collections::BTreeMap<String, usize>,
}

impl Walker<'_> {
    fn in_test(&self, off: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| off >= a && off < b)
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        self.toks.get(i).and_then(Token::ident)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// Index one past the `]` matching the `[` that follows a `#`/`#!` at
    /// `i` (which points at `#`).
    fn skip_attr(&self, i: usize) -> (usize, bool) {
        let mut j = i + 1;
        if self.is_punct(j, '!') {
            j += 1;
        }
        if !self.is_punct(j, '[') {
            return (i + 1, false);
        }
        // Detect `cfg(test)` / `cfg(any(test, …))` inside the attribute.
        let end = self.match_delim(j, '[', ']');
        let mut cfg_test = false;
        let mut k = j;
        while k + 3 < end {
            if self.ident_at(k) == Some("cfg")
                && self.is_punct(k + 1, '(')
                && self.toks[k + 2..end].iter().any(|t| t.ident() == Some("test"))
            {
                cfg_test = true;
                break;
            }
            k += 1;
        }
        (end, cfg_test)
    }

    /// Index one past the delimiter matching `open` at index `i`.
    fn match_delim(&self, i: usize, open: char, close: char) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.toks.len() {
            if self.toks[j].is_punct(open) {
                depth += 1;
            } else if self.toks[j].is_punct(close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.toks.len()
    }

    /// Skips a balanced `<…>` generic group starting at `i` (pointing at
    /// `<`). Counts angles naively — enough for item signatures, where
    /// comparison operators cannot appear.
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < self.toks.len() {
            if self.toks[j].is_punct('<') {
                depth += 1;
            } else if self.toks[j].is_punct('>') {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.toks.len()
    }

    /// Walks item positions in `[i, end)`; `mods` is the module path,
    /// `ictx` the enclosing impl/trait.
    fn walk_items(&mut self, mut i: usize, end: usize, mods: &mut Vec<String>, ictx: Option<&ImplCtx>) {
        let mut pending_pub = false;
        let mut pending_cfg_test = false;
        while i < end {
            // Prune #[cfg(test)] mod bodies wholesale.
            if self.in_test(self.toks[i].off) {
                i += 1;
                continue;
            }
            if self.is_punct(i, '#') {
                let (j, cfg_test) = self.skip_attr(i);
                pending_cfg_test |= cfg_test;
                i = j;
                continue;
            }
            let kw: Option<String> = self.ident_at(i).map(str::to_string);
            match kw.as_deref() {
                Some("pub") => {
                    pending_pub = true;
                    i += 1;
                    // Skip `(crate)` / `(super)` / `(in …)` restrictions —
                    // those are not exports.
                    if self.is_punct(i, '(') {
                        pending_pub = false;
                        i = self.match_delim(i, '(', ')');
                    }
                }
                Some("mod") => {
                    let name = self.ident_at(i + 1).unwrap_or("").to_string();
                    if self.is_punct(i + 2, '{') {
                        let body_end = self.match_delim(i + 2, '{', '}');
                        if !pending_cfg_test {
                            mods.push(name);
                            self.walk_items(i + 3, body_end - 1, mods, None);
                            mods.pop();
                        }
                        i = body_end;
                    } else {
                        i += 2; // `mod name;` — file module, walked separately
                    }
                    pending_pub = false;
                    pending_cfg_test = false;
                }
                Some("impl") => {
                    // `impl<G> Type { … }` / `impl Trait for Type { … }`.
                    let mut j = i + 1;
                    if self.is_punct(j, '<') {
                        j = self.skip_angles(j);
                    }
                    let mut last_ident: Option<String> = None;
                    let mut after_for: Option<String> = None;
                    let mut saw_for = false;
                    while j < end && !self.is_punct(j, '{') {
                        match self.ident_at(j) {
                            Some("for") => {
                                saw_for = true;
                                j += 1;
                            }
                            Some("where") => break,
                            Some(s) => {
                                if saw_for {
                                    after_for = Some(s.to_string());
                                } else {
                                    last_ident = Some(s.to_string());
                                }
                                j += 1;
                            }
                            None => {
                                if self.is_punct(j, '<') {
                                    j = self.skip_angles(j);
                                } else {
                                    j += 1;
                                }
                            }
                        }
                    }
                    while j < end && !self.is_punct(j, '{') {
                        j += 1;
                    }
                    if j >= end {
                        i = end;
                        continue;
                    }
                    let body_end = self.match_delim(j, '{', '}');
                    if !pending_cfg_test {
                        let ty = after_for.clone().or(last_ident).unwrap_or_default();
                        let ictx = ImplCtx {
                            ty,
                            trait_impl: saw_for,
                        };
                        self.walk_items(j + 1, body_end - 1, mods, Some(&ictx));
                    }
                    i = body_end;
                    pending_pub = false;
                    pending_cfg_test = false;
                }
                Some("trait") => {
                    let name = self.ident_at(i + 1).unwrap_or("").to_string();
                    if pending_pub && !name.is_empty() {
                        self.out_pub.push(PubItem {
                            name: name.clone(),
                            kind: "trait",
                            line: self.lines.line(self.toks[i].off),
                        });
                    }
                    let mut j = i + 2;
                    while j < end && !self.is_punct(j, '{') && !self.is_punct(j, ';') {
                        j += 1;
                    }
                    if self.is_punct(j, '{') {
                        let body_end = self.match_delim(j, '{', '}');
                        if !pending_cfg_test {
                            // Default trait methods carry real bodies.
                            let ictx = ImplCtx {
                                ty: name,
                                trait_impl: true,
                            };
                            self.walk_items(j + 1, body_end - 1, mods, Some(&ictx));
                        }
                        i = body_end;
                    } else {
                        i = j + 1;
                    }
                    pending_pub = false;
                    pending_cfg_test = false;
                }
                Some("fn") => {
                    i = self.handle_fn(i, end, mods, ictx, pending_pub, pending_cfg_test);
                    pending_pub = false;
                    pending_cfg_test = false;
                }
                Some(k @ ("struct" | "enum" | "union")) => {
                    let name = self.ident_at(i + 1).unwrap_or("").to_string();
                    if pending_pub && !pending_cfg_test && !name.is_empty() {
                        self.out_pub.push(PubItem {
                            name,
                            kind: if k == "enum" { "enum" } else { "struct" },
                            line: self.lines.line(self.toks[i].off),
                        });
                    }
                    // Skip the body so field types don't read as calls.
                    let mut j = i + 2;
                    while j < end && !self.is_punct(j, '{') && !self.is_punct(j, ';') && !self.is_punct(j, '(') {
                        j += 1;
                    }
                    i = if self.is_punct(j, '{') {
                        self.match_delim(j, '{', '}')
                    } else if self.is_punct(j, '(') {
                        self.match_delim(j, '(', ')')
                    } else {
                        j + 1
                    };
                    pending_pub = false;
                    pending_cfg_test = false;
                }
                Some(kc @ ("const" | "static" | "type")) => {
                    let k: &'static str = match kc {
                        "const" => "const",
                        "static" => "static",
                        _ => "type",
                    };
                    // `const fn` is handled by the `fn` arm on the next token.
                    if self.ident_at(i + 1) == Some("fn") {
                        i += 1;
                        continue;
                    }
                    let name = self.ident_at(i + 1).unwrap_or("").to_string();
                    if pending_pub && !pending_cfg_test && !name.is_empty() && ictx.is_none() {
                        self.out_pub.push(PubItem {
                            name,
                            kind: k,
                            line: self.lines.line(self.toks[i].off),
                        });
                    }
                    while i < end && !self.is_punct(i, ';') {
                        // Const initializers can hold braces (arrays of
                        // structs); skip groups to find the true `;`.
                        if self.is_punct(i, '{') {
                            i = self.match_delim(i, '{', '}');
                        } else {
                            i += 1;
                        }
                    }
                    i += 1;
                    pending_pub = false;
                    pending_cfg_test = false;
                }
                _ => {
                    i += 1;
                    pending_pub = false;
                }
            }
        }
    }

    /// `i` points at the `fn` keyword. Extracts the item and returns the
    /// index one past its body (or its `;`).
    fn handle_fn(
        &mut self,
        i: usize,
        end: usize,
        mods: &mut Vec<String>,
        ictx: Option<&ImplCtx>,
        is_pub: bool,
        cfg_test: bool,
    ) -> usize {
        let fn_off = self.toks[i].off;
        let Some(name) = self.ident_at(i + 1).map(str::to_string) else {
            return i + 1;
        };
        // Signature runs to the body `{` or a declaration `;`; generics and
        // parens are skipped as groups so a closure default like
        // `fn f(g: impl Fn() -> Vec<u8>)` cannot end the scan early.
        let mut j = i + 2;
        let mut body_start = None;
        while j < end {
            if self.is_punct(j, '{') {
                body_start = Some(j);
                break;
            }
            if self.is_punct(j, ';') {
                break;
            }
            if self.is_punct(j, '(') {
                j = self.match_delim(j, '(', ')');
            } else if self.is_punct(j, '[') {
                // An array return type `[u8; N]` holds a `;` that is not a
                // declaration terminator.
                j = self.match_delim(j, '[', ']');
            } else if self.is_punct(j, '<') {
                j = self.skip_angles(j);
            } else {
                j += 1;
            }
        }
        let Some(body_start) = body_start else {
            // Bodyless declaration (trait method, extern) — no item.
            return j + 1;
        };
        let body_end = self.match_delim(body_start, '{', '}');

        if cfg_test {
            return body_end;
        }

        // Bind the closest preceding unused annotation.
        let mut entry = None;
        for a in self.anns.iter_mut() {
            if !a.used && a.off < fn_off {
                a.used = true;
                entry = Some(a.arg.clone());
            }
        }

        let mut id = String::new();
        id.push_str(self.crate_name);
        for m in mods.iter() {
            id.push_str("::");
            id.push_str(m);
        }
        if let Some(c) = ictx {
            id.push_str("::");
            id.push_str(&c.ty);
        }
        id.push_str("::");
        id.push_str(&name);
        let seen = self.id_seen.entry(id.clone()).or_insert(0);
        *seen += 1;
        if *seen > 1 {
            id.push_str(&format!("#{seen}"));
        }

        let mut item = FnItem {
            id,
            name,
            module: mods.clone(),
            impl_type: ictx.map(|c| c.ty.clone()),
            trait_impl: ictx.is_some_and(|c| c.trait_impl),
            is_pub,
            line: self.lines.line(fn_off),
            calls: Vec::new(),
            params: self.param_names(i + 2, body_start),
            seeds: Vec::new(),
            entry,
        };
        self.scan_body(body_start + 1, body_end - 1, mods, ictx, &mut item);
        self.out_fns.push(item);
        body_end
    }

    /// Scans a fn body for call sites and seeds. Nested items recurse back
    /// into `walk_items` (a nested fn is its own node); closure bodies stay
    /// part of the enclosing fn, which is exactly the attribution the fact
    /// pass wants (the panic executes on the enclosing fn's path).
    fn scan_body(
        &mut self,
        mut i: usize,
        end: usize,
        mods: &mut Vec<String>,
        ictx: Option<&ImplCtx>,
        item: &mut FnItem,
    ) {
        while i < end {
            let t = &self.toks[i];
            if self.in_test(t.off) {
                i += 1;
                continue;
            }
            match &t.kind {
                TokenKind::Ident(name) => {
                    match name.as_str() {
                        "fn" | "mod" | "impl" | "trait" => {
                            // Nested item: let the item walker own it.
                            let before = i;
                            let consumed = self.walk_one_nested(i, end, mods, ictx);
                            i = consumed.max(before + 1);
                            continue;
                        }
                        _ => {}
                    }
                    if KEYWORDS.contains(&name.as_str()) {
                        i += 1;
                        continue;
                    }
                    let line = self.lines.line(t.off);
                    // Macro invocation `name!(…)`.
                    if self.is_punct(i + 1, '!') {
                        if PANIC_MACROS.contains(&name.as_str()) {
                            item.seeds.push(Seed {
                                fact: Fact::Panic,
                                line,
                                what: format!("{name}!"),
                            });
                        }
                        i += 2;
                        continue;
                    }
                    // Nondeterminism sources by bare name.
                    match name.as_str() {
                        "Instant" | "SystemTime" => item.seeds.push(Seed {
                            fact: Fact::Nondet,
                            line,
                            what: format!("std::time::{name}"),
                        }),
                        "HashMap" | "HashSet" => item.seeds.push(Seed {
                            fact: Fact::Nondet,
                            line,
                            what: format!("{name} (hash iteration order)"),
                        }),
                        "thread" => {
                            let after_std = i >= 3
                                && self.is_punct(i - 1, ':')
                                && self.is_punct(i - 2, ':')
                                && self.ident_at(i - 3) == Some("std");
                            let before_path =
                                self.is_punct(i + 1, ':') && self.is_punct(i + 2, ':');
                            if after_std || before_path {
                                item.seeds.push(Seed {
                                    fact: Fact::Nondet,
                                    line,
                                    what: "std::thread".to_string(),
                                });
                            }
                        }
                        _ => {}
                    }
                    // Call shapes: `name(` or `name::<T>(`.
                    let mut call_paren = None;
                    if self.is_punct(i + 1, '(') {
                        call_paren = Some(i + 1);
                    } else if self.is_punct(i + 1, ':')
                        && self.is_punct(i + 2, ':')
                        && self.is_punct(i + 3, '<')
                    {
                        let after = self.skip_angles(i + 3);
                        if self.is_punct(after, '(') {
                            call_paren = Some(after);
                        }
                    }
                    if call_paren.is_some() {
                        if i > 0 && self.is_punct(i - 1, '.') {
                            // Method call; keep the receiver hint.
                            let receiver = if i >= 2 {
                                self.ident_at(i - 2).map(str::to_string)
                            } else {
                                None
                            };
                            if matches!(name.as_str(), "unwrap" | "expect") {
                                item.seeds.push(Seed {
                                    fact: Fact::Panic,
                                    line,
                                    what: format!(".{name}()"),
                                });
                            }
                            item.calls.push(CallSite::Method {
                                name: name.clone(),
                                receiver,
                                line,
                            });
                        } else {
                            // Qualified or bare call: walk the `a::b::` prefix.
                            let mut path = vec![name.clone()];
                            let mut k = i;
                            while k >= 2
                                && self.is_punct(k - 1, ':')
                                && self.is_punct(k - 2, ':')
                                && k >= 3
                                && self.ident_at(k - 3).is_some()
                            {
                                path.insert(0, self.ident_at(k - 3).unwrap_or("").to_string());
                                k -= 3;
                            }
                            item.calls.push(CallSite::Direct { path, line });
                        }
                    }
                    i += 1;
                }
                TokenKind::Punct('#') => {
                    let (j, _) = self.skip_attr(i);
                    i = j;
                }
                TokenKind::Punct('|') if self.opens_closure(i) => {
                    // `|a, b: T| …` / `||`: the list ends at the next `|`.
                    let close = (i + 1..end).find(|&j| self.is_punct(j, '|')).unwrap_or(end);
                    item.params.extend(self.pattern_names(i + 1, close));
                    i += 1;
                }
                TokenKind::Punct('[') => {
                    // Index expression (same shape test as the syntactic
                    // hot-path-index rule).
                    let indexing = if i == 0 {
                        false
                    } else {
                        match &self.toks[i - 1].kind {
                            TokenKind::Ident(s) => !KEYWORDS.contains(&s.as_str()),
                            TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                            _ => false,
                        }
                    };
                    if indexing {
                        // Constant indices into arrays (`w[0]`) cannot be
                        // told apart from slice indexing here; both seed,
                        // the audited allow at the site settles it.
                        item.seeds.push(Seed {
                            fact: Fact::Panic,
                            line: self.lines.line(t.off),
                            what: "slice-index".to_string(),
                        });
                    }
                    i += 1;
                }
                TokenKind::Punct(c @ ('/' | '%')) => {
                    // Integer division/remainder by a non-literal divisor.
                    let lhs_expr = i > 0
                        && match &self.toks[i - 1].kind {
                            TokenKind::Ident(s) => !KEYWORDS.contains(&s.as_str()),
                            TokenKind::Num(_)
                            | TokenKind::Punct(')')
                            | TokenKind::Punct(']') => true,
                            _ => false,
                        };
                    let mut r = i + 1;
                    if self.is_punct(r, '=') {
                        r += 1; // compound `/=` `%=`
                    }
                    let rhs_nonliteral = match self.toks.get(r).map(|t| &t.kind) {
                        Some(TokenKind::Ident(s)) => !KEYWORDS.contains(&s.as_str()),
                        Some(TokenKind::Punct('(')) => true,
                        _ => false,
                    };
                    if lhs_expr && rhs_nonliteral {
                        item.seeds.push(Seed {
                            fact: Fact::Panic,
                            line: self.lines.line(t.off),
                            what: format!("integer `{c}` by non-literal divisor"),
                        });
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Names bound by the parameter list of the fn whose signature starts
    /// at `i` (the token after its name) and whose body opens at `body`.
    fn param_names(&self, i: usize, body: usize) -> Vec<String> {
        let open = if self.is_punct(i, '<') { self.skip_angles(i) } else { i };
        if !self.is_punct(open, '(') {
            return Vec::new();
        }
        let close = self.match_delim(open, '(', ')').min(body);
        self.pattern_names(open + 1, close.saturating_sub(1))
    }

    /// Whether the `|` at `i` opens a closure's parameter list: it stands
    /// where an expression starts, not after an operand (`a | b`, `a || b`).
    fn opens_closure(&self, i: usize) -> bool {
        let Some(prev) = i.checked_sub(1).and_then(|p| self.toks.get(p)) else {
            return false;
        };
        match &prev.kind {
            TokenKind::Punct(c) => matches!(c, '(' | ',' | '=' | '{' | ';' | '['),
            TokenKind::Ident(s) => s == "move" || s == "return",
            _ => false,
        }
    }

    /// Identifiers a parameter list `[from, to)` binds: every identifier
    /// outside the `: Type` annotations (so `(a, b)` and `mut x` patterns
    /// count), minus keywords.
    fn pattern_names(&self, from: usize, to: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut in_type = false;
        for k in from..to {
            let colon = |j: usize| self.is_punct(j, ':');
            match &self.toks[k].kind {
                TokenKind::Punct('(' | '[' | '<') => depth += 1,
                // `->` in a closure type is not a closing angle.
                TokenKind::Punct('>') if k > 0 && self.is_punct(k - 1, '-') => {}
                TokenKind::Punct(')' | ']' | '>') => depth -= 1,
                TokenKind::Punct(',') if depth <= 0 => in_type = false,
                TokenKind::Punct(':') if !colon(k + 1) && !(k > 0 && colon(k - 1)) => {
                    in_type = true
                }
                TokenKind::Ident(name) if !in_type && !KEYWORDS.contains(&name.as_str()) => {
                    out.push(name.clone())
                }
                _ => {}
            }
        }
        out
    }

    /// Dispatches one nested item from inside a fn body; returns the index
    /// one past it.
    fn walk_one_nested(
        &mut self,
        i: usize,
        end: usize,
        mods: &mut Vec<String>,
        ictx: Option<&ImplCtx>,
    ) -> usize {
        match self.ident_at(i) {
            Some("fn") => self.handle_fn(i, end, mods, ictx, false, false),
            Some("mod") if self.is_punct(i + 2, '{') => {
                let name = self.ident_at(i + 1).unwrap_or("").to_string();
                let body_end = self.match_delim(i + 2, '{', '}');
                mods.push(name);
                self.walk_items(i + 3, body_end - 1, mods, None);
                mods.pop();
                body_end
            }
            Some("impl") | Some("trait") => {
                // Rare inside bodies; reuse the item walker on the span up
                // to the matching brace of the item's body.
                let mut j = i + 1;
                while j < end && !self.is_punct(j, '{') {
                    j += 1;
                }
                if j >= end {
                    return end;
                }
                let body_end = self.match_delim(j, '{', '}');
                self.walk_items(i, body_end, mods, ictx);
                body_end
            }
            _ => i + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/m.rs", "x", &["m".to_string()], src)
    }

    #[test]
    fn extracts_free_and_impl_fns_with_ids() {
        let p = parse(
            "pub fn free() {}\n\
             struct T;\n\
             impl T { pub fn meth(&self) {} }\n\
             impl std::fmt::Display for T { fn fmt(&self) {} }\n",
        );
        let ids: Vec<&str> = p.fns.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(ids, ["x::m::free", "x::m::T::meth", "x::m::T::fmt"]);
        assert!(p.fns[0].is_pub && !p.fns[0].trait_impl);
        assert!(p.fns[1].is_pub && !p.fns[1].trait_impl);
        assert!(!p.fns[2].is_pub && p.fns[2].trait_impl);
    }

    #[test]
    fn inline_mods_nest_into_the_id() {
        let p = parse("mod inner { pub fn f() {} mod deep { fn g() {} } }");
        let ids: Vec<&str> = p.fns.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(ids, ["x::m::inner::f", "x::m::inner::deep::g"]);
    }

    #[test]
    fn call_sites_direct_qualified_and_method() {
        let p = parse(
            "fn f(nic: &mut Nic) { helper(); a::b::qualified(1); nic.rx_process(0); \
             self.pump(); Vec::<u8>::new(); }",
        );
        let f = &p.fns[0];
        let mut direct = 0;
        let mut method = 0;
        for c in &f.calls {
            match c {
                CallSite::Direct { .. } => direct += 1,
                CallSite::Method { name, receiver, .. } => {
                    method += 1;
                    if name == "rx_process" {
                        assert_eq!(receiver.as_deref(), Some("nic"));
                    }
                    if name == "pump" {
                        assert_eq!(receiver.as_deref(), Some("self"));
                    }
                }
            }
        }
        assert_eq!(direct, 3, "{:?}", f.calls);
        assert_eq!(method, 2, "{:?}", f.calls);
    }

    #[test]
    fn seeds_panic_alloc_nondet() {
        let p = parse(
            "fn f(x: Option<u8>, v: &[u8], n: usize) -> u8 {\n\
               let a = x.unwrap();\n\
               let b = v[0];\n\
               let c = 10 / n;\n\
               let d = Vec::new();\n\
               let e = format!(\"{a}\");\n\
               let t = Instant::now();\n\
               assert!(n > 0);\n\
               a\n\
             }",
        );
        let f = &p.fns[0];
        let whats: Vec<&str> = f.seeds.iter().map(|s| s.what.as_str()).collect();
        assert!(whats.contains(&".unwrap()"), "{whats:?}");
        assert!(whats.contains(&"slice-index"), "{whats:?}");
        assert!(whats.iter().any(|w| w.starts_with("integer `/`")), "{whats:?}");
        assert!(whats.contains(&"std::time::Instant"), "{whats:?}");
        assert!(whats.contains(&"assert!"), "{whats:?}");
        // Allocation is measured by the allocation gate, not seeded here.
        assert!(!whats.contains(&"Vec::new") && !whats.contains(&"format!"), "{whats:?}");
    }

    #[test]
    fn literal_divisor_and_type_brackets_do_not_seed() {
        let p = parse("fn f(n: usize) -> [u8; 2] { let x = n / 2; let y = n % 8; [0, 0] }");
        assert!(p.fns[0].seeds.is_empty(), "{:?}", p.fns[0].seeds);
    }

    #[test]
    fn cfg_test_items_are_pruned() {
        let p = parse(
            "fn live() { helper(); }\n\
             #[cfg(test)]\nmod tests {\n  fn helper() { x.unwrap(); }\n  #[test]\n  fn t() { panic!(); }\n}\n\
             #[cfg(test)]\nfn twin() { y.unwrap(); }\n",
        );
        let ids: Vec<&str> = p.fns.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(ids, ["x::m::live"], "test items must not become nodes");
    }

    #[test]
    fn entry_and_cold_annotations_bind_to_next_fn() {
        let p = parse(
            "fn before() {}\n// ano-lint: entry(hot-path)\npub fn hot() {}\n\
             // ano-lint: cold(install path)\nfn install() {}\n",
        );
        let entries: Vec<Option<&str>> = p.fns.iter().map(|f| f.entry.as_deref()).collect();
        assert_eq!(entries, [None, Some("hot-path"), None]);
        // `cold(..)` is no longer an annotation: it binds to nothing here,
        // and `suppress` reports it as an unknown directive.
        assert!(p.diags.is_empty(), "{:?}", p.diags);
    }

    #[test]
    fn fn_and_closure_parameters_are_recorded() {
        let p = parse(
            "fn f<T>(mut a: u8, (b, c): (u8, u8), visit: impl Fn(u8) -> Vec<u8>) {\n\
               let g = |d: &[u8], e| d.len() | e;\n\
               v.iter().map(move |x| x);\n\
               let h = || 0;\n\
               let i = a | b || c;\n\
             }",
        );
        assert_eq!(p.fns[0].params, ["a", "b", "c", "visit", "d", "e", "x"]);
    }

    #[test]
    fn bad_annotations_are_diagnosed() {
        let p = parse("// ano-lint: entry(warm-path)\nfn f() {}\n");
        assert_eq!(p.diags.len(), 1, "{:?}", p.diags);
        assert!(p.diags[0].message.contains("unknown entry class"));
        let p = parse("// ano-lint: entry hot-path\nfn f() {}\n");
        assert!(p.diags[0].message.contains("malformed annotation"));
        let p = parse("fn f() {}\n// ano-lint: entry(hot-path)\n");
        assert!(p.diags[0].message.contains("does not precede a fn"));
    }

    #[test]
    fn closure_seeds_attribute_to_enclosing_fn() {
        let p = parse("fn f(v: Vec<Option<u8>>) { v.iter().map(|x| x.unwrap()); }");
        assert!(p.fns[0].seeds.iter().any(|s| s.what == ".unwrap()"));
    }

    #[test]
    fn nested_fn_is_its_own_item() {
        let p = parse("fn outer() { fn inner() { x.unwrap(); } inner(); }");
        let ids: Vec<&str> = p.fns.iter().map(|f| f.id.as_str()).collect();
        assert!(ids.contains(&"x::m::outer") && ids.contains(&"x::m::inner"), "{ids:?}");
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(outer.seeds.is_empty(), "inner's unwrap must not leak out");
    }

    #[test]
    fn pub_items_recorded_for_dead_export() {
        let p = parse(
            "pub struct S { pub f: u8 }\npub enum E { A }\npub const C: u8 = 0;\n\
             pub trait Tr {}\npub(crate) fn internal() {}\npub fn exported() {}\n",
        );
        let names: Vec<&str> = p.pub_items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["S", "E", "C", "Tr"]);
        let exported = p.fns.iter().find(|f| f.name == "exported").unwrap();
        assert!(exported.is_pub);
        let internal = p.fns.iter().find(|f| f.name == "internal").unwrap();
        assert!(!internal.is_pub, "pub(crate) is not an export");
    }

    #[test]
    fn ident_counts_cover_test_modules_too() {
        let p = parse("fn f() {}\n#[cfg(test)]\nmod t { fn g() { f(); } }\n");
        assert_eq!(p.ident_counts.get("f").copied(), Some(2));
    }
}

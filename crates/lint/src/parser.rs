//! The token-level item scan: which `pub` items one file exports, which
//! fns it defines, how often it mentions each identifier, and which lints
//! its `#[expect(...)]` attributes name.
//!
//! Items are read straight off the token stream: an unrestricted `pub`
//! (`pub(crate)` is not an export) followed by `fn`, `const fn`, `struct`,
//! `enum`, `union`, `trait`, `const`, `static` or `type` and a name. A
//! brace stack tells the scan where it stands, so it skips `#[cfg(test)]`
//! items (test modules included), associated consts and types (their
//! block is an `impl` or `trait` body), and anything inside a fn body.
//! `main` is never an export.

use std::collections::BTreeMap;

use crate::lexer::{LineIndex, Token, TokenKind};

/// One exported item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PubItem {
    pub name: String,
    /// `fn`, `struct` (also unions), `enum`, `trait`, `const`, `static` or
    /// `type`.
    pub kind: &'static str,
    /// 1-based line of the `pub` keyword.
    pub line: usize,
}

/// What one file contributes to the workspace pass.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub items: Vec<PubItem>,
    /// The name of every `fn` the file defines outside test code, exported
    /// or not: each one accounts for a mention of its name.
    pub fn_defs: Vec<String>,
    /// Every identifier token in the file (test modules included) with a
    /// count — a name is used when it occurs beyond its own definitions.
    pub ident_counts: BTreeMap<String, usize>,
    /// The lint of every `#[expect(...)]` / `#![expect(...)]` outside test
    /// code, once per lint named (`clippy::disallowed_types`).
    pub expects: Vec<String>,
}

/// What the `{` about to open is the body of.
#[derive(Clone, Copy, PartialEq)]
enum Block {
    Plain,
    /// An `impl` or `trait` body: its consts and types are associated.
    Impl,
    Fn,
}

/// Scans one lexed file.
pub fn scan(toks: &[Token], lines: &LineIndex) -> ParsedFile {
    let ident = |i: usize| toks.get(i).and_then(Token::ident);
    let mut out = ParsedFile {
        ident_counts: ident_counts(toks),
        ..Default::default()
    };
    let mut stack: Vec<Block> = Vec::new();
    let mut pending: Option<Block> = None;
    // `(`/`[` nesting: a `;` inside `[u8; 4]` ends no item.
    let mut group = 0usize;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let in_fn = stack.contains(&Block::Fn);
        match &t.kind {
            TokenKind::Punct('#') if !in_fn && is_cfg_test(toks, i) => {
                i = skip_item(toks, i + 7);
                continue;
            }
            TokenKind::Punct('#') => out.expects.extend(expected_lints(toks, i)),
            TokenKind::Punct('(' | '[') => group += 1,
            TokenKind::Punct(')' | ']') => group = group.saturating_sub(1),
            TokenKind::Punct(';') if group == 0 => pending = None,
            TokenKind::Punct('{') => stack.push(pending.take().unwrap_or(Block::Plain)),
            TokenKind::Punct('}') => {
                stack.pop();
                pending = None;
            }
            TokenKind::Ident(kw) => match kw.as_str() {
                // `fn` before a name defines one; before `(` it is a type.
                "fn" => {
                    if let Some(name) = ident(i + 1) {
                        out.fn_defs.push(name.to_string());
                        pending = Some(Block::Fn);
                    }
                }
                "impl" | "trait" if pending != Some(Block::Fn) => pending = Some(Block::Impl),
                "pub" if !in_fn && !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) => {
                    let mut k = i + 1;
                    if ident(k) == Some("const") && ident(k + 1) == Some("fn") {
                        k += 1;
                    }
                    let kind = match ident(k) {
                        Some("fn") => "fn",
                        Some("struct" | "union") => "struct",
                        Some("enum") => "enum",
                        Some("trait") => "trait",
                        Some(kc @ ("const" | "static" | "type"))
                            if stack.last() != Some(&Block::Impl) =>
                        {
                            match kc {
                                "const" => "const",
                                "static" => "static",
                                _ => "type",
                            }
                        }
                        _ => "",
                    };
                    if let Some(name) = ident(k + 1).filter(|n| !kind.is_empty() && *n != "main") {
                        out.items.push(PubItem {
                            name: name.to_string(),
                            kind,
                            line: lines.line(t.off),
                        });
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    out
}

/// Is token `i` the `#` of an outer `#[cfg(test)]` attribute?
fn is_cfg_test(toks: &[Token], i: usize) -> bool {
    let p = |k: usize, c: char| toks.get(i + k).is_some_and(|t| t.is_punct(c));
    let id = |k: usize, s: &str| toks.get(i + k).and_then(Token::ident) == Some(s);
    p(1, '[') && id(2, "cfg") && p(3, '(') && id(4, "test") && p(5, ')') && p(6, ']')
}

/// The lints named by the attribute whose `#` is token `i`, if it is an
/// `expect(...)`: each comma-separated path before the trailing `reason`.
fn expected_lints(toks: &[Token], i: usize) -> Vec<String> {
    let p = |k: usize, c: char| toks.get(k).is_some_and(|t| t.is_punct(c));
    let k = if p(i + 1, '!') { i + 2 } else { i + 1 };
    if !(p(k, '[') && toks.get(k + 1).and_then(Token::ident) == Some("expect") && p(k + 2, '(')) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut path = String::new();
    for t in toks.iter().skip(k + 3) {
        match &t.kind {
            TokenKind::Ident(s) if s == "reason" && path.is_empty() => break,
            TokenKind::Ident(s) => path.push_str(s),
            TokenKind::Punct(':') => path.push(':'),
            TokenKind::Punct(',') => out.push(std::mem::take(&mut path)),
            _ => break,
        }
    }
    if !path.is_empty() {
        out.push(path);
    }
    out
}

/// Index one past the item starting at `i` (after its `#[cfg(test)]`): its
/// `;` outside any group, or the `}` matching its first `{`.
fn skip_item(toks: &[Token], mut i: usize) -> usize {
    let mut group = 0usize;
    while i < toks.len() {
        match toks[i].kind {
            TokenKind::Punct('(' | '[') => group += 1,
            TokenKind::Punct(')' | ']') => group = group.saturating_sub(1),
            TokenKind::Punct(';') if group == 0 => return i + 1,
            TokenKind::Punct('{') if group == 0 => {
                let mut depth = 0usize;
                while i < toks.len() {
                    if toks[i].is_punct('{') {
                        depth += 1;
                    } else if toks[i].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Every identifier token of `toks`, with its count.
pub fn ident_counts(toks: &[Token]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for t in toks {
        if let TokenKind::Ident(name) = &t.kind {
            *out.entry(name.clone()).or_insert(0) += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        scan(&lex(src), &LineIndex::new(src))
    }

    fn names(f: &ParsedFile) -> Vec<(&str, &str)> {
        f.items.iter().map(|i| (i.name.as_str(), i.kind)).collect()
    }

    #[test]
    fn pub_items_recorded_for_dead_export() {
        let f = parse(
            "pub struct S { pub f: u8 }\npub enum E { A }\npub const C: u8 = 0;\n\
             pub trait Tr {}\npub(crate) fn internal() {}\npub fn exported() {}\n\
             pub const fn konst() -> u8 { 0 }\npub static X: u8 = 0;\npub type T = u8;\n\
             pub union U { a: u8 }\npub fn main() {}\npub use a::b;\npub mod m;\n",
        );
        assert_eq!(
            names(&f),
            [
                ("S", "struct"),
                ("E", "enum"),
                ("C", "const"),
                ("Tr", "trait"),
                ("exported", "fn"),
                ("konst", "fn"),
                ("X", "static"),
                ("T", "type"),
                ("U", "struct"),
            ]
        );
        assert_eq!(f.items[0].line, 1);
        assert_eq!(f.fn_defs, ["internal", "exported", "konst", "main"]);
    }

    #[test]
    fn methods_count_but_associated_items_and_fn_bodies_do_not() {
        let f = parse(
            "impl T { pub const K: u8 = 1; pub type A = u8; pub fn meth(&self) -> [u8; 2] { [0; 2] } }\n\
             impl Tr for [u8; 4] { const K: u8 = 2; }\n\
             fn outer() -> impl Fn() { pub struct Local; || () }\n\
             struct F { f: fn(u8) }\nimpl F { pub const G: u8 = 3; }\n\
             mod inner { pub fn g() {} pub const D: u8 = 0; }\n",
        );
        assert_eq!(names(&f), [("meth", "fn"), ("g", "fn"), ("D", "const")]);
    }

    #[test]
    fn cfg_test_items_are_pruned() {
        let f = parse(
            "pub fn live() {}\n\
             #[cfg(test)]\nmod tests { pub fn helper() {} }\n\
             #[cfg(test)]\npub fn twin() -> [u8; 2] { [0; 2] }\n\
             #[cfg(test)]\nimpl T { pub fn only_in_tests() {} }\n\
             #[cfg(test)]\npub use x::y;\npub struct After;\n",
        );
        assert_eq!(names(&f), [("live", "fn"), ("After", "struct")]);
        assert_eq!(f.fn_defs, ["live"]);
    }

    #[test]
    fn nested_fn_is_its_own_item() {
        let f = parse("pub fn outer() { fn inner() {} inner(); }");
        assert_eq!(names(&f), [("outer", "fn")]);
        assert_eq!(f.fn_defs, ["outer", "inner"]);
    }

    #[test]
    fn ident_counts_cover_test_modules_too() {
        let f = parse("fn f() {}\n#[cfg(test)]\nmod t { fn g() { f(); } }\n");
        assert_eq!(f.ident_counts.get("f").copied(), Some(2));
    }

    #[test]
    fn expect_attributes_name_their_lints() {
        let f = parse(
            "#![expect(unsafe_code, reason = \"a\")]\n\
             #[expect(clippy::print_stdout, clippy::print_stderr, reason = \"b\")]\n\
             fn main() { #[expect(clippy::disallowed_types)] let t = 0; }\n\
             #[allow(dead_code)]\n#[derive(Debug)]\nstruct S;\n\
             #[cfg(test)]\nmod tests { #[expect(clippy::panic, reason = \"c\")] fn t() {} }\n",
        );
        assert_eq!(
            f.expects,
            ["unsafe_code", "clippy::print_stdout", "clippy::print_stderr", "clippy::disallowed_types"]
        );
    }
}

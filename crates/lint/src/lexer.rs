//! A minimal Rust lexer: source text → token stream with byte offsets.
//!
//! Deliberately *not* a parser. The item scan keys off identifiers,
//! attributes and brace structure, so a faithful token stream is enough —
//! and keeping the lexer small preserves the hermetic-build guarantee (no
//! `syn`, no registry dependencies at all).
//!
//! What it gets right, because the scan depends on it:
//!
//! * comments (line, nested block) are skipped;
//! * string/char literals are opaque single tokens (a name inside a string
//!   is not a mention of it) — including raw strings `r#"…"#`, byte
//!   strings, and byte/char escapes;
//! * lifetimes (`'a`) are distinguished from char literals (`'a'`);
//! * numbers never swallow `..` (so `0..n` lexes as three tokens).

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset of the token's first character in the source.
    pub off: usize,
}

/// Token classes, carrying text only where rules need it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `fn`, `r#match` → `match`).
    Ident(String),
    /// Lifetime such as `'a` (text without the quote).
    Lifetime(String),
    /// String literal, verbatim including quotes/prefix (`"x"`, `br#"y"#`).
    Str(String),
    /// Char or byte literal (`'a'`, `b'\n'`), verbatim.
    Char(String),
    /// Numeric literal, verbatim.
    Num(String),
    /// Any other single punctuation character.
    Punct(char),
}

impl Token {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True for punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Maps byte offsets to 1-based line numbers.
pub struct LineIndex {
    /// Byte offset at which each line starts.
    starts: Vec<usize>,
}

impl LineIndex {
    pub fn new(src: &str) -> LineIndex {
        let mut starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line number of a byte offset.
    pub fn line(&self, off: usize) -> usize {
        self.starts.partition_point(|&s| s <= off)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens. Unterminated literals or comments do not
/// panic: the remainder of the file becomes one opaque token.
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    // Byte offset of each char (source positions must be byte-accurate for
    // line reporting even with multi-byte characters in comments).
    let mut offs = Vec::with_capacity(b.len() + 1);
    let mut acc = 0;
    for &c in &b {
        offs.push(acc);
        acc += c.len_utf8();
    }
    offs.push(acc);

    let mut out = Vec::new();
    let mut i = 0usize;
    let n = b.len();

    while i < n {
        let c = b[i];
        let off = offs[i];

        // Whitespace.
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let mut j = i + 2;
            while j < n && b[j] != '\n' {
                j += 1;
            }
            i = j;
            continue;
        }

        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }

        // Raw / byte string prefixes: r", r#", br", b", rb is not Rust.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let (plen, raw) = match (c, b[i + 1], b.get(i + 2)) {
                ('r', '"', _) | ('r', '#', _) => (1, true),
                ('b', 'r', Some('"')) | ('b', 'r', Some('#')) => (2, true),
                ('b', '"', _) => (1, false),
                ('b', '\'', _) => {
                    // Byte char literal b'x'.
                    let (tok, j) = lex_char(&b, i + 1, i);
                    out.push(Token { kind: tok, off });
                    i = j;
                    continue;
                }
                _ => (0, false),
            };
            if plen > 0 {
                let (tok, j) = if raw {
                    lex_raw_string(&b, i + plen, i)
                } else {
                    lex_string(&b, i + plen, i)
                };
                out.push(Token { kind: tok, off });
                i = j;
                continue;
            }
            // Fall through to identifier below.
        }

        // Raw identifier r#ident (raw strings handled above).
        if c == 'r' && i + 2 < n && b[i + 1] == '#' && is_ident_start(b[i + 2]) {
            let mut j = i + 2;
            while j < n && is_ident_continue(b[j]) {
                j += 1;
            }
            out.push(Token {
                kind: TokenKind::Ident(b[i + 2..j].iter().collect()),
                off,
            });
            i = j;
            continue;
        }

        // Identifier / keyword.
        if is_ident_start(c) {
            let mut j = i;
            while j < n && is_ident_continue(b[j]) {
                j += 1;
            }
            out.push(Token {
                kind: TokenKind::Ident(b[i..j].iter().collect()),
                off,
            });
            i = j;
            continue;
        }

        // Number (decimal, hex/octal/binary, float; never swallows `..`).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n {
                let d = b[j];
                if is_ident_continue(d) {
                    j += 1;
                } else if d == '.'
                    && j + 1 < n
                    && b[j + 1].is_ascii_digit()
                    && !b[i..j].contains(&'.')
                {
                    j += 1;
                } else {
                    break;
                }
            }
            out.push(Token {
                kind: TokenKind::Num(b[i..j].iter().collect()),
                off,
            });
            i = j;
            continue;
        }

        // String literal.
        if c == '"' {
            let (tok, j) = lex_string(&b, i, i);
            out.push(Token { kind: tok, off });
            i = j;
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            if i + 1 < n && is_ident_start(b[i + 1]) {
                // Find the end of the would-be identifier.
                let mut j = i + 1;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                if j < n && b[j] == '\'' && j == i + 2 {
                    // 'x' — a one-char literal.
                    let (tok, j2) = lex_char(&b, i, i);
                    out.push(Token { kind: tok, off });
                    i = j2;
                } else {
                    // 'abc — a lifetime (or 'static etc.).
                    out.push(Token {
                        kind: TokenKind::Lifetime(b[i + 1..j].iter().collect()),
                        off,
                    });
                    i = j;
                }
                continue;
            }
            let (tok, j) = lex_char(&b, i, i);
            out.push(Token { kind: tok, off });
            i = j;
            continue;
        }

        out.push(Token {
            kind: TokenKind::Punct(c),
            off,
        });
        i += 1;
    }

    out
}

/// Lexes a `"…"` string starting at the quote (`at`); `from` is the token
/// start (prefix included). Returns the token and the index past the close.
fn lex_string(b: &[char], at: usize, from: usize) -> (TokenKind, usize) {
    let n = b.len();
    let mut j = at + 1;
    while j < n {
        match b[j] {
            '\\' => j += 2,
            '"' => {
                j += 1;
                return (TokenKind::Str(b[from..j].iter().collect()), j);
            }
            _ => j += 1,
        }
    }
    (TokenKind::Str(b[from..].iter().collect()), n)
}

/// Lexes a raw string starting at `at` (pointing at `"` or the first `#`).
fn lex_raw_string(b: &[char], at: usize, from: usize) -> (TokenKind, usize) {
    let n = b.len();
    let mut hashes = 0;
    let mut j = at;
    while j < n && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || b[j] != '"' {
        // Not actually a raw string (e.g. `r#ident` slipped through);
        // treat the single char as punctuation to make progress.
        return (TokenKind::Punct(b[from]), from + 1);
    }
    j += 1;
    while j < n {
        if b[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0;
            while k < n && b[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (TokenKind::Str(b[from..k].iter().collect()), k);
            }
        }
        j += 1;
    }
    (TokenKind::Str(b[from..].iter().collect()), n)
}

/// Lexes a `'…'` char/byte literal starting at the quote.
fn lex_char(b: &[char], at: usize, from: usize) -> (TokenKind, usize) {
    let n = b.len();
    let mut j = at + 1;
    while j < n {
        match b[j] {
            '\\' => j += 2,
            '\'' => {
                j += 1;
                return (TokenKind::Char(b[from..j].iter().collect()), j);
            }
            _ => j += 1,
        }
    }
    (TokenKind::Char(b[from..].iter().collect()), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn basic_idents_and_puncts() {
        let l = lex("fn main() { let x = y; }");
        assert_eq!(idents("fn main() { let x = y; }"), ["fn", "main", "let", "x", "y"]);
        assert!(l.iter().any(|t| t.is_punct('{')));
    }

    #[test]
    fn strings_are_opaque() {
        assert_eq!(idents(r#"let s = "HashMap::new()";"#), ["let", "s"]);
        assert_eq!(idents(r##"let s = r#"Instant"#;"##), ["let", "s"]);
        assert_eq!(idents(r#"let s = b"SystemTime";"#), ["let", "s"]);
    }

    #[test]
    fn comments_are_not_tokenized() {
        assert_eq!(idents("// HashMap\nlet a = 1; /* Instant */"), ["let", "a"]);
    }

    #[test]
    fn nested_block_comment() {
        assert_eq!(idents("/* a /* b */ c */ let x = 1;"), ["let", "x"]);
    }

    #[test]
    fn lifetime_vs_char() {
        let l = lex("fn f<'a>(x: &'a u8) { let c = 'a'; let d = '\\n'; }");
        let lifetimes: Vec<_> = l
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Lifetime(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, ["a", "a"]);
        let chars: Vec<_> = l
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Char(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(chars, ["'a'", "'\\n'"]);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let l = lex("for i in 0..10 {}");
        let nums: Vec<_> = l
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Num(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, ["0", "10"]);
        assert_eq!(lex("1.5e3 0xFF 1_000").len(), 3);
    }

    #[test]
    fn raw_identifier() {
        assert_eq!(idents("let r#match = 1;"), ["let", "match"]);
    }

    #[test]
    fn line_index_maps_offsets() {
        let src = "ab\ncde\nf";
        let ix = LineIndex::new(src);
        assert_eq!(ix.line(0), 1);
        assert_eq!(ix.line(2), 1);
        assert_eq!(ix.line(3), 2);
        assert_eq!(ix.line(5), 2);
        assert_eq!(ix.line(7), 3);
    }

    #[test]
    fn byte_char_literal() {
        let l = lex("let x = b'a'; let y = b\"bytes\";");
        assert!(l.iter().any(|t| matches!(&t.kind, TokenKind::Char(s) if s == "b'a'")));
        assert!(l.iter().any(|t| matches!(&t.kind, TokenKind::Str(s) if s == "b\"bytes\"")));
    }
}

//! Spec-vs-code consistency: the resync state machine (`rule resync-table`).
//!
//! The paper's §4.3 receive resync machine (searching → tracking →
//! confirmation) lives in two places that must never drift:
//!
//! * **code** — `crates/core/src/rx.rs` declares its complete emitted edge
//!   set in the `legal_transition` match table (and debug-asserts it on
//!   every phase change);
//! * **spec** — `crates/scenario/src/invariant.rs` hard-codes the legal
//!   edge set (`LEGAL_EDGES`) that scenario runs validate traces against.
//!
//! This pass extracts both tables from the token streams and fails the
//! lint if they differ in either direction: an edge the engine can emit
//! but the invariant would reject means every scenario using it fails at
//! runtime; an edge the invariant allows but the engine never emits means
//! the dynamic checker is weaker than it claims.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Token};

/// The four resync phases (ano-trace's `ResyncPhase` names).
pub const PHASES: &[&str] = &["Offloading", "Searching", "Tracking", "Confirmed"];

/// An extracted `(from, to)` edge.
pub type Edge = (String, String);

/// Extracts the edge table from `rx.rs`: the body of the `matches!` macro
/// inside `fn legal_transition`.
pub fn extract_rx_table(src: &str) -> Result<Vec<Edge>, String> {
    let toks = lex(src).tokens;
    let fn_idx = find_fn(&toks, "legal_transition")
        .ok_or("crates/core/src/rx.rs: `fn legal_transition` not found")?;
    // Locate `matches` `!` `(` after the fn, then pair phase idents inside.
    let mut i = fn_idx;
    while i < toks.len() {
        if toks[i].ident() == Some("matches")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            let end = match_paren(&toks, i + 2);
            return pair_phases(&toks[i + 3..end], "rx.rs legal_transition");
        }
        i += 1;
    }
    Err("crates/core/src/rx.rs: legal_transition holds no matches!(…) table".to_string())
}

/// Extracts the edge table from `invariant.rs`: the `LEGAL_EDGES` array.
pub fn extract_invariant_table(src: &str) -> Result<Vec<Edge>, String> {
    let toks = lex(src).tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].ident() == Some("LEGAL_EDGES") {
            // Skip past the type annotation to the `=`, then to the `[`
            // opening the array literal (the type itself contains a `[`).
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct('=') {
                j += 1;
            }
            while j < toks.len() && !toks[j].is_punct('[') {
                j += 1;
            }
            if j == toks.len() {
                return Err(
                    "crates/scenario/src/invariant.rs: LEGAL_EDGES has no array body".to_string()
                );
            }
            let end = match_bracket(&toks, j);
            return pair_phases(&toks[j + 1..end], "invariant.rs LEGAL_EDGES");
        }
        i += 1;
    }
    Err("crates/scenario/src/invariant.rs: `LEGAL_EDGES` not found".to_string())
}

/// Cross-checks the two tables; returns one diagnostic per drift.
pub fn cross_check(rx_src: &str, inv_src: &str) -> Vec<Diagnostic> {
    let fail = |msg: String| Diagnostic {
        rule: "resync-table",
        severity: Severity::Error,
        file: "crates/core/src/rx.rs".to_string(),
        line: 1,
        col: 1,
        message: msg,
    };
    let rx = match extract_rx_table(rx_src) {
        Ok(t) => t,
        Err(e) => return vec![fail(e)],
    };
    let inv = match extract_invariant_table(inv_src) {
        Ok(t) => t,
        Err(e) => return vec![fail(e)],
    };
    let mut out = Vec::new();
    for e in &rx {
        if !inv.contains(e) {
            out.push(fail(format!(
                "resync drift: rx engine can emit {}->{} but invariant.rs LEGAL_EDGES \
                 rejects it — every scenario taking this edge fails at runtime",
                e.0, e.1
            )));
        }
    }
    for e in &inv {
        if !rx.contains(e) {
            out.push(fail(format!(
                "resync drift: invariant.rs LEGAL_EDGES allows {}->{} but the rx engine \
                 never emits it — the dynamic checker is weaker than the code",
                e.0, e.1
            )));
        }
    }
    out
}

/// Finds the token index of `fn <name>`.
fn find_fn(toks: &[Token], name: &str) -> Option<usize> {
    toks.windows(2)
        .position(|w| w[0].ident() == Some("fn") && w[1].ident() == Some(name))
}

/// Collects phase identifiers in a token slice and pairs them up in order:
/// `(A, B) | (C, D)` and `(Phase::A, Phase::B), (Phase::C, Phase::D)` both
/// yield `[(A,B), (C,D)]`. Path qualifiers (`ResyncPhase`) are filtered by
/// the phase-name whitelist.
fn pair_phases(toks: &[Token], what: &str) -> Result<Vec<Edge>, String> {
    let names: Vec<String> = toks
        .iter()
        .filter_map(|t| t.ident())
        .filter(|s| PHASES.contains(s))
        .map(str::to_string)
        .collect();
    if names.is_empty() {
        return Err(format!("{what}: no resync phase names found in table"));
    }
    if names.len() % 2 != 0 {
        return Err(format!(
            "{what}: odd number of phase names ({}) — table is not a list of (from, to) pairs",
            names.len()
        ));
    }
    let mut edges: Vec<Edge> = names
        .chunks(2)
        .map(|c| (c[0].clone(), c[1].clone()))
        .collect();
    edges.sort();
    edges.dedup();
    Ok(edges)
}

/// Returns the index of the `)` matching the `(` at `idx`.
fn match_paren(toks: &[Token], idx: usize) -> usize {
    match_delim(toks, idx, '(', ')')
}

/// Returns the index of the `]` matching the `[` at `idx`.
fn match_bracket(toks: &[Token], idx: usize) -> usize {
    match_delim(toks, idx, '[', ']')
}

fn match_delim(toks: &[Token], idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    const RX_OK: &str = r"
        pub fn legal_transition(from: ResyncPhase, to: ResyncPhase) -> bool {
            matches!(
                (from, to),
                (ResyncPhase::Offloading, ResyncPhase::Searching)
                    | (ResyncPhase::Searching, ResyncPhase::Tracking)
                    | (ResyncPhase::Tracking, ResyncPhase::Confirmed)
                    | (ResyncPhase::Confirmed, ResyncPhase::Offloading)
            )
        }
    ";

    const INV_OK: &str = r"
        pub const LEGAL_EDGES: &[(ResyncPhase, ResyncPhase)] = &[
            (ResyncPhase::Offloading, ResyncPhase::Searching),
            (ResyncPhase::Searching, ResyncPhase::Tracking),
            (ResyncPhase::Tracking, ResyncPhase::Confirmed),
            (ResyncPhase::Confirmed, ResyncPhase::Offloading),
        ];
    ";

    #[test]
    fn matching_tables_pass() {
        assert!(cross_check(RX_OK, INV_OK).is_empty());
    }

    #[test]
    fn extraction_is_order_insensitive() {
        let rx = extract_rx_table(RX_OK).unwrap();
        let inv = extract_invariant_table(INV_OK).unwrap();
        assert_eq!(rx, inv);
        assert_eq!(rx.len(), 4);
        assert!(rx.contains(&("Tracking".into(), "Confirmed".into())));
    }

    #[test]
    fn drift_in_code_is_reported() {
        let rx_extra = RX_OK.replace(
            "(ResyncPhase::Confirmed, ResyncPhase::Offloading)",
            "(ResyncPhase::Confirmed, ResyncPhase::Offloading)\n | (ResyncPhase::Tracking, ResyncPhase::Offloading)",
        );
        let d = cross_check(&rx_extra, INV_OK);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Tracking->Offloading"));
        assert!(d[0].message.contains("rejects it"));
    }

    #[test]
    fn drift_in_spec_is_reported() {
        let inv_missing = INV_OK.replace("(ResyncPhase::Searching, ResyncPhase::Tracking),", "");
        let d = cross_check(RX_OK, &inv_missing);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Searching->Tracking"));
    }

    #[test]
    fn missing_table_is_an_error() {
        let d = cross_check("fn other() {}", INV_OK);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("legal_transition"));
    }
}

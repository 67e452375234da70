//! Framing helpers reached from `alpha::pump` — the panic here is two
//! calls deep.

pub fn split(data: &[u8]) -> Vec<u8> {
    header_byte(data);
    data.to_vec()
}

/// `visit(b)` calls the closure argument, not `beta::clock::visit`: the
/// graph must not bind it to that same-named free fn.
pub fn each(data: &[u8], visit: impl Fn(u8) -> u64) -> u64 {
    data.iter().map(|&b| visit(b)).sum()
}

fn header_byte(data: &[u8]) -> u8 {
    data[0]
}

#[cfg(test)]
mod tests {
    // Everything under cfg(test) is pruned: this unwrap must never become
    // a node, a seed, or a transitive finding.
    pub fn test_only_panic(x: Option<u8>) -> u8 {
        x.unwrap()
    }

    #[test]
    fn split_keeps_bytes() {
        assert_eq!(super::split(&[7]).len(), 1);
        assert_eq!(test_only_panic(Some(3)), 3);
    }
}

//! TCP sequence-number arithmetic.
//!
//! Wire sequence numbers are 32-bit and wrap; internally the stack tracks
//! 64-bit stream offsets and converts at the edge. [`unwrap_seq`] recovers
//! the 64-bit offset nearest to a reference point, which is how real stacks
//! reason about wrapped sequence spaces.

/// `true` if sequence `a` is strictly before `b` (RFC 793 modular compare).
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `true` if sequence `a` is before or equal to `b`.
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    !seq_lt(b, a)
}

/// Recovers the unwrapped 64-bit stream offset for wire sequence `seq`,
/// choosing the candidate closest to `near`.
///
/// # Examples
///
/// ```
/// use ano_tcp::seq::unwrap_seq;
/// // Just past a wrap: near is 2^32 + 10, wire seq is 4.
/// assert_eq!(unwrap_seq((1u64 << 32) + 10, 4), (1u64 << 32) + 4);
/// // Just before a wrap: near is 2^32 - 10, wire seq is 0xffff_fff0.
/// assert_eq!(unwrap_seq((1u64 << 32) - 10, 0xffff_fff0), (1u64 << 32) - 16);
/// ```
pub fn unwrap_seq(near: u64, seq: u32) -> u64 {
    let base = near & !0xffff_ffffu64;
    let candidates = [
        base.wrapping_sub(1 << 32) | seq as u64,
        base | seq as u64,
        (base + (1 << 32)) | seq as u64,
    ];
    candidates
        .into_iter()
        .min_by_key(|c| c.abs_diff(near))
        .expect("three candidates")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modular_compare() {
        assert!(seq_lt(0, 1));
        assert!(seq_lt(u32::MAX, 0), "wrap-around compare");
        assert!(!seq_lt(5, 5));
        assert!(seq_le(5, 5));
        assert!(seq_lt(0x7fff_ffff, 0x8000_0000));
    }

    #[test]
    fn unwrap_identity_in_same_epoch() {
        for near in [0u64, 100, 1 << 20] {
            assert_eq!(unwrap_seq(near, near as u32), near);
        }
    }

    #[test]
    fn unwrap_across_wrap() {
        let near = (3u64 << 32) + 5;
        assert_eq!(unwrap_seq(near, 0xffff_ffff), (3u64 << 32) - 1);
        assert_eq!(unwrap_seq(near, 7), (3u64 << 32) + 7);
    }

    #[test]
    fn unwrap_roundtrips_random_offsets() {
        let mut x = 0x12345u64;
        for _ in 0..1000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let off = x % (1 << 40);
            // Anything within +/- 1 GiB of `near` must unwrap exactly.
            for delta in [-1_000_000_000i64, -1448, 0, 1448, 1_000_000_000] {
                let near = off as i64 + delta;
                if near < 0 {
                    continue;
                }
                assert_eq!(unwrap_seq(near as u64, off as u32), off);
            }
        }
    }
}

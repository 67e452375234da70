//! GHASH universal hash over GF(2^128), as specified for GCM
//! (NIST SP 800-38D).
//!
//! Multiplication by the hash key `H` uses Shoup's 8-bit table method. The
//! key-static half is a [`GhashKey`]: the 256 products `b·H` of every byte
//! value `b` (4 KiB, built once per key). One block then costs 16 table
//! steps, `z = (z >> 8) ^ R8[z & 0xff] ^ T[byte]`, highest-degree byte
//! first, where the `const` table `R8` folds the byte shifted out of `z`
//! back in through the field polynomial. The bitwise multiply survives only
//! as the test oracle. This is the portable kernel: a [`crate::gcm::GcmKey`]
//! on a CPU with PCLMULQDQ folds blocks with `pclmulqdq` instead, four per
//! reduction, through the same [`Ghash`] state, and tests check it against
//! this table kernel.
//!
//! The dynamic half is a [`Ghash`]: the accumulator plus a partial-block
//! buffer, `Copy` and a few dozen bytes. That is the *entire* mutable
//! state, which is what makes GCM "incrementally computable over any byte
//! range of a message given only constant-size state" — the §3.2
//! precondition for autonomous offloading.

/// The GCM reduction constant: `x^128 + x^7 + x^2 + x + 1` reflected into
/// GCM's bit order (bit 0 of the polynomial is the most-significant bit).
const R: u128 = 0xE1u128 << 120;

/// Multiplies a field element by `x` (one right shift in GCM bit order).
const fn mul_x(v: u128) -> u128 {
    if v & 1 == 1 {
        (v >> 1) ^ R
    } else {
        v >> 1
    }
}

/// `R8[b]`: what the low byte `b` of `z` contributes back when `z` is
/// multiplied by `x^8`, i.e. `z·x^8 = (z >> 8) ^ (R8[z & 0xff] << 112)`.
/// The reduction only ever touches the top 15 bits, hence `u16`.
static R8: [u16; 256] = {
    let mut t = [0u16; 256];
    let mut b = 0;
    while b < 256 {
        let mut v = b as u128;
        let mut i = 0;
        while i < 8 {
            v = mul_x(v);
            i += 1;
        }
        t[b] = (v >> 112) as u16;
        b += 1;
    }
    t
};

/// Converts a 16-byte block to the u128 big-endian polynomial representation.
#[inline]
pub fn block_to_u128(b: &[u8; 16]) -> u128 {
    u128::from_be_bytes(*b)
}

/// Converts back to bytes.
#[inline]
pub fn u128_to_block(v: u128) -> [u8; 16] {
    v.to_be_bytes()
}

/// The key-static half of GHASH: the 8-bit multiplication table of `H`.
pub struct GhashKey {
    /// `table[b] = b·H`, with byte `b` as the element's degree-0..7 byte.
    table: [u128; 256],
}

impl GhashKey {
    /// Builds the table for hash key `h` (the encrypted all-zero block).
    pub fn new(h: u128) -> GhashKey {
        let mut table = [0u128; 256];
        // Single bits first: the byte 0x80 is the polynomial 1, so it maps
        // to H; each lower bit is one more factor of x.
        let mut v = h;
        let mut bit = 0x80;
        while bit > 0 {
            table[bit] = v;
            v = mul_x(v);
            bit >>= 1;
        }
        // Every other byte is the XOR of its lowest set bit and the rest.
        for b in 1..256usize {
            let low = b & b.wrapping_neg();
            table[b] = table[low] ^ table[b ^ low];
        }
        GhashKey { table }
    }

    /// Folds whole 16-byte `blocks` into `acc`: `acc = (acc ^ block)·H` each.
    fn absorb(&self, mut acc: u128, blocks: &[u8]) -> u128 {
        for b in blocks.chunks_exact(16) {
            acc = self.mul_h(acc ^ block_to_u128(b.try_into().expect("exact chunk")));
        }
        acc
    }

    /// `x·H` by 16 table steps, highest-degree byte first.
    #[inline]
    fn mul_h(&self, x: u128) -> u128 {
        let mut z = 0u128;
        for b in x.to_le_bytes() {
            let reduce = u128::from(R8[usize::from(z as u8)]) << 112;
            z = (z >> 8) ^ reduce ^ self.table[usize::from(b)];
        }
        z
    }
}

impl std::fmt::Debug for GhashKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The table is key material.
        f.debug_struct("GhashKey").finish_non_exhaustive()
    }
}

/// Streaming GHASH state with an internal partial-block buffer; every call
/// takes the [`GhashKey`] it hashes under.
///
/// # Examples
///
/// ```
/// use ano_crypto::ghash::{Ghash, GhashKey};
/// let key = GhashKey::new(0x66e94bd4ef8a2c3b884cfa59ca342b2eu128);
/// let mut a = Ghash::default();
/// a.update(&key, b"hello world, this is ghash input");
/// let mut b = Ghash::default();
/// b.update(&key, b"hello world, ");
/// b.update(&key, b"this is ghash input");
/// assert_eq!(a.finalize(&key), b.finalize(&key));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ghash {
    acc: u128,
    pending: [u8; 16],
    pending_len: usize,
}

impl Ghash {
    /// Absorbs bytes; block boundaries may fall anywhere.
    pub fn update(&mut self, key: &GhashKey, data: &[u8]) {
        self.update_with(data, |acc, blocks| key.absorb(acc, blocks));
    }

    /// Pads any partial block with zeros and absorbs it (GCM does this
    /// between the AAD and ciphertext sections and before the length block).
    pub fn pad_block(&mut self, key: &GhashKey) {
        self.pad_with(|acc, block| key.absorb(acc, block));
    }

    /// The partial-block bookkeeping of [`Ghash::update`] for any kernel:
    /// `absorb(acc, blocks)` folds whole 16-byte blocks into `acc`. The
    /// accumulator always covers every complete block seen, so the exported
    /// state means the same whichever kernel produced it.
    pub(crate) fn update_with(
        &mut self,
        mut data: &[u8],
        mut absorb: impl FnMut(u128, &[u8]) -> u128,
    ) {
        if self.pending_len > 0 {
            let take = (16 - self.pending_len).min(data.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&data[..take]);
            self.pending_len += take;
            data = &data[take..];
            if self.pending_len == 16 {
                self.acc = absorb(self.acc, &self.pending);
                self.pending_len = 0;
            }
            if data.is_empty() {
                return;
            }
        }
        let (blocks, rem) = data.split_at(data.len() / 16 * 16);
        if !blocks.is_empty() {
            self.acc = absorb(self.acc, blocks);
        }
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len();
    }

    /// Folds whole blocks into the accumulator through `fold(acc)`, for a
    /// kernel that hashes data as it transforms it. Only on a block
    /// boundary, with no partial block pending.
    pub(crate) fn fold_aligned(&mut self, fold: impl FnOnce(u128) -> u128) {
        debug_assert_eq!(self.pending_len, 0, "a partial block is pending");
        self.acc = fold(self.acc);
    }

    /// [`Ghash::pad_block`] for any kernel (see [`Ghash::update_with`]).
    pub(crate) fn pad_with(&mut self, absorb: impl FnOnce(u128, &[u8]) -> u128) {
        if self.pending_len > 0 {
            self.pending[self.pending_len..].fill(0);
            self.acc = absorb(self.acc, &self.pending);
            self.pending_len = 0;
        }
    }

    /// Pads, then returns the accumulator.
    pub fn finalize(mut self, key: &GhashKey) -> u128 {
        self.pad_block(key);
        self.acc
    }

    /// Snapshot of `(acc, pending, pending_len)` — the constant-size dynamic
    /// state an offload context must retain.
    pub fn export(&self) -> GhashState {
        GhashState {
            acc: self.acc,
            pending: self.pending,
            pending_len: self.pending_len as u8,
        }
    }

    /// Rebuilds a GHASH mid-stream from an exported state.
    pub fn resume(st: &GhashState) -> Ghash {
        Ghash {
            acc: st.acc,
            pending: st.pending,
            pending_len: st.pending_len as usize,
        }
    }
}

/// Exported GHASH state (33 bytes of information).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GhashState {
    /// The accumulator polynomial.
    pub acc: u128,
    /// Bytes of an incomplete block.
    pub pending: [u8; 16],
    /// How many bytes of `pending` are valid.
    pub pending_len: u8,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::from_hex;
    use ano_testkit::gen::u64_in;
    use ano_testkit::prop_test;

    /// Multiplies two elements of GF(2^128) in the GCM bit order, one bit
    /// of `y` at a time: the oracle for the table kernel.
    fn gf_mul(x: u128, y: u128) -> u128 {
        let mut z = 0u128;
        let mut v = x;
        for i in 0..128 {
            if (y >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            v = mul_x(v);
        }
        z
    }

    #[test]
    fn gf_mul_identity_and_zero() {
        // The multiplicative identity in GCM's representation is 0x80...0
        // (the polynomial "1" with bit 0 in the MSB position).
        let one = 1u128 << 127;
        let x = 0x0123456789abcdef0123456789abcdefu128;
        assert_eq!(gf_mul(x, one), x);
        assert_eq!(gf_mul(x, 0), 0);
        assert_eq!(gf_mul(0, x), 0);
    }

    #[test]
    fn gf_mul_commutes() {
        let a = 0xdeadbeefdeadbeefdeadbeefdeadbeefu128;
        let b = 0x0102030405060708090a0b0c0d0e0f10u128;
        assert_eq!(gf_mul(a, b), gf_mul(b, a));
    }

    #[test]
    fn table_mul_equals_gf_mul_on_edge_values() {
        let edges = [0, 1u128 << 127, u128::MAX, R, 1];
        for h in edges {
            let key = GhashKey::new(h);
            for x in edges {
                assert_eq!(key.mul_h(x), gf_mul(x, h), "x {x:032x} H {h:032x}");
            }
        }
    }

    prop_test! {
        cases = 64;
        fn table_mul_equals_gf_mul(
            x_hi in u64_in(0..u64::MAX),
            x_lo in u64_in(0..u64::MAX),
            h_hi in u64_in(0..u64::MAX),
            h_lo in u64_in(0..u64::MAX),
        ) {
            let x = (u128::from(x_hi) << 64) | u128::from(x_lo);
            let h = (u128::from(h_hi) << 64) | u128::from(h_lo);
            assert_eq!(GhashKey::new(h).mul_h(x), gf_mul(x, h));
        }
    }

    #[test]
    fn ghash_matches_nist_case_2() {
        // NIST GCM test case 2: H = 66e94bd4ef8a2c3b884cfa59ca342b2e,
        // C = 0388dace60b6a392f328c2b971b2fe78, len block = 0^64 || 0x80 (128 bits).
        let key = GhashKey::new(block_to_u128(
            &from_hex("66e94bd4ef8a2c3b884cfa59ca342b2e").try_into().unwrap(),
        ));
        let mut g = Ghash::default();
        g.update(&key, &from_hex("0388dace60b6a392f328c2b971b2fe78"));
        let mut len_block = [0u8; 16];
        len_block[8..16].copy_from_slice(&(128u64).to_be_bytes());
        g.update(&key, &len_block);
        let out = u128_to_block(g.finalize(&key));
        assert_eq!(out.to_vec(), from_hex("f38cbb1ad69223dcc3457ae5b6b0f885"));
    }

    #[test]
    fn split_updates_equal_one_shot() {
        let key = GhashKey::new(0x5e2ec746917062882c85b0685353deb7u128);
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7) as u8).collect();
        let mut one = Ghash::default();
        one.update(&key, &data);
        for split in [1usize, 15, 16, 17, 31, 100, 199] {
            let mut two = Ghash::default();
            two.update(&key, &data[..split]);
            two.update(&key, &data[split..]);
            assert_eq!(one.finalize(&key), two.finalize(&key), "split {split}");
        }
    }

    #[test]
    fn export_resume_mid_stream() {
        let key = GhashKey::new(0xabcdefabcdefabcdefabcdefabcdefabu128);
        let data: Vec<u8> = (0..77u8).collect();
        let mut full = Ghash::default();
        full.update(&key, &data);

        let mut part = Ghash::default();
        part.update(&key, &data[..33]);
        let st = part.export();
        let mut resumed = Ghash::resume(&st);
        resumed.update(&key, &data[33..]);
        assert_eq!(full.finalize(&key), resumed.finalize(&key));
    }

    #[test]
    fn pad_block_is_idempotent_on_boundary() {
        let key = GhashKey::new(0x1u128 << 127);
        let mut g = Ghash::default();
        g.update(&key, &[0xAAu8; 32]);
        let before = g.finalize(&key);
        g.pad_block(&key);
        assert_eq!(g.finalize(&key), before);
    }
}

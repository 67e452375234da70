//! AES block cipher (FIPS 197), encryption direction.
//!
//! GCM only ever uses the forward cipher, so the decryption round functions
//! are deliberately not implemented. The rounds use the classic four
//! T-tables (`TE0..TE3`, 1 KiB each, generated at compile time from the
//! S-box): each table entry is one S-box output already multiplied through
//! the MixColumns column, so a full round is 16 table reads and XORs on
//! four big-endian column words. The last round, which has no MixColumns,
//! reads the plain S-box. This is the portable cipher: a [`crate::gcm::GcmKey`]
//! on a CPU with AES-NI hands the same round keys to `aesenc` instead, and
//! tests check that path against this one. Either way the cycle-cost
//! model, not the host's speed, stands in for AES-NI in experiments.
//!
//! An [`Aes`] is key-static state only: the expanded round keys
//! (`[u32; 60]`, no heap) and the round count, so it is `Copy`.

/// AES key sizes supported by this module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AesKeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 256-bit key, 14 rounds.
    Aes256,
}

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// One T-table: entry `i` is the MixColumns column `[2s, s, s, 3s]` of
/// `s = SBOX[i]` (row 0 in the most significant byte), rotated right by
/// `rot` bits so the same table serves the input byte of row `rot / 8`.
const fn t_table(rot: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        t[i] = u32::from_be_bytes([s2, s, s, s2 ^ s]).rotate_right(rot);
        i += 1;
    }
    t
}

static TE0: [u32; 256] = t_table(0);
static TE1: [u32; 256] = t_table(8);
static TE2: [u32; 256] = t_table(16);
static TE3: [u32; 256] = t_table(24);

/// Byte `row` (0 = most significant) of a column word, as a table index.
#[inline(always)]
fn byte(w: u32, row: u32) -> usize {
    usize::from((w >> (24 - 8 * row)) as u8)
}

#[inline]
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[usize::from(b)]))
}

#[cfg(test)]
thread_local! {
    /// Blocks encrypted on this thread: lets tests assert that a code path
    /// runs no AES (tests run on parallel threads, hence thread-local).
    pub(crate) static BLOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An expanded AES key, ready to encrypt blocks.
///
/// # Examples
///
/// ```
/// use ano_crypto::aes::Aes;
/// let aes = Aes::new_128(&[0u8; 16]);
/// let mut block = [0u8; 16];
/// aes.encrypt_block(&mut block);
/// assert_ne!(block, [0u8; 16]);
/// ```
#[derive(Clone, Copy)]
pub struct Aes {
    /// Round-key words, four per round key; the first `4 * (rounds + 1)`
    /// are used (44 for AES-128, all 60 for AES-256).
    rk: [u32; 60],
    rounds: usize,
}

impl Aes {
    /// Expands a 128-bit key.
    pub fn new_128(key: &[u8; 16]) -> Aes {
        Aes::expand(key)
    }

    /// Expands a 256-bit key.
    pub fn new_256(key: &[u8; 32]) -> Aes {
        Aes::expand(key)
    }

    /// Expands a key of either supported size.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` is not 16 or 32.
    pub fn new(key: &[u8]) -> Aes {
        match key.len() {
            16 | 32 => Aes::expand(key),
            n => panic!("unsupported AES key length {n}"),
        }
    }

    /// The configured key size.
    pub fn key_size(&self) -> AesKeySize {
        if self.rounds == 10 {
            AesKeySize::Aes128
        } else {
            AesKeySize::Aes256
        }
    }

    /// FIPS 197 §5.2 key expansion over big-endian words.
    fn expand(key: &[u8]) -> Aes {
        let nk = key.len() / 4; // words in key: 4 or 8
        let rounds = nk + 6; // 10 or 14
        let mut rk = [0u32; 60];
        for (w, k) in rk.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_be_bytes([k[0], k[1], k[2], k[3]]);
        }
        for i in nk..4 * (rounds + 1) {
            let mut t = rk[i - 1];
            if i % nk == 0 {
                t = sub_word(t.rotate_left(8)) ^ (u32::from(RCON[i / nk]) << 24);
            } else if nk > 6 && i % nk == 4 {
                t = sub_word(t);
            }
            rk[i] = rk[i - nk] ^ t;
        }
        Aes { rk, rounds }
    }

    /// The round keys in use, four big-endian FIPS 197 words each
    /// (`4 * (rounds + 1)` words).
    pub(crate) fn round_key_words(&self) -> &[u32] {
        &self.rk[..4 * (self.rounds + 1)]
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(test)]
        BLOCKS.with(|n| n.set(n.get() + 1));
        let mut keys = self.round_key_words().chunks_exact(4);
        let mut s = [0u32; 4];
        if let Some(k) = keys.next() {
            for (c, w) in s.iter_mut().enumerate() {
                let b = &block[4 * c..4 * c + 4];
                *w = u32::from_be_bytes([b[0], b[1], b[2], b[3]]) ^ k[c];
            }
        }
        // Output column c takes row r from input column c + r (ShiftRows).
        for k in keys.by_ref().take(self.rounds - 1) {
            s = [0, 1, 2, 3].map(|c| {
                TE0[byte(s[c], 0)]
                    ^ TE1[byte(s[(c + 1) % 4], 1)]
                    ^ TE2[byte(s[(c + 2) % 4], 2)]
                    ^ TE3[byte(s[(c + 3) % 4], 3)]
                    ^ k[c]
            });
        }
        if let Some(k) = keys.next() {
            for c in 0..4 {
                let w =
                    u32::from_be_bytes([0, 1, 2, 3].map(|r| SBOX[byte(s[(c + r) % 4], r as u32)]));
                block[4 * c..4 * c + 4].copy_from_slice(&(w ^ k[c]).to_be_bytes());
            }
        }
    }

    /// Encrypts one block, returning the result (convenience for GCM).
    pub fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("size", &self.key_size()).finish()
    }
}

/// The textbook byte-wise FIPS 197 cipher (SubBytes, ShiftRows,
/// MixColumns, AddRoundKey on a 16-byte state) with its own key expansion:
/// the oracle the T-table kernel is checked against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{xtime, RCON, SBOX};

    /// Byte-oriented round keys of a 16- or 32-byte key.
    pub fn expand(key: &[u8]) -> Vec<[u8; 16]> {
        let nk = key.len() / 4;
        let nr = nk + 6;
        let total_words = 4 * (nr + 1);
        let mut w = vec![[0u8; 4]; total_words];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk];
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        (0..=nr)
            .map(|r| {
                let mut rk = [0u8; 16];
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
                rk
            })
            .collect()
    }

    /// Encrypts one block with the round keys from [`expand`].
    pub fn encrypt_block(round_keys: &[[u8; 16]], block: &mut [u8; 16]) {
        let nr = round_keys.len() - 1;
        add_round_key(block, &round_keys[0]);
        for rk in &round_keys[1..nr] {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, rk);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &round_keys[nr]);
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State layout is column-major: byte `r + 4c` is row `r`, column `c`.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            for r in 0..4 {
                state[4 * c + r] = col[r] ^ t ^ xtime(col[r] ^ col[(r + 1) % 4]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::from_hex;
    use ano_testkit::gen::vec_u8;
    use ano_testkit::prop_test;

    #[test]
    fn fips197_aes128_vector() {
        // FIPS 197 Appendix C.1
        let key: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        Aes::new_128(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS 197 Appendix C.3
        let key: [u8; 32] =
            from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        Aes::new_256(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("8ea2b7ca516745bfeafc49904b496089"));
    }

    #[test]
    fn sp800_38a_aes128_ecb_vector() {
        // NIST SP 800-38A F.1.1 ECB-AES128.Encrypt, block #1
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let mut block: [u8; 16] = from_hex("6bc1bee22e409f96e93d7e117393172a").try_into().unwrap();
        Aes::new_128(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn generic_constructor_dispatches() {
        let a = Aes::new(&[0u8; 16]);
        assert_eq!(a.key_size(), AesKeySize::Aes128);
        let b = Aes::new(&[0u8; 32]);
        assert_eq!(b.key_size(), AesKeySize::Aes256);
    }

    #[test]
    #[should_panic]
    fn bad_key_length_rejected() {
        let _ = Aes::new(&[0u8; 24]); // AES-192 unsupported by design
    }

    #[test]
    fn debug_hides_key() {
        let a = Aes::new_128(&[7u8; 16]);
        let s = format!("{a:?}");
        assert!(!s.contains('7'), "debug must not leak key bytes: {s}");
    }

    /// The T-table kernel equals the byte-wise FIPS 197 rounds on `key`.
    fn check_against_reference(key: &[u8], block: &[u8]) {
        let block: [u8; 16] = block.try_into().expect("16-byte block");
        let mut want = block;
        reference::encrypt_block(&reference::expand(key), &mut want);
        assert_eq!(Aes::new(key).encrypt_block_copy(&block), want, "key {key:02x?}");
    }

    prop_test! {
        cases = 64;
        fn ttable_aes128_equals_reference(key in vec_u8(16..17), block in vec_u8(16..17)) {
            check_against_reference(&key, &block);
        }
    }

    prop_test! {
        cases = 64;
        fn ttable_aes256_equals_reference(key in vec_u8(32..33), block in vec_u8(16..17)) {
            check_against_reference(&key, &block);
        }
    }
}

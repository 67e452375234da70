//! AES-GCM authenticated encryption (NIST SP 800-38D) with a streaming API.
//!
//! Beyond the usual one-shot [`seal`]/[`open`], this module exposes
//! [`GcmStream`]: an incremental cipher that can process a message in
//! arbitrary byte-range steps and export/import its constant-size dynamic
//! state between steps. That is precisely the capability an autonomous NIC
//! offload needs (paper §3.2): the per-flow hardware context stores the
//! exported state and processes each in-sequence TCP packet as it flies by.
//!
//! The state splits the way §3.2 splits it:
//!
//! * **key-static** — a [`GcmKey`]: the AES round keys and the hash key
//!   `H = E_K(0^128)`, with `H²`..`H⁴` for the hardware kernels or the
//!   4 KiB GHASH table of `H` for the portable ones. It is built once per
//!   session and shared into every record's stream by `Arc`; the table is
//!   built lazily, by the first stream that sees real bytes, so keys that
//!   only ever frame modeled payloads never pay for it.
//! * **dynamic** — a [`GcmSavedState`]: the GHASH accumulator and partial
//!   block plus the AAD and data lengths (~50 bytes). Starting or resuming a
//!   stream from it costs no AES block and no heap allocation.
//!
//! [`GcmKey::new`] picks the kernels once per key. On x86-64 with AES-NI and
//! PCLMULQDQ, `process` runs eight counter blocks in flight and hashes the
//! ciphertext four blocks per reduction in the same pass (the private
//! `x86_64` module). Otherwise it runs the portable kernels: T-table AES one
//! keystream block at a time as a single `u128` XOR, then the 8-bit-table
//! GHASH. The portable path is the oracle for the hardware one; both give
//! the same bytes, tags and [`GcmSavedState`] at every split point.

use std::sync::{Arc, OnceLock};

use crate::aes::Aes;
use crate::ghash::{block_to_u128, u128_to_block, Ghash, GhashKey, GhashState};
use crate::AuthError;

/// GCM authentication tag length in bytes.
pub const TAG_LEN: usize = 16;
/// GCM nonce (IV) length in bytes used throughout (the TLS 1.3 size).
pub const IV_LEN: usize = 12;

/// Direction of a [`GcmStream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Plaintext in, ciphertext out.
    Encrypt,
    /// Ciphertext in, plaintext out.
    Decrypt,
}

/// The key-static state of AES-GCM under one key: what a NIC installs once
/// per flow and every record's stream reads.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ano_crypto::aes::Aes;
/// use ano_crypto::gcm::{seal, GcmKey};
///
/// let aes = Aes::new_128(&[1u8; 16]);
/// let key = Arc::new(GcmKey::new(aes));
/// let (mut a, mut b) = (*b"same bytes", *b"same bytes");
/// assert_eq!(key.seal(&[2; 12], b"aad", &mut a), seal(&aes, &[2; 12], b"aad", &mut b));
/// assert_eq!(a, b);
/// ```
pub struct GcmKey {
    backend: Backend,
}

/// Which kernels a [`GcmKey`] runs, chosen once in [`GcmKey::new`].
enum Backend {
    /// T-table AES and the 8-bit GHASH table of `h`, built by the first
    /// stream: the fallback on other CPUs and the oracle in tests.
    Portable {
        aes: Aes,
        h: u128,
        ghash: OnceLock<Box<GhashKey>>,
    },
    /// AES-NI and PCLMULQDQ.
    #[cfg(target_arch = "x86_64")]
    Hw(crate::x86_64::GcmHw),
}

impl GcmKey {
    /// Picks the hardware kernels when this CPU has AES-NI and PCLMULQDQ,
    /// the portable ones otherwise, and derives `H` (one AES block). The
    /// portable GHASH table waits for the first stream.
    pub fn new(aes: Aes) -> GcmKey {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = crate::x86_64::GcmHw::new(&aes) {
            return GcmKey {
                backend: Backend::Hw(hw),
            };
        }
        GcmKey::portable(aes)
    }

    /// A key on the portable kernels, whatever the CPU.
    pub(crate) fn portable(aes: Aes) -> GcmKey {
        let h = block_to_u128(&aes.encrypt_block_copy(&[0u8; 16]));
        GcmKey {
            backend: Backend::Portable {
                aes,
                h,
                ghash: OnceLock::new(),
            },
        }
    }

    /// Absorbs `data` into `g`.
    fn ghash_update(&self, g: &mut Ghash, data: &[u8]) {
        match &self.backend {
            Backend::Portable { h, ghash, .. } => g.update(ghash_table(*h, ghash), data),
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(hw) => hw.ghash_update(g, data),
        }
    }

    /// Zero-pads and absorbs `g`'s partial block.
    fn ghash_pad(&self, g: &mut Ghash) {
        match &self.backend {
            Backend::Portable { h, ghash, .. } => g.pad_block(ghash_table(*h, ghash)),
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(hw) => hw.ghash_pad(g),
        }
    }

    /// `E_K(block)`.
    fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        match &self.backend {
            Backend::Portable { aes, .. } => aes.encrypt_block_copy(block),
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(hw) => hw.encrypt_block(block),
        }
    }

    /// One-shot encryption in place; returns the tag.
    pub fn seal(self: &Arc<Self>, iv: &[u8; IV_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let mut s = GcmStream::new(Arc::clone(self), iv, aad, Direction::Encrypt);
        s.process(data);
        s.tag()
    }

    /// One-shot decryption in place with tag verification.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] and leaves `data` decrypted-in-place-but-untrusted
    /// on tag mismatch (callers must discard it).
    pub fn open(
        self: &Arc<Self>,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AuthError> {
        let mut s = GcmStream::new(Arc::clone(self), iv, aad, Direction::Decrypt);
        s.process(data);
        s.verify(tag)
    }
}

/// The 4 KiB GHASH table of `h`, built on the heap on first use.
fn ghash_table(h: u128, table: &OnceLock<Box<GhashKey>>) -> &GhashKey {
    table.get_or_init(|| Box::new(GhashKey::new(h)))
}

impl std::fmt::Debug for GcmKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        match &self.backend {
            Backend::Portable { aes, ghash, .. } => f
                .debug_struct("GcmKey")
                .field("aes", aes)
                .field("ghash_table", &ghash.get().is_some())
                .finish(),
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(_) => f
                .debug_struct("GcmKey")
                .field("backend", &"aes-ni")
                .finish(),
        }
    }
}

/// Incremental AES-GCM over one message.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ano_crypto::aes::Aes;
/// use ano_crypto::gcm::{seal, Direction, GcmKey, GcmStream};
///
/// let aes = Aes::new_128(&[1u8; 16]);
/// let iv = [2u8; 12];
/// let mut data = *b"stream me in pieces, any pieces";
/// let mut oneshot = data.to_vec();
/// let expect = seal(&aes, &iv, b"aad", &mut oneshot);
///
/// let key = Arc::new(GcmKey::new(aes));
/// let mut s = GcmStream::new(key, &iv, b"aad", Direction::Encrypt);
/// s.process(&mut data[..7]);
/// s.process(&mut data[7..]);
/// assert_eq!(&data[..], &oneshot[..]);
/// assert_eq!(s.tag(), expect);
/// ```
#[derive(Clone)]
pub struct GcmStream {
    key: Arc<GcmKey>,
    j0: [u8; 16],
    ghash: Ghash,
    aad_len: u64,
    data_len: u64,
    dir: Direction,
}

/// The constant-size dynamic state of a [`GcmStream`] (what a NIC flow
/// context stores between packets; ~50 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcmSavedState {
    ghash: GhashState,
    aad_len: u64,
    data_len: u64,
    dir: Direction,
}

/// The pre-counter block `J0 = IV || 0^31 || 1` of a 96-bit IV.
fn j0(iv: &[u8; IV_LEN]) -> [u8; 16] {
    let mut j0 = [0u8; 16];
    j0[..IV_LEN].copy_from_slice(iv);
    j0[15] = 1;
    j0
}

impl GcmStream {
    /// Starts a stream over a fresh message with the given nonce and AAD.
    pub fn new(key: Arc<GcmKey>, iv: &[u8; IV_LEN], aad: &[u8], dir: Direction) -> GcmStream {
        let mut ghash = Ghash::default();
        key.ghash_update(&mut ghash, aad);
        key.ghash_pad(&mut ghash);
        GcmStream {
            key,
            j0: j0(iv),
            ghash,
            aad_len: aad.len() as u64,
            data_len: 0,
            dir,
        }
    }

    /// Bytes of message data processed so far.
    pub fn position(&self) -> u64 {
        self.data_len
    }

    fn keystream_block(&self, block_index: u64) -> [u8; 16] {
        // Data blocks use counters starting at J0+1 (J0 itself masks the tag).
        let mut cb = self.j0;
        let ctr = u32::from_be_bytes(cb[12..16].try_into().expect("4 bytes"));
        let ctr = ctr.wrapping_add(1).wrapping_add(block_index as u32);
        cb[12..16].copy_from_slice(&ctr.to_be_bytes());
        self.key.encrypt_block(&cb)
    }

    /// XORs the keystream into `data`, which starts `pos` bytes into the
    /// message and stays within one keystream block.
    fn xor_partial(&self, pos: u64, data: &mut [u8]) {
        let ks = self.keystream_block(pos / 16);
        for (d, k) in data.iter_mut().zip(&ks[(pos % 16) as usize..]) {
            *d ^= k;
        }
    }

    /// Transforms `data` in place, continuing from the current position.
    ///
    /// Call boundaries may fall anywhere — mid keystream block, mid GHASH
    /// block — mirroring TCP's freedom to segment L5P messages arbitrarily.
    pub fn process(&mut self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        match &self.key.backend {
            Backend::Portable { .. } => self.process_portable(data),
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(hw) => hw.process(&self.j0, self.data_len, self.dir, &mut self.ghash, data),
        }
        self.data_len += data.len() as u64;
    }

    /// [`GcmStream::process`] on the portable kernels: a GHASH pass and a
    /// keystream pass, whole blocks one keystream block at a time.
    fn process_portable(&mut self, data: &mut [u8]) {
        if self.dir == Direction::Decrypt {
            self.key.ghash_update(&mut self.ghash, data);
        }
        let mut pos = self.data_len;
        // Ragged head up to the next keystream-block boundary.
        let head = ((16 - pos % 16) % 16).min(data.len() as u64) as usize;
        let (head, body) = data.split_at_mut(head);
        if !head.is_empty() {
            self.xor_partial(pos, head);
            pos += head.len() as u64;
        }
        // Whole blocks: one keystream block, one u128 XOR.
        let mut blocks = body.chunks_exact_mut(16);
        for b in &mut blocks {
            let ks = u128::from_ne_bytes(self.keystream_block(pos / 16));
            let v = u128::from_ne_bytes((&*b).try_into().expect("exact chunk")) ^ ks;
            b.copy_from_slice(&v.to_ne_bytes());
            pos += 16;
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            self.xor_partial(pos, tail);
        }
        if self.dir == Direction::Encrypt {
            self.key.ghash_update(&mut self.ghash, data);
        }
    }

    /// Computes the tag over everything processed so far (non-destructive,
    /// so software fallbacks can authenticate partially offloaded messages
    /// after reprocessing).
    pub fn tag(&self) -> [u8; TAG_LEN] {
        let mut g = self.ghash;
        self.key.ghash_pad(&mut g);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&(self.aad_len * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&(self.data_len * 8).to_be_bytes());
        // A whole block: the accumulator now covers everything.
        self.key.ghash_update(&mut g, &len_block);
        let mask = block_to_u128(&self.key.encrypt_block(&self.j0));
        u128_to_block(g.export().acc ^ mask)
    }

    /// Verifies `tag` against the processed data in constant time.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] on mismatch.
    pub fn verify(&self, tag: &[u8; TAG_LEN]) -> Result<(), AuthError> {
        let computed = self.tag();
        let diff = computed
            .iter()
            .zip(tag.iter())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b));
        if diff == 0 {
            Ok(())
        } else {
            Err(AuthError)
        }
    }

    /// Exports the constant-size dynamic state (paper §3.2).
    pub fn export(&self) -> GcmSavedState {
        GcmSavedState {
            ghash: self.ghash.export(),
            aad_len: self.aad_len,
            data_len: self.data_len,
            dir: self.dir,
        }
    }

    /// Resumes a stream mid-message from an exported state. The key and IV
    /// are per-message static state (§3.2) and are supplied afresh.
    pub fn resume(key: Arc<GcmKey>, iv: &[u8; IV_LEN], st: &GcmSavedState) -> GcmStream {
        GcmStream {
            key,
            j0: j0(iv),
            ghash: Ghash::resume(&st.ghash),
            aad_len: st.aad_len,
            data_len: st.data_len,
            dir: st.dir,
        }
    }
}

impl std::fmt::Debug for GcmStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcmStream")
            .field("dir", &self.dir)
            .field("position", &self.data_len)
            .finish()
    }
}

/// One-shot encryption in place; returns the tag. Expands a one-use
/// [`GcmKey`]: callers with a long-lived key use [`GcmKey::seal`].
pub fn seal(aes: &Aes, iv: &[u8; IV_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
    Arc::new(GcmKey::new(*aes)).seal(iv, aad, data)
}

/// One-shot decryption in place with tag verification (see [`GcmKey::open`]).
///
/// # Errors
///
/// Returns [`AuthError`] and leaves `data` decrypted-in-place-but-untrusted
/// on tag mismatch (callers must discard it).
pub fn open(
    aes: &Aes,
    iv: &[u8; IV_LEN],
    aad: &[u8],
    data: &mut [u8],
    tag: &[u8; TAG_LEN],
) -> Result<(), AuthError> {
    Arc::new(GcmKey::new(*aes)).open(iv, aad, data, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::{from_hex, to_hex};

    fn k128(hex: &str) -> Aes {
        Aes::new_128(&from_hex(hex).try_into().unwrap())
    }

    fn key(aes: Aes) -> Arc<GcmKey> {
        Arc::new(GcmKey::new(aes))
    }

    /// `aes` on the kernels `GcmKey::new` picks, then on the portable ones.
    fn both_paths(aes: Aes) -> [Arc<GcmKey>; 2] {
        [key(aes), Arc::new(GcmKey::portable(aes))]
    }

    /// A known-answer vector on both paths: seal gives `ct` and `tag`, and
    /// open takes them back to `plain`.
    fn check_vector(aes: Aes, iv: &str, aad: &str, plain: &str, ct: &str, tag: &str) {
        let iv: [u8; IV_LEN] = from_hex(iv).try_into().unwrap();
        let aad = from_hex(aad);
        for k in both_paths(aes) {
            let mut data = from_hex(plain);
            let t = k.seal(&iv, &aad, &mut data);
            assert_eq!(
                (to_hex(&data), to_hex(&t)),
                (ct.to_string(), tag.to_string()),
                "{k:?}"
            );
            k.open(&iv, &aad, &mut data, &t).expect("valid tag");
            assert_eq!(to_hex(&data), plain, "{k:?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn key_picks_the_hardware_kernels_when_the_cpu_has_them() {
        // Every CPU with AES-NI and PCLMULQDQ also has SSE4.1.
        let hw = is_x86_feature_detected!("aes") && is_x86_feature_detected!("pclmulqdq");
        let k = GcmKey::new(k128("000102030405060708090a0b0c0d0e0f"));
        assert_eq!(matches!(k.backend, Backend::Hw(_)), hw, "{k:?}");
    }

    #[test]
    fn nist_case_1_empty() {
        // Key 0^128, IV 0^96, empty plaintext, empty AAD.
        let aes = k128("00000000000000000000000000000000");
        check_vector(
            aes,
            "000000000000000000000000",
            "",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        );
    }

    #[test]
    fn nist_case_2_one_block() {
        check_vector(
            k128("00000000000000000000000000000000"),
            "000000000000000000000000",
            "",
            "00000000000000000000000000000000",
            "0388dace60b6a392f328c2b971b2fe78",
            "ab6e47d42cec13bdf53a67b21257bddf",
        );
    }

    #[test]
    fn nist_case_3_four_blocks() {
        check_vector(
            k128("feffe9928665731c6d6a8f9467308308"),
            "cafebabefacedbaddecaf888",
            "",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4",
        );
    }

    #[test]
    fn nist_case_4_with_aad_and_partial_block() {
        check_vector(
            k128("feffe9928665731c6d6a8f9467308308"),
            "cafebabefacedbaddecaf888",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47",
        );
    }

    #[test]
    fn mcgrew_viega_case_13_aes256_empty() {
        // K = 0^256, IV = 0^96, empty plaintext and AAD.
        let aes = Aes::new_256(&[0u8; 32]);
        check_vector(
            aes,
            "000000000000000000000000",
            "",
            "",
            "",
            "530f8afbc74536b9a963b4f1c4cb738b",
        );
    }

    #[test]
    fn mcgrew_viega_case_14_aes256_one_block() {
        // K = 0^256, IV = 0^96, P = 0^128.
        check_vector(
            Aes::new_256(&[0u8; 32]),
            "000000000000000000000000",
            "",
            "00000000000000000000000000000000",
            "cea7403d4d606b6e074ec5d3baf39d18",
            "d0d1c8a799996bf0265b98b5d48ab919",
        );
    }

    #[test]
    fn open_roundtrip_and_reject() {
        let aes = k128("000102030405060708090a0b0c0d0e0f");
        let iv = [9u8; 12];
        let msg = b"attack at dawn".to_vec();
        let mut data = msg.clone();
        let tag = seal(&aes, &iv, b"hdr", &mut data);
        let mut rt = data.clone();
        open(&aes, &iv, b"hdr", &mut rt, &tag).expect("valid tag");
        assert_eq!(rt, msg);

        let mut bad_tag = tag;
        bad_tag[0] ^= 1;
        let mut rt2 = data.clone();
        assert!(open(&aes, &iv, b"hdr", &mut rt2, &bad_tag).is_err());

        let mut tampered = data.clone();
        tampered[3] ^= 0x80;
        assert!(open(&aes, &iv, b"hdr", &mut tampered, &tag).is_err());
    }

    #[test]
    fn streaming_matches_oneshot_for_any_split() {
        let aes = k128("feffe9928665731c6d6a8f9467308308");
        let iv = [7u8; 12];
        let msg: Vec<u8> = (0..123u8).collect();
        let mut oneshot = msg.clone();
        let expect_tag = seal(&aes, &iv, b"A", &mut oneshot);

        let k = key(aes);
        for split in [1usize, 5, 15, 16, 17, 32, 64, 100, 122] {
            let mut data = msg.clone();
            let mut s = GcmStream::new(Arc::clone(&k), &iv, b"A", Direction::Encrypt);
            s.process(&mut data[..split]);
            s.process(&mut data[split..]);
            assert_eq!(data, oneshot, "split {split}");
            assert_eq!(s.tag(), expect_tag, "split {split}");
        }
    }

    #[test]
    fn export_resume_mid_message() {
        let aes = k128("feffe9928665731c6d6a8f9467308308");
        let iv = [3u8; 12];
        let msg: Vec<u8> = (0..200u8).collect();
        let mut oneshot = msg.clone();
        let expect_tag = seal(&aes, &iv, &[], &mut oneshot);

        let k = key(aes);
        let mut data = msg.clone();
        let mut s1 = GcmStream::new(Arc::clone(&k), &iv, &[], Direction::Encrypt);
        s1.process(&mut data[..77]);
        let saved = s1.export();
        drop(s1); // the NIC context is all that survives

        let mut s2 = GcmStream::resume(k, &iv, &saved);
        assert_eq!(s2.position(), 77);
        s2.process(&mut data[77..]);
        assert_eq!(data, oneshot);
        assert_eq!(s2.tag(), expect_tag);
    }

    #[test]
    fn decrypt_stream_verifies() {
        let aes = k128("0101010101010101010101010101ffff");
        let iv = [1u8; 12];
        let msg = vec![0x5Au8; 1000];
        let mut ct = msg.clone();
        let tag = seal(&aes, &iv, b"aad!", &mut ct);

        let mut d = GcmStream::new(key(aes), &iv, b"aad!", Direction::Decrypt);
        // Decrypt in uneven packet-like chunks.
        let mut off = 0;
        for sz in [3usize, 160, 291, 546] {
            d.process(&mut ct[off..off + sz]);
            off += sz;
        }
        assert_eq!(off, 1000);
        assert_eq!(ct, msg);
        d.verify(&tag).expect("auth ok");
    }

    #[test]
    fn stream_setup_is_key_free_and_small() {
        // Key-static work happens once, in `GcmKey::new` and the first
        // stream's table build; starting or resuming a record's stream then
        // runs no AES block on either path, and the key-static state stays
        // out of the per-stream state.
        for k in both_paths(k128("feffe9928665731c6d6a8f9467308308")) {
            let iv = [4u8; 12];
            let mut first = GcmStream::new(Arc::clone(&k), &iv, b"warm", Direction::Encrypt);
            let blocks = || crate::aes::BLOCKS.with(|n| n.get());
            let before = blocks();
            first.process(&mut [0u8; 40]);
            assert!(blocks() > before, "{k:?}: processing counts its blocks");

            let before = blocks();
            let s = GcmStream::new(Arc::clone(&k), &iv, b"hdr", Direction::Decrypt);
            let r = GcmStream::resume(Arc::clone(&k), &iv, &first.export());
            assert_eq!(blocks(), before, "{k:?}: new/resume encrypt no block");
            drop((s, r));
        }

        const BOUND: usize = 128;
        assert!(
            std::mem::size_of::<GcmStream>() <= BOUND,
            "GcmStream is {} bytes, bound {BOUND}",
            std::mem::size_of::<GcmStream>()
        );
    }
}

//! AES-NI, PCLMULQDQ and SSE4.2 kernels for GCM and CRC32C, after Gueron &
//! Kounavis, *Intel Carry-Less Multiplication Instruction and its Usage for
//! Computing the GCM Mode* (Intel, 2010):
//!
//! * AES-CTR with eight blocks in flight on `aesenc`/`aesenclast`;
//! * GHASH on `pclmulqdq`, four blocks per reduction, with `H`..`H⁴`
//!   computed once per key;
//! * GCM's `process` run by both in one pass, eight blocks at a time;
//! * CRC32C on `crc32` over three interleaved streams, joined by a shift
//!   table built with [`crate::crc32c::combine`].
//!
//! The hardware path is chosen at run time, never at build time. A
//! [`GcmHw`] can only be built by [`GcmHw::new`], which checks the CPU, so
//! holding one proves that its kernels may run; [`crate::gcm::GcmKey::new`]
//! builds one per key and keeps the portable kernels when the CPU lacks the
//! instructions. [`crc32c`] checks the CPU on every call. The portable
//! kernels are the oracle: the tests below run both on the same inputs.
//!
//! Every kernel is a `#[target_feature]` function. Bytes enter and leave the
//! vector registers as `u64` words through `_mm_set_epi64x` and
//! `_mm_extract_epi64`, never through raw pointers, so the only `unsafe` is
//! the call into a kernel after the check.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128,
    _mm_crc32_u64, _mm_crc32_u8, _mm_extract_epi64, _mm_set_epi32, _mm_set_epi64x, _mm_set_epi8,
    _mm_shuffle_epi8, _mm_slli_epi32, _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128,
    _mm_xor_si128,
};
use std::sync::OnceLock;

use crate::aes::Aes;
use crate::gcm::Direction;
use crate::ghash::Ghash;

/// AES-CTR blocks kept in flight, and so the blocks per fused GCM run.
const LANES: usize = 8;

/// One AES key and GHASH key in vector registers (no `Debug`: it is all
/// key material).
pub(crate) struct GcmHw {
    /// Round keys in block byte order; the first `rounds + 1` are used.
    rk: [__m128i; 15],
    rounds: usize,
    /// `H`, `H²`, `H³`, `H⁴`, each [`twist`]ed, as GHASH field elements
    /// (the big-endian `u128` of [`crate::ghash::block_to_u128`]).
    h: [__m128i; 4],
}

#[expect(
    unsafe_code,
    reason = "calls into #[target_feature] kernels; a GcmHw exists only after GcmHw::new found the features"
)]
impl GcmHw {
    /// Loads `aes` and derives `H`..`H⁴`, or `None` if this CPU lacks AES-NI,
    /// PCLMULQDQ or SSE4.1.
    pub(crate) fn new(aes: &Aes) -> Option<GcmHw> {
        let detected = is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1");
        // SAFETY: the CPU reports every feature the kernel enables.
        detected.then(|| unsafe { load_key(aes) })
    }

    /// [`Ghash::update`] on `pclmulqdq`.
    pub(crate) fn ghash_update(&self, g: &mut Ghash, data: &[u8]) {
        // SAFETY: `self` exists only if `GcmHw::new` found the features.
        unsafe { ghash_update(self, g, data) }
    }

    /// [`Ghash::pad_block`] on `pclmulqdq`.
    pub(crate) fn ghash_pad(&self, g: &mut Ghash) {
        // SAFETY: as in `ghash_update`.
        unsafe { ghash_pad(self, g) }
    }

    /// Transforms `data`, which starts `pos` bytes into the message under
    /// pre-counter block `j0`, and hashes its ciphertext into `g`.
    pub(crate) fn process(
        &self,
        j0: &[u8; 16],
        pos: u64,
        dir: Direction,
        g: &mut Ghash,
        data: &mut [u8],
    ) {
        // SAFETY: as in `ghash_update`.
        unsafe { process(self, j0, pos, dir, g, data) }
    }

    /// `E_K(block)`.
    pub(crate) fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        // SAFETY: as in `ghash_update`.
        unsafe { to_bytes(encrypt(self, [load(block)])[0]) }
    }
}

/// A block in byte order: byte `i` in lane byte `i`.
#[inline]
#[target_feature(enable = "sse4.1")]
fn load(b: &[u8]) -> __m128i {
    let lo = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
    _mm_set_epi64x(hi as i64, lo as i64)
}

#[inline]
#[target_feature(enable = "sse4.1")]
fn to_bytes(x: __m128i) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&(_mm_extract_epi64::<0>(x) as u64).to_le_bytes());
    out[8..].copy_from_slice(&(_mm_extract_epi64::<1>(x) as u64).to_le_bytes());
    out
}

/// A GHASH field element from a `u128`.
#[inline]
#[target_feature(enable = "sse4.1")]
fn from_u128(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

#[inline]
#[target_feature(enable = "sse4.1")]
fn to_u128(x: __m128i) -> u128 {
    (u128::from(_mm_extract_epi64::<1>(x) as u64) << 64)
        | u128::from(_mm_extract_epi64::<0>(x) as u64)
}

/// A GHASH field element from a 16-byte block (big-endian, as
/// [`crate::ghash::block_to_u128`]).
#[inline]
#[target_feature(enable = "sse4.1")]
fn load_be(b: &[u8]) -> __m128i {
    bswap(load(b))
}

#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn load_key(aes: &Aes) -> GcmHw {
    let words = aes.round_key_words();
    let mut rk = [_mm_set_epi64x(0, 0); 15];
    for (k, w) in rk.iter_mut().zip(words.chunks_exact(4)) {
        // FIPS 197 words are big-endian: word `c` holds bytes 4c..4c+4.
        let lo = u64::from(w[0].swap_bytes()) | (u64::from(w[1].swap_bytes()) << 32);
        let hi = u64::from(w[2].swap_bytes()) | (u64::from(w[3].swap_bytes()) << 32);
        *k = _mm_set_epi64x(hi as i64, lo as i64);
    }
    let mut key = GcmHw {
        rk,
        rounds: words.len() / 4 - 1,
        h: [_mm_set_epi64x(0, 0); 4],
    };
    let h = u128::from_be_bytes(to_bytes(encrypt(&key, [_mm_set_epi64x(0, 0)])[0]));
    let h_twisted = from_u128(twist(h));
    let mut p = h;
    for slot in &mut key.h {
        *slot = from_u128(twist(p));
        p = to_u128(reduce(mul(from_u128(p), h_twisted)));
    }
    key
}

/// `v·x⁻¹` in GF(2^128). GCM's bit-reflected order makes the raw
/// carry-less product of two elements `a·b·x`, so multiplying by a power
/// of `H` stored as `Hⁱ·x⁻¹` yields `a·Hⁱ` unreduced and saves the one-bit
/// shift (Gueron & Kounavis). In this order `·x⁻¹` is a left shift; the
/// bit shifted out is the `x⁰` term, and `x⁻¹ = x¹²⁷ + x⁶ + x + 1`.
fn twist(v: u128) -> u128 {
    const X_INV: u128 = 0xC200_0000_0000_0000_0000_0000_0000_0001;
    (v << 1) ^ if v >> 127 == 1 { X_INV } else { 0 }
}

/// Encrypts `N` independent blocks, interleaved round by round.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn encrypt<const N: usize>(key: &GcmHw, mut b: [__m128i; N]) -> [__m128i; N] {
    #[cfg(test)]
    crate::aes::BLOCKS.with(|n| n.set(n.get() + N as u64));
    let rk = &key.rk[..=key.rounds];
    for x in &mut b {
        *x = _mm_xor_si128(*x, rk[0]);
    }
    for k in &rk[1..key.rounds] {
        for x in &mut b {
            *x = _mm_aesenc_si128(*x, *k);
        }
    }
    for x in &mut b {
        *x = _mm_aesenclast_si128(*x, rk[key.rounds]);
    }
    b
}

/// The counter block `IV || ctr` of the message with pre-counter block `j0`.
#[inline]
#[target_feature(enable = "sse4.1")]
fn counter(j0: &[u8; 16], ctr: u32) -> __m128i {
    let lo = u64::from_le_bytes(j0[..8].try_into().expect("8 bytes"));
    let iv_tail = u32::from_le_bytes(j0[8..12].try_into().expect("4 bytes"));
    let hi = u64::from(iv_tail) | (u64::from(ctr.swap_bytes()) << 32);
    _mm_set_epi64x(hi as i64, lo as i64)
}

/// XORs the keystream into `run`: it starts `skip` bytes into the block of
/// counter `ctr` and spans at most [`LANES`] blocks.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn ctr_xor(key: &GcmHw, j0: &[u8; 16], ctr: u32, skip: usize, run: &mut [u8]) {
    let mut ks = [0u8; 16 * LANES];
    if skip + run.len() <= 16 {
        ks[..16].copy_from_slice(&to_bytes(encrypt(key, [counter(j0, ctr)])[0]));
    } else {
        let blocks = encrypt(
            key,
            std::array::from_fn::<_, LANES, _>(|i| counter(j0, ctr.wrapping_add(i as u32))),
        );
        for (k, b) in ks.chunks_exact_mut(16).zip(blocks) {
            k.copy_from_slice(&to_bytes(b));
        }
    }
    for (d, k) in run.iter_mut().zip(&ks[skip..]) {
        *d ^= k;
    }
}

/// Reverses the bytes of a block: block byte order to a GHASH element and
/// back, and a counter block to one whose lane 0 is the counter.
#[inline]
#[target_feature(enable = "sse4.1")]
fn bswap(x: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        x,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn process(
    key: &GcmHw,
    j0: &[u8; 16],
    mut pos: u64,
    dir: Direction,
    g: &mut Ghash,
    data: &mut [u8],
) {
    // Data block `i` uses counter J0 + 1 + i (J0 itself masks the tag).
    let first = u32::from_be_bytes(j0[12..].try_into().expect("4 bytes")).wrapping_add(1);
    let head = ((16 - pos % 16) % 16).min(data.len() as u64) as usize;
    let (head, body) = data.split_at_mut(head);
    let (runs, tail) = body.split_at_mut(body.len() / (16 * LANES) * (16 * LANES));
    // The ragged head completes a block, so the runs start on one and fold
    // straight into the accumulator; the tail goes through the partial-block
    // bookkeeping like the head.
    for (part, fused) in [(head, false), (runs, true), (tail, false)] {
        if part.is_empty() {
            continue;
        }
        let ctr = first.wrapping_add((pos / 16) as u32);
        if fused {
            g.fold_aligned(|acc| ctr_ghash_runs(key, j0, ctr, dir, acc, part));
        } else {
            if dir == Direction::Decrypt {
                ghash_update(key, g, part);
            }
            ctr_xor(key, j0, ctr, (pos % 16) as usize, part);
            if dir == Direction::Encrypt {
                ghash_update(key, g, part);
            }
        }
        pos += part.len() as u64;
    }
}

/// GCM over whole runs of [`LANES`] blocks, the first under counter `ctr`:
/// each run's keystream is computed eight blocks at a time and its
/// ciphertext folded into `acc` four blocks at a time, in one pass.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn ctr_ghash_runs(
    key: &GcmHw,
    j0: &[u8; 16],
    ctr: u32,
    dir: Direction,
    acc: u128,
    runs: &mut [u8],
) -> u128 {
    let mut x = from_u128(acc);
    let mut next = bswap(counter(j0, ctr));
    // The ciphertext of the previous run, hashed while this run's AES
    // rounds are in flight.
    let mut prev: Option<[__m128i; LANES]> = None;
    for run in runs.chunks_exact_mut(16 * LANES) {
        let ctrs = std::array::from_fn::<_, LANES, _>(|i| {
            bswap(_mm_add_epi32(next, _mm_set_epi32(0, 0, 0, i as i32)))
        });
        next = _mm_add_epi32(next, _mm_set_epi32(0, 0, 0, LANES as i32));
        let ks = encrypt(key, ctrs);
        if let Some(ct) = prev {
            x = ghash4(key, ghash4(key, x, &ct[..4]), &ct[4..]);
        }
        let mut ct = [_mm_set_epi64x(0, 0); LANES];
        for ((b, k), c) in run.chunks_exact_mut(16).zip(ks).zip(&mut ct) {
            let input = load(b);
            let output = _mm_xor_si128(input, k);
            b.copy_from_slice(&to_bytes(output));
            *c = bswap(if dir == Direction::Decrypt {
                input
            } else {
                output
            });
        }
        prev = Some(ct);
    }
    if let Some(ct) = prev {
        x = ghash4(key, ghash4(key, x, &ct[..4]), &ct[4..]);
    }
    to_u128(x)
}

/// `(x ^ c0)·H⁴ ^ c1·H³ ^ c2·H² ^ c3·H`: four blocks, one reduction.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn ghash4(key: &GcmHw, x: __m128i, c: &[__m128i]) -> __m128i {
    let [h1, h2, h3, h4] = key.h;
    reduce(xor3(
        xor3(mul(_mm_xor_si128(x, c[0]), h4), mul(c[1], h3)),
        xor3(mul(c[2], h2), mul(c[3], h1)),
    ))
}

#[inline]
#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn ghash_update(key: &GcmHw, g: &mut Ghash, data: &[u8]) {
    g.update_with(data, |acc, blocks| ghash_blocks(key, acc, blocks));
}

#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn ghash_pad(key: &GcmHw, g: &mut Ghash) {
    g.pad_with(|acc, block| ghash_blocks(key, acc, block));
}

/// Folds whole 16-byte `blocks` into `acc`: four at a time through
/// [`ghash4`], then one at a time.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn ghash_blocks(key: &GcmHw, acc: u128, blocks: &[u8]) -> u128 {
    let mut x = from_u128(acc);
    let mut groups = blocks.chunks_exact(64);
    for g in &mut groups {
        x = ghash4(
            key,
            x,
            &std::array::from_fn::<_, 4, _>(|i| load_be(&g[16 * i..])),
        );
    }
    for b in groups.remainder().chunks_exact(16) {
        x = reduce(mul(_mm_xor_si128(x, load_be(b)), key.h[0]));
    }
    to_u128(x)
}

/// The 256-bit carry-less product of `a` and `b` as its low, middle and
/// high 128-bit partial sums (schoolbook, four `pclmulqdq`).
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn mul(a: __m128i, b: __m128i) -> [__m128i; 3] {
    [
        _mm_clmulepi64_si128::<0x00>(a, b),
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x01>(a, b),
            _mm_clmulepi64_si128::<0x10>(a, b),
        ),
        _mm_clmulepi64_si128::<0x11>(a, b),
    ]
}

#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn xor3(a: [__m128i; 3], b: [__m128i; 3]) -> [__m128i; 3] {
    [
        _mm_xor_si128(a[0], b[0]),
        _mm_xor_si128(a[1], b[1]),
        _mm_xor_si128(a[2], b[2]),
    ]
}

/// Reduces a product from [`mul`] by a twisted power of `H` modulo
/// `x^128 + x^7 + x^2 + x + 1`: the two shift-and-XOR phases of Gueron &
/// Kounavis, Algorithm 5, which fold the high-degree half (`lo` in this
/// order) back into the low-degree half.
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn reduce([lo, mid, hi]: [__m128i; 3]) -> __m128i {
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
    let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));
    // First phase: the bits that the x, x^2 and x^7 terms push past x^127.
    let t = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let spill = _mm_srli_si128::<4>(t);
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(t));
    // Second phase: x^128 = x^7 + x^2 + x + 1 applied to the folded half.
    let u = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), spill),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, u))
}

/// Bytes per CRC32C stream in one interleaved round.
const STRIPE: usize = 128;

/// `SHIFT[k][b]` is the CRC register `b << 8k` advanced over [`STRIPE`]
/// zero bytes, so a register advances by four lookups. The map is linear:
/// each entry is the XOR of the `combine` images of its set bits.
fn stripe_shift() -> &'static [[u32; 256]; 4] {
    static SHIFT: OnceLock<Box<[[u32; 256]; 4]>> = OnceLock::new();
    SHIFT.get_or_init(|| {
        let bit: [u32; 32] =
            std::array::from_fn(|i| crate::crc32c::combine(1 << i, 0, STRIPE as u64));
        let mut t = Box::new([[0u32; 256]; 4]);
        for (k, row) in t.iter_mut().enumerate() {
            for (b, e) in row.iter_mut().enumerate() {
                *e = (0..8)
                    .filter(|i| b >> i & 1 == 1)
                    .fold(0, |acc, i| acc ^ bit[8 * k + i]);
            }
        }
        t
    })
}

/// The CRC32C register `crc` advanced over `data` on SSE4.2, or `None` if
/// this CPU lacks it.
#[expect(
    unsafe_code,
    reason = "calls the SSE4.2 kernel after checking the CPU reports it"
)]
pub(crate) fn crc32c(crc: u32, data: &[u8]) -> Option<u32> {
    if !is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: the CPU reports SSE4.2, the only feature the kernel enables.
    Some(unsafe { crc32c_sse42(crc, data, stripe_shift()) })
}

/// Three streams of [`STRIPE`] bytes per round hide the `crc32`
/// instruction's latency; the first continues `crc`, the other two start
/// from zero, and `shift` joins them.
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(crc: u32, data: &[u8], shift: &[[u32; 256]; 4]) -> u32 {
    let advance = |c: u32| {
        let [b0, b1, b2, b3] = c.to_le_bytes();
        shift[0][usize::from(b0)]
            ^ shift[1][usize::from(b1)]
            ^ shift[2][usize::from(b2)]
            ^ shift[3][usize::from(b3)]
    };
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    let mut crc = u64::from(crc);
    let mut rounds = data.chunks_exact(3 * STRIPE);
    for r in &mut rounds {
        let (a, rest) = r.split_at(STRIPE);
        let (b, c) = rest.split_at(STRIPE);
        let (mut x, mut y, mut z) = (crc, 0, 0);
        for ((a, b), c) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            x = _mm_crc32_u64(x, word(a));
            y = _mm_crc32_u64(y, word(b));
            z = _mm_crc32_u64(z, word(c));
        }
        crc = u64::from(advance(advance(x as u32) ^ y as u32) ^ z as u32);
    }
    let mut words = rounds.remainder().chunks_exact(8);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, word(w));
    }
    words
        .remainder()
        .iter()
        .fold(crc as u32, |c, &b| _mm_crc32_u8(c, b))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ano_testkit::gen::{any_bool, u64_in, usize_in, vec_u8};
    use ano_testkit::prop_test;

    use crate::aes::Aes;
    use crate::crc32c::{update_portable, Crc32c};
    use crate::gcm::{Direction, GcmKey, GcmStream, IV_LEN};

    /// One key on the kernels `GcmKey::new` picks and on the portable
    /// ones, from 44 bytes of material: a 128- or 256-bit key, then the IV.
    fn keys(material: &[u8], wide: bool) -> ([Arc<GcmKey>; 2], [u8; IV_LEN]) {
        let aes = Aes::new(&material[..if wide { 32 } else { 16 }]);
        let iv = material[32..].try_into().expect("12 IV bytes");
        (
            [Arc::new(GcmKey::new(aes)), Arc::new(GcmKey::portable(aes))],
            iv,
        )
    }

    prop_test! {
        cases = 32;
        fn hw_gcm_equals_portable(
            setup in (vec_u8(44..45), any_bool()),
            aad in vec_u8(0..65),
            data in vec_u8(0..20_001),
            flip in usize_in(0..1 << 20),
        ) {
            let ([hw, sw], iv) = keys(&setup.0, setup.1);
            let (mut ct, mut want) = (data.clone(), data.clone());
            let tag = hw.seal(&iv, &aad, &mut ct);
            assert_eq!(tag, sw.seal(&iv, &aad, &mut want), "seal tag");
            assert!(ct == want, "seal bytes");
            for k in [&hw, &sw] {
                let mut pt = ct.clone();
                k.open(&iv, &aad, &mut pt, &tag).expect("own tag verifies");
                assert!(pt == data, "open bytes");
                let mut bad = tag;
                bad[flip / 8 % 16] ^= 1 << (flip % 8);
                assert!(k.open(&iv, &aad, &mut ct.clone(), &bad).is_err(), "flipped tag bit");
                if !ct.is_empty() {
                    let mut tampered = ct.clone();
                    tampered[flip % ct.len()] ^= 0x80;
                    assert!(k.open(&iv, &aad, &mut tampered, &tag).is_err(), "flipped data bit");
                }
            }
        }
    }

    prop_test! {
        cases = 16;
        fn hw_gcm_resumes_at_every_split(
            setup in (vec_u8(44..45), any_bool()),
            aad in vec_u8(0..65),
            msg in vec_u8(0..201),
            decrypt in any_bool(),
        ) {
            let ([hw, sw], iv) = keys(&setup.0, setup.1);
            let dir = if decrypt { Direction::Decrypt } else { Direction::Encrypt };
            let mut want = msg.clone();
            let mut whole = GcmStream::new(Arc::clone(&sw), &iv, &aad, dir);
            whole.process(&mut want);
            let want_tag = whole.tag();
            for cut in 0..=msg.len() {
                let mut states = Vec::new();
                // Export on one path, resume on the other: the saved state
                // means the same on both.
                for (first, second) in [(&hw, &sw), (&sw, &hw)] {
                    let mut buf = msg.clone();
                    let mut s = GcmStream::new(Arc::clone(first), &iv, &aad, dir);
                    s.process(&mut buf[..cut]);
                    states.push(s.export());
                    let mut r = GcmStream::resume(Arc::clone(second), &iv, &s.export());
                    r.process(&mut buf[cut..]);
                    assert!(buf == want, "bytes, cut {cut}");
                    assert_eq!(r.tag(), want_tag, "tag, cut {cut}");
                }
                assert_eq!(states[0], states[1], "saved state, cut {cut}");
            }
        }
    }

    prop_test! {
        cases = 32;
        fn hw_crc32c_equals_portable(data in vec_u8(0..20_001), start in u64_in(0..1 << 32)) {
            let start = start as u32;
            let want = update_portable(start, &data);
            if let Some(got) = super::crc32c(start, &data) {
                assert_eq!(got, want, "{} bytes", data.len());
            }
            // Every split of a prefix, exported and resumed at the cut.
            let msg = &data[..data.len().min(200)];
            let want = !update_portable(!start, msg);
            for cut in 0..=msg.len() {
                let mut c = Crc32c::resume(start);
                c.update(&msg[..cut]);
                let mut r = Crc32c::resume(c.export());
                r.update(&msg[cut..]);
                assert_eq!(r.finalize(), want, "cut {cut}");
            }
        }
    }
}

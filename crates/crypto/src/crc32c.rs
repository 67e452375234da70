//! CRC32C (Castagnoli), the digest NVMe-TCP uses for header and data
//! protection (RFC 3720 §B.4 / NVMe-TCP §7.4.6).
//!
//! Three properties matter for autonomous offloading, and all are exposed
//! here: the digest is *incremental* ([`Crc32c::update`]), its dynamic state
//! is a single `u32` (the §3.2 constant-size-state precondition, trivially),
//! and independently computed halves can be *combined* ([`combine`]), which
//! the software fallback uses for partially offloaded capsules.
//!
//! [`Crc32c::update`] checks the CPU on every call: with SSE4.2 it runs the
//! `crc32` instruction over three interleaved streams, joined by a shift
//! table built with [`combine`]; otherwise slicing-by-8, which is also the
//! oracle the SSE4.2 kernel is tested against.

/// The CRC-32C polynomial, reflected.
pub const POLY_REFLECTED: u32 = 0x82F6_3B78;

fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 8]);
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY_REFLECTED
                } else {
                    crc >> 1
                };
            }
            t[0][i as usize] = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Streaming CRC32C.
///
/// # Examples
///
/// ```
/// use ano_crypto::crc32c::{crc32c, Crc32c};
/// let mut c = Crc32c::new();
/// c.update(b"123");
/// c.update(b"456789");
/// assert_eq!(c.finalize(), crc32c(b"123456789"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

impl Crc32c {
    /// Starts a fresh digest.
    pub fn new() -> Crc32c {
        Crc32c { state: !0 }
    }

    /// Resumes from a previously [`Crc32c::export`]ed state.
    pub fn resume(state: u32) -> Crc32c {
        Crc32c { state: !state }
    }

    /// The constant-size dynamic state (what a NIC flow context stores).
    pub fn export(&self) -> u32 {
        !self.state
    }

    /// Absorbs bytes: on SSE4.2 when this CPU has it (checked per call),
    /// else slicing-by-8.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(state) = crate::x86_64::crc32c(self.state, data) {
            self.state = state;
            return;
        }
        self.state = update_portable(self.state, data);
    }

    /// Returns the digest of everything absorbed so far (non-destructive).
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// Advances the CRC register `crc` over `data` by slicing-by-8: the
/// fallback on other CPUs and the oracle for the SSE4.2 kernel.
pub(crate) fn update_portable(mut crc: u32, mut data: &[u8]) -> u32 {
    let t = tables();
    while data.len() >= 8 {
        let b: [u8; 8] = data[..8].try_into().expect("8 bytes");
        let low = crc ^ u32::from_le_bytes(b[..4].try_into().expect("4 bytes"));
        crc = t[7][(low & 0xff) as usize]
            ^ t[6][((low >> 8) & 0xff) as usize]
            ^ t[5][((low >> 16) & 0xff) as usize]
            ^ t[4][(low >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
        data = &data[8..];
    }
    for &b in data {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// One-shot CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finalize()
}

fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 == 1 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// Combines `crc2 = crc(B)` onto `crc1 = crc(A)` to produce `crc(A || B)`,
/// where `len2 = B.len()`, without touching the data (zlib's algorithm,
/// instantiated for the Castagnoli polynomial).
pub fn combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    let mut even = [0u32; 32];
    let mut odd = [0u32; 32];

    // Operator for one zero bit.
    odd[0] = POLY_REFLECTED;
    let mut row = 1u32;
    for item in odd.iter_mut().skip(1) {
        *item = row;
        row <<= 1;
    }
    // One zero byte.
    gf2_matrix_square(&mut even, &odd);
    gf2_matrix_square(&mut odd, &even);

    let mut crc1 = crc1;
    let mut len2 = len2;
    loop {
        gf2_matrix_square(&mut even, &odd);
        if len2 & 1 == 1 {
            crc1 = gf2_matrix_times(&even, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
        gf2_matrix_square(&mut odd, &even);
        if len2 & 1 == 1 {
            crc1 = gf2_matrix_times(&odd, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
    }
    crc1 ^ crc2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 3720 §B.4 test vectors (the iSCSI/NVMe CRC32C).
    #[test]
    fn rfc3720_vectors() {
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
        let asc: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&asc), 0x46dd_794e);
        let desc: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&desc), 0x113f_db5c);
    }

    #[test]
    fn check_string() {
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..255u8).cycle().take(1000).collect();
        let whole = crc32c(&data);
        for split in [0usize, 1, 7, 8, 9, 500, 999, 1000] {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), whole, "split {split}");
        }
    }

    #[test]
    fn export_resume() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut a = Crc32c::new();
        a.update(&data[..20]);
        let st = a.export();
        let mut b = Crc32c::resume(st);
        b.update(&data[20..]);
        assert_eq!(b.finalize(), crc32c(data));
    }

    #[test]
    fn combine_concatenates() {
        let a: Vec<u8> = (0..100u8).collect();
        let b: Vec<u8> = (100..240u8).collect();
        let whole: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(combine(crc32c(&a), crc32c(&b), b.len() as u64), crc32c(&whole));
    }

    #[test]
    fn combine_empty_is_identity() {
        let a = crc32c(b"xyz");
        assert_eq!(combine(a, crc32c(&[]), 0), a);
    }

    #[test]
    fn combine_associates() {
        let (a, b, c) = (b"alpha".as_slice(), b"beta".as_slice(), b"gamma!".as_slice());
        let ab = combine(crc32c(a), crc32c(b), b.len() as u64);
        let abc1 = combine(ab, crc32c(c), c.len() as u64);
        let bc = combine(crc32c(b), crc32c(c), c.len() as u64);
        let abc2 = combine(crc32c(a), bc, (b.len() + c.len()) as u64);
        assert_eq!(abc1, abc2);
        let whole: Vec<u8> = [a, b, c].concat();
        assert_eq!(abc1, crc32c(&whole));
    }

    #[test]
    fn finalize_is_nondestructive() {
        let mut c = Crc32c::new();
        c.update(b"12345");
        let once = c.finalize();
        c.update(b"6789");
        assert_eq!(once, crc32c(b"12345"));
        assert_eq!(c.finalize(), crc32c(b"123456789"));
    }
}

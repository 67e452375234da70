//! Seeded randomness for reproducible experiments.
//!
//! Every experiment takes a single `u64` seed; all stochastic behaviour
//! (loss, reordering, request sizes, key material in functional mode) derives
//! from it, so any run can be replayed exactly.
//!
//! The generator is an in-repo xoshiro256++ seeded through splitmix64 — the
//! same construction `rand::SmallRng` uses — so the workspace stays hermetic
//! (no registry dependencies) without giving up statistical quality. Neither
//! algorithm is cryptographic; key material drawn from it is only ever used
//! by the *functional-fidelity* simulation mode, never by real peers.

/// splitmix64: expands a 64-bit seed into the xoshiro state. Weyl-sequence
/// increment + two xor-shift-multiply finalization rounds (Steele et al.,
/// "Fast splittable pseudorandom number generators").
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random source for one simulation.
///
/// # Examples
///
/// ```
/// use ano_sim::rng::SimRng;
/// let mut a = SimRng::seed(7);
/// let mut b = SimRng::seed(7);
/// assert_eq!(a.range_u64(0, 100), b.range_u64(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state; never all-zero (splitmix64 seeding guarantees it).
    s: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent child RNG (e.g. per flow) from this one.
    pub fn fork(&mut self) -> SimRng {
        let s = self.next_u64();
        SimRng::seed(s)
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire): retry while the low product
        // lands in the biased zone. For spans that are powers of two the
        // first draw always succeeds.
        let zone = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            let hi128 = ((x as u128 * span as u128) >> 64) as u64;
            let lo128 = x.wrapping_mul(span);
            if lo128 >= zone {
                return lo + hi128;
            }
        }
    }

    /// Uniform usize in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 high bits → the full double mantissa, uniform over [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        let u: f64 = self.unit_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Fills `buf` with random bytes (key material in functional mode).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1 << 40), b.range_u64(0, 1 << 40));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let va: Vec<u64> = (0..16).map(|_| a.range_u64(0, u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.range_u64(0, u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::seed(4);
        let hits = (0..100_000).filter(|_| r.chance(0.02)).count();
        assert!((1500..2500).contains(&hits), "2% loss ~ {hits}/100000");
    }

    #[test]
    fn exp_has_right_mean() {
        let mut r = SimRng::seed(5);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exp_f64(10.0)).sum();
        let mean = sum / n as f64;
        assert!((9.0..11.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn fork_is_independent_but_deterministic() {
        let mut a = SimRng::seed(9);
        let mut b = SimRng::seed(9);
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.range_u64(0, 1000), fb.range_u64(0, 1000));
    }

    #[test]
    fn fill_bytes_fills() {
        let mut r = SimRng::seed(11);
        let mut buf = [0u8; 64];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fill_bytes_handles_ragged_tail() {
        let mut r = SimRng::seed(12);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf[8..].iter().any(|&b| b != 0) || buf[..8].iter().any(|&b| b != 0));
    }

    #[test]
    fn range_is_inclusive_exclusive() {
        let mut r = SimRng::seed(13);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 13);
            assert!((10..13).contains(&v));
        }
    }

    #[test]
    fn unit_f64_stays_in_unit_interval() {
        let mut r = SimRng::seed(14);
        for _ in 0..10_000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_covers_every_value_of_small_span() {
        let mut r = SimRng::seed(15);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.range_u64(0, 7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 7 residues drawn: {seen:?}");
    }
}

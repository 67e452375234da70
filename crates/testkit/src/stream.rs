//! Cutting a byte stream into packets, for properties that must hold
//! however the network segments it.

use ano_sim::rng::SimRng;

/// Packet sizes summing to `total`, drawn from `seed`: a quarter of them
/// 1–16 bytes (cuts inside headers, tags and digests), the rest 1 byte to
/// `mss`.
pub fn cut_sizes(seed: u64, total: usize, mss: usize) -> Vec<usize> {
    let mut rng = SimRng::seed(seed);
    let mut out = Vec::new();
    let mut left = total;
    while left > 0 {
        let max = if rng.chance(0.25) { 16 } else { mss };
        let n = (1 + rng.index(max)).min(left);
        out.push(n);
        left -= n;
    }
    out
}

/// `(stream offset, bytes)` of each packet of `wire` cut at `sizes`.
pub fn packets<'a>(wire: &'a [u8], sizes: &'a [usize]) -> impl Iterator<Item = (u64, &'a [u8])> + 'a {
    sizes.iter().scan(0usize, move |off, &n| {
        let at = *off;
        *off += n;
        Some((at as u64, &wire[at..at + n]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_cover_the_stream_and_respect_the_mss() {
        for seed in 0..32 {
            let sizes = cut_sizes(seed, 10_000, 1448);
            assert_eq!(sizes.iter().sum::<usize>(), 10_000);
            assert!(sizes.iter().all(|&n| (1..=1448).contains(&n)));
        }
        let wire: Vec<u8> = (0..100).collect();
        let sizes = cut_sizes(7, wire.len(), 30);
        let joined: Vec<u8> = packets(&wire, &sizes).flat_map(|(_, b)| b.to_vec()).collect();
        assert_eq!(joined, wire);
    }
}

//! Receive-side scaling: a deterministic Toeplitz hash over the TCP
//! 4-tuple plus an indirection table mapping hash buckets to rx queues.
//!
//! This is the steering half of the multi-queue NIC model (see
//! DESIGN.md §11). The hash is the classic Microsoft RSS construction —
//! for every set bit of the serialized 4-tuple, XOR in the 32-bit window
//! of the secret key starting at that bit position — keyed by a 40-byte
//! secret derived from the in-repo PRNG ([`ano_sim::rng::SimRng`]), so
//! the same `(key_seed, 4-tuple)` pair steers to the same queue in every
//! process on every platform. Determinism is the whole point: golden
//! traces and differential twins depend on steering being a pure
//! function of the simulation's inputs.
//!
//! The indirection table decouples bucket from queue the way real
//! hardware does: the hash picks one of [`RssSteering::buckets`] buckets,
//! the table maps each bucket to a queue, and reprogramming a table
//! entry migrates exactly the flows in that bucket — no others. The
//! oRSS-style rebalancer in `ano-stack` uses this to chase hot flows
//! across queues, at the documented cost of thrashing their NIC
//! contexts (`nic.rs` models the eviction).

use ano_sim::rng::SimRng;

/// Length of the Toeplitz secret key in bytes. 40 bytes covers the
/// classic IPv4 4-tuple input (12 bytes = 96 bits) with the 32-bit
/// sliding window: 96 + 32 bits = 16 bytes used; the standard length is
/// kept so the implementation matches the construction NICs document.
pub const TOEPLITZ_KEY_LEN: usize = 40;

/// A TCP/IPv4 connection 4-tuple, the RSS hash input.
///
/// Addresses and ports are plain integers (the simulator has no real IP
/// layer); serialization is fixed big-endian so the hash is
/// platform-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FourTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
}

impl FourTuple {
    /// Canonical 12-byte serialization: src ip, dst ip, src port, dst
    /// port, all big-endian — the field order RSS hashes on the wire.
    pub fn to_bytes(self) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[0..4].copy_from_slice(&self.src_ip.to_be_bytes());
        b[4..8].copy_from_slice(&self.dst_ip.to_be_bytes());
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b
    }
}

/// The Toeplitz hash function with its 40-byte secret key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Toeplitz {
    key: [u8; TOEPLITZ_KEY_LEN],
}

impl Toeplitz {
    /// Derives the secret key deterministically from `seed` via the
    /// in-repo PRNG, so every process computes the same steering.
    pub fn from_seed(seed: u64) -> Toeplitz {
        let mut key = [0u8; TOEPLITZ_KEY_LEN];
        SimRng::seed(seed).fill_bytes(&mut key);
        Toeplitz { key }
    }

    /// The 32-bit window of the key starting at bit `offset`.
    fn window(&self, offset: usize) -> u32 {
        let byte = offset / 8;
        let shift = offset % 8;
        // Load 5 bytes (40 bits) so any bit-offset window fits; wrap at
        // the key tail to stay total for arbitrary-length inputs.
        let mut w: u64 = 0;
        for k in 0..5 {
            w = (w << 8) | u64::from(self.key[(byte + k) % TOEPLITZ_KEY_LEN]);
        }
        ((w >> (8 - shift)) & 0xFFFF_FFFF) as u32
    }

    /// Hashes an arbitrary byte string: for every set input bit, XOR the
    /// 32-bit key window at that bit position.
    pub fn hash(&self, data: &[u8]) -> u32 {
        let mut h = 0u32;
        for (i, &b) in data.iter().enumerate() {
            if b == 0 {
                continue;
            }
            for bit in 0..8 {
                if b & (0x80 >> bit) != 0 {
                    h ^= self.window(i * 8 + bit);
                }
            }
        }
        h
    }

    /// Hashes a connection 4-tuple.
    pub fn hash_tuple(&self, t: &FourTuple) -> u32 {
        self.hash(&t.to_bytes())
    }
}

/// RSS steering state: the keyed hash plus the bucket→queue indirection
/// table. `table[hash % buckets]` is the queue a 4-tuple lands on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RssSteering {
    key: Toeplitz,
    queues: u16,
    table: Vec<u16>,
}

impl RssSteering {
    /// Builds steering for `queues` rx queues over `buckets` indirection
    /// entries (hardware default layout: bucket `i` → queue `i % queues`).
    /// Zero inputs are clamped to one — steering must stay total.
    pub fn new(queues: u16, buckets: usize, key_seed: u64) -> RssSteering {
        let queues = queues.max(1);
        let buckets = buckets.max(1);
        RssSteering {
            key: Toeplitz::from_seed(key_seed),
            queues,
            table: (0..buckets).map(|i| (i % queues as usize) as u16).collect(),
        }
    }

    /// Number of rx queues.
    pub fn queues(&self) -> u16 {
        self.queues
    }

    /// Number of indirection-table buckets.
    pub fn buckets(&self) -> usize {
        self.table.len()
    }

    /// The indirection bucket a 4-tuple hashes into (independent of the
    /// table contents, so reprogramming never moves a flow's bucket).
    pub fn bucket_of(&self, t: &FourTuple) -> usize {
        self.key.hash_tuple(t) as usize % self.table.len()
    }

    /// The queue a bucket currently maps to.
    pub fn queue_of_bucket(&self, bucket: usize) -> u16 {
        self.table[bucket % self.table.len()]
    }

    /// The queue a 4-tuple currently steers to.
    pub fn queue_for(&self, t: &FourTuple) -> u16 {
        self.queue_of_bucket(self.bucket_of(t))
    }

    /// Reprograms one indirection entry. Returns `true` if the mapping
    /// changed. Out-of-range queues are ignored (hardware rejects them).
    pub fn set_bucket(&mut self, bucket: usize, queue: u16) -> bool {
        if queue >= self.queues {
            return false;
        }
        let slot = bucket % self.table.len();
        if self.table[slot] == queue {
            return false;
        }
        self.table[slot] = queue;
        true
    }

    /// The current indirection table (bucket → queue).
    pub fn table(&self) -> &[u16] {
        &self.table
    }

    /// Replaces the whole indirection table. Entries pointing past the
    /// queue count are clamped to queue 0; an empty table is ignored.
    pub fn set_table(&mut self, table: Vec<u16>) {
        if table.is_empty() {
            return;
        }
        self.table = table;
        for q in &mut self.table {
            if *q >= self.queues {
                *q = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(n: u32) -> FourTuple {
        FourTuple {
            src_ip: 0x0A00_0001 + n,
            dst_ip: 0x0A00_00FE,
            src_port: 10_000 + (n % 50_000) as u16,
            dst_port: 443,
        }
    }

    #[test]
    fn hash_is_deterministic_for_a_seed() {
        let a = Toeplitz::from_seed(7);
        let b = Toeplitz::from_seed(7);
        for n in 0..64 {
            assert_eq!(a.hash_tuple(&tuple(n)), b.hash_tuple(&tuple(n)));
        }
        // A different key seed must not produce the same hash sequence.
        let c = Toeplitz::from_seed(8);
        assert!((0..64).any(|n| a.hash_tuple(&tuple(n)) != c.hash_tuple(&tuple(n))));
    }

    #[test]
    fn hash_depends_on_every_field() {
        let t = Toeplitz::from_seed(1);
        let base = tuple(0);
        let h = t.hash_tuple(&base);
        assert_ne!(h, t.hash_tuple(&FourTuple { src_ip: base.src_ip ^ 1, ..base }));
        assert_ne!(h, t.hash_tuple(&FourTuple { dst_ip: base.dst_ip ^ 1, ..base }));
        assert_ne!(h, t.hash_tuple(&FourTuple { src_port: base.src_port ^ 1, ..base }));
        assert_ne!(h, t.hash_tuple(&FourTuple { dst_port: base.dst_port ^ 1, ..base }));
    }

    #[test]
    fn empty_input_hashes_to_zero() {
        // The Toeplitz construction XORs per set bit: no bits, no terms.
        assert_eq!(Toeplitz::from_seed(3).hash(&[]), 0);
        assert_eq!(Toeplitz::from_seed(3).hash(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn default_table_round_robins_buckets() {
        let s = RssSteering::new(4, 8, 0);
        assert_eq!(s.table(), &[0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(s.queues(), 4);
        assert_eq!(s.buckets(), 8);
    }

    #[test]
    fn reprogramming_moves_only_that_bucket() {
        let mut s = RssSteering::new(4, 16, 42);
        let before: Vec<u16> = (0..64).map(|n| s.queue_for(&tuple(n))).collect();
        let moved_bucket = s.bucket_of(&tuple(0));
        let new_q = (s.queue_for(&tuple(0)) + 1) % 4;
        assert!(s.set_bucket(moved_bucket, new_q));
        for n in 0..64 {
            let now = s.queue_for(&tuple(n));
            if s.bucket_of(&tuple(n)) == moved_bucket {
                assert_eq!(now, new_q, "flow {n} shares the reprogrammed bucket");
            } else {
                assert_eq!(now, before[n as usize], "flow {n} must not move");
            }
        }
    }

    #[test]
    fn set_bucket_rejects_out_of_range_queue() {
        let mut s = RssSteering::new(2, 4, 0);
        assert!(!s.set_bucket(0, 2), "queue id past the queue count");
        assert_eq!(s.table(), &[0, 1, 0, 1]);
    }

    #[test]
    fn zero_inputs_clamp_to_one() {
        let s = RssSteering::new(0, 0, 0);
        assert_eq!(s.queues(), 1);
        assert_eq!(s.buckets(), 1);
        assert_eq!(s.queue_for(&tuple(9)), 0);
    }

    #[test]
    fn set_table_clamps_bad_entries_and_ignores_empty() {
        let mut s = RssSteering::new(2, 4, 0);
        s.set_table(vec![]);
        assert_eq!(s.buckets(), 4, "empty table ignored");
        s.set_table(vec![1, 7, 0, 1]);
        assert_eq!(s.table(), &[1, 0, 0, 1], "entry 7 clamped to queue 0");
    }
}

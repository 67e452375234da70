//! NIC context-cache model.
//!
//! Autonomous offloads keep per-flow state in on-NIC memory. The paper's
//! ConnectX-6 Dx has 4 MiB for ~208 B contexts — about 20 K flows — beyond
//! which state spills to host memory and each reuse costs a PCIe round trip
//! (§6.5). [`LruSet`] models that cache: constant-time touch/insert with
//! least-recently-used eviction, reporting hits and misses so experiments
//! can charge the miss penalty.

// LruSet models the NIC's O(1) context cache with a `HashMap`; the map is
// keyed-access only — recency order lives in the intrusive prev/next list
// and eviction follows `tail`, so hash iteration order can never reach
// traces, golden files, or scheduling.
#[expect(clippy::disallowed_types, reason = "keyed access only, never iterated")]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiply-xor hasher (Firefox's FxHash recipe) for the cache's keyed
/// lookups. The LRU set sits on the per-packet path — two lookups per
/// processed frame — where SipHash's keyed rounds are measurable overhead
/// with zero benefit: keys are tiny flow ids, not attacker-controlled
/// input, and the map is never iterated, so hash quality only has to
/// spread the buckets.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Outcome of touching the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The entry was resident.
    Hit,
    /// The entry was fetched (and possibly another evicted).
    Miss,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A fixed-capacity LRU set with O(1) touch.
#[derive(Debug)]
pub struct LruSet<K: Eq + Hash + Clone> {
    #[expect(clippy::disallowed_types, reason = "keyed access only, never iterated")]
    map: HashMap<K, usize, BuildHasherDefault<FxHasher>>,
    keys: Vec<Option<K>>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone> LruSet<K> {
    /// Creates a cache holding at most `capacity` entries. A zero capacity
    /// is clamped to one: a cacheless NIC still has the context register it
    /// is currently working on, and a hostile configuration must degrade
    /// to that floor rather than panic (callers that want to surface the
    /// clamp check [`NicConfig::validate`](crate::nic::NicConfig::validate)
    /// first).
    pub fn new(capacity: usize) -> LruSet<K> {
        let capacity = capacity.max(1);
        LruSet {
            #[expect(clippy::disallowed_types, reason = "keyed access only, never iterated")]
            map: HashMap::default(),
            keys: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx] = Node {
            prev: NIL,
            next: self.head,
        };
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Touches `key`: marks it most-recently-used, inserting (and evicting
    /// the LRU entry if full) when absent. Returns hit or miss; see
    /// [`LruSet::touch_evict`] when the caller must account for the victim.
    pub fn touch(&mut self, key: &K) -> CacheOutcome {
        self.touch_evict(key).0
    }

    /// Like [`LruSet::touch`], but also returns the key evicted to make
    /// room, if any — a miss that displaces a resident context costs a
    /// write-back in addition to the fill, and the NIC's PCIe accounting
    /// needs to know which.
    pub fn touch_evict(&mut self, key: &K) -> (CacheOutcome, Option<K>) {
        if let Some(&idx) = self.map.get(key) {
            self.hits += 1;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return (CacheOutcome::Hit, None);
        }
        self.misses += 1;
        let mut evicted = None;
        if self.map.len() == self.capacity {
            // Evict the least recently used.
            let victim = self.tail;
            self.unlink(victim);
            let k = self.keys[victim].take().expect("occupied node");
            self.map.remove(&k);
            self.free.push(victim);
            evicted = Some(k);
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.keys.push(None);
                self.nodes.push(Node {
                    prev: NIL,
                    next: NIL,
                });
                self.keys.len() - 1
            }
        };
        self.keys[idx] = Some(key.clone());
        self.map.insert(key.clone(), idx);
        self.push_front(idx);
        (CacheOutcome::Miss, evicted)
    }

    /// Removes `key` if present (flow teardown). Returns whether the key
    /// was resident, so orderly teardown can charge its write-back.
    pub fn remove(&mut self, key: &K) -> bool {
        if let Some(idx) = self.map.remove(key) {
            self.unlink(idx);
            self.keys[idx] = None;
            self.free.push(idx);
            return true;
        }
        false
    }

    /// Drops every resident entry without touching the hit/miss counters,
    /// returning how many were wiped. Models a device reset: contexts are
    /// lost, not written back.
    pub fn wipe(&mut self) -> usize {
        let wiped = self.map.len();
        self.map.clear();
        self.keys.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        wiped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_then_miss_accounting() {
        let mut c = LruSet::new(2);
        assert_eq!(c.touch(&1), CacheOutcome::Miss);
        assert_eq!(c.touch(&1), CacheOutcome::Hit);
        assert_eq!(c.touch(&2), CacheOutcome::Miss);
        assert_eq!(c.len(), 2);
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = LruSet::new(2);
        c.touch(&1);
        c.touch(&2);
        c.touch(&1); // 2 is now LRU
        c.touch(&3); // evicts 2
        assert_eq!(c.touch(&1), CacheOutcome::Hit);
        assert_eq!(c.touch(&2), CacheOutcome::Miss, "2 was evicted");
        // That insert evicted 3 (LRU after 1 was touched).
        assert_eq!(c.touch(&3), CacheOutcome::Miss);
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = LruSet::new(1);
        c.touch(&"a");
        c.remove(&"a");
        assert!(c.is_empty());
        assert_eq!(c.touch(&"b"), CacheOutcome::Miss);
        assert_eq!(c.touch(&"b"), CacheOutcome::Hit);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = LruSet::new(100);
        // Cycle through 200 keys twice: after warm-up, every touch misses.
        for round in 0..2 {
            for k in 0..200 {
                c.touch(&k);
            }
            let _ = round;
        }
        assert_eq!(c.hits(), 0, "perfect LRU thrash");
        assert_eq!(c.misses(), 400);
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = LruSet::new(100);
        for _ in 0..3 {
            for k in 0..50 {
                c.touch(&k);
            }
        }
        assert_eq!(c.misses(), 50);
        assert_eq!(c.hits(), 100);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        // A hostile NicConfig must degrade to a single-entry cache, not
        // abort the simulation.
        let mut c: LruSet<u32> = LruSet::new(0);
        assert_eq!(c.touch(&1), CacheOutcome::Miss);
        assert_eq!(c.touch(&1), CacheOutcome::Hit);
        assert_eq!(c.touch_evict(&2), (CacheOutcome::Miss, Some(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn touch_evict_reports_the_victim() {
        let mut c = LruSet::new(2);
        assert_eq!(c.touch_evict(&1), (CacheOutcome::Miss, None));
        assert_eq!(c.touch_evict(&2), (CacheOutcome::Miss, None));
        c.touch(&1); // 2 becomes LRU
        assert_eq!(c.touch_evict(&3), (CacheOutcome::Miss, Some(2)));
        assert_eq!(c.touch_evict(&1), (CacheOutcome::Hit, None));
    }

    #[test]
    fn remove_reports_residency() {
        let mut c = LruSet::new(2);
        c.touch(&7);
        assert!(c.remove(&7), "resident entry removed");
        assert!(!c.remove(&7), "already gone");
        assert!(!c.remove(&8), "never present");
    }

    #[test]
    fn wipe_clears_entries_but_keeps_counters() {
        let mut c = LruSet::new(4);
        c.touch(&1);
        c.touch(&2);
        c.touch(&1);
        assert_eq!(c.wipe(), 2);
        assert!(c.is_empty());
        assert_eq!((c.hits(), c.misses()), (1, 2), "accounting survives reset");
        // The cache is fully usable after a wipe.
        assert_eq!(c.touch(&1), CacheOutcome::Miss);
        assert_eq!(c.touch(&1), CacheOutcome::Hit);
    }
}

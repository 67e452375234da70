//! NIC context-cache model.
//!
//! Autonomous offloads keep per-flow state in on-NIC memory. The paper's
//! ConnectX-6 Dx has 4 MiB for ~208 B contexts — about 20 K flows — beyond
//! which state spills to host memory and each reuse costs a PCIe round trip
//! (§6.5). [`LruSet`] models that cache's replacement order: a
//! fixed-capacity, index-linked recency list with least-recently-used
//! eviction. It keeps no index of its own. The owner of each entry (the
//! NIC's per-flow record) holds the entry's [`Slot`] and hands it back on
//! every touch, so a hit is constant-time list surgery with no lookup, and
//! an eviction names the victim's key so its owner can forget its slot.

/// Outcome of touching the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The entry was resident.
    Hit,
    /// The entry was fetched (and possibly another evicted).
    Miss,
}

/// A resident entry's position in an [`LruSet`], held by the entry's
/// owner. It stays valid until the entry is evicted, removed or wiped;
/// the owner must then drop it, because the position is reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(usize);

#[derive(Clone, Copy, Debug)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A fixed-capacity LRU list with O(1) touch, indexed by its owners'
/// [`Slot`]s.
#[derive(Debug)]
pub struct LruSet<K> {
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    len: usize,
    capacity: usize,
}

impl<K: Copy> LruSet<K> {
    /// Creates a cache holding at most `capacity` entries. A zero capacity
    /// is clamped to one: a cacheless NIC still has the context register it
    /// is currently working on, and a hostile configuration must degrade
    /// to that floor rather than panic (callers that want to surface the
    /// clamp check [`NicConfig::validate`](crate::nic::NicConfig::validate)
    /// first).
    pub fn new(capacity: usize) -> LruSet<K> {
        LruSet {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity: capacity.max(1),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
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
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Touches the entry at `slot`, marking it most recently used: a hit.
    /// With no slot, inserts `key` at the front (evicting the least
    /// recently used entry if full) and stores its position in `slot`: a
    /// miss. A miss that displaces a resident entry also returns the
    /// victim's key — its owner must drop its slot, and the NIC's PCIe
    /// accounting charges the victim's write-back on top of the fill.
    pub fn touch(&mut self, slot: &mut Option<Slot>, key: K) -> (CacheOutcome, Option<K>) {
        if let Some(Slot(idx)) = *slot {
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return (CacheOutcome::Hit, None);
        }
        let mut evicted = None;
        if self.len == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.free.push(victim);
            self.len -= 1;
            evicted = Some(self.nodes[victim].key);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i].key = key;
                i
            }
            None => {
                self.nodes.push(Node { key, prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.len += 1;
        *slot = Some(Slot(idx));
        (CacheOutcome::Miss, evicted)
    }

    /// Removes the entry at `slot`, if any, and clears `slot` (flow
    /// teardown). Returns whether an entry was resident, so orderly
    /// teardown can charge its write-back.
    pub fn remove(&mut self, slot: &mut Option<Slot>) -> bool {
        let Some(Slot(idx)) = slot.take() else {
            return false;
        };
        self.unlink(idx);
        self.free.push(idx);
        self.len -= 1;
        true
    }

    /// Drops every resident entry; every owner must drop its slot. Models
    /// a device reset: contexts are lost, not written back.
    pub fn wipe(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owners of keys `0..slots.len()`: the role the NIC's flow table
    /// plays, including dropping a victim's slot on eviction.
    struct Owners {
        cache: LruSet<usize>,
        slots: Vec<Option<Slot>>,
    }

    impl Owners {
        fn new(capacity: usize, keys: usize) -> Owners {
            Owners { cache: LruSet::new(capacity), slots: vec![None; keys] }
        }

        fn touch(&mut self, k: usize) -> (CacheOutcome, Option<usize>) {
            let got = self.cache.touch(&mut self.slots[k], k);
            if let Some(victim) = got.1 {
                self.slots[victim] = None;
            }
            got
        }

        fn remove(&mut self, k: usize) -> bool {
            self.cache.remove(&mut self.slots[k])
        }

        fn wipe(&mut self) {
            self.cache.wipe();
            self.slots.fill(None);
        }

        /// (hits, misses) over cycling `rounds` times through keys `0..n`.
        fn cycle(&mut self, rounds: usize, n: usize) -> (u64, u64) {
            let (mut hits, mut misses) = (0, 0);
            for _ in 0..rounds {
                for k in 0..n {
                    match self.touch(k).0 {
                        CacheOutcome::Hit => hits += 1,
                        CacheOutcome::Miss => misses += 1,
                    }
                }
            }
            (hits, misses)
        }
    }

    #[test]
    fn hit_then_miss_accounting() {
        let mut c = Owners::new(2, 3);
        assert_eq!(c.touch(1).0, CacheOutcome::Miss);
        assert_eq!(c.touch(1).0, CacheOutcome::Hit);
        assert_eq!(c.touch(2).0, CacheOutcome::Miss);
        assert_eq!(c.cache.len(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Owners::new(2, 4);
        c.touch(1);
        c.touch(2);
        c.touch(1); // 2 is now LRU
        c.touch(3); // evicts 2
        assert_eq!(c.touch(1).0, CacheOutcome::Hit);
        assert_eq!(c.touch(2).0, CacheOutcome::Miss, "2 was evicted");
        // That insert evicted 3 (LRU after 1 was touched).
        assert_eq!(c.touch(3).0, CacheOutcome::Miss);
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = Owners::new(1, 2);
        c.touch(0);
        assert!(c.remove(0));
        assert_eq!(c.cache.len(), 0);
        assert_eq!(c.touch(1), (CacheOutcome::Miss, None), "the freed slot holds the new entry");
        assert_eq!(c.touch(1).0, CacheOutcome::Hit);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        // Cycle through 200 keys twice: after warm-up, every touch misses.
        let mut c = Owners::new(100, 200);
        assert_eq!(c.cycle(2, 200), (0, 400), "perfect LRU thrash");
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = Owners::new(100, 50);
        assert_eq!(c.cycle(3, 50), (100, 50));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        // A hostile NicConfig must degrade to a single-entry cache, not
        // abort the simulation.
        let mut c = Owners::new(0, 3);
        assert_eq!(c.touch(1).0, CacheOutcome::Miss);
        assert_eq!(c.touch(1).0, CacheOutcome::Hit);
        assert_eq!(c.touch(2), (CacheOutcome::Miss, Some(1)));
        assert_eq!(c.cache.len(), 1);
    }

    #[test]
    fn touch_evict_reports_the_victim() {
        let mut c = Owners::new(2, 4);
        assert_eq!(c.touch(1), (CacheOutcome::Miss, None));
        assert_eq!(c.touch(2), (CacheOutcome::Miss, None));
        c.touch(1); // 2 becomes LRU
        assert_eq!(c.touch(3), (CacheOutcome::Miss, Some(2)));
        assert_eq!(c.slots[2], None, "the victim's owner dropped its slot");
        assert_eq!(c.touch(1), (CacheOutcome::Hit, None));
    }

    #[test]
    fn remove_reports_residency() {
        let mut c = Owners::new(2, 9);
        c.touch(7);
        assert!(c.remove(7), "resident entry removed");
        assert!(!c.remove(7), "already gone");
        assert!(!c.remove(8), "never present");
    }

    #[test]
    fn wipe_clears_entries() {
        let mut c = Owners::new(4, 3);
        c.touch(1);
        c.touch(2);
        c.touch(1);
        c.wipe();
        assert_eq!(c.cache.len(), 0);
        // The cache is fully usable after a wipe.
        assert_eq!(c.touch(1).0, CacheOutcome::Miss);
        assert_eq!(c.touch(1).0, CacheOutcome::Hit);
    }
}

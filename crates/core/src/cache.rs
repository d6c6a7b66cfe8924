//! The per-worker remote-value cache (paper §VI-C).
//!
//! "To reduce the overhead of data transmission, the worker maintains a
//! cache list that caches recently transmitted vertices. For efficiency,
//! the cache list is implemented using a static array and its size can be
//! specified by the user. We adopt a simple FIFO replacement mechanism."
//!
//! [`FifoCache`] reproduces that design literally: a fixed-capacity ring
//! of `(packed id, value)` entries with FIFO eviction, plus a hash index
//! for O(1) lookup (the paper's linear scan over a static array is
//! semantically identical; the index only changes the constant factor).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hasher for packed vertex ids and local indices: a multiply, then a
/// rotate at [`Hasher::finish`] that brings the product's well-mixed high
/// bits down to the low bits hashbrown indexes by (`pack()` puts the
/// column there, and a cyclic distribution gives a place one residue).
/// It drops SipHash's keying against chosen collisions at no risk: every
/// key a peer can make reach these tables is a pattern cell the socket
/// backend's `data_well_formed` validated, and the tables hold at most
/// the cache capacity and the epoch's cells.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Fixed-capacity FIFO cache keyed by packed [`dpx10_dag::VertexId`]s.
#[derive(Debug)]
pub struct FifoCache<V> {
    capacity: usize,
    /// Ring buffer of slots in insertion order.
    ring: Vec<Option<(u64, V)>>,
    /// Next slot to overwrite.
    head: usize,
    /// key -> ring slot.
    index: IdMap<u64, usize>,
}

impl<V> FifoCache<V> {
    /// Creates a cache holding at most `capacity` entries. A capacity of
    /// zero disables caching (every lookup misses), which is how the
    /// overhead experiment runs ("the cache list was not used", §VIII-B).
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            capacity,
            ring: (0..capacity).map(|_| None).collect(),
            head: 0,
            index: IdMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        let &slot = self.index.get(&key)?;
        self.ring[slot].as_ref().map(|(_, v)| v)
    }

    /// Inserts `key -> value`, evicting the oldest entry when full.
    /// Re-inserting an existing key refreshes its value in place (it
    /// keeps its original eviction slot: pure FIFO, not LRU).
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.index.get(&key) {
            self.ring[slot] = Some((key, value));
            return;
        }
        if let Some((old_key, _)) = self.ring[self.head].take() {
            self.index.remove(&old_key);
        }
        self.ring[self.head] = Some((key, value));
        self.index.insert(key, self.head);
        self.head = (self.head + 1) % self.capacity;
    }

    /// Drops all entries (recovery clears caches: stale values from the
    /// pre-fault epoch must not leak into the new one).
    pub fn clear(&mut self) {
        for slot in &mut self.ring {
            *slot = None;
        }
        self.index.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c = FifoCache::new(2);
        c.insert(1, "a");
        assert_eq!(c.get(1), Some(&"a"));
        assert_eq!(c.get(2), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn fifo_eviction_order() {
        let mut c = FifoCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30); // evicts 1 (oldest), not 2
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(&20));
        assert_eq!(c.get(3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_is_not_lru() {
        let mut c = FifoCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh value, keep FIFO position
        c.insert(3, 30); // still evicts 1: FIFO, not LRU
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(&20));
        assert_eq!(c.get(3), Some(&30));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = FifoCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut c = FifoCache::new(4);
        for k in 0..4 {
            c.insert(k, k);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(0), None);
        // Usable after clear.
        c.insert(9, 9);
        assert_eq!(c.get(9), Some(&9));
    }

    #[test]
    fn wraparound_many_inserts() {
        let mut c = FifoCache::new(3);
        for k in 0..100u64 {
            c.insert(k, k);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(99), Some(&99));
        assert_eq!(c.get(98), Some(&98));
        assert_eq!(c.get(97), Some(&97));
        assert_eq!(c.get(96), None);
    }
}

//! Model-based property tests of [`FifoCache`]: the cache is driven
//! with proptest-drawn insert/lookup churn over a deliberately small
//! key space (so reinserts, evictions, and ring wraparound all happen
//! constantly) and compared after every step against a trivially
//! correct reference model — a `HashMap` for contents plus a `VecDeque`
//! for FIFO insertion order. The paper's §VI-E cache is FIFO, not LRU:
//! a reinsert refreshes the value but must *not* move the entry's
//! eviction slot, and capacity 0 disables the cache entirely.

use std::collections::{HashMap, VecDeque};

use dpx10_core::FifoCache;
use proptest::prelude::*;

/// The reference model: contents + FIFO order, evicting the oldest
/// insertion when a new key arrives at capacity.
struct Model {
    capacity: usize,
    map: HashMap<u64, u64>,
    order: VecDeque<u64>,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn insert(&mut self, key: u64, value: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key, value).is_some() {
            // FIFO, not LRU: a refresh keeps the slot.
            return;
        }
        if self.order.len() == self.capacity {
            let evicted = self.order.pop_front().expect("full ring has a head");
            self.map.remove(&evicted);
        }
        self.order.push_back(key);
    }

    fn get(&self, key: u64) -> Option<&u64> {
        self.map.get(&key)
    }
}

/// One churn step; lookups of absent keys are as important as hits.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64, u64),
    Lookup(u64),
}

fn run_churn(capacity: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cache: FifoCache<u64> = FifoCache::new(capacity);
    let mut model = Model::new(capacity);
    prop_assert_eq!(cache.capacity(), capacity);
    for op in ops {
        match *op {
            Op::Insert(key, value) => {
                cache.insert(key, value);
                model.insert(key, value);
            }
            Op::Lookup(key) => {
                prop_assert_eq!(cache.get(key), model.get(key), "lookup of {} diverged", key);
            }
        }
        // Index/ring consistency invariants after every mutation.
        prop_assert_eq!(cache.len(), model.map.len());
        prop_assert!(cache.len() <= capacity);
        prop_assert_eq!(cache.is_empty(), model.map.is_empty());
        for (k, v) in &model.map {
            prop_assert_eq!(cache.get(*k), Some(v), "model key {} missing from cache", k);
        }
    }
    Ok(())
}

/// Decodes raw draws into ops: two thirds inserts, one third lookups.
/// Keys in 0..12 against capacities up to 6 give a heavy collision and
/// eviction rate.
fn decode_ops(raw: &[(u8, u64, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(tag, key, value)| {
            if tag % 3 < 2 {
                Op::Insert(key % 12, value)
            } else {
                Op::Lookup(key % 16)
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn cache_matches_fifo_model_under_churn(
        capacity in 0usize..7,
        raw in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..64),
    ) {
        run_churn(capacity, &decode_ops(&raw))?;
    }

    #[test]
    fn zero_capacity_never_stores_anything(
        raw in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..32),
    ) {
        let mut cache: FifoCache<u64> = FifoCache::new(0);
        for op in decode_ops(&raw) {
            if let Op::Insert(k, v) = op {
                cache.insert(k, v);
            }
            prop_assert!(cache.is_empty());
            prop_assert_eq!(cache.len(), 0);
        }
        for k in 0..16 {
            prop_assert_eq!(cache.get(k), None);
        }
    }
}

#[test]
fn eviction_at_the_ring_boundary_is_fifo() {
    // Fill a capacity-3 ring, then push one more: the *oldest* entry
    // falls out, even though it was read most recently (FIFO ≠ LRU).
    let mut cache: FifoCache<u64> = FifoCache::new(3);
    cache.insert(1, 100);
    cache.insert(2, 200);
    cache.insert(3, 300);
    assert_eq!(cache.get(1), Some(&100)); // "use" the oldest
    cache.insert(4, 400);
    assert_eq!(cache.get(1), None, "oldest insertion evicted");
    assert_eq!(cache.get(2), Some(&200));
    assert_eq!(cache.get(3), Some(&300));
    assert_eq!(cache.get(4), Some(&400));
    assert_eq!(cache.len(), 3);
}

#[test]
fn reinsert_refreshes_value_without_moving_the_slot() {
    let mut cache: FifoCache<u64> = FifoCache::new(2);
    cache.insert(1, 10);
    cache.insert(2, 20);
    cache.insert(1, 11); // refresh, still the oldest slot
    assert_eq!(cache.get(1), Some(&11));
    cache.insert(3, 30); // evicts key 1, not key 2
    assert_eq!(cache.get(1), None);
    assert_eq!(cache.get(2), Some(&20));
    assert_eq!(cache.get(3), Some(&30));
}

#[test]
fn clear_resets_ring_and_index_together() {
    let mut cache: FifoCache<u64> = FifoCache::new(4);
    for k in 0..6 {
        cache.insert(k, k * 7);
    }
    cache.clear();
    assert!(cache.is_empty());
    assert_eq!(cache.len(), 0);
    for k in 0..6 {
        assert_eq!(cache.get(k), None);
    }
    // Still fully usable after a clear.
    cache.insert(9, 99);
    assert_eq!(cache.get(9), Some(&99));
    assert_eq!(cache.len(), 1);
}

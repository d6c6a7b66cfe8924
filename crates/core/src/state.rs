//! Per-place runtime state of an epoch, shared by every driver of
//! [`crate::protocol`].

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use dpx10_sync::Mutex;
use dpx10_sync::SegQueue;

use dpx10_dag::tiled::{stencil_anti_order, Reach};
use dpx10_dag::{AggSpec, DagPattern, VertexId};
use dpx10_distarray::{AggTable, Dist, DistArray};

use crate::app::VertexValue;
use crate::cache::FifoCache;
use crate::config::InitOverride;

/// One dependency slot of a [`Parked`] vertex.
#[derive(Debug)]
pub enum Fill<V> {
    /// No value yet; a pull round-trip is (or is about to be) in flight.
    Missing,
    /// Filled by a `PullVal` reply (or read straight from the cache on a
    /// re-gather).
    Pulled(V),
    /// Pinned from a producer's `Done` (push mode) before the consumer
    /// ever asked — consuming it on re-gather counts as an avoided pull
    /// round-trip.
    Pushed(V),
}

impl<V> Fill<V> {
    /// The slot's value, if any mode delivered one.
    pub fn value(&self) -> Option<&V> {
        match self {
            Fill::Missing => None,
            Fill::Pulled(v) | Fill::Pushed(v) => Some(v),
        }
    }
}

/// A vertex parked because some remote dependency values were missing
/// from the cache; pull replies (or eager pushes) fill the slots and
/// re-ready the vertex.
#[derive(Debug)]
pub struct Parked<V> {
    /// Missing dependency (packed id) -> its fill slot.
    pub fills: HashMap<u64, Fill<V>>,
    /// Number of still-[`Fill::Missing`] entries.
    pub remaining: usize,
}

impl<V> Default for Parked<V> {
    fn default() -> Self {
        Parked {
            fills: HashMap::new(),
            remaining: 0,
        }
    }
}

/// Pull bookkeeping of one place; a single lock guards both maps so the
/// fill/park transitions are atomic.
#[derive(Debug)]
pub struct Pending<V> {
    /// Parked vertices by local index.
    pub parked: HashMap<u32, Parked<V>>,
    /// Outstanding pulls: packed dep id -> parked local indices waiting.
    pub waiters: HashMap<u64, Vec<u32>>,
}

impl<V> Default for Pending<V> {
    fn default() -> Self {
        Pending {
            parked: HashMap::new(),
            waiters: HashMap::new(),
        }
    }
}

/// The most stencil offsets a cell's dependencies are lent for, by the
/// tile kernel and by [`SlabStencil`]; a pattern with a longer stencil
/// takes the general path.
pub const LENT: usize = 8;

/// A stencil pattern's edges inside one block chunk, as slab offsets.
///
/// A block chunk is a rectangle stored row-major, so the neighbour at
/// stencil offset `(di, dj)` of local index `li` sits at
/// `li + di * width + dj` whenever it is in the chunk. Two insets of the
/// chunk say where that holds for every offset: the stencil's reach for
/// dependencies, the mirrored reach for anti-dependencies. A cell in
/// one of them whose neighbours there are all DAG vertices addresses
/// those edges by an add, without `slot_of` or `local_index`.
pub struct SlabStencil {
    /// The dependency offsets, in declared (`dependencies`) order.
    offsets: [(i32, i32); LENT],
    /// Number of offsets.
    len: usize,
    /// Slab deltas of `offsets`.
    dep_deltas: [isize; LENT],
    /// Slab deltas of the mirrored offsets, in `anti_dependencies`
    /// order — which need not be `offsets`' order (Pyramid's is not).
    anti_deltas: [isize; LENT],
    /// Cells whose every dependency offset lands in the chunk.
    dep_inner: (Range<u32>, Range<u32>),
    /// Cells whose every anti-dependency offset lands in the chunk;
    /// empty when no cell showed the anti order.
    anti_inner: (Range<u32>, Range<u32>),
}

impl SlabStencil {
    /// The stencil addressing of `slot`'s chunk: `Some` when `pattern`
    /// declares a stencil of 1 to [`LENT`] offsets and `dist` is a block
    /// kind. The anti order is read off the first cell of the chunk
    /// whose anti-dependencies are all in it and in the pattern (the
    /// stencil contract makes every such cell agree).
    fn of(pattern: &dyn DagPattern, dist: &Dist, slot: usize, in_pattern: &[bool]) -> Option<Self> {
        let stencil = pattern
            .stencil()
            .filter(|s| (1..=LENT).contains(&s.len()))?;
        let chunk = dist.block_bounds(slot)?;
        let (row0, col0, width) = (chunk.0.start, chunk.1.start, chunk.1.len());
        let delta = |(di, dj): (i32, i32)| di as isize * width as isize + dj as isize;
        let reach = Reach::of(stencil);
        let mut st = SlabStencil {
            offsets: [(0, 0); LENT],
            len: stencil.len(),
            dep_deltas: [0; LENT],
            anti_deltas: [0; LENT],
            dep_inner: reach.inset(chunk.clone()),
            anti_inner: (row0..row0, col0..col0),
        };
        st.offsets[..st.len].copy_from_slice(stencil);
        for (d, &o) in st.dep_deltas.iter_mut().zip(stencil) {
            *d = delta(o);
        }

        let (rows, cols) = reach.mirrored().inset(chunk);
        let li = |c: VertexId| (c.i - row0) as usize * width + (c.j - col0) as usize;
        let open = |c: VertexId| {
            let dependent = |&o: &(i32, i32)| in_pattern[li(c).wrapping_add_signed(-delta(o))];
            in_pattern[li(c)] && stencil.iter().all(dependent)
        };
        let mut cells = rows
            .clone()
            .flat_map(|i| cols.clone().map(move |j| VertexId::new(i, j)));
        if let Some(order) = cells
            .find(|&c| open(c))
            .and_then(|c| stencil_anti_order(pattern, c))
        {
            for (d, k) in st.anti_deltas.iter_mut().zip(order) {
                *d = -delta(stencil[k]);
            }
            st.anti_inner = (rows, cols);
        }
        Some(st)
    }

    /// The dependency offsets, in `dependencies` order.
    #[inline]
    pub fn offsets(&self) -> &[(i32, i32)] {
        &self.offsets[..self.len]
    }

    /// The slab deltas of `(i, j)`'s dependencies, in `dependencies`
    /// order, if they all land in the chunk.
    #[inline]
    pub fn dep_deltas(&self, i: u32, j: u32) -> Option<&[isize]> {
        let (rows, cols) = &self.dep_inner;
        (rows.contains(&i) && cols.contains(&j)).then(|| &self.dep_deltas[..self.len])
    }

    /// The slab deltas of `(i, j)`'s anti-dependencies, in
    /// `anti_dependencies` order, if they all land in the chunk.
    #[inline]
    pub fn anti_deltas(&self, i: u32, j: u32) -> Option<&[isize]> {
        let (rows, cols) = &self.anti_inner;
        (rows.contains(&i) && cols.contains(&j)).then(|| &self.anti_deltas[..self.len])
    }
}

/// The runtime state of one place (one distribution slot) during an
/// epoch: the paper's per-place vertex partition, ready list and cache
/// (§VI-C).
pub struct Shard<V> {
    /// Local index -> global coordinates, in chunk order.
    pub points: Vec<(u32, u32)>,
    /// Whether the cell is a DAG vertex (masked patterns leave holes).
    pub in_pattern: Vec<bool>,
    /// Slab addressing of a stencil's local edges (`None` off the block
    /// kinds, for other patterns, and on nested-dataflow runs).
    pub stencil: Option<SlabStencil>,
    /// Unfinished-dependency counters.
    pub indegree: Vec<AtomicU32>,
    /// Completion flags ("a finish flag is kept for each vertex").
    pub finished: Vec<AtomicBool>,
    /// Results, published once.
    pub values: Vec<OnceLock<V>>,
    /// Ready list: "contains the schedulable and uncompleted vertices".
    pub ready: SegQueue<u32>,
    /// Remote-value FIFO cache.
    pub cache: Mutex<FifoCache<V>>,
    /// Parked vertices and outstanding pulls.
    pub pending: Mutex<Pending<V>>,
    /// Local finished counter ("a finished vertices counter is used to
    /// determine the termination of the worker").
    pub finished_local: AtomicU64,
    /// What `finished_local` read when the shard was built: the cells
    /// that started finished (restored, init-overridden, or
    /// finished elsewhere per a scatter's metadata).
    pub finished_at_start: u64,
    /// Number of DAG vertices owned by this shard.
    pub total_local: u64,
    /// Nanoseconds this shard's workers spent inside `compute` (summed
    /// across threads); feeds `RunReport::place_busy` on the real
    /// backends. Exact while a flight recorder is on; otherwise each
    /// worker times one compute in 16 and charges it for all 16, so this
    /// is an estimate.
    pub busy_ns: AtomicU64,
    /// Prefix-aggregation lanes for interval dependencies (`Some` only
    /// on nested-dataflow runs). Lanes are residents, not cache entries:
    /// the FIFO cache may evict the raw values whose keys they folded.
    pub aggs: Option<AggTable>,
}

impl<V: VertexValue> Shard<V> {
    /// Reads the published value of a finished local vertex.
    #[inline]
    pub fn value(&self, li: u32) -> &V {
        self.values[li as usize]
            .get()
            .expect("value read before publication")
    }

    /// Vertices this shard has published since it was built — its share
    /// of the epoch's `vertices_computed`. Exact once its workers are
    /// joined.
    pub fn computed(&self) -> u64 {
        self.finished_local.load(Ordering::Relaxed) - self.finished_at_start
    }

    /// The shard of `slot` with its geometry filled in and nothing
    /// finished, counted or ready.
    fn empty(
        pattern: &dyn DagPattern,
        dist: &Dist,
        slot: usize,
        cache_capacity: usize,
        agg: Option<AggSpec>,
    ) -> Self {
        let len = dist.chunk_len(slot);
        let (mut points, mut in_pattern) = (Vec::with_capacity(len), Vec::with_capacity(len));
        for (i, j) in dist.iter_slot(slot) {
            points.push((i, j));
            in_pattern.push(pattern.contains(i, j));
        }
        Shard {
            total_local: in_pattern.iter().filter(|&&c| c).count() as u64,
            points,
            stencil: match agg {
                None => SlabStencil::of(pattern, dist, slot, &in_pattern),
                Some(_) => None,
            },
            in_pattern,
            indegree: (0..len).map(|_| AtomicU32::new(0)).collect(),
            finished: (0..len).map(|_| AtomicBool::new(false)).collect(),
            values: (0..len).map(|_| OnceLock::new()).collect(),
            ready: SegQueue::new(),
            cache: Mutex::new(FifoCache::new(cache_capacity)),
            pending: Mutex::new(Pending::default()),
            finished_local: AtomicU64::new(0),
            finished_at_start: 0,
            busy_ns: AtomicU64::new(0),
            aggs: agg.map(|spec| AggTable::new(pattern.height(), pattern.width(), spec)),
        }
    }

    /// Marks local vertex `li` finished with `value`, outside the
    /// protocol (a restored cell).
    fn restore(&self, li: usize, value: V) {
        self.values[li].set(value).ok();
        self.finished[li].store(true, Ordering::Relaxed);
        self.finished_local.fetch_add(1, Ordering::Relaxed);
    }
}

/// Builds the shards of an epoch.
///
/// A cell starts *finished* when `prior` (the recovered array of the
/// previous epoch) has it, or when the user's init override pre-finishes
/// it (§VI-E). Indegrees count only unfinished dependencies, and
/// zero-indegree unfinished vertices seed the ready lists — stage 1 of
/// the execution overview (§VI-A).
///
/// `prior_meta` supports the socket engine's `Resume`: a place that
/// received only its own slot's restored values still needs the global
/// finished-set to compute indegrees deterministically, so the frame
/// carries every finished cell's packed id as metadata.
/// Cells in `prior_meta` that `prior`/`init` have no value for are
/// marked finished *without* a value — legal only for cells this place
/// never serves (pulls go to the owner, which always holds its own
/// chunk's values). In-process engines pass `None`: they always hold the
/// full prior array.
pub fn build_shards<V: VertexValue>(
    pattern: &dyn DagPattern,
    dist: &Arc<Dist>,
    prior: Option<&DistArray<V>>,
    prior_meta: Option<&HashSet<u64>>,
    init: Option<&InitOverride<V>>,
    cache_capacity: usize,
    agg: Option<AggSpec>,
) -> (Vec<Shard<V>>, u64) {
    // A dependency is pre-finished iff the same predicate that marks local
    // cells finished holds for it; this keeps cross-shard indegree
    // computation local and deterministic.
    let is_prefinished = |i: u32, j: u32| -> Option<V> {
        if let Some(arr) = prior {
            if let Some(v) = arr.get_finished(i, j) {
                return Some(v.clone());
            }
        }
        if let Some(f) = init {
            return f(i, j);
        }
        None
    };
    let meta_finished = |i: u32, j: u32| -> bool {
        prior_meta.is_some_and(|m| m.contains(&VertexId::new(i, j).pack()))
    };

    // A fresh build (nothing prefinished anywhere) can take the
    // pattern's closed-form indegree instead of enumerating edges —
    // O(1) per cell where an interval pattern's edge list is O(n).
    let fresh = prior.is_none() && prior_meta.is_none() && init.is_none();

    let mut prefinished_total = 0u64;
    let mut deps_buf = Vec::new();
    let shards = (0..dist.num_slots())
        .map(|slot| {
            let mut shard = Shard::empty(pattern, dist, slot, cache_capacity, agg);
            for (li, &(i, j)) in shard.points.iter().enumerate() {
                if !shard.in_pattern[li] {
                    continue;
                }
                if let Some(v) = is_prefinished(i, j) {
                    shard.restore(li, v);
                    prefinished_total += 1;
                    continue;
                }
                if meta_finished(i, j) {
                    // Finished elsewhere; the value lives with the owner.
                    shard.finished[li].store(true, Ordering::Relaxed);
                    shard.finished_local.fetch_add(1, Ordering::Relaxed);
                    prefinished_total += 1;
                    continue;
                }
                let open = if fresh {
                    pattern.indegree(i, j)
                } else {
                    deps_buf.clear();
                    pattern.dependencies(i, j, &mut deps_buf);
                    deps_buf
                        .iter()
                        .filter(|d| is_prefinished(d.i, d.j).is_none() && !meta_finished(d.i, d.j))
                        .count() as u32
                };
                shard.indegree[li].store(open, Ordering::Relaxed);
                if open == 0 {
                    shard.ready.push(li as u32);
                }
            }
            shard.finished_at_start = *shard.finished_local.get_mut();
            shard
        })
        .collect();
    (shards, prefinished_total)
}

/// Consumes an epoch's shards — one per slot, in slot order — into the
/// [`DistArray`] they computed: the final result, or the surviving
/// finished values the paper's recovery routine starts from. Every value
/// moves; none is cloned. Unfinished cells read `V::default()`.
pub fn into_array<V: VertexValue>(shards: Vec<Shard<V>>, dist: Arc<Dist>) -> DistArray<V> {
    let chunks = shards
        .into_iter()
        .map(|shard| {
            let finished = shard.finished.into_iter().zip(&shard.in_pattern);
            let finished = finished.map(|(f, &p)| p && f.into_inner()).collect();
            let values = shard.values.into_iter();
            let values = values.map(|v| v.into_inner().unwrap_or_default()).collect();
            (values, finished)
        })
        .collect();
    DistArray::from_chunks(dist, chunks)
}

/// Looks up the local index of `id` inside its owning shard.
#[inline]
pub fn local_index(dist: &Dist, id: VertexId) -> u32 {
    dist.local_index(id.i, id.j) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_apgas::PlaceId;
    use dpx10_dag::builtin::{Grid2, IntervalUpper};
    use dpx10_distarray::{DistKind, Region2D};

    fn dist(h: u32, w: u32, places: u16) -> Arc<Dist> {
        Arc::new(Dist::new(
            Region2D::new(h, w),
            DistKind::BlockCol,
            (0..places).map(PlaceId).collect(),
        ))
    }

    #[test]
    fn fresh_shards_seed_sources() {
        let pattern = Grid2::new(3, 4);
        let d = dist(3, 4, 2);
        let (shards, pre) = build_shards::<i64>(&pattern, &d, None, None, None, 16, None);
        assert_eq!(pre, 0);
        // Grid2 has a single source (0,0), owned by slot 0.
        assert_eq!(shards[0].ready.len(), 1);
        assert_eq!(shards[1].ready.len(), 0);
        assert_eq!(shards.iter().map(|s| s.total_local).sum::<u64>(), 12);
    }

    #[test]
    fn init_override_prefinishes_and_unblocks() {
        let pattern = Grid2::new(2, 2);
        let d = dist(2, 2, 1);
        // Pre-finish the whole first row.
        let init: InitOverride<i64> = Arc::new(|i, _j| (i == 0).then_some(0));
        let (shards, pre) = build_shards::<i64>(&pattern, &d, None, None, Some(&init), 16, None);
        assert_eq!(pre, 2);
        // (1,0) now has zero open deps; (1,1) depends on unfinished (1,0).
        let ready: Vec<u32> = std::iter::from_fn(|| shards[0].ready.pop()).collect();
        let pts: Vec<_> = ready
            .iter()
            .map(|&li| shards[0].points[li as usize])
            .collect();
        assert_eq!(pts, vec![(1, 0)]);
    }

    #[test]
    fn prior_array_restores_progress() {
        let pattern = Grid2::new(2, 2);
        let d = dist(2, 2, 1);
        let mut prior: DistArray<i64> = DistArray::new(d.clone());
        prior.set(0, 0, 5);
        let (shards, pre) = build_shards::<i64>(&pattern, &d, Some(&prior), None, None, 16, None);
        assert_eq!(pre, 1);
        let li = d.local_index(0, 0) as u32;
        assert_eq!(shards[0].value(li), &5);
        // (0,1) and (1,0) are unblocked.
        assert_eq!(shards[0].ready.len(), 2);
    }

    #[test]
    fn meta_finished_cells_unblock_without_values() {
        // A worker after a Resume scatter: it holds values only for its
        // own chunk, but the finished-set metadata covers everything.
        let pattern = Grid2::new(2, 2);
        let d = dist(2, 2, 2); // BlockCol: slot 0 owns column 0
        let mut prior: DistArray<i64> = DistArray::new(d.clone());
        prior.set(0, 0, 5); // own chunk value
        let meta: HashSet<u64> = [VertexId::new(0, 0).pack(), VertexId::new(0, 1).pack()]
            .into_iter()
            .collect();
        let (shards, pre) = build_shards(&pattern, &d, Some(&prior), Some(&meta), None, 16, None);
        assert_eq!(pre, 2, "value-backed and meta-only cells both count");
        let li01 = d.local_index(0, 1) as u32;
        assert!(shards[1].finished[li01 as usize].load(Ordering::Relaxed));
        assert!(
            shards[1].values[li01 as usize].get().is_none(),
            "meta-only cells carry no value; pulls go to the owner"
        );
        // (1,0) depends only on the finished (0,0): ready. (1,1) depends
        // on the meta-finished (0,1) plus the unfinished (1,0): parked.
        assert_eq!(shards[0].ready.len(), 1);
        assert_eq!(shards[1].ready.len(), 0);
        let li11 = d.local_index(1, 1) as u32;
        assert_eq!(shards[1].indegree[li11 as usize].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn collect_round_trips() {
        let pattern = Grid2::new(2, 3);
        let d = dist(2, 3, 2);
        let mut prior: DistArray<i64> = DistArray::new(d.clone());
        prior.set(0, 0, 1);
        prior.set(1, 2, 9);
        let (shards, _) = build_shards::<i64>(&pattern, &d, Some(&prior), None, None, 16, None);
        let collected = into_array(shards, d);
        assert_eq!(collected.get_finished(0, 0), Some(&1));
        assert_eq!(collected.get_finished(1, 2), Some(&9));
        assert_eq!(collected.finished_count(), 2);
    }

    /// The reference `into_array` must equal: a default-filled array
    /// with a clone of every finished in-pattern cell set into it.
    fn copied(shards: &[Shard<i64>], d: &Arc<Dist>) -> DistArray<i64> {
        let mut arr = DistArray::new(d.clone());
        for shard in shards {
            for (li, &(i, j)) in shard.points.iter().enumerate() {
                if shard.in_pattern[li] && shard.finished[li].load(Ordering::Acquire) {
                    arr.set(i, j, *shard.value(li as u32));
                }
            }
        }
        arr
    }

    #[test]
    fn moved_result_equals_the_copied_one() {
        // The lower triangle is masked out; the init override pre-finishes
        // the diagonal, and (0, 1) finishes as if a worker published it.
        let pattern = IntervalUpper::new(5);
        let d = dist(5, 5, 2);
        let init: InitOverride<i64> = Arc::new(|i, j| (i == j).then_some(100 + i64::from(i)));
        let (shards, pre) = build_shards(&pattern, &d, None, None, Some(&init), 16, None);
        assert_eq!(pre, 5);
        let (s, li) = (d.slot_of(0, 1), d.local_index(0, 1));
        assert_eq!(shards[s].computed(), 0, "init cells are not computed");
        shards[s].restore(li, 42);
        assert_eq!(shards[s].computed(), 1);

        let expected = copied(&shards, &d);
        let moved = into_array(shards, d);
        assert_eq!(moved.finished_count(), 6);
        assert_eq!(moved.finished_count(), expected.finished_count());
        // Every cell's value and finished flag, masked cells included.
        assert_eq!(moved.to_dense(), expected.to_dense());
    }
}

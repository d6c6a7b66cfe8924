//! The user-facing application API — the reproduction of the paper's
//! `DPX10App[T]` interface and `Vertex[T]` class (Fig. 2).

use dpx10_apgas::Codec;
use dpx10_dag::{AggSpec, Axis, VertexId};
use dpx10_distarray::{AggTable, DistArray};

use crate::stats::RunReport;

/// Bounds on the per-vertex value type (the paper's template argument
/// `T`: "each vertex has an associated computing result of the specified
/// type", §V).
///
/// `Codec` prices the value on the wire; `Default` provides the
/// uncomputed placeholder the distributed array is initialised with.
pub trait VertexValue: Clone + Default + Send + Sync + Codec + 'static {}

impl<T> VertexValue for T where T: Clone + Default + Send + Sync + Codec + 'static {}

/// The dependency vertices passed to `compute()` — the paper's
/// `vertices: Rail[Vertex[T]]` parameter, with `Vertex.getResult()`
/// folded into [`DepView::get`].
///
/// Dependencies appear in the order the DAG pattern returned them from
/// `dependencies(i, j)`, so position-based access is also possible via
/// [`DepView::at`] and [`DepView::values`].
///
/// The values are either a slice the caller owns ([`DepView::new`]) or
/// references lent straight out of the place's slab ([`DepView::lent`]):
/// a vertex whose dependencies are all local reads them without a copy.
pub struct DepView<'a, V> {
    ids: &'a [VertexId],
    values: Values<'a, V>,
}

/// The two storages behind a [`DepView`].
enum Values<'a, V> {
    Owned(&'a [V]),
    Lent(&'a [&'a V]),
}

impl<V> Clone for Values<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for Values<'_, V> {}

impl<'a, V> DepView<'a, V> {
    /// Builds a view over owned values; lengths must match.
    pub fn new(ids: &'a [VertexId], values: &'a [V]) -> Self {
        debug_assert_eq!(ids.len(), values.len());
        DepView {
            ids,
            values: Values::Owned(values),
        }
    }

    /// Builds a view over borrowed values; lengths must match.
    pub fn lent(ids: &'a [VertexId], values: &'a [&'a V]) -> Self {
        debug_assert_eq!(ids.len(), values.len());
        DepView {
            ids,
            values: Values::Lent(values),
        }
    }

    /// The result of dependency `(i, j)`, if `(i, j)` is a dependency of
    /// the current vertex (the paper's loop over `vertices` comparing
    /// `vertex.i`/`vertex.j` then calling `getResult()`).
    pub fn get(&self, i: u32, j: u32) -> Option<&'a V> {
        let want = VertexId::new(i, j);
        self.ids
            .iter()
            .position(|&id| id == want)
            .map(|k| self.at(k))
    }

    /// The value of the `k`-th dependency, in pattern order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    #[inline]
    pub fn at(&self, k: usize) -> &'a V {
        match self.values {
            Values::Owned(values) => &values[k],
            Values::Lent(values) => values[k],
        }
    }

    /// Dependency ids, in pattern order.
    pub fn ids(&self) -> &'a [VertexId] {
        self.ids
    }

    /// Dependency values, in pattern order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &'a V> + '_ {
        (0..self.len()).map(|k| self.at(k))
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the vertex has no dependencies (a DAG source).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &'a V)> + '_ {
        self.ids.iter().copied().zip(self.values())
    }
}

/// A DPX10 application: the `compute()` kernel plus the completion hook
/// (paper Fig. 2).
///
/// Implementations must be deterministic functions of `(id, deps)` — the
/// engine may recompute a vertex after a failure (paper §VI-D), and the
/// scheduler may execute it on any place.
pub trait DpApp: Send + Sync {
    /// The per-vertex result type.
    type Value: VertexValue;

    /// Computes the result of vertex `id` from its dependencies' results.
    fn compute(&self, id: VertexId, deps: &DepView<'_, Self::Value>) -> Self::Value;

    /// Invoked once when every vertex has completed; `result` gives access
    /// to the whole distributed array (paper: `appFinished(dag)`).
    fn app_finished(&self, result: &DagResult<Self::Value>) {
        let _ = result;
    }

    /// The prefix reductions this app wants the runtime to maintain, or
    /// `None` (the default) for classic enumerated execution.
    ///
    /// Returning `Some` opts the app into the nested-dataflow path: when
    /// the pattern also exposes an interval view
    /// ([`dpx10_dag::DagPattern::as_range`]) and the engine's
    /// `aggregation` knob is on, vertices execute via
    /// [`compute_ranged`](DpApp::compute_ranged) with interval reads
    /// served from O(1) prefix lookups instead of O(n) gathered values.
    fn agg_spec(&self) -> Option<AggSpec> {
        None
    }

    /// The aggregation key of a finished cell along `axis` — the
    /// quantity the runtime folds into the row/column prefix lanes (e.g.
    /// LWS folds `D[i] + f(i)` so `min` over a row prefix answers the
    /// recurrence directly). Must be a pure function of `(axis, id,
    /// value)`.
    ///
    /// Only called when [`agg_spec`](DpApp::agg_spec) returns `Some`.
    fn agg_key(&self, axis: Axis, id: VertexId, value: &Self::Value) -> i64 {
        let _ = (axis, id, value);
        unimplemented!("agg_key must be implemented when agg_spec is Some")
    }

    /// Computes vertex `id` from its point dependencies plus the prefix
    /// aggregates — the nested-dataflow counterpart of
    /// [`compute`](DpApp::compute). Both methods must produce identical
    /// values: the differential harness compares the two paths
    /// fingerprint-for-fingerprint.
    ///
    /// Only called when [`agg_spec`](DpApp::agg_spec) returns `Some`.
    fn compute_ranged(
        &self,
        id: VertexId,
        points: &DepView<'_, Self::Value>,
        aggs: &AggView<'_>,
    ) -> Self::Value {
        let _ = (id, points, aggs);
        unimplemented!("compute_ranged must be implemented when agg_spec is Some")
    }
}

/// A boxed app is an app: lets one engine or job server run apps of
/// different concrete types that share a value type.
impl<A: DpApp + ?Sized> DpApp for Box<A> {
    type Value = A::Value;

    fn compute(&self, id: VertexId, deps: &DepView<'_, Self::Value>) -> Self::Value {
        (**self).compute(id, deps)
    }

    fn app_finished(&self, result: &DagResult<Self::Value>) {
        (**self).app_finished(result)
    }

    fn agg_spec(&self) -> Option<AggSpec> {
        (**self).agg_spec()
    }

    fn agg_key(&self, axis: Axis, id: VertexId, value: &Self::Value) -> i64 {
        (**self).agg_key(axis, id, value)
    }

    fn compute_ranged(
        &self,
        id: VertexId,
        points: &DepView<'_, Self::Value>,
        aggs: &AggView<'_>,
    ) -> Self::Value {
        (**self).compute_ranged(id, points, aggs)
    }
}

/// Read access to the per-place prefix-aggregation lanes, handed to
/// [`DpApp::compute_ranged`]. By the time a vertex executes, the engine
/// has ensured every interval the pattern declared for it is answerable.
pub struct AggView<'a> {
    table: &'a AggTable,
}

impl<'a> AggView<'a> {
    /// Wraps a place's aggregation table.
    pub fn new(table: &'a AggTable) -> Self {
        AggView { table }
    }

    /// The fold of row `i`'s keys over columns `0..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the prefix is not yet complete — for intervals the
    /// pattern declared, the engine guarantees completeness, so a panic
    /// here means the app queried an interval outside its pattern.
    pub fn row_prefix(&self, i: u32, hi: u32) -> i64 {
        self.table
            .row_prefix(i, hi)
            .unwrap_or_else(|| panic!("row aggregate ({i}, 0..{hi}) incomplete at compute time"))
    }

    /// The fold of column `j`'s keys over rows `0..hi`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`row_prefix`](AggView::row_prefix).
    pub fn col_prefix(&self, j: u32, hi: u32) -> i64 {
        self.table
            .col_prefix(j, hi)
            .unwrap_or_else(|| panic!("col aggregate (0..{hi}, {j}) incomplete at compute time"))
    }
}

/// The completed computation handed to [`DpApp::app_finished`] and
/// returned by the engines: every vertex's result plus the run's metrics.
pub struct DagResult<V> {
    array: DistArray<V>,
    report: RunReport,
}

impl<V: Clone + Default> DagResult<V> {
    /// Wraps a finished array.
    pub fn new(array: DistArray<V>, report: RunReport) -> Self {
        DagResult { array, report }
    }

    /// The result of vertex `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` was not part of the DAG (e.g. the lower triangle
    /// of an interval pattern).
    pub fn get(&self, i: u32, j: u32) -> V {
        self.array
            .get_finished(i, j)
            .cloned()
            .unwrap_or_else(|| panic!("vertex ({i}, {j}) was not computed"))
    }

    /// The result of `(i, j)`, or `None` for cells outside the DAG.
    pub fn try_get(&self, i: u32, j: u32) -> Option<V> {
        self.array.get_finished(i, j).cloned()
    }

    /// The underlying distributed array.
    pub fn array(&self) -> &DistArray<V> {
        &self.array
    }

    /// Metrics of the run that produced this result.
    pub fn report(&self) -> &RunReport {
        &self.report
    }
}

impl<V: VertexValue> DagResult<V> {
    /// A 64-bit digest of every finished cell — position and encoded
    /// value — in canonical (packed-id) order, so two results fingerprint
    /// identically exactly when they hold the same values at the same
    /// coordinates, regardless of distribution, backend, or message
    /// coalescing. The differential harness compares these across
    /// engines and comms-plane modes.
    pub fn fingerprint(&self) -> u64 {
        let mut cells: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut buf = Vec::new();
        for s in 0..self.array.dist().num_slots() {
            for (i, j, v, finished) in self.array.iter_slot(s) {
                if finished {
                    buf.clear();
                    v.encode(&mut buf);
                    cells.push((VertexId::new(i, j).pack(), buf.clone()));
                }
            }
        }
        cells.sort_unstable_by_key(|(id, _)| *id);
        // FNV-1a over the sorted (id, value-bytes) stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (id, bytes) in &cells {
            for b in id.to_le_bytes() {
                eat(b);
            }
            for &b in bytes {
                eat(b);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depview_lookup_by_coordinates() {
        let ids = [
            VertexId::new(1, 1),
            VertexId::new(2, 1),
            VertexId::new(1, 2),
        ];
        let values = [10, 21, 12];
        let view = DepView::new(&ids, &values);
        assert_eq!(view.get(1, 1), Some(&10));
        assert_eq!(view.get(2, 1), Some(&21));
        assert_eq!(view.get(0, 0), None);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
    }

    #[test]
    fn depview_iterates_in_pattern_order() {
        let ids = [VertexId::new(0, 1), VertexId::new(1, 0)];
        let values = [5, 7];
        let view = DepView::new(&ids, &values);
        let collected: Vec<_> = view.iter().map(|(id, &v)| (id.i, id.j, v)).collect();
        assert_eq!(collected, vec![(0, 1, 5), (1, 0, 7)]);
    }

    #[test]
    fn empty_depview_for_sources() {
        let view: DepView<'_, i32> = DepView::new(&[], &[]);
        assert!(view.is_empty());
        assert_eq!(view.values().count(), 0);
    }

    #[test]
    fn lent_depview_reads_like_an_owned_one() {
        let ids = [VertexId::new(0, 1), VertexId::new(1, 0)];
        let (a, b) = (5, 7);
        let refs = [&a, &b];
        let values = [5, 7];
        for view in [DepView::lent(&ids, &refs), DepView::new(&ids, &values)] {
            assert_eq!(view.get(1, 0), Some(&7));
            assert_eq!(view.get(1, 1), None);
            assert_eq!(view.at(0), &5);
            assert_eq!(view.values().copied().collect::<Vec<_>>(), vec![5, 7]);
            let pairs: Vec<_> = view.iter().map(|(id, &v)| (id.i, id.j, v)).collect();
            assert_eq!(pairs, vec![(0, 1, 5), (1, 0, 7)]);
        }
    }
}

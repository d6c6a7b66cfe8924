//! Prefix-aggregation residents — the nested-dataflow companion to the
//! remote-value cache.
//!
//! An interval dependency (`row i, columns 0..j`) would cost O(j) value
//! reads per vertex if gathered like point dependencies. Instead each
//! place keeps a [`PrefixLane`] per row and/or column: a running
//! reduction (min/max/sum) over the *aggregation keys* of the cells
//! received so far, in index order. Every value-delivery path of the
//! engine (local publish, `Done`, `PullVal`) folds the cell's key into
//! the lane; by the time a consumer's indegree reaches zero the lane's
//! contiguous frontier covers its interval, so the O(n) read
//! collapses to an O(1) prefix lookup.
//!
//! Unlike the FIFO cache, lanes are *residents*: folding is lossy in the
//! right direction (the raw value can be evicted, the running reduction
//! persists), so a cache-starved run does no extra pull round-trips for
//! interval reads. Lanes are rebuilt from the restored array after a
//! recovery, with per-cell pulls as the fallback for cells whose values
//! landed on another place (see `DESIGN.md`).

use std::collections::BTreeMap;

use dpx10_dag::{AggSpec, Axis, DepInterval, Reduction, VertexId};

/// One row's (or column's) running prefix reduction.
///
/// Keys arrive in any order and possibly more than once (`Done`, push,
/// pull and reseed paths can all deliver the same cell); the lane is
/// idempotent per index. `pre[k]` is the fold of keys `0..k`, defined up
/// to the contiguous frontier; later arrivals park in `pending` until
/// the gap before them fills.
#[derive(Debug)]
pub struct PrefixLane {
    red: Reduction,
    /// `pre[k]` = fold of keys `0..k`; `pre[0]` is the identity, and
    /// `pre.len() - 1` is the contiguous frontier.
    pre: Vec<i64>,
    /// Out-of-order arrivals: index -> key, waiting for contiguity.
    pending: BTreeMap<u32, i64>,
}

impl PrefixLane {
    /// An empty lane for the given reduction.
    pub fn new(red: Reduction) -> Self {
        PrefixLane {
            red,
            pre: vec![red.identity()],
            pending: BTreeMap::new(),
        }
    }

    /// Number of contiguous indices folded so far: keys `0..frontier()`
    /// are all in.
    #[inline]
    pub fn frontier(&self) -> u32 {
        (self.pre.len() - 1) as u32
    }

    /// Records `key` for lane index `idx`. Idempotent: re-deliveries of
    /// an already-known index are ignored. Returns `true` if the
    /// contiguous frontier advanced.
    pub fn receive(&mut self, idx: u32, key: i64) -> bool {
        if idx < self.frontier() || self.pending.contains_key(&idx) {
            return false;
        }
        self.pending.insert(idx, key);
        let mut advanced = false;
        while let Some(k) = self.pending.remove(&self.frontier()) {
            let folded = self.red.fold(*self.pre.last().expect("nonempty"), k);
            self.pre.push(folded);
            advanced = true;
        }
        advanced
    }

    /// The fold of keys `0..hi`, if every one of them has arrived.
    #[inline]
    pub fn prefix(&self, hi: u32) -> Option<i64> {
        self.pre.get(hi as usize).copied()
    }

    /// Appends to `out` the lane indices `< hi` that have not been
    /// received at all (neither folded nor parked out-of-order). These
    /// are the cells a consumer must pull before `prefix(hi)` can
    /// answer.
    pub fn missing(&self, hi: u32, out: &mut Vec<u32>) {
        for idx in self.frontier()..hi {
            if !self.pending.contains_key(&idx) {
                out.push(idx);
            }
        }
    }
}

/// The per-place aggregation table: one [`PrefixLane`] per row and/or
/// column, as requested by the application's [`AggSpec`]. It belongs to
/// one shard, whose owner folds into it through `&mut`.
pub struct AggTable {
    spec: AggSpec,
    rows: Vec<PrefixLane>,
    cols: Vec<PrefixLane>,
}

impl AggTable {
    /// Builds the table for a `height × width` grid.
    pub fn new(height: u32, width: u32, spec: AggSpec) -> Self {
        let lanes = |red: Option<Reduction>, n| match red {
            Some(red) => (0..n).map(|_| PrefixLane::new(red)).collect(),
            None => Vec::new(),
        };
        let (rows, cols) = (lanes(spec.rows, height), lanes(spec.cols, width));
        AggTable { spec, rows, cols }
    }

    /// The spec the table was built with.
    pub fn spec(&self) -> AggSpec {
        self.spec
    }

    /// Folds cell `id`'s keys into its row and/or column lane. `key` is
    /// consulted once per active axis, so axis-dependent keys (GAP's
    /// row and column weights differ) cost nothing extra. Idempotent per
    /// cell and axis.
    pub fn record(&mut self, id: VertexId, mut key: impl FnMut(Axis) -> i64) {
        if self.spec.rows.is_some() {
            self.rows[id.i as usize].receive(id.j, key(Axis::Row));
        }
        if self.spec.cols.is_some() {
            self.cols[id.j as usize].receive(id.i, key(Axis::Col));
        }
    }

    /// The fold of row `i`'s keys over columns `0..hi`, if complete.
    pub fn row_prefix(&self, i: u32, hi: u32) -> Option<i64> {
        self.rows.get(i as usize)?.prefix(hi)
    }

    /// The fold of column `j`'s keys over rows `0..hi`, if complete.
    pub fn col_prefix(&self, j: u32, hi: u32) -> Option<i64> {
        self.cols.get(j as usize)?.prefix(hi)
    }

    /// The fold over a prefix interval (`lo == 0`), if complete.
    ///
    /// Returns `None` when keys are still missing *or* the interval is
    /// not a prefix — running reductions cannot subtract, so only
    /// `lo == 0` intervals are aggregable (both shipped ranged patterns
    /// use prefix intervals exclusively).
    pub fn interval_prefix(&self, iv: DepInterval) -> Option<i64> {
        match iv {
            DepInterval::Row { i, lo: 0, hi } => self.row_prefix(i, hi),
            DepInterval::Col { j, lo: 0, hi } => self.col_prefix(j, hi),
            _ => None,
        }
    }

    /// Appends the cell ids inside `iv` whose keys have not been
    /// received on this place — the pulls needed before
    /// [`interval_prefix`](AggTable::interval_prefix) can answer.
    pub fn interval_missing(&self, iv: DepInterval, out: &mut Vec<VertexId>) {
        let mut idxs = Vec::new();
        match iv {
            DepInterval::Row { i, lo, hi } => {
                debug_assert_eq!(lo, 0, "aggregation requires prefix intervals");
                if let Some(lane) = self.rows.get(i as usize) {
                    lane.missing(hi, &mut idxs);
                }
                out.extend(idxs.into_iter().map(|j| VertexId::new(i, j)));
            }
            DepInterval::Col { j, lo, hi } => {
                debug_assert_eq!(lo, 0, "aggregation requires prefix intervals");
                if let Some(lane) = self.cols.get(j as usize) {
                    lane.missing(hi, &mut idxs);
                }
                out.extend(idxs.into_iter().map(|i| VertexId::new(i, j)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_folds_in_order() {
        let mut lane = PrefixLane::new(Reduction::Min);
        assert_eq!(lane.prefix(0), Some(i64::MAX));
        assert!(lane.receive(0, 5));
        assert!(lane.receive(1, 3));
        assert!(lane.receive(2, 9));
        assert_eq!(lane.frontier(), 3);
        assert_eq!(lane.prefix(1), Some(5));
        assert_eq!(lane.prefix(2), Some(3));
        assert_eq!(lane.prefix(3), Some(3));
        assert_eq!(lane.prefix(4), None);
    }

    #[test]
    fn lane_parks_out_of_order_arrivals() {
        let mut lane = PrefixLane::new(Reduction::Sum);
        assert!(!lane.receive(2, 30), "gap at 0..2: no advance");
        assert!(!lane.receive(1, 20));
        assert_eq!(lane.frontier(), 0);
        let mut miss = Vec::new();
        lane.missing(3, &mut miss);
        assert_eq!(miss, vec![0], "1 and 2 are parked, only 0 is absent");
        assert!(lane.receive(0, 10), "filling the gap drains the parked run");
        assert_eq!(lane.frontier(), 3);
        assert_eq!(lane.prefix(3), Some(60));
    }

    #[test]
    fn lane_is_idempotent_per_index() {
        let mut lane = PrefixLane::new(Reduction::Min);
        lane.receive(0, 4);
        assert!(!lane.receive(0, 1), "duplicate delivery ignored");
        assert_eq!(lane.prefix(1), Some(4));
        lane.receive(2, 7);
        assert!(!lane.receive(2, 1), "parked duplicates ignored too");
        lane.receive(1, 6);
        assert_eq!(lane.prefix(3), Some(4));
    }

    #[test]
    fn table_records_per_axis_keys() {
        let mut table = AggTable::new(3, 4, AggSpec::both(Reduction::Min));
        // Cell (1, 2): row key 10, col key 20.
        table.record(VertexId::new(1, 2), |axis| match axis {
            Axis::Row => 10,
            Axis::Col => 20,
        });
        table.record(VertexId::new(1, 0), |_| 7);
        table.record(VertexId::new(1, 1), |_| 9);
        assert_eq!(table.row_prefix(1, 3), Some(7));
        assert_eq!(table.row_prefix(1, 4), None, "column 3 not yet received");
        assert_eq!(table.col_prefix(2, 1), None, "row 0 of column 2 missing");
        table.record(VertexId::new(0, 2), |_| 1);
        assert_eq!(table.col_prefix(2, 2), Some(1).map(|v| v.min(20)));
    }

    #[test]
    fn interval_queries_require_prefixes() {
        let mut table = AggTable::new(2, 5, AggSpec::rows(Reduction::Max));
        for j in 0..4 {
            table.record(VertexId::new(0, j), |_| i64::from(j));
        }
        assert_eq!(
            table.interval_prefix(DepInterval::Row { i: 0, lo: 0, hi: 4 }),
            Some(3)
        );
        assert_eq!(
            table.interval_prefix(DepInterval::Row { i: 0, lo: 1, hi: 4 }),
            None,
            "non-prefix intervals are not aggregable"
        );
        let mut miss = Vec::new();
        table.interval_missing(DepInterval::Row { i: 1, lo: 0, hi: 2 }, &mut miss);
        assert_eq!(miss, vec![VertexId::new(1, 0), VertexId::new(1, 1)]);
    }
}

//! Interval-dependency patterns — the nested-dataflow extension of the
//! paper's enumerated `getDependency()` API.
//!
//! All eight builtin patterns have O(1)-degree dependencies, but the
//! harder DP class (LWS, GAP, RNA-style recurrences) reads O(n)
//! predecessors per cell: "cell (i, j) depends on every earlier cell of
//! row i and column j". Enumerating those edges is wasteful twice over —
//! once in the pattern query and once in the runtime, which would gather
//! O(n) values per vertex. The [`RangeDep`] trait expresses such
//! dependencies as *intervals* (`row i, columns lo..hi`), and the
//! [`RangedDag`] adapter lowers them to the classic [`DagPattern`]
//! enumeration so every existing engine consumes either form unchanged.
//! Engines that understand intervals natively recover the ranged view
//! through [`DagPattern::as_range`] and pair it with the prefix
//! aggregation layer (`dpx10_distarray::aggregate`) to make each
//! interval read an O(1) lookup.

use std::sync::Arc;

use crate::pattern::DagPattern;
use crate::VertexId;

/// A contiguous run of cells along one axis, half-open on the moving
/// coordinate: `Row { i, lo, hi }` is the cells `(i, lo), …, (i, hi-1)`
/// and `Col { j, lo, hi }` is `(lo, j), …, (hi-1, j)`. An interval with
/// `lo >= hi` is empty and contributes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepInterval {
    /// Cells `(i, lo..hi)` of row `i`.
    Row {
        /// The fixed row.
        i: u32,
        /// First column (inclusive).
        lo: u32,
        /// Past-the-end column (exclusive).
        hi: u32,
    },
    /// Cells `(lo..hi, j)` of column `j`.
    Col {
        /// The fixed column.
        j: u32,
        /// First row (inclusive).
        lo: u32,
        /// Past-the-end row (exclusive).
        hi: u32,
    },
}

impl DepInterval {
    /// Number of cells the interval covers (0 when `lo >= hi`).
    #[inline]
    pub fn len(self) -> u32 {
        match self {
            DepInterval::Row { lo, hi, .. } | DepInterval::Col { lo, hi, .. } => {
                hi.saturating_sub(lo)
            }
        }
    }

    /// Whether the interval covers no cells.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Appends every covered cell id to `out`, in axis order.
    pub fn enumerate(self, out: &mut Vec<VertexId>) {
        match self {
            DepInterval::Row { i, lo, hi } => {
                for j in lo..hi {
                    out.push(VertexId::new(i, j));
                }
            }
            DepInterval::Col { j, lo, hi } => {
                for i in lo..hi {
                    out.push(VertexId::new(i, j));
                }
            }
        }
    }

    /// Iterates the covered cell ids without materialising them.
    pub fn iter(self) -> impl Iterator<Item = VertexId> {
        let (row, fixed, lo, hi) = match self {
            DepInterval::Row { i, lo, hi } => (true, i, lo, hi),
            DepInterval::Col { j, lo, hi } => (false, j, lo, hi),
        };
        (lo..hi).map(move |k| {
            if row {
                VertexId::new(fixed, k)
            } else {
                VertexId::new(k, fixed)
            }
        })
    }
}

/// A running reduction maintained over a row or column prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// Running minimum (min-plus recurrences: LWS, GAP).
    Min,
    /// Running maximum (max-plus recurrences).
    Max,
    /// Running sum.
    Sum,
}

impl Reduction {
    /// The fold's identity element.
    #[inline]
    pub fn identity(self) -> i64 {
        match self {
            Reduction::Min => i64::MAX,
            Reduction::Max => i64::MIN,
            Reduction::Sum => 0,
        }
    }

    /// Folds one key into the accumulator.
    #[inline]
    pub fn fold(self, acc: i64, key: i64) -> i64 {
        match self {
            Reduction::Min => acc.min(key),
            Reduction::Max => acc.max(key),
            Reduction::Sum => acc.wrapping_add(key),
        }
    }

    /// The CLI / report spelling.
    pub fn name(self) -> &'static str {
        match self {
            Reduction::Min => "min",
            Reduction::Max => "max",
            Reduction::Sum => "sum",
        }
    }
}

/// Which axis an aggregation lane runs along.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// One lane per row, indexed by column.
    Row,
    /// One lane per column, indexed by row.
    Col,
}

/// Which prefix reductions an application wants the runtime to maintain
/// as cells finish. `None` on an axis means the app never reads interval
/// aggregates along it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Reduction maintained per row (lane index = column).
    pub rows: Option<Reduction>,
    /// Reduction maintained per column (lane index = row).
    pub cols: Option<Reduction>,
}

impl AggSpec {
    /// Row-only spec.
    pub fn rows(red: Reduction) -> Self {
        AggSpec {
            rows: Some(red),
            cols: None,
        }
    }

    /// Column-only spec.
    pub fn cols(red: Reduction) -> Self {
        AggSpec {
            rows: None,
            cols: Some(red),
        }
    }

    /// Both axes with the same reduction.
    pub fn both(red: Reduction) -> Self {
        AggSpec {
            rows: Some(red),
            cols: Some(red),
        }
    }
}

/// A DAG pattern whose dependencies are point edges plus contiguous
/// intervals — the nested-dataflow analogue of [`DagPattern`].
///
/// The same contract applies (containment, inversion, acyclicity), with
/// inversion read over the union of points and intervals: `d` is covered
/// by `point_deps(v) ∪ dep_intervals(v)` ⇔ `v` is covered by
/// `anti_point_deps(d) ∪ anti_intervals(d)`. The [`RangedDag`] adapter
/// lowers both queries to enumeration, so `crate::validate_pattern`
/// checks the ranged contract too.
pub trait RangeDep: Send + Sync {
    /// Number of rows.
    fn height(&self) -> u32;

    /// Number of columns.
    fn width(&self) -> u32;

    /// Whether `(i, j)` is a vertex (defaults to the full rectangle).
    #[inline]
    fn contains(&self, i: u32, j: u32) -> bool {
        i < self.height() && j < self.width()
    }

    /// Appends the O(1) point dependencies of `(i, j)` (e.g. GAP's
    /// diagonal substitution edge). Must not overlap the intervals.
    fn point_deps(&self, i: u32, j: u32, out: &mut Vec<VertexId>);

    /// Appends the interval dependencies of `(i, j)`.
    fn dep_intervals(&self, i: u32, j: u32, out: &mut Vec<DepInterval>);

    /// Appends the O(1) point consumers of `(i, j)`.
    fn anti_point_deps(&self, i: u32, j: u32, out: &mut Vec<VertexId>);

    /// Appends the interval consumers of `(i, j)`.
    fn anti_intervals(&self, i: u32, j: u32, out: &mut Vec<DepInterval>);

    /// Total number of vertices (defaults to the full rectangle).
    fn vertex_count(&self) -> u64 {
        self.height() as u64 * self.width() as u64
    }

    /// A short human-readable name.
    fn name(&self) -> &str {
        "ranged"
    }
}

/// Adapter from [`RangeDep`] to [`DagPattern`]: lowers interval queries
/// to enumerated edge lists so every engine, validator and tiler that
/// speaks the classic API consumes ranged patterns unchanged, while
/// interval-aware engines recover the ranged view via
/// [`DagPattern::as_range`].
#[derive(Clone)]
pub struct RangedDag {
    inner: Arc<dyn RangeDep>,
}

impl RangedDag {
    /// Wraps a ranged pattern.
    pub fn new<R: RangeDep + 'static>(inner: R) -> Self {
        RangedDag {
            inner: Arc::new(inner),
        }
    }

    /// The wrapped ranged pattern.
    pub fn inner(&self) -> &Arc<dyn RangeDep> {
        &self.inner
    }
}

impl DagPattern for RangedDag {
    fn height(&self) -> u32 {
        self.inner.height()
    }

    fn width(&self) -> u32 {
        self.inner.width()
    }

    fn contains(&self, i: u32, j: u32) -> bool {
        self.inner.contains(i, j)
    }

    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        self.inner.point_deps(i, j, out);
        let mut ivs = Vec::with_capacity(2);
        self.inner.dep_intervals(i, j, &mut ivs);
        for iv in ivs {
            iv.enumerate(out);
        }
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        self.inner.anti_point_deps(i, j, out);
        let mut ivs = Vec::with_capacity(2);
        self.inner.anti_intervals(i, j, &mut ivs);
        for iv in ivs {
            iv.enumerate(out);
        }
    }

    fn indegree(&self, i: u32, j: u32) -> u32 {
        // Closed form: point count + interval lengths. Graph
        // initialisation over an O(n)-degree pattern stays O(1) per cell
        // instead of materialising the edge list.
        let mut pts = Vec::with_capacity(2);
        self.inner.point_deps(i, j, &mut pts);
        let mut ivs = Vec::with_capacity(2);
        self.inner.dep_intervals(i, j, &mut ivs);
        pts.len() as u32 + ivs.iter().map(|iv| iv.len()).sum::<u32>()
    }

    fn vertex_count(&self) -> u64 {
        self.inner.vertex_count()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_range(&self) -> Option<&dyn RangeDep> {
        Some(self.inner.as_ref())
    }
}

/// The least-weight-subsequence pattern: a single row of `n` cells where
/// cell `(0, j)` depends on *every* earlier cell `(0, 0..j)` — the
/// 1-D/1-D nested-dataflow recurrence `D[j] = min_{i<j}(D[i] + w(i, j))`.
#[derive(Clone, Copy, Debug)]
pub struct LwsDag {
    n: u32,
}

impl LwsDag {
    /// A chain of `n` cells.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "LwsDag needs at least one cell");
        LwsDag { n }
    }
}

impl RangeDep for LwsDag {
    fn height(&self) -> u32 {
        1
    }

    fn width(&self) -> u32 {
        self.n
    }

    fn point_deps(&self, _i: u32, _j: u32, _out: &mut Vec<VertexId>) {}

    fn dep_intervals(&self, _i: u32, j: u32, out: &mut Vec<DepInterval>) {
        if j > 0 {
            out.push(DepInterval::Row { i: 0, lo: 0, hi: j });
        }
    }

    fn anti_point_deps(&self, _i: u32, _j: u32, _out: &mut Vec<VertexId>) {}

    fn anti_intervals(&self, _i: u32, j: u32, out: &mut Vec<DepInterval>) {
        if j + 1 < self.n {
            out.push(DepInterval::Row {
                i: 0,
                lo: j + 1,
                hi: self.n,
            });
        }
    }

    fn name(&self) -> &str {
        "lws"
    }
}

/// The GAP (sequence alignment with general gap costs) pattern: cell
/// `(i, j)` depends on the diagonal point `(i-1, j-1)` plus the full row
/// prefix `(i, 0..j)` and column prefix `(0..i, j)` — the 2-D/1-D
/// nested-dataflow recurrence of Galil–Giancarlo.
#[derive(Clone, Copy, Debug)]
pub struct GapDag {
    h: u32,
    w: u32,
}

impl GapDag {
    /// An `height × width` alignment table.
    pub fn new(height: u32, width: u32) -> Self {
        assert!(height > 0 && width > 0, "GapDag needs a non-empty table");
        GapDag {
            h: height,
            w: width,
        }
    }
}

impl RangeDep for GapDag {
    fn height(&self) -> u32 {
        self.h
    }

    fn width(&self) -> u32 {
        self.w
    }

    fn point_deps(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        if i > 0 && j > 0 {
            out.push(VertexId::new(i - 1, j - 1));
        }
    }

    fn dep_intervals(&self, i: u32, j: u32, out: &mut Vec<DepInterval>) {
        if j > 0 {
            out.push(DepInterval::Row { i, lo: 0, hi: j });
        }
        if i > 0 {
            out.push(DepInterval::Col { j, lo: 0, hi: i });
        }
    }

    fn anti_point_deps(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        if i + 1 < self.h && j + 1 < self.w {
            out.push(VertexId::new(i + 1, j + 1));
        }
    }

    fn anti_intervals(&self, i: u32, j: u32, out: &mut Vec<DepInterval>) {
        if j + 1 < self.w {
            out.push(DepInterval::Row {
                i,
                lo: j + 1,
                hi: self.w,
            });
        }
        if i + 1 < self.h {
            out.push(DepInterval::Col {
                j,
                lo: i + 1,
                hi: self.h,
            });
        }
    }

    fn name(&self) -> &str {
        "gap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_pattern;
    use crate::DagPattern;

    fn enumerated_indegree(p: &dyn DagPattern, i: u32, j: u32) -> u32 {
        let mut buf = Vec::new();
        p.dependencies(i, j, &mut buf);
        buf.len() as u32
    }

    #[test]
    fn interval_enumeration_and_len_agree() {
        let iv = DepInterval::Row { i: 3, lo: 2, hi: 6 };
        let mut out = Vec::new();
        iv.enumerate(&mut out);
        assert_eq!(out.len() as u32, iv.len());
        assert_eq!(out[0], VertexId::new(3, 2));
        assert_eq!(out[3], VertexId::new(3, 5));
        let empty = DepInterval::Col { j: 1, lo: 5, hi: 5 };
        assert!(empty.is_empty());
        let mut none = Vec::new();
        empty.enumerate(&mut none);
        assert!(none.is_empty());
        // Inverted bounds are empty, not a panic.
        assert_eq!(DepInterval::Row { i: 0, lo: 7, hi: 3 }.len(), 0);
    }

    #[test]
    fn lws_adapter_validates_and_counts() {
        let dag = RangedDag::new(LwsDag::new(17));
        validate_pattern(&dag).expect("LWS contract holds");
        assert_eq!(dag.vertex_count(), 17);
        for j in 0..17 {
            assert_eq!(dag.indegree(0, j), j, "cell j reads all j predecessors");
            assert_eq!(dag.indegree(0, j), enumerated_indegree(&dag, 0, j));
        }
    }

    #[test]
    fn gap_adapter_validates_and_counts() {
        let dag = RangedDag::new(GapDag::new(7, 9));
        validate_pattern(&dag).expect("GAP contract holds");
        for i in 0..7 {
            for j in 0..9 {
                let diag = u32::from(i > 0 && j > 0);
                assert_eq!(dag.indegree(i, j), i + j + diag);
                assert_eq!(dag.indegree(i, j), enumerated_indegree(&dag, i, j));
            }
        }
    }

    #[test]
    fn as_range_round_trips_through_trait_objects() {
        let dag = RangedDag::new(GapDag::new(4, 4));
        assert!(dag.as_range().is_some());
        let boxed: Box<dyn DagPattern> = Box::new(dag);
        assert!(boxed.as_range().is_some(), "forwarded through Box");
        let arc: std::sync::Arc<dyn DagPattern> = std::sync::Arc::from(boxed);
        assert!(arc.as_range().is_some(), "forwarded through Arc");
        // Classic patterns report no ranged view.
        let classic = crate::builtin::Grid2::new(3, 3);
        assert!(classic.as_range().is_none());
    }

    #[test]
    fn reduction_folds() {
        assert_eq!(Reduction::Min.fold(Reduction::Min.identity(), 5), 5);
        assert_eq!(Reduction::Max.fold(Reduction::Max.identity(), -5), -5);
        assert_eq!(Reduction::Sum.fold(Reduction::Sum.identity(), 7), 7);
        assert_eq!(Reduction::Min.fold(3, 5), 3);
        assert_eq!(Reduction::Max.fold(3, 5), 5);
        assert_eq!(Reduction::Sum.fold(3, 5), 8);
    }
}

//! The [`DagPattern`] trait — the reproduction of the paper's abstract
//! `Dag[T]` class (Fig. 3).

use crate::VertexId;

/// A DAG pattern: an implicit dependency graph over the cells of a
/// `height × width` matrix.
///
/// Implementations must be cheap and deterministic: the vertex engines
/// call [`dependencies`](DagPattern::dependencies) once per executed
/// vertex and [`anti_dependencies`](DagPattern::anti_dependencies) once
/// per completed vertex, exactly as the paper's worker does (§VI-C). A
/// pattern that declares a [`stencil`](DagPattern::stencil) lets the
/// tiled path skip `dependencies` for cells whose offsets stay inside
/// their tile: the tile table is built from tile borders, and the tile
/// kernel derives interior dependencies from the offsets.
///
/// # Contract
///
/// For the runtime to terminate and produce correct results, a pattern must
/// satisfy (checked by [`crate::validate_pattern`] and the property tests):
///
/// 1. **Containment** — every id returned by either query satisfies
///    [`contains`](DagPattern::contains).
/// 2. **Inversion** — `d ∈ dependencies(v)` ⇔ `v ∈ anti_dependencies(d)`.
/// 3. **Acyclicity** — the implied edge relation has no cycles.
/// 4. **Count** — [`vertex_count`](DagPattern::vertex_count) is the
///    number of cells `contains` accepts.
///
/// Patterns are consulted concurrently from many worker threads, hence the
/// `Send + Sync` bound.
pub trait DagPattern: Send + Sync {
    /// Number of rows; valid `i` lies in `0..height`.
    fn height(&self) -> u32;

    /// Number of columns; valid `j` lies in `0..width`.
    fn width(&self) -> u32;

    /// Whether `(i, j)` is a vertex of this DAG.
    ///
    /// The default accepts the full rectangle; triangular patterns such as
    /// [`crate::builtin::IntervalUpper`] override it.
    #[inline]
    fn contains(&self, i: u32, j: u32) -> bool {
        i < self.height() && j < self.width()
    }

    /// Appends to `out` the ids of vertices that must complete before
    /// `(i, j)` may execute (paper: `getDependency`).
    ///
    /// `out` is an append-buffer so hot callers can reuse one allocation;
    /// implementations must not read or clear existing contents.
    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>);

    /// Appends to `out` the ids of vertices that depend on `(i, j)`
    /// (paper: `getAntiDependency`). Their indegree is decremented when
    /// `(i, j)` finishes.
    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>);

    /// The initial indegree of `(i, j)`.
    ///
    /// The default counts [`dependencies`](DagPattern::dependencies); a
    /// pattern may override it with a closed form to speed up graph
    /// initialisation.
    fn indegree(&self, i: u32, j: u32) -> u32 {
        let mut buf = Vec::with_capacity(4);
        self.dependencies(i, j, &mut buf);
        buf.len() as u32
    }

    /// Total number of vertices: exactly the cells `contains` accepts.
    /// The engines count to it, and take a pattern with as many
    /// vertices as cells for one without holes.
    ///
    /// The default assumes the full rectangle; sparse patterns override.
    fn vertex_count(&self) -> u64 {
        self.height() as u64 * self.width() as u64
    }

    /// A short human-readable name used in reports and traces.
    fn name(&self) -> &str {
        "custom"
    }

    /// The interval-dependency view of this pattern, if it has one.
    ///
    /// Classic patterns return `None`; [`crate::range::RangedDag`]
    /// returns its wrapped [`crate::range::RangeDep`] so interval-aware
    /// engines can skip edge enumeration and pair interval reads with
    /// prefix aggregation.
    fn as_range(&self) -> Option<&dyn crate::range::RangeDep> {
        None
    }

    /// The fixed offsets `(di, dj)` this pattern's dependencies are
    /// made of, if it is an O(1)-dependency recurrence.
    ///
    /// `Some(offsets)` promises that for every contained `(i, j)`,
    /// [`dependencies`](DagPattern::dependencies) returns exactly
    /// `(i + di, j + dj)` for each offset, in declared order, keeping
    /// those that are [`contains`](DagPattern::contains)ed (an offset
    /// off the matrix edge is dropped). It also promises that
    /// [`anti_dependencies`](DagPattern::anti_dependencies) lists
    /// `(i - di, j - dj)` in one fixed order of the offsets for every
    /// cell all of whose mirrored offsets are contained. That order
    /// need not be the declared one (Pyramid's is not): the per-vertex
    /// engines learn it from one such cell, then decrement without
    /// asking. [`crate::validate_pattern`] checks both promises. The
    /// default, `None`, promises nothing.
    fn stencil(&self) -> Option<&[(i32, i32)]> {
        None
    }
}

// Blanket impls so engines can take `&P`, `Box<dyn ..>` or `Arc<dyn ..>`
// interchangeably.
macro_rules! forward_pattern {
    ($ty:ty) => {
        impl<P: DagPattern + ?Sized> DagPattern for $ty {
            fn height(&self) -> u32 {
                (**self).height()
            }
            fn width(&self) -> u32 {
                (**self).width()
            }
            fn contains(&self, i: u32, j: u32) -> bool {
                (**self).contains(i, j)
            }
            fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
                (**self).dependencies(i, j, out)
            }
            fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
                (**self).anti_dependencies(i, j, out)
            }
            fn indegree(&self, i: u32, j: u32) -> u32 {
                (**self).indegree(i, j)
            }
            fn vertex_count(&self) -> u64 {
                (**self).vertex_count()
            }
            fn name(&self) -> &str {
                (**self).name()
            }
            fn as_range(&self) -> Option<&dyn crate::range::RangeDep> {
                (**self).as_range()
            }
            fn stencil(&self) -> Option<&[(i32, i32)]> {
                (**self).stencil()
            }
        }
    };
}

forward_pattern!(&P);
forward_pattern!(Box<P>);
forward_pattern!(std::sync::Arc<P>);

/// Identifiers for the eight built-in patterns (paper Fig. 5 (a)–(h)),
/// convenient for sweeping over the whole library in tests and benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BuiltinKind {
    /// (a) left + top dependencies — Manhattan Tourist shape.
    Grid2,
    /// (b) left + top + diagonal — LCS / Smith-Waterman shape.
    Grid3,
    /// (c) diagonal-only chains.
    Diagonal,
    /// (d) upper-triangular interval DP — Longest Palindromic Subsequence.
    IntervalUpper,
    /// (e) chains along each row.
    RowWave,
    /// (f) chains along each column.
    ColWave,
    /// (g) three-parent pyramid stencil.
    Pyramid,
    /// (h) full previous row + column (a 2D/1D-type recurrence).
    FullPrevRowCol,
}

impl BuiltinKind {
    /// All eight built-ins, in Fig. 5 order.
    pub const ALL: [BuiltinKind; 8] = [
        BuiltinKind::Grid2,
        BuiltinKind::Grid3,
        BuiltinKind::Diagonal,
        BuiltinKind::IntervalUpper,
        BuiltinKind::RowWave,
        BuiltinKind::ColWave,
        BuiltinKind::Pyramid,
        BuiltinKind::FullPrevRowCol,
    ];

    /// Instantiates the pattern at the given size.
    pub fn instantiate(self, height: u32, width: u32) -> Box<dyn DagPattern> {
        use crate::builtin::*;
        match self {
            BuiltinKind::Grid2 => Box::new(Grid2::new(height, width)),
            BuiltinKind::Grid3 => Box::new(Grid3::new(height, width)),
            BuiltinKind::Diagonal => Box::new(Diagonal::new(height, width)),
            BuiltinKind::IntervalUpper => Box::new(IntervalUpper::new(height.max(width))),
            BuiltinKind::RowWave => Box::new(RowWave::new(height, width)),
            BuiltinKind::ColWave => Box::new(ColWave::new(height, width)),
            BuiltinKind::Pyramid => Box::new(Pyramid::new(height, width)),
            BuiltinKind::FullPrevRowCol => Box::new(FullPrevRowCol::new(height, width)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_kinds_instantiate_with_right_names() {
        for kind in BuiltinKind::ALL {
            let pat = kind.instantiate(5, 5);
            assert!(!pat.name().is_empty(), "{kind:?} has a name");
            assert!(pat.vertex_count() > 0);
        }
    }

    #[test]
    fn trait_objects_forward() {
        let pat: Box<dyn DagPattern> = BuiltinKind::Grid2.instantiate(3, 4);
        assert_eq!(pat.height(), 3);
        assert_eq!(pat.width(), 4);
        assert!(pat.contains(2, 3));
        assert!(!pat.contains(3, 0));
        let arc: std::sync::Arc<dyn DagPattern> = std::sync::Arc::from(pat);
        assert_eq!(arc.vertex_count(), 12);
        assert_eq!(arc.indegree(0, 0), 0);
    }
}

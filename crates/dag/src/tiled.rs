//! Tiled (blocked) DAG patterns.
//!
//! Per-vertex scheduling costs the framework a constant per cell
//! (quantified by Fig. 12 and the `micro` benches); the classic remedy —
//! used by EasyPDP's block DAGs and by hand-tuned wavefront codes — is
//! to group a `t × t` block of cells into one macro-vertex. [`TiledDag`]
//! derives the tile-level DAG from *any* underlying [`DagPattern`]
//! automatically, so every pattern in the library (and any custom one)
//! can be run blocked without re-deriving its dependency structure. The
//! matching application adapter lives in `dpx10_core::tiled`.
//!
//! Construction scans the cells' `dependencies` once and keeps what it
//! learns in a table: each tile's dependency and anti-dependency lists
//! (flat CSR, anti lists by transposition), which tiles exist, and which
//! fixed in-tile sweep ([`TileSweep`]) every in-tile edge respects.
//! Every tile-level query afterwards is a lookup. The scan splits the
//! tile rows into one contiguous band per core, scans the bands on
//! scoped threads and stitches them in order, so the table is the same
//! for any band count. The table holds one id per tile-level edge:
//! O(tiles) for the wavefront family, but O(T³) for a `T × T` tiling of
//! a 2D/1D pattern such as `FullPrevRowCol`, whose tiles each depend on
//! a whole tile row and column.
//!
//! A pattern that declares a [`DagPattern::stencil`] is scanned from
//! its tile borders: a cell whose offsets all stay in its tile
//! ([`TiledDag::interior`]) cannot add a tile-level edge, so only the
//! cells within the stencil's reach of a border are asked for their
//! `dependencies`. Interior cells are visited only until the tile is
//! known to exist and no offset can still rule out a sweep; the table
//! equals the one a per-cell scan builds.

use std::fmt;
use std::ops::Range;

use crate::{DagPattern, VertexId};

/// Rectangular blocking of this pattern at the given tile size induces
/// a cycle between tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TilingCycle {
    /// The offending tile size.
    pub tile: u32,
}

impl fmt::Display for TilingCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rectangular {0}x{0} tiling induces a cycle between tiles",
            self.tile
        )
    }
}

impl std::error::Error for TilingCycle {}

/// A fixed lexicographic order over a tile's cells — columns always
/// ascending within a row — that every in-tile edge of a pattern
/// respects, so the tile can be computed by two nested loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileSweep {
    /// Rows ascending: the wavefront family, whose edges point up and
    /// to the left.
    RowsUpColsUp,
    /// Rows descending: interval patterns, whose edges point down and
    /// to the left.
    RowsDownColsUp,
}

impl TileSweep {
    /// Whether this sweep visits `dep` strictly before `cell`.
    #[inline]
    pub fn respects(self, dep: VertexId, cell: VertexId) -> bool {
        let earlier_row = match self {
            TileSweep::RowsUpColsUp => dep.i < cell.i,
            TileSweep::RowsDownColsUp => dep.i > cell.i,
        };
        // `|`, `&`: the scan asks this of every in-tile edge, twice.
        earlier_row | ((dep.i == cell.i) & (dep.j < cell.j))
    }
}

/// Per-tile id lists in one flat buffer: row `k` is
/// `ids[offsets[k]..offsets[k + 1]]`.
#[derive(Clone, Debug, Default, PartialEq)]
struct Csr {
    offsets: Vec<usize>,
    ids: Vec<VertexId>,
}

impl Csr {
    fn row(&self, k: usize) -> &[VertexId] {
        &self.ids[self.offsets[k]..self.offsets[k + 1]]
    }
}

/// What the construction scan learnt, indexed by row-major tile number.
#[derive(Clone, Debug, Default, PartialEq)]
struct TileTable {
    /// Whether the tile covers at least one cell of the pattern.
    exists: Vec<bool>,
    /// Number of existing tiles.
    count: u64,
    /// Tile-level dependencies, each list in ascending id order (the
    /// simulator's virtual clock depends on that order).
    deps: Csr,
    /// Tile-level anti-dependencies, ascending likewise.
    antis: Csr,
    /// The in-tile sweep every in-tile edge respects, if one does.
    sweep: Option<TileSweep>,
}

/// How far a stencil's offsets reach from their cell: rows up and
/// down, columns left and right.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reach {
    /// Rows above the cell.
    pub up: u32,
    /// Rows below the cell.
    pub down: u32,
    /// Columns left of the cell.
    pub left: u32,
    /// Columns right of the cell.
    pub right: u32,
}

impl Reach {
    /// The reach of `stencil`'s offsets.
    pub fn of(stencil: &[(i32, i32)]) -> Reach {
        let mut r = Reach::default();
        for &(di, dj) in stencil {
            r.up = r.up.max(di.min(0).unsigned_abs());
            r.down = r.down.max(di.max(0).unsigned_abs());
            r.left = r.left.max(dj.min(0).unsigned_abs());
            r.right = r.right.max(dj.max(0).unsigned_abs());
        }
        r
    }

    /// The reach of the negated offsets: where a stencil's
    /// anti-dependencies lie.
    pub fn mirrored(self) -> Reach {
        Reach {
            up: self.down,
            down: self.up,
            left: self.right,
            right: self.left,
        }
    }

    /// The cells of the rectangle `rows × cols` from which every offset
    /// lands inside it, as `(rows, cols)`; a side no longer than its
    /// reach comes back empty.
    pub fn inset(self, (rows, cols): (Range<u32>, Range<u32>)) -> (Range<u32>, Range<u32>) {
        let inset = |span: Range<u32>, low: u32, high: u32| {
            let start = span.start.saturating_add(low).min(span.end);
            start..span.end.saturating_sub(high).max(start)
        };
        (
            inset(rows, self.up, self.down),
            inset(cols, self.left, self.right),
        )
    }
}

/// The order in which `cell`'s `anti_dependencies` list the offsets of
/// `pattern`'s [`DagPattern::stencil`], as indices into it: `Some` when
/// the pattern declares a stencil and the list holds one dependent per
/// offset, `None` otherwise (no stencil, or a cell by an edge or a hole
/// whose list is short). The stencil contract makes every `Some` the
/// same order: [`crate::validate_pattern`] checks it, and the
/// per-vertex engines learn the order from one cell.
pub fn stencil_anti_order<P: DagPattern + ?Sized>(
    pattern: &P,
    cell: VertexId,
) -> Option<Vec<usize>> {
    let stencil = pattern.stencil()?;
    let mut anti = Vec::with_capacity(stencil.len());
    pattern.anti_dependencies(cell.i, cell.j, &mut anti);
    if anti.len() != stencil.len() {
        return None;
    }
    let offset = |t: &VertexId| stencil.iter().position(|&o| t.shifted(o) == Some(cell));
    anti.iter().map(offset).collect()
}

/// What one band of tile rows contributes to the [`TileTable`]: its
/// tiles' `exists` flags and dependency lists (offsets from the band's
/// first tile), and whether every in-tile edge it saw respects each
/// sweep.
struct Band {
    exists: Vec<bool>,
    deps: Csr,
    rows_up: bool,
    rows_down: bool,
}

/// A tile-level view of an underlying pattern: tile `(I, J)` covers the
/// cells `i ∈ [I·t, min((I+1)·t, h))`, `j ∈ [J·t, min((J+1)·t, w))`, and
/// exists iff it covers at least one cell of the underlying pattern.
///
/// Tile `(A, B)` is a dependency of tile `(I, J)` iff some covered cell
/// of `(I, J)` depends on some covered cell of `(A, B)` — learnt by one
/// scan of the covered cells' `dependencies` at construction, so the
/// derived pattern inherits the underlying contract (validated in tests
/// for the whole library).
///
/// Not every pattern tiles: if cells of two tiles depend on each other
/// (e.g. the [`crate::builtin::Pyramid`] stencil, whose `(i-1, j-1)`
/// and `(i-1, j+1)` edges point into *both* horizontal neighbours),
/// rectangular blocking creates a tile-level cycle. [`TiledDag::try_new`]
/// detects this and refuses; such patterns need skewed tiles, which is
/// out of scope here.
#[derive(Clone, Debug)]
pub struct TiledDag<P> {
    inner: P,
    tile: u32,
    tiles_high: u32,
    tiles_wide: u32,
    /// The reach of the inner pattern's stencil, if it declares one.
    reach: Option<Reach>,
    table: TileTable,
}

impl<P: DagPattern> TiledDag<P> {
    /// Wraps `inner` with `tile × tile` blocking.
    ///
    /// # Panics
    ///
    /// Panics if the blocking induces a tile-level cycle; use
    /// [`TiledDag::try_new`] to handle that case.
    pub fn new(inner: P, tile: u32) -> Self {
        TiledDag::try_new(inner, tile).expect("pattern admits rectangular tiling")
    }

    /// Wraps `inner` with `tile × tile` blocking, or reports that the
    /// blocking would be cyclic. The scan runs on every core the host
    /// offers.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is zero or a dependency of `inner` lies outside
    /// its `height × width` rectangle (a containment violation).
    pub fn try_new(inner: P, tile: u32) -> Result<Self, TilingCycle> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        TiledDag::scanned(inner, tile, cores)
    }

    /// [`TiledDag::try_new`] with the scan split into `bands` bands.
    fn scanned(inner: P, tile: u32, bands: usize) -> Result<Self, TilingCycle> {
        assert!(tile > 0, "tile size must be positive");
        let mut tiled = TiledDag {
            tiles_high: inner.height().div_ceil(tile),
            tiles_wide: inner.width().div_ceil(tile),
            reach: inner.stencil().map(Reach::of),
            inner,
            tile,
            table: TileTable::default(),
        };
        tiled.table = tiled.scan(bands);
        if tiled.has_tile_cycle() {
            return Err(TilingCycle { tile });
        }
        Ok(tiled)
    }

    /// Tile edge length.
    pub fn tile(&self) -> u32 {
        self.tile
    }

    /// The wrapped pattern.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The tile owning cell `(i, j)`.
    #[inline]
    pub fn tile_of(&self, i: u32, j: u32) -> VertexId {
        VertexId::new(i / self.tile, j / self.tile)
    }

    /// The tile owning cell `(i, j)` and the cell's offset in that
    /// tile's dense row-major value buffer. `(i, j)` must lie inside
    /// the underlying `height × width` rectangle.
    #[inline]
    pub fn cell_index(&self, i: u32, j: u32) -> (VertexId, usize) {
        debug_assert!(i < self.inner.height() && j < self.inner.width());
        let t = self.tile_of(i, j);
        let (i0, j0) = (t.i * self.tile, t.j * self.tile);
        let width = self.tile.min(self.inner.width() - j0);
        (t, (i - i0) as usize * width as usize + (j - j0) as usize)
    }

    /// The cell ranges covered by tile `(ti, tj)`:
    /// `(i0..i1, j0..j1)` clipped to the underlying matrix.
    pub fn cell_bounds(&self, ti: u32, tj: u32) -> (Range<u32>, Range<u32>) {
        let i0 = ti * self.tile;
        let j0 = tj * self.tile;
        (
            i0..(i0 + self.tile).min(self.inner.height()),
            j0..(j0 + self.tile).min(self.inner.width()),
        )
    }

    /// The cells of tile `(ti, tj)` from which every offset of the
    /// inner pattern's stencil lands inside the tile, as
    /// `(rows, cols)`; both empty if the pattern declares no stencil.
    pub fn interior(&self, ti: u32, tj: u32) -> (Range<u32>, Range<u32>) {
        let (ri, rj) = self.cell_bounds(ti, tj);
        match self.reach {
            Some(r) => r.inset((ri, rj)),
            None => (ri.start..ri.start, rj.start..rj.start),
        }
    }

    /// Iterates the in-pattern cells covered by tile `(ti, tj)` in
    /// row-major order.
    pub fn cells_of(&self, ti: u32, tj: u32) -> impl Iterator<Item = VertexId> + '_ {
        let (ri, rj) = self.cell_bounds(ti, tj);
        ri.flat_map(move |i| {
            rj.clone()
                .filter(move |&j| self.inner.contains(i, j))
                .map(move |j| VertexId::new(i, j))
        })
    }

    /// The fixed in-tile order that every in-tile edge of the wrapped
    /// pattern respects at this tile size, or `None` if its in-tile
    /// edges point in mixed directions. Observed from the pattern's own
    /// `dependencies` answers during construction.
    pub fn sweep(&self) -> Option<TileSweep> {
        self.table.sweep
    }

    /// Row-major number of tile `(ti, tj)`, if it is inside the grid.
    #[inline]
    fn tile_number(&self, ti: u32, tj: u32) -> Option<usize> {
        (ti < self.tiles_high && tj < self.tiles_wide).then(|| self.listed(VertexId::new(ti, tj)))
    }

    /// Row-major number of a tile known to be inside the grid.
    #[inline]
    fn listed(&self, t: VertexId) -> usize {
        t.i as usize * self.tiles_wide as usize + t.j as usize
    }

    /// The one pass over the inner pattern's `dependencies`, split into
    /// `bands` contiguous bands of tile rows that are scanned side by
    /// side and stitched in order, so the table does not depend on
    /// `bands`. The transposition and the cycle check stay serial.
    fn scan(&self, bands: usize) -> TileTable {
        let tiles = self.tiles_high as usize * self.tiles_wide as usize;
        let high = self.tiles_high as usize;
        let bands = bands.clamp(1, high.max(1));
        let rows = |b: usize| (b * high / bands) as u32..((b + 1) * high / bands) as u32;
        let parts: Vec<Band> = if bands == 1 {
            vec![self.scan_band(rows(0))]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..bands)
                    .map(|b| {
                        let rows = rows(b);
                        s.spawn(move || self.scan_band(rows))
                    })
                    .collect();
                // A band that panicked re-raises its own payload, so a
                // containment violation keeps its message.
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        let mut parts = parts.into_iter();
        let mut whole = parts.next().expect("at least one band");
        for band in parts {
            let base = whole.deps.ids.len();
            whole.exists.extend(band.exists);
            let offsets = band.deps.offsets[1..].iter().map(|o| o + base);
            whole.deps.offsets.extend(offsets);
            whole.deps.ids.extend(band.deps.ids);
            whole.rows_up &= band.rows_up;
            whole.rows_down &= band.rows_down;
        }
        let Band {
            exists,
            deps,
            rows_up,
            rows_down,
        } = whole;

        // Anti lists by transposition. Consumers are visited in
        // ascending order, so every anti list comes out ascending too.
        let mut offsets = vec![0usize; tiles + 1];
        for &d in &deps.ids {
            offsets[self.listed(d) + 1] += 1;
        }
        for k in 0..tiles {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets.clone();
        let mut ids = vec![VertexId::new(0, 0); deps.ids.len()];
        for ti in 0..self.tiles_high {
            for tj in 0..self.tiles_wide {
                let consumer = VertexId::new(ti, tj);
                for &d in deps.row(self.listed(consumer)) {
                    let slot = &mut next[self.listed(d)];
                    ids[*slot] = consumer;
                    *slot += 1;
                }
            }
        }

        TileTable {
            count: exists.iter().filter(|&&e| e).count() as u64,
            exists,
            deps,
            antis: Csr { offsets, ids },
            sweep: if rows_up {
                Some(TileSweep::RowsUpColsUp)
            } else if rows_down {
                Some(TileSweep::RowsDownColsUp)
            } else {
                None
            },
        }
    }

    /// Scans the tiles of tile rows `rows`, numbering them from zero,
    /// asking only border cells for `dependencies` (see the module docs).
    fn scan_band(&self, rows: Range<u32>) -> Band {
        let tiles = rows.len() * self.tiles_wide as usize;
        let mut exists = Vec::with_capacity(tiles);
        let mut deps = Csr {
            offsets: Vec::with_capacity(tiles + 1),
            ids: Vec::new(),
        };
        deps.offsets.push(0);
        // `seen[t] == k` once tile `t` (row-major over the whole grid)
        // is on tile `k`'s list.
        let mut seen = vec![usize::MAX; self.tiles_high as usize * self.tiles_wide as usize];
        let (mut rows_up, mut rows_down) = (true, true);
        let stencil = self.inner.stencil().unwrap_or_default();
        // Set once no stencil offset can rule out a sweep still open.
        let mut settled = false;
        let mut buf = Vec::new();
        for ti in rows {
            for tj in 0..self.tiles_wide {
                let k = exists.len();
                let (ri, rj) = self.cell_bounds(ti, tj);
                let (ii, ij) = self.interior(ti, tj);
                let (height, width) = (ri.end - ri.start, rj.end - rj.start);
                let mut covered = false;
                for i in ri.clone() {
                    let inside = if ii.contains(&i) {
                        ij.clone()
                    } else {
                        rj.end..rj.end
                    };
                    for j in inside.clone() {
                        if covered & settled {
                            break;
                        }
                        if !self.inner.contains(i, j) {
                            continue;
                        }
                        covered = true;
                        // The in-tile edges this cell has, from its offsets.
                        let cell = VertexId::new(i, j);
                        let mut open = false;
                        for &o in stencil {
                            let d = cell
                                .shifted(o)
                                .expect("an interior offset stays in its tile");
                            let up = TileSweep::RowsUpColsUp.respects(d, cell);
                            let down = TileSweep::RowsDownColsUp.respects(d, cell);
                            if self.inner.contains(d.i, d.j) {
                                rows_up &= up;
                                rows_down &= down;
                            } else {
                                open |= (rows_up & !up) | (rows_down & !down);
                            }
                        }
                        settled = !open;
                    }
                    for j in (rj.start..inside.start).chain(inside.end..rj.end) {
                        if !self.inner.contains(i, j) {
                            continue;
                        }
                        covered = true;
                        let cell = VertexId::new(i, j);
                        buf.clear();
                        self.inner.dependencies(i, j, &mut buf);
                        for &d in &buf {
                            let in_rows = d.i.wrapping_sub(ri.start) < height;
                            let in_cols = d.j.wrapping_sub(rj.start) < width;
                            if in_rows & in_cols {
                                rows_up &= TileSweep::RowsUpColsUp.respects(d, cell);
                                rows_down &= TileSweep::RowsDownColsUp.respects(d, cell);
                                continue;
                            }
                            // Divide only along the axis that left the tile.
                            let home = VertexId::new(
                                if in_rows { ti } else { d.i / self.tile },
                                if in_cols { tj } else { d.j / self.tile },
                            );
                            assert!(
                                home.i < self.tiles_high && home.j < self.tiles_wide,
                                "dependency {d} of {cell} lies outside the pattern"
                            );
                            let t = self.listed(home);
                            if seen[t] != k {
                                seen[t] = k;
                                deps.ids.push(home);
                            }
                        }
                    }
                }
                exists.push(covered);
                deps.ids[deps.offsets[k]..].sort_unstable();
                deps.offsets.push(deps.ids.len());
            }
        }
        Band {
            exists,
            deps,
            rows_up,
            rows_down,
        }
    }

    /// Kahn's algorithm over the table: a tile that never becomes ready
    /// sits on (or behind) a tile-level cycle.
    fn has_tile_cycle(&self) -> bool {
        let table = &self.table;
        let mut indegree: Vec<usize> = (0..table.exists.len())
            .map(|k| table.deps.row(k).len())
            .collect();
        let mut ready: Vec<usize> = (0..indegree.len())
            .filter(|&k| table.exists[k] && indegree[k] == 0)
            .collect();
        let mut ordered = 0u64;
        while let Some(k) = ready.pop() {
            ordered += 1;
            for &a in table.antis.row(k) {
                let a = self.listed(a);
                indegree[a] -= 1;
                if indegree[a] == 0 {
                    ready.push(a);
                }
            }
        }
        ordered != table.count
    }
}

impl<P: DagPattern> DagPattern for TiledDag<P> {
    fn height(&self) -> u32 {
        self.tiles_high
    }

    fn width(&self) -> u32 {
        self.tiles_wide
    }

    fn contains(&self, ti: u32, tj: u32) -> bool {
        self.tile_number(ti, tj)
            .is_some_and(|k| self.table.exists[k])
    }

    fn dependencies(&self, ti: u32, tj: u32, out: &mut Vec<VertexId>) {
        if let Some(k) = self.tile_number(ti, tj) {
            out.extend_from_slice(self.table.deps.row(k));
        }
    }

    fn anti_dependencies(&self, ti: u32, tj: u32, out: &mut Vec<VertexId>) {
        if let Some(k) = self.tile_number(ti, tj) {
            out.extend_from_slice(self.table.antis.row(k));
        }
    }

    fn indegree(&self, ti: u32, tj: u32) -> u32 {
        self.tile_number(ti, tj)
            .map_or(0, |k| self.table.deps.row(k).len() as u32)
    }

    fn vertex_count(&self) -> u64 {
        self.table.count
    }

    fn name(&self) -> &str {
        "tiled"
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::builtin::{Grid3, IntervalUpper};
    use crate::{
        validate_pattern, BandedGrid3, BuiltinKind, CustomDag, GapDag, IntervalSplits, KnapsackDag,
        RangedDag,
    };

    /// The neighbour tiles of `(ti, tj)` as a fresh scan of the inner
    /// pattern's `query` derives them: distinct, ascending.
    fn scanned<P: DagPattern>(
        p: &TiledDag<P>,
        ti: u32,
        tj: u32,
        query: impl Fn(&P, u32, u32, &mut Vec<VertexId>),
    ) -> Vec<VertexId> {
        let mut set = BTreeSet::new();
        let mut buf = Vec::new();
        for cell in p.cells_of(ti, tj) {
            buf.clear();
            query(p.inner(), cell.i, cell.j, &mut buf);
            set.extend(buf.iter().map(|d| p.tile_of(d.i, d.j)));
        }
        set.remove(&VertexId::new(ti, tj));
        set.into_iter().collect()
    }

    /// The memoised table answers every tile-level query exactly as a
    /// fresh scan of `dependencies` / `anti_dependencies` would, element
    /// for element — in particular the transposed anti lists equal what
    /// the inner pattern's own `anti_dependencies` says.
    fn assert_table_matches_scan<P: DagPattern>(p: &TiledDag<P>, what: &str) {
        let (mut deps, mut antis) = (Vec::new(), Vec::new());
        let mut count = 0;
        for ti in 0..p.height() {
            for tj in 0..p.width() {
                let exists = p.cells_of(ti, tj).next().is_some();
                assert_eq!(p.contains(ti, tj), exists, "{what}: contains({ti}, {tj})");
                count += exists as u64;
                deps.clear();
                antis.clear();
                p.dependencies(ti, tj, &mut deps);
                p.anti_dependencies(ti, tj, &mut antis);
                let want = scanned(p, ti, tj, P::dependencies);
                assert_eq!(deps, want, "{what}: dependencies({ti}, {tj})");
                assert_eq!(p.indegree(ti, tj) as usize, want.len(), "{what}: indegree");
                let want = scanned(p, ti, tj, P::anti_dependencies);
                assert_eq!(antis, want, "{what}: anti_dependencies({ti}, {tj})");
            }
        }
        assert_eq!(p.vertex_count(), count, "{what}: vertex_count");
        assert!(!p.contains(p.height(), 0) && !p.contains(0, p.width()));
        validate_pattern(p).unwrap_or_else(|e| panic!("{what}: {e}"));

        // However many bands scan it, the table is the one-band table.
        let one = p.scan(1);
        assert_eq!(p.table, one, "{what}: the host's bands");
        for bands in band_counts(p) {
            let banded = p.scan(bands);
            let what = format!("{what}, {bands} bands");
            assert_eq!(banded.exists, one.exists, "{what}: exists");
            assert_eq!(banded.deps, one.deps, "{what}: deps");
            assert_eq!(banded.antis, one.antis, "{what}: antis");
            assert_eq!(banded.sweep, one.sweep, "{what}: sweep");
            assert_eq!(banded.count, one.count, "{what}: vertex_count");
        }
    }

    /// The band counts every table is checked at: one band, a few, and
    /// more bands than tile rows.
    fn band_counts<P>(p: &TiledDag<P>) -> [usize; 5] {
        [1, 2, 3, 7, p.tiles_high as usize + 1]
    }

    /// Even rows depend on their left neighbour, odd rows on their
    /// right, every row on the one above: no fixed lexicographic sweep
    /// fits a tile that holds two rows.
    fn zigzag(height: u32, width: u32) -> CustomDag {
        zigzag_from(height, width, 0)
    }

    /// [`zigzag`] from row `first` on; the rows above it all depend on
    /// their left neighbour.
    fn zigzag_from(height: u32, width: u32, first: u32) -> CustomDag {
        let right = move |i: u32| i >= first && i % 2 == 1;
        CustomDag::new(height, width)
            .with_dependencies(move |i, j, out| {
                if i > 0 {
                    out.push(VertexId::new(i - 1, j));
                }
                if !right(i) && j > 0 {
                    out.push(VertexId::new(i, j - 1));
                }
                if right(i) && j + 1 < width {
                    out.push(VertexId::new(i, j + 1));
                }
            })
            .with_anti_dependencies(move |i, j, out, (h, w)| {
                if i + 1 < h {
                    out.push(VertexId::new(i + 1, j));
                }
                if !right(i) && j + 1 < w {
                    out.push(VertexId::new(i, j + 1));
                }
                if right(i) && j > 0 {
                    out.push(VertexId::new(i, j - 1));
                }
            })
    }

    #[test]
    fn tiled_builtins_validate() {
        for kind in BuiltinKind::ALL {
            for tile in [1u32, 2, 3, 5, 11, 64] {
                match TiledDag::try_new(kind.instantiate(11, 9), tile) {
                    Ok(p) => assert_table_matches_scan(&p, &format!("{kind:?} tile {tile}")),
                    Err(_) => {
                        assert!(
                            kind == BuiltinKind::Pyramid && (2..11).contains(&tile),
                            "only the pyramid stencil refuses tiling, not {kind:?} at {tile}"
                        );
                        for bands in [1, 2, 3, 7, 11usize.div_ceil(tile as usize) + 1] {
                            let banded = TiledDag::scanned(kind.instantiate(11, 9), tile, bands);
                            assert!(banded.is_err(), "{kind:?} tile {tile}, {bands} bands");
                        }
                    }
                }
            }
        }
    }

    /// A pattern with its stencil hidden, so its table comes from the
    /// per-cell scan.
    struct Unstenciled<P>(P);

    impl<P: DagPattern> DagPattern for Unstenciled<P> {
        fn height(&self) -> u32 {
            self.0.height()
        }
        fn width(&self) -> u32 {
            self.0.width()
        }
        fn contains(&self, i: u32, j: u32) -> bool {
            self.0.contains(i, j)
        }
        fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
            self.0.dependencies(i, j, out)
        }
        fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
            self.0.anti_dependencies(i, j, out)
        }
        fn vertex_count(&self) -> u64 {
            self.0.vertex_count()
        }
    }

    /// The table built from `p`'s tile borders equals the one a
    /// per-cell scan of it builds, at every band count; whether the
    /// tiling is refused must agree too.
    fn assert_border_table_is_the_full_table(p: &dyn DagPattern, tile: u32, what: &str) {
        let border = TiledDag::try_new(p, tile);
        let full = TiledDag::try_new(Unstenciled(p), tile);
        let (border, full) = match (border, full) {
            (Ok(border), Ok(full)) => (border, full),
            (Err(_), Err(_)) => {
                assert!(
                    what.starts_with("Pyramid") && (2..11).contains(&tile),
                    "{what}: refused"
                );
                return;
            }
            _ => panic!("{what}: only one scan refused the tiling"),
        };
        for bands in band_counts(&border) {
            let (b, f) = (border.scan(bands), full.scan(bands));
            let what = format!("{what}, {bands} bands");
            assert_eq!(b.exists, f.exists, "{what}: exists");
            assert_eq!(b.deps, f.deps, "{what}: deps");
            assert_eq!(b.antis, f.antis, "{what}: antis");
            assert_eq!(b.count, f.count, "{what}: vertex_count");
            assert_eq!(b.sweep, f.sweep, "{what}: sweep");
        }
    }

    #[test]
    fn a_border_built_table_equals_the_per_cell_scan() {
        let mut patterns: Vec<(String, Box<dyn DagPattern>)> = BuiltinKind::ALL
            .into_iter()
            .map(|kind| (format!("{kind:?}"), kind.instantiate(11, 9)))
            .filter(|(_, p)| p.stencil().is_some())
            .collect();
        assert_eq!(patterns.len(), 7, "every builtin but FullPrevRowCol");
        patterns.push(("BandedGrid3".into(), Box::new(BandedGrid3::new(13, 3))));
        for (name, p) in &patterns {
            for tile in [1u32, 2, 3, 5, 11, 64] {
                assert_border_table_is_the_full_table(
                    p.as_ref(),
                    tile,
                    &format!("{name} tile {tile}"),
                );
            }
        }
        // Tiny triangles, where only an interior cell may have the
        // in-tile edge that rules out the rows-up sweep: at n = 2 and
        // tile 2, (0, 1) reading (1, 1).
        for n in 1..=6 {
            for tile in 1..=7 {
                let what = format!("IntervalUpper({n}) tile {tile}");
                assert_border_table_is_the_full_table(&IntervalUpper::new(n), tile, &what);
            }
        }
    }

    #[test]
    fn interior_is_the_tile_minus_the_stencils_reach() {
        // Grid3 reaches one row up and one column left.
        let p = TiledDag::new(Grid3::new(10, 7), 4);
        assert_eq!(p.interior(0, 0), (1..4, 1..4));
        assert_eq!(p.interior(2, 1), (9..10, 5..7), "clipped tile");
        // IntervalUpper reaches one row down and one column left.
        let p = TiledDag::new(IntervalUpper::new(10), 4);
        assert_eq!(p.interior(0, 1), (0..3, 5..8));
        // A tile thinner than the reach has no interior, and a pattern
        // without a stencil never has one.
        assert!(TiledDag::new(Grid3::new(10, 7), 1)
            .interior(3, 3)
            .0
            .is_empty());
        let splits = TiledDag::new(IntervalSplits::new(10), 4);
        let (rows, cols) = splits.interior(0, 1);
        assert!(rows.is_empty() && cols.is_empty());
    }

    #[test]
    fn a_mixed_edge_one_band_sees_rules_out_every_sweep() {
        // Only the last of three tile rows holds a right-pointing row.
        for bands in [1, 2, 3, 4] {
            let p = TiledDag::scanned(zigzag_from(12, 4, 8), 4, bands).unwrap();
            assert_eq!(p.sweep(), None, "{bands} bands");
        }
        assert_table_matches_scan(&TiledDag::new(zigzag_from(12, 4, 8), 4), "late zigzag");
    }

    #[test]
    #[should_panic(expected = "lies outside the pattern")]
    fn a_banded_scan_keeps_the_containment_panic() {
        // Cell (4, 0), in the middle one of three bands, reads a row far
        // below the rectangle.
        let leaky = CustomDag::new(9, 4).with_dependencies(|i, j, out| {
            if (i, j) == (4, 0) {
                out.push(VertexId::new(40, 0));
            }
        });
        let _ = TiledDag::scanned(leaky, 3, 3);
    }

    #[test]
    fn table_matches_scan_beyond_the_builtins() {
        for tile in [1u32, 2, 3, 5, 16] {
            let what = |name: &str| format!("{name} tile {tile}");
            let knapsack = KnapsackDag::new(vec![2, 5, 3, 1], 11);
            assert_table_matches_scan(&TiledDag::new(knapsack, tile), &what("knapsack"));
            let splits = IntervalSplits::new(10);
            assert_table_matches_scan(&TiledDag::new(splits, tile), &what("splits"));
            let banded = BandedGrid3::new(13, 3);
            assert_table_matches_scan(&TiledDag::new(banded, tile), &what("banded"));
            let gap = RangedDag::new(GapDag::new(9, 7));
            assert_table_matches_scan(&TiledDag::new(gap, tile), &what("gap"));
        }
        // One tile column: the zig-zag rows never cross a tile boundary.
        assert_table_matches_scan(&TiledDag::new(zigzag(9, 4), 4), "zigzag");
    }

    #[test]
    fn sweep_is_read_off_the_in_tile_edges() {
        use TileSweep::{RowsDownColsUp, RowsUpColsUp};
        for kind in BuiltinKind::ALL {
            for tile in [1u32, 2, 3, 5, 16] {
                let Ok(p) = TiledDag::try_new(kind.instantiate(11, 11), tile) else {
                    continue;
                };
                // A 1x1 tile has no in-tile edge, so the first sweep fits.
                let want = match kind {
                    BuiltinKind::IntervalUpper if tile > 1 => RowsDownColsUp,
                    _ => RowsUpColsUp,
                };
                assert_eq!(p.sweep(), Some(want), "{kind:?} tile {tile}");
            }
        }
        let sweep_of = |p: &dyn DagPattern| TiledDag::new(p, 4).sweep();
        assert_eq!(
            sweep_of(&KnapsackDag::new(vec![2, 5, 3], 11)),
            Some(RowsUpColsUp)
        );
        assert_eq!(sweep_of(&BandedGrid3::new(13, 3)), Some(RowsUpColsUp));
        assert_eq!(
            sweep_of(&RangedDag::new(GapDag::new(9, 7))),
            Some(RowsUpColsUp)
        );
        assert_eq!(sweep_of(&IntervalSplits::new(10)), Some(RowsDownColsUp));
        assert_eq!(sweep_of(&zigzag(9, 4)), None);
        assert_eq!(TiledDag::new(zigzag(9, 4), 1).sweep(), Some(RowsUpColsUp));
    }

    #[test]
    fn zigzag_wider_than_its_tile_is_a_tile_cycle() {
        // Rows 0 and 1 of one tile pull from its right *and* left
        // neighbours; the table's cycle check must see it.
        let refused = TiledDag::try_new(zigzag(4, 8), 2).err();
        assert_eq!(refused, Some(TilingCycle { tile: 2 }));
    }

    #[test]
    fn cell_index_is_the_dense_row_major_offset() {
        let p = TiledDag::new(Grid3::new(10, 7), 4);
        for i in 0..10 {
            for j in 0..7 {
                let (t, idx) = p.cell_index(i, j);
                assert_eq!(t, p.tile_of(i, j));
                let (ri, rj) = p.cell_bounds(t.i, t.j);
                let width = (rj.end - rj.start) as usize;
                assert_eq!(
                    idx,
                    (i - ri.start) as usize * width + (j - rj.start) as usize
                );
            }
        }
        // Clipped last column: width 3, so row 1 starts at offset 3.
        assert_eq!(p.cell_index(9, 4), (VertexId::new(2, 1), 3));
    }

    #[test]
    fn pyramid_tiling_rejected_with_clear_error() {
        use crate::builtin::Pyramid;
        let err = TiledDag::try_new(Pyramid::new(8, 8), 2).unwrap_err();
        assert_eq!(err.tile, 2);
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn tiled_knapsack_validates() {
        let p = TiledDag::new(KnapsackDag::new(vec![2, 5, 3], 11), 4);
        validate_pattern(&p).unwrap();
    }

    #[test]
    fn tile_of_and_bounds() {
        let p = TiledDag::new(Grid3::new(10, 10), 4);
        assert_eq!(p.height(), 3);
        assert_eq!(p.width(), 3);
        assert_eq!(p.tile_of(0, 0), VertexId::new(0, 0));
        assert_eq!(p.tile_of(9, 4), VertexId::new(2, 1));
        let (ri, rj) = p.cell_bounds(2, 2);
        assert_eq!((ri.start, ri.end), (8, 10));
        assert_eq!((rj.start, rj.end), (8, 10));
    }

    #[test]
    fn grid3_tiles_have_grid3_structure() {
        // Tiling a grid wavefront yields a coarser grid wavefront.
        let p = TiledDag::new(Grid3::new(12, 12), 4);
        let mut deps = Vec::new();
        p.dependencies(1, 1, &mut deps);
        deps.sort();
        assert_eq!(
            deps,
            vec![
                VertexId::new(0, 0),
                VertexId::new(0, 1),
                VertexId::new(1, 0)
            ]
        );
    }

    #[test]
    fn tile_size_one_is_identity() {
        let inner = Grid3::new(5, 7);
        let p = TiledDag::new(Grid3::new(5, 7), 1);
        assert_eq!(p.vertex_count(), inner.vertex_count());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..5 {
            for j in 0..7 {
                a.clear();
                b.clear();
                p.dependencies(i, j, &mut a);
                inner.dependencies(i, j, &mut b);
                a.sort();
                b.sort();
                assert_eq!(a, b, "({i},{j})");
            }
        }
    }

    #[test]
    fn masked_pattern_tiles_skip_empty_blocks() {
        // The lower-left tiles of an interval pattern cover no cells.
        let p = TiledDag::new(IntervalUpper::new(12), 4);
        assert!(p.contains(0, 0));
        assert!(p.contains(0, 2));
        assert!(!p.contains(2, 0), "tile fully below the diagonal");
        validate_pattern(&p).unwrap();
    }

    #[test]
    fn huge_tile_collapses_to_single_vertex() {
        let p = TiledDag::new(Grid3::new(6, 6), 100);
        assert_eq!(p.vertex_count(), 1);
        let mut deps = Vec::new();
        p.dependencies(0, 0, &mut deps);
        assert!(deps.is_empty());
    }
}

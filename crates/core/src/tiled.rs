//! Tiled (blocked) execution: run any [`DpApp`] with `t × t` cells per
//! scheduled vertex.
//!
//! Pairs with [`dpx10_dag::TiledDag`]: the engine schedules *tiles*, and
//! [`TiledApp`] computes each tile's cells serially, reading boundary
//! cells out of the neighbouring tiles' values. This amortises the
//! framework's per-vertex cost over `t²` cells and turns `t` boundary
//! messages into one — the classic block-wavefront optimisation the
//! paper leaves as future work ("sophisticated scheduling and cache
//! techniques", §X).
//!
//! Dataflow stops at the tile boundary (Tang's nested-dataflow model):
//! inside a tile there are exactly two execution paths, chosen by what
//! [`TiledDag`]'s construction scan observed of the pattern. When every
//! in-tile edge respects one fixed lexicographic order
//! ([`TiledDag::sweep`] — all library patterns), the tile is two nested
//! loops over its dense row-major buffer. Otherwise (a custom pattern
//! whose in-tile edges point in mixed directions) the tile runs Kahn's
//! algorithm over a dense indegree vector.
//!
//! The sweep has two sources of dependencies. A cell of a pattern that
//! declares a [`DagPattern::stencil`], inside [`TiledDag::interior`] and
//! with every offset contained, takes its ids from the offsets and its
//! values as references into the tile buffer ([`DepView::lent`] over
//! stack arrays): no `dependencies` call, no copy. Every other cell (the
//! tile border, a masked neighbour, a pattern without a stencil) asks
//! `dependencies` and copies each dependency cell, from the tile buffer
//! or its home tile, into the `DepView` it hands the inner app.
//!
//! Within a place a tile is never copied: the computed tile moves into
//! the slab, its neighbours read it there by reference (the kernel
//! reaches them through [`DepView::at`]), and [`TiledRun::get`] copies
//! out only the cell it returns. A tile copies only when it crosses
//! places.
//!
//! ```
//! use dpx10_core::tiled::run_tiled_threaded;
//! use dpx10_core::{DepView, DpApp, EngineConfig};
//! use dpx10_dag::{builtin::Grid2, VertexId};
//!
//! struct Sum;
//! impl DpApp for Sum {
//!     type Value = u64;
//!     fn compute(&self, _id: VertexId, deps: &DepView<'_, u64>) -> u64 {
//!         deps.values().sum::<u64>() + 1
//!     }
//! }
//!
//! let run = run_tiled_threaded(Sum, Grid2::new(8, 8), 3, EngineConfig::flat(2)).unwrap();
//! assert_eq!(run.get(0, 0), 1);
//! ```

use std::ops::Range;
use std::sync::Arc;

use dpx10_apgas::Codec;
use dpx10_dag::tiled::TileSweep;
use dpx10_dag::{DagPattern, TiledDag, VertexId};

use crate::app::{DagResult, DepView, DpApp, VertexValue};
use crate::config::EngineConfig;
use crate::engine::ThreadedEngine;
use crate::error::EngineError;
use crate::state::{lend, LENT};

/// The value of one tile: its cells' results, dense and row-major over
/// the tile's clipped bounds (masked cells hold `V::default()`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TileValue<V> {
    /// Cell results in row-major tile-local order.
    pub cells: Vec<V>,
}

impl<V: Codec> Codec for TileValue<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.cells.encode(buf);
    }

    fn decode(src: &mut &[u8]) -> Option<Self> {
        Some(TileValue {
            cells: Vec::<V>::decode(src)?,
        })
    }

    fn wire_size(&self) -> usize {
        self.cells.wire_size()
    }
}

/// Adapter turning a cell-level [`DpApp`] into a tile-level one.
pub struct TiledApp<A, P> {
    inner: A,
    geometry: Arc<TiledDag<P>>,
}

/// Which of the two in-tile paths computed a tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TilePath {
    Sweep,
    Kahn,
}

impl<A: DpApp, P: DagPattern> TiledApp<A, P> {
    /// Wraps `inner` over the tile geometry.
    pub fn new(inner: A, geometry: Arc<TiledDag<P>>) -> Self {
        TiledApp { inner, geometry }
    }

    /// Computes every cell of `tile`, reporting the path taken.
    fn compute_tile(
        &self,
        tile: VertexId,
        homes: &DepView<'_, TileValue<A::Value>>,
    ) -> (TileValue<A::Value>, TilePath) {
        let geo = self.geometry.as_ref();
        let (ri, rj) = geo.cell_bounds(tile.i, tile.j);
        let (height, width) = (ri.end - ri.start, rj.end - rj.start);
        let mut kernel = TileKernel {
            app: &self.inner,
            geo,
            origin: (ri.start, rj.start),
            height,
            width,
            cells: vec![A::Value::default(); height as usize * width as usize],
            homes,
            home: 0,
            vals: Vec::new(),
        };
        let path = match geo.sweep() {
            Some(sweep) => {
                let interior = geo.interior(tile.i, tile.j);
                match sweep {
                    TileSweep::RowsUpColsUp => kernel.sweep(sweep, ri, rj, interior),
                    TileSweep::RowsDownColsUp => kernel.sweep(sweep, ri.rev(), rj, interior),
                }
                TilePath::Sweep
            }
            None => {
                kernel.kahn(ri, rj);
                TilePath::Kahn
            }
        };
        let cells = kernel.cells;
        (TileValue { cells }, path)
    }
}

/// One tile being computed: its dense output buffer plus the buffers
/// reused from cell to cell.
struct TileKernel<'a, A: DpApp, P> {
    app: &'a A,
    geo: &'a TiledDag<P>,
    /// First row and column of the tile.
    origin: (u32, u32),
    height: u32,
    width: u32,
    /// Row-major results; masked cells stay `default()`.
    cells: Vec<A::Value>,
    /// The neighbouring tiles' values, in tile-dependency order.
    homes: &'a DepView<'a, TileValue<A::Value>>,
    /// Position in `homes` of the neighbour the last out-of-tile edge
    /// read; runs of edges into one neighbour resolve it once.
    home: usize,
    vals: Vec<A::Value>,
}

impl<A: DpApp, P: DagPattern> TileKernel<'_, A, P> {
    /// Offset of `(i, j)` in `cells` if the tile covers it: two range
    /// compares against the origin, no division.
    #[inline]
    fn local(&self, id: VertexId) -> Option<usize> {
        let (di, dj) = (
            id.i.wrapping_sub(self.origin.0),
            id.j.wrapping_sub(self.origin.1),
        );
        (di < self.height && dj < self.width)
            .then(|| di as usize * self.width as usize + dj as usize)
    }

    /// Computes cell `id` from `deps`, its pattern dependencies, all of
    /// which are finished: in-tile ones in `cells`, the rest in `homes`.
    fn cell(&mut self, id: VertexId, deps: &[VertexId]) {
        self.vals.clear();
        for &d in deps {
            let value = match self.local(d) {
                Some(idx) => self.cells[idx].clone(),
                None => {
                    let (home, idx) = self.geo.cell_index(d.i, d.j);
                    if self.homes.ids().get(self.home) != Some(&home) {
                        self.home = self
                            .homes
                            .ids()
                            .iter()
                            .position(|&t| t == home)
                            .unwrap_or_else(|| panic!("tile {home} missing for cell dep {d}"));
                    }
                    self.homes.at(self.home).cells[idx].clone()
                }
            };
            self.vals.push(value);
        }
        let value = self.app.compute(id, &DepView::new(deps, &self.vals));
        let idx = self.local(id).expect("computed cell lies in its tile");
        self.cells[idx] = value;
    }

    /// Computes interior cell `id` from dependencies lent out of `cells`
    /// at `strides` from it, if the pattern contains every offset of
    /// `stencil`. Returns whether it did; if not, [`TileKernel::cell`]
    /// computes it.
    fn lend(&mut self, id: VertexId, stencil: &[(i32, i32)], strides: &[isize; LENT]) -> bool {
        let inner = self.geo.inner();
        let mut ids = [id; LENT];
        for (k, &o) in stencil.iter().enumerate() {
            match id.shifted(o) {
                Some(d) if inner.contains(d.i, d.j) => ids[k] = d,
                _ => return false,
            }
        }
        let ids = &ids[..stencil.len()];
        debug_assert!(
            {
                let mut deps = Vec::new();
                inner.dependencies(id.i, id.j, &mut deps);
                deps == ids
            },
            "the stencil of {id} is not its dependencies"
        );
        let idx = self.local(id).expect("computed cell lies in its tile");
        let refs = lend(&self.cells, idx, &strides[..ids.len()]);
        let view = DepView::lent(ids, &refs[..ids.len()]);
        self.cells[idx] = self.app.compute(id, &view);
        true
    }

    /// The static path: visit the cells in `sweep` order. A cell in
    /// `interior` is lent its dependencies when it can be; any other
    /// asks `dependencies` and copies them.
    fn sweep(
        &mut self,
        sweep: TileSweep,
        rows: impl Iterator<Item = u32>,
        cols: Range<u32>,
        (rows_in, cols_in): (Range<u32>, Range<u32>),
    ) {
        let inner = self.geo.inner();
        let stencil = inner.stencil().unwrap_or_default();
        let lends = stencil.len() <= LENT;
        let mut strides = [0isize; LENT];
        for (s, &(di, dj)) in strides.iter_mut().zip(stencil) {
            *s = di as isize * self.width as isize + dj as isize;
        }
        let mut deps = Vec::new();
        for i in rows {
            let row_in = lends && rows_in.contains(&i);
            for j in cols.clone() {
                if !inner.contains(i, j) {
                    continue;
                }
                let id = VertexId::new(i, j);
                if row_in && cols_in.contains(&j) && self.lend(id, stencil, &strides) {
                    continue;
                }
                deps.clear();
                inner.dependencies(i, j, &mut deps);
                debug_assert!(
                    deps.iter()
                        .all(|&d| self.local(d).is_none() || sweep.respects(d, id)),
                    "in-tile edge into {id} against the {sweep:?} sweep"
                );
                self.cell(id, &deps);
            }
        }
    }

    /// The fallback for patterns no fixed sweep fits: Kahn's algorithm
    /// over the tile, indegree counting only same-tile dependencies.
    fn kahn(&mut self, rows: Range<u32>, cols: Range<u32>) {
        let inner = self.geo.inner();
        // Each cell's dependencies are queried once and kept for its
        // execution: cell `k`'s are `deps[offsets[k]..offsets[k + 1]]`.
        let mut deps = Vec::new();
        let mut offsets = Vec::with_capacity(self.cells.len() + 1);
        let mut indegree = Vec::with_capacity(self.cells.len());
        let mut ready = Vec::new();
        for i in rows {
            for j in cols.clone() {
                let start = deps.len();
                offsets.push(start);
                if !inner.contains(i, j) {
                    indegree.push(0);
                    continue;
                }
                inner.dependencies(i, j, &mut deps);
                let local = deps[start..]
                    .iter()
                    .filter(|&&d| self.local(d).is_some())
                    .count();
                indegree.push(local as u32);
                if local == 0 {
                    ready.push(VertexId::new(i, j));
                }
            }
        }
        offsets.push(deps.len());

        let mut antis = Vec::new();
        while let Some(id) = ready.pop() {
            let k = self.local(id).expect("ready cell lies in its tile");
            self.cell(id, &deps[offsets[k]..offsets[k + 1]]);
            antis.clear();
            inner.anti_dependencies(id.i, id.j, &mut antis);
            for &a in &antis {
                if let Some(k) = self.local(a) {
                    indegree[k] -= 1;
                    if indegree[k] == 0 {
                        ready.push(a);
                    }
                }
            }
        }
        debug_assert!(
            indegree.iter().all(|&d| d == 0),
            "unscheduled intra-tile cells"
        );
    }
}

impl<A, P> DpApp for TiledApp<A, P>
where
    A: DpApp,
    P: DagPattern + 'static,
{
    type Value = TileValue<A::Value>;

    fn compute(
        &self,
        tile: VertexId,
        tile_deps: &DepView<'_, TileValue<A::Value>>,
    ) -> TileValue<A::Value> {
        self.compute_tile(tile, tile_deps).0
    }
}

/// A finished tiled run, with cell-level access.
pub struct TiledRun<V, P> {
    result: DagResult<TileValue<V>>,
    geometry: Arc<TiledDag<P>>,
}

impl<V: VertexValue, P: DagPattern> TiledRun<V, P> {
    /// The result of cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is not a cell of the underlying pattern.
    pub fn get(&self, i: u32, j: u32) -> V {
        self.try_get(i, j)
            .unwrap_or_else(|| panic!("cell ({i}, {j}) was not computed"))
    }

    /// The result of cell `(i, j)`, or `None` outside the pattern.
    pub fn try_get(&self, i: u32, j: u32) -> Option<V> {
        if !self.geometry.inner().contains(i, j) {
            return None;
        }
        let (t, idx) = self.geometry.cell_index(i, j);
        let tile = self.result.array().get_finished(t.i, t.j)?;
        Some(tile.cells[idx].clone())
    }

    /// The tile-level result and run report.
    pub fn tiles(&self) -> &DagResult<TileValue<V>> {
        &self.result
    }
}

/// Runs `app` over `pattern` with `tile × tile` blocking on the
/// threaded engine.
pub fn run_tiled_threaded<A, P>(
    app: A,
    pattern: P,
    tile: u32,
    config: EngineConfig,
) -> Result<TiledRun<A::Value, P>, EngineError>
where
    A: DpApp + 'static,
    P: DagPattern + Clone + 'static,
{
    let geometry = Arc::new(TiledDag::try_new(pattern, tile)?);
    let tiled_app = TiledApp::new(app, geometry.clone());
    let engine = ThreadedEngine::new(tiled_app, geometry.clone(), config);
    let result = engine.run()?;
    Ok(TiledRun { result, geometry })
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use dpx10_dag::builtin::{Grid3, IntervalUpper};
    use dpx10_dag::KnapsackDag;

    struct MixApp;

    impl DpApp for MixApp {
        type Value = u64;
        fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
            let mut acc = 0x9E37_79B9_u64.wrapping_mul(id.pack() | 1).rotate_left(7);
            for (did, v) in deps.iter() {
                acc = acc
                    .wrapping_add(v.rotate_left((did.i % 31) + 1))
                    .wrapping_mul(0x100_0000_01B3);
            }
            acc
        }
    }

    fn untiled_oracle(pattern: &dyn DagPattern) -> HashMap<VertexId, u64> {
        let order = dpx10_dag::topological_order(pattern).unwrap();
        let mut out = HashMap::new();
        let mut deps = Vec::new();
        for id in order {
            deps.clear();
            pattern.dependencies(id.i, id.j, &mut deps);
            let vals: Vec<u64> = deps.iter().map(|d| out[d]).collect();
            out.insert(id, MixApp.compute(id, &DepView::new(&deps, &vals)));
        }
        out
    }

    #[test]
    fn tiled_grid3_matches_untiled() {
        let expect = untiled_oracle(&Grid3::new(13, 11));
        for tile in [1u32, 2, 4, 7, 16] {
            let run = run_tiled_threaded(MixApp, Grid3::new(13, 11), tile, EngineConfig::flat(3))
                .unwrap();
            for (id, v) in &expect {
                assert_eq!(run.try_get(id.i, id.j), Some(*v), "tile {tile} at {id}");
            }
        }
    }

    #[test]
    fn tiled_interval_matches_untiled() {
        let expect = untiled_oracle(&IntervalUpper::new(12));
        let run =
            run_tiled_threaded(MixApp, IntervalUpper::new(12), 3, EngineConfig::flat(2)).unwrap();
        for (id, v) in &expect {
            assert_eq!(run.try_get(id.i, id.j), Some(*v), "{id}");
        }
        assert_eq!(run.try_get(11, 0), None, "lower triangle stays masked");
    }

    #[test]
    fn tiled_knapsack_matches_untiled() {
        let weights = vec![3u32, 1, 4, 2];
        let expect = untiled_oracle(&KnapsackDag::new(weights.clone(), 10));
        let run = run_tiled_threaded(
            MixApp,
            KnapsackDag::new(weights, 10),
            4,
            EngineConfig::flat(2),
        )
        .unwrap();
        for (id, v) in &expect {
            assert_eq!(run.try_get(id.i, id.j), Some(*v), "{id}");
        }
    }

    #[test]
    fn try_get_is_none_outside_the_matrix_and_the_mask() {
        let run =
            run_tiled_threaded(MixApp, IntervalUpper::new(10), 4, EngineConfig::flat(2)).unwrap();
        assert!(run.try_get(9, 9).is_some());
        assert_eq!(run.try_get(9, 8), None, "masked, in an existing tile");
        assert_eq!(
            run.try_get(9, 0),
            None,
            "masked, in a tile that does not exist"
        );
        assert_eq!(run.try_get(10, 3), None, "row out of range");
        assert_eq!(run.try_get(3, 10), None, "column out of range");
        assert_eq!(run.try_get(u32::MAX, u32::MAX), None);
    }

    /// Computes every tile through `compute_tile` in a tile-level
    /// topological order — no engine — and returns the cell values and
    /// the path each tile took.
    fn drive<P: DagPattern + 'static>(
        pattern: P,
        tile: u32,
    ) -> (HashMap<VertexId, u64>, Vec<TilePath>) {
        let geometry = Arc::new(TiledDag::new(pattern, tile));
        let app = TiledApp::new(MixApp, geometry.clone());
        let mut tiles: HashMap<VertexId, TileValue<u64>> = HashMap::new();
        let mut paths = Vec::new();
        let mut deps = Vec::new();
        for t in dpx10_dag::topological_order(geometry.as_ref()).unwrap() {
            deps.clear();
            geometry.dependencies(t.i, t.j, &mut deps);
            let vals: Vec<TileValue<u64>> = deps.iter().map(|d| tiles[d].clone()).collect();
            let (value, path) = app.compute_tile(t, &DepView::new(&deps, &vals));
            tiles.insert(t, value);
            paths.push(path);
        }
        let mut cells = HashMap::new();
        for (t, value) in &tiles {
            for cell in geometry.cells_of(t.i, t.j) {
                cells.insert(cell, value.cells[geometry.cell_index(cell.i, cell.j).1]);
            }
        }
        (cells, paths)
    }

    #[test]
    fn library_patterns_take_the_sweep_path() {
        fn check<P: DagPattern + Clone + 'static>(pattern: P, tile: u32) {
            let (cells, paths) = drive(pattern.clone(), tile);
            assert!(paths.len() > 1, "more than one tile");
            assert!(paths.iter().all(|&p| p == TilePath::Sweep), "{paths:?}");
            assert_eq!(cells, untiled_oracle(&pattern));
        }
        check(Grid3::new(13, 11), 4);
        check(IntervalUpper::new(11), 3);
        check(KnapsackDag::new(vec![3, 1, 4, 2], 10), 4);
    }

    #[test]
    fn mixed_direction_pattern_takes_the_kahn_path() {
        // Even rows depend on their left neighbour, odd rows on their
        // right: no sweep fits, and three stacked tiles read each other.
        let (height, width) = (9, 4);
        let zigzag = || {
            dpx10_dag::CustomDag::new(height, width)
                .with_dependencies(move |i, j, out| {
                    if i > 0 {
                        out.push(VertexId::new(i - 1, j));
                    }
                    if i % 2 == 0 && j > 0 {
                        out.push(VertexId::new(i, j - 1));
                    }
                    if i % 2 == 1 && j + 1 < width {
                        out.push(VertexId::new(i, j + 1));
                    }
                })
                .with_anti_dependencies(|i, j, out, (h, w)| {
                    if i + 1 < h {
                        out.push(VertexId::new(i + 1, j));
                    }
                    if i % 2 == 0 && j + 1 < w {
                        out.push(VertexId::new(i, j + 1));
                    }
                    if i % 2 == 1 && j > 0 {
                        out.push(VertexId::new(i, j - 1));
                    }
                })
        };
        let (cells, paths) = drive(zigzag(), 4);
        assert_eq!(paths, vec![TilePath::Kahn; 3]);
        assert_eq!(cells, untiled_oracle(&zigzag()));
    }

    #[test]
    fn tiling_reduces_scheduled_vertices() {
        let untiled = ThreadedEngine::new(MixApp, Grid3::new(16, 16), EngineConfig::flat(2))
            .run()
            .unwrap();
        let tiled =
            run_tiled_threaded(MixApp, Grid3::new(16, 16), 4, EngineConfig::flat(2)).unwrap();
        assert_eq!(untiled.report().vertices_total, 256);
        assert_eq!(tiled.tiles().report().vertices_total, 16);
    }

    #[test]
    fn pyramid_tiling_surfaces_error() {
        use dpx10_dag::builtin::Pyramid;
        let err = match run_tiled_threaded(MixApp, Pyramid::new(8, 8), 2, EngineConfig::flat(2)) {
            Err(e) => e,
            Ok(_) => panic!("pyramid tiling must be rejected"),
        };
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn tile_value_codec_round_trips() {
        let tv = TileValue {
            cells: vec![1u64, 2, 3],
        };
        let mut buf = Vec::new();
        tv.encode(&mut buf);
        assert_eq!(buf.len(), tv.wire_size());
        let mut src = buf.as_slice();
        assert_eq!(TileValue::<u64>::decode(&mut src), Some(tv));
    }
}

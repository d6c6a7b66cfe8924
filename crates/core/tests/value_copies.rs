//! How often a run copies a vertex value. `Counted`'s `Clone` bumps a
//! process-wide counter, so every case holds [`SERIAL`] while it counts.
//!
//! A local gather lends slab references and `publish` moves the result
//! in, so a copy is made only where a second owner needs the value: a
//! message to another place, a cache entry, the gather of a vertex that
//! reads past its own shard, and the tile kernel's reads of a cell its
//! stencil cannot lend (the tile border).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use dpx10_apgas::{Codec, PlaceId};
use dpx10_core::{run_tiled_threaded, DepView, DistKind, DpApp, EngineConfig, ThreadedEngine};
use dpx10_dag::builtin::Grid3;
use dpx10_dag::{DagPattern, TiledDag, VertexId};
use dpx10_distarray::{Dist, Region2D};

static CLONES: AtomicU64 = AtomicU64::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The value clones `f` makes.
fn clones_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    CLONES.store(0, Ordering::SeqCst);
    let out = f();
    (out, CLONES.load(Ordering::SeqCst))
}

#[derive(Debug, Default, PartialEq)]
struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

impl Codec for Counted {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn decode(src: &mut &[u8]) -> Option<Self> {
        u64::decode(src).map(Counted)
    }

    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

struct Mix;

impl DpApp for Mix {
    type Value = Counted;

    fn compute(&self, id: VertexId, deps: &DepView<'_, Counted>) -> Counted {
        let seed = 0x9E37_79B9_u64.wrapping_mul(id.pack() | 1);
        let fold = deps.iter().fold(seed, |acc, (d, v)| {
            acc.wrapping_add(v.0.rotate_left(d.j % 31 + 1))
                .wrapping_mul(0x100_0000_01B3)
        });
        Counted(fold)
    }
}

const SIDE: u32 = 48;

#[test]
fn a_one_place_run_copies_no_value() {
    let _serial = serial();
    let engine = ThreadedEngine::new(Mix, Grid3::new(SIDE, SIDE), EngineConfig::flat(1));
    let (result, clones) = clones_in(|| engine.run().unwrap());
    assert_eq!(result.report().vertices_computed, u64::from(SIDE * SIDE));
    assert_eq!(clones, 0);
}

#[test]
fn a_one_place_tiled_run_copies_only_the_kernels_reads() {
    let _serial = serial();
    let tile = 8;
    let config = EngineConfig::flat(1);
    let (run, clones) =
        clones_in(|| run_tiled_threaded(Mix, Grid3::new(SIDE, SIDE), tile, config).unwrap());
    // An interior cell is lent its dependencies out of the tile buffer;
    // a border cell copies each into its `DepView`, and each tile's
    // `vec![default; cells]` fills `cells - 1` copies.
    let geometry = TiledDag::new(Grid3::new(SIDE, SIDE), tile);
    let mut deps = Vec::new();
    let reads: u64 = (0..SIDE)
        .flat_map(|i| (0..SIDE).map(move |j| (i, j)))
        .filter(|&(i, j)| {
            let t = geometry.tile_of(i, j);
            let (rows, cols) = geometry.interior(t.i, t.j);
            !(rows.contains(&i) && cols.contains(&j))
        })
        .map(|(i, j)| {
            deps.clear();
            geometry.inner().dependencies(i, j, &mut deps);
            deps.len() as u64
        })
        .sum();
    let tiles = u64::from(SIDE / tile).pow(2);
    let fills = tiles * (u64::from(tile * tile) - 1);
    assert_eq!(run.tiles().report().vertices_computed, tiles);
    assert_eq!(
        clones,
        reads + fills,
        "{clones} clones, {reads} border reads + {fills} fills"
    );
}

#[test]
fn reading_a_tiled_cell_copies_the_cell_alone() {
    let _serial = serial();
    let run = run_tiled_threaded(Mix, Grid3::new(SIDE, SIDE), 8, EngineConfig::flat(1)).unwrap();
    let (cell, clones) = clones_in(|| run.get(20, 30));
    assert_eq!(Some(cell), run.try_get(20, 30));
    assert_eq!(clones, 1);
}

#[test]
fn a_two_place_run_copies_what_crosses_places() {
    let _serial = serial();
    let config = EngineConfig::flat(2).with_dist(DistKind::BlockCol);
    let engine = ThreadedEngine::new(Mix, Grid3::new(SIDE, SIDE), config);
    let (result, clones) = clones_in(|| engine.run().unwrap());
    assert_eq!(result.report().vertices_computed, u64::from(SIDE * SIDE));

    // One `Done` copy per vertex and remote place among its dependents;
    // a vertex whose gather leaves its own place copies every value.
    let places = vec![PlaceId(0), PlaceId(1)];
    let dist = Dist::new(Region2D::new(SIDE, SIDE), DistKind::BlockCol, places);
    let pattern = Grid3::new(SIDE, SIDE);
    let (mut deps, mut antis) = (Vec::new(), Vec::new());
    let mut expected = 0;
    for i in 0..SIDE {
        for j in 0..SIDE {
            let home = dist.slot_of(i, j);
            antis.clear();
            pattern.anti_dependencies(i, j, &mut antis);
            let mut remote: Vec<usize> = antis.iter().map(|a| dist.slot_of(a.i, a.j)).collect();
            remote.retain(|&s| s != home);
            remote.sort_unstable();
            remote.dedup();
            expected += remote.len() as u64;
            deps.clear();
            pattern.dependencies(i, j, &mut deps);
            if deps.iter().any(|d| dist.slot_of(d.i, d.j) != home) {
                expected += deps.len() as u64;
            }
        }
    }
    assert_eq!(clones, expected);
}

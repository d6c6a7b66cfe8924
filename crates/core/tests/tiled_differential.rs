//! Differential property tests of the tiled execution path: for every
//! builtin pattern, `run_tiled_threaded` under proptest-drawn grid and
//! tile sizes must produce exactly the serial oracle's cell values —
//! same cells, same values, same digest. Tile sizes cover the two
//! degenerate boundaries explicitly: `t = 1` (tiling is the identity)
//! and `t ≥` the grid dimension (the whole DAG is one tile); both must
//! always tile. In between, a pattern whose tile-level graph develops a
//! cycle (Pyramid's leftward diagonal) may legitimately refuse with
//! `Untileable` — refusing is correct, computing wrong values is not.

use std::collections::HashMap;
use std::sync::Arc;

use dpx10_core::tiled::run_tiled_threaded;
use dpx10_core::{DepView, DpApp, EngineConfig, EngineError};
use dpx10_dag::builtin::{
    ColWave, Diagonal, FullPrevRowCol, Grid2, Grid3, IntervalUpper, Pyramid, RowWave,
};
use dpx10_dag::{topological_order, CustomDag, DagPattern, VertexId};
use proptest::prelude::*;

/// Differential app: any misrouted boundary cell or broken intra-tile
/// order changes everything downstream.
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

fn oracle(pattern: &dyn DagPattern) -> HashMap<VertexId, u64> {
    let order = topological_order(pattern).expect("acyclic");
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

/// FNV-1a over canonically-ordered `(packed id, value)` pairs — the
/// same digest shape as `DagResult::fingerprint`, computed at cell
/// level so tiled and untiled runs are comparable.
fn digest(mut cells: Vec<(u64, u64)>) -> u64 {
    cells.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (k, v) in cells {
        for b in k.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Runs `pattern` tiled and compares it cell-by-cell and digest-wise
/// against the serial oracle. `must_tile` asserts the tiling cannot be
/// refused (the `t = 1` and one-big-tile boundaries).
fn check<P: DagPattern + Clone + 'static>(
    pattern: P,
    tile: u32,
    must_tile: bool,
) -> Result<(), TestCaseError> {
    let expect = oracle(&pattern);
    let run = match run_tiled_threaded(MixApp, pattern, tile, EngineConfig::flat(2)) {
        Err(EngineError::Untileable(e)) => {
            prop_assert!(!must_tile, "tile {tile} must be accepted, got: {e}");
            return Ok(());
        }
        Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        Ok(run) => run,
    };
    let mut tiled_cells = Vec::with_capacity(expect.len());
    for (id, v) in &expect {
        let got = run.try_get(id.i, id.j);
        prop_assert_eq!(got, Some(*v), "cell {} diverged at tile size {}", id, tile);
        tiled_cells.push((id.pack(), got.unwrap()));
    }
    let oracle_cells: Vec<(u64, u64)> = expect.iter().map(|(id, v)| (id.pack(), *v)).collect();
    prop_assert_eq!(digest(tiled_cells), digest(oracle_cells), "digest mismatch");
    Ok(())
}

fn check_builtin(
    pat: usize,
    h: u32,
    w: u32,
    tile: u32,
    must_tile: bool,
) -> Result<(), TestCaseError> {
    match pat {
        0 => check(ColWave::new(h, w), tile, must_tile),
        1 => check(Diagonal::new(h, w), tile, must_tile),
        2 => check(FullPrevRowCol::new(h, w), tile, must_tile),
        3 => check(Grid2::new(h, w), tile, must_tile),
        4 => check(Grid3::new(h, w), tile, must_tile),
        5 => check(IntervalUpper::new(h), tile, must_tile),
        6 => check(Pyramid::new(h, w), tile, must_tile),
        _ => check(RowWave::new(h, w), tile, must_tile),
    }
}

proptest! {
    #[test]
    fn tiled_matches_serial_oracle_across_builtins(
        pat in 0usize..8,
        h in 3u32..11,
        w in 3u32..11,
        tile in 1u32..14,
    ) {
        check_builtin(pat, h, w, tile, tile == 1)?;
    }
}

#[test]
fn tile_size_one_is_the_identity_for_every_builtin() {
    for pat in 0..8 {
        check_builtin(pat, 7, 5, 1, true).unwrap();
    }
}

#[test]
fn one_big_tile_swallows_every_builtin() {
    // t ≥ both grid dimensions: the whole DAG is a single tile, which
    // can never cycle, so even Pyramid must accept it.
    for pat in 0..8 {
        check_builtin(pat, 6, 6, 6, true).unwrap();
        check_builtin(pat, 6, 6, 16, true).unwrap();
    }
}

/// Even rows depend on their left neighbour, odd rows on their right,
/// every row on the one above. No fixed in-tile sweep respects both row
/// kinds, so a tile holding two rows runs the Kahn fallback.
fn zigzag(height: u32, width: u32) -> Arc<CustomDag> {
    let pattern = CustomDag::new(height, width)
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
        });
    Arc::new(pattern)
}

proptest! {
    /// Tiles at least as wide as the matrix stack vertically, so the
    /// zig-zag rows never make two tiles wait on each other.
    #[test]
    fn kahn_fallback_matches_serial_oracle(h in 2u32..14, w in 2u32..7, extra in 0u32..4) {
        check(zigzag(h, w), w + extra, true)?;
    }
}

#[test]
fn zigzag_across_tile_columns_is_refused_not_miscomputed() {
    let refused = run_tiled_threaded(MixApp, zigzag(6, 8), 3, EngineConfig::flat(2));
    assert!(matches!(refused, Err(EngineError::Untileable(_))));
}

#[test]
fn masked_interval_with_a_tile_that_does_not_divide_the_side() {
    // 11 = 3·3 + 2: the last tile row and column are clipped, the
    // diagonal tiles are half masked, the lower-left ones do not exist.
    for tile in [3, 4, 5, 7] {
        check(IntervalUpper::new(11), tile, true).unwrap();
    }
}

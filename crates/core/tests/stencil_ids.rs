//! The tile kernel hands an interior cell of a stencil pattern ids it
//! derives from the offsets and values it lends out of the tile buffer,
//! where every other cell asks `dependencies` and copies. The per-vertex
//! path does the same inside a block chunk, addressing the slab by
//! offset. A recording app checks, for every cell it computes, that the
//! ids are exactly `dependencies()`, order included, and that each
//! value is the one of the cell it names.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpx10_core::tiled::run_tiled_threaded;
use dpx10_core::{DepView, DistKind, DpApp, EngineConfig, EngineError, ThreadedEngine};
use dpx10_dag::{BandedGrid3, BuiltinKind, DagPattern, VertexId};

/// The value every cell computes: a function of its id alone, so a
/// dependency's value says which cell it was read from.
fn value_of(id: VertexId) -> u64 {
    id.pack().wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

struct Recording {
    pattern: Arc<dyn DagPattern>,
    computed: Arc<AtomicU64>,
}

impl DpApp for Recording {
    type Value = u64;

    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        let mut want = Vec::new();
        self.pattern.dependencies(id.i, id.j, &mut want);
        assert_eq!(deps.ids(), want.as_slice(), "the ids handed to {id}");
        for (d, &v) in deps.iter() {
            assert_eq!(v, value_of(d), "the value {id} read for {d}");
        }
        self.computed.fetch_add(1, Ordering::Relaxed);
        value_of(id)
    }
}

/// Every builtin that declares a stencil, plus `BandedGrid3`, on a
/// `height × width` grid.
fn stencil_patterns_of(height: u32, width: u32) -> Vec<(String, Arc<dyn DagPattern>)> {
    let mut patterns: Vec<(String, Arc<dyn DagPattern>)> = BuiltinKind::ALL
        .into_iter()
        .filter(|kind| kind.instantiate(1, 1).stencil().is_some())
        .map(|kind| {
            (
                format!("{kind:?}"),
                Arc::from(kind.instantiate(height, width)),
            )
        })
        .collect();
    let banded = BandedGrid3::new(height.max(width), 3);
    patterns.push(("BandedGrid3".into(), Arc::new(banded)));
    patterns
}

/// The stencil patterns on a 13 × 11 grid: a multiple of none of the
/// tile sizes below.
fn stencil_patterns() -> Vec<(String, Arc<dyn DagPattern>)> {
    stencil_patterns_of(13, 11)
}

/// Checks a finished run: every cell computed once, every value the
/// one of its cell.
fn check_values(
    what: &str,
    pattern: &dyn DagPattern,
    computed: &AtomicU64,
    get: impl Fn(u32, u32) -> Option<u64>,
) {
    assert_eq!(
        computed.load(Ordering::Relaxed),
        pattern.vertex_count(),
        "{what}: cells computed"
    );
    for i in 0..pattern.height() {
        for j in 0..pattern.width() {
            let want = pattern.contains(i, j).then(|| value_of((i, j).into()));
            assert_eq!(get(i, j), want, "{what}: cell ({i}, {j})");
        }
    }
}

#[test]
fn the_per_vertex_path_hands_every_cell_its_dependencies_in_pattern_order() {
    // 13 × 11 splits unevenly on 2–4 places; on 5 × 3, four places get
    // chunks of one column or row, no wider than a stencil's reach,
    // and BlockCol leaves one place nothing at all.
    for (height, width) in [(13, 11), (5, 3)] {
        let patterns = stencil_patterns_of(height, width);
        assert_eq!(patterns.len(), 8);
        for (name, pattern) in &patterns {
            for kind in [DistKind::BlockRow, DistKind::BlockCol, DistKind::CyclicCol] {
                for places in 1..=4 {
                    let what = format!("{name} {height}x{width}, {kind:?} on {places} place(s)");
                    let computed = Arc::new(AtomicU64::new(0));
                    let app = Recording {
                        pattern: pattern.clone(),
                        computed: computed.clone(),
                    };
                    let config = EngineConfig::flat(places).with_dist(kind.clone());
                    let result = ThreadedEngine::new(app, pattern.clone(), config)
                        .run()
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    check_values(&what, pattern.as_ref(), &computed, |i, j| {
                        result.try_get(i, j)
                    });
                }
            }
        }
    }
}

#[test]
fn every_cell_is_handed_its_dependencies_in_pattern_order() {
    let patterns = stencil_patterns();
    assert_eq!(patterns.len(), 8);
    for (name, pattern) in &patterns {
        for tile in [1, 3, 8] {
            for places in [1, 2] {
                let what = format!("{name} at tile {tile} on {places} place(s)");
                let computed = Arc::new(AtomicU64::new(0));
                let app = Recording {
                    pattern: pattern.clone(),
                    computed: computed.clone(),
                };
                let config = EngineConfig::flat(places);
                let run = match run_tiled_threaded(app, pattern.clone(), tile, config) {
                    Err(EngineError::Untileable(_)) if name == "Pyramid" && tile > 1 => continue,
                    result => result.unwrap_or_else(|e| panic!("{what}: {e}")),
                };
                check_values(&what, pattern.as_ref(), &computed, |i, j| run.try_get(i, j));
            }
        }
    }
}

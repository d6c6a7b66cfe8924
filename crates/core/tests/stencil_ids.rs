//! The tile kernel hands an interior cell of a stencil pattern ids it
//! derives from the offsets and values it lends out of the tile buffer,
//! where every other cell asks `dependencies` and copies. A recording
//! app checks, for every cell it computes, that the ids are exactly
//! `dependencies()`, order included, and that each value is the one of
//! the cell it names.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpx10_core::tiled::run_tiled_threaded;
use dpx10_core::{DepView, DpApp, EngineConfig, EngineError};
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
/// 13 × 11 grid: a multiple of none of the tile sizes below.
fn stencil_patterns() -> Vec<(String, Arc<dyn DagPattern>)> {
    let mut patterns: Vec<(String, Arc<dyn DagPattern>)> = BuiltinKind::ALL
        .into_iter()
        .filter(|kind| kind.instantiate(1, 1).stencil().is_some())
        .map(|kind| (format!("{kind:?}"), Arc::from(kind.instantiate(13, 11))))
        .collect();
    patterns.push(("BandedGrid3".into(), Arc::new(BandedGrid3::new(13, 3))));
    patterns
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
                assert_eq!(
                    computed.load(Ordering::Relaxed),
                    pattern.vertex_count(),
                    "{what}: cells computed"
                );
                for i in 0..pattern.height() {
                    for j in 0..pattern.width() {
                        let want = pattern.contains(i, j).then(|| value_of((i, j).into()));
                        assert_eq!(run.try_get(i, j), want, "{what}: cell ({i}, {j})");
                    }
                }
            }
        }
    }
}

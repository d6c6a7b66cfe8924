//! How many heap bytes a shard keeps per cell. A block chunk is a
//! rectangle: its local index maps to a cell by arithmetic, and on a
//! pattern without holes no per-cell mask is kept. What is left per cell
//! is the unfinished-dependency counter, the finish flag and the value.
//!
//! `a_block_shard_builds_in_a_few_ms` is the build-time probe of the
//! `swlag-threads` shape (1500², two `BlockCol` places, 1.13 M cells per
//! slot). It times rather than checks, so it is ignored by default:
//!
//! ```sh
//! cargo test --release -p dpx10-core --test shard_bytes -- --ignored --nocapture
//! ```

use std::sync::Arc;
use std::time::Instant;

use dpx10_apgas::StatsBoard;
use dpx10_core::protocol::Ctx;
use dpx10_core::state::{Cell, Points, Shard, Start};
use dpx10_core::{
    CommsMode, DepView, DistKind, DpApp, NetworkModel, PlaceId, ScheduleStrategy, Topology,
};
use dpx10_dag::builtin::{Grid3, IntervalUpper};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_distarray::{Dist, Region2D};

/// A 12-byte value, the size of SWLAG's `(h, e, f)` cell.
type V = (i32, i32, i32);

struct Noop;

impl DpApp for Noop {
    type Value = V;
    fn compute(&self, _id: VertexId, _deps: &DepView<'_, V>) -> V {
        V::default()
    }
}

/// The most heap bytes per cell a block shard of a full pattern keeps,
/// besides the value itself.
const BOOKKEEPING: usize = 6;

fn ctx(pattern: Arc<dyn DagPattern>, kind: DistKind, places: u16) -> Ctx<Noop> {
    let region = Region2D::new(pattern.height(), pattern.width());
    let dist = Dist::new(region, kind, (0..places).map(PlaceId).collect());
    Ctx {
        app: Arc::new(Noop),
        pattern,
        dist: Arc::new(dist),
        stats: StatsBoard::new(places),
        topo: Topology::flat(places),
        net: NetworkModel::tianhe_like(),
        schedule: ScheduleStrategy::Local,
        comms: CommsMode::Pull,
        agg: None,
    }
}

fn fresh(cursors: bool) -> Start<V> {
    Start {
        prior: None,
        meta: None,
        init: None,
        cache_capacity: 16,
        cursors,
    }
}

/// The heap bytes `shard` keeps per cell: its coordinates, its mask,
/// its counters, its finish flags and its values.
fn per_cell_bytes(shard: &Shard<V>) -> usize {
    let points = match &shard.points {
        Points::Rect(..) => 0,
        Points::List(points) => points.capacity() * size_of::<(u32, u32)>(),
    };
    let mask = shard.in_pattern.as_ref().map_or(0, Vec::capacity);
    points
        + mask
        + shard.indegree.capacity() * size_of::<u32>()
        + shard.cells.capacity() * size_of::<Cell>()
        + shard.values.capacity() * size_of::<V>()
}

#[test]
fn a_block_shard_of_a_full_pattern_keeps_no_point_list_or_mask() {
    for kind in [DistKind::BlockCol, DistKind::BlockRow] {
        let ctx = ctx(Arc::new(Grid3::new(120, 90)), kind.clone(), 3);
        for cursors in [false, true] {
            for shard in fresh(cursors).build_all(&ctx) {
                let what = format!("{kind:?} slot {} (cursors {cursors})", shard.slot);
                let len = shard.cells.len();
                assert!(
                    matches!(shard.points, Points::Rect(..)),
                    "{what}: a point list"
                );
                assert!(shard.in_pattern.is_none(), "{what}: a hole map");
                let bytes = per_cell_bytes(&shard);
                assert!(
                    bytes <= len * (BOOKKEEPING + size_of::<V>()),
                    "{what}: {bytes} B for {len} cells"
                );
                // The rectangle is the chunk in local-index order.
                let listed: Vec<_> = ctx.dist.iter_slot(shard.slot).collect();
                assert_eq!(shard.points.iter().collect::<Vec<_>>(), listed, "{what}");
                for (li, &p) in (0..).zip(&listed) {
                    assert_eq!(shard.points.get(li), p, "{what}: local index {li}");
                }
            }
        }
    }
}

#[test]
fn only_a_masked_pattern_or_a_cyclic_chunk_pays_per_cell_for_its_shape() {
    // The upper triangle has holes: a byte per cell marks them.
    let ctx_masked = ctx(Arc::new(IntervalUpper::new(40)), DistKind::BlockCol, 2);
    for shard in fresh(true).build_all(&ctx_masked) {
        let mask = shard
            .in_pattern
            .as_ref()
            .expect("a masked pattern marks holes");
        assert_eq!(mask.len(), shard.cells.len());
        let holes = (0..).zip(shard.points.iter()).filter(|&(li, (i, j))| {
            assert_eq!(mask[li as usize], i <= j);
            !shard.is_vertex(li)
        });
        assert!(holes.count() > 0, "slot {} shows no hole", shard.slot);
    }
    // A cyclic chunk is no rectangle: its cells are listed.
    let ctx_cyclic = ctx(Arc::new(Grid3::new(30, 20)), DistKind::CyclicCol, 2);
    for shard in fresh(true).build_all(&ctx_cyclic) {
        let Points::List(points) = &shard.points else {
            panic!("slot {}: a cyclic chunk as a rectangle", shard.slot);
        };
        assert_eq!(points.len(), 300);
        assert!(shard.in_pattern.is_none());
    }
}

#[test]
#[ignore = "a timing probe; run it optimised with --ignored --nocapture"]
fn a_block_shard_builds_in_a_few_ms() {
    const SIDE: u32 = 1500;
    const ROUNDS: usize = 15;
    let ctx = ctx(Arc::new(Grid3::new(SIDE, SIDE)), DistKind::BlockCol, 2);
    let start = fresh(true);
    // Per slot: the first build pays the page faults of fresh memory;
    // later ones reuse what the allocator got back, as an engine's
    // later epochs and runs do.
    for slot in 0..2 {
        let mut ms: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let begun = Instant::now();
                drop(std::hint::black_box(start.build(&ctx, slot)));
                begun.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let cold = ms.remove(0);
        ms.sort_by(f64::total_cmp);
        let cells = ctx.dist.chunk_len(slot);
        let median = ms[ms.len() / 2];
        println!("slot {slot} ({cells} cells): cold {cold:.2} ms, warm median {median:.2} ms");
        println!("  warm builds (ms): {ms:.2?}");
    }
}

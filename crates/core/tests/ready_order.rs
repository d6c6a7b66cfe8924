//! The order a shard pops its ready vertices. A `BlockCol` chunk whose
//! stencil has a sweep runs a cursor: row by row, rows up where the
//! stencil points into earlier storage and down where it points into
//! later rows (the interval shape), columns ascending, so each row ends
//! on the cell the next place waits for. A cell that parks or ships
//! holds the cursor until it is named ready or published. Every other
//! shard pops FIFO. The flight recorder's `ReadyPop` events carry the
//! popped local index; every run is also checked cell by cell against a
//! serial oracle.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use dpx10_core::{
    DepView, DistKind, DpApp, EngineConfig, FaultPlan, InitOverride, PlaceId, ScheduleStrategy,
    ThreadedEngine,
};
use dpx10_dag::{builtin::*, topological_order, BandedGrid3, DagPattern, VertexId};
use dpx10_distarray::{Dist, Region2D};
use dpx10_obs::{EventKind, Recorder, Trace};

/// Hashes each vertex's coordinates with its dependencies' values, after
/// sleeping for a fixed time (zero: no sleep).
#[derive(Clone, Copy)]
struct Mix(Duration);

impl DpApp for Mix {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        if !self.0.is_zero() {
            std::thread::sleep(self.0);
        }
        let mut acc = 0x9E37_79B9_u64.wrapping_mul(id.pack() | 1).rotate_left(7);
        for (did, v) in deps.iter() {
            acc = acc
                .wrapping_add(v.rotate_left((did.i % 31) + 1))
                .wrapping_mul(0x100_0000_01B3);
        }
        acc
    }
}

/// Runs `pattern` on the threaded engine with a flight recorder, checks
/// every cell against a serial evaluation in topological order, and
/// returns the trace.
fn traced_run<P: DagPattern + Clone + 'static>(
    pattern: P,
    config: EngineConfig,
    app: Mix,
) -> Trace {
    traced_run_from(pattern, config, app, None)
}

/// [`traced_run`] with the cells `init` pre-finishes.
fn traced_run_from<P: DagPattern + Clone + 'static>(
    pattern: P,
    config: EngineConfig,
    app: Mix,
    init: Option<InitOverride<u64>>,
) -> Trace {
    let places = config.topology.num_places() as usize;
    let recorder = Recorder::with_capacity(places, 1 << 16);
    let mut engine = ThreadedEngine::new(app, pattern.clone(), config);
    if let Some(init) = init.clone() {
        engine = engine.with_init(init);
    }
    let result = (engine.with_recorder(recorder.clone()).run()).expect("run completes");
    let mut oracle: HashMap<VertexId, u64> = HashMap::new();
    let mut deps = Vec::new();
    for id in topological_order(&pattern).expect("acyclic") {
        if let Some(v) = init.as_ref().and_then(|f| f(id.i, id.j)) {
            oracle.insert(id, v);
            continue;
        }
        deps.clear();
        pattern.dependencies(id.i, id.j, &mut deps);
        let values: Vec<u64> = deps.iter().map(|d| oracle[d]).collect();
        oracle.insert(
            id,
            Mix(Duration::ZERO).compute(id, &DepView::new(&deps, &values)),
        );
    }
    assert_eq!(oracle.len() as u64, pattern.vertex_count());
    for (id, v) in &oracle {
        assert_eq!(
            result.try_get(id.i, id.j).as_ref(),
            Some(v),
            "{id} differs from the oracle"
        );
    }
    let trace = recorder.drain();
    assert!(
        trace.complete(),
        "the ring dropped {} events",
        trace.dropped
    );
    trace
}

/// `place`'s pops as `(time, local index)`, in time order.
fn pops(trace: &Trace, place: u16) -> Vec<(u64, u32)> {
    let mut pops: Vec<(u64, u32)> = (trace.events.iter())
        .filter(|e| e.kind == EventKind::ReadyPop && e.place == place)
        .map(|e| (e.ts_ns, e.arg as u32))
        .collect();
    pops.sort_by_key(|&(ts, _)| ts);
    pops
}

/// The pop order of a FIFO ready list on a one-place run: the seeds in
/// ascending local index, then each publication's dependents in
/// `anti_dependencies` order as their last dependency finishes — the
/// order the protocol decrements in.
fn fifo_replay(pattern: &dyn DagPattern, kind: DistKind) -> Vec<u32> {
    let region = Region2D::new(pattern.height(), pattern.width());
    let dist = Dist::new(region, kind, vec![PlaceId(0)]);
    let points: Vec<(u32, u32)> = dist.iter_slot(0).collect();
    let li = |id: VertexId| dist.local_index(id.i, id.j) as u32;
    let mut indegree: HashMap<VertexId, u32> = HashMap::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    for (k, &(i, j)) in points.iter().enumerate() {
        if pattern.contains(i, j) {
            let open = pattern.indegree(i, j);
            indegree.insert(VertexId::new(i, j), open);
            if open == 0 {
                queue.push_back(k as u32);
            }
        }
    }
    let (mut order, mut anti) = (Vec::new(), Vec::new());
    while let Some(k) = queue.pop_front() {
        order.push(k);
        let (i, j) = points[k as usize];
        anti.clear();
        pattern.anti_dependencies(i, j, &mut anti);
        for &a in &anti {
            let open = indegree.get_mut(&a).expect("a dependent is a vertex");
            *open -= 1;
            if *open == 0 {
                queue.push_back(li(a));
            }
        }
    }
    order
}

#[test]
fn one_block_col_place_pops_ascending_local_indices() {
    // The SWLAG shape (left, top, diagonal) on one place: the chunk is
    // the whole matrix, swept row by row.
    let pattern = Grid3::new(60, 45);
    let config = EngineConfig::flat(1).with_dist(DistKind::BlockCol);
    let pops = pops(&traced_run(pattern, config, Mix(Duration::ZERO)), 0);
    assert_eq!(pops.len() as u64, pattern.vertex_count());
    let order: Vec<u32> = pops.iter().map(|&(_, li)| li).collect();
    let first_descent = order.windows(2).position(|w| w[0] >= w[1]);
    assert_eq!(
        first_descent, None,
        "pops not strictly ascending: {order:?}"
    );
}

#[test]
fn one_block_col_place_sweeps_an_interval_bottom_up() {
    // The LPS shape (below, left, below-left) on one place: the chunk is
    // the whole triangle, swept from its last row up, each row's
    // columns ascending.
    let n = 60;
    let pattern = IntervalUpper::new(n);
    let config = EngineConfig::flat(1).with_dist(DistKind::BlockCol);
    let pops = pops(&traced_run(pattern, config, Mix(Duration::ZERO)), 0);
    assert_eq!(pops.len() as u64, pattern.vertex_count());
    // Each pop's place in the sweep: rows from the last, then columns.
    let ranks: Vec<(u32, u32)> = pops
        .iter()
        .map(|&(_, li)| (n - 1 - li / n, li % n))
        .collect();
    let first_descent = ranks.windows(2).position(|w| w[0] >= w[1]);
    assert_eq!(
        first_descent, None,
        "pops not bottom-up, columns ascending: {ranks:?}"
    );
}

#[test]
fn the_next_place_starts_within_two_chunk_rows() {
    // Two places, chunks of 48 rows x 24 columns. Place 1's first cell
    // needs place 0's first row, which ends on its chunk's last column:
    // popped FIFO, place 0 would reach that cell only after 300 pops
    // (24 * 25 / 2); swept, it is pop 24. Which pops place 0 makes does
    // not depend on place 1, so this bound holds on any host.
    let (rows, width) = (48, 24);
    let pattern = Grid3::new(rows, 2 * width);
    let config = EngineConfig::flat(2).with_dist(DistKind::BlockCol);
    let trace = traced_run(pattern, config, Mix(Duration::ZERO));
    let zero = pops(&trace, 0);
    let last_column = zero.iter().position(|&(_, li)| li == width - 1);
    let at = last_column.expect("place 0 popped its first row's last cell");
    assert!(
        at < 2 * width as usize,
        "place 0 popped {at} vertices before its first row's last cell (two rows are {})",
        2 * width
    );
}

/// The start time of each epoch of `trace`, ascending.
fn epoch_starts(trace: &Trace) -> Vec<u64> {
    let starts = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::EpochStart);
    let mut starts: Vec<u64> = starts.map(|e| e.ts_ns).collect();
    starts.sort_unstable();
    starts
}

#[test]
fn two_block_col_places_hold_the_cursor_on_pulls_ships_and_kills() {
    // Grid3 over two column blocks, where every cell of place 1's first
    // column reads two values of place 0. With no cache each of those
    // cells parks until its pulls return; under the random schedule
    // about half the cells are shipped to the other place and back; a
    // kill at half progress restarts the survivor on a restored chunk.
    // Every run matches the serial oracle, and in every epoch each
    // place pops in storage order: a held cell pops once more when it is
    // named ready (a pull that returned), never while it waits.
    let pattern = Grid3::new(40, 36);
    let base = EngineConfig::flat(2).with_dist(DistKind::BlockCol);
    let kill = FaultPlan {
        place: PlaceId(1),
        after_fraction: 0.5,
    };
    let cases = [
        ("cache 0", base.clone().with_cache(0), 1),
        (
            "random",
            base.clone().with_schedule(ScheduleStrategy::Random),
            1,
        ),
        ("kill", base.with_fault(kill), 2),
    ];
    for (what, config, epochs) in cases {
        let trace = traced_run(pattern, config, Mix(Duration::ZERO));
        let starts = epoch_starts(&trace);
        assert_eq!(starts.len(), epochs, "{what}: epochs");
        for place in 0..2 {
            let pops = pops(&trace, place);
            for (k, &from) in starts.iter().enumerate() {
                let until = starts.get(k + 1).copied().unwrap_or(u64::MAX);
                let epoch = pops.iter().filter(|&&(ts, _)| from <= ts && ts < until);
                let order: Vec<u32> = epoch.map(|&(_, li)| li).collect();
                let descent = order.windows(2).position(|w| w[0] > w[1]);
                assert_eq!(descent, None, "{what}: place {place} epoch {k}: {order:?}");
                let thrice = order.windows(3).position(|w| w[0] == w[2]);
                assert_eq!(thrice, None, "{what}: place {place} re-popped a held cell");
            }
        }
    }
}

/// Runs `pattern` on two `BlockCol` places with no cache, the vertices
/// `scattered` names pre-finished, and a kill at half progress that
/// restarts the survivor on a restored chunk. Every cell matches the
/// serial oracle; in every epoch each place pops in its sweep's order
/// (rows down if `rows_down`, columns ascending), a cell once per
/// compute (a held cell's pop again when named ready aside, and the one
/// it may hold when the kill stops it), and computes neither a hole nor
/// a cell that started finished.
fn assert_row_spans(
    what: &str,
    pattern: Arc<dyn DagPattern>,
    rows_down: bool,
    scattered: fn(u32, u32) -> bool,
) {
    let vertices = pattern.clone();
    let init: InitOverride<u64> = Arc::new(move |i, j| {
        let prefinished = vertices.contains(i, j) && scattered(i, j);
        prefinished.then(|| 0xC0DE ^ VertexId::new(i, j).pack())
    });
    let kill = FaultPlan {
        place: PlaceId(1),
        after_fraction: 0.5,
    };
    let config = EngineConfig::flat(2)
        .with_dist(DistKind::BlockCol)
        .with_cache(0)
        .with_fault(kill);
    let trace = traced_run_from(pattern.clone(), config, Mix(Duration::ZERO), Some(init));
    let starts = epoch_starts(&trace);
    assert_eq!(starts.len(), 2, "{what}: the kill restarts one epoch");
    // A local index's place in its chunk's sweep, on `places` places
    // (the kill leaves one).
    let rank = |li: u32, places: u32| {
        let width = pattern.width() / places;
        match rows_down {
            true => (pattern.height() - 1 - li / width, li % width),
            false => (li / width, li % width),
        }
    };
    for place in 0..2 {
        let pops = pops(&trace, place);
        let mut computes: Vec<(u64, VertexId)> = (trace.events.iter())
            .filter(|e| e.kind == EventKind::VertexCompute && e.place == place)
            .map(|e| (e.ts_ns, VertexId::unpack(e.arg)))
            .collect();
        computes.sort_by_key(|&(ts, _)| ts);
        for (k, &from) in starts.iter().enumerate() {
            let until = starts.get(k + 1).copied().unwrap_or(u64::MAX);
            let within = |ts: u64| from <= ts && ts < until;
            let order = pops.iter().filter(|&&(ts, _)| within(ts));
            let mut order: Vec<u32> = order.map(|&(_, li)| li).collect();
            // A cell that parked on a pull pops again once it is named
            // ready, right after its first pop.
            order.dedup();
            let places = 2 - k as u32;
            let descent = (order.windows(2)).position(|w| rank(w[0], places) >= rank(w[1], places));
            assert_eq!(descent, None, "{what}: place {place} epoch {k}: {order:?}");
            let ids = computes.iter().filter(|&&(ts, _)| within(ts));
            let ids: Vec<VertexId> = ids.map(|&(_, id)| id).collect();
            // The kill may stop a place while it holds a parked cell.
            let held = usize::from(k + 1 < starts.len());
            assert!(
                ids.len() <= order.len() && order.len() <= ids.len() + held,
                "{what}: place {place} epoch {k}: {} pops for {} computes",
                order.len(),
                ids.len()
            );
            for id in &ids {
                assert!(pattern.contains(id.i, id.j), "{what}: computed hole {id}");
                assert!(!scattered(id.i, id.j), "{what}: recomputed {id}");
            }
        }
    }
}

#[test]
fn a_cursor_runs_a_row_span_that_stops_at_finished_cells() {
    // Grid3 over two column blocks of 18 columns, with scattered
    // interior cells pre-finished: after an interior pop the cursor runs
    // on along the row, and must stop at each pre-finished cell and step
    // over it, in the first epoch and again on the restored chunk.
    let scattered = |i: u32, j: u32| (4..36).contains(&i) && (j % 18) > 2 && (i + 2 * j) % 7 == 0;
    assert_row_spans("grid", Arc::new(Grid3::new(40, 36)), false, scattered);
}

#[test]
fn a_masked_row_span_stops_at_holes_and_finished_cells() {
    // The triangle (LPS's shape) is swept bottom-up; each of its rows
    // opens on a diagonal whose neighbours are holes, so a span starts
    // only past it, and runs on until a pre-finished cell. The band's
    // rows end in holes before the chunk does, so a span must stop at
    // the first cell that is a hole or has one among its neighbours.
    let scattered = |i: u32, j: u32| (i + 2 * j) % 7 == 0 && j % 24 > 2;
    assert_row_spans(
        "triangle",
        Arc::new(IntervalUpper::new(48)),
        true,
        scattered,
    );
    assert_row_spans("band", Arc::new(BandedGrid3::new(48, 6)), false, scattered);
}

#[test]
fn other_shards_pop_fifo() {
    // A block-row chunk and a cyclic one: each pops exactly what a
    // VecDeque replay of the protocol pops.
    let cases: [(Arc<dyn DagPattern>, DistKind); 2] = [
        (Arc::new(Grid3::new(30, 25)), DistKind::BlockRow),
        (Arc::new(Grid3::new(30, 25)), DistKind::CyclicCol),
    ];
    for (pattern, kind) in cases {
        let name = format!("{} on {kind:?}", pattern.name());
        let expected = fifo_replay(pattern.as_ref(), kind.clone());
        let config = EngineConfig::flat(1).with_dist(kind);
        let trace = traced_run(pattern, config, Mix(Duration::ZERO));
        let order: Vec<u32> = pops(&trace, 0).iter().map(|&(_, li)| li).collect();
        assert_eq!(order, expected, "{name} did not pop FIFO");
        let ascending = order.windows(2).all(|w| w[0] < w[1]);
        assert!(
            !ascending,
            "{name}: FIFO and a sweep agree, so the case shows nothing"
        );
    }
}

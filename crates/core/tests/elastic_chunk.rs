//! A shard survives relocation: `Shard → ChunkState → bytes →
//! ChunkState → Shard` on a mid-run shard, the conversion the elastic
//! mesh performs when a chunk changes hands.
//!
//! The shard is taken from a protocol run over three column blocks with
//! a two-entry cache, stopped at the first moment the middle shard holds
//! every kind of state at once: finished cells, counted cells, ready
//! cells, a cell parked on an unanswered pull, and cache residents. The
//! rebuilt shard must carry the same finished values and indegrees, find
//! every unfinished indegree-0 cell runnable, and keep the FIFO's order
//! — and the run, continued on it, must still reach the solo answer.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dpx10_apgas::codec::{decode_exact, encode_to_vec};
use dpx10_apgas::{NetworkModel, PlaceId, StatsBoard, Topology};
use dpx10_core::msg::Msg;
use dpx10_core::protocol::{handle_msg, prepare, publish, Place, Sink, WorkerBufs};
use dpx10_core::state::{build_shards, Shard};
use dpx10_core::{
    CommsMode, DepView, DistKind, DpApp, EngineConfig, ScheduleStrategy, ThreadedEngine,
};
use dpx10_dag::builtin::Grid3;
use dpx10_dag::{DagPattern, VertexId};
use dpx10_distarray::{ChunkState, Dist, Region2D};
use dpx10_obs::EventKind;

const PLACES: u16 = 3;
const MOVED: usize = 1;

/// Non-commutative, so a lost, duplicated or reordered value shows.
#[derive(Clone)]
struct Mix;

impl DpApp for Mix {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ id.pack();
        for (d, v) in deps.iter() {
            h = h.rotate_left(13).wrapping_mul(0x0000_0100_0000_01b3) ^ v.wrapping_add(d.pack());
        }
        h
    }
}

/// The simplest sink: one FIFO of messages, one ready list per place.
#[derive(Default)]
struct Fifo {
    flight: VecDeque<(PlaceId, PlaceId, Msg<u64>)>,
    ready: Vec<VecDeque<u32>>,
}

impl Sink<u64> for Fifo {
    fn send(&mut self, src: PlaceId, dst: PlaceId, msg: Msg<u64>) {
        self.flight.push_back((src, dst, msg));
    }
    fn ready(&mut self, slot: usize, li: u32) {
        self.ready[slot].push_back(li);
    }
    fn stamp(&mut self, _: PlaceId, _: EventKind, _: u64) {}
    fn exec(&mut self, _: usize, _: PlaceId, _: VertexId, _: Vec<VertexId>, _: Vec<u64>) {
        unreachable!("local scheduling never ships a vertex");
    }
    fn finished(&mut self, _: usize, _: VertexId, _: &u64) {}
}

/// One step: the place whose turn it is executes a ready vertex if it
/// has one, else the oldest message is delivered. `false` at quiescence.
fn step(place: &Place<Mix>, sink: &mut Fifo, turn: usize, bufs: &mut WorkerBufs) -> bool {
    let slot = turn % PLACES as usize;
    if let Some(li) = sink.ready[slot].pop_front() {
        if let Some((_, values)) = prepare(place, sink, slot, li, bufs) {
            let (i, j) = place.shards[slot].points[li as usize];
            let id = VertexId::new(i, j);
            let value = Mix.compute(id, &DepView::new(&bufs.deps, &values));
            publish(place, sink, slot, li, id, value, bufs);
        }
        return true;
    }
    let Some((src, dst, msg)) = sink.flight.pop_front() else {
        return sink.ready.iter().any(|r| !r.is_empty());
    };
    handle_msg(place, sink, dst.index(), src, msg, bufs);
    true
}

/// Whether `shard` holds every kind of state a relocation must carry.
fn holds_everything(shard: &Shard<u64>, ready: &VecDeque<u32>) -> bool {
    let pending = shard.pending.lock();
    let finished = shard.finished.iter().any(|f| f.load(Ordering::Acquire));
    let counted = shard.indegree.iter().any(|d| d.load(Ordering::Acquire) > 0);
    let parked = pending.parked.values().any(|p| p.remaining > 0);
    finished && counted && parked && !ready.is_empty() && !shard.cache.lock().is_empty()
}

#[test]
fn elastic_chunk_round_trip_keeps_a_mid_run_shard_whole() {
    let pattern: Arc<dyn DagPattern> = Arc::new(Grid3::new(9, 9));
    let dist = Arc::new(Dist::new(
        Region2D::new(9, 9),
        DistKind::BlockCol,
        (0..PLACES).map(PlaceId).collect(),
    ));
    let (shards, _) = build_shards::<u64>(pattern.as_ref(), &dist, None, None, None, 2, None);
    let mut place = Place {
        app: Arc::new(Mix),
        pattern: pattern.clone(),
        dist: dist.clone(),
        shards,
        stats: StatsBoard::new(PLACES),
        topo: Topology::flat(PLACES),
        net: NetworkModel::tianhe_like(),
        schedule: ScheduleStrategy::Local,
        comms: CommsMode::Pull,
        agg: None,
    };
    let mut sink = Fifo::default();
    for shard in &place.shards {
        sink.ready
            .push(std::iter::from_fn(|| shard.ready.pop()).collect());
    }
    let mut bufs = WorkerBufs::default();
    let mut turn = 0;
    while !holds_everything(&place.shards[MOVED], &sink.ready[MOVED]) {
        assert!(
            step(&place, &mut sink, turn, &mut bufs),
            "the run never put the shard in the state the test needs"
        );
        turn += 1;
    }

    // What the holder knows before the chunk leaves.
    let old = &place.shards[MOVED];
    let len = old.points.len();
    let finished: Vec<Option<u64>> = (0..len).map(|li| old.values[li].get().copied()).collect();
    let indegree: Vec<u32> = (0..len)
        .map(|li| old.indegree[li].load(Ordering::Acquire))
        .collect();
    let residents: Vec<(u64, u64)> = old.cache.lock().iter().map(|(k, v)| (k, *v)).collect();
    let fills: BTreeSet<u64> = old
        .pending
        .lock()
        .parked
        .values()
        .flat_map(|p| p.fills.iter())
        .filter_map(|(dep, fill)| fill.value().map(|_| *dep))
        .collect();
    let runnable: BTreeSet<u32> = (0..len)
        .filter(|&li| old.in_pattern[li] && finished[li].is_none() && indegree[li] == 0)
        .map(|li| li as u32)
        .collect();
    assert!(
        runnable.len() > sink.ready[MOVED].len(),
        "a parked vertex is runnable but not on the ready list"
    );

    // Shard → ChunkState → bytes → ChunkState → Shard.
    let state = old.to_chunk(MOVED as u16, sink.ready[MOVED].iter().copied());
    let bytes = encode_to_vec(&state);
    let decoded: ChunkState<u64> = decode_exact(&bytes).expect("a chunk decodes");
    assert_eq!(decoded, state);
    let new = Shard::from_chunk(pattern.as_ref(), &dist, decoded, 64);

    assert_eq!(new.points, old.points);
    assert_eq!(new.total_local, old.total_local);
    for li in 0..len {
        assert_eq!(new.values[li].get().copied(), finished[li], "value of {li}");
        assert_eq!(
            new.finished[li].load(Ordering::Acquire),
            finished[li].is_some()
        );
        assert_eq!(
            new.indegree[li].load(Ordering::Acquire),
            indegree[li],
            "indegree of {li}"
        );
    }
    let queued: VecDeque<u32> = std::iter::from_fn(|| new.ready.pop()).collect();
    let ahead: Vec<u32> = queued
        .iter()
        .copied()
        .take(sink.ready[MOVED].len())
        .collect();
    assert_eq!(
        ahead,
        Vec::from(sink.ready[MOVED].clone()),
        "ready order kept"
    );
    assert_eq!(
        queued.iter().copied().collect::<BTreeSet<u32>>(),
        runnable,
        "every unfinished indegree-0 cell is runnable, once"
    );
    assert_eq!(queued.len(), runnable.len());
    let rebuilt: Vec<(u64, u64)> = new.cache.lock().iter().map(|(k, v)| (k, *v)).collect();
    assert_eq!(rebuilt[..residents.len()], residents[..], "FIFO order kept");
    let carried: BTreeSet<u64> = rebuilt.iter().map(|r| r.0).collect();
    assert!(
        fills.is_subset(&carried),
        "fills a parked vertex had collected travel as cache residents"
    );
    let pending = new.pending.lock();
    assert!(pending.parked.is_empty() && pending.waiters.is_empty());
    drop(pending);

    // The run goes on with the relocated shard and ends where a solo
    // run does; the pull reply still in flight lands in its cache.
    place.shards[MOVED] = new;
    sink.ready[MOVED] = queued;
    while step(&place, &mut sink, turn, &mut bufs) {
        turn += 1;
    }
    let solo = ThreadedEngine::new(Mix, Grid3::new(9, 9), EngineConfig::flat(1))
        .run()
        .expect("solo run completes");
    for shard in &place.shards {
        for (li, &(i, j)) in shard.points.iter().enumerate() {
            assert_eq!(
                shard.values[li].get().copied(),
                solo.try_get(i, j),
                "cell ({i}, {j})"
            );
            assert_eq!(shard.indegree[li].load(Ordering::Acquire), 0);
        }
        let pending = shard.pending.lock();
        assert!(pending.parked.is_empty() && pending.waiters.is_empty());
    }
}

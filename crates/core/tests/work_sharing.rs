//! A real place is one thread, which owns its shard (the paper's
//! several workers per place are the simulator's `SimConfig::workers`).
//! These tests hold what that must keep: a thread's trace track follows
//! its slot rather than thread start order, and the owner's progress
//! stores keep small runs and slow computes completing. The flight
//! recorder says which worker track computed each vertex.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use dpx10_apgas::ChaosPlan;
use dpx10_core::{DepView, DpApp, EngineConfig, ThreadedEngine};
use dpx10_dag::{builtin::Grid2, DagPattern, VertexId};
use dpx10_obs::{EventKind, Recorder, Trace};

/// Spins for a fixed time per vertex, then folds its dependencies in.
struct Spins(Duration);

impl DpApp for Spins {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        let until = Instant::now() + self.0;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        deps.iter()
            .fold(id.pack(), |acc, (_, v)| acc.wrapping_add(*v))
    }
}

/// Runs `pattern` on the threaded engine under `config` with a flight
/// recorder, checks every vertex was computed, and returns the result's
/// fingerprint and the trace.
fn traced_run(pattern: impl DagPattern + 'static, config: EngineConfig) -> (u64, Trace) {
    let total = pattern.vertex_count();
    let places = config.topology.num_places() as usize;
    let recorder = Recorder::with_capacity(places, 1 << 16);
    let app = Spins(Duration::from_micros(20));
    let result = ThreadedEngine::new(app, pattern, config)
        .with_recorder(recorder.clone())
        .run()
        .expect("run completes");
    assert_eq!(result.report().vertices_computed, total);
    let trace = recorder.drain();
    assert!(
        trace.complete(),
        "the ring dropped {} events",
        trace.dropped
    );
    (result.fingerprint(), trace)
}

/// The worker tracks that computed a vertex, by place.
fn computing_workers(trace: &Trace) -> BTreeMap<u16, BTreeSet<u16>> {
    let mut tracks: BTreeMap<u16, BTreeSet<u16>> = BTreeMap::new();
    for e in &trace.events {
        if e.kind == EventKind::VertexCompute {
            tracks.entry(e.place).or_default().insert(e.worker);
        }
    }
    tracks
}

#[test]
fn worker_tracks_follow_slots_under_the_shaker() {
    // A shaken two-place run, twice: each slot's owner records onto the
    // track its slot names (track_base + slot, one thread per place),
    // whichever thread started first.
    let shaken = || {
        let mut plan = ChaosPlan::quiet(0x5eed);
        plan.shake = true;
        let config = EngineConfig::flat(2).with_chaos(plan);
        computing_workers(&traced_run(Grid2::new(24, 24), config).1)
    };
    let first = shaken();
    let expected: BTreeMap<u16, BTreeSet<u16>> = (0..2).map(|p| (p, BTreeSet::from([p]))).collect();
    assert_eq!(first, expected);
    assert_eq!(shaken(), first, "a rerun moved a slot's compute track");
}

#[test]
fn a_small_dag_completes_on_every_lane_count() {
    // 100 vertices on one place: the owner's last stores of its
    // progress are what tell the coordinator the run is over.
    let config = EngineConfig::flat(1);
    let result = ThreadedEngine::new(Spins(Duration::ZERO), Grid2::new(10, 10), config)
        .run()
        .expect("a small run completes");
    assert_eq!(result.report().vertices_computed, 100);
}

#[test]
fn a_slow_compute_on_a_busy_owner_is_not_a_stall() {
    // 1,050 vertices of 1 ms each on one place, whose ready list never
    // runs dry: the owner never idles, so only its per-round progress
    // stores move the coordinator's count within the 300 ms stall limit.
    let mut config = EngineConfig::flat(1);
    config.stall_limit = Duration::from_millis(300);
    let app = Spins(Duration::from_millis(1));
    let result = ThreadedEngine::new(app, Grid2::new(30, 35), config)
        .run()
        .expect("a busy owner's run is not a stall");
    assert_eq!(result.report().vertices_computed, 1050);
}

//! A worker keeps the vertices it makes ready in a FIFO of its own only
//! where no other worker could take them: one thread per place and no
//! work stealing. Elsewhere they go through the shard's shared queue.
//! These tests fail if a private FIFO strands work: the siblings of a
//! multi-threaded place must compute too, and a thief must find
//! something to steal. The flight recorder says which worker
//! track computed each vertex, and of which place.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_core::{DepView, DistKind, DpApp, EngineConfig, ScheduleStrategy, ThreadedEngine};
use dpx10_dag::{builtin::Grid2, DagPattern, VertexId};
use dpx10_obs::{EventKind, Recorder, Trace};

/// Spins for a fixed time per vertex, then folds its dependencies in:
/// long enough that an idle worker wakes while there is work to share.
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
/// recorder, checks every vertex was computed, and returns the trace.
fn traced_run(pattern: Grid2, config: EngineConfig) -> Trace {
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
    trace
}

/// The places whose vertices each worker track computed.
fn places_by_worker(trace: &Trace) -> HashMap<u16, BTreeSet<u16>> {
    let mut by_worker: HashMap<u16, BTreeSet<u16>> = HashMap::new();
    for e in trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::VertexCompute)
    {
        by_worker.entry(e.worker).or_default().insert(e.place);
    }
    by_worker
}

#[test]
fn every_worker_of_a_place_gets_work() {
    // One place, three workers: one takes the only seed, and the rest
    // of the sweep is readied by whichever worker runs its dependencies.
    let mut config = EngineConfig::flat(1);
    config.topology.threads_per_place = 3;
    let trace = traced_run(Grid2::new(40, 40), config);
    let workers = places_by_worker(&trace);
    assert!(
        workers.len() > 1,
        "one worker track computed every vertex: {workers:?}"
    );
}

#[test]
fn a_thief_steals_from_a_skewed_place() {
    // Place 1 owns the last row only; place 0 everything else, all of
    // it readied by place 0's own worker. Place 1's worker has nothing
    // to do until the last row, so it steals from place 0.
    let skewed = DistKind::Custom(Arc::new(|i, _j| usize::from(i == 39)));
    let config = EngineConfig::flat(2)
        .with_dist(skewed)
        .with_schedule(ScheduleStrategy::WorkStealing);
    let trace = traced_run(Grid2::new(40, 40), config);
    let workers = places_by_worker(&trace);
    assert!(
        workers.values().any(|places| places.len() > 1),
        "no worker computed another place's vertex: {workers:?}"
    );
}

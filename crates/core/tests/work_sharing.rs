//! A worker keeps the vertices it makes ready in a FIFO of its own only
//! where no other worker could take them: one thread per place.
//! Elsewhere they go through the shard's shared queue. This test fails
//! if a private FIFO strands work: the siblings of a multi-threaded
//! place must compute too. The flight recorder says which worker track
//! computed each vertex.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use dpx10_core::{DepView, DpApp, EngineConfig, ThreadedEngine};
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

/// The worker tracks that computed a vertex.
fn computing_workers(trace: &Trace) -> BTreeSet<u16> {
    trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::VertexCompute)
        .map(|e| e.worker)
        .collect()
}

#[test]
fn every_worker_of_a_place_gets_work() {
    // One place, three workers: one takes the only seed, and the rest
    // of the sweep is readied by whichever worker runs its dependencies.
    let mut config = EngineConfig::flat(1);
    config.topology.threads_per_place = 3;
    let trace = traced_run(Grid2::new(40, 40), config);
    let workers = computing_workers(&trace);
    assert!(
        workers.len() > 1,
        "one worker track computed every vertex: {workers:?}"
    );
}

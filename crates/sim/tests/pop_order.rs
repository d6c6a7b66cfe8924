//! The simulator schedules what the engines schedule. A one-place
//! simulation with one worker pops its shard's ready list the way the
//! one-place threaded engine's owner thread does, so both compute the
//! same vertices in the same order. The sequence is read off each run's
//! flight recorder: its `VertexCompute` spans, in start order, carry the
//! packed vertex id.
//!
//! `BlockCol` is left out. There the threads run a cursor on every
//! stencil with a sweep and the simulator does not (`cursors: false`),
//! so the two orders differ on five of the eight builtin patterns:
//! ROADMAP item 5's open fork.

use dpx10_core::{DepView, DistKind, DpApp, EngineConfig, ThreadedEngine};
use dpx10_dag::{BuiltinKind, VertexId};
use dpx10_obs::{EventKind, Recorder, Trace};
use dpx10_sim::SimEngine;

struct Mix;

impl DpApp for Mix {
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

/// The packed ids of a complete trace's computes, in start order.
fn computed(trace: Trace) -> Vec<u64> {
    assert!(trace.complete(), "the trace must hold every compute");
    let events = trace.events.iter();
    events
        .filter(|e| e.kind == EventKind::VertexCompute)
        .map(|e| e.arg)
        .collect()
}

#[test]
fn one_place_simulation_computes_the_threaded_sequence() {
    for kind in BuiltinKind::ALL {
        for dist in [DistKind::BlockRow, DistKind::CyclicCol] {
            let config = EngineConfig::flat(1).with_dist(dist.clone());
            let threads = Recorder::with_capacity(1, 1 << 12);
            (ThreadedEngine::new(Mix, kind.instantiate(13, 11), config.clone()))
                .with_recorder(threads.clone())
                .run()
                .expect("threaded run completes");
            let sim = Recorder::with_capacity(1, 1 << 12);
            (SimEngine::new(Mix, kind.instantiate(13, 11), config))
                .with_recorder(sim.clone())
                .run()
                .expect("simulation completes");
            let (threads, sim) = (computed(threads.drain()), computed(sim.drain()));
            let vertices = kind.instantiate(13, 11).vertex_count() as usize;
            assert_eq!(threads.len(), vertices, "{kind:?} on {dist:?}");
            assert_eq!(sim, threads, "{kind:?} on {dist:?}");
        }
    }
}

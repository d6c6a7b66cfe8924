//! `RunReport::place_busy` on the threaded engine. Without a flight
//! recorder each worker times one compute in 16 and charges it for all
//! 16, so busy time is an estimate; these tests bound it. They live in
//! their own test binary so that no other test of this suite competes
//! for the cores while a sampled compute is being timed.

use std::time::{Duration, Instant};

use dpx10_core::{DepView, DpApp, EngineConfig, ThreadedEngine};
use dpx10_dag::{builtin::Grid2, VertexId};

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

#[test]
fn sampled_busy_time_covers_every_compute_and_stays_under_wall() {
    // One worker, 400 computes of 50 µs: 20 ms of compute, timed 25
    // times and charged 16-fold. A preemption inside a timed compute is
    // charged 16-fold too, so on a loaded host one run can overshoot its
    // wall time: the upper bound must hold on one run of three.
    let spin = Duration::from_micros(50);
    let computed = spin * 400;
    let mut overshoots = Vec::new();
    for _ in 0..3 {
        let engine = ThreadedEngine::new(Spins(spin), Grid2::new(20, 20), EngineConfig::flat(1));
        let result = engine.run().expect("run completes");
        let report = result.report();
        let busy = report.place_busy[0];
        assert!(
            busy >= computed * 3 / 4,
            "busy {busy:?} undercounts {computed:?} of compute"
        );
        if busy <= report.wall_time {
            return;
        }
        overshoots.push((busy, report.wall_time));
    }
    panic!("busy exceeded the wall time on every run, (busy, wall): {overshoots:?}");
}

#[test]
fn every_place_reports_busy_time() {
    // Each worker times its first compute, however few it runs.
    let spin = Duration::from_micros(20);
    let result = ThreadedEngine::new(Spins(spin), Grid2::new(4, 4), EngineConfig::flat(2))
        .run()
        .expect("run completes");
    let busy = &result.report().place_busy;
    assert_eq!(busy.len(), 2);
    assert!(busy.iter().all(|b| !b.is_zero()), "{busy:?}");
}

/// Computes nothing: every nanosecond a sampled span reads is the
/// clock's own.
struct Nothing;

impl DpApp for Nothing {
    type Value = u64;
    fn compute(&self, _id: VertexId, _deps: &DepView<'_, u64>) -> u64 {
        0
    }
}

#[test]
fn an_empty_compute_charges_almost_no_busy_time() {
    // 90 000 empty computes on one worker, timed 5 625 times. Charged
    // the bare clock pair (tens of ns) 16-fold, busy time would be a
    // sizeable share of the wall time; less the clock's floor it is a
    // few per cent. As above, a preemption inside a timed span is
    // charged 16-fold: the bound must hold on one run of three.
    let mut readings = Vec::new();
    for _ in 0..3 {
        let engine = ThreadedEngine::new(Nothing, Grid2::new(300, 300), EngineConfig::flat(1));
        let result = engine.run().expect("run completes");
        let (busy, wall) = (result.report().place_busy[0], result.report().wall_time);
        if busy <= wall / 10 {
            return;
        }
        readings.push((busy, wall));
    }
    panic!("busy exceeded 10 % of the wall time on every run, (busy, wall): {readings:?}");
}

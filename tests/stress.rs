//! Concurrency stress: repeated threaded runs (one owner thread per
//! place), adversarial configurations and live faults, to shake out
//! races in the ready-list / cache / pull / publish paths.

use dpx10::apps::{serial, workload, SwLinearApp};
use dpx10::prelude::*;

#[test]
fn repeated_multithreaded_runs_are_all_correct() {
    let a = workload::dna(64, 71);
    let b = workload::dna(64, 72);
    let scoring = SwLinearApp::new(a.clone(), b.clone()).scoring;
    let expect = serial::smith_waterman_linear(&a, &b, &scoring);
    for round in 0..8 {
        let config = EngineConfig::flat(3)
            .with_dist(if round % 2 == 0 {
                DistKind::CyclicCol
            } else {
                DistKind::BlockRow
            })
            .with_cache(if round % 3 == 0 { 0 } else { 64 });
        let app = SwLinearApp::new(a.clone(), b.clone());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(app, pattern, config)
            .run()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        for i in (0..=64u32).step_by(9) {
            for j in (0..=64u32).step_by(7) {
                assert_eq!(
                    result.get(i, j),
                    expect[i as usize][j as usize],
                    "round {round} cell ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn repeated_faulted_runs_under_contention() {
    let a = workload::dna(48, 81);
    let b = workload::dna(48, 82);
    let scoring = SwLinearApp::new(a.clone(), b.clone()).scoring;
    let expect = serial::smith_waterman_linear(&a, &b, &scoring);
    for round in 0..6u32 {
        let config = EngineConfig::flat(4)
            .with_dist(DistKind::BlockCol)
            .with_fault(FaultPlan {
                place: PlaceId(1 + (round % 3) as u16),
                after_fraction: 0.15 + 0.12 * round as f64,
            });
        let app = SwLinearApp::new(a.clone(), b.clone());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(app, pattern, config)
            .run()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(result.report().epochs >= 2, "round {round}");
        assert_eq!(
            result.get(48, 48),
            expect[48][48],
            "round {round} final cell"
        );
    }
}

#[test]
fn mixed_strategies_under_contention() {
    let a = workload::dna(40, 91);
    let b = workload::dna(40, 92);
    let scoring = SwLinearApp::new(a.clone(), b.clone()).scoring;
    let expect = serial::smith_waterman_linear(&a, &b, &scoring);
    for strat in ScheduleStrategy::ALL {
        let config = EngineConfig::flat(3).with_schedule(strat).with_cache(4);
        let app = SwLinearApp::new(a.clone(), b.clone());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(app, pattern, config)
            .run()
            .unwrap_or_else(|e| panic!("{strat:?}: {e}"));
        assert_eq!(result.get(40, 40), expect[40][40], "{strat:?}");
    }
}

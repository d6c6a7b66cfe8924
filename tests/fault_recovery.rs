//! Fault-tolerance integration tests across crates: failures injected
//! into real applications on both engines, under both restore manners,
//! at several fault points — results must always equal the fault-free
//! oracle, and the recovery accounting must be coherent.

use dpx10::apps::{serial, workload, MtpApp, SwLinearApp};
use dpx10::prelude::*;

#[test]
fn threaded_swlag_survives_fault_at_various_points() {
    let a = workload::dna(80, 41);
    let b = workload::dna(80, 42);
    let scoring = SwLinearApp::new(a.clone(), b.clone()).scoring;
    let expect = serial::smith_waterman_linear(&a, &b, &scoring);

    for fraction in [0.2, 0.5, 0.8] {
        let app = SwLinearApp::new(a.clone(), b.clone());
        let pattern = app.pattern();
        let config = EngineConfig::flat(4)
            .with_dist(DistKind::BlockRow)
            .with_fault(FaultPlan {
                place: PlaceId(2),
                after_fraction: fraction,
            });
        let result = ThreadedEngine::new(app, pattern, config)
            .run()
            .unwrap_or_else(|e| panic!("fault at {fraction}: {e}"));
        assert!(result.report().epochs >= 2, "fault at {fraction}");
        for i in (0..=a.len() as u32).step_by(7) {
            for j in (0..=b.len() as u32).step_by(5) {
                assert_eq!(result.get(i, j), expect[i as usize][j as usize]);
            }
        }
    }
}

#[test]
fn sim_mtp_survives_fault_under_both_restore_manners() {
    let (h, w, seed) = (60u32, 60u32, 7u64);
    let expect = serial::manhattan_tourist(h, w, seed);
    for manner in [RestoreManner::RecomputeRemote, RestoreManner::CopyRemote] {
        let result = SimEngine::new(
            MtpApp::new(h, w, seed),
            MtpApp::new(h, w, seed).pattern(),
            SimConfig::paper(2)
                .with_restore(manner)
                .with_fault(FaultPlan::mid_run(PlaceId(3))),
        )
        .run()
        .unwrap();
        assert_eq!(
            result.get(h - 1, w - 1),
            expect[(h - 1) as usize][(w - 1) as usize]
        );
        let rec = &result.report().recoveries[0];
        match manner {
            RestoreManner::RecomputeRemote => assert_eq!(rec.migrated, 0),
            RestoreManner::CopyRemote => assert_eq!(rec.dropped, 0),
        }
    }
}

#[test]
fn recovery_accounting_is_coherent() {
    let result = SimEngine::new(
        MtpApp::new(50, 50, 9),
        MtpApp::new(50, 50, 9).pattern(),
        EngineConfig::flat(5).with_fault(FaultPlan::mid_run(PlaceId(4))),
    )
    .run()
    .unwrap();
    let report = result.report();
    assert_eq!(report.epochs, 2);
    let rec = &report.recoveries[0];
    // Everything finished at fault time is kept, dropped or lost.
    let at_fault = rec.kept + rec.dropped + rec.lost + rec.migrated;
    assert!(at_fault > 0, "fault fired mid-run");
    assert!(at_fault <= report.vertices_total);
    // The dropped and lost vertices are computed twice; additionally,
    // any vertex in flight on a worker when the fault fired was computed
    // without being published, so the overshoot is bounded by the
    // cluster's worker-slot count (5 places × 1 thread here).
    let floor = report.vertices_total + rec.dropped + rec.lost;
    let slots = 5;
    assert!(
        (floor..=floor + slots).contains(&report.vertices_computed),
        "computed {} outside [{floor}, {}]",
        report.vertices_computed,
        floor + slots
    );
    assert!(report.recovery_time > std::time::Duration::ZERO);
}

#[test]
fn copy_remote_recomputes_less_than_recompute_remote() {
    let run = |manner| {
        SimEngine::new(
            MtpApp::new(64, 64, 3),
            MtpApp::new(64, 64, 3).pattern(),
            EngineConfig::flat(4)
                .with_dist(DistKind::BlockRow)
                .with_restore(manner)
                .with_fault(FaultPlan::mid_run(PlaceId(2))),
        )
        .run()
        .unwrap()
        .report()
        .clone()
    };
    let recompute = run(RestoreManner::RecomputeRemote);
    let copy = run(RestoreManner::CopyRemote);
    assert!(
        copy.vertices_computed <= recompute.vertices_computed,
        "copying finished work can only reduce recomputation: {} vs {}",
        copy.vertices_computed,
        recompute.vertices_computed
    );
    assert!(copy.recoveries[0].bytes_migrated > 0);
}

#[test]
fn snapshot_baseline_loses_more_work_than_new_recovery() {
    // The paper's §VI-D argument, quantified: with X10's periodic
    // snapshots, everything since the last snapshot is lost; with the
    // paper's method, only the dead place's (and moved) vertices are.
    use dpx10::distarray::{Dist, DistKind as DK, Region2D, ResilientDistArray};
    use std::sync::Arc;

    let places: Vec<PlaceId> = (0..4).map(PlaceId).collect();
    let dist = Arc::new(Dist::new(Region2D::new(16, 16), DK::BlockRow, places));
    let topo = Topology::flat(4);
    let net = NetworkModel::tianhe_like();

    let mut snap_array: ResilientDistArray<i64> = ResilientDistArray::new(dist.clone());
    // Snapshot at 25 % progress...
    for i in 0..4u32 {
        for j in 0..16u32 {
            snap_array.array_mut().set(i, j, 1);
        }
    }
    snap_array.snapshot(&topo, &net);
    // ...then run to 75 % before the failure.
    for i in 4..12u32 {
        for j in 0..16u32 {
            snap_array.array_mut().set(i, j, 1);
        }
    }
    let survivors_after_snapshot = snap_array.restore(&[PlaceId(3)], &topo, &net).values;

    // The paper's method at the same 75 % point.
    let mut live: dpx10::distarray::DistArray<i64> = dpx10::distarray::DistArray::new(dist.clone());
    for i in 0..12u32 {
        for j in 0..16u32 {
            live.set(i, j, 1);
        }
    }
    let (_, rec) = dpx10::distarray::recover(
        &live,
        &[PlaceId(3)],
        RestoreManner::RecomputeRemote,
        &topo,
        &net,
        &dpx10::distarray::RecoveryCostModel::default(),
    );

    assert!(
        rec.kept > survivors_after_snapshot,
        "new recovery keeps {} vs snapshot's {}",
        rec.kept,
        survivors_after_snapshot
    );
}

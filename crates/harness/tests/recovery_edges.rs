//! Recovery edge cases at the engine level: several places dying in the
//! same epoch, and faults triggered at the very start (0 % progress) or
//! the very end (100 % — during result collection) of a run.

use std::time::Duration;

use dpx10_apgas::{local_mesh, ChaosPlan, KillSpec, KillTrigger, PlaceId, SocketConfig};
use dpx10_core::{DagResult, EngineConfig, FaultPlan, SocketEngine, ThreadedEngine};
use dpx10_dag::builtin::Grid3;
use dpx10_harness::{oracle, MixApp};

fn assert_matches_oracle(result: &DagResult<u64>, h: u32, w: u32) {
    let expect = oracle(&Grid3::new(h, w));
    for (id, want) in expect {
        assert_eq!(
            result.try_get(id.i, id.j),
            Some(want),
            "value mismatch at {id}"
        );
    }
}

#[test]
fn two_places_killed_at_the_same_progress_threshold() {
    let mut plan = ChaosPlan::quiet(0x2ED6E);
    plan.kills.push(KillSpec {
        place: PlaceId(1),
        trigger: KillTrigger::Progress(0.3),
    });
    plan.kills.push(KillSpec {
        place: PlaceId(2),
        trigger: KillTrigger::Progress(0.3),
    });
    let config = EngineConfig::flat(4).with_chaos(plan);
    let result = ThreadedEngine::new(MixApp, Grid3::new(10, 10), config)
        .run()
        .expect("run survives a double kill");
    assert_matches_oracle(&result, 10, 10);
    let report = result.report();
    assert!(
        report.epochs >= 2,
        "double kill must abort at least one epoch"
    );
    assert!(!report.recoveries.is_empty());
}

#[test]
fn fault_at_zero_progress_fires_on_the_first_publish() {
    // after_fraction = 0.0 clamps to a threshold of one vertex: the
    // victim dies as early as a progress-triggered kill can fire.
    let config = EngineConfig::flat(3).with_fault(FaultPlan {
        place: PlaceId(1),
        after_fraction: 0.0,
    });
    let result = ThreadedEngine::new(MixApp, Grid3::new(8, 8), config)
        .run()
        .expect("run survives an immediate kill");
    assert_matches_oracle(&result, 8, 8);
    let report = result.report();
    assert!(report.epochs >= 2, "the kill must have fired");
    assert_eq!(report.vertices_total, 64);
}

#[test]
fn fault_at_full_progress_still_completes() {
    // after_fraction = 1.0 clamps to the full vertex count: the kill
    // fires only once every cell has been computed, so the result must
    // be complete and correct whether or not an extra epoch runs.
    let config = EngineConfig::flat(3).with_fault(FaultPlan {
        place: PlaceId(1),
        after_fraction: 1.0,
    });
    let result = ThreadedEngine::new(MixApp, Grid3::new(8, 8), config)
        .run()
        .expect("run survives a kill at completion");
    assert_matches_oracle(&result, 8, 8);
    assert!(result.report().vertices_computed >= 64);
}

#[test]
fn socket_place_dying_during_result_collection() {
    // On the socket mesh a fraction-1.0 fault arms the kill at the full
    // vertex count, so `Die` is queued right as the epoch's collection
    // starts — the victim crashes while the coordinator is gathering
    // results, and the run must still finish with every value intact.
    let (places, h, w) = (3u16, 6u32, 6u32);
    let config = EngineConfig::flat(places).with_fault(FaultPlan {
        place: PlaceId(2),
        after_fraction: 1.0,
    });
    let result = local_mesh(places, |mut cfg: SocketConfig| {
        cfg.heartbeat = Duration::from_millis(25);
        cfg.peer_timeout = Duration::from_millis(600);
        SocketEngine::new(MixApp, Grid3::new(h, w), config.clone())
            .with_soft_die()
            .run(cfg)
    })
    .expect("coordinator holds the result and workers shut down cleanly");
    assert_matches_oracle(&result, h, w);
}

//! Recovery edge cases at the engine level: several places dying in the
//! same epoch, faults triggered at the very start (0 % progress) or the
//! very end (100 % — during result collection) of a run, by the wall
//! clock instead of by progress, and under a perturbed, coalesced
//! transport.

use std::time::Duration;

use dpx10_apgas::{local_mesh, ChaosPlan, KillSpec, KillTrigger, NetChaos, PlaceId, SocketConfig};
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

#[test]
fn two_socket_places_killed_at_the_same_threshold_on_five_places() {
    // Place 0 concludes with four peers, two of them dead, and resumes
    // the two other survivors, each with its own `Resume`: five places
    // is a size where a binomial control tree would relay (1 -> 3).
    let (places, h, w) = (5u16, 30u32, 30u32);
    let mut plan = ChaosPlan::quiet(0x5_57A2);
    for victim in [1, 3] {
        plan.kills.push(KillSpec {
            place: PlaceId(victim),
            trigger: KillTrigger::Progress(0.3),
        });
    }
    let config = EngineConfig::flat(places).with_chaos(plan);
    let result = local_mesh(places, |mut cfg: SocketConfig| {
        cfg.heartbeat = Duration::from_millis(25);
        cfg.peer_timeout = Duration::from_millis(600);
        SocketEngine::new(MixApp, Grid3::new(h, w), config.clone())
            .with_soft_die()
            .run(cfg)
    })
    .expect("coordinator holds the result and survivors shut down cleanly");
    assert_matches_oracle(&result, h, w);
    let report = result.report();
    assert!(report.epochs >= 2, "the double kill must abort an epoch");
    assert!(!report.recoveries.is_empty());
    assert_eq!(
        report.place_busy.len(),
        3,
        "both victims left the roster: the final epoch runs on 0, 2 and 4"
    );
}

#[test]
fn wall_clock_kill_fires_while_the_epoch_runs() {
    // `After(ZERO)` is due at the coordinator's first look at the epoch,
    // whatever the progress: the one path to a kill that no publishing
    // worker takes. The DAG outlives a tick, so the kill lands mid-run.
    let mut plan = ChaosPlan::quiet(0x71CC);
    plan.kills.push(KillSpec {
        place: PlaceId(1),
        trigger: KillTrigger::After(Duration::ZERO),
    });
    let config = EngineConfig::flat(3).with_chaos(plan);
    let result = ThreadedEngine::new(MixApp, Grid3::new(300, 300), config)
        .run()
        .expect("run survives a timed kill");
    assert_matches_oracle(&result, 300, 300);
    assert!(result.report().epochs >= 2, "the kill must have fired");
}

#[test]
fn recovery_under_delay_dup_and_a_tiny_coalescing_budget() {
    // Mailboxes → chaos → coalescing, in that order, and rebuilt for the
    // epoch after the kill: batches must still face the injected delay
    // and duplication, and nothing buffered in the abandoned epoch may
    // leak into the next one.
    let mut plan = ChaosPlan::quiet(0x57AC);
    plan.net = NetChaos {
        delay_prob: 0.2,
        max_delay_ticks: 3,
        dup_prob: 0.2,
        drop_prob: 0.0,
    };
    plan.kills.push(KillSpec {
        place: PlaceId(2),
        trigger: KillTrigger::Progress(0.4),
    });
    let config = EngineConfig::flat(3)
        .with_chaos(plan)
        .with_coalesce(Some(96));
    let result = ThreadedEngine::new(MixApp, Grid3::new(24, 24), config)
        .run()
        .expect("run survives a kill under a perturbed transport");
    assert_matches_oracle(&result, 24, 24);
    let report = result.report();
    assert!(report.epochs >= 2, "the kill must have fired");
    assert!(report.comm.batches_sent > 0, "the run must have coalesced");
}

//! Pull-vs-push differential oracles. Push mode may deliver
//! anti-dependency values eagerly, but the computation must be
//! indistinguishable from the pull plane: same values at every cell as
//! the serial oracle, same `DagResult` fingerprint as a pull run, and
//! the recovery invariants intact when a place dies after pushing.

use std::time::Duration;

use dpx10_apgas::{local_mesh, ChaosPlan, KillSpec, KillTrigger, PlaceId, SocketConfig};
use dpx10_core::{CommsMode, DagResult, EngineConfig, SocketEngine, ThreadedEngine};
use dpx10_dag::builtin::{FullPrevRowCol, Grid3};
use dpx10_harness::{oracle, run_seed, ChaosOptions, MixApp};

/// Fast sweep options with anti-dependency values pushed eagerly.
fn pushed() -> ChaosOptions {
    ChaosOptions {
        sockets: false,
        shrink: false,
        trace_capacity: 2048,
        comms: CommsMode::Push,
        ..ChaosOptions::default()
    }
}

fn assert_matches_oracle(result: &DagResult<u64>, pattern: &dyn dpx10_dag::DagPattern) {
    for (id, want) in oracle(pattern) {
        assert_eq!(
            result.try_get(id.i, id.j),
            Some(want),
            "value mismatch at {id}"
        );
    }
}

#[test]
fn pinned_seeds_pass_pushed_on_sim_and_threads() {
    // The 25 seeds tier-1 pins for the pull plane, re-run in push mode
    // on the simulator and the threaded engine. The serial oracle has
    // no comms plane, so every comparison is pushed-vs-reference.
    let failures: Vec<String> = (0..25u64)
        .map(|seed| run_seed(seed, &pushed()))
        .filter(|r| !r.passed())
        .map(|r| r.render())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn pinned_seeds_pass_pushed_on_the_socket_mesh() {
    let opts = ChaosOptions {
        sockets: true,
        shrink: false,
        trace_capacity: 2048,
        comms: CommsMode::Push,
        ..ChaosOptions::default()
    };
    let failures: Vec<String> = (0..4u64)
        .map(|seed| run_seed(seed, &opts))
        .filter(|r| !r.passed())
        .map(|r| r.render())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn fingerprints_match_pull_vs_push_and_push_actually_pushed() {
    // The same DAG on the threaded engine with no cache, so the pull
    // plane pays a round-trip for every remote dependency: identical
    // result digests, and the push run's stats prove values really
    // travelled the eager path instead of the pull fallback.
    let run = |comms: CommsMode| {
        let config = EngineConfig::flat(3).with_cache(0).with_comms(comms);
        ThreadedEngine::new(MixApp, FullPrevRowCol::new(10, 10), config)
            .run()
            .expect("run completes")
    };
    let pull = run(CommsMode::Pull);
    let push = run(CommsMode::Push);
    assert_eq!(pull.fingerprint(), push.fingerprint());
    assert_eq!(pull.report().comm.pushes_sent, 0);
    assert!(
        push.report().comm.pushes_sent > 0,
        "a push run must forward at least one value eagerly"
    );
    assert!(
        push.report().comm.pull_roundtrips_avoided > 0,
        "pushed values must satisfy parked consumers without a round-trip"
    );
    assert!(
        push.report().comm.pulls_sent < pull.report().comm.pulls_sent,
        "push mode must reduce pull round-trips ({} -> {})",
        pull.report().comm.pulls_sent,
        push.report().comm.pulls_sent
    );
}

#[test]
fn socket_place_killed_after_pushing_recovers() {
    // A place that pushed values to its consumers and then dies is the
    // recovery worst case for the eager plane: the mesh holds pinned
    // values whose producer is gone, and the restored epoch must not
    // admit stale pushes from the previous epoch. A kill at 40 %
    // progress lands after the victim has both pushed and received
    // pushes; the final values still match the oracle and recomputation
    // stays inside the loss budget.
    let (places, h, w) = (3u16, 9u32, 9u32);
    let mut plan = ChaosPlan::quiet(0xB00);
    plan.kills.push(KillSpec {
        place: PlaceId(1),
        trigger: KillTrigger::Progress(0.4),
    });
    let config = EngineConfig::flat(places)
        .with_cache(0)
        .with_chaos(plan)
        .with_comms(CommsMode::Push);
    let result = local_mesh(places, |mut cfg: SocketConfig| {
        cfg.heartbeat = Duration::from_millis(25);
        cfg.peer_timeout = Duration::from_millis(600);
        SocketEngine::new(MixApp, Grid3::new(h, w), config.clone())
            .with_soft_die()
            .run(cfg)
    })
    .expect("coordinator holds the result and workers shut down cleanly");
    assert_matches_oracle(&result, &Grid3::new(h, w));
    let report = result.report();
    assert!(report.epochs >= 2, "the kill must have aborted an epoch");
    assert!(!report.recoveries.is_empty());
    let budget: u64 = report
        .recoveries
        .iter()
        .map(|r| r.lost + r.dropped)
        .sum::<u64>()
        + report.recoveries.len() as u64 * u64::from(h) * u64::from(w);
    assert!(
        report.recomputed() <= budget,
        "recomputed {} exceeds loss budget {budget}",
        report.recomputed()
    );
}

#[test]
fn consumer_that_pulls_anyway_still_gets_a_correct_reply() {
    // Push delivery is best-effort: a consumer whose pushed value was
    // evicted (zero-capacity pin race) or that parked after the push
    // falls back to the pull protocol. Starving the cache while pushing
    // exercises both paths at once on a many-waiter pattern — every
    // cell must still match the oracle.
    let config = EngineConfig::flat(4)
        .with_cache(0)
        .with_comms(CommsMode::Push);
    let pattern = FullPrevRowCol::new(8, 8);
    let result = ThreadedEngine::new(MixApp, pattern, config)
        .run()
        .expect("push mode with pull fallback completes");
    assert_matches_oracle(&result, &FullPrevRowCol::new(8, 8));
}

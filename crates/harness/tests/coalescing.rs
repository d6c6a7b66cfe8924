//! Coalescing-on vs coalescing-off differential oracles. The comms
//! plane may batch messages however it likes, but the computation must
//! be indistinguishable: same values at every cell as the serial
//! oracle, same `DagResult` fingerprint as an uncoalesced run, and the
//! recovery invariants intact when a place dies with batches in flight.

use std::time::Duration;

use dpx10_apgas::{local_mesh, ChaosPlan, KillSpec, KillTrigger, PlaceId, SocketConfig};
use dpx10_core::{DagResult, EngineConfig, SocketEngine, ThreadedEngine};
use dpx10_dag::builtin::{FullPrevRowCol, Grid3};
use dpx10_harness::{oracle, run_seed, ChaosOptions, MixApp};

/// Fast sweep options with the comms plane coalesced at `bytes`.
fn coalesced(bytes: usize) -> ChaosOptions {
    ChaosOptions {
        sockets: false,
        shrink: false,
        coalesce: Some(bytes),
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
fn pinned_seeds_pass_coalesced_on_sim_and_threads() {
    // The same seeds tier-1 pins uncoalesced, re-run with a 4 KiB
    // coalescing budget on the threaded engine. The serial oracle and
    // the simulator never coalesce, so every comparison is
    // batched-vs-unbatched.
    let failures: Vec<String> = (0..12u64)
        .map(|seed| run_seed(seed, &coalesced(4096)))
        .filter(|r| !r.passed())
        .map(|r| r.render())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn tiny_budget_forces_constant_flushing() {
    // A 96-byte budget overflows after one or two Done messages, so
    // every code path alternates between buffering and flushing — the
    // regime most likely to expose ordering or loss bugs.
    let failures: Vec<String> = (0..8u64)
        .map(|seed| run_seed(seed, &coalesced(96)))
        .filter(|r| !r.passed())
        .map(|r| r.render())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn pinned_seeds_pass_coalesced_on_the_socket_mesh() {
    let opts = ChaosOptions {
        sockets: true,
        shrink: false,
        coalesce: Some(4096),
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
fn fingerprints_match_with_and_without_coalescing() {
    // The same DAG on the threaded engine, coalescing off vs on at two
    // budgets: identical result digests, and the coalesced runs really
    // did batch (the stats prove the plane took the new path).
    let run = |coalesce: Option<usize>| {
        let config = EngineConfig::flat(3).with_coalesce(coalesce);
        ThreadedEngine::new(MixApp, Grid3::new(14, 14), config)
            .run()
            .expect("run completes")
    };
    let off = run(None);
    let on = run(Some(4096));
    let tight = run(Some(128));
    assert_eq!(off.fingerprint(), on.fingerprint());
    assert_eq!(off.fingerprint(), tight.fingerprint());
    assert_eq!(off.report().comm.batches_sent, 0);
    assert!(
        on.report().comm.batches_sent > 0,
        "a coalesced run must flush at least one batch"
    );
    assert!(
        on.report().comm.batched_msgs >= on.report().comm.batches_sent,
        "every batch carries at least one message"
    );
}

#[test]
fn socket_place_killed_mid_flush_recovers_batched_vertices() {
    // A 128-byte budget keeps a batch in flight almost constantly, so a
    // kill at 40 % progress lands while the victim holds buffered
    // traffic. Recovery must recompute whatever the dropped batches
    // carried — the final values still match the oracle — and the
    // surviving mesh must not deadlock on messages the victim buffered
    // but never flushed.
    let (places, h, w) = (3u16, 9u32, 9u32);
    let mut plan = ChaosPlan::quiet(0xC0A1);
    plan.kills.push(KillSpec {
        place: PlaceId(1),
        trigger: KillTrigger::Progress(0.4),
    });
    let config = EngineConfig::flat(places)
        .with_chaos(plan)
        .with_coalesce(Some(128));
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
    // Recomputation is bounded by what the failure could have taken
    // down: the victim's lost cells plus in-flight work, never a full
    // restart per recovery beyond the replay budget.
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
fn parked_pull_waiter_survives_owner_death_under_coalescing() {
    // Worst case for the pull path: no cache (every remote dependency
    // pulls), a pattern whose vertices each depend on a full previous
    // row and column (many waiters parked on the same remote cells),
    // a tiny coalescing budget (PullVal replies ride in batches), and
    // the owner of those cells dying mid-run. If a parked waiter's
    // pull was buffered towards a dead place and never resent, the
    // epoch would hang — the engine's stall watchdog turns that into a
    // failure instead of a silent deadlock.
    let mut plan = ChaosPlan::quiet(0xDEAD);
    plan.kills.push(KillSpec {
        place: PlaceId(1),
        trigger: KillTrigger::Progress(0.5),
    });
    let mut config = EngineConfig::flat(3)
        .with_cache(0)
        .with_chaos(plan)
        .with_coalesce(Some(64));
    config.stall_limit = Duration::from_secs(20);
    let pattern = FullPrevRowCol::new(8, 8);
    let result = ThreadedEngine::new(MixApp, pattern, config)
        .run()
        .expect("run survives the owner dying under parked pulls");
    assert_matches_oracle(&result, &FullPrevRowCol::new(8, 8));
    assert!(result.report().epochs >= 2, "the kill must have fired");
}

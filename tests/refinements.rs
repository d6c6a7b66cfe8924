//! Tests of the §VI-E refinements as *behaviours*, not just knobs:
//! distribution changes communication, cache size changes hit rates,
//! min-comm scheduling never moves more bytes than random, the restore
//! manner trades recomputation for migration, and the init override
//! skips work.

use std::sync::Arc;

use dpx10::apps::{workload, MtpApp, SwLinearApp};
use dpx10::prelude::*;

#[test]
fn distribution_controls_communication() {
    // ColWave chains run down columns: a column-block distribution keeps
    // every edge local; a row-block distribution makes every edge cross
    // places (§VI-E "realize a better locality").
    #[derive(Clone)]
    struct Chain;
    impl DpApp for Chain {
        type Value = u64;
        fn compute(&self, id: VertexId, deps: &dpx10::core::DepView<'_, u64>) -> u64 {
            deps.values().next().copied().unwrap_or(id.j as u64) + 1
        }
    }
    let run = |kind: DistKind| {
        SimEngine::new(
            Chain,
            ColWave::new(24, 24),
            EngineConfig::flat(4).with_dist(kind),
        )
        .run()
        .unwrap()
        .report()
        .comm
    };
    let col_blocked = run(DistKind::BlockCol);
    let row_blocked = run(DistKind::BlockRow);
    assert_eq!(
        col_blocked.messages_sent, 0,
        "column blocks keep chains local"
    );
    assert!(row_blocked.messages_sent > 0, "row blocks cut every chain");
}

#[test]
fn bigger_cache_means_fewer_pulls() {
    let run = |cache: usize| {
        let app = SwLinearApp::new(workload::dna(64, 1), workload::dna(64, 2));
        let pattern = app.pattern();
        SimEngine::new(
            app,
            pattern,
            EngineConfig::flat(4)
                .with_dist(DistKind::CyclicCol)
                .with_cache(cache),
        )
        .run()
        .unwrap()
        .report()
        .comm
    };
    let tiny = run(1);
    let big = run(4096);
    assert!(
        big.cache_misses < tiny.cache_misses,
        "misses: big {} < tiny {}",
        big.cache_misses,
        tiny.cache_misses
    );
    assert!(big.cache_hits > 0);
}

#[test]
fn min_comm_never_moves_more_bytes_than_random() {
    let run = |sched: ScheduleStrategy| {
        let app = MtpApp::new(30, 30, 5);
        let pattern = app.pattern();
        SimEngine::new(app, pattern, EngineConfig::flat(4).with_schedule(sched))
            .run()
            .unwrap()
            .report()
            .comm
    };
    let min_comm = run(ScheduleStrategy::MinComm);
    let random = run(ScheduleStrategy::Random);
    assert!(
        min_comm.bytes_sent <= random.bytes_sent,
        "min-comm {} bytes vs random {} bytes",
        min_comm.bytes_sent,
        random.bytes_sent
    );
}

#[test]
fn local_scheduling_is_the_cheapest_in_messages() {
    let run = |sched: ScheduleStrategy| {
        let app = MtpApp::new(24, 24, 5);
        let pattern = app.pattern();
        SimEngine::new(app, pattern, EngineConfig::flat(3).with_schedule(sched))
            .run()
            .unwrap()
            .report()
            .comm
            .messages_sent
    };
    let local = run(ScheduleStrategy::Local);
    let random = run(ScheduleStrategy::Random);
    assert!(local <= random, "local {local} vs random {random}");
}

#[test]
fn init_override_skips_prefinished_work() {
    #[derive(Clone)]
    struct Sum;
    impl DpApp for Sum {
        type Value = u64;
        fn compute(&self, _id: VertexId, deps: &dpx10::core::DepView<'_, u64>) -> u64 {
            deps.values().sum::<u64>() + 1
        }
    }
    // Pre-finish the top half of a column-wave: only the bottom half
    // computes.
    let init: dpx10::core::InitOverride<u64> = Arc::new(|i, _j| (i < 8).then_some(100));
    let result = SimEngine::new(Sum, ColWave::new(16, 4), EngineConfig::flat(2))
        .with_init(init)
        .run()
        .unwrap();
    assert_eq!(result.report().vertices_computed, 8 * 4);
    assert_eq!(result.get(7, 0), 100);
    assert_eq!(result.get(8, 0), 101);
    assert_eq!(result.get(15, 3), 108);
}

#[test]
fn spill_store_round_trips_engine_results() {
    // Future-work extension (§X): spill every finished value to the
    // per-place checkpoint logs and replay them as an init override.
    let mut dir = std::env::temp_dir();
    dir.push(format!("dpx10-refine-spill-{}", std::process::id()));
    let app = MtpApp::new(10, 10, 11);
    let pattern = app.pattern();
    let mut config = EngineConfig::flat(2);
    config.checkpoint = Some(dpx10::core::CheckpointConfig::new(&dir));
    let result = ThreadedEngine::new(app, pattern, config).run().unwrap();

    // Replay as init override: the engine should compute nothing.
    let init = dpx10::core::load_checkpoint::<i64>(&dir, 2).unwrap();
    let app = MtpApp::new(10, 10, 11);
    let pattern = app.pattern();
    let resumed = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
        .with_init(init)
        .run()
        .unwrap();
    assert_eq!(resumed.report().vertices_computed, 0);
    for i in 0..10 {
        for j in 0..10 {
            assert_eq!(resumed.get(i, j), result.get(i, j), "({i}, {j})");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

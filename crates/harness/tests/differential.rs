//! Pinned-seed differential suite — the tier-1 slice of the chaos
//! harness. The wide random sweep lives in `dpx10 chaos`; these seeds
//! are pinned so a regression fails the same way on every machine.

use dpx10_apps::{serial, GapApp, LwsApp};
use dpx10_core::{EngineConfig, ThreadedEngine};
use dpx10_harness::{run_seed, ChaosOptions};
use dpx10_sim::SimEngine;
use proptest::prelude::*;

/// Fast options: serial + sim + threads. Socket runs pay real
/// wall-clock for death detection, so they get their own smaller set.
fn fast() -> ChaosOptions {
    ChaosOptions {
        sockets: false,
        shrink: false,
        coalesce: None,
        ..ChaosOptions::default()
    }
}

#[test]
fn pinned_seeds_pass_on_sim_and_threads() {
    let failures: Vec<String> = (0..24u64)
        .map(|seed| run_seed(seed, &fast()))
        .filter(|r| !r.passed())
        .map(|r| r.render())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn pinned_seeds_pass_on_the_socket_mesh() {
    let opts = ChaosOptions {
        sockets: true,
        shrink: false,
        coalesce: None,
        ..ChaosOptions::default()
    };
    let failures: Vec<String> = (0..6u64)
        .map(|seed| run_seed(seed, &opts))
        .filter(|r| !r.passed())
        .map(|r| r.render())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn seed_reports_render_bit_for_bit_identically() {
    for seed in [3u64, 7, 11] {
        let a = run_seed(seed, &fast()).render();
        let b = run_seed(seed, &fast()).render();
        assert_eq!(a, b, "seed {seed} must reproduce exactly");
    }
}

// The nested-dataflow strategies: randomized sizes and weight-table
// seeds, each drawn case checked oracle-vs-sim (enumerated adapter)
// and oracle-vs-threads with prefix aggregation both on and off. The
// socket-mesh half of this contract lives in `tests/nested.rs` with
// pinned seeds (kills pay real wall-clock, so they stay bounded).
proptest! {
    #[test]
    fn lws_differential(n in 2u32..72, seed in 0u64..1_000_000) {
        let want = serial::lws(n, seed);
        let app = LwsApp::new(n, seed);
        let sim = SimEngine::new(app, app.pattern(), EngineConfig::flat(2))
            .run()
            .expect("sim run");
        let agg_on = ThreadedEngine::new(app, app.pattern(), EngineConfig::flat(3))
            .run()
            .expect("threads agg-on");
        let agg_off = ThreadedEngine::new(
            app,
            app.pattern(),
            EngineConfig::flat(3).with_aggregation(false),
        )
        .run()
        .expect("threads agg-off");
        for j in 0..n {
            prop_assert_eq!(sim.get(0, j), want[j as usize], "sim at j={}", j);
            prop_assert_eq!(agg_on.get(0, j), want[j as usize], "agg-on at j={}", j);
            prop_assert_eq!(agg_off.get(0, j), want[j as usize], "agg-off at j={}", j);
        }
        prop_assert_eq!(sim.fingerprint(), agg_on.fingerprint());
        prop_assert_eq!(sim.fingerprint(), agg_off.fingerprint());
    }

    #[test]
    fn gap_differential(h in 2u32..13, w in 2u32..13, seed in 0u64..1_000_000) {
        let want = serial::gap(h, w, seed);
        let app = GapApp::new(h, w, seed);
        let sim = SimEngine::new(app, app.pattern(), EngineConfig::flat(2))
            .run()
            .expect("sim run");
        let agg_on = ThreadedEngine::new(app, app.pattern(), EngineConfig::flat(3))
            .run()
            .expect("threads agg-on");
        let agg_off = ThreadedEngine::new(
            app,
            app.pattern(),
            EngineConfig::flat(3).with_aggregation(false),
        )
        .run()
        .expect("threads agg-off");
        for i in 0..h {
            for j in 0..w {
                let cell = want[i as usize][j as usize];
                prop_assert_eq!(sim.get(i, j), cell, "sim at ({}, {})", i, j);
                prop_assert_eq!(agg_on.get(i, j), cell, "agg-on at ({}, {})", i, j);
                prop_assert_eq!(agg_off.get(i, j), cell, "agg-off at ({}, {})", i, j);
            }
        }
        prop_assert_eq!(sim.fingerprint(), agg_on.fingerprint());
        prop_assert_eq!(sim.fingerprint(), agg_off.fingerprint());
    }

    /// A starved cache must not break aggregated reads: raw remote
    /// values get evicted, lanes are residents.
    #[test]
    fn lws_aggregates_survive_starved_caches(n in 8u32..64, seed in 0u64..100_000) {
        let want = serial::lws(n, seed);
        let app = LwsApp::new(n, seed);
        let result = ThreadedEngine::new(
            app,
            app.pattern(),
            EngineConfig::flat(4).with_cache(2),
        )
        .run()
        .expect("starved run");
        for j in 0..n {
            prop_assert_eq!(result.get(0, j), want[j as usize], "j={}", j);
        }
        prop_assert_eq!(result.report().comm.pulls_sent, 0);
    }
}

#[test]
fn failure_trace_is_written_and_parses() {
    // Any seed works: the writer records whatever the scenario does,
    // pass or fail, and must always produce a valid Chrome trace.
    let path = dpx10_harness::write_failure_trace(5).expect("trace written");
    let json = std::fs::read_to_string(&path).expect("trace readable");
    let events = dpx10_obs::chrome::parse(&json).expect("trace parses");
    assert!(!events.is_empty());
    dpx10_obs::chrome::check_nesting(&events).expect("spans nest");
    let _ = std::fs::remove_file(&path);
}

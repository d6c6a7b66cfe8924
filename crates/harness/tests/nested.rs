//! Nested-dataflow differential suite: LWS and GAP against their serial
//! oracles on every backend, with prefix aggregation on and off, and
//! under kill/recovery chaos on the in-process socket mesh.
//!
//! The simulator always executes the enumerated interval adapter, so a
//! sim-vs-threads agreement here is itself a differential check of the
//! prefix-aggregated path against the brute one.

use std::sync::Arc;
use std::time::Duration;

use dpx10_apgas::{local_mesh, ChaosPlan, KillSpec, KillTrigger, NetChaos, PlaceId, SocketConfig};
use dpx10_apps::{serial, GapApp, LwsApp};
use dpx10_core::{
    DagResult, DpApp, EngineConfig, RunReport, SocketEngine, ThreadedEngine, VertexValue,
};
use dpx10_dag::DagPattern;
use dpx10_distarray::{Dist, DistArray, Region2D};
use dpx10_sim::SimEngine;

/// Fingerprints a dense serial table through the same digest the
/// engines use, so oracle-vs-backend comparison is a single u64.
fn table_fingerprint(height: u32, width: u32, cell: impl Fn(u32, u32) -> u32) -> u64 {
    let dist = Dist::default_block_col(Region2D::new(height, width), vec![PlaceId(0)]);
    let mut arr = DistArray::new(Arc::new(dist));
    for i in 0..height {
        for j in 0..width {
            arr.set(i, j, cell(i, j));
        }
    }
    DagResult::new(arr, RunReport::default()).fingerprint()
}

fn lws_oracle_fp(n: u32, seed: u64) -> u64 {
    let d = serial::lws(n, seed);
    table_fingerprint(1, n, |_, j| d[j as usize])
}

fn gap_oracle_fp(h: u32, w: u32, seed: u64) -> u64 {
    let g = serial::gap(h, w, seed);
    table_fingerprint(h, w, |i, j| g[i as usize][j as usize])
}

fn threads_fp<A, P>(app: A, pattern: P, cfg: EngineConfig) -> u64
where
    A: DpApp + 'static,
    A::Value: VertexValue,
    P: DagPattern + 'static,
{
    ThreadedEngine::new(app, pattern, cfg)
        .run()
        .expect("threaded run")
        .fingerprint()
}

fn sim_fp<A, P>(app: A, pattern: P, places: u16) -> u64
where
    A: DpApp + 'static,
    A::Value: VertexValue,
    P: DagPattern + 'static,
{
    SimEngine::new(app, pattern, EngineConfig::flat(places))
        .run()
        .expect("sim run")
        .fingerprint()
}

/// The in-process TCP mesh (every place a thread, same idiom as the
/// chaos runner), with soft-crash kills and tight death detection.
fn sockets_run<A, P, F>(
    app: A,
    pattern_of: F,
    places: u16,
    cfg: EngineConfig,
) -> DagResult<A::Value>
where
    A: DpApp + Clone + 'static,
    A::Value: VertexValue,
    P: DagPattern + 'static,
    F: Fn() -> P + Sync,
{
    local_mesh(places, |mut sc: SocketConfig| {
        sc.heartbeat = Duration::from_millis(25);
        sc.peer_timeout = Duration::from_millis(600);
        SocketEngine::new(app.clone(), pattern_of(), cfg.clone())
            .with_soft_die()
            .run(sc)
    })
    .expect("coordinator result, workers shut down cleanly")
}

fn mesh_config(places: u16, agg: bool, plan: Option<ChaosPlan>) -> EngineConfig {
    let mut cfg = EngineConfig::flat(places).with_aggregation(agg);
    if let Some(plan) = plan {
        cfg = cfg.with_chaos(plan);
    }
    cfg.stall_limit = Duration::from_secs(20);
    cfg
}

fn one_kill(seed: u64, victim: u16, frac: f64) -> ChaosPlan {
    ChaosPlan {
        seed,
        kills: vec![KillSpec {
            place: PlaceId(victim),
            trigger: KillTrigger::Progress(frac),
        }],
        net: NetChaos::off(),
        flap: None,
        shake: false,
    }
}

#[test]
fn lws_matches_serial_on_every_backend() {
    for seed in [1u64, 7, 42] {
        let n = 48;
        let want = lws_oracle_fp(n, seed);
        let app = LwsApp::new(n, seed);
        assert_eq!(sim_fp(app, app.pattern(), 3), want, "sim seed {seed}");
        assert_eq!(
            threads_fp(app, app.pattern(), EngineConfig::flat(3)),
            want,
            "threads agg-on seed {seed}"
        );
        assert_eq!(
            threads_fp(
                app,
                app.pattern(),
                EngineConfig::flat(3).with_aggregation(false)
            ),
            want,
            "threads agg-off seed {seed}"
        );
    }
}

#[test]
fn gap_matches_serial_on_every_backend() {
    for seed in [2u64, 31, 99] {
        let (h, w) = (10, 12);
        let want = gap_oracle_fp(h, w, seed);
        let app = GapApp::new(h, w, seed);
        assert_eq!(sim_fp(app, app.pattern(), 3), want, "sim seed {seed}");
        assert_eq!(
            threads_fp(app, app.pattern(), EngineConfig::flat(3)),
            want,
            "threads agg-on seed {seed}"
        );
        assert_eq!(
            threads_fp(
                app,
                app.pattern(),
                EngineConfig::flat(3).with_aggregation(false)
            ),
            want,
            "threads agg-off seed {seed}"
        );
    }
}

#[test]
fn lws_and_gap_match_serial_on_the_quiet_socket_mesh() {
    let lws = LwsApp::new(40, 11);
    let result = sockets_run(lws, move || lws.pattern(), 3, mesh_config(3, true, None));
    assert_eq!(result.fingerprint(), lws_oracle_fp(40, 11));
    // LWS has no point dependencies: with lanes resident at every place
    // the aggregated mesh never issues a pull round-trip.
    assert_eq!(
        result.report().comm.pulls_sent,
        0,
        "interval reads must come from lanes, not pulls"
    );

    let gap = GapApp::new(9, 11, 5);
    let result = sockets_run(gap, move || gap.pattern(), 3, mesh_config(3, true, None));
    assert_eq!(result.fingerprint(), gap_oracle_fp(9, 11, 5));
}

/// Satellite: 25 pinned seeds of LWS/GAP under kill/recovery on the
/// socket mesh, prefix aggregation on. Each seed kills one worker place
/// at a seed-derived progress fraction; the coordinator fires the kill
/// before it can declare the epoch done, so every run recovers at least
/// once and must still fingerprint-match its serial oracle.
#[test]
fn nested_apps_survive_kill_recovery_on_sockets_25_seeds() {
    let mut recovered = 0u32;
    for seed in 0..25u64 {
        let victim = 1 + (seed % 2) as u16;
        let frac = 0.15 + (seed % 7) as f64 * 0.1;
        let cfg = mesh_config(3, true, Some(one_kill(seed, victim, frac)));
        let (fp, want, recoveries) = if seed % 2 == 0 {
            let app = LwsApp::new(40, seed + 1);
            let r = sockets_run(app, move || app.pattern(), 3, cfg);
            (
                r.fingerprint(),
                lws_oracle_fp(40, seed + 1),
                r.report().recoveries.len(),
            )
        } else {
            let app = GapApp::new(8, 9, seed + 1);
            let r = sockets_run(app, move || app.pattern(), 3, cfg);
            (
                r.fingerprint(),
                gap_oracle_fp(8, 9, seed + 1),
                r.report().recoveries.len(),
            )
        };
        assert_eq!(fp, want, "seed {seed} diverged from the serial oracle");
        recovered += (recoveries > 0) as u32;
    }
    assert_eq!(
        recovered, 25,
        "every pinned seed kills a live place before the epoch can finish"
    );
}

/// Regression pin: a kill in the middle of the GAP wavefront, where the
/// victim owns both finished lane contributions and unfinished cells.
/// Recovery re-seeds aggregates from surviving values only; the
/// meta-only prefinished cells left by the Resume scatter must ride the
/// interval-gap pull path, and the result must still match the oracle.
#[test]
fn kill_during_gap_wavefront_recovers_with_aggregation() {
    let app = GapApp::new(12, 12, 77);
    let cfg = mesh_config(3, true, Some(one_kill(0x77, 1, 0.35)));
    let result = sockets_run(app, move || app.pattern(), 3, cfg);
    assert_eq!(result.fingerprint(), gap_oracle_fp(12, 12, 77));
    assert!(
        !result.report().recoveries.is_empty(),
        "the pinned kill must actually interrupt the wavefront"
    );
}

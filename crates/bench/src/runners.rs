//! Application runners on the simulated cluster (and the two Fig. 12
//! comparators), parameterised exactly along the paper's sweep axes.

use std::time::Duration;

use dpx10_apps::{workload, KnapsackApp, LpsApp, MtpApp, SwlagApp};
use dpx10_baseline::{framework_cost_model, native_cost_model, NativeSwlag};
use dpx10_core::{
    run_tiled_threaded, DistKind, EngineConfig, FaultPlan, PlaceId, RestoreManner, RunReport,
    ThreadedEngine,
};
use dpx10_sim::{SimConfig, SimEngine};

/// The four evaluation applications of §VIII.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppKind {
    /// Smith-Waterman, linear + affine gap.
    Swlag,
    /// Manhattan Tourists Problem.
    Mtp,
    /// Longest Palindromic Subsequence.
    Lps,
    /// 0/1 Knapsack Problem.
    Knapsack,
}

impl AppKind {
    /// All four, in the paper's order.
    pub const ALL: [AppKind; 4] = [
        AppKind::Swlag,
        AppKind::Mtp,
        AppKind::Lps,
        AppKind::Knapsack,
    ];

    /// Display name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Swlag => "SWLAG",
            AppKind::Mtp => "MTP",
            AppKind::Lps => "LPS",
            AppKind::Knapsack => "0/1KP",
        }
    }

    /// SWLAG's affine-gap cell does roughly 1.5× the work of the other
    /// apps' cells; the cost model reflects that (DESIGN.md §6).
    fn compute_ns(self) -> u64 {
        match self {
            AppKind::Swlag => 90,
            _ => 60,
        }
    }

    /// The paper's knapsack runs distribute by row (the recurrence only
    /// looks one row up); grids use the framework default (by column).
    fn dist(self) -> DistKind {
        match self {
            AppKind::Knapsack => DistKind::BlockRow,
            _ => DistKind::BlockCol,
        }
    }
}

/// Knapsack capacity used throughout the harness.
pub const KNAPSACK_CAPACITY: u32 = 999;

/// Runs `app` with ~`vertices` vertices on a simulated `nodes`-node
/// paper cluster, returning the run report (`sim_time` = makespan).
pub fn run_sim(app: AppKind, vertices: u64, nodes: u16) -> RunReport {
    run_sim_with(app, vertices, nodes, |c| c)
}

/// [`run_sim`] with a config hook for ablations.
pub fn run_sim_with(
    app: AppKind,
    vertices: u64,
    nodes: u16,
    tweak: impl FnOnce(SimConfig) -> SimConfig,
) -> RunReport {
    let config = tweak(
        SimConfig::paper(nodes)
            .with_dist(app.dist())
            .with_cost(dpx10_sim::CostModel::with_compute(app.compute_ns())),
    );
    match app {
        AppKind::Swlag => {
            let n = workload::side_for_vertices(vertices) as usize;
            let a = SwlagApp::new(workload::dna(n, 1), workload::dna(n, 2));
            let pattern = a.pattern();
            SimEngine::new(a, pattern, config)
                .run()
                .unwrap()
                .report()
                .clone()
        }
        AppKind::Mtp => {
            let n = workload::side_for_vertices(vertices) + 1;
            let a = MtpApp::new(n, n, 42);
            let pattern = a.pattern();
            SimEngine::new(a, pattern, config)
                .run()
                .unwrap()
                .report()
                .clone()
        }
        AppKind::Lps => {
            let n = ((vertices as f64 * 2.0).sqrt() as usize).max(2);
            let a = LpsApp::new(workload::letters(n, 3));
            let pattern = a.pattern();
            SimEngine::new(a, pattern, config)
                .run()
                .unwrap()
                .report()
                .clone()
        }
        AppKind::Knapsack => {
            let items = workload::knapsack_items(
                workload::knapsack_shape_for_vertices(vertices, KNAPSACK_CAPACITY),
                64,
                4,
            );
            let a = KnapsackApp::new(items, KNAPSACK_CAPACITY);
            let pattern = a.pattern();
            SimEngine::new(a, pattern, config)
                .run()
                .unwrap()
                .report()
                .clone()
        }
    }
}

/// Fig. 12 pairing on the simulator: (DPX10 makespan, native makespan)
/// for SWLAG at ~`vertices` vertices on `nodes` nodes.
///
/// The paper disables the cache on both sides; here both sides run the
/// *same* communication configuration (push-decrement protocol, default
/// cache) and differ only in per-vertex bookkeeping cost — with the
/// cache disabled the simulated run degenerates to pull-latency-bound
/// and the per-vertex overhead becomes invisible (ratio → 1.000), which
/// hides exactly the quantity Fig. 12 measures.
pub fn sim_overhead_pair(vertices: u64, nodes: u16) -> (Duration, Duration) {
    let n = workload::side_for_vertices(vertices) as usize;
    let run = |cost| {
        let a = SwlagApp::new(workload::dna(n, 1), workload::dna(n, 2));
        let pattern = a.pattern();
        SimEngine::new(a, pattern, SimConfig::paper(nodes).with_cost(cost))
            .run()
            .unwrap()
            .report()
            .sim_time
    };
    (run(framework_cost_model(90)), run(native_cost_model(90)))
}

/// Fig. 12 pairing with *real wall time* on this machine: the threaded
/// DPX10 engine, per cell and with `tile × tile` blocking, vs the
/// hand-written pipeline, same sequences, cache disabled. On a 1-core
/// host all three run serially, so the ratios isolate per-vertex
/// framework overhead exactly. Returns (per-cell, tiled, native); the
/// tiled time is the whole `run_tiled_threaded` call, tile-table scan
/// included.
pub fn threaded_overhead_pair(
    side: usize,
    places: u16,
    tile: u32,
) -> (Duration, Duration, Duration) {
    let a = workload::dna(side, 1);
    let b = workload::dna(side, 2);
    let config = EngineConfig::flat(places).with_cache(0);

    let app = SwlagApp::new(a.clone(), b.clone());
    let pattern = app.pattern();
    let fw = ThreadedEngine::new(app, pattern, config.clone())
        .run()
        .unwrap()
        .report()
        .wall_time;

    let app = SwlagApp::new(a.clone(), b.clone());
    let pattern = app.pattern();
    let t0 = std::time::Instant::now();
    let run = run_tiled_threaded(app, pattern, tile, config).unwrap();
    let tiled = t0.elapsed();
    std::hint::black_box(run.tiles());

    let t0 = std::time::Instant::now();
    let native = NativeSwlag::new(a, b, places);
    std::hint::black_box(native.run());
    (fw, tiled, t0.elapsed())
}

/// Fig. 13 runner: SWLAG with a mid-run failure on a `nodes`-node
/// simulated cluster. Returns (clean makespan, faulty makespan,
/// recovery time).
pub fn run_recovery(
    vertices: u64,
    nodes: u16,
    manner: RestoreManner,
) -> (Duration, Duration, Duration) {
    let clean = run_sim(AppKind::Swlag, vertices, nodes).sim_time;
    let report = run_sim_with(AppKind::Swlag, vertices, nodes, |c| {
        c.with_restore(manner)
            .with_fault(FaultPlan::mid_run(PlaceId(Topo::victim(nodes))))
    });
    (clean, report.sim_time, report.recovery_time)
}

/// Picks the last place as the fault victim (never place 0).
struct Topo;

impl Topo {
    fn victim(nodes: u16) -> u16 {
        2 * nodes - 1
    }
}

/// A threaded-engine fault run for the recovery tests/benches on real
/// threads (small scale).
pub fn threaded_recovery(side: u32, places: u16) -> RunReport {
    let app = MtpApp::new(side, side, 5);
    let pattern = app.pattern();
    ThreadedEngine::new(
        app,
        pattern,
        EngineConfig::flat(places)
            .with_dist(DistKind::BlockRow)
            .with_fault(FaultPlan::mid_run(PlaceId(places - 1))),
    )
    .run()
    .unwrap()
    .report()
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_produce_sane_reports() {
        for app in AppKind::ALL {
            let report = run_sim(app, 20_000, 2);
            assert!(report.sim_time > Duration::ZERO, "{app:?}");
            assert_eq!(report.vertices_computed, report.vertices_total);
        }
    }

    #[test]
    fn overhead_pair_framework_is_slower() {
        let (fw, native) = sim_overhead_pair(20_000, 2);
        assert!(fw > native);
        let ratio = fw.as_secs_f64() / native.as_secs_f64();
        assert!(ratio < 1.5, "overhead ratio {ratio} should be modest");
    }

    #[test]
    fn recovery_run_costs_time() {
        let (clean, faulty, rec) = run_recovery(20_000, 2, RestoreManner::RecomputeRemote);
        assert!(faulty > clean);
        assert!(rec > Duration::ZERO);
    }
}

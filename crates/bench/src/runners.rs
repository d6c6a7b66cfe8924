//! The simulated-cluster runners behind the paper's figures (and the
//! two Fig. 12 comparators), parameterised along the paper's sweep axes.

use std::time::Duration;

use dpx10_apps::{with_app, workload, AppKind, AppVisitor, CatalogApp, SwlagApp};
use dpx10_baseline::{framework_cost_model, native_cost_model, NativeSwlag};
use dpx10_core::{
    run_tiled_threaded, DistKind, EngineConfig, FaultPlan, PlaceId, RestoreManner, RunReport,
    ThreadedEngine,
};
use dpx10_sim::{CostModel, SimConfig, SimEngine};

/// One of the four evaluation applications of §VIII, as the figures
/// run it.
#[derive(Clone, Debug)]
pub struct PaperApp {
    /// The catalog app.
    pub kind: AppKind,
    /// The name the figures print.
    pub name: &'static str,
    /// The workload seed the committed `results/*.csv` were generated
    /// from.
    pub seed: u64,
    /// The paper's knapsack runs distribute by row (the recurrence only
    /// looks one row up); grids use the framework default (by column).
    pub dist: DistKind,
}

/// Smith-Waterman, linear + affine gap.
pub const SWLAG: PaperApp = PaperApp {
    kind: AppKind::Swlag,
    name: "SWLAG",
    seed: 1,
    dist: DistKind::BlockCol,
};
/// Manhattan Tourists Problem.
pub const MTP: PaperApp = PaperApp {
    kind: AppKind::Mtp,
    name: "MTP",
    seed: 42,
    dist: DistKind::BlockCol,
};
/// Longest Palindromic Subsequence.
pub const LPS: PaperApp = PaperApp {
    kind: AppKind::Lps,
    name: "LPS",
    seed: 3,
    dist: DistKind::BlockCol,
};
/// 0/1 Knapsack Problem.
pub const KNAPSACK: PaperApp = PaperApp {
    kind: AppKind::Knapsack,
    name: "0/1KP",
    seed: 4,
    dist: DistKind::BlockRow,
};

/// All four, in the paper's order.
pub const PAPER_APPS: [PaperApp; 4] = [SWLAG, MTP, LPS, KNAPSACK];

/// Runs `app` with ~`vertices` vertices on a simulated `nodes`-node
/// paper cluster, returning the run report (`sim_time` = makespan).
pub fn run_sim(app: &PaperApp, vertices: u64, nodes: u16) -> RunReport {
    run_sim_with(app, vertices, nodes, |c| c)
}

/// [`run_sim`] with a config hook for ablations.
pub fn run_sim_with(
    app: &PaperApp,
    vertices: u64,
    nodes: u16,
    tweak: impl FnOnce(SimConfig) -> SimConfig,
) -> RunReport {
    let config = |cost| {
        tweak(
            SimConfig::paper(nodes)
                .with_dist(app.dist.clone())
                .with_cost(cost),
        )
    };
    with_app(app.kind, vertices, app.seed, SimRun(config))
}

/// Runs the visited app on the simulator under the config `.0` builds
/// from the app's cost model.
struct SimRun<F>(F);

impl<F: FnOnce(CostModel) -> SimConfig> AppVisitor for SimRun<F> {
    type Out = RunReport;

    fn visit<A: CatalogApp>(self, app: A) -> RunReport {
        let config = (self.0)(CostModel::with_compute(A::SIM_COMPUTE_NS));
        let pattern = app.dag();
        SimEngine::new(app, pattern, config)
            .run()
            .unwrap()
            .report()
            .clone()
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
    let run = |cost| {
        let visitor = SimRun(|_| SimConfig::paper(nodes).with_cost(cost));
        with_app(SWLAG.kind, vertices, SWLAG.seed, visitor).sim_time
    };
    let cell_ns = SwlagApp::SIM_COMPUTE_NS;
    (
        run(framework_cost_model(cell_ns)),
        run(native_cost_model(cell_ns)),
    )
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
    let clean = run_sim(&SWLAG, vertices, nodes).sim_time;
    let report = run_sim_with(&SWLAG, vertices, nodes, |c| {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_produce_sane_reports() {
        for app in &PAPER_APPS {
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

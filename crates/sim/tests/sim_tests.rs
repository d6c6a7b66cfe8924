//! Differential and behavioural tests of the simulator: results must
//! match a serial oracle (and hence the threaded engine, which is tested
//! against the same oracle); makespans must be deterministic and move in
//! the directions the paper's figures show.

use std::time::Duration;

use dpx10_core::{DepView, DistKind, DpApp, FaultPlan, PlaceId, ScheduleStrategy};
use dpx10_dag::{builtin::*, topological_order, DagPattern, KnapsackDag, VertexId};
use dpx10_obs::{summary, EventKind, Recorder};
use dpx10_sim::{CostModel, SimConfig, SimEngine};

struct MixApp;

impl DpApp for MixApp {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        let mut acc = 0x9E37_79B9_u64.wrapping_mul(id.pack() | 1).rotate_left(7);
        for (did, v) in deps.iter() {
            acc = acc
                .wrapping_add(v.rotate_left((did.i % 31) + 1))
                .wrapping_mul(0x100_0000_01B3);
        }
        acc
    }
}

fn oracle<P: DagPattern>(pattern: &P) -> std::collections::HashMap<VertexId, u64> {
    let order = topological_order(pattern).expect("acyclic");
    let mut out = std::collections::HashMap::new();
    let mut deps = Vec::new();
    for id in order {
        deps.clear();
        pattern.dependencies(id.i, id.j, &mut deps);
        let vals: Vec<u64> = deps.iter().map(|d| out[d]).collect();
        out.insert(id, MixApp.compute(id, &DepView::new(&deps, &vals)));
    }
    out
}

fn check(pattern: impl DagPattern + Clone + 'static, config: SimConfig) -> Duration {
    let expect = oracle(&pattern);
    let result = SimEngine::new(MixApp, pattern, config)
        .run()
        .expect("completes");
    for (id, v) in &expect {
        assert_eq!(result.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
    result.report().sim_time
}

#[test]
fn matches_oracle_across_patterns_and_distributions() {
    for kind in dpx10_dag::BuiltinKind::ALL {
        check(
            KindWrap(kind, 9, 9),
            SimConfig::flat(3).with_dist(DistKind::BlockRow),
        );
    }
    check(
        Grid3::new(15, 11),
        SimConfig::flat(4).with_dist(DistKind::CyclicCol),
    );
    check(
        KnapsackDag::new(vec![3, 1, 4, 1, 5], 16),
        SimConfig::flat(3).with_dist(DistKind::BlockRow),
    );
}

/// Adapter: lets a `BuiltinKind` act as a cloneable pattern for `check`.
#[derive(Clone)]
struct KindWrap(dpx10_dag::BuiltinKind, u32, u32);

impl DagPattern for KindWrap {
    fn height(&self) -> u32 {
        self.0.instantiate(self.1, self.2).height()
    }
    fn width(&self) -> u32 {
        self.0.instantiate(self.1, self.2).width()
    }
    fn contains(&self, i: u32, j: u32) -> bool {
        self.0.instantiate(self.1, self.2).contains(i, j)
    }
    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        self.0.instantiate(self.1, self.2).dependencies(i, j, out)
    }
    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        self.0
            .instantiate(self.1, self.2)
            .anti_dependencies(i, j, out)
    }
    fn vertex_count(&self) -> u64 {
        self.0.instantiate(self.1, self.2).vertex_count()
    }
}

#[test]
fn all_schedulers_match_oracle() {
    for strat in ScheduleStrategy::ALL {
        // Work stealing falls back to local in the simulator's dispatch.
        check(Grid3::new(12, 12), SimConfig::flat(3).with_schedule(strat));
    }
}

#[test]
fn zero_cache_still_correct() {
    check(
        Grid3::new(10, 10),
        SimConfig::flat(4)
            .with_cache(0)
            .with_dist(DistKind::CyclicCol),
    );
}

#[test]
fn deterministic_makespan() {
    let a = check(Grid3::new(20, 20), SimConfig::paper(2));
    let b = check(Grid3::new(20, 20), SimConfig::paper(2));
    assert_eq!(a, b, "identical configs must give identical makespans");
}

#[test]
fn more_nodes_speed_up_grid_wavefront() {
    // The Fig. 10 direction: a 300×300 grid3 should get faster from 1 to
    // 4 nodes (paper-shaped places).
    let t1 = check(Grid3::new(300, 300), SimConfig::paper(1));
    let t4 = check(Grid3::new(300, 300), SimConfig::paper(4));
    assert!(t4 < t1, "4 nodes ({t4:?}) should beat 1 node ({t1:?})");
}

#[test]
fn makespan_grows_with_size() {
    // The Fig. 11 direction: linear-ish growth with vertex count.
    let t1 = check(Grid3::new(100, 100), SimConfig::paper(2));
    let t4 = check(Grid3::new(200, 200), SimConfig::paper(2));
    assert!(t4 > t1);
}

#[test]
fn makespan_at_least_critical_path() {
    let n = 64;
    let t = check(Grid3::new(n, n), SimConfig::paper(4));
    let per_vertex = CostModel::default().compute + CostModel::default().framework_overhead;
    let lower_bound = per_vertex * (2 * n - 1);
    assert!(
        t >= lower_bound,
        "makespan {t:?} below the dependency-chain bound {lower_bound:?}"
    );
}

#[test]
fn fault_recovery_correct_and_costly() {
    let pattern = Grid3::new(40, 40);
    let expect = oracle(&pattern);
    let clean = SimEngine::new(MixApp, pattern, SimConfig::flat(4))
        .run()
        .unwrap();
    let pattern = Grid3::new(40, 40);
    let faulty = SimEngine::new(
        MixApp,
        pattern,
        SimConfig::flat(4).with_fault(FaultPlan::mid_run(PlaceId(3))),
    )
    .run()
    .unwrap();
    for (id, v) in &expect {
        assert_eq!(faulty.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
    let (cr, fr) = (clean.report(), faulty.report());
    assert_eq!(fr.epochs, 2);
    assert_eq!(fr.recoveries.len(), 1);
    assert!(fr.sim_time > cr.sim_time, "a fault must cost time");
    assert!(fr.vertices_computed >= cr.vertices_computed);
}

#[test]
fn fault_on_place_zero_rejected() {
    let engine = SimEngine::new(
        MixApp,
        Grid2::new(4, 4),
        SimConfig::flat(2).with_fault(FaultPlan::mid_run(PlaceId(0))),
    );
    assert!(engine.run().is_err());
}

#[test]
fn comm_counters_track_boundary_traffic() {
    let result = SimEngine::new(
        MixApp,
        Grid3::new(30, 30),
        SimConfig::flat(3).with_dist(DistKind::BlockCol),
    )
    .run()
    .unwrap();
    let comm = result.report().comm;
    assert!(comm.messages_sent > 0);
    assert!(
        comm.bytes_sent > comm.messages_sent,
        "payloads are > 1 byte"
    );
    // Two column boundaries × 30 rows, each crossing pushes Done msgs.
    assert!(comm.messages_sent >= 58);
}

#[test]
fn single_place_has_no_communication() {
    let result = SimEngine::new(MixApp, Grid3::new(20, 20), SimConfig::flat(1))
        .run()
        .unwrap();
    assert_eq!(result.report().comm.messages_sent, 0);
    assert_eq!(result.report().comm.bytes_sent, 0);
}

#[test]
fn interval_pattern_runs_masked() {
    let result = SimEngine::new(MixApp, IntervalUpper::new(12), SimConfig::flat(2))
        .run()
        .unwrap();
    assert!(result.try_get(0, 11).is_some());
    assert!(result.try_get(11, 0).is_none());
}

#[test]
fn utilization_reported_and_sane() {
    let report = SimEngine::new(MixApp, Grid3::new(200, 200), SimConfig::paper(2))
        .run()
        .unwrap()
        .report()
        .clone();
    let u2 = report.utilization(6).expect("sim reports busy time");
    assert!(u2 > 0.0 && u2 <= 1.0, "u2 = {u2}");

    let report12 = SimEngine::new(MixApp, Grid3::new(200, 200), SimConfig::paper(12))
        .run()
        .unwrap()
        .report()
        .clone();
    let u12 = report12.utilization(6).unwrap();
    assert!(
        u12 < u2,
        "utilisation drops as nodes grow for a fixed problem: {u12} vs {u2}"
    );
}

#[test]
fn traced_run_records_wavefront_and_matches_untraced() {
    let recorder = Recorder::new(4);
    let result = SimEngine::new(MixApp, Grid3::new(40, 40), SimConfig::flat(4))
        .with_recorder(recorder.clone())
        .run()
        .unwrap();
    let plain = SimEngine::new(MixApp, Grid3::new(40, 40), SimConfig::flat(4))
        .run()
        .unwrap();
    assert_eq!(result.report().sim_time, plain.report().sim_time);

    // Every vertex computed exactly once, across all four places.
    let trace = recorder.drain();
    assert_eq!(trace.dropped, 0);
    let rows = summary::rows(&trace);
    let per_place: Vec<u64> = rows
        .iter()
        .filter(|r| r.name == "vertex-compute")
        .map(|r| r.count)
        .collect();
    assert_eq!((per_place.len(), per_place.iter().sum()), (4, 1600));

    // The timeline renders one row per place.
    let timeline = summary::timeline(&trace, 20);
    assert_eq!(
        timeline.lines().filter(|l| l.starts_with("place")).count(),
        4
    );
}

#[test]
fn traced_fault_run_records_recovery_event() {
    let recorder = Recorder::new(4);
    SimEngine::new(
        MixApp,
        Grid3::new(30, 30),
        SimConfig::flat(4).with_fault(FaultPlan::mid_run(PlaceId(3))),
    )
    .with_recorder(recorder.clone())
    .run()
    .unwrap();
    assert_eq!(recorder.drain().count(EventKind::Recovery), 1);
}

#[test]
fn ready_policies_all_match_oracle() {
    use dpx10_sim::ReadyPolicy;
    for policy in ReadyPolicy::ALL {
        check(
            Grid3::new(14, 14),
            SimConfig::flat(3)
                .with_dist(DistKind::CyclicCol)
                .with_ready_policy(policy),
        );
    }
}

#[test]
fn min_diagonal_policy_never_loses_to_lifo_badly() {
    use dpx10_sim::ReadyPolicy;
    // Policies change the makespan but not correctness; record that the
    // wavefront-aware order is competitive on a grid DP.
    let run = |p| {
        SimEngine::new(
            MixApp,
            Grid3::new(120, 120),
            SimConfig::paper(2).with_ready_policy(p),
        )
        .run()
        .unwrap()
        .report()
        .sim_time
    };
    let fifo = run(ReadyPolicy::Fifo);
    let min_diag = run(ReadyPolicy::MinDiagonal);
    let ratio = min_diag.as_secs_f64() / fifo.as_secs_f64();
    assert!(
        (0.5..=1.5).contains(&ratio),
        "policies should be within 50% of each other here: {ratio}"
    );
}

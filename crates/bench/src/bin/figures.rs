//! Regenerates every figure of the paper's evaluation (§VIII) on the
//! simulated cluster, plus this reproduction's ablations.
//!
//! ```text
//! cargo run --release -p dpx10-bench --bin figures -- all
//! cargo run --release -p dpx10-bench --bin figures -- fig10 --vertices 1000000
//! cargo run --release -p dpx10-bench --bin figures -- fig12 --csv results/
//! ```
//!
//! The paper runs 10⁸–10⁹ vertices on real nodes; the harness defaults to
//! a scale of 10⁵–10⁶ simulated vertices so the full suite finishes in
//! minutes (`--vertices` raises it). Shapes, not absolute seconds, are
//! the reproduction target — see EXPERIMENTS.md.

use std::path::PathBuf;
use std::time::Duration;

use std::cell::RefCell;

use dpx10_apps::{CatalogApp, GapApp, SwlagApp};
use dpx10_bench::registry::{self, RunRecord};
use dpx10_bench::{
    run_recovery, run_sim, run_sim_with, sim_overhead_pair, threaded_overhead_pair, Chart,
    PaperApp, Table, KNAPSACK, MTP, PAPER_APPS, SWLAG,
};
use dpx10_core::{DistKind, FaultPlan, PlaceId, RestoreManner, RunReport, ScheduleStrategy};
use dpx10_dag::DagPattern;

/// The pinned plan digest for figure-sourced registry rows: there is no
/// plan TOML to hash, but rows still need a stable digest so the same
/// figure cell re-run on the same commit+host collides to the same
/// provenance hash, exactly like `dpx10 bench --plan` rows.
const FIGURES_PLAN_DIGEST: u64 = 0x6669_6775_7265_7321; // "figures!"

struct Opts {
    vertices: u64,
    csv: Option<PathBuf>,
    svg: Option<PathBuf>,
    /// Append figure runs to this registry CSV (provenance-hashed rows,
    /// `source = "figures"`, same schema as `dpx10 bench --plan`).
    registry: Option<PathBuf>,
    rows: RefCell<Vec<RunRecord>>,
}

impl Opts {
    /// Records one figure run as a registry row. The simulator figures
    /// report makespans, not result digests, so the fingerprint column
    /// carries the `-` placeholder the seed-import rows pinned.
    fn record(&self, figure: &str, app: &PaperApp, vertices: u64, nodes: u16, report: &RunReport) {
        if self.registry.is_none() {
            return;
        }
        let git = registry::git_describe();
        let host = registry::host_fingerprint();
        let cell = format!("{figure}/sim/{}/v{vertices}/n{nodes}", app.name);
        self.rows.borrow_mut().push(RunRecord {
            prov: RunRecord::provenance(FIGURES_PLAN_DIGEST, &cell, &git, &host),
            plan: "figures".into(),
            cell,
            seed: app.seed,
            git,
            host,
            source: "figures".into(),
            backend: "sim".into(),
            pattern: app.name.into(),
            vertices,
            places: nodes,
            coalesce: "off".into(),
            tile: 1,
            cache: 4096,
            fingerprint: "-".into(),
            computed: report.vertices_computed,
            recoveries: report.recoveries.len() as u64,
            frames: report.comm.messages_sent,
            bytes: report.comm.bytes_sent,
            sim_us: report.sim_time.as_micros() as u64,
            wall_us: report.wall_time.as_micros() as u64,
            pull_roundtrips: report.comm.pulls_sent,
        });
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "all".to_string());
    let mut opts = Opts {
        vertices: 1_000_000,
        csv: None,
        svg: None,
        registry: None,
        rows: RefCell::new(Vec::new()),
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--vertices" => {
                opts.vertices = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--vertices N");
            }
            "--csv" => {
                opts.csv = Some(PathBuf::from(args.next().expect("--csv DIR")));
            }
            "--svg" => {
                opts.svg = Some(PathBuf::from(args.next().expect("--svg DIR")));
            }
            "--registry" => {
                opts.registry = Some(PathBuf::from(args.next().expect("--registry FILE")));
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    match cmd.as_str() {
        "fig10" => fig10(&opts),
        "fig11" => fig11(&opts),
        "fig12" => fig12(&opts),
        "fig13" => fig13(&opts),
        "ablation" => ablation(&opts),
        "nested" => nested(&opts),
        "all" => {
            fig10(&opts);
            fig11(&opts);
            fig12(&opts);
            fig13(&opts);
            ablation(&opts);
            nested(&opts);
        }
        other => {
            eprintln!("usage: figures [all|fig10|fig11|fig12|fig13|ablation|nested] [--vertices N] [--csv DIR] [--svg DIR] [--registry FILE]");
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }

    if let Some(path) = &opts.registry {
        let rows = opts.rows.borrow();
        registry::append(path, &rows).expect("append figure rows to registry");
        println!(
            "registry: appended {} rows to {}",
            rows.len(),
            path.display()
        );
    }
}

fn emit(table: Table, opts: &Opts) {
    print!("{}", table.render());
    println!();
    if let Some(dir) = &opts.csv {
        let path = table.write_csv(dir).expect("write csv");
        println!("  -> {}", path.display());
    }
}

fn emit_chart(chart: Chart, opts: &Opts) {
    if let Some(dir) = &opts.svg {
        let path = chart.write_svg(dir).expect("write svg");
        println!("  -> {}", path.display());
    }
}

fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Fig. 10: execution time of the four apps, 300 M-vertex-equivalent,
/// 2 → 12 nodes. Paper shape: time drops steeply then plateaus; speedup
/// ≈4 (SWLAG/MTP/LPS) and ≈3 (0/1KP) for the 6× node increase.
fn fig10(opts: &Opts) {
    let nodes = [2u16, 4, 6, 8, 10, 12];
    let mut table = Table::new(
        format!("Fig 10: runtime vs nodes ({} vertices)", opts.vertices),
        &["nodes", "SWLAG_s", "MTP_s", "LPS_s", "01KP_s"],
    );
    let mut first: Option<Vec<Duration>> = None;
    let mut last: Option<Vec<Duration>> = None;
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 4];
    for &n in &nodes {
        let row: Vec<Duration> = PAPER_APPS
            .iter()
            .map(|app| {
                let report = run_sim(app, opts.vertices, n);
                opts.record("fig10", app, opts.vertices, n, &report);
                report.sim_time
            })
            .collect();
        for (k, t) in row.iter().enumerate() {
            series[k].push((n as f64, t.as_secs_f64()));
        }
        table.row(&[
            n.to_string(),
            secs(row[0]),
            secs(row[1]),
            secs(row[2]),
            secs(row[3]),
        ]);
        if first.is_none() {
            first = Some(row.clone());
        }
        last = Some(row);
    }
    emit(table, opts);
    let mut chart = Chart::new("Fig 10: runtime vs nodes", "nodes", "simulated seconds");
    for (k, app) in PAPER_APPS.iter().enumerate() {
        chart = chart.series(app.name, series[k].clone());
    }
    emit_chart(chart, opts);

    let (first, last) = (first.unwrap(), last.unwrap());
    let mut speedups = Table::new(
        "Fig 10 summary: speedup 2 nodes -> 12 nodes (paper: ~4x for a-c, ~3x for d)",
        &["app", "speedup"],
    );
    for (k, app) in PAPER_APPS.iter().enumerate() {
        speedups.row(&[
            app.name.to_string(),
            format!("{:.2}", first[k].as_secs_f64() / last[k].as_secs_f64()),
        ]);
    }
    emit(speedups, opts);
}

/// Fig. 11: execution time on 10 nodes, vertices 100 M → 1 B
/// (scaled to 10 % → 100 % of `--vertices` × 4). Paper shape: linear in
/// graph size, with 0/1KP slightly above the others.
fn fig11(opts: &Opts) {
    let max = opts.vertices * 4;
    let mut table = Table::new(
        format!("Fig 11: runtime vs vertices on 10 nodes (up to {max})"),
        &["vertices", "SWLAG_s", "MTP_s", "LPS_s", "01KP_s"],
    );
    let mut sizes = Vec::new();
    let mut swlag_times = Vec::new();
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 4];
    for k in 1..=10u64 {
        let v = max * k / 10;
        let row: Vec<Duration> = PAPER_APPS
            .iter()
            .map(|app| {
                let report = run_sim(app, v, 10);
                opts.record("fig11", app, v, 10, &report);
                report.sim_time
            })
            .collect();
        for (s_idx, t) in row.iter().enumerate() {
            series[s_idx].push((v as f64, t.as_secs_f64()));
        }
        sizes.push(v as f64);
        swlag_times.push(row[0].as_secs_f64());
        table.row(&[
            v.to_string(),
            secs(row[0]),
            secs(row[1]),
            secs(row[2]),
            secs(row[3]),
        ]);
    }
    emit(table, opts);
    let mut chart = Chart::new(
        "Fig 11: runtime vs vertices (10 nodes)",
        "vertices",
        "simulated seconds",
    );
    for (k, app) in PAPER_APPS.iter().enumerate() {
        chart = chart.series(app.name, series[k].clone());
    }
    emit_chart(chart, opts);
    println!(
        "  linearity check (SWLAG): R^2 = {:.4} (paper: \"linear scalability with the graph size\")\n",
        r_squared(&sizes, &swlag_times)
    );
}

/// Fig. 12: DPX10 vs hand-written native SWLAG on 4 and 8 nodes
/// (simulated makespans) plus real wall-clock pairs on this host.
/// Paper shape: DPX10/X10 ratio ≈ 1.02–1.12.
fn fig12(opts: &Opts) {
    let mut table = Table::new(
        "Fig 12: DPX10 vs native X10 (SWLAG, simulated, identical comm config)",
        &["nodes", "vertices", "dpx10_s", "native_s", "ratio"],
    );
    let mut ratio_series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for &nodes in &[4u16, 8] {
        let mut pts = Vec::new();
        for k in 1..=5u64 {
            let v = opts.vertices * k / 5;
            let (fw, native) = sim_overhead_pair(v, nodes);
            let ratio = fw.as_secs_f64() / native.as_secs_f64();
            pts.push((v as f64, ratio));
            table.row(&[
                nodes.to_string(),
                v.to_string(),
                secs(fw),
                secs(native),
                format!("{ratio:.3}"),
            ]);
        }
        ratio_series.push((format!("{nodes} nodes"), pts));
    }
    emit(table, opts);
    let mut chart = Chart::new("Fig 12 (b): DPX10 / native X10 ratio", "vertices", "ratio");
    for (name, pts) in ratio_series {
        chart = chart.series(name, pts);
    }
    emit_chart(chart, opts);

    let mut wall = Table::new(
        "Fig 12 (wall clock on this host): threaded engine vs hand-written pipeline",
        &[
            "side",
            "places",
            "dpx10_ms",
            "native_ms",
            "ratio",
            "tiled32_ms",
            "tiled_ratio",
        ],
    );
    for &side in &[200usize, 400, 600] {
        let (fw, tiled, native) = threaded_overhead_pair(side, 2, 32);
        let ms = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
        let ratio = |d: Duration| format!("{:.2}", d.as_secs_f64() / native.as_secs_f64());
        wall.row(&[
            side.to_string(),
            "2".to_string(),
            ms(fw),
            ms(native),
            ratio(fw),
            ms(tiled),
            ratio(tiled),
        ]);
    }
    emit(wall, opts);
    println!("  note: the wall-clock pair compares the framework against a hand-tight");
    println!("  Rust pipeline; the paper's native comparator kept X10's per-vertex");
    println!("  activity machinery, so its 1.02-1.12 band corresponds to the simulated");
    println!("  table above, while this wall-clock ratio bounds the absolute per-vertex");
    println!("  cost of the framework machinery itself; tiled32 is the same engine");
    println!("  scheduling 32x32 tiles (run_tiled_threaded, table scan included).\n");
}

/// Fig. 13: (a) recovery time vs size on 4 and 8 nodes — linear in
/// size, ~2× faster on 8 nodes; (b) normalized one-fault runtime vs
/// nodes — overhead shrinks as nodes grow.
fn fig13(opts: &Opts) {
    let mut a = Table::new(
        "Fig 13 (a): recovery time vs vertices",
        &["vertices", "nodes4_ms", "nodes8_ms"],
    );
    let (mut s4, mut s8) = (Vec::new(), Vec::new());
    for k in 1..=5u64 {
        let v = opts.vertices * k / 5;
        let (_, _, rec4) = run_recovery(v, 4, RestoreManner::RecomputeRemote);
        let (_, _, rec8) = run_recovery(v, 8, RestoreManner::RecomputeRemote);
        s4.push((v as f64, rec4.as_secs_f64() * 1e3));
        s8.push((v as f64, rec8.as_secs_f64() * 1e3));
        a.row(&[
            v.to_string(),
            format!("{:.3}", rec4.as_secs_f64() * 1e3),
            format!("{:.3}", rec8.as_secs_f64() * 1e3),
        ]);
    }
    emit(a, opts);
    emit_chart(
        Chart::new(
            "Fig 13 (a): recovery time vs vertices",
            "vertices",
            "recovery ms",
        )
        .series("4 nodes", s4)
        .series("8 nodes", s8),
        opts,
    );

    let mut b = Table::new(
        "Fig 13 (b): normalized execution time with one mid-run fault",
        &["nodes", "clean_s", "faulty_s", "normalized"],
    );
    let mut norm = Vec::new();
    for &nodes in &[2u16, 4, 6, 8, 10, 12] {
        let (clean, faulty, _) = run_recovery(opts.vertices, nodes, RestoreManner::RecomputeRemote);
        let ratio = faulty.as_secs_f64() / clean.as_secs_f64();
        norm.push((nodes as f64, ratio));
        b.row(&[
            nodes.to_string(),
            secs(clean),
            secs(faulty),
            format!("{ratio:.3}"),
        ]);
    }
    emit(b, opts);
    emit_chart(
        Chart::new(
            "Fig 13 (b): normalized one-fault runtime",
            "nodes",
            "faulty / clean",
        )
        .series("SWLAG", norm),
        opts,
    );
}

/// Ablations over the §VI-E refinements and the §X extensions.
fn ablation(opts: &Opts) {
    // Cache size (§VI-E "Cache size").
    let mut cache = Table::new(
        "Ablation: cache capacity (SWLAG, cyclic columns)",
        &["capacity", "makespan_s", "hits", "misses"],
    );
    for &cap in &[0usize, 1, 16, 256, 4096] {
        let report = run_sim_with(&SWLAG, opts.vertices / 5, 4, |c| {
            c.with_dist(DistKind::CyclicCol).with_cache(cap)
        });
        cache.row(&[
            cap.to_string(),
            secs(report.sim_time),
            report.comm.cache_hits.to_string(),
            report.comm.cache_misses.to_string(),
        ]);
    }
    emit(cache, opts);

    // Scheduling strategy (§VI-C).
    let mut sched = Table::new(
        "Ablation: scheduling strategy (MTP)",
        &["strategy", "makespan_s", "messages", "bytes"],
    );
    for strat in ScheduleStrategy::ALL {
        let report = run_sim_with(&MTP, opts.vertices / 5, 4, |c| c.with_schedule(strat));
        sched.row(&[
            strat.name().to_string(),
            secs(report.sim_time),
            report.comm.messages_sent.to_string(),
            report.comm.bytes_sent.to_string(),
        ]);
    }
    emit(sched, opts);

    // Distribution (§VI-E "Distribution of DAG"): knapsack by row vs col.
    let mut dist = Table::new(
        "Ablation: distribution (0/1KP)",
        &["distribution", "makespan_s", "messages"],
    );
    for (name, kind) in [
        ("block-row", DistKind::BlockRow),
        ("block-col", DistKind::BlockCol),
        ("cyclic-row", DistKind::CyclicRow),
    ] {
        let report = run_sim_with(&KNAPSACK, opts.vertices / 5, 4, |c| c.with_dist(kind));
        dist.row(&[
            name.to_string(),
            secs(report.sim_time),
            report.comm.messages_sent.to_string(),
        ]);
    }
    emit(dist, opts);

    // Restore manner (§VI-E "Restore manner").
    let mut restore = Table::new(
        "Ablation: restore manner after one fault (SWLAG)",
        &["manner", "faulty_s", "recovery_ms", "recomputed"],
    );
    for (name, manner) in [
        ("recompute-remote", RestoreManner::RecomputeRemote),
        ("copy-remote", RestoreManner::CopyRemote),
    ] {
        let report = run_sim_with(&SWLAG, opts.vertices / 5, 4, |c| {
            c.with_restore(manner)
                .with_fault(FaultPlan::mid_run(PlaceId(7)))
        });
        restore.row(&[
            name.to_string(),
            secs(report.sim_time),
            format!("{:.3}", report.recovery_time.as_secs_f64() * 1e3),
            report.recomputed().to_string(),
        ]);
    }
    emit(restore, opts);

    // Tiled execution (extension; core::tiled): amortising the per-vertex
    // overhead and batching boundary messages.
    let mut tiles = Table::new(
        "Ablation: tile size (SWLAG on the simulated cluster)",
        &["tile", "scheduled_vertices", "makespan_s", "messages"],
    );
    {
        use dpx10_core::tiled::TiledApp;
        use dpx10_dag::TiledDag;
        use dpx10_sim::{CostModel, SimConfig, SimEngine};
        use std::sync::Arc;

        for &tile in &[1u32, 4, 16, 64] {
            let app = SwlagApp::sized(opts.vertices / 5, SWLAG.seed);
            let geometry = Arc::new(TiledDag::new(app.pattern(), tile));
            let tiled_app = TiledApp::new(app, geometry.clone());
            // The macro-vertex costs t^2 cell computations; overhead is
            // paid once per tile.
            let cell = SwlagApp::SIM_COMPUTE_NS;
            let cost = CostModel {
                compute: std::time::Duration::from_nanos(cell * (tile as u64).pow(2)),
                ..CostModel::default()
            };
            let report = SimEngine::new(tiled_app, geometry, SimConfig::paper(4).with_cost(cost))
                .run()
                .unwrap()
                .report()
                .clone();
            tiles.row(&[
                tile.to_string(),
                report.vertices_total.to_string(),
                secs(report.sim_time),
                report.comm.messages_sent.to_string(),
            ]);
        }
    }
    emit(tiles, opts);

    // The 2D/iD caveat (§III): a 2D/1D pattern's per-vertex cost.
    let mut heavy = Table::new(
        "Ablation: 2D/0D vs 2D/1D pattern cost (paper SIII caveat)",
        &[
            "pattern",
            "vertices",
            "makespan_s",
            "normalized_per_vertex_ns",
        ],
    );
    {
        use dpx10_core::{DepView, DpApp};
        use dpx10_dag::{builtin::*, VertexId};
        use dpx10_sim::{SimConfig, SimEngine};

        #[derive(Clone)]
        struct Sum;
        impl DpApp for Sum {
            type Value = u64;
            fn compute(&self, _id: VertexId, deps: &DepView<'_, u64>) -> u64 {
                deps.values().sum::<u64>() + 1
            }
        }
        let n = 96u32;
        for (name, run) in [
            (
                "grid3 (2D/0D)",
                SimEngine::new(Sum, Grid3::new(n, n), SimConfig::paper(4))
                    .run()
                    .unwrap(),
            ),
            (
                "full-prev-row-col (2D/1D)",
                SimEngine::new(Sum, FullPrevRowCol::new(n, n), SimConfig::paper(4))
                    .run()
                    .unwrap(),
            ),
        ] {
            let rep = run.report();
            let per_vertex = rep.sim_time.as_nanos() as f64 / rep.vertices_total as f64;
            heavy.row(&[
                name.to_string(),
                rep.vertices_total.to_string(),
                secs(rep.sim_time),
                format!("{per_vertex:.0}"),
            ]);
        }
    }
    emit(heavy, opts);
}

/// Fig. 10-style scaling curve for the nested-dataflow extension: GAP
/// runtime vs places on the threaded engine, prefix aggregation on vs
/// off. Each GAP cell depends on its whole row and column prefix; the
/// aggregated path reads that interval as one O(1) prefix-min lane
/// lookup, so its curve tracks the O(1)-degree apps of Fig. 10, while
/// the enumerated path pays the O(n) interval walk per cell.
fn nested(opts: &Opts) {
    use dpx10_core::{EngineConfig, ThreadedEngine};

    let app = GapApp::sized(opts.vertices / 4, 1);
    let places = [2u16, 4, 6, 8, 10, 12];
    let mut table = Table::new(
        format!(
            "Fig 10-style: GAP runtime vs places ({} vertices, nested dataflow)",
            app.pattern().vertex_count()
        ),
        &["places", "agg_on_s", "agg_off_s", "agg_off_over_on"],
    );
    let (mut on_pts, mut off_pts) = (Vec::new(), Vec::new());
    for &p in &places {
        let run = |agg: bool| {
            ThreadedEngine::new(
                app,
                app.pattern(),
                EngineConfig::flat(p).with_aggregation(agg),
            )
            .run()
            .expect("gap run")
            .report()
            .clone()
        };
        let on = run(true).wall_time;
        let off = run(false).wall_time;
        on_pts.push((f64::from(p), on.as_secs_f64()));
        off_pts.push((f64::from(p), off.as_secs_f64()));
        table.row(&[
            p.to_string(),
            secs(on),
            secs(off),
            format!("{:.2}", off.as_secs_f64() / on.as_secs_f64()),
        ]);
    }
    emit(table, opts);
    emit_chart(
        Chart::new(
            "Fig 10-style: GAP scaling, prefix aggregation vs enumeration",
            "places",
            "wall seconds",
        )
        .series("agg on (O(1) reads)", on_pts)
        .series("agg off (O(n) reads)", off_pts),
        opts,
    );
}

/// R² of a least-squares line through `(x, y)`.
fn r_squared(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
    let syy: f64 = y.iter().map(|b| (b - my).powi(2)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return 1.0;
    }
    (sxy * sxy) / (sxx * syy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rows_record_the_seed_the_figure_ran_with() {
        let opts = Opts {
            vertices: 0,
            csv: None,
            svg: None,
            registry: Some(PathBuf::from("unused.csv")),
            rows: RefCell::new(Vec::new()),
        };
        for app in &PAPER_APPS {
            opts.record("fig10", app, 1_000, 2, &RunReport::default());
        }
        let seeds: Vec<u64> = opts.rows.borrow().iter().map(|row| row.seed).collect();
        assert_eq!(seeds, [1, 42, 3, 4]);
    }
}

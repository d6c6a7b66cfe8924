//! Command implementations.

use std::any::Any;
use std::time::Duration;

use dpx10_apgas::{
    launch_places, local_mesh, ElasticEvent, ElasticPlan, ElasticVerb, PlaceId, SocketConfig,
    SocketNode, Topology,
};
use dpx10_apps::{with_app, AppKind, AppVisitor, CatalogApp};
use dpx10_bench::{AblationPlan, RatchetSpec};
use dpx10_core::{
    DagResult, DpApp, ElasticConfig, ElasticEngine, ElasticReport, ElasticServer, EngineConfig,
    FaultPlan, RunReport, ServeReport, SocketEngine, ThreadedEngine,
};
use dpx10_dag::{critical_path_len, wavefront_profile, BuiltinKind, DagPattern};
use dpx10_obs::{chrome, summary as obs_summary, EventKind, Recorder, Registry, Trace};
use dpx10_sim::{CostModel, SimConfig, SimEngine};

use crate::args::{EngineChoice, RunArgs};

/// A run's outcome in CLI form.
pub struct RunSummary {
    /// The app's headline answer (best score, optimum, …).
    pub answer: String,
    /// The run report.
    pub report: RunReport,
    /// Timeline, when requested and available.
    pub timeline: Option<String>,
    /// Workers per place, for utilisation.
    pub workers_per_place: u16,
}

impl RunSummary {
    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let r = &self.report;
        let mut out = String::new();
        out.push_str(&format!("answer: {}\n", self.answer));
        out.push_str(&format!(
            "vertices: {} total, {} computed ({} epochs)\n",
            r.vertices_total, r.vertices_computed, r.epochs
        ));
        if r.sim_time > Duration::ZERO {
            out.push_str(&format!("simulated makespan: {:?}\n", r.sim_time));
            if let Some(u) = r.utilization(self.workers_per_place) {
                out.push_str(&format!("worker utilisation: {:.1}%\n", u * 100.0));
            }
        }
        out.push_str(&format!("wall time: {:?}\n", r.wall_time));
        out.push_str(&format!(
            "communication: {} messages, {} bytes",
            r.comm.messages_sent, r.comm.bytes_sent
        ));
        if let Some(rate) = r.comm.cache_hit_rate() {
            out.push_str(&format!(", cache hit rate {:.1}%", rate * 100.0));
        }
        out.push('\n');
        if r.comm.batches_sent > 0 {
            out.push_str(&format!(
                "coalescing: {} batches carrying {} messages ({:.1} per flush)\n",
                r.comm.batches_sent,
                r.comm.batched_msgs,
                r.comm.batched_msgs as f64 / r.comm.batches_sent as f64
            ));
        }
        if r.comm.pulls_sent + r.comm.pushes_sent > 0 {
            out.push_str(&format!(
                "anti-dependencies: {} pulls ({} deduped), {} pushes ({} round-trips avoided)\n",
                r.comm.pulls_sent,
                r.comm.pulls_deduped,
                r.comm.pushes_sent,
                r.comm.pull_roundtrips_avoided
            ));
        }
        for (k, rec) in r.recoveries.iter().enumerate() {
            out.push_str(&format!(
                "recovery #{k}: kept {}, dropped {}, lost {}, migrated {} ({:?})\n",
                rec.kept, rec.dropped, rec.lost, rec.migrated, rec.sim_time
            ));
        }
        if let Some(t) = &self.timeline {
            out.push('\n');
            out.push_str(t);
        }
        out
    }
}

/// Dispatches a `run` command.
///
/// `raw` is the full argument vector (minus the program name) as typed;
/// the sockets backend re-executes the binary with it so every place
/// process rebuilds the identical workload.
pub fn run(args: &RunArgs, raw: &[String]) -> Result<RunSummary, String> {
    with_app(args.app, args.vertices, args.seed, Execute { args, raw })
}

/// Runs the catalog-built app on the selected engine.
struct Execute<'a> {
    args: &'a RunArgs,
    raw: &'a [String],
}

impl AppVisitor for Execute<'_> {
    type Out = Result<RunSummary, String>;

    fn visit<A: CatalogApp>(self, app: A) -> Self::Out {
        execute(self.args, self.raw, app)
    }
}

/// Runs one app on the selected engine.
fn execute<A: CatalogApp>(args: &RunArgs, raw: &[String], app: A) -> Result<RunSummary, String> {
    let pattern = app.dag();
    let cell = app.answer_cell();
    let summarize = |result: &DagResult<A::Value>, recorder: &Recorder, workers_per_place| {
        Ok(RunSummary {
            answer: A::headline(cell, &result.get(cell.0, cell.1)),
            report: result.report().clone(),
            timeline: write_observability(recorder, result.report(), args)?,
            workers_per_place,
        })
    };
    // Observability is opt-in: the recorder stays disabled (a no-op on
    // every hot path) unless an export file or a timeline was requested.
    let want_obs = args.trace_out.is_some() || args.metrics_out.is_some() || args.timeline;
    let make_recorder = |places: u16| {
        if want_obs {
            Recorder::with_capacity(places as usize, 1 << 20)
        } else {
            Recorder::disabled()
        }
    };
    match args.engine {
        EngineChoice::Sim => {
            let config = SimConfig {
                engine: engine_config(args, Topology::paper(args.nodes)),
                ..SimConfig::paper(args.nodes).with_cost(CostModel::with_compute(A::SIM_COMPUTE_NS))
            };
            let workers = config.workers;
            let recorder = make_recorder(config.topology.num_places());
            let result = SimEngine::new(app, pattern, config)
                .with_recorder(recorder.clone())
                .run()
                .map_err(|e| e.to_string())?;
            summarize(&result, &recorder, workers)
        }
        EngineChoice::Threaded => {
            let config = engine_config(args, Topology::flat(args.places));
            let recorder = make_recorder(args.places);
            let result = ThreadedEngine::new(app, pattern, config)
                .with_recorder(recorder.clone())
                .run()
                .map_err(|e| e.to_string())?;
            summarize(&result, &recorder, 1)
        }
        EngineChoice::Sockets => {
            let config = engine_config(args, Topology::flat(args.places));
            let recorder = make_recorder(args.places);
            let engine = SocketEngine::new(app, pattern, config).with_recorder(recorder.clone());
            match SocketConfig::from_env().map_err(|e| e.to_string())? {
                Some(worker_cfg) => {
                    // We are a spawned place process: join the mesh, do
                    // our share, and exit without printing a summary —
                    // the coordinator owns the result. A worker's trace
                    // goes to its own `<file>.p<N>` (each process has its
                    // own recorder and clock).
                    let my_place = worker_cfg.place;
                    match engine.run(worker_cfg) {
                        Ok(_) => {
                            if let Some(path) = &args.trace_out {
                                let trace = recorder.drain();
                                let worker_path = format!("{path}.p{}", my_place.0);
                                if let Err(e) =
                                    chrome::write(std::path::Path::new(&worker_path), &trace)
                                {
                                    eprintln!("dpx10: place trace write failed: {e}");
                                }
                            }
                            std::process::exit(0)
                        }
                        Err(e) => {
                            eprintln!("dpx10: place error: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                None => {
                    let (coord_cfg, mut children) =
                        launch_places(args.places, raw).map_err(|e| e.to_string())?;
                    match engine.run(coord_cfg) {
                        Ok(result) => {
                            let _ = children.wait_all();
                            let result = result.ok_or("coordinator finished without a result")?;
                            summarize(&result, &recorder, 1)
                        }
                        Err(e) => {
                            children.kill_all();
                            Err(e.to_string())
                        }
                    }
                }
            }
        }
    }
}

/// Drains the recorder, writes the requested trace/metrics exports and
/// renders the activity timeline when one was requested.
fn write_observability(
    recorder: &Recorder,
    report: &RunReport,
    args: &RunArgs,
) -> Result<Option<String>, String> {
    if !recorder.enabled() {
        return Ok(None);
    }
    let trace = recorder.drain();
    if let Some(path) = &args.trace_out {
        chrome::write(std::path::Path::new(path), &trace)
            .map_err(|e| format!("write trace {path}: {e}"))?;
    }
    if let Some(path) = &args.metrics_out {
        let registry = build_registry(report, &trace);
        std::fs::write(path, registry.render_prometheus())
            .map_err(|e| format!("write metrics {path}: {e}"))?;
    }
    Ok(args.timeline.then(|| obs_summary::timeline(&trace, 64)))
}

/// Builds the metrics registry a finished run exports: run-level counters
/// from the report plus a per-place compute-time histogram from the
/// recorded vertex spans.
fn build_registry(report: &RunReport, trace: &Trace) -> Registry {
    let reg = Registry::new();
    reg.counter("dpx10_vertices_total", "DAG vertices in the pattern", &[])
        .add(report.vertices_total);
    reg.counter(
        "dpx10_vertices_computed_total",
        "vertices computed, recomputation included",
        &[],
    )
    .add(report.vertices_computed);
    reg.counter("dpx10_epochs_total", "execution epochs run", &[])
        .add(u64::from(report.epochs));
    reg.counter("dpx10_recoveries_total", "recoveries performed", &[])
        .add(report.recoveries.len() as u64);
    reg.counter("dpx10_messages_sent_total", "remote messages sent", &[])
        .add(report.comm.messages_sent);
    reg.counter("dpx10_bytes_sent_total", "remote bytes sent", &[])
        .add(report.comm.bytes_sent);
    reg.counter("dpx10_cache_hits_total", "remote-value cache hits", &[])
        .add(report.comm.cache_hits);
    reg.counter("dpx10_cache_misses_total", "remote-value cache misses", &[])
        .add(report.comm.cache_misses);
    reg.counter(
        "dpx10_batches_sent_total",
        "coalesced batches flushed to the transport",
        &[],
    )
    .add(report.comm.batches_sent);
    reg.counter(
        "dpx10_batched_messages_total",
        "protocol messages carried inside coalesced batches",
        &[],
    )
    .add(report.comm.batched_msgs);
    reg.counter(
        "dpx10_pulls_sent_total",
        "anti-dependency pull round-trips issued",
        &[],
    )
    .add(report.comm.pulls_sent);
    reg.counter(
        "dpx10_pulls_deduped_total",
        "pulls folded into an already in-flight request for the same cell",
        &[],
    )
    .add(report.comm.pulls_deduped);
    reg.counter(
        "dpx10_pushes_sent_total",
        "anti-dependency values pushed eagerly to consumer places",
        &[],
    )
    .add(report.comm.pushes_sent);
    reg.counter(
        "dpx10_pull_roundtrips_avoided_total",
        "parked consumers satisfied by a pushed value instead of a pull",
        &[],
    )
    .add(report.comm.pull_roundtrips_avoided);
    reg.counter(
        "dpx10_trace_events_dropped_total",
        "flight-recorder events dropped at full rings",
        &[],
    )
    .add(trace.dropped);
    reg.gauge("dpx10_wall_seconds", "wall-clock run time", &[])
        .set(report.wall_time.as_secs_f64());
    if report.sim_time > Duration::ZERO {
        reg.gauge("dpx10_sim_seconds", "virtual makespan (simulator)", &[])
            .set(report.sim_time.as_secs_f64());
    }
    for (slot, busy) in report.place_busy.iter().enumerate() {
        reg.gauge(
            "dpx10_place_busy_seconds",
            "per-place compute time, final epoch slot order; \
             real engines sample 1 compute in 16 when not recording",
            &[("slot", slot.to_string())],
        )
        .set(busy.as_secs_f64());
    }
    for ev in &trace.events {
        if ev.kind == EventKind::VertexCompute {
            reg.histogram_ns(
                "dpx10_compute_ns",
                "vertex compute span durations",
                &[("place", ev.place.to_string())],
            )
            .observe(ev.dur_ns);
        }
    }
    reg
}

/// `dpx10 trace summarize <file>`: parses an exported Chrome trace,
/// checks the span-nesting invariant, and renders the per-place phase
/// summary. An invalid or ill-nested trace is an `Err` (exit code 1), so
/// CI can use this as its trace validator.
pub fn trace_summarize(file: &str) -> Result<String, String> {
    let json = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let events = chrome::parse(&json).map_err(|e| format!("{file}: {e}"))?;
    chrome::check_nesting(&events).map_err(|e| format!("{file}: span nesting: {e}"))?;
    let rows = obs_summary::rows_from_chrome(&events);
    let mut out = format!("{file}: {} events, spans nest correctly\n\n", events.len());
    out.push_str(&obs_summary::render(&rows, 0));
    // A membership boundary stamps one span per verb it applies, all
    // from the same epoch end: count each boundary once.
    let mut stops: Vec<(u16, u64, u64)> = events
        .iter()
        .filter(|e| matches!(e.name.as_str(), "join" | "drain") && e.ph == "X")
        .map(|e| (e.pid, e.ts_ns, e.dur_ns))
        .collect();
    stops.sort_unstable();
    stops.dedup();
    if !stops.is_empty() {
        let total: u64 = stops.iter().map(|s| s.2).sum();
        out.push_str(&format!(
            "\nmembership: {} boundaries, {:.1} us each ({:.1} us total)\n",
            stops.len(),
            total as f64 / stops.len() as f64 / 1_000.0,
            total as f64 / 1_000.0
        ));
    }
    Ok(out)
}

/// The engine configuration the run's flags build, on `topology`.
fn engine_config(args: &RunArgs, topology: Topology) -> EngineConfig {
    let config = EngineConfig {
        topology,
        schedule: args.schedule,
        cache_capacity: args.cache,
        restore_manner: args.restore,
        fault: args.fault.map(|(place, after_fraction)| FaultPlan {
            place,
            after_fraction,
        }),
        coalesce: args.coalesce,
        comms: args.comms,
        aggregation: args.agg,
        ..EngineConfig::paper(1)
    };
    match &args.dist {
        Some(kind) => config.with_dist(kind.clone()),
        None => config,
    }
}

/// `dpx10 chaos`: the seeded differential chaos suite. Returns the
/// rendered report and whether every seed passed. Output is
/// deterministic — no wall-clock content — so the same invocation is
/// bit-for-bit reproducible.
pub fn run_chaos(args: &crate::args::ChaosArgs) -> (String, bool) {
    if args.elastic {
        return run_elastic_chaos(args);
    }
    let opts = dpx10_harness::ChaosOptions {
        sockets: args.sockets,
        shrink: args.shrink,
        coalesce: args.coalesce,
        comms: args.comms,
        agg: args.agg,
    };
    let seeds: Vec<u64> = match args.seed {
        Some(s) => vec![s],
        None => (0..args.count)
            .map(|k| args.start.wrapping_add(k))
            .collect(),
    };
    let mut out = String::new();
    let mut failed = Vec::new();
    for &seed in &seeds {
        let report = dpx10_harness::run_seed(seed, &opts);
        out.push_str(&report.render());
        out.push('\n');
        if !report.passed() {
            failed.push(seed);
        }
    }
    out.push_str(&format!(
        "chaos: {} seed(s), {} passed, {} failed\n",
        seeds.len(),
        seeds.len() - failed.len(),
        failed.len()
    ));
    for seed in &failed {
        out.push_str(&format!(
            "reproduce with: dpx10 chaos --seed {seed:#018x}\n"
        ));
        if let Some(path) = dpx10_harness::write_failure_trace(*seed) {
            out.push_str(&format!(
                "failure trace: {} (inspect with `dpx10 trace summarize`)\n",
                path.display()
            ));
        }
    }
    (out, failed.is_empty())
}

/// One elastic churn plan run on the 12×12 reference workload (the
/// chaos harness's non-commutative mixing kernel, so any dropped,
/// duplicated or reordered dependency value changes the fingerprint).
fn elastic_plan_run(
    founding: u16,
    capacity: u16,
    plan: ElasticPlan,
) -> Result<dpx10_core::ElasticRun<u64>, String> {
    ElasticEngine::new(
        dpx10_harness::MixApp,
        dpx10_dag::builtin::Grid3::new(12, 12),
        ElasticConfig::new(founding, capacity),
    )
    .with_plan(plan)
    .run()
    .map_err(|e| e.to_string())
}

/// Checks one elastic plan against the solo fingerprint, the serial
/// oracle and the compute-conservation invariant; `Ok` carries the
/// run's report for the summary line.
fn elastic_plan_check(plan: &ElasticPlan, solo: u64) -> Result<ElasticReport, String> {
    let run = elastic_plan_run(3, 5, plan.clone())?;
    if run.fingerprint() != solo {
        return Err(format!(
            "fingerprint {:#018x} != solo {solo:#018x}",
            run.fingerprint()
        ));
    }
    for (id, want) in dpx10_harness::oracle(&dpx10_dag::builtin::Grid3::new(12, 12)) {
        if run.try_get(id.i, id.j) != Some(want) {
            return Err(format!("value mismatch at {id}"));
        }
    }
    let r = run.report().clone();
    if r.computed - r.recomputed != r.total {
        return Err(format!(
            "computed {} - recomputed {} != total {}",
            r.computed, r.recomputed, r.total
        ));
    }
    Ok(r)
}

/// `dpx10 chaos --elastic`: the membership-churn sweep. Every seed
/// expands into an [`ElasticPlan`] of joins, drains and kills; the run
/// must match the solo fingerprint, the serial oracle, and conserve
/// compute. How many cells a kill loses depends on the schedule, so a
/// passing seed prints only what the plan determines: the output is as
/// deterministic as the classic sweep's.
fn run_elastic_chaos(args: &crate::args::ChaosArgs) -> (String, bool) {
    let seeds: Vec<u64> = match args.seed {
        Some(s) => vec![s],
        None => (0..args.count)
            .map(|k| args.start.wrapping_add(k))
            .collect(),
    };
    let solo = match elastic_plan_run(1, 1, ElasticPlan::quiet(0)) {
        Ok(run) => run.fingerprint(),
        Err(e) => return (format!("elastic chaos: solo oracle failed: {e}\n"), false),
    };
    let mut out = String::new();
    let mut failed = Vec::new();
    for &seed in &seeds {
        let plan = ElasticPlan::generate(seed, 3, 5);
        match elastic_plan_check(&plan, solo) {
            Ok(r) => out.push_str(&format!(
                "elastic seed {seed:#018x}: ok    {plan} (joins {}, drains {}, kills {}, members {:?})\n",
                r.joins, r.drains, r.kills, r.final_members
            )),
            Err(e) => {
                out.push_str(&format!("elastic seed {seed:#018x}: FAIL  {plan}: {e}\n"));
                if args.shrink {
                    // Greedy minimisation: keep dropping one event at a
                    // time while the plan still fails.
                    let mut minimal = plan.clone();
                    'minimise: loop {
                        for cand in minimal.shrink() {
                            if elastic_plan_check(&cand, solo).is_err() {
                                minimal = cand;
                                continue 'minimise;
                            }
                        }
                        break;
                    }
                    out.push_str(&format!("  minimal failing plan: {minimal}\n"));
                }
                failed.push(seed);
            }
        }
    }
    out.push_str(&format!(
        "elastic chaos: {} seed(s), {} passed, {} failed\n",
        seeds.len(),
        seeds.len() - failed.len(),
        failed.len()
    ));
    for seed in &failed {
        out.push_str(&format!(
            "reproduce with: dpx10 chaos --elastic --seed {seed:#018x}\n"
        ));
    }
    (out, failed.is_empty())
}

/// `dpx10 bench`: expand the plan, run every cell, append
/// provenance-hashed rows to the registry CSV, write the per-run JSON,
/// and optionally compare against (or tighten) the committed ratchet
/// baseline. Stdout carries only deterministic data — fingerprints and
/// the deterministic KPIs — so two consecutive runs of the same plan
/// print byte-identical text; wall times and file paths that embed
/// timestamps go to stderr.
pub fn run_bench(args: &crate::args::BenchArgs) -> Result<String, String> {
    use std::path::Path;

    let plan_path = &args.plan;
    let text = std::fs::read_to_string(plan_path).map_err(|e| format!("read {plan_path}: {e}"))?;
    let plan = AblationPlan::parse(&text).map_err(|e| format!("{plan_path}: {e}"))?;
    plan.validate().map_err(|e| format!("{plan_path}: {e}"))?;
    let digest = plan.digest();
    let cells = plan.expand();
    let git = dpx10_bench::registry::git_describe();
    let host = dpx10_bench::registry::host_fingerprint();
    let mut out = format!(
        "plan {} — {} cells, digest {digest:016x}\n",
        plan.name,
        cells.len()
    );
    let mut records = Vec::new();
    for exp in &cells {
        let (fingerprint, report) = dpx10_bench::runner::run_cell(exp)?;
        let record = dpx10_bench::runner::record(exp, fingerprint, &report, &git, &host);
        eprintln!(
            "dpx10 bench: {} in {:?} ({} frames, {} bytes, {} pulls)",
            exp.cell, report.wall_time, record.frames, record.bytes, record.pull_roundtrips
        );
        out.push_str(&format!(
            "{}  fp {}  computed {}  recoveries {}\n",
            exp.cell, record.fingerprint, record.computed, record.recoveries
        ));
        records.push(record);
    }
    dpx10_bench::registry::append(Path::new(&args.registry), &records)?;
    out.push_str(&format!(
        "registry: appended {} rows to {}\n",
        records.len(),
        args.registry
    ));
    let run_json = args.run_json.clone().unwrap_or_else(|| {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        format!(
            "results/runs/{}-{ts}-{}.json",
            plan.name,
            std::process::id()
        )
    });
    dpx10_bench::registry::write_run_json(Path::new(&run_json), &plan.name, digest, &records)?;
    eprintln!("dpx10 bench: per-run report written to {run_json}");
    if let Some(trend_path) = &args.trend {
        let rows = dpx10_bench::registry::load(Path::new(&args.registry))?;
        std::fs::write(trend_path, dpx10_bench::registry::trend_json(&rows))
            .map_err(|e| format!("write {trend_path}: {e}"))?;
        out.push_str(&format!("trend: {trend_path}\n"));
    }
    if args.ratchet {
        let baseline_path = args
            .baseline
            .clone()
            .unwrap_or_else(|| format!("plans/baselines/{}.toml", plan.name));
        match std::fs::read_to_string(&baseline_path) {
            Ok(baseline_text) => {
                let spec = RatchetSpec::parse(&baseline_text)
                    .map_err(|e| format!("{baseline_path}: {e}"))?;
                let report = spec.compare(digest, &records)?;
                if !report.passed() {
                    let mut msg = format!("perf ratchet FAILED against {baseline_path}:\n");
                    for regression in &report.regressions {
                        msg.push_str(&format!("  {regression}\n"));
                    }
                    return Err(msg);
                }
                for (cell, kpi, base, measured) in &report.improvements {
                    eprintln!("dpx10 bench: improvement {cell} {kpi}: {base} -> {measured}");
                }
                if args.update_baseline {
                    std::fs::write(&baseline_path, spec.tightened(&records).render())
                        .map_err(|e| format!("write {baseline_path}: {e}"))?;
                    eprintln!(
                        "dpx10 bench: baseline tightened ({} improvement(s))",
                        report.improvements.len()
                    );
                }
                out.push_str(&format!(
                    "ratchet: PASS, {} cells within tolerance\n",
                    report.cells
                ));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if args.update_baseline {
                    if let Some(parent) = Path::new(&baseline_path).parent() {
                        if !parent.as_os_str().is_empty() {
                            std::fs::create_dir_all(parent)
                                .map_err(|e| format!("create {}: {e}", parent.display()))?;
                        }
                    }
                    let spec = RatchetSpec::from_run(&plan.name, digest, &records);
                    std::fs::write(&baseline_path, spec.render())
                        .map_err(|e| format!("write {baseline_path}: {e}"))?;
                    out.push_str(&format!(
                        "ratchet: baseline created at {baseline_path} ({} cells)\n",
                        records.len()
                    ));
                } else {
                    return Err(format!(
                        "no committed baseline at {baseline_path}; create one with \
                         --ratchet --update-baseline and commit it"
                    ));
                }
            }
            Err(e) => return Err(format!("read {baseline_path}: {e}")),
        }
    }
    Ok(out)
}

/// The app type `dpx10 serve` multiplexes: a [`JobServer`] runs one
/// value type per mesh, so serve takes the catalog apps whose values are
/// `u32`, type-erased.
///
/// [`JobServer`]: dpx10_core::JobServer
type ServeJobApp = Box<dyn DpApp<Value = u32>>;

/// One job to serve, as plain data so every place rebuilds it
/// identically (the serve contract).
#[derive(Clone)]
struct ServeJobDef {
    name: String,
    app: AppKind,
    vertices: u64,
    seed: u64,
    priority: u8,
}

/// Builds the app + pattern a job definition describes.
fn serve_app_for(def: &ServeJobDef) -> Result<(ServeJobApp, Box<dyn DagPattern>), String> {
    struct Erase;
    impl AppVisitor for Erase {
        type Out = Option<(ServeJobApp, Box<dyn DagPattern>)>;
        fn visit<A: CatalogApp>(self, app: A) -> Self::Out {
            let pattern = app.dag();
            // The downcast succeeds exactly when `A::Value` is `u32`.
            let app: Box<dyn Any> = Box::new(Box::new(app) as Box<dyn DpApp<Value = A::Value>>);
            let app = app.downcast::<ServeJobApp>().ok()?;
            Some((*app, Box::new(pattern)))
        }
    }
    with_app(def.app, def.vertices, def.seed, Erase).ok_or(format!(
        "app {} cannot be served (serve apps share one value type: lcs, edit-distance, lps, nussinov, lws, gap)",
        def.app.name()
    ))
}

/// The job's solo oracle: the same app on a single-place threaded
/// engine, fingerprinted.
fn serve_solo_fingerprint(def: &ServeJobDef) -> Result<u64, String> {
    let (app, pattern) = serve_app_for(def)?;
    let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(1))
        .run()
        .map_err(|e| format!("solo run of {}: {e}", def.name))?;
    Ok(result.fingerprint())
}

/// Parses a serve jobfile: `<app> <vertices> <seed> [priority]` per
/// line, `#` comments and blank lines skipped.
fn parse_jobfile(text: &str) -> Result<Vec<ServeJobDef>, String> {
    let mut defs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 3 || fields.len() > 4 {
            return Err(format!(
                "jobfile line {}: expected `<app> <vertices> <seed> [priority]`, got `{line}`",
                lineno + 1
            ));
        }
        let app = AppKind::parse(fields[0]).ok_or(format!(
            "jobfile line {}: unknown app {}",
            lineno + 1,
            fields[0]
        ))?;
        let vertices: u64 = fields[1]
            .parse()
            .map_err(|_| format!("jobfile line {}: bad vertices {}", lineno + 1, fields[1]))?;
        let seed: u64 = fields[2]
            .parse()
            .map_err(|_| format!("jobfile line {}: bad seed {}", lineno + 1, fields[2]))?;
        let priority: u8 = match fields.get(3) {
            Some(p) => p
                .parse()
                .map_err(|_| format!("jobfile line {}: bad priority {p}", lineno + 1))?,
            None => 0,
        };
        defs.push(ServeJobDef {
            name: format!("{}:{}", fields[0], defs.len()),
            app,
            vertices,
            seed,
            priority,
        });
    }
    if defs.is_empty() {
        return Err("jobfile has no jobs".into());
    }
    Ok(defs)
}

/// Job-level metrics of a finished serve, Prometheus-renderable.
fn build_serve_registry(report: &ServeReport<u32>) -> Registry {
    let reg = Registry::new();
    reg.counter(
        "dpx10_jobs_done_total",
        "jobs that completed with a result",
        &[],
    )
    .add(report.succeeded() as u64);
    reg.counter(
        "dpx10_jobs_failed_total",
        "jobs that ended in an error",
        &[],
    )
    .add((report.jobs.len() - report.succeeded()) as u64);
    reg.gauge(
        "dpx10_jobs_active_peak",
        "most jobs concurrently admitted on the shared mesh",
        &[],
    )
    .set(report.peak_in_flight as f64);
    for job in &report.jobs {
        reg.histogram_ns("dpx10_job_wait_ns", "submit-to-admission wait per job", &[])
            .observe(job.wait.as_nanos() as u64);
    }
    reg
}

/// The job list a serve invocation describes (jobfile or sweep), with
/// every app checked servable before any work starts.
fn serve_defs(args: &crate::args::ServeArgs) -> Result<Vec<ServeJobDef>, String> {
    let defs: Vec<ServeJobDef> = match &args.jobfile {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            parse_jobfile(&text)?
        }
        None => (0..args.jobs)
            .map(|k| ServeJobDef {
                name: format!("{}:{k}", args.app.name()),
                app: args.app,
                vertices: args.vertices,
                seed: args.seed.wrapping_add(u64::from(k)),
                priority: 0,
            })
            .collect(),
    };
    // Fail fast on un-servable apps before any thread spawns.
    for def in &defs {
        serve_app_for(def)?;
    }
    Ok(defs)
}

/// `dpx10 serve`: several DP jobs on one shared in-process socket mesh
/// (every place a thread). Jobs come from a
/// jobfile or a `--jobs N --app A` sweep; `--verify` re-runs every job
/// solo and errs on any fingerprint divergence.
pub fn run_serve(args: &crate::args::ServeArgs) -> Result<String, String> {
    if args.elastic {
        return run_serve_elastic(args);
    }
    let defs = serve_defs(args)?;

    let recorder = if args.trace_out.is_some() {
        Recorder::with_capacity(args.places as usize, 1 << 20)
    } else {
        Recorder::disabled()
    };
    let places = args.places;
    let max_in_flight = args.max_in_flight;
    let comms = args.comms;
    // Every place builds the identical server (the serve contract).
    let build = || -> Result<dpx10_core::JobServer<ServeJobApp>, String> {
        let mut server = dpx10_core::JobServer::new()
            .with_max_in_flight(max_in_flight)
            .with_recorder(recorder.clone());
        for def in &defs {
            let (app, pattern) = serve_app_for(def)?;
            let mut config = EngineConfig {
                topology: Topology::flat(places),
                ..EngineConfig::paper(1)
            };
            config.comms = comms;
            server
                .submit(
                    dpx10_core::JobSpec::new(def.name.clone(), app, pattern, config)
                        .with_priority(def.priority),
                )
                .map_err(|e| e.to_string())?;
        }
        Ok(server)
    };
    let report = local_mesh(places, |socket| {
        build()?.serve(socket).map_err(|e| e.to_string())
    })?;

    let mut out = format!(
        "serve: {} job(s), {} places, admission cap {}\n",
        defs.len(),
        places,
        max_in_flight
    );
    let mut failures = Vec::new();
    for (job, def) in report.jobs.iter().zip(&defs) {
        match &job.result {
            Ok(result) => {
                let r = result.report();
                out.push_str(&format!(
                    "  {:<20} prio {}  wait {:>9?}  epochs {}  recoveries {}  fingerprint {:#018x}",
                    job.name,
                    job.priority,
                    job.wait,
                    r.epochs,
                    r.recoveries.len(),
                    result.fingerprint()
                ));
                if args.verify {
                    let solo = serve_solo_fingerprint(def)?;
                    if solo == result.fingerprint() {
                        out.push_str("  verified");
                    } else {
                        failures.push(format!(
                            "job {} fingerprint {:#018x} != solo {:#018x}",
                            job.name,
                            result.fingerprint(),
                            solo
                        ));
                        out.push_str("  MISMATCH");
                    }
                }
                out.push('\n');
            }
            Err(e) => {
                failures.push(format!("job {} failed: {e}", job.name));
                out.push_str(&format!(
                    "  {:<20} prio {}  FAILED: {e}\n",
                    job.name, job.priority
                ));
            }
        }
    }
    out.push_str(&format!(
        "done: {}/{} succeeded, peak {} in flight\n",
        report.succeeded(),
        report.jobs.len(),
        report.peak_in_flight
    ));
    if let Some(path) = &args.trace_out {
        let trace = recorder.drain();
        chrome::write(std::path::Path::new(path), &trace)
            .map_err(|e| format!("write trace {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = &args.metrics_out {
        let registry = build_serve_registry(&report);
        std::fs::write(path, registry.render_prometheus())
            .map_err(|e| format!("write metrics {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(out)
}

/// Renders a mesh-size timeline (`3 -> 4 -> 5 -> 4 -> 3`) from the
/// report's samples: the founding mesh, then every membership change.
fn mesh_timeline(sizes: &[(u64, u16)]) -> String {
    let sizes: Vec<String> = sizes.iter().map(|&(_, n)| n.to_string()).collect();
    sizes.join(" -> ")
}

/// `dpx10 serve --elastic`: the same job sweep, but on the elastic mesh.
/// Every job runs under a grow-and-drain churn plan — two places join
/// mid-sweep and drain back out before the job ends — each change an
/// epoch boundary at which a drainer hands its finished cells over,
/// never recomputed. Every job's fingerprint is compared against its
/// solo run, so the membership churn is proven invisible to the results.
fn run_serve_elastic(args: &crate::args::ServeArgs) -> Result<String, String> {
    if args.capacity < args.places + 2 {
        return Err(format!(
            "--elastic grows the mesh by 2 places mid-sweep: --capacity {} leaves no room above --places {}",
            args.capacity, args.places
        ));
    }
    let defs = serve_defs(args)?;
    let recorder = if args.trace_out.is_some() {
        Recorder::with_capacity(args.capacity as usize, 1 << 20)
    } else {
        Recorder::disabled()
    };
    let mut server = ElasticServer::new(args.places, args.capacity).with_recorder(recorder.clone());

    // Each job's plan: grow by two joiners early, drain them late. The
    // mesh returns to its founders between jobs, so the joiners always
    // receive the same two fresh place ids. The second drainer then
    // holds the last quarter of the columns, so at 80 % of a grid it has
    // finished cells to hand over whatever the schedule.
    let joiner_a = args.places;
    let joiner_b = args.places + 1;
    let ev = |at: f64, verb: ElasticVerb| ElasticEvent { at, verb };

    let mut out = format!(
        "serve (elastic): {} job(s), {} founding places, capacity {}\n",
        defs.len(),
        args.places,
        args.capacity
    );
    let mut failures = Vec::new();
    let mut totals = ElasticReport::default();
    for def in &defs {
        let plan = ElasticPlan {
            seed: def.seed,
            events: vec![
                ev(0.10, ElasticVerb::Join),
                ev(0.18, ElasticVerb::Join),
                ev(
                    0.55,
                    ElasticVerb::Drain {
                        place: PlaceId(joiner_a),
                    },
                ),
                ev(
                    0.80,
                    ElasticVerb::Drain {
                        place: PlaceId(joiner_b),
                    },
                ),
            ],
        };
        let (app, pattern) = serve_app_for(def)?;
        let run = server
            .run_job(app, pattern, plan)
            .map_err(|e| format!("job {}: {e}", def.name))?;
        let solo = serve_solo_fingerprint(def)?;
        let r = run.report();
        out.push_str(&format!(
            "  {:<20} fingerprint {:#018x}  mesh {}  handed over {} cell(s)",
            def.name,
            run.fingerprint(),
            mesh_timeline(&r.mesh_sizes),
            r.cells_moved
        ));
        if run.fingerprint() == solo {
            out.push_str("  verified");
        } else {
            failures.push(format!(
                "job {} fingerprint {:#018x} != solo {:#018x}",
                def.name,
                run.fingerprint(),
                solo
            ));
            out.push_str("  MISMATCH");
        }
        out.push('\n');
        if r.recomputed > 0 {
            failures.push(format!(
                "job {} recomputed {} cell(s) under graceful churn",
                def.name, r.recomputed
            ));
        }
        if r.final_members.len() != args.places as usize {
            failures.push(format!(
                "job {} ended with members {:?}, expected the {} founders",
                def.name, r.final_members, args.places
            ));
        }
        totals.joins += r.joins;
        totals.drains += r.drains;
        totals.cells_moved += r.cells_moved;
        totals.recomputed += r.recomputed;
    }
    out.push_str(&format!(
        "done: {} job(s), {} joins, {} drains, {} cells handed over, {} recomputed\n",
        server.jobs_run(),
        totals.joins,
        totals.drains,
        totals.cells_moved,
        totals.recomputed
    ));
    if let Some(path) = &args.trace_out {
        let trace = recorder.drain();
        chrome::write(std::path::Path::new(path), &trace)
            .map_err(|e| format!("write trace {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = &args.metrics_out {
        let reg = Registry::new();
        reg.gauge(
            "dpx10_mesh_size",
            "current member count of the elastic mesh",
            &[],
        )
        .set(server.members().len() as f64);
        reg.counter(
            "dpx10_cells_moved_total",
            "finished cells drained places handed over at their boundaries",
            &[],
        )
        .add(totals.cells_moved);
        reg.counter("dpx10_joins_total", "places that joined mid-run", &[])
            .add(totals.joins);
        reg.counter("dpx10_drains_total", "graceful departures", &[])
            .add(totals.drains);
        reg.counter(
            "dpx10_jobs_done_total",
            "jobs that completed with a result",
            &[],
        )
        .add(server.jobs_run());
        std::fs::write(path, reg.render_prometheus())
            .map_err(|e| format!("write metrics {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(out)
}

/// `dpx10 join`: asks a running socket mesh's coordinator for admission
/// as a probe (no place id of its own), dials the members it names,
/// reports the assigned place and live roster, then drains back out
/// gracefully.
pub fn run_join(coordinator: &str) -> Result<String, String> {
    let probe = SocketConfig::worker(PlaceId::ZERO, 0, coordinator.to_string());
    let node = SocketNode::connect(probe).map_err(|e| format!("join {coordinator}: {e}"))?;
    let roster = node.roster();
    let members: Vec<String> = roster.members().iter().map(|p| p.0.to_string()).collect();
    let out = format!(
        "joined mesh at {coordinator} as place {}\n\
         mesh: {} live member(s) of capacity {} (roster v{})\n\
         members: {}\n\
         draining back out (this probe holds no chunks)\n",
        node.me().0,
        members.len(),
        node.capacity(),
        roster.version(),
        members.join(" ")
    );
    node.drain();
    Ok(out)
}

/// `dpx10 apps`: one line per application.
pub fn list_apps() -> String {
    let mut out = String::from("applications (paper SVIII + extensions):\n");
    for app in AppKind::ALL {
        out.push_str(&format!("  {:<18} {}\n", app.name(), app.describe()));
    }
    out
}

/// `dpx10 patterns`: analysis of the built-in library at a given size.
pub fn list_patterns(height: u32, width: u32) -> String {
    let mut out = format!(
        "built-in DAG patterns at {height}x{width} (paper Fig. 5 a-h):\n{:<20} {:>9} {:>14} {:>17}\n",
        "pattern", "vertices", "critical path", "peak parallelism"
    );
    for kind in BuiltinKind::ALL {
        let p = kind.instantiate(height, width);
        let profile = wavefront_profile(&p);
        out.push_str(&format!(
            "{:<20} {:>9} {:>14} {:>17}\n",
            p.name(),
            p.vertex_count(),
            critical_path_len(&p),
            profile.iter().copied().max().unwrap_or(0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::RunArgs;

    #[test]
    fn mesh_timeline_starts_at_the_founding_size_once() {
        // `ElasticReport::mesh_sizes` opens with `(0, founding)`.
        let sizes = [(0, 3), (15, 4), (26, 5), (80, 4), (101, 3)];
        assert_eq!(mesh_timeline(&sizes), "3 -> 4 -> 5 -> 4 -> 3");
        assert_eq!(mesh_timeline(&sizes[..1]), "3");
    }

    #[test]
    fn every_app_runs_small_on_sim() {
        for app in AppKind::ALL {
            let args = RunArgs {
                app,
                vertices: 2_000,
                nodes: 2,
                ..RunArgs::default()
            };
            let summary = run(&args, &[]).unwrap_or_else(|e| panic!("{app:?}: {e}"));
            assert!(!summary.answer.is_empty());
            assert!(summary.report.sim_time > Duration::ZERO, "{app:?}");
        }
    }

    #[test]
    fn threaded_engine_runs_too() {
        let args = RunArgs {
            app: AppKind::Lcs,
            engine: EngineChoice::Threaded,
            vertices: 2_500,
            places: 2,
            ..RunArgs::default()
        };
        let summary = run(&args, &[]).unwrap();
        assert!(summary.answer.starts_with("LCS length"));
        assert!(summary.render().contains("wall time"));
    }

    #[test]
    fn fault_run_reports_recovery() {
        let args = RunArgs {
            app: AppKind::Mtp,
            vertices: 10_000,
            nodes: 2,
            fault: Some((dpx10_apgas::PlaceId(3), 0.5)),
            ..RunArgs::default()
        };
        let summary = run(&args, &[]).unwrap();
        assert_eq!(summary.report.recoveries.len(), 1);
        assert!(summary.render().contains("recovery #0"));
    }

    #[test]
    fn timeline_requested_is_rendered() {
        let args = RunArgs {
            app: AppKind::Swlag,
            vertices: 5_000,
            nodes: 2,
            timeline: true,
            ..RunArgs::default()
        };
        let summary = run(&args, &[]).unwrap();
        let text = summary.render();
        assert!(text.contains("activity timeline"));
        assert!(text.contains("place   0 |"));
    }

    #[test]
    fn listings_are_complete() {
        let apps = list_apps();
        for app in AppKind::ALL {
            assert!(apps.contains(app.name()), "{app:?} missing from listing");
        }
        let pats = list_patterns(12, 12);
        assert!(pats.contains("grid3"));
        assert!(pats.contains("interval-upper"));
        assert_eq!(pats.lines().count(), 2 + 8);
    }
}

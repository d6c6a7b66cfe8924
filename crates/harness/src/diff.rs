//! The differential runner: one seed, four backends, one verdict.

use std::time::Duration;

use dpx10_apgas::{local_mesh, ChaosPlan, KillTrigger, SocketChaos, SocketConfig};
use dpx10_core::{
    CommsMode, DagResult, EngineConfig, FaultPlan, RunReport, SocketEngine, ThreadedEngine,
};
use dpx10_dag::topological_order;
use dpx10_obs::{oracle as trace_oracle, Recorder, Trace};
use dpx10_sim::SimEngine;

use crate::app::{oracle, MixApp};
use crate::scenario::Scenario;

/// What the runner executes per seed.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOptions {
    /// Run the in-process socket mesh (the slowest backend: planned
    /// kills are detected by heartbeat timeout, so each kill costs real
    /// wall-clock time).
    pub sockets: bool,
    /// On failure, shrink the chaos plan to a locally minimal
    /// counterexample before reporting.
    pub shrink: bool,
    /// Message-coalescing byte budget for the threaded and socket
    /// backends (`None` = the classic one-message-per-event plane). The
    /// serial oracle and the simulator never coalesce, so a coalesced
    /// sweep still compares against uncoalesced references cell by cell.
    pub coalesce: Option<usize>,
    /// Anti-dependency delivery mode for the simulator, threaded and
    /// socket backends. The serial oracle has no comms plane, so a push
    /// sweep still checks every cell against a pull-free reference.
    pub comms: CommsMode,
    /// Prefix aggregation for interval-dependency (ranged) patterns on
    /// the threaded and socket backends. The sweep's mixing kernel has
    /// no aggregation spec, so this only matters for apps that do; it
    /// is threaded through so targeted suites can flip it.
    pub agg: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            sockets: true,
            shrink: true,
            coalesce: None,
            comms: CommsMode::Pull,
            agg: true,
        }
    }
}

/// A verified divergence: which backend broke the contract and how.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The backend that diverged (`"sim"`, `"threads"`, `"sockets"`).
    pub backend: &'static str,
    /// What went wrong, deterministically rendered (no wall times).
    pub reason: String,
    /// The shrunk plan that still reproduces the failure, when
    /// shrinking was requested and found a simpler one. Boxed to keep
    /// `Failure` (and the `Result`s carrying it) small.
    pub minimal: Option<Box<ChaosPlan>>,
}

/// The outcome of one seed.
#[derive(Clone, Debug)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Human-readable scenario description (pattern, shape, plan).
    pub scenario: String,
    /// The chaos plan the scenario expanded to.
    pub plan: ChaosPlan,
    /// `None` when every backend agreed and every invariant held.
    pub failure: Option<Failure>,
}

impl SeedReport {
    /// Whether the seed passed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// One deterministic report line: identical across re-runs of the
    /// same seed (no timestamps, no wall-clock content).
    pub fn render(&self) -> String {
        match &self.failure {
            None => format!("seed={:#018x} PASS {}", self.seed, self.scenario),
            Some(f) => {
                let mut line = format!(
                    "seed={:#018x} FAIL [{}] {} | scenario: {}",
                    self.seed, f.backend, f.reason, self.scenario
                );
                if let Some(min) = &f.minimal {
                    line.push_str(&format!(" | minimal: {min}"));
                }
                line
            }
        }
    }
}

fn fail(backend: &'static str, reason: impl Into<String>) -> Failure {
    Failure {
        backend,
        reason: reason.into(),
        minimal: None,
    }
}

/// Compares a finished run against the oracle, cell by cell in
/// topological order (deterministic first-mismatch reporting).
fn check_values(
    backend: &'static str,
    sc: &Scenario,
    expect: &std::collections::HashMap<dpx10_dag::VertexId, u64>,
    result: &DagResult<u64>,
) -> Result<(), Failure> {
    let order = topological_order(sc.pattern.as_ref()).expect("validated");
    for id in order {
        let got = result.try_get(id.i, id.j);
        let want = expect.get(&id).copied();
        if got != want {
            return Err(fail(
                backend,
                format!("value mismatch at {id}: got {got:?}, want {want:?}"),
            ));
        }
    }
    Ok(())
}

/// The recovery invariants every backend must uphold:
/// * `tasks_run` means "vertices computed" everywhere, kill or no kill,
/// * a run with no armed failure finishes in one epoch with zero
///   recomputation, and
/// * recomputation never exceeds the cells actually lost to failures —
///   surviving cells are never recomputed. The simulator counts
///   computation at publish time, so its recomputation is exactly the
///   dropped + lost sum; the threaded and socket backends can strand up
///   to one mid-execute vertex per worker slot when an epoch aborts, so
///   each recovery earns `slots` cells of slack on top of that sum.
fn check_recovery(
    backend: &'static str,
    plan: &ChaosPlan,
    report: &RunReport,
    slots: u64,
) -> Result<(), Failure> {
    if report.comm.tasks_run != report.vertices_computed {
        return Err(fail(
            backend,
            format!(
                "tasks_run is {} but {} vertices were computed",
                report.comm.tasks_run, report.vertices_computed
            ),
        ));
    }
    if plan.kills.is_empty() {
        if report.epochs != 1 {
            return Err(fail(
                backend,
                format!("{} epochs without any planned failure", report.epochs),
            ));
        }
        if report.recomputed() != 0 {
            return Err(fail(
                backend,
                format!(
                    "{} cells recomputed without any planned failure",
                    report.recomputed()
                ),
            ));
        }
    }
    let lost: u64 = report.recoveries.iter().map(|r| r.dropped + r.lost).sum();
    let budget = lost + report.recoveries.len() as u64 * slots;
    if report.recomputed() > budget {
        return Err(fail(
            backend,
            format!(
                "surviving cells recomputed: {} recomputations but only {} cells lost \
                 (+{} in-flight slack)",
                report.recomputed(),
                lost,
                budget - lost
            ),
        ));
    }
    Ok(())
}

/// The flight-recorder oracle: spans must nest per worker track and the
/// recovery-span count must match the report. Only judged on complete
/// traces — a ring that dropped events can legitimately miss a span.
fn check_trace(backend: &'static str, trace: &Trace, report: &RunReport) -> Result<(), Failure> {
    if trace.dropped > 0 {
        return Ok(());
    }
    trace_oracle::check_span_nesting(&trace.events)
        .map_err(|e| fail(backend, format!("trace oracle: {e}")))?;
    trace_oracle::check_recovery_count(&trace.events, report.recoveries.len())
        .map_err(|e| fail(backend, format!("trace oracle: {e}")))
}

/// The first progress-triggered kill of `plan`, as the legacy
/// single-fault plan the simulator understands (the paper's §VIII-C
/// mid-run failure shape).
pub fn fault_plan_of(plan: &ChaosPlan) -> Option<FaultPlan> {
    plan.kills.iter().find_map(|k| match k.trigger {
        KillTrigger::Progress(after_fraction) => Some(FaultPlan {
            place: k.place,
            after_fraction,
        }),
        KillTrigger::After(_) => None,
    })
}

/// The simulator's configuration for a scenario under `plan`: the real
/// engines' config, with the plan's first progress kill as its one fault
/// and without the transport knobs the simulator refuses.
fn sim_config(sc: &Scenario, plan: &ChaosPlan, opts: &ChaosOptions) -> EngineConfig {
    EngineConfig {
        chaos: None,
        coalesce: None,
        fault: fault_plan_of(plan),
        ..engine_config(sc, plan, opts)
    }
}

fn check_sim(
    sc: &Scenario,
    plan: &ChaosPlan,
    expect: &std::collections::HashMap<dpx10_dag::VertexId, u64>,
    opts: &ChaosOptions,
) -> Result<(), Failure> {
    let config = sim_config(sc, plan, opts);
    // Each run gets a fresh recorder, so each trace is one run's.
    let traced_run = || {
        let recorder = Recorder::new(sc.places as usize);
        let result = SimEngine::new(MixApp, sc.pattern.clone(), config.clone())
            .with_recorder(recorder.clone())
            .run();
        result.map(|r| (r, recorder.drain()))
    };
    let (result, trace) = traced_run().map_err(|e| fail("sim", format!("run failed: {e}")))?;
    check_values("sim", sc, expect, &result)?;
    check_recovery("sim", plan, result.report(), u64::from(sc.places))?;
    check_trace("sim", &trace, result.report())?;
    // The virtual clock makes the whole schedule deterministic: a
    // second run must replay the exact same event trace.
    let (_, replay) = traced_run().map_err(|e| fail("sim", format!("rerun failed: {e}")))?;
    let (a, b) = (trace.fingerprint(), replay.fingerprint());
    if a != b {
        return Err(fail(
            "sim",
            format!("trace fingerprint not reproducible: {a:#018x} vs {b:#018x}"),
        ));
    }
    Ok(())
}

fn engine_config(sc: &Scenario, plan: &ChaosPlan, opts: &ChaosOptions) -> EngineConfig {
    let mut config = EngineConfig::flat(sc.places)
        .with_dist(sc.dist.clone())
        .with_schedule(sc.schedule)
        .with_cache(sc.cache)
        .with_chaos(plan.clone())
        .with_coalesce(opts.coalesce)
        .with_comms(opts.comms)
        .with_aggregation(opts.agg);
    config.stall_limit = Duration::from_secs(20);
    config
}

fn check_threads(
    sc: &Scenario,
    plan: &ChaosPlan,
    expect: &std::collections::HashMap<dpx10_dag::VertexId, u64>,
    opts: &ChaosOptions,
) -> Result<(), Failure> {
    let config = engine_config(sc, plan, opts);
    let recorder = Recorder::new(sc.places as usize);
    let result = ThreadedEngine::new(MixApp, sc.pattern.clone(), config)
        .with_recorder(recorder.clone())
        .run()
        .map_err(|e| fail("threads", format!("run failed: {e}")))?;
    let recorded = recorder.drain();
    check_values("threads", sc, expect, &result)?;
    check_recovery("threads", plan, result.report(), u64::from(sc.places))?;
    check_trace("threads", &recorded, result.report())
}

fn check_sockets(
    sc: &Scenario,
    plan: &ChaosPlan,
    expect: &std::collections::HashMap<dpx10_dag::VertexId, u64>,
    opts: &ChaosOptions,
) -> Result<(), Failure> {
    // The socket mesh gets the plan's kills (delivered as `Die` frames,
    // absorbed as soft crashes so every place stays a thread of this
    // process) and its delay chaos. Frame duplication/drop stays off —
    // the control plane counts frames — and heartbeat flapping is
    // covered by its own targeted transport test, not the differential
    // suite, because a long flap legitimately diverges the epoch count.
    let net = if plan.net.is_off() {
        None
    } else {
        Some(SocketChaos::delay_only(
            plan.seed,
            plan.net.delay_prob,
            Duration::from_millis(plan.net.max_delay_ticks.clamp(1, 8)),
        ))
    };
    // Keep kills+shake, strip transport/flap chaos handled above.
    let mut engine_plan = plan.clone();
    engine_plan.net = dpx10_apgas::NetChaos::off();
    engine_plan.flap = None;
    let config = engine_config(sc, &engine_plan, opts);

    let result = local_mesh(sc.places, |mut cfg: SocketConfig| {
        cfg.heartbeat = Duration::from_millis(25);
        cfg.peer_timeout = Duration::from_millis(600);
        cfg.chaos = net;
        SocketEngine::new(MixApp, sc.pattern.clone(), config.clone())
            .with_soft_die()
            .run(cfg)
    })
    .map_err(|e| fail("sockets", e))?;
    check_values("sockets", sc, expect, &result)?;
    check_recovery("sockets", plan, result.report(), u64::from(sc.places))
}

/// Runs `plan` over the scenario's pattern on every requested backend
/// and returns the first broken invariant, if any.
pub fn check_plan(sc: &Scenario, plan: &ChaosPlan, opts: &ChaosOptions) -> Result<(), Failure> {
    let expect = oracle(sc.pattern.as_ref());
    check_sim(sc, plan, &expect, opts)?;
    check_threads(sc, plan, &expect, opts)?;
    if opts.sockets {
        check_sockets(sc, plan, &expect, opts)?;
    }
    Ok(())
}

/// Shrinks a failing plan: repeatedly tries one-step-simpler candidate
/// plans (most aggressive simplification first) and recurses into the
/// first that still fails, stopping at a locally minimal plan.
pub fn shrink_failure(sc: &Scenario, plan: &ChaosPlan, opts: &ChaosOptions) -> ChaosPlan {
    let mut current = plan.clone();
    'outer: loop {
        for cand in current.shrink() {
            if check_plan(sc, &cand, opts).is_err() {
                current = cand;
                continue 'outer;
            }
        }
        return current;
    }
}

/// Expands `seed` into a scenario, runs it differentially on every
/// backend, and reports — shrinking the chaos plan on failure when
/// requested.
pub fn run_seed(seed: u64, opts: &ChaosOptions) -> SeedReport {
    let sc = Scenario::generate(seed);
    let mut failure = check_plan(&sc, &sc.plan, opts).err();
    if let Some(f) = &mut failure {
        if opts.shrink {
            let minimal = shrink_failure(&sc, &sc.plan, opts);
            if minimal != sc.plan {
                f.minimal = Some(Box::new(minimal));
            }
        }
    }
    SeedReport {
        seed,
        scenario: sc.to_string(),
        plan: sc.plan,
        failure,
    }
}

/// Re-runs a failing seed's scenario on the simulator with a flight
/// recorder attached and writes the resulting Chrome trace next to the
/// temp dir, returning the path. The run's outcome is irrelevant here —
/// whatever events were recorded before a failure are exactly what a
/// human debugging the seed wants to look at.
pub fn write_failure_trace(seed: u64) -> Option<std::path::PathBuf> {
    let sc = Scenario::generate(seed);
    let config = sim_config(&sc, &sc.plan, &ChaosOptions::default());
    let recorder = Recorder::new(sc.places as usize);
    let _ = SimEngine::new(MixApp, sc.pattern.clone(), config)
        .with_recorder(recorder.clone())
        .run();
    let trace = recorder.drain();
    let path = std::env::temp_dir().join(format!("dpx10-chaos-{seed:016x}.trace.json"));
    dpx10_obs::chrome::write(&path, &trace).ok()?;
    Some(path)
}

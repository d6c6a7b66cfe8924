//! One workload, measured in a process of its own.
//!
//! Set-up (several times, so its time has a median) → timed reps for
//! the run's seconds, tracing off, each held to the warm-up's digests,
//! with runs of the native code interleaved where there is one → with
//! tracing asked for: one traced rep, then the layer probes and the ledger.
//! Times are reported at zero steal (see README, "Stolen CPU time").

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dpx10_core::RunReport;
use dpx10_obs::Recorder;

use crate::probes::Probe;
use crate::report::{MetricResult, WorkloadResult};
use crate::spans::Spans;
use crate::stats::{highest_percentile, median, percentile, without_linear_part};
use crate::workloads::{self, Op, Rep, Traffic, Workload, PLACES};

/// What the run reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trace {
    /// End-to-end metrics only (`--trace 0`).
    Off,
    /// Per-layer metrics: fewer timed reps, then the traced rep and the
    /// probes (`--trace 1`).
    On,
    /// Both, as one full run (no `--trace`).
    Both,
}

/// Settings of one workload child.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed reps may take.
    pub seconds: f64,
    /// What to measure.
    pub trace: Trace,
    /// Two reps, one set-up, no probes: for local iteration only, not
    /// comparable with anything.
    pub quick: bool,
    /// Inputs at `1/scale` of their size (tests use 100).
    pub scale: u32,
    /// Where `trace-<workload>.json` goes; `None` writes nothing.
    pub out: Option<PathBuf>,
}

/// Set-ups per run, so that `setup_s` is a median: at least the first
/// number, then more while they have taken less than [`SETUP_TIME`]
/// together, up to the second. A 0.3 s set-up on a socket mesh spreads
/// five times as wide as a 1 s one on two threads, and costs a third.
const SETUPS: (usize, usize) = (5, 15);

/// Time the set-ups of a run fill if they are short.
const SETUP_TIME: Duration = Duration::from_secs(4);

/// Fewest timed reps of a run that is not `--quick`.
const MIN_REPS: usize = 3;

/// Native samples taken after every timed rep.
const NATIVES_PER_REP: usize = 3;

/// A native sample repeats the native run until it has run this long.
const NATIVE_SAMPLE: Duration = Duration::from_millis(20);

/// Measures one workload. `origin` is the process's start, so the first
/// set-up includes start-up. Errors are reported as failed operations in
/// the result, never as a panic.
pub fn measure(opts: &Options, origin: Instant) -> WorkloadResult {
    let mut spans = Spans::new(&opts.workload, origin);
    let mut result = WorkloadResult {
        name: opts.workload.clone(),
        ..WorkloadResult::default()
    };
    if let Err(e) = measure_into(opts, origin, &mut spans, &mut result) {
        // Nothing after a failed set-up or probe can be trusted: count
        // it as one more failed operation.
        result.attempted += 1;
        result.failed += 1;
        result.notes.push(e);
    }
    if opts.trace != Trace::Off {
        let failed_frac = result.failed_frac();
        result
            .metrics
            .push(MetricResult::new("failed_frac", &[failed_frac]));
    }
    if let Some(dir) = &opts.out {
        if opts.trace != Trace::Off {
            let path = dir.join(format!("trace-{}.json", opts.workload));
            if let Err(e) = std::fs::write(&path, spans.to_chrome_json()) {
                result.notes.push(format!("{}: {e}", path.display()));
            }
        }
    }
    result
}

fn measure_into(
    opts: &Options,
    origin: Instant,
    spans: &mut Spans,
    result: &mut WorkloadResult,
) -> Result<(), String> {
    // ---- set-up: generate, construct, warm up, check against the oracle
    let (fewest, most) = if opts.quick || opts.trace == Trace::On {
        (1, 1)
    } else {
        SETUPS
    };
    let (mut setup_s, mut setup_stolen) = (Vec::new(), Vec::new());
    let mut built: Option<(Box<dyn Workload>, Vec<u64>)> = None;
    // Peak memory is read when the process has run the workload once
    // (and checked it): what a user who runs one DAG needs. Later it also
    // holds what the allocator keeps from dozens of reps on ten threads,
    // which differs by 30 % between runs of one commit.
    let mut peak_rss = 0;
    let mut round = 0;
    while round < fewest || (round < most && origin.elapsed() < SETUP_TIME) {
        drop(built.take()); // free the previous round before building the next
        let started = if round == 0 { origin } else { Instant::now() };
        let stolen = stolen_seconds();
        let (outcome, _) = spans.time("setup", |spans| {
            let (workload, _) = spans.time("generate+construct", |_| {
                workloads::build(&opts.workload, opts.seed, opts.scale)
            });
            let mut workload = workload?;
            let (expected, _) = spans.time("warm-up+oracle", |spans| workload.warm_up(spans));
            Ok::<_, String>((workload, expected?))
        });
        built = Some(outcome?);
        setup_s.push(started.elapsed().as_secs_f64());
        setup_stolen.push(stolen_seconds() - stolen);
        if round == 0 {
            peak_rss = peak_rss_bytes();
        }
        eprintln!(
            "dpxbench: {} set-up {}: {:.4} s",
            opts.workload,
            round + 1,
            setup_s[round]
        );
        round += 1;
    }
    let (workload, expected) = built.expect("at least one set-up ran");
    let vertices = workload.vertices() as f64;

    // ---- timed reps, tracing off
    let budget = Duration::from_secs_f64(match opts.trace {
        Trace::On => opts.seconds / 2.0,
        _ => opts.seconds,
    });
    let off = Recorder::disabled();
    let mut reps: Vec<Rep> = Vec::new();
    let mut stolen: Vec<f64> = Vec::new();
    let mut natives: Vec<f64> = Vec::new();
    let loop_started = Instant::now();
    loop {
        let before = stolen_seconds();
        reps.push(guarded_rep(workload.as_ref(), spans, &off, expected.len()));
        stolen.push(stolen_seconds() - before);
        for _ in 0..NATIVES_PER_REP {
            let (sample, _) = spans.time("native", |_| native_sample(workload.as_ref()));
            natives.extend(sample);
        }
        let done = reps.len();
        eprintln!(
            "dpxbench: {} rep {done}: {:.4} s, {:.2} CPU-s stolen",
            opts.workload,
            reps[done - 1].wall.as_secs_f64(),
            stolen[done - 1]
        );
        let elapsed = loop_started.elapsed();
        let next_ends = elapsed + elapsed / done as u32;
        if opts.quick {
            if done >= 2 {
                break;
            }
        } else if done >= MIN_REPS && next_ends > budget {
            break;
        }
    }
    eprintln!(
        "dpxbench: {} VmHWM {} MiB after one set-up, {} MiB after the reps",
        opts.workload,
        peak_rss >> 20,
        peak_rss_bytes() >> 20
    );

    for rep in &reps {
        count_rep(result, rep, &expected);
    }
    let (good, stolen): (Vec<&Rep>, Vec<f64>) = reps
        .iter()
        .zip(stolen)
        .filter(|(r, _)| r.wall > Duration::ZERO && r.ops.iter().all(|op| op.digest.is_ok()))
        .unzip();
    if good.is_empty() {
        return Err("no timed rep succeeded".to_string());
    }

    // ---- end-to-end metrics: what every workload has
    // Times are taken at zero steal: on a shared host the hypervisor
    // runs other guests on this one's CPUs for minutes at a time, a rep's
    // wall follows the CPU time stolen during it almost exactly (r =
    // 0.9–0.99 in every disturbed run looked at), and the workloads that
    // sleep and wake most read up to three times slow. See README,
    // "Stolen CPU time".
    let raw: Vec<f64> = good.iter().map(|r| r.wall.as_secs_f64()).collect();
    let (per_stolen, walls) = without_linear_part(&stolen, &raw);
    let setup_s: Vec<f64> = setup_s
        .iter()
        .zip(&setup_stolen)
        .map(|(&s, stolen)| {
            Some(s - per_stolen * stolen)
                .filter(|&rest| rest > 0.0)
                .unwrap_or(s)
        })
        .collect();
    result.notes.push(format!(
        "the host stole {:.1} % of the CPU time during the timed reps; wall_s and setup_s are \
         less {per_stolen:.2} s per stolen CPU-second (raw median wall {:.4} s)",
        100.0 * stolen.iter().sum::<f64>() / (cpus() * raw.iter().sum::<f64>()),
        median(&raw)
    ));
    let rates: Vec<f64> = walls.iter().map(|w| vertices / w).collect();
    let mut push = |name: &str, values: &[f64]| {
        result.metrics.push(MetricResult::new(name, values));
    };
    if opts.trace != Trace::On {
        push("setup_s", &setup_s);
    }
    push("wall_s", &walls);
    push("cells_per_sec", &rates);
    push("peak_rss_mb", &[peak_rss as f64 / (1024.0 * 1024.0)]);
    if opts.quick {
        result
            .notes
            .push("--quick: two reps, no probes; not comparable".to_string());
    }
    if opts.trace == Trace::Off {
        return Ok(());
    }

    // ---- end-to-end figures only some workloads have
    if !natives.is_empty() {
        let native = median(&natives);
        let ratios: Vec<f64> = walls.iter().map(|w| w / native).collect();
        push("overhead_ratio", &ratios);
        let per_cell: Vec<f64> = natives.iter().map(|n| n * 1e9 / vertices).collect();
        push("baseline.native_ns_per_cell", &per_cell);
    }
    let recovery: Vec<f64> = good
        .iter()
        .filter_map(|r| Some(r.wall.as_secs_f64() / r.twin.as_ref()?.latency.as_secs_f64()))
        .collect();
    if !recovery.is_empty() {
        push("recovery_overhead_ratio", &recovery);
    }
    // A serve: jobs have a latency of their own (queueing + run).
    let served = good.iter().any(|r| !r.waits.is_empty());
    let latencies_ms: Vec<f64> = good
        .iter()
        .flat_map(|r| r.ops.iter().map(|op| op.latency.as_secs_f64() * 1e3))
        .collect();
    if served {
        let jobs: Vec<f64> = good
            .iter()
            .map(|r| r.ops.len() as f64 / r.wall.as_secs_f64())
            .collect();
        push("jobs_per_sec", &jobs);
        push("job_latency_p50_ms", &[median(&latencies_ms)]);
        // p90 only with ten samples beyond it.
        match highest_percentile(latencies_ms.len()) {
            Some(p) if p >= 90 => {
                push("job_latency_p90_ms", &[percentile(&latencies_ms, 90.0)]);
                result.notes.push(format!(
                    "{} job latencies support up to p{p} with ten samples beyond it",
                    latencies_ms.len()
                ));
            }
            _ => result.notes.push(format!(
                "{} job latencies are too few for a p90 with ten samples beyond it",
                latencies_ms.len()
            )),
        }
    }
    if opts.quick {
        return Ok(());
    }

    // ---- per-layer counts, read off the public reports of the timed reps
    let counts = |f: &dyn Fn(&Rep) -> Option<f64>| -> Vec<f64> {
        good.iter().filter_map(|r| f(r)).collect()
    };
    let mut layers: Vec<MetricResult> = Vec::new();
    let mut push_some = |name: &str, values: Vec<f64>| {
        if !values.is_empty() {
            layers.push(MetricResult::new(name, &values));
        }
    };
    let sum = |r: &Rep, f: &dyn Fn(&RunReport) -> u64| -> f64 {
        r.reports.iter().map(f).sum::<u64>() as f64
    };
    push_some(
        "core.report_gap_s",
        counts(&|r| match r.reports.as_slice() {
            [only] => Some(r.wall.as_secs_f64() - only.wall_time.as_secs_f64()),
            _ => None,
        }),
    );
    push_some(
        "core.place_busy_frac",
        counts(&|r| {
            let busy: f64 = r
                .reports
                .iter()
                .flat_map(|rep| rep.place_busy.iter())
                .map(Duration::as_secs_f64)
                .sum();
            Some(busy / (f64::from(PLACES) * r.wall.as_secs_f64()))
        }),
    );
    push_some(
        "core.epochs",
        counts(&|r| Some(sum(r, &|rep| u64::from(rep.epochs)) / r.reports.len().max(1) as f64)),
    );
    push_some(
        "core.recompute_frac",
        counts(&|r| Some(sum(r, &|rep| rep.recomputed()) / sum(r, &|rep| rep.vertices_total))),
    );
    push_some(
        "core.cache_hit_rate",
        counts(&|r| {
            let hits = sum(r, &|rep| rep.comm.cache_hits);
            let total = hits + sum(r, &|rep| rep.comm.cache_misses);
            (total > 0.0).then(|| hits / total)
        }),
    );
    type Field = fn(&RunReport) -> u64;
    let totals: [(&str, Field); 5] = [
        ("core.vertices_computed", |rep| rep.vertices_computed),
        ("core.pulls_sent", |rep| rep.comm.pulls_sent),
        ("core.pulls_deduped", |rep| rep.comm.pulls_deduped),
        ("core.pushes_sent", |rep| rep.comm.pushes_sent),
        ("core.pull_roundtrips_avoided", |rep| {
            rep.comm.pull_roundtrips_avoided
        }),
    ];
    for (name, field) in totals {
        push_some(name, counts(&|r| Some(sum(r, &field))));
    }
    let frames = counts(&|r| Some(sum(r, &|rep| rep.comm.messages_sent) / vertices));
    let bytes = counts(&|r| Some(sum(r, &|rep| rep.comm.bytes_sent) / vertices));
    let per_batch = counts(&|r| {
        let batches = sum(r, &|rep| rep.comm.batches_sent);
        (batches > 0.0).then(|| sum(r, &|rep| rep.comm.batched_msgs) / batches)
    });
    let frames_per_cell = median(&frames);
    let traffic = Traffic {
        frames_per_cell,
        bytes_per_frame: if frames_per_cell > 0.0 {
            median(&bytes) / frames_per_cell
        } else {
            64.0
        },
        msgs_per_batch: if per_batch.is_empty() {
            1.0
        } else {
            median(&per_batch)
        },
    };
    // A serve's per-job reports carry no traffic counters (they are
    // mesh-level there): report nothing rather than zeros.
    if traffic.frames_per_cell > 0.0 {
        push_some("apgas.frames_per_cell", frames);
        push_some("apgas.bytes_per_cell", bytes);
        push_some(
            "apgas.batches_sent",
            counts(&|r| Some(sum(r, &|rep| rep.comm.batches_sent))),
        );
        push_some("apgas.coalesce_msgs_per_batch", per_batch);
    }

    // Serve only: queueing and run time of a job.
    if served {
        let waits_ms: Vec<f64> = good
            .iter()
            .flat_map(|r| r.waits.iter().map(|w| w.as_secs_f64() * 1e3))
            .collect();
        let runs_ms: Vec<f64> = good
            .iter()
            .flat_map(|r| {
                r.reports
                    .iter()
                    .map(|rep| rep.wall_time.as_secs_f64() * 1e3)
            })
            .collect();
        push_some("core.jobs_wait_p50_ms", vec![median(&waits_ms)]);
        push_some("core.jobs_run_p50_ms", vec![median(&runs_ms)]);
        push_some(
            "core.jobs_peak_in_flight",
            counts(&|r| r.peak_in_flight.map(|n| n as f64)),
        );
    }
    push_some("core.bytes_per_vertex", vec![peak_rss as f64 / vertices]);
    push_some(
        "apps.workload_gen_s",
        vec![workload.gen_time().as_secs_f64()],
    );

    // ---- the traced rep: recorder attached, benchmark-side spans only
    let recorder = Recorder::new(usize::from(PLACES));
    let traced = guarded_rep(workload.as_ref(), spans, &recorder, expected.len());
    count_rep(result, &traced, &expected);
    let trace = recorder.drain();
    let untraced = median(&walls);
    push_some(
        "obs.recorder_on_overhead_frac",
        vec![(traced.wall.as_secs_f64() - untraced) / untraced],
    );
    push_some("obs.events_recorded", vec![trace.events.len() as f64]);
    push_some("obs.events_dropped", vec![trace.dropped as f64]);
    drop(trace);
    result.metrics.extend(layers);

    // ---- probes and the ledger
    let mut probe = Probe::new(spans);
    workload.probe(&mut probe, &traffic)?;
    let ledger = crate::ledger::Ledger::close(std::mem::take(&mut probe.ledger), median(&rates));
    for (name, value) in std::mem::take(&mut probe.values) {
        result.metrics.push(MetricResult::new(name, &[value]));
    }
    result.metrics.push(MetricResult::new(
        "ledger.probed_ns_per_vertex",
        &[ledger.probed_ns],
    ));
    result.metrics.push(MetricResult::new(
        "core.engine_residual_ns",
        &[ledger.residual_ns],
    ));
    result.ledger = ledger.rows;
    Ok(())
}

/// One rep with a panic inside it turned into failed operations.
fn guarded_rep(workload: &dyn Workload, spans: &mut Spans, recorder: &Recorder, ops: usize) -> Rep {
    catch_unwind(AssertUnwindSafe(|| workload.rep(spans, recorder)))
        .unwrap_or_else(|_| Rep::failed(ops, "rep panicked"))
}

/// Counts a rep's operations (and its twin run) against the digests the
/// warm-up pinned.
fn count_rep(result: &mut WorkloadResult, rep: &Rep, expected: &[u64]) {
    for (op, want) in rep.ops.iter().zip(expected) {
        count(result, op, *want);
    }
    if let Some(twin) = &rep.twin {
        count(result, twin, expected[0]);
    }
}

/// Counts one operation against the digest the warm-up pinned.
fn count(result: &mut WorkloadResult, op: &Op, want: u64) {
    result.attempted += 1;
    let failure = match &op.digest {
        Ok(got) if *got == want => return,
        Ok(got) => format!("digest {got:#018x}, warm-up had {want:#018x}"),
        Err(e) => e.clone(),
    };
    result.failed += 1;
    if result.notes.len() < 8 {
        result.notes.push(format!("failed operation: {failure}"));
    }
}

/// Seconds one run of the native code takes, averaged over as many runs
/// as fit in [`NATIVE_SAMPLE`] so that a millisecond run is not read off
/// a single noisy one. `None` where the workload has no native code.
fn native_sample(workload: &dyn Workload) -> Option<f64> {
    let (mut total, mut runs) = (Duration::ZERO, 0u32);
    while runs == 0 || (total < NATIVE_SAMPLE && runs < 64) {
        total += workload.native()?;
        runs += 1;
    }
    Some(total.as_secs_f64() / f64::from(runs))
}

/// CPU-seconds, summed over the guest's CPUs, that the host spent on
/// something else while this guest had work to do: `steal` of
/// `/proc/stat`, in its 10 ms ticks (0 where there is none).
fn stolen_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .map_or(0.0, |ticks: u64| ticks as f64 / 100.0)
}

/// CPUs of this guest.
fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// `VmHWM` of this process in bytes (0 where `/proc` has none).
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

//! The command line: `run`, `check-repeat`, and the internal `child`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::{self, Options, Trace};
use crate::host;
use crate::report::{results_json, WorkloadResult};
use crate::workloads::NAMES;

const USAGE: &str = "\
dpxbench — the DPX10 reproduction's benchmark

  dpxbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
               [--quick] [--out DIR]
      Runs every workload (or one), each in a child process, prints every
      metric by name with its unit and the per-vertex ledger, checks
      results against the serial oracles, and writes
      DIR/results.json and DIR/trace-<workload>.json.
      --seconds S  seconds of timed reps per workload (default 15)
      --trace 0    end-to-end metrics only; --trace 1 per-layer metrics
                   only; neither: both
      --quick      two reps, one set-up, no probes — NOT comparable with
                   any other run; for local iteration only
      With --workload the last line of output is one JSON object
      {correct, attempted, failed, metrics}.

  dpxbench check-repeat [--seed N] [--seconds S] [--out DIR]
      Runs the full set twice and prints, per metric and workload, both
      medians, their gap and the bound; writes DIR/run-{a,b}.json and
      exits non-zero if an end-to-end gap exceeds its bound.

Workloads: swlag-threads swlag-tiled swlag-sockets-pull swlag-sockets-push
           serve-mixed-jobs mtp-fault
";

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    quick: bool,
    out: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: argv.first().cloned().unwrap_or_default(),
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: Trace::Both,
        quick: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut rest = argv.iter().skip(1);
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        NAMES.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Entry point; returns the process exit code.
pub fn main(origin: Instant) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dpxbench: {e}\n\n{USAGE}");
            return 2;
        }
    };
    let outcome = match args.command.as_str() {
        "run" => run(&args),
        "check-repeat" => check_repeat(&args),
        "child" => child(&args, origin),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("dpxbench: {e}");
        1
    })
}

/// The workload child: measures, prints records, nothing else.
fn child(args: &Args, origin: Instant) -> Result<i32, String> {
    let workload = args.workload.clone().ok_or("child needs --workload")?;
    let result = child::measure(
        &Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
            scale: 1,
            out: Some(args.out.clone()),
        },
        origin,
    );
    print!("{}", result.to_records());
    Ok(0)
}

/// Re-executes this program once per workload, sequentially, so that
/// peak memory is per workload and a crash is that workload's failure.
fn run_set(args: &Args, names: &[&str]) -> Result<Vec<WorkloadResult>, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for name in names {
        eprintln!("dpxbench: running {name} (seed {})", args.seed);
        let mut cmd = Command::new(&exe);
        cmd.arg("child")
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--out")
            .arg(&args.out)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        match args.trace {
            Trace::Off => cmd.args(["--trace", "0"]),
            Trace::On => cmd.args(["--trace", "1"]),
            Trace::Both => &mut cmd,
        };
        if args.quick {
            cmd.arg("--quick");
        }
        // `output` waits for the child, so none outlives this call.
        let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
        let parsed = WorkloadResult::from_records(&String::from_utf8_lossy(&output.stdout));
        results.push(match parsed {
            Ok(result) if output.status.success() => result,
            other => WorkloadResult {
                name: name.to_string(),
                attempted: 1,
                failed: 1,
                notes: vec![format!(
                    "workload child ended with {} ({})",
                    output.status,
                    other
                        .err()
                        .unwrap_or_else(|| "after printing a result".into())
                )],
                ..WorkloadResult::default()
            },
        });
    }
    Ok(results)
}

fn header(args: &Args) -> Vec<(String, String)> {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let mut header = vec![
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("quick".to_string(), args.quick.to_string()),
    ];
    header.extend(host::facts(repo_root));
    header
}

fn run(args: &Args) -> Result<i32, String> {
    let names: Vec<&str> = match &args.workload {
        Some(one) => vec![one.as_str()],
        None => NAMES.to_vec(),
    };
    let results = run_set(args, &names)?;
    for result in &results {
        print!("{}", result.render());
    }
    if args.quick {
        println!("NOT COMPARABLE: --quick runs are for local iteration only.");
    }
    let path = args.out.join("results.json");
    std::fs::write(&path, results_json(&header(args), &results))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("dpxbench: wrote {}", path.display());
    if let (Some(_), [only]) = (&args.workload, results.as_slice()) {
        println!("{}", only.contract_line(args.trace == Trace::On));
    }
    Ok(i32::from(results.iter().any(|r| r.failed > 0)))
}

/// Two full sets of the same commit, compared metric by metric.
fn check_repeat(args: &Args) -> Result<i32, String> {
    let header = header(args);
    let mut sets = Vec::new();
    for label in ["a", "b"] {
        eprintln!("dpxbench: check-repeat set {label}");
        let results = run_set(args, &NAMES)?;
        let path = args.out.join(format!("run-{label}.json"));
        std::fs::write(&path, results_json(&header, &results))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        sets.push(results);
    }
    let (a, b) = (&sets[0], &sets[1]);
    println!(
        "{:<20} {:<34} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "gap", "bound"
    );
    let mut exceeded = 0;
    let failed = a.iter().chain(b).any(|r| r.failed > 0);
    for (wa, wb) in a.iter().zip(b) {
        for ma in &wa.metrics {
            let Some(mb) = wb.get(ma.metric.name) else {
                continue;
            };
            let (x, y) = (ma.summary.median, mb.summary.median);
            let gap = if x == 0.0 {
                0.0
            } else {
                (y - x).abs() / x.abs()
            };
            let verdict = match ma.metric.bound {
                Some(bound) if gap > bound => {
                    exceeded += 1;
                    "EXCEEDS BOUND"
                }
                Some(_) => "ok",
                None => "",
            };
            println!(
                "{:<20} {:<34} {:>14.6e} {:>14.6e} {:>7.2}% {:>7}  {}",
                wa.name,
                ma.metric.name,
                x,
                y,
                gap * 100.0,
                ma.metric
                    .bound
                    .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
                verdict
            );
        }
    }
    println!(
        "check-repeat: {exceeded} end-to-end gap(s) beyond the bound, operations failed: {failed}"
    );
    Ok(i32::from(exceeded > 0 || failed))
}

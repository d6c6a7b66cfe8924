//! Hand-rolled argument parsing for the `dpx10` CLI (the workspace's
//! dependency policy keeps third-party crates to the approved offline
//! set, so no clap).

use std::fmt;

use dpx10_apgas::PlaceId;
use dpx10_apps::AppKind;
use dpx10_core::{CommsMode, DistKind, RestoreManner, ScheduleStrategy};

/// Which engine executes the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineChoice {
    /// The deterministic cluster simulator (default).
    Sim,
    /// The real threaded engine.
    Threaded,
    /// Multi-process places over TCP sockets (one OS process per place).
    Sockets,
}

/// A parsed `dpx10 run` invocation.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// The application.
    pub app: AppKind,
    /// The engine.
    pub engine: EngineChoice,
    /// Problem scale as a vertex count.
    pub vertices: u64,
    /// Simulated nodes (sim engine).
    pub nodes: u16,
    /// Places (threaded engine).
    pub places: u16,
    /// Distribution override.
    pub dist: Option<DistKind>,
    /// Scheduling strategy.
    pub schedule: ScheduleStrategy,
    /// Cache capacity.
    pub cache: usize,
    /// Optional fault: place and progress fraction.
    pub fault: Option<(PlaceId, f64)>,
    /// Restore manner.
    pub restore: RestoreManner,
    /// Workload seed.
    pub seed: u64,
    /// Print an activity timeline (sim and threaded engines).
    pub timeline: bool,
    /// Write a Chrome `trace_event` JSON timeline here (all engines).
    pub trace_out: Option<String>,
    /// Write Prometheus text-format metrics here (all engines).
    pub metrics_out: Option<String>,
    /// Message-coalescing byte budget (`None` = off, the default).
    pub coalesce: Option<usize>,
    /// Anti-dependency delivery: pull on demand or push eagerly.
    pub comms: CommsMode,
    /// Prefix aggregation for interval-dependency (ranged) patterns.
    pub agg: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            app: AppKind::Swlag,
            engine: EngineChoice::Sim,
            vertices: 250_000,
            nodes: 4,
            places: 4,
            dist: None,
            schedule: ScheduleStrategy::Local,
            cache: 4096,
            fault: None,
            restore: RestoreManner::RecomputeRemote,
            seed: 1,
            timeline: false,
            trace_out: None,
            metrics_out: None,
            coalesce: None,
            comms: CommsMode::Pull,
            agg: true,
        }
    }
}

/// A parsed `dpx10 chaos` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosArgs {
    /// Run exactly this seed (otherwise a `start..start+count` range).
    pub seed: Option<u64>,
    /// First seed of the range.
    pub start: u64,
    /// Number of seeds in the range.
    pub count: u64,
    /// Include the in-process socket mesh backend.
    pub sockets: bool,
    /// Shrink failing plans to minimal counterexamples.
    pub shrink: bool,
    /// Run the whole suite with message coalescing at this byte budget
    /// (`None` = the classic one-message-per-event plane).
    pub coalesce: Option<usize>,
    /// Sweep elastic-mesh churn plans (join/drain/kill verbs)
    /// instead of the classic fault plans.
    pub elastic: bool,
    /// Anti-dependency delivery mode for the whole suite.
    pub comms: CommsMode,
    /// Prefix aggregation for interval-dependency (ranged) patterns.
    pub agg: bool,
}

impl Default for ChaosArgs {
    fn default() -> Self {
        ChaosArgs {
            seed: None,
            start: 0,
            count: 16,
            sockets: true,
            shrink: true,
            coalesce: None,
            elastic: false,
            comms: CommsMode::Pull,
            agg: true,
        }
    }
}

/// A parsed `dpx10 bench` invocation: expand a declarative ablation
/// plan, run every cell, append to the registry CSV, and optionally
/// ratchet against a committed baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// Ablation plan TOML to run.
    pub plan: String,
    /// Compare the plan run against its committed baseline and exit
    /// nonzero on regression.
    pub ratchet: bool,
    /// Tighten (or create) the committed baseline from this run.
    pub update_baseline: bool,
    /// Baseline file override (default `plans/baselines/<plan>.toml`).
    pub baseline: Option<String>,
    /// Registry CSV to append to.
    pub registry: String,
    /// Per-run JSON path override (default
    /// `results/runs/<plan>-<unix seconds>-<pid>.json`).
    pub run_json: Option<String>,
    /// Aggregate the registry into a trend JSON artifact here.
    pub trend: Option<String>,
}

/// A parsed `dpx10 serve` invocation: several DP jobs multiplexed over
/// one shared in-process socket mesh.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    /// Job list file (`<app> <vertices> <seed> [priority]` per line);
    /// `None` means the `--jobs`/`--app` sweep.
    pub jobfile: Option<String>,
    /// Sweep size when no jobfile is given.
    pub jobs: u32,
    /// Sweep application (must share the serve value type).
    pub app: AppKind,
    /// Sweep problem scale as a vertex count.
    pub vertices: u64,
    /// Mesh places.
    pub places: u16,
    /// Concurrent-job admission cap.
    pub max_in_flight: usize,
    /// First sweep seed (job k uses `seed + k`).
    pub seed: u64,
    /// Re-run every job solo and compare fingerprints.
    pub verify: bool,
    /// Write Prometheus text-format job metrics here.
    pub metrics_out: Option<String>,
    /// Write a Chrome `trace_event` JSON timeline here.
    pub trace_out: Option<String>,
    /// Serve on the elastic mesh: places join and drain mid-sweep, and
    /// a drainer's finished cells are handed over, not recomputed.
    pub elastic: bool,
    /// Elastic-mesh place capacity (joins are refused beyond it).
    pub capacity: u16,
    /// Anti-dependency delivery mode for every job on the mesh.
    pub comms: CommsMode,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            jobfile: None,
            jobs: 4,
            app: AppKind::Lcs,
            vertices: 2_500,
            places: 3,
            max_in_flight: 4,
            seed: 1,
            verify: false,
            metrics_out: None,
            trace_out: None,
            elastic: false,
            capacity: 6,
            comms: CommsMode::Pull,
        }
    }
}

/// The parsed command.
#[derive(Clone, Debug)]
pub enum Command {
    /// `dpx10 run <app> [...]`.
    Run(Box<RunArgs>),
    /// `dpx10 serve [...]`.
    Serve(ServeArgs),
    /// `dpx10 chaos [...]`.
    Chaos(ChaosArgs),
    /// `dpx10 bench [...]`.
    Bench(BenchArgs),
    /// `dpx10 apps`.
    Apps,
    /// `dpx10 patterns [--size HxW]`.
    Patterns {
        /// Analysis size.
        height: u32,
        /// Analysis size.
        width: u32,
    },
    /// `dpx10 trace summarize <file>`: validate an exported Chrome
    /// trace and print its per-place phase summary.
    TraceSummarize {
        /// Path of the Chrome `trace_event` JSON file.
        file: String,
    },
    /// `dpx10 join --coordinator HOST:PORT`: join a running socket
    /// mesh as a new place.
    Join {
        /// Coordinator address to dial.
        coordinator: String,
    },
    /// `dpx10 help` (or no args).
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Parses a seed in decimal or `0x…` hex (the form failure reports
/// print, so a reported seed pastes straight back into `--seed`).
fn parse_seed(s: &str) -> Result<u64, ParseError> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| ParseError(format!("bad seed {s}")))
}

/// Parses a `--coalesce` value: a byte budget, or `off`/`0` for the
/// classic one-message-per-event comms plane.
fn parse_coalesce(v: &str) -> Result<Option<usize>, ParseError> {
    if v == "off" {
        return Ok(None);
    }
    let n: usize = v.parse().map_err(|_| {
        ParseError(format!(
            "bad --coalesce {v}, expected a byte budget or `off`"
        ))
    })?;
    Ok((n > 0).then_some(n))
}

/// Parses a `--comms` value: `pull` (on-demand anti-dependency fetch,
/// the classic plane) or `push` (owners forward values eagerly).
fn parse_comms(v: &str) -> Result<CommsMode, ParseError> {
    match v {
        "pull" => Ok(CommsMode::Pull),
        "push" => Ok(CommsMode::Push),
        other => err(format!("bad --comms {other}, expected `pull` or `push`")),
    }
}

/// Parses an `--agg` value: `on` (prefix-aggregated interval reads, the
/// default for ranged patterns) or `off` (enumerate every interval edge).
fn parse_agg(v: &str) -> Result<bool, ParseError> {
    match v {
        "on" => Ok(true),
        "off" => Ok(false),
        other => err(format!("bad --agg {other}, expected `on` or `off`")),
    }
}

/// Parses a full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("apps") => Ok(Command::Apps),
        Some("patterns") => {
            let mut height = 16;
            let mut width = 16;
            while let Some(flag) = it.next() {
                match flag {
                    "--size" => {
                        let v = it.next().ok_or(ParseError("--size needs HxW".into()))?;
                        let (h, w) = v
                            .split_once('x')
                            .ok_or(ParseError(format!("bad --size {v}, expected HxW")))?;
                        height = h
                            .parse()
                            .map_err(|_| ParseError(format!("bad height {h}")))?;
                        width = w
                            .parse()
                            .map_err(|_| ParseError(format!("bad width {w}")))?;
                    }
                    other => return err(format!("unknown patterns flag {other}")),
                }
            }
            Ok(Command::Patterns { height, width })
        }
        Some("trace") => match it.next() {
            Some("summarize") => {
                let file = it
                    .next()
                    .ok_or(ParseError("trace summarize needs a file".into()))?
                    .to_string();
                if it.next().is_some() {
                    return err("trace summarize takes exactly one file");
                }
                Ok(Command::TraceSummarize { file })
            }
            other => err(format!(
                "unknown trace subcommand {}; try `dpx10 trace summarize <file>`",
                other.unwrap_or("(none)")
            )),
        },
        Some("serve") => {
            let mut serve = ServeArgs::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .map(str::to_string)
                        .ok_or(ParseError(format!("{name} needs a value")))
                };
                match flag {
                    "--jobfile" => serve.jobfile = Some(value("--jobfile")?),
                    "--jobs" => {
                        serve.jobs = value("--jobs")?
                            .parse()
                            .map_err(|_| ParseError("bad --jobs".into()))?
                    }
                    "--app" => {
                        let name = value("--app")?;
                        serve.app = AppKind::parse(&name)
                            .ok_or(ParseError(format!("unknown app {name}; try `dpx10 apps`")))?
                    }
                    "--vertices" => {
                        serve.vertices = value("--vertices")?
                            .parse()
                            .map_err(|_| ParseError("bad --vertices".into()))?
                    }
                    "--places" => {
                        serve.places = value("--places")?
                            .parse()
                            .map_err(|_| ParseError("bad --places".into()))?
                    }
                    "--max-in-flight" => {
                        serve.max_in_flight = value("--max-in-flight")?
                            .parse()
                            .map_err(|_| ParseError("bad --max-in-flight".into()))?
                    }
                    "--seed" => serve.seed = parse_seed(&value("--seed")?)?,
                    "--verify" => serve.verify = true,
                    "--metrics-out" => serve.metrics_out = Some(value("--metrics-out")?),
                    "--trace-out" => serve.trace_out = Some(value("--trace-out")?),
                    "--elastic" => serve.elastic = true,
                    "--capacity" => {
                        serve.capacity = value("--capacity")?
                            .parse()
                            .map_err(|_| ParseError("bad --capacity".into()))?
                    }
                    "--comms" => serve.comms = parse_comms(&value("--comms")?)?,
                    other => return err(format!("unknown serve flag {other}")),
                }
            }
            if serve.jobs == 0 {
                return err("--jobs must be at least 1");
            }
            if serve.places < 2 {
                return err("serve needs at least 2 places (one mesh, many jobs)");
            }
            if serve.max_in_flight == 0 {
                return err("--max-in-flight must be at least 1");
            }
            if serve.capacity < serve.places {
                return err("--capacity must be at least --places (joins only add)");
            }
            Ok(Command::Serve(serve))
        }
        Some("join") => {
            let mut coordinator = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--coordinator" => {
                        coordinator = Some(
                            it.next()
                                .ok_or(ParseError("--coordinator needs HOST:PORT".into()))?
                                .to_string(),
                        )
                    }
                    other => return err(format!("unknown join flag {other}")),
                }
            }
            match coordinator {
                Some(coordinator) if coordinator.contains(':') => Ok(Command::Join { coordinator }),
                Some(bad) => err(format!("bad --coordinator {bad}, expected HOST:PORT")),
                None => err("join needs --coordinator HOST:PORT"),
            }
        }
        Some("chaos") => {
            let mut chaos = ChaosArgs::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .map(str::to_string)
                        .ok_or(ParseError(format!("{name} needs a value")))
                };
                match flag {
                    "--seed" => chaos.seed = Some(parse_seed(&value("--seed")?)?),
                    "--start" => chaos.start = parse_seed(&value("--start")?)?,
                    "--count" => {
                        chaos.count = value("--count")?
                            .parse()
                            .map_err(|_| ParseError("bad --count".into()))?
                    }
                    "--no-sockets" => chaos.sockets = false,
                    "--no-shrink" => chaos.shrink = false,
                    "--coalesce" => chaos.coalesce = parse_coalesce(&value("--coalesce")?)?,
                    "--comms" => chaos.comms = parse_comms(&value("--comms")?)?,
                    "--agg" => chaos.agg = parse_agg(&value("--agg")?)?,
                    "--elastic" => chaos.elastic = true,
                    other => return err(format!("unknown chaos flag {other}")),
                }
            }
            if chaos.count == 0 {
                return err("--count must be at least 1");
            }
            Ok(Command::Chaos(chaos))
        }
        Some("bench") => {
            let mut bench = BenchArgs {
                plan: String::new(),
                ratchet: false,
                update_baseline: false,
                baseline: None,
                registry: "results/registry.csv".into(),
                run_json: None,
                trend: None,
            };
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .map(str::to_string)
                        .ok_or(ParseError(format!("{name} needs a value")))
                };
                match flag {
                    "--plan" => bench.plan = value("--plan")?,
                    "--ratchet" => bench.ratchet = true,
                    "--update-baseline" => bench.update_baseline = true,
                    "--baseline" => bench.baseline = Some(value("--baseline")?),
                    "--registry" => bench.registry = value("--registry")?,
                    "--run-json" => bench.run_json = Some(value("--run-json")?),
                    "--trend" => bench.trend = Some(value("--trend")?),
                    other => return err(format!("unknown bench flag {other}")),
                }
            }
            if bench.plan.is_empty() {
                return err("bench needs --plan FILE (wall-clock benchmarking is dpxbench's job)");
            }
            if bench.update_baseline && !bench.ratchet {
                return err("--update-baseline needs --ratchet (it tightens the ratchet)");
            }
            Ok(Command::Bench(bench))
        }
        Some("run") => {
            let app_name = it
                .next()
                .ok_or(ParseError("run needs an app name".into()))?;
            let app = AppKind::parse(app_name).ok_or(ParseError(format!(
                "unknown app {app_name}; try `dpx10 apps`"
            )))?;
            let mut run = RunArgs {
                app,
                ..RunArgs::default()
            };
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .map(str::to_string)
                        .ok_or(ParseError(format!("{name} needs a value")))
                };
                match flag {
                    "--engine" | "--backend" => {
                        run.engine = match value(flag)?.as_str() {
                            "sim" => EngineChoice::Sim,
                            "threaded" | "threads" => EngineChoice::Threaded,
                            "sockets" => EngineChoice::Sockets,
                            other => return err(format!("unknown {} {other}", &flag[2..])),
                        }
                    }
                    "--vertices" => {
                        run.vertices = value("--vertices")?
                            .parse()
                            .map_err(|_| ParseError("bad --vertices".into()))?
                    }
                    "--nodes" => {
                        run.nodes = value("--nodes")?
                            .parse()
                            .map_err(|_| ParseError("bad --nodes".into()))?
                    }
                    "--places" => {
                        run.places = value("--places")?
                            .parse()
                            .map_err(|_| ParseError("bad --places".into()))?
                    }
                    "--dist" => {
                        run.dist = Some(match value("--dist")?.as_str() {
                            "block-row" => DistKind::BlockRow,
                            "block-col" => DistKind::BlockCol,
                            "cyclic-row" => DistKind::CyclicRow,
                            "cyclic-col" => DistKind::CyclicCol,
                            other => return err(format!("unknown distribution {other}")),
                        })
                    }
                    "--schedule" => {
                        let name = value("--schedule")?;
                        run.schedule = ScheduleStrategy::parse(&name)
                            .ok_or_else(|| ParseError(format!("unknown schedule {name}")))?
                    }
                    "--cache" => {
                        run.cache = value("--cache")?
                            .parse()
                            .map_err(|_| ParseError("bad --cache".into()))?
                    }
                    "--fault" => {
                        let v = value("--fault")?;
                        let (place, fraction) = match v.split_once(':') {
                            Some((p, f)) => (
                                p.parse()
                                    .map_err(|_| ParseError(format!("bad fault place {p}")))?,
                                f.parse()
                                    .map_err(|_| ParseError(format!("bad fault fraction {f}")))?,
                            ),
                            None => (
                                v.parse()
                                    .map_err(|_| ParseError(format!("bad fault place {v}")))?,
                                0.5,
                            ),
                        };
                        if !(0.0..=1.0).contains(&fraction) {
                            return err("fault fraction must be in [0, 1]");
                        }
                        run.fault = Some((PlaceId(place), fraction));
                    }
                    "--restore" => {
                        run.restore = match value("--restore")?.as_str() {
                            "recompute" => RestoreManner::RecomputeRemote,
                            "copy" => RestoreManner::CopyRemote,
                            other => return err(format!("unknown restore manner {other}")),
                        }
                    }
                    "--seed" => {
                        run.seed = value("--seed")?
                            .parse()
                            .map_err(|_| ParseError("bad --seed".into()))?
                    }
                    "--timeline" => run.timeline = true,
                    "--trace-out" => run.trace_out = Some(value("--trace-out")?),
                    "--metrics-out" => run.metrics_out = Some(value("--metrics-out")?),
                    "--coalesce" => run.coalesce = parse_coalesce(&value("--coalesce")?)?,
                    "--comms" => run.comms = parse_comms(&value("--comms")?)?,
                    "--agg" => run.agg = parse_agg(&value("--agg")?)?,
                    other => return err(format!("unknown run flag {other}")),
                }
            }
            if run.timeline && run.engine == EngineChoice::Sockets {
                // Each place process records into its own recorder, so
                // the coordinator holds place 0's events alone.
                return err("--timeline needs the sim or threads backend");
            }
            Ok(Command::Run(Box::new(run)))
        }
        Some(other) => err(format!("unknown command {other}; try `dpx10 help`")),
    }
}

/// The help text.
pub fn usage() -> String {
    let apps: Vec<&str> = AppKind::ALL.iter().map(|app| app.name()).collect();
    format!(
        "dpx10 — distributed dynamic programming (DPX10 reproduction)\n\
         \n\
         USAGE:\n\
         \x20 dpx10 run <app> [flags]      run an application\n\
         \x20 dpx10 serve [flags]          run concurrent jobs on one shared place mesh\n\
         \x20 dpx10 join --coordinator A   join a running socket mesh as a new place\n\
         \x20 dpx10 chaos [flags]          seeded differential chaos testing\n\
         \x20 dpx10 bench --plan F [flags] run an ablation plan through the registry\n\
         \x20 dpx10 apps                   list applications\n\
         \x20 dpx10 patterns [--size HxW]  analyse the built-in DAG patterns\n\
         \x20 dpx10 trace summarize FILE   validate + summarise an exported trace\n\
         \x20 dpx10 help                   this text\n\
         \n\
         APPS: {}\n\
         \n\
         RUN FLAGS:\n\
         \x20 --backend B             sim|threads|sockets executor (default sim);\n\
         \x20                         sockets spawns one OS process per place over TCP\n\
         \x20 --engine E              alias of --backend (also accepts `threaded`)\n\
         \x20 --vertices N            problem scale (default 250000)\n\
         \x20 --nodes N               simulated nodes, 2 places x 6 workers each (default 4)\n\
         \x20 --places N              threaded/socket places, 1 worker each (default 4)\n\
         \x20 --dist KIND             block-row|block-col|cyclic-row|cyclic-col\n\
         \x20 --schedule S            local|random|min-comm (default local)\n\
         \x20 --cache N               remote-value cache entries (default 4096)\n\
         \x20 --fault P[:F]           kill place P at progress fraction F (default 0.5)\n\
         \x20 --restore M             recompute|copy (default recompute)\n\
         \x20 --seed N                workload seed (default 1)\n\
         \x20 --timeline              print an activity timeline (sim|threads)\n\
         \x20 --trace-out FILE        write a Chrome trace_event JSON timeline\n\
         \x20                         (Perfetto-loadable; sockets workers write FILE.p<N>)\n\
         \x20 --metrics-out FILE      write Prometheus text-format metrics\n\
         \x20 --coalesce BYTES|off    batch protocol messages per destination, flushing\n\
         \x20                         at BYTES (plus entry-count and idle-drain triggers;\n\
         \x20                         default off = one message per protocol event;\n\
         \x20                         threads and sockets only, sim refuses it)\n\
         \x20 --comms pull|push       anti-dependency delivery: pull on demand (default)\n\
         \x20                         or push values eagerly to consumer places\n\
         \x20 --agg on|off            prefix aggregation for interval-dependency\n\
         \x20                         patterns (lws, gap): O(1) running-min reads\n\
         \x20                         when on (default), enumerated edges when off\n\
         \n\
         SERVE FLAGS:\n\
         \x20 --jobfile FILE          one job per line: <app> <vertices> <seed> [priority];\n\
         \x20                         `#` comments and blank lines are skipped\n\
         \x20 --jobs N --app A        without a jobfile: N copies of app A at seeds\n\
         \x20                         seed..seed+N (default 4 x lcs)\n\
         \x20                         serve apps: lcs, edit-distance, lps, nussinov,\n\
         \x20                         lws, gap\n\
         \x20 --vertices N            sweep problem scale per job (default 2500)\n\
         \x20 --places N              mesh places, every job shares them (default 3)\n\
         \x20 --max-in-flight M       concurrent-job admission cap (default 4)\n\
         \x20 --seed S                first sweep seed (default 1)\n\
         \x20 --verify                re-run each job solo, compare fingerprints\n\
         \x20 --metrics-out FILE      write Prometheus job metrics\n\
         \x20 --trace-out FILE        write a Chrome trace_event JSON timeline\n\
         \x20 --elastic               serve on the elastic mesh: places join and\n\
         \x20                         drain mid-sweep, cells handed over\n\
         \x20 --capacity N            elastic place capacity, joins refused beyond\n\
         \x20                         it (default 6)\n\
         \x20 --comms pull|push       anti-dependency delivery for every job\n\
         \n\
         JOIN FLAGS:\n\
         \x20 --coordinator H:P       dial the mesh coordinator at HOST:PORT and\n\
         \x20                         enter the roster as a fresh place\n\
         \n\
         CHAOS FLAGS:\n\
         \x20 --seed S                run exactly one seed (decimal or 0x… hex)\n\
         \x20 --start S --count N     run the seed range S..S+N (default 0..16)\n\
         \x20 --no-sockets            skip the in-process TCP mesh backend\n\
         \x20 --no-shrink             report failures without minimising the plan\n\
         \x20 --coalesce BYTES|off    run the whole suite with message coalescing\n\
         \x20 --comms pull|push       run the whole suite in this delivery mode\n\
         \x20 --agg on|off            prefix aggregation for ranged patterns in the\n\
         \x20                         sweep (default on)\n\
         \x20 --elastic               sweep elastic-mesh churn plans instead:\n\
         \x20                         joins, drains and kills,\n\
         \x20                         every run fingerprint-checked against solo\n\
         \n\
         BENCH FLAGS:\n\
         \x20 --plan FILE             the declarative ablation plan to run (required):\n\
         \x20                         expand the grid, run every cell, append\n\
         \x20                         provenance-hashed rows to the registry CSV\n\
         \x20 --ratchet               compare the plan run against its committed\n\
         \x20                         baseline, exit nonzero on regression\n\
         \x20 --update-baseline       tighten (or create) the baseline from this run;\n\
         \x20                         regressions beyond tolerance still fail\n\
         \x20 --baseline FILE         baseline path (default plans/baselines/<plan>.toml)\n\
         \x20 --registry FILE         registry CSV (default results/registry.csv)\n\
         \x20 --run-json FILE         per-run JSON report path override\n\
         \x20 --trend FILE            also aggregate the registry into trend JSON\n\
         \n\
         Each chaos seed expands into a random pattern, cluster shape and\n\
         fault plan, runs it on the serial, simulated, threaded and socket\n\
         backends, and checks the results and recovery invariants agree.\n\
         Output is deterministic: the same seed prints the same lines.\n",
        apps.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Command {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn parse_err(args: &[&str]) -> ParseError {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
    }

    #[test]
    fn empty_is_help() {
        assert!(matches!(parse_ok(&[]), Command::Help));
        assert!(matches!(parse_ok(&["--help"]), Command::Help));
    }

    #[test]
    fn run_defaults() {
        let Command::Run(run) = parse_ok(&["run", "swlag"]) else {
            panic!()
        };
        assert_eq!(run.app, AppKind::Swlag);
        assert_eq!(run.engine, EngineChoice::Sim);
        assert_eq!(run.vertices, 250_000);
        assert!(run.fault.is_none());
    }

    #[test]
    fn run_full_flags() {
        let Command::Run(run) = parse_ok(&[
            "run",
            "knapsack",
            "--engine",
            "threaded",
            "--vertices",
            "5000",
            "--places",
            "3",
            "--dist",
            "block-row",
            "--schedule",
            "min-comm",
            "--cache",
            "16",
            "--fault",
            "2:0.3",
            "--restore",
            "copy",
            "--seed",
            "9",
            "--timeline",
        ]) else {
            panic!()
        };
        assert_eq!(run.app, AppKind::Knapsack);
        assert_eq!(run.engine, EngineChoice::Threaded);
        assert_eq!(run.vertices, 5000);
        assert_eq!(run.places, 3);
        assert!(matches!(run.dist, Some(DistKind::BlockRow)));
        assert_eq!(run.schedule, ScheduleStrategy::MinComm);
        assert_eq!(run.cache, 16);
        assert_eq!(run.fault, Some((PlaceId(2), 0.3)));
        assert_eq!(run.restore, RestoreManner::CopyRemote);
        assert_eq!(run.seed, 9);
        assert!(run.timeline);
    }

    #[test]
    fn backend_flag_selects_engines() {
        for (spelling, want) in [
            ("sim", EngineChoice::Sim),
            ("threads", EngineChoice::Threaded),
            ("sockets", EngineChoice::Sockets),
        ] {
            let Command::Run(run) = parse_ok(&["run", "lps", "--backend", spelling]) else {
                panic!()
            };
            assert_eq!(run.engine, want, "--backend {spelling}");
        }
        let Command::Run(run) = parse_ok(&["run", "lps", "--engine", "sockets"]) else {
            panic!()
        };
        assert_eq!(run.engine, EngineChoice::Sockets);
        assert!(parse_err(&["run", "lps", "--backend", "gpu"])
            .0
            .contains("unknown backend"));
    }

    #[test]
    fn fault_without_fraction_defaults_to_half() {
        let Command::Run(run) = parse_ok(&["run", "mtp", "--fault", "1"]) else {
            panic!()
        };
        assert_eq!(run.fault, Some((PlaceId(1), 0.5)));
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(parse_err(&["run"]).0.contains("app name"));
        assert!(parse_err(&["run", "nope"]).0.contains("unknown app"));
        assert!(parse_err(&["run", "lps", "--engine", "gpu"])
            .0
            .contains("unknown engine"));
        assert!(parse_err(&["run", "lps", "--fault", "1:2.0"])
            .0
            .contains("[0, 1]"));
        assert!(parse_err(&["frobnicate"]).0.contains("unknown command"));
        assert!(parse_err(&["patterns", "--size", "8"]).0.contains("HxW"));
        assert_eq!(
            parse_err(&["run", "lps", "--schedule", "work-stealing"]).0,
            "unknown schedule work-stealing"
        );
    }

    #[test]
    fn trace_flags_parse() {
        let Command::Run(run) = parse_ok(&[
            "run",
            "swlag",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.prom",
        ]) else {
            panic!()
        };
        assert_eq!(run.trace_out.as_deref(), Some("t.json"));
        assert_eq!(run.metrics_out.as_deref(), Some("m.prom"));
        let Command::TraceSummarize { file } = parse_ok(&["trace", "summarize", "t.json"]) else {
            panic!()
        };
        assert_eq!(file, "t.json");
        assert!(parse_err(&["trace"]).0.contains("trace subcommand"));
        assert!(parse_err(&["trace", "summarize"])
            .0
            .contains("needs a file"));
    }

    #[test]
    fn coalesce_flag_parses() {
        let Command::Run(run) = parse_ok(&["run", "swlag", "--coalesce", "4096"]) else {
            panic!()
        };
        assert_eq!(run.coalesce, Some(4096));
        for spelling in ["off", "0"] {
            let Command::Run(run) = parse_ok(&["run", "swlag", "--coalesce", spelling]) else {
                panic!()
            };
            assert_eq!(run.coalesce, None, "--coalesce {spelling}");
        }
        let Command::Chaos(chaos) = parse_ok(&["chaos", "--count", "2", "--coalesce", "512"])
        else {
            panic!()
        };
        assert_eq!(chaos.coalesce, Some(512));
        assert!(!chaos.elastic);
        let Command::Chaos(chaos) = parse_ok(&["chaos", "--elastic", "--count", "4"]) else {
            panic!()
        };
        assert!(chaos.elastic);
        assert!(parse_err(&["run", "swlag", "--coalesce", "many"])
            .0
            .contains("bad --coalesce"));
    }

    #[test]
    fn agg_flag_parses() {
        let Command::Run(run) = parse_ok(&["run", "lws", "--agg", "off"]) else {
            panic!()
        };
        assert_eq!(run.app, AppKind::Lws);
        assert!(!run.agg);
        let Command::Run(run) = parse_ok(&["run", "gap", "--agg", "on"]) else {
            panic!()
        };
        assert_eq!(run.app, AppKind::Gap);
        assert!(run.agg);
        let Command::Chaos(chaos) = parse_ok(&["chaos", "--agg", "off"]) else {
            panic!()
        };
        assert!(!chaos.agg);
        assert!(parse_err(&["run", "lws", "--agg", "maybe"])
            .0
            .contains("bad --agg"));
    }

    #[test]
    fn comms_flag_parses_everywhere() {
        let Command::Run(run) = parse_ok(&["run", "swlag", "--comms", "push"]) else {
            panic!()
        };
        assert_eq!(run.comms, CommsMode::Push);
        let Command::Run(run) = parse_ok(&["run", "swlag", "--comms", "pull"]) else {
            panic!()
        };
        assert_eq!(run.comms, CommsMode::Pull);
        let Command::Chaos(chaos) = parse_ok(&["chaos", "--comms", "push"]) else {
            panic!()
        };
        assert_eq!(chaos.comms, CommsMode::Push);
        let Command::Serve(serve) = parse_ok(&["serve", "--comms", "push"]) else {
            panic!()
        };
        assert_eq!(serve.comms, CommsMode::Push);
        assert!(parse_err(&["run", "swlag", "--comms", "smoke"])
            .0
            .contains("bad --comms"));
        assert!(parse_err(&["bench", "--plan", "p.toml", "--comms", "push"])
            .0
            .contains("unknown bench flag --comms"));
    }

    #[test]
    fn bench_plan_flags_parse() {
        let Command::Bench(bench) = parse_ok(&[
            "bench",
            "--plan",
            "plans/pinned-small.toml",
            "--ratchet",
            "--update-baseline",
            "--baseline",
            "b.toml",
            "--registry",
            "r.csv",
            "--run-json",
            "run.json",
            "--trend",
            "trend.json",
        ]) else {
            panic!()
        };
        assert_eq!(bench.plan, "plans/pinned-small.toml");
        assert!(bench.ratchet);
        assert!(bench.update_baseline);
        assert_eq!(bench.baseline.as_deref(), Some("b.toml"));
        assert_eq!(bench.registry, "r.csv");
        assert_eq!(bench.run_json.as_deref(), Some("run.json"));
        assert_eq!(bench.trend.as_deref(), Some("trend.json"));
        // The plan is the only workload source: no plan, no run.
        assert!(parse_err(&["bench"]).0.contains("--plan"));
        assert!(parse_err(&["bench", "--ratchet"]).0.contains("--plan"));
        assert!(parse_err(&["bench", "--trend", "t.json"])
            .0
            .contains("--plan"));
        assert!(
            parse_err(&["bench", "--plan", "p.toml", "--update-baseline"])
                .0
                .contains("--ratchet")
        );
    }

    #[test]
    fn serve_defaults_and_flags_parse() {
        let Command::Serve(serve) = parse_ok(&["serve"]) else {
            panic!()
        };
        assert_eq!(serve, ServeArgs::default());
        let Command::Serve(serve) = parse_ok(&[
            "serve",
            "--jobs",
            "6",
            "--app",
            "edit-distance",
            "--vertices",
            "900",
            "--places",
            "4",
            "--max-in-flight",
            "2",
            "--seed",
            "0x10",
            "--verify",
            "--metrics-out",
            "jobs.prom",
        ]) else {
            panic!()
        };
        assert_eq!(serve.jobs, 6);
        assert_eq!(serve.app, AppKind::EditDistance);
        assert_eq!(serve.vertices, 900);
        assert_eq!(serve.places, 4);
        assert_eq!(serve.max_in_flight, 2);
        assert_eq!(serve.seed, 16);
        assert!(serve.verify);
        assert_eq!(serve.metrics_out.as_deref(), Some("jobs.prom"));
        let Command::Serve(serve) = parse_ok(&["serve", "--jobfile", "jobs.txt"]) else {
            panic!()
        };
        assert_eq!(serve.jobfile.as_deref(), Some("jobs.txt"));
        assert!(parse_err(&["serve", "--jobs", "0"])
            .0
            .contains("at least 1"));
        assert!(parse_err(&["serve", "--places", "1"])
            .0
            .contains("at least 2"));
        assert!(parse_err(&["serve", "--app", "gpu"])
            .0
            .contains("unknown app"));
        assert!(parse_err(&["serve", "--frobnicate"])
            .0
            .contains("unknown serve flag"));
    }

    #[test]
    fn elastic_serve_flags_parse() {
        let Command::Serve(serve) = parse_ok(&["serve", "--elastic", "--capacity", "8"]) else {
            panic!()
        };
        assert!(serve.elastic);
        assert_eq!(serve.capacity, 8);
        assert!(
            parse_err(&["serve", "--elastic", "--places", "4", "--capacity", "3"])
                .0
                .contains("--capacity")
        );
        assert!(parse_err(&["serve", "--elastic", "--bench-out", "b.json"])
            .0
            .contains("unknown serve flag --bench-out"));
    }

    #[test]
    fn join_flags_parse() {
        let Command::Join { coordinator } = parse_ok(&["join", "--coordinator", "127.0.0.1:4100"])
        else {
            panic!()
        };
        assert_eq!(coordinator, "127.0.0.1:4100");
        assert!(parse_err(&["join"]).0.contains("--coordinator"));
        assert!(parse_err(&["join", "--coordinator", "nocolon"])
            .0
            .contains("HOST:PORT"));
        assert!(parse_err(&["join", "--port", "9"])
            .0
            .contains("unknown join flag"));
    }

    #[test]
    fn patterns_size_parses() {
        let Command::Patterns { height, width } = parse_ok(&["patterns", "--size", "12x7"]) else {
            panic!()
        };
        assert_eq!((height, width), (12, 7));
    }

    #[test]
    fn every_app_name_round_trips() {
        for app in AppKind::ALL {
            let Command::Run(run) = parse_ok(&["run", app.name()]) else {
                panic!()
            };
            assert_eq!(run.app, app);
        }
    }

    #[test]
    fn usage_mentions_every_app() {
        let text = usage();
        for app in AppKind::ALL {
            assert!(text.contains(app.name()), "usage misses {}", app.name());
        }
    }
}

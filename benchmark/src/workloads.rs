//! The six named workloads.
//!
//! Each one is a closed loop: a rep starts when the previous one has
//! returned. Never more than two places, two worker threads or one TCP
//! connection pair — the host has two cores. The program under test only
//! ever sees inputs generated from the seed.
//!
//! | name | stresses |
//! |---|---|
//! | `swlag-threads` | the per-vertex protocol in `core` (Fig. 12) |
//! | `swlag-tiled` | the kernel, protocol amortised over 1024 cells |
//! | `swlag-sockets-pull` | one frame per event plus pull round-trips |
//! | `swlag-sockets-push` | batch frames, coalescer, pinned pushes |
//! | `serve-mixed-jobs` | fixed cost per run, admission, Grid3 + triangular |
//! | `mtp-fault` | recovery and epoch restart (Fig. 13b) |

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_apgas::{PlaceId, SocketConfig};
use dpx10_apps::swlag::SwCell;
use dpx10_apps::{serial, workload, LcsApp, LpsApp, MtpApp, SwlagApp};
use dpx10_baseline::NativeSwlag;
use dpx10_core::{
    run_tiled_threaded, CommsMode, DagResult, DepView, DistKind, DpApp, EngineConfig, EngineError,
    FaultPlan, JobServer, JobSpec, RunReport, SocketEngine, ThreadedEngine, TileValue, TiledApp,
    VertexValue,
};
use dpx10_dag::builtin::{Grid3, IntervalUpper};
use dpx10_dag::{DagPattern, TiledDag, VertexId};
use dpx10_distarray::{recover, DistArray, RecoveryCostModel};
use dpx10_obs::Recorder;

use crate::ledger::LedgerRow;
use crate::probes::{self, Edges, KernelSample, Probe};
use crate::spans::Spans;

/// Workload names, in the order they run.
pub const NAMES: [&str; 6] = [
    "swlag-threads",
    "swlag-tiled",
    "swlag-sockets-pull",
    "swlag-sockets-push",
    "serve-mixed-jobs",
    "mtp-fault",
];

/// Places (and worker threads) of every workload.
pub const PLACES: u16 = 2;

/// Tile side of `swlag-tiled`.
const TILE: u32 = 32;

/// Vertices the compute probe evaluates.
const KERNEL_SAMPLE: u64 = 400_000;

/// One operation of a rep: one `run()`, or one served job.
pub struct Op {
    /// Submit-to-result time of the operation.
    pub latency: Duration,
    /// Digest of the result, or why there is none.
    pub digest: Result<u64, String>,
}

/// What one closed-loop rep produced.
pub struct Rep {
    /// The timed call: one `run()` / `run_tiled_threaded()` / `serve()`,
    /// clocked by the benchmark, digesting excluded.
    pub wall: Duration,
    /// The rep's operations; compared with the warm-up's digests.
    pub ops: Vec<Op>,
    /// Engine reports of the runs inside `wall` (one per job in a serve).
    pub reports: Vec<RunReport>,
    /// `mtp-fault`: the fault-free twin run next to `wall` — a control
    /// measurement, checked like an operation but not counted as a job.
    pub twin: Option<Op>,
    /// `serve-mixed-jobs`: per-job queueing time.
    pub waits: Vec<Duration>,
    /// `serve-mixed-jobs`: most jobs in flight at once.
    pub peak_in_flight: Option<usize>,
}

impl Rep {
    /// A rep none of whose `ops` operations produced a result.
    pub fn failed(ops: usize, why: &str) -> Rep {
        Rep {
            wall: Duration::ZERO,
            ops: (0..ops)
                .map(|_| Op {
                    latency: Duration::ZERO,
                    digest: Err(why.to_string()),
                })
                .collect(),
            reports: Vec::new(),
            twin: None,
            waits: Vec::new(),
            peak_in_flight: None,
        }
    }

    fn single(wall: Duration, op: Op, report: Option<RunReport>) -> Rep {
        Rep {
            wall,
            ops: vec![op],
            reports: report.into_iter().collect(),
            twin: None,
            waits: Vec::new(),
            peak_in_flight: None,
        }
    }
}

/// Counts taken from the timed reps that shape the probes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Traffic {
    /// Median frames (or mailbox messages) per DAG vertex.
    pub frames_per_cell: f64,
    /// Median payload bytes per frame.
    pub bytes_per_frame: f64,
    /// Median protocol messages folded into one batch (1 uncoalesced).
    pub msgs_per_batch: f64,
}

/// A workload as the driver loop sees it.
pub trait Workload {
    /// DAG vertices one rep covers (a serve: summed over its jobs).
    fn vertices(&self) -> u64;

    /// Time spent generating inputs from the seed.
    fn gen_time(&self) -> Duration;

    /// Runs the warm-up rep and compares it cell by cell with
    /// `apps::serial`; the digests of a rep that passed become the
    /// expectation every later rep is held to.
    fn warm_up(&mut self, spans: &mut Spans) -> Result<Vec<u64>, String>;

    /// One closed-loop rep. With an enabled `recorder` the engines are
    /// rebuilt with it attached (the traced rep).
    fn rep(&self, spans: &mut Spans, recorder: &Recorder) -> Rep;

    /// Wall time of one run of `baseline::NativeSwlag` on the same
    /// inputs — the hand-written code `overhead_ratio` divides by (Fig.
    /// 12). `None` where the workload has no native counterpart.
    fn native(&self) -> Option<Duration>;

    /// Runs the layer probes in this workload's shape and charges the
    /// ledger rows.
    fn probe(&self, p: &mut Probe<'_>, traffic: &Traffic) -> Result<(), String>;
}

/// Builds workload `name` at `1/scale` of its size from `seed`.
pub fn build(name: &str, seed: u64, scale: u32) -> Result<Box<dyn Workload>, String> {
    let cells = |full: u64| (full / u64::from(scale.max(1))).max(16);
    let base = EngineConfig::flat(PLACES);
    Ok(match name {
        "swlag-threads" => Box::new(Swlag::new(
            seed,
            cells(2_250_000),
            base.with_dist(DistKind::BlockCol).with_cache(4096),
            Backend::Threads,
        )),
        "swlag-tiled" => Box::new(Swlag::new(
            seed,
            cells(4_000_000),
            base.with_dist(DistKind::BlockCol).with_cache(4096),
            Backend::Tiled,
        )),
        "swlag-sockets-pull" => Box::new(Swlag::new(
            seed,
            cells(40_000),
            base.with_dist(DistKind::CyclicCol).with_cache(256),
            Backend::Sockets,
        )),
        "swlag-sockets-push" => Box::new(Swlag::new(
            seed,
            cells(360_000),
            base.with_dist(DistKind::CyclicCol)
                .with_cache(256)
                .with_comms(CommsMode::Push)
                .with_coalesce(Some(4096)),
            Backend::Sockets,
        )),
        "serve-mixed-jobs" => Box::new(Serve::new(
            seed,
            (64 / scale.max(1)).max(4) as usize,
            cells(10_000),
            cells(40_000),
        )),
        "mtp-fault" => Box::new(MtpFault::new(seed, cells(1_000_000))),
        other => {
            return Err(format!(
                "unknown workload {other:?}; known: {}",
                NAMES.join(", ")
            ))
        }
    })
}

/// FNV-1a over every finished cell's packed id and encoded value in
/// row-major order — the value `DagResult::fingerprint` computes (packed
/// ids sort row-major), streamed instead of sorted so that digesting a
/// 4 M-cell result does not dominate the process's peak memory.
pub fn digest<V: VertexValue>(result: &DagResult<V>) -> u64 {
    let array = result.array();
    let region = array.dist().region();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = Vec::new();
    for i in 0..region.height {
        for j in 0..region.width {
            if let Some(v) = array.get_finished(i, j) {
                buf.clear();
                buf.extend_from_slice(&VertexId::new(i, j).pack().to_le_bytes());
                v.encode(&mut buf);
                for &b in &buf {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// Turns a finished engine call into an operation and its report.
fn finish<V: VertexValue>(
    out: Result<&DagResult<V>, String>,
    latency: Duration,
) -> (Op, Option<RunReport>) {
    match out {
        Ok(result) => (
            Op {
                latency,
                digest: Ok(digest(result)),
            },
            Some(result.report().clone()),
        ),
        Err(e) => (
            Op {
                latency,
                digest: Err(e),
            },
            None,
        ),
    }
}

fn engine_err(e: EngineError) -> String {
    e.to_string()
}

/// Runs `place0` and `place1` as the two places of an in-process
/// loopback TCP mesh: the coordinator on this thread, the worker on a
/// scoped one. Each closure is an engine's `run` or a server's `serve`.
fn on_mesh<T: Send>(
    place0: impl FnOnce(SocketConfig) -> Result<Option<T>, EngineError>,
    place1: impl FnOnce(SocketConfig) -> Result<Option<T>, EngineError> + Send,
) -> Result<T, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    std::thread::scope(|s| {
        let worker = s.spawn(move || place1(SocketConfig::worker(PlaceId(1), PLACES, addr)));
        let outcome = place0(SocketConfig::coordinator(listener, PLACES));
        match worker.join() {
            Ok(Ok(None)) => {}
            Ok(Ok(Some(_))) => return Err("place 1 returned a result".to_string()),
            Ok(Err(e)) => return Err(format!("place 1: {e}")),
            Err(_) => return Err("place 1 panicked".to_string()),
        }
        outcome
            .map_err(engine_err)?
            .ok_or_else(|| "place 0 returned no result".to_string())
    })
}

/// Charges the per-vertex protocol every untiled engine run pays, at
/// `share` vertices of the engine's DAG per reported cell (1 untiled,
/// `1 / tile²` tiled).
fn charge_protocol(p: &mut Probe<'_>, edges: &Edges, share: f64) {
    let local = 1.0 - edges.remote_frac;
    p.charge("distarray.slot_of_ns", share * (edges.deps + edges.antis));
    p.charge(
        "distarray.local_index_ns",
        share * (edges.deps + edges.antis) * local,
    );
    p.charge("core.cache_hit_ns", share * edges.deps * edges.remote_frac);
    p.charge("core.cache_insert_ns", share * edges.msgs);
    // One cache lock per gather, one per delivered message.
    p.charge("sync.mutex_ns", share * (1.0 + edges.msgs));
    // Ready list: one push when the indegree reaches zero, one pop.
    p.charge("sync.segqueue_ns", share);
    // Disabled-recorder calls on the vertex path: ready-pop instant and
    // the compute span's enabled check.
    p.charge("obs.recorder_disabled_ns", share * 2.0);
}

/// Charges what one message costs on the wire of a socket mesh, at
/// `frames` frames per cell carrying `msgs_per_batch` messages each.
fn charge_socket_wire(p: &mut Probe<'_>, frames: f64, traffic: &Traffic) {
    if traffic.msgs_per_batch > 1.0 {
        let msgs = frames * traffic.msgs_per_batch;
        p.charge("apgas.coalesce_send_ns", msgs);
        p.charge("core.msg_batch_entry_ns", msgs);
    } else {
        p.charge("core.msg_encode_ns", frames);
        p.charge("core.msg_decode_ns", frames);
    }
    p.charge("apgas.frame_loopback_ns", frames);
    // Demux thread to engine: one channel hop per frame.
    p.charge("sync.channel_contended_ns", frames);
}

// ---------------------------------------------------------------- SWLAG

/// Which engine a SWLAG workload drives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Threads,
    Tiled,
    Sockets,
}

/// The four SWLAG workloads: one app, four ways through the framework.
struct Swlag {
    a: Vec<u8>,
    b: Vec<u8>,
    config: EngineConfig,
    backend: Backend,
    gen: Duration,
}

impl Swlag {
    fn new(seed: u64, cells: u64, config: EngineConfig, backend: Backend) -> Swlag {
        let started = Instant::now();
        let n = workload::side_for_vertices(cells) as usize;
        let (a, b) = (workload::dna(n, seed), workload::dna(n, seed + 1));
        Swlag {
            a,
            b,
            config,
            backend,
            gen: started.elapsed(),
        }
    }

    fn app(&self) -> SwlagApp {
        SwlagApp::new(self.a.clone(), self.b.clone())
    }

    fn pattern(&self) -> Grid3 {
        Grid3::new(self.a.len() as u32 + 1, self.b.len() as u32 + 1)
    }

    fn geometry(&self) -> TiledDag<Grid3> {
        TiledDag::new(self.pattern(), TILE)
    }

    /// Compares every `H` against the serial Gotoh matrix.
    fn check(&self, h_of: impl Fn(u32, u32) -> Option<i32>) -> Result<(), String> {
        let expect = serial::smith_waterman_affine(&self.a, &self.b, &self.app().scoring);
        for (i, row) in expect.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                let got = h_of(i as u32, j as u32);
                if got != Some(want) {
                    return Err(format!("H[{i}][{j}] = {got:?}, serial oracle says {want}"));
                }
            }
        }
        Ok(())
    }

    /// Runs once, keeping the typed result for the oracle check.
    fn run_untiled(
        &self,
        spans: &mut Spans,
        recorder: &Recorder,
    ) -> (Result<DagResult<SwCell>, String>, Duration) {
        match self.backend {
            Backend::Threads => {
                let engine = ThreadedEngine::new(self.app(), self.pattern(), self.config.clone())
                    .with_recorder(recorder.clone());
                spans.time("ThreadedEngine::run", |_| engine.run().map_err(engine_err))
            }
            Backend::Sockets => {
                let make = || {
                    SocketEngine::new(self.app(), self.pattern(), self.config.clone())
                        .with_recorder(recorder.clone())
                };
                let (coordinator, worker) = (make(), make());
                spans.time("SocketEngine::run", |_| {
                    on_mesh(
                        |socket| coordinator.run(socket),
                        |socket| worker.run(socket),
                    )
                })
            }
            Backend::Tiled => unreachable!("tiled runs go through run_tiled"),
        }
    }

    /// One tiled run; `f` reads the tile-level result while it is alive.
    fn run_tiled<R>(
        &self,
        spans: &mut Spans,
        recorder: &Recorder,
        f: impl FnOnce(Result<&DagResult<TileValue<SwCell>>, String>, Duration) -> R,
    ) -> R {
        if recorder.enabled() {
            // `run_tiled_threaded` takes no recorder; this is its body.
            let geometry = Arc::new(self.geometry());
            let engine = ThreadedEngine::new(
                TiledApp::new(self.app(), geometry.clone()),
                geometry,
                self.config.clone(),
            )
            .with_recorder(recorder.clone());
            let (out, wall) = spans.time("ThreadedEngine::run(tiled)", |_| {
                engine.run().map_err(engine_err)
            });
            return f(out.as_ref().map_err(String::clone), wall);
        }
        let (app, pattern, config) = (self.app(), self.pattern(), self.config.clone());
        let (out, wall) = spans.time("run_tiled_threaded", |_| {
            run_tiled_threaded(app, pattern, TILE, config).map_err(engine_err)
        });
        f(
            out.as_ref().map(|run| run.tiles()).map_err(String::clone),
            wall,
        )
    }
}

impl Workload for Swlag {
    fn vertices(&self) -> u64 {
        self.pattern().vertex_count()
    }

    fn gen_time(&self) -> Duration {
        self.gen
    }

    fn warm_up(&mut self, spans: &mut Spans) -> Result<Vec<u64>, String> {
        let off = Recorder::disabled();
        if self.backend == Backend::Tiled {
            let geometry = self.geometry();
            return self.run_tiled(spans, &off, |out, _| {
                let tiles = out?;
                self.check(|i, j| {
                    let t = geometry.tile_of(i, j);
                    let tile = tiles.array().get_finished(t.i, t.j)?;
                    let (ri, rj) = geometry.cell_bounds(t.i, t.j);
                    let idx = (i - ri.start) * (rj.end - rj.start) + (j - rj.start);
                    Some(tile.cells[idx as usize].h)
                })?;
                Ok(vec![digest(tiles)])
            });
        }
        let (out, _) = self.run_untiled(spans, &off);
        let result = out?;
        self.check(|i, j| result.array().get_finished(i, j).map(|c| c.h))?;
        Ok(vec![digest(&result)])
    }

    fn rep(&self, spans: &mut Spans, recorder: &Recorder) -> Rep {
        if self.backend == Backend::Tiled {
            return self.run_tiled(spans, recorder, |out, wall| {
                let (op, report) = finish(out, wall);
                Rep::single(wall, op, report)
            });
        }
        let (out, wall) = self.run_untiled(spans, recorder);
        let (op, report) = finish(out.as_ref().map_err(String::clone), wall);
        Rep::single(wall, op, report)
    }

    fn native(&self) -> Option<Duration> {
        // The native code is two threads sharing memory: the socket
        // workloads have nothing it could stand in for.
        if self.backend == Backend::Sockets {
            return None;
        }
        let native = NativeSwlag::new(self.a.clone(), self.b.clone(), PLACES);
        let started = Instant::now();
        std::hint::black_box(native.run());
        Some(started.elapsed())
    }

    fn probe(&self, p: &mut Probe<'_>, traffic: &Traffic) -> Result<(), String> {
        let (app, pattern) = (self.app(), self.pattern());
        let tiled = self.backend == Backend::Tiled;

        // Kernel: values from a one-place run over a prefix of the same
        // sequences.
        let side = self.a.len().min(700);
        let small = SwlagApp::new(self.a[..side].to_vec(), self.b[..side].to_vec());
        let small_pattern = small.pattern();
        let values = ThreadedEngine::new(small, small_pattern, EngineConfig::flat(1))
            .run()
            .map_err(engine_err)?;
        let sample = KernelSample::gather(&small_pattern, KERNEL_SAMPLE, |i, j| values.get(i, j));
        probes::compute(p, &app, &sample);
        probes::pattern_queries(p, &pattern);
        let ((), took) = p.time("probe:apps.serial_ns_per_cell", || {
            std::hint::black_box(serial::smith_waterman_affine(
                &self.a,
                &self.b,
                &app.scoring,
            ));
        });
        p.set(
            "apps.serial_ns_per_cell",
            took.as_nanos() as f64 / self.vertices() as f64,
        );

        // Protocol: in the shape the engine schedules — tiles of 12 KiB
        // values when tiled, cells otherwise.
        let (edges, share) = if tiled {
            let geometry = self.geometry();
            probes::tile_queries(p, &geometry);
            let tile = TileValue {
                cells: vec![SwCell::default(); (TILE * TILE) as usize],
            };
            let edges = probes::shape(p, &geometry, &self.config, &tile);
            (edges, 1.0 / f64::from(TILE * TILE))
        } else {
            let edges = probes::shape(p, &pattern, &self.config, &SwCell::default());
            (edges, 1.0)
        };
        common_probes(p, traffic)?;
        run_fixed(p, &self.config, || {
            SwlagApp::new(b"A".to_vec(), b"C".to_vec())
        })?;

        // Inside a tile every cell queries its dependencies twice
        // (indegree count, then gather) and its dependents once.
        p.charge("dag.dependencies_ns", if tiled { 2.0 } else { 1.0 });
        p.charge("dag.anti_dependencies_ns", 1.0);
        p.charge("apps.compute_ns", 1.0);
        if tiled {
            p.charge("dag.tile_dependencies_ns", share);
        }
        charge_protocol(p, &edges, share);
        match self.backend {
            Backend::Sockets => charge_socket_wire(p, traffic.frames_per_cell, traffic),
            _ => p.charge("apgas.mailbox_ns", traffic.frames_per_cell),
        }
        Ok(())
    }
}

/// The probes that do not depend on the app: `sync`, frames at the
/// workload's frame size, mesh formation and the recorder.
fn common_probes(p: &mut Probe<'_>, traffic: &Traffic) -> Result<(), String> {
    probes::sync_primitives(p);
    probes::frames(p, traffic.bytes_per_frame.round().max(1.0) as usize)?;
    probes::mesh_connect(p)?;
    probes::recorder(p);
    Ok(())
}

/// `core.run_fixed_*_ms`: a whole `run()` on a 2×2 DAG under the
/// workload's config — the cost of a run that computes nothing.
fn run_fixed<A: DpApp + 'static>(
    p: &mut Probe<'_>,
    config: &EngineConfig,
    tiny: impl Fn() -> A,
) -> Result<(), String> {
    let mut config = config.clone();
    config.fault = None;
    let mut failure = None;
    let threads = ThreadedEngine::new(tiny(), Grid3::new(2, 2), config.clone());
    p.per_op_ms("core.run_fixed_threads_ms", || {
        if let Err(e) = threads.run() {
            failure = Some(e.to_string());
        }
    });
    let (coordinator, worker) = (
        SocketEngine::new(tiny(), Grid3::new(2, 2), config.clone()),
        SocketEngine::new(tiny(), Grid3::new(2, 2), config),
    );
    p.per_op_ms("core.run_fixed_sockets_ms", || {
        if let Err(e) = on_mesh(
            |socket| coordinator.run(socket),
            |socket| worker.run(socket),
        ) {
            failure = Some(e);
        }
    });
    failure.map_or(Ok(()), Err)
}

// ---------------------------------------------------------------- serve

/// LCS or LPS behind one app type, so both kinds of job fit one
/// `JobServer`.
enum MixedApp {
    Lcs(LcsApp),
    Lps(LpsApp),
}

impl DpApp for MixedApp {
    type Value = u32;

    fn compute(&self, id: VertexId, deps: &DepView<'_, u32>) -> u32 {
        match self {
            MixedApp::Lcs(app) => app.compute(id, deps),
            MixedApp::Lps(app) => app.compute(id, deps),
        }
    }
}

/// What a served job computes, kept to rebuild servers and to check
/// answers.
enum JobInput {
    Lcs(Vec<u8>, Vec<u8>),
    Lps(Vec<u8>),
}

impl JobInput {
    fn app(&self) -> MixedApp {
        match self {
            JobInput::Lcs(a, b) => MixedApp::Lcs(LcsApp::new(a.clone(), b.clone())),
            JobInput::Lps(text) => MixedApp::Lps(LpsApp::new(text.clone())),
        }
    }

    fn pattern(&self) -> Arc<dyn DagPattern> {
        match self {
            JobInput::Lcs(a, b) => Arc::new(Grid3::new(a.len() as u32 + 1, b.len() as u32 + 1)),
            JobInput::Lps(text) => Arc::new(IntervalUpper::new(text.len() as u32)),
        }
    }

    /// The serial oracle's answer and the cell holding it.
    fn answer(&self) -> (u32, VertexId) {
        match self {
            JobInput::Lcs(a, b) => (
                serial::lcs_len(a, b),
                VertexId::new(a.len() as u32, b.len() as u32),
            ),
            JobInput::Lps(text) => (serial::lps(text), VertexId::new(0, text.len() as u32 - 1)),
        }
    }
}

/// `serve-mixed-jobs`: many small DAGs through one `JobServer` mesh.
struct Serve {
    jobs: Vec<JobInput>,
    gen: Duration,
}

impl Serve {
    fn new(seed: u64, jobs: usize, lcs_cells: u64, lps_cells: u64) -> Serve {
        let started = Instant::now();
        let lcs_side = workload::side_for_vertices(lcs_cells) as usize;
        let lps_len = ((lps_cells as f64 * 2.0).sqrt() as usize).max(2);
        let jobs = (0..jobs as u64)
            .map(|k| {
                let s = seed.wrapping_mul(1_000_003).wrapping_add(2 * k);
                if k % 2 == 0 {
                    JobInput::Lcs(
                        workload::letters(lcs_side, s),
                        workload::letters(lcs_side, s + 1),
                    )
                } else {
                    JobInput::Lps(workload::letters(lps_len, s))
                }
            })
            .collect();
        Serve {
            jobs,
            gen: started.elapsed(),
        }
    }

    fn config() -> EngineConfig {
        EngineConfig::flat(PLACES)
    }

    /// One place's server: every job submitted up front, priorities
    /// alternating 0/1, at most four in flight.
    fn server(&self, recorder: &Recorder) -> Result<JobServer<MixedApp>, String> {
        let mut server = JobServer::new()
            .with_max_in_flight(4)
            .with_max_queue(self.jobs.len())
            .with_recorder(recorder.clone());
        for (k, job) in self.jobs.iter().enumerate() {
            let spec = JobSpec {
                name: format!("job{k}"),
                app: Arc::new(job.app()),
                pattern: job.pattern(),
                config: Self::config(),
                priority: (k % 2) as u8,
                places: None,
            };
            server.submit(spec).map_err(engine_err)?;
        }
        Ok(server)
    }

    fn serve_once(&self, spans: &mut Spans, recorder: &Recorder) -> Result<ServeOutcome, String> {
        let (coordinator, worker) = (self.server(recorder)?, self.server(recorder)?);
        let (out, wall) = spans.time("JobServer::serve", |_| {
            on_mesh(
                |socket| coordinator.serve(socket),
                |socket| worker.serve(socket),
            )
        });
        Ok((out?, wall))
    }
}

type ServeOutcome = (dpx10_core::ServeReport<u32>, Duration);

impl Workload for Serve {
    fn vertices(&self) -> u64 {
        self.jobs.iter().map(|j| j.pattern().vertex_count()).sum()
    }

    fn gen_time(&self) -> Duration {
        self.gen
    }

    fn warm_up(&mut self, spans: &mut Spans) -> Result<Vec<u64>, String> {
        let (report, _) = self.serve_once(spans, &Recorder::disabled())?;
        let mut digests = Vec::with_capacity(self.jobs.len());
        for (job, outcome) in self.jobs.iter().zip(&report.jobs) {
            let result = outcome
                .result
                .as_ref()
                .map_err(|e| format!("{}: {e}", outcome.name))?;
            let (want, at) = job.answer();
            let got = result.try_get(at.i, at.j);
            if got != Some(want) {
                return Err(format!(
                    "{}: answer {got:?}, serial oracle says {want}",
                    outcome.name
                ));
            }
            digests.push(digest(result));
        }
        Ok(digests)
    }

    fn rep(&self, spans: &mut Spans, recorder: &Recorder) -> Rep {
        let (report, wall) = match self.serve_once(spans, recorder) {
            Ok(served) => served,
            // The whole serve failed: every job of it did.
            Err(e) => return Rep::failed(self.jobs.len(), &e),
        };
        let mut rep = Rep {
            wall,
            ops: Vec::with_capacity(report.jobs.len()),
            reports: Vec::new(),
            twin: None,
            waits: Vec::new(),
            peak_in_flight: Some(report.peak_in_flight),
        };
        for outcome in report.jobs {
            rep.waits.push(outcome.wait);
            match outcome.result {
                Ok(result) => {
                    rep.ops.push(Op {
                        latency: outcome.wait + result.report().wall_time,
                        digest: Ok(digest(&result)),
                    });
                    rep.reports.push(result.report().clone());
                }
                Err(e) => rep.ops.push(Op {
                    latency: outcome.wait,
                    digest: Err(e.to_string()),
                }),
            }
        }
        rep
    }

    fn native(&self) -> Option<Duration> {
        None
    }

    fn probe(&self, p: &mut Probe<'_>, traffic: &Traffic) -> Result<(), String> {
        // Kernel and pattern probes take the LPS jobs' shape: they hold
        // four fifths of the vertices and the triangular pattern.
        let Some(JobInput::Lps(text)) = self.jobs.iter().find(|j| matches!(j, JobInput::Lps(_)))
        else {
            return Err("serve workload has no LPS job".to_string());
        };
        let (app, pattern) = (
            LpsApp::new(text.clone()),
            IntervalUpper::new(text.len() as u32),
        );
        let values = ThreadedEngine::new(LpsApp::new(text.clone()), pattern, EngineConfig::flat(1))
            .run()
            .map_err(engine_err)?;
        let sample = KernelSample::gather(&pattern, KERNEL_SAMPLE, |i, j| values.get(i, j));
        probes::compute(p, &app, &sample);
        probes::pattern_queries(p, &pattern);

        let cells = self.vertices() as f64;
        let ((), took) = p.time("probe:apps.serial_ns_per_cell", || {
            for job in &self.jobs {
                std::hint::black_box(job.answer());
            }
        });
        p.set("apps.serial_ns_per_cell", took.as_nanos() as f64 / cells);

        let config = Self::config();
        let edges = probes::shape(p, &pattern, &config, &0u32);
        common_probes(p, traffic)?;
        run_fixed(p, &config, || {
            MixedApp::Lcs(LcsApp::new(b"A".to_vec(), b"C".to_vec()))
        })?;

        p.charge("dag.dependencies_ns", 1.0);
        p.charge("dag.anti_dependencies_ns", 1.0);
        p.charge("apps.compute_ns", 1.0);
        charge_protocol(p, &edges, 1.0);
        // A serve's reports carry no per-job traffic counters (they are
        // mesh-level), so the wire is charged at the census's one frame
        // per `Done`.
        charge_socket_wire(p, edges.msgs, traffic);
        Ok(())
    }
}

// ------------------------------------------------------------ mtp-fault

/// `mtp-fault`: MTP with place 1 killed at half progress, next to its
/// fault-free twin.
struct MtpFault {
    side: u32,
    seed: u64,
    gen: Duration,
}

impl MtpFault {
    fn new(seed: u64, cells: u64) -> MtpFault {
        let started = Instant::now();
        let side = workload::side_for_vertices(cells) + 1;
        MtpFault {
            side,
            seed,
            gen: started.elapsed(),
        }
    }

    fn config() -> EngineConfig {
        EngineConfig::flat(PLACES).with_dist(DistKind::BlockRow)
    }

    fn engine(&self, fault: bool, recorder: &Recorder) -> ThreadedEngine<MtpApp> {
        let app = MtpApp::new(self.side, self.side, self.seed);
        let pattern = app.pattern();
        let mut config = Self::config();
        if fault {
            config = config.with_fault(FaultPlan::mid_run(PlaceId(1)));
        }
        ThreadedEngine::new(app, pattern, config).with_recorder(recorder.clone())
    }

    fn run(
        &self,
        spans: &mut Spans,
        fault: bool,
        recorder: &Recorder,
    ) -> (Result<DagResult<i64>, String>, Duration) {
        let engine = self.engine(fault, recorder);
        let name = if fault {
            "ThreadedEngine::run(fault)"
        } else {
            "ThreadedEngine::run(twin)"
        };
        spans.time(name, |_| engine.run().map_err(engine_err))
    }
}

impl Workload for MtpFault {
    fn vertices(&self) -> u64 {
        u64::from(self.side) * u64::from(self.side)
    }

    fn gen_time(&self) -> Duration {
        self.gen
    }

    fn warm_up(&mut self, spans: &mut Spans) -> Result<Vec<u64>, String> {
        let (out, _) = self.run(spans, true, &Recorder::disabled());
        let result = out?;
        if result.report().recoveries.is_empty() {
            return Err("the planned fault did not trigger a recovery".to_string());
        }
        let expect = serial::manhattan_tourist(self.side, self.side, self.seed);
        for (i, row) in expect.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                let got = result.array().get_finished(i as u32, j as u32).copied();
                if got != Some(want) {
                    return Err(format!("D[{i}][{j}] = {got:?}, serial oracle says {want}"));
                }
            }
        }
        Ok(vec![digest(&result)])
    }

    fn rep(&self, spans: &mut Spans, recorder: &Recorder) -> Rep {
        let (faulted, wall) = self.run(spans, true, recorder);
        let (twin, twin_wall) = self.run(spans, false, &Recorder::disabled());
        let (op, report) = finish(faulted.as_ref().map_err(String::clone), wall);
        let (twin_op, _) = finish(twin.as_ref().map_err(String::clone), twin_wall);
        Rep {
            wall,
            ops: vec![op],
            reports: report.into_iter().collect(),
            twin: Some(twin_op),
            waits: Vec::new(),
            peak_in_flight: None,
        }
    }

    fn native(&self) -> Option<Duration> {
        None
    }

    fn probe(&self, p: &mut Probe<'_>, traffic: &Traffic) -> Result<(), String> {
        let app = MtpApp::new(self.side, self.side, self.seed);
        let pattern = app.pattern();
        let side = self.side.min(700);
        let small = MtpApp::new(side, side, self.seed);
        let small_pattern = small.pattern();
        let values = ThreadedEngine::new(small, small_pattern, EngineConfig::flat(1))
            .run()
            .map_err(engine_err)?;
        // Edge weights hash absolute coordinates, so the small run's
        // values are the big run's values on the shared prefix.
        let sample = KernelSample::gather(&small_pattern, KERNEL_SAMPLE, |i, j| values.get(i, j));
        probes::compute(p, &app, &sample);
        probes::pattern_queries(p, &pattern);
        let ((), took) = p.time("probe:apps.serial_ns_per_cell", || {
            std::hint::black_box(serial::manhattan_tourist(self.side, self.side, self.seed));
        });
        p.set(
            "apps.serial_ns_per_cell",
            took.as_nanos() as f64 / self.vertices() as f64,
        );

        let config = Self::config();
        let edges = probes::shape(p, &pattern, &config, &0i64);
        common_probes(p, traffic)?;
        run_fixed(p, &config, || MtpApp::new(2, 2, self.seed))?;

        // Recovery on an array in this workload's shape, half finished
        // in wavefront order (what a mid-run kill leaves behind).
        let mut half: DistArray<i64> = DistArray::new(Arc::new(probes::dist_of(&pattern, &config)));
        let cut = u64::from(self.side);
        for i in 0..self.side {
            for j in 0..self.side {
                if u64::from(i) + u64::from(j) < cut {
                    half.set(i, j, 1);
                }
            }
        }
        p.per_op_ms("distarray.recover_ms", || {
            std::hint::black_box(recover(
                &half,
                &[PlaceId(1)],
                config.restore_manner,
                &config.topology,
                &config.network,
                &RecoveryCostModel::default(),
            ));
        });

        p.charge("dag.dependencies_ns", 1.0);
        p.charge("dag.anti_dependencies_ns", 1.0);
        p.charge("apps.compute_ns", 1.0);
        charge_protocol(p, &edges, 1.0);
        p.charge("apgas.mailbox_ns", traffic.frames_per_cell);
        // One recovery per faulted run; the metric is in ms, the row in ns.
        p.ledger.push(LedgerRow::new(
            "distarray.recover_ms",
            1.0 / self.vertices() as f64,
            p.get("distarray.recover_ms") * 1e6,
        ));
        Ok(())
    }
}

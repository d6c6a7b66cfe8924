//! The threaded DPX10 engine.
//!
//! Reproduces the execution overview of paper §VI-A on the APGAS
//! substrate: distribute + initialise the DAG over places, seed the ready
//! lists with zero-indegree vertices, run one worker per place until
//! every vertex is finished, then invoke `appFinished`. The per-vertex
//! protocol itself lives in [`crate::protocol`]; this module is its
//! real-time driver — the worker loop and the `Worker` sink — shared
//! with the socket places and the served jobs.
//!
//! A place is one thread (the paper's `X10_NTHREADS` workers per place
//! are the simulator's `SimConfig::workers`). The thread owns its slot's
//! [`Shard`]: it builds the shard when the epoch starts, runs the
//! protocol on it through `&mut`, and hands it back when joined, so a
//! local vertex takes no atomic read-modify-write and no lock. What
//! crosses threads is a message and the slot's [`Progress`] (plain
//! stores the coordinator polls). The owner pops ready vertices in the
//! order [`Start::build`] chose for its shard ([`crate::state::ReadyList`]).
//! On a `BlockCol` chunk whose stencil has a sweep that is a cursor, row
//! by row like the hand-written loop: rows up where the stencil points
//! into earlier storage (the LCS, SWLAG and MTP shapes), rows down where
//! it points into later rows (LPS), columns ascending. An interior cell
//! is computed in place, and the cursor runs on along its row in one
//! tight loop (ids and lent values at fixed offsets) until the row's
//! interior ends, a cell is already finished or, in a masked chunk,
//! meets a hole, or the round's ready budget is spent. Every other cell
//! takes the protocol once its cross-chunk counter reads zero, and one
//! that parks or is shipped holds the cursor until it is named ready or
//! published. Other shards pop FIFO.
//! The epoch loop and §VI-D's recovery live in
//! [`crate::epoch`], which also starts the workers; [`ThreadedEngine`]
//! is the host of that loop whose places all live in one process, and
//! [`crate::ElasticEngine`] runs on it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use dpx10_apgas::{
    mailbox::Envelope, ChaosRng, ChaosTransport, LivenessBoard, LocalTransport, PlaceId,
    StatsBoard, Transport,
};
use dpx10_dag::{DagPattern, DepInterval, VertexId};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

use crate::app::{AggView, DagResult, DepView, DpApp};
use crate::checkpoint::CheckpointWriters;
use crate::config::{EngineConfig, InitOverride};
use crate::epoch::{drive, preflight, Boundaries, Host, Run};
use crate::error::EngineError;
use crate::msg::Msg;
use crate::protocol::{gather, handle_msg, prepare, publish, Ctx, Sink, WorkerBufs};
use crate::schedule::ScheduleStrategy;
use crate::socket_engine::data_well_formed;
use crate::state::{at, lend, Progress, ReadyList, Shard, Start, LENT};

/// The threaded engine: one instance runs one application to completion.
pub struct ThreadedEngine<A: DpApp> {
    app: Arc<A>,
    pub(crate) pattern: Arc<dyn DagPattern>,
    config: EngineConfig,
    init: Option<InitOverride<A::Value>>,
    recorder: Recorder,
}

impl<A: DpApp + 'static> ThreadedEngine<A> {
    /// Creates an engine for `app` over `pattern` with `config`.
    pub fn new(app: A, pattern: impl DagPattern + 'static, config: EngineConfig) -> Self {
        ThreadedEngine {
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            init: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Installs a §VI-E initialisation override (pre-finish cells).
    pub fn with_init(mut self, init: InitOverride<A::Value>) -> Self {
        self.init = Some(init);
        self
    }

    /// Attaches a flight recorder; compute spans, cache traffic, pull
    /// round-trips and epoch/recovery events are recorded into it.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the computation to completion (surviving any planned fault)
    /// and returns the full result set.
    pub fn run(&self) -> Result<DagResult<A::Value>, EngineError> {
        self.run_on(self.config.topology.places().collect(), None)
    }

    /// Runs on `participants`, every one of whose workers runs in this
    /// process: the host of this engine, and of [`crate::ElasticEngine`]
    /// with its planned membership `boundaries`.
    pub(crate) fn run_on(
        &self,
        participants: Vec<PlaceId>,
        boundaries: Option<&mut Boundaries>,
    ) -> Result<DagResult<A::Value>, EngineError> {
        let cfg = &self.config;
        let topo = cfg.topology;
        preflight(cfg, self.pattern.as_ref())?;
        let liveness = LivenessBoard::new(topo.num_places());
        let stats = StatsBoard::new(topo.num_places());
        let checkpoint = match &cfg.checkpoint {
            Some(ckpt) => Some(Arc::new(
                CheckpointWriters::create(ckpt, topo.num_places())
                    .map_err(|e| EngineError::Io(format!("checkpoint: {e}")))?,
            )),
            None => None,
        };
        // Fresh mailboxes each epoch: an abandoned epoch's messages must
        // not reach the next one.
        let mut transport = |_epoch: u32| {
            let local = LocalTransport::new(topo, cfg.network, liveness.clone(), stats.clone());
            let mut transport: Arc<dyn Transport<Msg<A::Value>>> = Arc::new(local);
            if let Some(plan) = cfg.chaos.as_ref().filter(|p| !p.net.is_off()) {
                let dup_safe: dpx10_apgas::chaos::DupSafe<Msg<A::Value>> =
                    Arc::new(|m| !m.carries_decrements());
                transport = Arc::new(ChaosTransport::new(
                    transport, plan.net, plan.seed, dup_safe,
                ));
            }
            transport
        };
        let init = self.init.as_ref();
        let run = Run::new(&self.app, &self.pattern, cfg, init, participants);
        // Every participant's workers run in this process.
        let host = Host {
            me: PlaceId::ZERO,
            liveness: liveness.clone(),
            stats: stats.clone(),
            recorder: self.recorder.clone(),
            transport: &mut transport,
            track_base: 0,
            kill: &|victim| {
                liveness.kill(victim);
            },
            checkpoint,
            mesh: None,
            boundaries,
        };
        Ok(drive(run, host)?.expect("place 0 holds the result"))
    }
}

/// Everything an epoch's threads share: the protocol's read-only
/// context, what each worker builds its shard from, and what this driver
/// of the protocol needs. `pub(crate)` because the socket engine drives
/// the same worker loop over its own transport.
pub(crate) struct Shared<A: DpApp> {
    pub(crate) ctx: Ctx<A>,
    /// What each hosted slot's owner builds its shard from.
    pub(crate) start: Start<A::Value>,
    /// One per slot of the epoch's distribution: what its owner last
    /// stored (zero for a slot another process hosts).
    pub(crate) progress: Vec<Progress>,
    pub(crate) transport: Arc<dyn Transport<Msg<A::Value>>>,
    /// Whether inbound messages come from other processes and must pass
    /// [`crate::socket_engine::data_well_formed`] before they may index
    /// a shard.
    pub(crate) check_peers: bool,
    pub(crate) liveness: LivenessBoard,
    pub(crate) total: u64,
    /// Finished cells on every place, prefinished ones included: counted
    /// only while `triggers` is armed. Completion is the coordinator's
    /// poll of the slots' [`Progress`].
    pub(crate) finished_global: AtomicU64,
    pub(crate) done: AtomicBool,
    pub(crate) fault: AtomicBool,
    /// Progress triggers that fire exactly, from the worker that
    /// publishes the threshold vertex: planned kills and the next
    /// membership boundary (empty where the global finished count is
    /// not visible: on a mesh the coordinator polls kills instead).
    pub(crate) triggers: Vec<Trigger>,
    /// Schedule-shaker seed; `Some` randomizes the worker loops.
    pub(crate) shake: Option<u64>,
    /// The trace track (and shaker substream) of the first hosted
    /// slot's owner; a slot's is `track_base + hosted_index`.
    pub(crate) track_base: u64,
    /// The place of a worker thread that unwound, once one has.
    pub(crate) panicked: OnceLock<PlaceId>,
    /// The thread that runs the epoch loop, which a boundary wakes.
    pub(crate) coordinator: Thread,
    pub(crate) checkpoint: Option<Arc<CheckpointWriters<A::Value>>>,
    pub(crate) recorder: Recorder,
}

/// One armed progress trigger.
pub(crate) struct Trigger {
    threshold: u64,
    /// The place a planned kill takes down; `None` for a membership
    /// boundary, which stops every worker of the epoch.
    victim: Option<PlaceId>,
    /// Zero until the trigger fires, then one past the recorder time it
    /// fired at.
    fired: AtomicU64,
}

impl Trigger {
    pub(crate) fn new(threshold: u64, victim: Option<PlaceId>) -> Self {
        Trigger {
            threshold,
            victim,
            fired: AtomicU64::new(0),
        }
    }
}

impl<A: DpApp> Shared<A> {
    #[inline]
    pub(crate) fn should_stop(&self) -> bool {
        self.done.load(Ordering::Acquire) || self.fault.load(Ordering::Acquire)
    }

    /// When a membership boundary ended this epoch, if one has (recorder
    /// time).
    pub(crate) fn boundary_fired(&self) -> Option<u64> {
        let boundary = self.triggers.iter().find(|t| t.victim.is_none())?;
        boundary.fired.load(Ordering::Acquire).checked_sub(1)
    }

    /// Fails once a worker thread of this epoch has panicked.
    pub(crate) fn check_panic(&self) -> Result<(), EngineError> {
        match self.panicked.get() {
            Some(&place) => Err(EngineError::WorkerPanicked { place }),
            None => Ok(()),
        }
    }
}

/// How many computes one timed compute stands for while no flight
/// recorder is on: a clock pair costs more than a small `compute`.
const BUSY_SAMPLE: u32 = 16;

/// What an empty `Instant::now()`/`elapsed()` span reads: the median of
/// 48, measured by each worker when it starts (one draw per process
/// skewed every run). A sampled compute is charged its span less this
/// floor; less the least reading, it paid the clock's jitter 16-fold.
fn clock_floor_ns() -> u64 {
    let span = |_| {
        let started = Instant::now();
        started.elapsed().as_nanos() as u64
    };
    let mut spans: Vec<u64> = (0..48).map(span).collect();
    spans.sort_unstable();
    spans[spans.len() / 2]
}

/// The [`Sink`] of every real-time driver — threaded engine, socket
/// place, served job: the thread that owns one slot's shard, acting on
/// an epoch's [`Shared`].
struct Worker<'a, A: DpApp> {
    shared: &'a Shared<A>,
    /// The place this worker serves.
    me: PlaceId,
    /// Process-wide worker id: the trace track this thread records onto.
    wid: u16,
    /// Computes left before this thread times one again.
    untimed: u32,
    /// This thread's [`clock_floor_ns`].
    floor: u64,
    /// What this epoch has added to the place's `tasks_run`.
    counted: u64,
}

impl<A: DpApp> Worker<'_, A> {
    /// The next ready vertex of the shard.
    #[inline]
    fn next_ready(&mut self, shard: &mut Shard<A::Value>) -> Option<u32> {
        let li = shard.pop_ready()?;
        self.popped(li);
        Some(li)
    }

    /// Records the pop of local vertex `li`.
    #[inline]
    fn popped(&self, li: u32) {
        let rec = &self.shared.recorder;
        rec.instant_now(self.me.0, self.wid, EventKind::ReadyPop, u64::from(li));
    }

    /// Runs `compute` (the app's, classic or ranged) for vertex `id`:
    /// its value, and the nanoseconds it charges the slot. Every compute
    /// is timed while recording (and emits its vertex-compute span);
    /// otherwise one in [`BUSY_SAMPLE`], the first included, counted down
    /// in `untimed`, is charged for all of them, less the
    /// [`clock_floor_ns`] of its span.
    fn compute(&mut self, id: VertexId, compute: impl FnOnce() -> A::Value) -> (A::Value, u64) {
        let (rec, place, wid) = (&self.shared.recorder, self.me.0, self.wid);
        if rec.enabled() {
            let start = rec.now_ns();
            let value = compute();
            let end = rec.now_ns();
            rec.span(place, wid, EventKind::VertexCompute, start, end, id.pack());
            return (value, end - start);
        }
        if self.untimed > 0 {
            self.untimed -= 1;
            return (compute(), 0);
        }
        self.untimed = BUSY_SAMPLE - 1;
        let started = Instant::now();
        let value = compute();
        let ns = (started.elapsed().as_nanos() as u64).saturating_sub(self.floor);
        (value, ns * u64::from(BUSY_SAMPLE))
    }

    /// Stores the shard's finished count into its slot's [`Progress`]
    /// and adds what it computed since the last store to the place's
    /// `tasks_run` (one add per round that computed, not per vertex).
    fn store_progress(&mut self, shard: &Shard<A::Value>) {
        let progress = &self.shared.progress[shard.slot];
        progress.0.store(shard.finished_local, Ordering::Relaxed);
        let new = shard.computed() - self.counted;
        if new > 0 {
            self.shared.ctx.stats.place(self.me).on_tasks(new);
            self.counted += new;
        }
    }
}

impl<A: DpApp> Sink<A::Value> for Worker<'_, A> {
    fn send(&mut self, src: PlaceId, dst: PlaceId, msg: Msg<A::Value>) {
        let sh = self.shared;
        let bytes = msg.wire_size();
        sh.recorder
            .instant_now(src.0, RUNTIME_WORKER, EventKind::MsgSend, bytes as u64);
        if sh.transport.send(src, dst, msg, bytes).is_err() {
            sh.fault.store(true, Ordering::Release);
        }
    }

    #[inline]
    fn ready(&mut self, shard: &mut Shard<A::Value>, li: u32) {
        shard.ready.push(li);
    }

    #[inline]
    fn stamp(&mut self, place: PlaceId, kind: EventKind, arg: u64) {
        self.shared
            .recorder
            .instant_now(place.0, self.wid, kind, arg);
    }

    fn exec(
        &mut self,
        shard: &mut Shard<A::Value>,
        src: PlaceId,
        id: VertexId,
        dep_ids: Vec<VertexId>,
        dep_values: Vec<A::Value>,
    ) {
        let view = DepView::new(&dep_ids, &dep_values);
        let (value, ns) = self.compute(id, || self.shared.ctx.app.compute(id, &view));
        shard.busy_ns += ns;
        self.send(self.me, src, Msg::ExecResult { id, value });
    }

    /// Checkpoint and fire any exact trigger now due. Termination is not
    /// judged here: the coordinator polls the slots' [`Progress`].
    fn finished(&mut self, _slot: usize, id: VertexId, value: &A::Value) {
        let sh = self.shared;
        if let Some(ckpt) = &sh.checkpoint {
            ckpt.on_publish(self.me, id, value);
        }
        if sh.triggers.is_empty() {
            return;
        }
        let g = sh.finished_global.fetch_add(1, Ordering::AcqRel) + 1;
        for trig in &sh.triggers {
            if g < trig.threshold || trig.fired.load(Ordering::Acquire) != 0 {
                continue;
            }
            let at = sh.recorder.now_ns() + 1;
            let fired = trig
                .fired
                .compare_exchange(0, at, Ordering::AcqRel, Ordering::Acquire);
            match (fired, trig.victim) {
                (Err(_), _) => {} // another worker fired it
                (Ok(_), Some(victim)) => {
                    sh.liveness.kill(victim);
                    sh.fault.store(true, Ordering::Release);
                }
                (Ok(_), None) => {
                    sh.done.store(true, Ordering::Release);
                    sh.coordinator.unpark();
                }
            }
        }
    }
}

/// The owner thread of `slot`, on track `wid`: builds the slot's shard,
/// then runs budgeted rounds — drain inbound messages, execute ready
/// vertices — and parks briefly when idle (paper §VI-C's worker loop).
/// Hands the shard back when the epoch ends for it.
///
/// The inbox is `shared.transport`'s — the same loop serves the threaded
/// engine (mailboxes), each place process of the socket engine and each
/// served job; [`crate::epoch`] is the one place that starts it.
pub(crate) fn worker_loop<A: DpApp>(shared: &Shared<A>, slot: usize, wid: u16) -> Shard<A::Value> {
    let mut shard = shared.start.build(&shared.ctx, slot);
    let me = shared.ctx.dist.places()[slot];
    let mut bufs = WorkerBufs::default();
    let mut idle_rounds = 0u32;
    // The schedule shaker: a per-worker substream of the chaos seed that
    // randomizes drain budgets, ready-pop order and yield points. Any
    // interleaving it produces is one the engine must tolerate anyway —
    // the shaker just reaches them on purpose.
    let mut shaker = shared
        .shake
        .map(|seed| ChaosRng::new(seed).fork(0x5748_4B52).fork(u64::from(wid))); // "WHKR"
    let mut worker = Worker {
        shared,
        me,
        wid,
        untimed: 0,
        floor: clock_floor_ns(),
        counted: 0,
    };
    loop {
        // What the last round finished becomes visible (to the
        // coordinator's poll, to a serve's kill watchdog) before the
        // next round starts or the loop ends.
        worker.store_progress(&shard);
        if shared.should_stop() || !shared.liveness.is_alive(me) {
            break;
        }
        // One budgeted round: drain inbound messages, then execute ready
        // vertices.
        let (drain_budget, ready_budget) = match shaker.as_mut() {
            Some(rng) => {
                if rng.chance(0.05) {
                    std::thread::yield_now();
                }
                (1 + rng.below(128), 1 + rng.below(32))
            }
            None => (128, 32),
        };
        let mut progress = false;
        for _ in 0..drain_budget {
            match shared.transport.try_recv(me) {
                Some(env) => {
                    deliver(&mut worker, &mut shard, env, &mut bufs);
                    progress = true;
                }
                None => break,
            }
        }
        match shaker.as_mut() {
            Some(rng) => {
                // Shaken pop: grab a small batch, start it at a random
                // offset — adjacent ready vertices execute in an order a
                // plain FIFO/LIFO queue would never produce. A cursor
                // holds the cell it popped, so its batch is that one.
                let mut popped = 0;
                while popped < ready_budget {
                    let mut batch: Vec<u32> = Vec::with_capacity(4);
                    let pop = |_| worker.next_ready(&mut shard);
                    batch.extend((0..1 + rng.below(3)).map_while(pop));
                    if batch.is_empty() {
                        break;
                    }
                    let r = rng.below(batch.len() as u64) as usize;
                    batch.rotate_left(r);
                    for li in batch {
                        let budget = ready_budget.saturating_sub(popped).max(1);
                        popped += run(&mut worker, &mut shard, li, budget, &mut bufs);
                        progress = true;
                    }
                }
            }
            None => {
                let mut popped = 0;
                while popped < ready_budget {
                    let Some(li) = worker.next_ready(&mut shard) else {
                        break;
                    };
                    let budget = ready_budget - popped;
                    popped += run(&mut worker, &mut shard, li, budget, &mut bufs);
                    progress = true;
                }
            }
        }
        if progress {
            idle_rounds = 0;
            continue;
        }
        idle_rounds += 1;
        if idle_rounds == 1 {
            // Idle drain of the coalescing layer (no-op otherwise):
            // buffered decrements must flow once we run out of local
            // work, or the cluster deadlocks waiting on a batch that
            // never fills its byte budget.
            shared.transport.flush(me);
        }
        if idle_rounds < 8 {
            std::thread::yield_now();
            continue;
        }
        shared.transport.flush(me);
        let wait = Duration::from_micros(500);
        if let Some(env) = shared.transport.recv_timeout(me, wait) {
            deliver(&mut worker, &mut shard, env, &mut bufs);
            idle_rounds = 0;
        }
    }
    shard
}

/// Hands one inbound message to the protocol. On a socket mesh the
/// sender is another process: a message naming a cell this place cannot
/// index is dropped and its sender written off, exactly like an
/// undecodable payload.
fn deliver<A: DpApp>(
    worker: &mut Worker<'_, A>,
    shard: &mut Shard<A::Value>,
    env: Envelope<Msg<A::Value>>,
    bufs: &mut WorkerBufs,
) {
    let shared = worker.shared;
    if shared.check_peers && !data_well_formed(&shared.ctx, shard, &env.msg) {
        shared.liveness.mark_dead(env.src);
        return;
    }
    handle_msg(&shared.ctx, shard, worker, env.src, env.msg, bufs);
}

/// Runs one popped vertex of the shard, and returns how many pops of the
/// round's `budget` (at least one) it used.
///
/// A cursor's interior cell under the local schedule is computed in
/// place, its dependencies lent out of the slab, and nothing is
/// decremented or sent ([`Shard::interior`]). The cursor then runs on
/// along the row, one tight loop: ids shifted one column per cell, values
/// lent at the same slab deltas. Every dependency of the next cell comes
/// before it in the cursor's sweep, so it is finished; the span stops at
/// the last interior column, at a finished cell, when the budget is
/// spent, or in a masked chunk at a cell that is a hole or has one at
/// the span's slab deltas. The mask is read before the loop, which
/// stays the unmasked one. Each span cell is a pop: it records its
/// `ReadyPop`, is timed like any compute, and is finished through the
/// sink. Every other vertex takes [`execute`].
fn run<A: DpApp>(
    worker: &mut Worker<'_, A>,
    shard: &mut Shard<A::Value>,
    li: u32,
    budget: u64,
    bufs: &mut WorkerBufs,
) -> u64 {
    let ctx = &worker.shared.ctx;
    let in_place = shard.ready.is_cursor() && ctx.schedule == ScheduleStrategy::Local;
    let interior = if in_place { shard.interior(li) } else { None };
    let (Some((deltas, n)), Some(st)) = (interior, shard.stencil.as_ref()) else {
        execute(worker, shard, li, bufs);
        return 1;
    };
    let (i, j) = shard.points.get(li);
    let first = VertexId::new(i, j);
    let mut ids = [first; LENT];
    (ids.iter_mut().zip(st.neighbours(first))).for_each(|(d, nb)| *d = nb);
    let mut span = u64::from(st.interior_end() - j).min(budget) as u32;
    if shard.in_pattern.is_some() {
        // A masked chunk's span ends before the first cell that is a
        // hole or has one among its dependencies or dependents.
        let anti = (st.anti_deltas(i, j)).expect("an interior cell's dependents are in the chunk");
        let open = |c| {
            shard.is_vertex(c) && shard.vertices_at(c, &deltas[..n]) && shard.vertices_at(c, anti)
        };
        span = (1..span).find(|&k| !open(li + k)).unwrap_or(span);
    }
    let mut k = 0;
    loop {
        let (li, id) = (li + k, VertexId::new(i, j + k));
        debug_assert!(deltas[..n].iter().all(|&d| shard.finished(at(li, d))));
        let refs = lend(&shard.values, li as usize, &deltas[..n]);
        let view = DepView::lent(&ids[..n], &refs[..n]);
        let (value, ns) = worker.compute(id, || ctx.app.compute(id, &view));
        shard.busy_ns += ns;
        shard.finish(li, value);
        worker.finished(shard.slot, id, shard.value(li));
        k += 1;
        if k == span || shard.finished(li + 1) {
            break;
        }
        ids[..n].iter_mut().for_each(|d| d.j += 1);
        worker.popped(li + 1);
    }
    if let ReadyList::Cursor(cursor) = &mut shard.ready {
        debug_assert_eq!(cursor.next, li, "a cursor runs the cell it holds");
        cursor.pass(k);
    }
    u64::from(k)
}

/// Executes one ready vertex of the shard: gather → (maybe ship) →
/// compute → publish.
fn execute<A: DpApp>(
    worker: &mut Worker<'_, A>,
    shard: &mut Shard<A::Value>,
    li: u32,
    bufs: &mut WorkerBufs,
) {
    let shared = worker.shared;
    let ctx = &shared.ctx;
    debug_assert!(shard.is_vertex(li));
    if shard.finished(li) {
        return;
    }
    let (i, j) = shard.points.get(li);
    let id = VertexId::new(i, j);

    if ctx.agg.is_some() {
        execute_ranged(worker, shard, li, id, bufs);
        return;
    }

    let Some((target, values)) = prepare(ctx, shard, worker, li, id, bufs) else {
        return; // parked awaiting pulls
    };

    let me = worker.me;
    if target != me && shared.liveness.is_alive(target) {
        let msg = Msg::Exec {
            id,
            dep_ids: bufs.deps.clone(),
            dep_values: values.into_owned(),
        };
        worker.send(me, target, msg);
        return;
    }
    let view = values.view(&bufs.deps);
    let (value, ns) = worker.compute(id, || ctx.app.compute(id, &view));
    shard.busy_ns += ns;
    publish(ctx, shard, worker, li, id, value, bufs);
}

/// The nested-dataflow execute path: point dependencies gather like any
/// classic edge, while interval dependencies are answered by the place's
/// prefix lanes in O(1).
///
/// By the indegree-zero guarantee, every interval cell's value has
/// already been delivered to this place (local publish or `Done`) and
/// folded into the lanes — *except* cells prefinished in an earlier
/// epoch whose values live on another place (the socket engine's
/// meta-only restores). Those show up in `interval_missing`,
/// ride the classic park-and-pull machinery alongside the point deps,
/// and are folded when the `PullVal` replies land, after which the
/// re-readied vertex finds its lanes complete.
///
/// Always computes on the owner: the lanes are place-resident state, so
/// the remote-execution schedules (`Random`/`MinComm`) and their
/// `Msg::Exec` shipping don't apply here.
fn execute_ranged<A: DpApp>(
    worker: &mut Worker<'_, A>,
    shard: &mut Shard<A::Value>,
    li: u32,
    id: VertexId,
    bufs: &mut WorkerBufs,
) {
    let shared = worker.shared;
    let ctx = &shared.ctx;
    let range = ctx
        .pattern
        .as_range()
        .expect("agg mode implies an interval view");
    // Out of the shard while its gathered values borrow the rest of it;
    // gathering never touches the lanes.
    let mut table = shard.aggs.take().expect("agg mode implies lanes");

    bufs.deps.clear();
    range.point_deps(id.i, id.j, &mut bufs.deps);
    let n_points = bufs.deps.len();
    let mut ivs: Vec<DepInterval> = Vec::with_capacity(2);
    range.dep_intervals(id.i, id.j, &mut ivs);
    for &iv in &ivs {
        table.interval_missing(iv, &mut bufs.deps);
    }

    let value = match gather(ctx, shard, worker, li, &bufs.deps) {
        Some(values) => {
            // Fold everything gathered: the lane-gap cells need it, the
            // point cells are harmless thanks to per-cell idempotence.
            for (d, v) in values.view(&bufs.deps).iter() {
                table.record(d, |axis| ctx.app.agg_key(axis, d, v));
            }
            let view = values.view(&bufs.deps[..n_points]);
            debug_assert!(
                ivs.iter().all(|iv| table.interval_prefix(*iv).is_some()),
                "lanes incomplete at zero indegree for {id}"
            );
            let aggs = AggView::new(&table);
            Some(worker.compute(id, || ctx.app.compute_ranged(id, &view, &aggs)))
        }
        None => None, // parked awaiting pulls (points and/or lane gaps)
    };
    shard.aggs = Some(table);
    if let Some((value, ns)) = value {
        shard.busy_ns += ns;
        publish(ctx, shard, worker, li, id, value, bufs);
    }
}

//! The epoch loop: paper §VI-A's execution overview (distribute, seed
//! the ready lists, run workers until every vertex is finished) wrapped
//! in §VI-D's recovery rule (keep the surviving finished cells,
//! redistribute over the survivors, recompute the rest).
//!
//! The steps are plain functions — [`preflight`], [`Run::begin`],
//! [`Run::recover`], [`Run::finish`] — which the simulator calls from
//! its own event loop. The real-time engines share the loop too,
//! `drive`: the threaded engine, a socket place and a served job are
//! its hosts (DESIGN.md §5 has the table), and it starts every host's
//! workers the same way — per hosted slot, one owner thread that builds
//! and runs the slot's shard, joined when the epoch ends. An in-process
//! host may also plan membership [`Boundaries`]: a join, a drain or a
//! kill that ends its epoch, after which the next one redistributes over
//! the new roster.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dpx10_apgas::{
    ChaosRng, CoalesceConfig, CoalescingTransport, ElasticEvent, ElasticPlan, ElasticVerb,
    KillTrigger, LivenessBoard, PlaceId, StatsBoard, StatsSnapshot, Transport,
};
use dpx10_dag::{validate_pattern, DagPattern, VertexId};
use dpx10_distarray::{Dist, DistArray, RecoveryCostModel, Region2D};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

use crate::app::{DagResult, DpApp};
use crate::checkpoint::CheckpointWriters;
use crate::config::{EngineConfig, InitOverride};
use crate::elastic::ElasticReport;
use crate::engine::{worker_loop, Shared, Trigger};
use crate::error::EngineError;
use crate::msg::Msg;
use crate::protocol::Ctx;
use crate::state::{Progress, Shard, Start};
use crate::stats::RunReport;

/// How often a coordinator judges the epoch: kills, liveness, completion.
pub(crate) const TICK: Duration = Duration::from_millis(2);

/// Whether [`validate`] checks patterns: in debug builds only.
const VALIDATE: bool = cfg!(debug_assertions);

/// The largest pattern, in vertices, that [`validate`] checks
/// (validation enumerates every edge).
const VALIDATE_LIMIT: u64 = 10_000;

/// Validates `pattern` in a debug build when the DAG is at most
/// `VALIDATE_LIMIT` (10,000) vertices.
pub fn validate(pattern: &dyn DagPattern) -> Result<(), EngineError> {
    if VALIDATE && pattern.vertex_count() <= VALIDATE_LIMIT {
        validate_pattern(pattern)?;
    }
    Ok(())
}

/// Rejects a planned kill of place 0 (Resilient X10's documented limit)
/// or of a place outside `0..places`.
pub fn killable(
    places: u16,
    victims: impl IntoIterator<Item = PlaceId>,
) -> Result<(), EngineError> {
    for victim in victims {
        if victim == PlaceId::ZERO || victim.index() >= places as usize {
            return Err(EngineError::BadFaultPlan(format!(
                "{victim} is not a killable place"
            )));
        }
    }
    Ok(())
}

/// Every kill `cfg` plans: the single fault plan plus the chaos plan's.
fn planned_kills(cfg: &EngineConfig) -> Vec<(PlaceId, KillTrigger)> {
    let fault = cfg.fault.iter();
    let fault = fault.map(|p| (p.place, KillTrigger::Progress(p.after_fraction)));
    let chaos = cfg.chaos.iter().flat_map(|p| &p.kills);
    fault.chain(chaos.map(|k| (k.place, k.trigger))).collect()
}

/// Every engine's pre-flight: a valid pattern and killable victims.
pub fn preflight(cfg: &EngineConfig, pattern: &dyn DagPattern) -> Result<(), EngineError> {
    validate(pattern)?;
    let victims = planned_kills(cfg).into_iter().map(|(p, _)| p);
    killable(cfg.topology.num_places(), victims)
}

/// The finished count at which a kill or a membership verb planned after
/// `frac` of the DAG fires: at least one vertex, at most all of them.
pub fn kill_threshold(frac: f64, total: u64) -> u64 {
    ((frac * total as f64).ceil() as u64).clamp(1, total)
}

/// What a `Resume` hands a socket place: the finished `(packed id,
/// value)` cells of its own slot, and every finished id.
pub type Scatter<V> = (Vec<(u64, V)>, Vec<u64>);

/// What a run carries from epoch to epoch, and the steps that advance
/// it; workers, clock and traces are the caller's.
pub struct Run<'a, A: DpApp> {
    app: &'a Arc<A>,
    pattern: &'a Arc<dyn DagPattern>,
    cfg: &'a EngineConfig,
    init: Option<&'a InitOverride<A::Value>>,
    started: Instant,
    /// The report so far.
    pub report: RunReport,
    /// The participants of the next epoch, in slot order: deaths and
    /// drains remove places, joins append them.
    pub alive: Vec<PlaceId>,
    /// The recovered array the next epoch starts from.
    pub prior: Option<DistArray<A::Value>>,
}

impl<'a, A: DpApp> Run<'a, A> {
    /// A run on `participants`; its wall clock starts here.
    pub fn new(
        app: &'a Arc<A>,
        pattern: &'a Arc<dyn DagPattern>,
        cfg: &'a EngineConfig,
        init: Option<&'a InitOverride<A::Value>>,
        participants: Vec<PlaceId>,
    ) -> Self {
        let report = RunReport {
            vertices_total: pattern.vertex_count(),
            ..RunReport::default()
        };
        Run {
            app,
            pattern,
            cfg,
            init,
            started: Instant::now(),
            report,
            alive: participants,
            prior: None,
        }
    }

    /// Begins the next epoch: distributes the region over the survivors
    /// and says what their shards start from — the recovered `prior`
    /// (taken from the run), the init override, or (on a socket place,
    /// which holds its own slot's values only) a `Resume`. Returns the
    /// protocol context, the shards' [`Start`], and how many cells start
    /// finished: at `report.vertices_total`, the start already holds the
    /// result ([`Start::into_array`] of no shards). Its shards pop FIFO;
    /// the real hosts turn [`Start::cursors`] on.
    pub fn begin(
        &mut self,
        scatter: Option<Scatter<A::Value>>,
        stats: &StatsBoard,
    ) -> (Ctx<A>, Start<A::Value>, u64) {
        self.report.epochs += 1;
        let (cfg, pattern) = (self.cfg, self.pattern.as_ref());
        let region = Region2D::new(pattern.height(), pattern.width());
        let dist = Arc::new(Dist::new(region, cfg.dist_kind.clone(), self.alive.clone()));
        let mut meta: Option<HashSet<u64>> = None;
        if let Some((cells, ids)) = scatter {
            // Cells whose values went to another survivor still unblock
            // their dependents here; the owner serves the value.
            let mut arr = DistArray::new(dist.clone());
            for (packed, v) in cells {
                let id = VertexId::unpack(packed);
                arr.set(id.i, id.j, v);
            }
            self.prior = Some(arr);
            meta = Some(ids.into_iter().collect());
        }
        // Lanes need the knob on, an app with a spec and a pattern with
        // an interval view; anything else takes the enumerated path.
        let ranged = cfg.aggregation && pattern.as_range().is_some();
        let agg = self.app.agg_spec().filter(|_| ranged);
        let start = Start {
            prior: self.prior.take(),
            meta,
            init: self.init.cloned(),
            cache_capacity: cfg.cache_capacity,
            cursors: false,
        };
        let prefinished = start.prefinished(pattern);
        let ctx = Ctx {
            app: self.app.clone(),
            pattern: self.pattern.clone(),
            dist,
            stats: stats.clone(),
            topo: cfg.topology,
            net: cfg.network,
            schedule: cfg.schedule,
            comms: cfg.comms,
            agg,
        };
        (ctx, start, prefinished)
    }

    /// The paper's recovery over the abandoned epoch's `snapshot`: books
    /// the pass, prunes `dead` from the roster, leaves the restored array
    /// as the next `prior`. Returns the pass's modelled duration.
    pub fn recover(
        &mut self,
        snapshot: &DistArray<A::Value>,
        dead: &[PlaceId],
        costs: &RecoveryCostModel,
    ) -> Duration {
        let cfg = self.cfg;
        let (restored, rec) = dpx10_distarray::recover(
            snapshot,
            dead,
            cfg.restore_manner,
            &cfg.topology,
            &cfg.network,
            costs,
        );
        self.report.recovery_time += rec.sim_time;
        self.report.recoveries.push(rec);
        self.prior = Some(restored);
        self.alive.retain(|p| !dead.contains(p));
        rec.sim_time
    }

    /// Completes the report and hands the result to `appFinished`.
    pub fn finish(
        mut self,
        array: DistArray<A::Value>,
        comm: StatsSnapshot,
        place_busy: Vec<Duration>,
    ) -> DagResult<A::Value> {
        self.report.wall_time = self.started.elapsed();
        self.report.comm = comm;
        self.report.place_busy = place_busy;
        let result = DagResult::new(array, self.report);
        self.app.app_finished(&result);
        result
    }
}

/// An epoch's worker threads (paper §VI-A's `finish { at (p) async
/// worker }`); dropping it ends the epoch for them and joins them.
pub(crate) struct Workers<A: DpApp> {
    shared: Arc<Shared<A>>,
    /// Each hosted slot's owner, which hands its shard back.
    owners: Vec<JoinHandle<Shard<A::Value>>>,
    /// The hosted slots' shards, in slot order, once [`Workers::stop`]
    /// has joined their owners (a panicked owner's is missing).
    pub(crate) shards: Vec<Shard<A::Value>>,
}

impl<A: DpApp> Workers<A> {
    /// Starts each of `hosted`'s slots: one owner thread, which builds
    /// the slot's shard and runs it. The owner of the slot at
    /// `hosted_index` records onto track `track_base + hosted_index`,
    /// whatever order the threads start in.
    fn start(shared: &Arc<Shared<A>>, hosted: std::ops::Range<usize>) -> Result<Self, EngineError>
    where
        A: 'static,
    {
        let mut workers = Workers {
            shared: shared.clone(),
            owners: Vec::new(),
            shards: Vec::new(),
        };
        for (h, slot) in hosted.enumerate() {
            let wid = (shared.track_base + h as u64) as u16;
            workers.owners.push(spawn(shared, slot, wid)?);
        }
        Ok(workers)
    }

    /// Ends the epoch for the workers and waits until none touches it
    /// any more, keeping the shards the owners hand back. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.shared.done.store(true, Ordering::Release);
        for owner in self.owners.drain(..) {
            // A panic is already on `shared.panicked`.
            self.shards.extend(owner.join().ok());
        }
    }
}

impl<A: DpApp> Drop for Workers<A> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns the owner of `slot`, on track `wid`, over the epoch's `shared`.
fn spawn<A: DpApp + 'static>(
    shared: &Arc<Shared<A>>,
    slot: usize,
    wid: u16,
) -> Result<JoinHandle<Shard<A::Value>>, EngineError> {
    let (sh, place) = (shared.clone(), shared.ctx.dist.places()[slot]);
    std::thread::Builder::new()
        .name(format!("dpx10-p{}w0", place.index()))
        .spawn(move || {
            // A `compute()` that unwinds takes its thread with it; the
            // coordinator must hear of it.
            let _flag = PanicFlag(&sh.panicked, place);
            worker_loop(&sh, slot, wid)
        })
        .map_err(|e| EngineError::Io(format!("spawn worker: {e}")))
}

/// Names the place of a worker thread that unwinds.
struct PanicFlag<'a>(&'a OnceLock<PlaceId>, PlaceId);

impl Drop for PanicFlag<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.set(self.1);
        }
    }
}

/// How an epoch ended on one host.
pub(crate) enum Flow<V> {
    /// Coordinator: every vertex finished.
    Finished,
    /// Coordinator: a place died (or a planned kill fired); recover.
    Fault,
    /// Coordinator: a planned membership boundary fired.
    Boundary,
    /// Follower: released by the coordinator, or crashed by a kill.
    Exit,
    /// Follower: enter the next epoch on these survivors (in slot
    /// order) from this scatter.
    Resume(Vec<PlaceId>, Scatter<V>),
}

/// What the loop asks of a host whose other participants run in other
/// processes — the one seam to a mesh.
pub(crate) trait Mesh<A: DpApp> {
    /// Follower: runs `epoch`, reporting to and obeying the coordinator;
    /// stops `workers` before it reports what the epoch computed.
    fn follow(
        &mut self,
        shared: &Arc<Shared<A>>,
        workers: &mut Workers<A>,
        epoch: u32,
        busy_before: u64,
    ) -> Result<Flow<A::Value>, EngineError>;
    /// Coordinator: waits one [`TICK`], folding the finished counts the
    /// other places report into `table` (one entry per slot).
    fn progress(&mut self, epoch: u32, alive: &[PlaceId], table: &mut [u64]);
    /// Coordinator: announces how `epoch` ended (finished, or aborted
    /// over the dead) and gathers every other survivor's finished cells
    /// into `arr`, computed count into `computed` and cumulative compute
    /// time into `busy` (by place). Returns who never answered.
    fn conclude(
        &mut self,
        epoch: u32,
        alive: &[PlaceId],
        aborted: Option<&[PlaceId]>,
        arr: &mut DistArray<A::Value>,
        computed: &mut u64,
        busy: &mut [u64],
    ) -> Vec<PlaceId>;
    /// Coordinator: starts `epoch` on the survivors from `restored`.
    fn resume(&mut self, epoch: u32, alive: &[PlaceId], restored: &DistArray<A::Value>);
    /// The run's communication counters, every place's.
    fn comm(&self) -> StatsSnapshot;
}

/// The process an epoch loop runs in.
pub(crate) struct Host<'a, A: DpApp> {
    /// The place this process acts as; place 0 coordinates.
    pub me: PlaceId,
    pub liveness: LivenessBoard,
    pub stats: StatsBoard,
    pub recorder: Recorder,
    /// An epoch's transport, before the loop adds coalescing.
    pub transport: &'a mut dyn FnMut(u32) -> Arc<dyn Transport<Msg<A::Value>>>,
    /// The first trace track (and worker id) of an epoch's workers: a
    /// served job's base keeps its workers off every other job's tracks.
    pub track_base: u64,
    /// Delivers a planned kill to its victim.
    pub kill: &'a dyn Fn(PlaceId),
    /// Spill-to-disk writers (one process must own every place's file).
    pub checkpoint: Option<Arc<CheckpointWriters<A::Value>>>,
    /// `None`: every participant's workers run here; else only `me`'s.
    pub mesh: Option<&'a mut dyn Mesh<A>>,
    /// Planned membership changes: the elastic engine's, in process.
    pub boundaries: Option<&'a mut Boundaries>,
}

/// The planned membership changes of an in-process run and what they
/// did. Each verb is a threshold on the finished count, armed like an
/// exact progress kill; the first to fire ends the epoch, and every verb
/// due by then is applied, in plan order, before the next epoch
/// redistributes over the new roster.
pub(crate) struct Boundaries {
    /// `(finished-count threshold, verb)` still to apply, ascending.
    plan: Vec<(u64, ElasticVerb)>,
    /// What the boundaries did; `next_place` is the next joiner's id.
    pub log: ElasticReport,
}

impl Boundaries {
    /// The boundaries `plan` sets in a DAG of `total` cells, for a run
    /// that starts on `members` (ascending from place 0).
    pub fn new(plan: &ElasticPlan, total: u64, members: &[PlaceId]) -> Self {
        let at = |e: &ElasticEvent| kill_threshold(e.at, total);
        let mut due: Vec<_> = plan.events.iter().map(|e| (at(e), e.verb)).collect();
        due.sort_by_key(|&(at, _)| at);
        let log = ElasticReport {
            total,
            next_place: members.last().map_or(1, |p| p.0 + 1),
            mesh_sizes: vec![(0, members.len() as u16)],
            final_members: members.iter().map(|p| p.0).collect(),
            ..ElasticReport::default()
        };
        Boundaries { plan: due, log }
    }

    /// How many verbs are due once `finished` cells are done.
    fn due(&self, finished: u64) -> usize {
        self.plan
            .iter()
            .take_while(|&&(at, _)| at <= finished)
            .count()
    }

    /// Applies the verbs due at `finished` to the next epoch's roster
    /// (`run.alive`) and prior (`run.prior`, everything finished so far):
    /// a joiner takes the next fresh id below the topology's place count,
    /// a drainer leaves its finished cells behind, a kill loses only the
    /// victim's. A verb naming a non-member, place 0 or the last other
    /// member is a no-op. Returns the `(kind, place)` spans the boundary
    /// stamps.
    fn apply<A: DpApp>(&mut self, run: &mut Run<'_, A>, finished: u64) -> Vec<(EventKind, u16)> {
        let removable =
            |alive: &[PlaceId], p| p != PlaceId::ZERO && alive.len() > 2 && alive.contains(&p);
        let capacity = run.cfg.topology.num_places();
        let due = self.due(finished);
        let (log, mut spans) = (&mut self.log, Vec::new());
        log.boundaries += 1;
        for (_, verb) in self.plan.drain(..due) {
            match verb {
                ElasticVerb::Join if log.next_place < capacity => {
                    run.alive.push(PlaceId(log.next_place));
                    spans.push((EventKind::Join, log.next_place));
                    log.next_place += 1;
                    log.joins += 1;
                }
                ElasticVerb::Drain { place } if removable(&run.alive, place) => {
                    let prior = run.prior.as_ref().expect("a boundary keeps what finished");
                    let slot = prior.dist().places().iter().position(|&q| q == place);
                    let cells = slot.map_or(0, |s| prior.iter_slot(s).filter(|c| c.3).count());
                    log.cells_moved += cells as u64;
                    run.alive.retain(|&q| q != place);
                    spans.push((EventKind::Drain, place.0));
                    log.drains += 1;
                }
                ElasticVerb::Kill { place } if removable(&run.alive, place) => {
                    let prior = run.prior.take().expect("a boundary keeps what finished");
                    run.recover(&prior, &[place], &RecoveryCostModel::default());
                    log.kills += 1;
                }
                _ => continue,
            }
            log.mesh_sizes.push((finished, run.alive.len() as u16));
        }
        log.final_members = run.alive.iter().map(|p| p.0).collect();
        spans
    }
}

/// Runs `run` to completion on `host`. `Ok(Some(result))` on the
/// coordinator, `Ok(None)` on every other place.
pub(crate) fn drive<A: DpApp + 'static>(
    mut run: Run<'_, A>,
    mut host: Host<'_, A>,
) -> Result<Option<DagResult<A::Value>>, EngineError> {
    let (cfg, total, me) = (run.cfg, run.report.vertices_total, host.me);
    let (recorder, liveness) = (host.recorder.clone(), host.liveness.clone());
    // On a mesh no place sees the global finished count: the coordinator
    // polls every kill. Alone, progress kills are armed in
    // `Shared::triggers` and fire exactly. A kill sits on one side only.
    let mut polled = planned_kills(cfg);
    let mut exact: Vec<(PlaceId, u64)> = Vec::new();
    if host.mesh.is_none() {
        polled.retain(|&(victim, trigger)| match trigger {
            KillTrigger::Progress(frac) => {
                exact.push((victim, kill_threshold(frac, total)));
                false
            }
            KillTrigger::After(_) => true,
        });
    }
    // The shaker seed: per process, so places don't mirror each other.
    let shake = cfg.chaos.as_ref().filter(|p| p.shake).map(|p| p.seed);
    let shake = shake.map(|seed| match host.mesh {
        Some(_) => ChaosRng::new(seed).fork(u64::from(me.0)).next_u64(),
        None => seed,
    });
    // Compute time by place, across epochs (shards are rebuilt each).
    let mut busy = vec![0u64; liveness.num_places() as usize];
    let mut scatter = None;
    let mut epoch: u32 = 0;
    // The last planned boundary: when its epoch ended, and its spans.
    let (mut stopped_ns, mut stopped): (u64, Vec<(EventKind, u16)>) = (0, Vec::new());

    let final_array = loop {
        let Some(my_slot) = run.alive.iter().position(|p| *p == me) else {
            // The coordinator wrote us off (a false-positive timeout).
            return Ok(None);
        };
        let (ctx, mut start, prefinished) = run.begin(scatter.take(), &host.stats);
        start.cursors = true; // the owner threads run cursors
        let started_ns = recorder.now_ns();
        recorder.instant(
            me.0,
            RUNTIME_WORKER,
            EventKind::EpochStart,
            started_ns,
            epoch.into(),
        );
        // A planned boundary stops the world until the next epoch starts.
        for (kind, place) in stopped.drain(..) {
            recorder.span(
                me.0,
                RUNTIME_WORKER,
                kind,
                stopped_ns,
                started_ns,
                place.into(),
            );
        }
        if prefinished == total {
            if me != PlaceId::ZERO {
                // A scattered prior may leave finished flags without
                // values; only the coordinator holds the full array.
                return Ok(None);
            }
            break start.into_array(&ctx, Vec::new());
        }

        let mut transport = (host.transport)(epoch);
        if let Some(bytes) = cfg.coalesce {
            // Fresh each epoch (an abandoned epoch's buffers die with
            // it) and outermost (batches still face injected delay/dup).
            transport = Arc::new(CoalescingTransport::new(
                transport,
                CoalesceConfig::bytes(bytes),
                host.stats.clone(),
                recorder.clone(),
            ));
        }
        // Only the next boundary is armed: any one ends the epoch.
        let boundary = host.boundaries.as_ref().and_then(|b| b.plan.first());
        let boundary = boundary.map(|&(threshold, _)| Trigger::new(threshold, None));
        let shared = Arc::new(Shared {
            progress: (0..ctx.dist.num_slots())
                .map(|_| Progress::default())
                .collect(),
            ctx,
            start,
            transport,
            // Another process's bytes are checked before indexing.
            check_peers: host.mesh.is_some(),
            liveness: liveness.clone(),
            total,
            finished_global: AtomicU64::new(prefinished),
            done: AtomicBool::new(false),
            fault: AtomicBool::new(false),
            triggers: exact
                .iter()
                .filter(|(victim, _)| liveness.is_alive(*victim))
                .map(|&(victim, threshold)| Trigger::new(threshold, Some(victim)))
                .chain(boundary)
                .collect(),
            shake,
            track_base: host.track_base,
            panicked: OnceLock::new(),
            coordinator: std::thread::current(),
            checkpoint: host.checkpoint.clone(),
            recorder: recorder.clone(),
        });
        let hosted = match host.mesh {
            Some(_) => my_slot..my_slot + 1,
            None => 0..run.alive.len(),
        };
        let mut workers = Workers::start(&shared, hosted.clone())?;

        let outcome = if me == PlaceId::ZERO {
            let clock = (run.started, cfg.stall_limit);
            coordinate(&shared, &mut host, epoch, &hosted, clock, &mut polled)
        } else {
            let mesh = host.mesh.as_mut().expect("only a mesh has followers");
            mesh.follow(&shared, &mut workers, epoch, busy[me.index()])
        };
        let ended_ns = shared.boundary_fired().unwrap_or_else(|| recorder.now_ns());
        workers.stop(); // the epoch is over: stop and join them
        shared.check_panic()?;
        let shards = std::mem::take(&mut workers.shards);
        drop(workers);
        let computed = &mut run.report.vertices_computed;
        for shard in &shards {
            *computed += shard.computed();
            busy[run.alive[shard.slot].index()] += shard.busy_ns;
        }

        let (finished, mut dead) = match outcome? {
            Flow::Finished => (true, Vec::new()),
            Flow::Boundary => (false, Vec::new()),
            Flow::Fault => {
                let dead = run.alive.iter().copied().filter(|p| !liveness.is_alive(*p));
                (false, dead.collect())
            }
            Flow::Exit => return Ok(None),
            Flow::Resume(alive, restored) => {
                run.alive = alive;
                run.prior = None; // rebuilt from the scatter by `begin`
                scatter = Some(restored);
                epoch += 1;
                continue;
            }
        };
        // The workers are joined: the shards are ours to move out of.
        let Ok(Shared { ctx, start, .. }) = Arc::try_unwrap(shared) else {
            unreachable!("an epoch's state outlived its workers");
        };
        let mut arr = start.into_array(&ctx, shards);
        if let Some(mesh) = &mut host.mesh {
            let aborted = (!finished).then_some(dead.as_slice());
            dead.extend(mesh.conclude(epoch, &run.alive, aborted, &mut arr, computed, &mut busy));
            dead.sort_unstable();
            dead.dedup();
        }
        // Boundaries due by now apply even if the epoch ran to the end.
        let at = match &host.boundaries {
            Some(b) => Some(arr.finished_count()).filter(|&at| b.due(at) > 0),
            None => None,
        };
        if finished && dead.is_empty() && at.is_none() {
            break arr;
        }
        if at.is_some() && dead.is_empty() {
            run.prior = Some(arr); // a planned boundary keeps every cell
        } else {
            // Places died, mid-epoch or before handing their share over.
            let rec_start = recorder.now_ns();
            run.recover(&arr, &dead, &RecoveryCostModel::default());
            let rec_end = recorder.now_ns();
            recorder.span(
                me.0,
                RUNTIME_WORKER,
                EventKind::Recovery,
                rec_start,
                rec_end,
                epoch.into(),
            );
        }
        if let (Some(b), Some(at)) = (&mut host.boundaries, at) {
            stopped = b.apply(&mut run, at);
            stopped_ns = ended_ns;
        }
        epoch += 1;
        if let (Some(mesh), Some(restored)) = (&mut host.mesh, &run.prior) {
            mesh.resume(epoch, &run.alive, restored);
        }
    };

    let comm = match &host.mesh {
        Some(mesh) => mesh.comm(),
        None => host.stats.snapshot(),
    };
    // In the final epoch's slot order (matching the simulator).
    let busy = run.alive.iter().map(|p| busy[p.index()]);
    let place_busy = busy.map(Duration::from_nanos).collect();
    Ok(Some(run.finish(final_array, comm, place_busy)))
}

/// The coordinator's mid-epoch loop: sum the finished table, fire due
/// kills, decide the epoch's fate — *before* the first wait, so a run
/// shorter than a tick pays none.
fn coordinate<A: DpApp>(
    shared: &Shared<A>,
    host: &mut Host<'_, A>,
    epoch: u32,
    hosted: &std::ops::Range<usize>,
    (started, stall_limit): (Instant, Duration),
    polled: &mut Vec<(PlaceId, KillTrigger)>,
) -> Result<Flow<A::Value>, EngineError> {
    let (total, me) = (shared.total, host.me);
    let alive = shared.ctx.dist.places();
    let stamp = |kind, arg: u64| shared.recorder.instant_now(me.0, RUNTIME_WORKER, kind, arg);
    // Hosted slots are re-read every tick; another process's count is
    // what it last reported.
    let finished_local = |s: usize| shared.progress[s].0.load(Ordering::Relaxed);
    let mut table: Vec<u64> = vec![0; alive.len()];
    let mut last_sum = u64::MAX;
    let mut last_change = Instant::now();
    loop {
        for s in hosted.clone() {
            table[s] = finished_local(s);
        }
        let sum: u64 = table.iter().sum();

        // A due kill leaves the plan: each fires at most once a run.
        polled.retain(|&(victim, trigger)| {
            let due = match trigger {
                KillTrigger::Progress(frac) => sum >= kill_threshold(frac, total),
                // Fires even while no vertex is finishing.
                KillTrigger::After(delay) => started.elapsed() >= delay,
            };
            if due && shared.liveness.is_alive(victim) {
                stamp(EventKind::CtlDie, u64::from(victim.0));
                (host.kill)(victim);
            }
            !due
        });

        // Completion outranks a simultaneous death: a place that cannot
        // hand its share over is caught when the epoch is concluded.
        if sum >= total {
            shared.done.store(true, Ordering::Release);
            stamp(EventKind::CtlStop, u64::from(epoch));
            return Ok(Flow::Finished);
        }
        shared.check_panic()?;
        let someone_died = alive.iter().any(|p| !shared.liveness.is_alive(*p));
        if someone_died || shared.fault.load(Ordering::Acquire) {
            shared.fault.store(true, Ordering::Release);
            stamp(EventKind::Fault, u64::from(epoch));
            return Ok(Flow::Fault);
        }
        if shared.boundary_fired().is_some() {
            stamp(EventKind::CtlStop, u64::from(epoch));
            return Ok(Flow::Boundary);
        }
        if sum != last_sum {
            last_sum = sum;
            last_change = Instant::now();
        } else if last_change.elapsed() > stall_limit {
            // A broken custom pattern or an engine bug: don't hang.
            stamp(EventKind::Stalled, sum);
            shared.done.store(true, Ordering::Release); // unblock workers
            return Err(EngineError::Stalled {
                finished: sum,
                total,
            });
        }
        match &mut host.mesh {
            Some(mesh) => mesh.progress(epoch, alive, &mut table),
            // A boundary wakes us early: the world waits on this poll.
            None => std::thread::park_timeout(TICK),
        }
    }
}

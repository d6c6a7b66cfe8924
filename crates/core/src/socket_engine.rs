//! The multi-process socket engine.
//!
//! Runs the same vertex-execution protocol as [`crate::ThreadedEngine`],
//! but with one OS process per place connected by the TCP mesh of
//! [`dpx10_apgas::socket`] — the closest this reproduction gets to the
//! paper's real X10 deployment (§VII ran 2 place processes per node).
//!
//! Every process executes [`SocketEngine::run`] with the same
//! application, pattern and configuration; the mesh handshake assigns
//! place ids. All processes build the full shard table deterministically
//! (cheap: it is metadata plus prefinished values), then each place runs
//! workers only for its own slot and exchanges [`Msg`]s over the wire.
//!
//! The epoch loop is [`crate::epoch`]'s, shared with the threaded
//! engine; a place's *mesh side* of it — the control protocol below —
//! lives here, in the crate-private `Driver`. [`SocketEngine::run`]
//! instantiates it once per process; the multi-job server
//! ([`crate::jobs`]) once per job. The two differ in three inputs only,
//! all data: the participant list that seeds the epoch roster (the
//! mesh's members vs the job's placement), the frame namespace
//! ([`AppPlane`]'s optional job id, which wraps data and control frames
//! alike in [`Wire::Job`]), and the trace track its workers count up
//! from (0 vs a per-job base).
//!
//! # The control protocol
//!
//! Vertex traffic alone cannot terminate a distributed run — no process
//! sees the global finished counter — so a thin coordination layer rides
//! on the same connections, multiplexed by [`Wire`] and tagged with an
//! *epoch* (recovery round) so stragglers from a failed epoch are
//! discarded:
//!
//! * workers fold their slot's finished count with everything their
//!   subtree reported and stream it up the binomial tree as a `Reduce`
//!   (the epoch barrier — per-place entries are max-merged, so arrival
//!   order, re-sends and re-routed hops cannot corrupt the table);
//! * place 0 declares success when the counts sum to the DAG size,
//!   tree-broadcasts `Stop` (each receiver relays to its schedule
//!   children), gathers a `Snapshot` of every slot's values, and
//!   releases everyone with `Done`;
//! * a detected failure (connection loss / missed heartbeats feeding the
//!   shared liveness board, or a planned `Die`, which the victim's demux
//!   thread obeys by crashing without a goodbye) makes place 0 tree-
//!   broadcast `Abort`, gather the survivors' snapshots, run the paper's
//!   recovery (§VI-D), and restart everyone with a `Resume` *scatter* —
//!   each tree hop carries the restored values of the receiver's
//!   subtree plus the packed ids of every finished cell (the metadata
//!   that unblocks cross-subtree dependencies without shipping every
//!   value to every place) — a fresh epoch.
//!
//! The tree edges come from [`CollectiveSchedule`] over the epoch's
//! live roster; a hop whose carrier died is repaired by adopting the
//! dead child's subtree, and place 0 re-sends the bare frame directly
//! to any peer it has not heard from (insurance against a relay dying
//! *after* accepting a hop). `Snapshot` stays a direct gather on
//! purpose: it is the payload-heavy, loss-sensitive leg, and folding
//! values through intermediate places would multiply the recovery work
//! whenever a mid-tree place dies after absorbing its children's cells.
//!
//! Communication statistics on this backend are the bytes *actually
//! framed* onto the sockets (vertex and control traffic alike); the
//! [`dpx10_apgas::NetworkModel`] prices nothing here.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_apgas::codec::decode_exact;
use dpx10_apgas::mailbox::Envelope;
use dpx10_apgas::stats::STAT_COUNTERS;
use dpx10_apgas::{
    fold_counts, Codec, CollectiveSchedule, DeadPlaceError, LivenessBoard, PlaceId, SocketConfig,
    SocketNode, StatsSnapshot, Transport,
};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_distarray::{Dist, DistArray, Region2D};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};
use dpx10_sync::channel::{unbounded, Receiver, Sender};

use crate::app::{DagResult, DpApp, VertexValue};
use crate::config::{EngineConfig, InitOverride};
use crate::engine::Shared;
use crate::epoch::{self, preflight, Flow, Host, Mesh, Run, Workers, TICK};
use crate::error::EngineError;
use crate::msg::Msg;
use crate::protocol::Place;
use crate::schedule::ScheduleStrategy;
use crate::state::local_index;
use crate::stats::ScheduleDowngrade;

/// Applies the socket backend's scheduling restrictions to `config` and
/// returns a record of what changed (shared with the multi-job server,
/// whose per-job engines run under the same restriction).
pub(crate) fn downgrade_schedule(config: &mut EngineConfig) -> Option<ScheduleDowngrade> {
    if config.schedule == ScheduleStrategy::WorkStealing {
        config.schedule = ScheduleStrategy::Local;
        return Some(ScheduleDowngrade {
            requested: ScheduleStrategy::WorkStealing,
            effective: ScheduleStrategy::Local,
            reason: "work stealing needs shared-memory ready lists, \
                     which do not exist across socket places",
        });
    }
    None
}

/// How long place 0 waits for a survivor's snapshot before writing the
/// place off as dead (generous: the transport's own heartbeat timeout
/// fires much earlier for real failures).
pub(crate) const SNAPSHOT_DEADLINE: Duration = Duration::from_secs(60);

/// How often a worker place re-sends its progress even when the count has
/// not moved (keeps the coordinator's view fresh without flooding).
const PROGRESS_INTERVAL: Duration = Duration::from_millis(50);

/// How often place 0 re-sends the bare concluding `Stop`/`Abort` frame
/// directly to peers whose snapshot has not arrived — insurance for a
/// broadcast relay dying after accepting its hop (receivers ignore the
/// duplicates).
const CONCLUDE_RESEND: Duration = Duration::from_millis(500);

/// How often place 0 re-sends a `Resume` bundle to a survivor that has
/// not reported any progress in the resumed epoch — insurance for a
/// scatter relay dying with its subtree's hop in hand.
const RESUME_RESEND: Duration = Duration::from_millis(250);

/// Wire tag of [`Wire::Job`], shared by its `Codec` arm and
/// [`AppPlane::send_wire`] (which writes the envelope without boxing).
const JOB_TAG: u8 = 8;

/// Everything that crosses a socket during a run: vertex traffic
/// ([`Wire::App`]) and the control protocol, all epoch-tagged.
///
/// `pub(crate)` because the multi-job server ([`crate::jobs`]) routes
/// and releases with the same frames, namespaced per job by the
/// [`Wire::Job`] wrapper.
pub(crate) enum Wire<V> {
    /// A vertex-protocol message of the given epoch.
    App(u32, Msg<V>),
    /// Place 0 → workers: every vertex is finished; snapshot your slot.
    Stop {
        /// Epoch being concluded.
        epoch: u32,
    },
    /// Place 0 → survivors: these places died; snapshot for recovery.
    Abort {
        /// Epoch being aborted.
        epoch: u32,
        /// The places detected dead.
        dead: Vec<u16>,
    },
    /// Worker → place 0: my slot's finished cells plus local counters.
    Snapshot {
        /// Epoch the snapshot concludes.
        epoch: u32,
        /// `(packed vertex id, value)` for every finished owned cell.
        cells: Vec<(u64, V)>,
        /// Vertices this place computed during the epoch.
        computed: u64,
        /// Cumulative place counters, in
        /// [`dpx10_apgas::PlaceStats::to_counters`] order; a frame with
        /// any other count is malformed.
        stats: [u64; STAT_COUNTERS],
    },
    /// Place 0 → survivors (scattered down the tree): recovery done,
    /// start the next epoch.
    Resume {
        /// The new epoch (old + 1).
        epoch: u32,
        /// Surviving places, in slot order.
        alive: Vec<u16>,
        /// The restored finished cells of the *receiver's subtree* —
        /// each relay splits its bundle among its schedule children by
        /// the new distribution's ownership.
        cells: Vec<(u64, V)>,
        /// Packed ids of *every* restored finished cell — the global
        /// metadata that unblocks dependencies on cells whose values
        /// were scattered to another subtree (pulls still go to the
        /// owner, which holds the value).
        meta: Vec<u64>,
    },
    /// Place 0 → a worker: abort the process immediately (planned fault
    /// injection — dies without a goodbye so peers *detect* the death).
    /// Addresses the place, not a job: only the single-job engine's
    /// coordinator sends it (a serve's planned faults are `ServeKill`s),
    /// and both demuxes obey it themselves.
    Die,
    /// Place 0 → workers: the run is over, exit cleanly. Wrapped in
    /// [`Wire::Job`] it releases one job; bare it ends the run or serve.
    Done,
    /// A frame belonging to one job of a multi-job serve: the `job_id`
    /// namespace joins the epoch already carried by the inner frame.
    /// A serve wraps every data and control frame; the single-job
    /// engine wraps none.
    Job(u32, Box<Wire<V>>),
    /// One hop of a tree broadcast ([`CollectiveSchedule`]): the
    /// receiver handles the inner frame as if it had arrived directly,
    /// then relays the same hop to its own schedule children (adopting
    /// dead children's subtrees — tree repair).
    Bcast(Box<Wire<V>>),
    /// Worker → its tree parent: folded per-place finished counts of
    /// the sender and its whole subtree. Entries are max-merged on
    /// receipt ([`fold_counts`]), so duplicated or re-routed hops are
    /// harmless; any entry for a place proves that place entered the
    /// epoch (counts originate only at their own place).
    Reduce {
        /// Epoch the counts belong to.
        epoch: u32,
        /// `(place id, finished count)` per place of the subtree.
        counts: Vec<(u16, u64)>,
    },
}

impl<V: Codec> Codec for Wire<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Wire::App(epoch, msg) => {
                buf.push(0);
                epoch.encode(buf);
                msg.encode(buf);
            }
            Wire::Stop { epoch } => {
                buf.push(2);
                epoch.encode(buf);
            }
            Wire::Abort { epoch, dead } => {
                buf.push(3);
                epoch.encode(buf);
                dead.encode(buf);
            }
            Wire::Snapshot {
                epoch,
                cells,
                computed,
                stats,
            } => {
                buf.push(4);
                epoch.encode(buf);
                cells.encode(buf);
                computed.encode(buf);
                stats.to_vec().encode(buf);
            }
            Wire::Resume {
                epoch,
                alive,
                cells,
                meta,
            } => {
                buf.push(5);
                epoch.encode(buf);
                alive.encode(buf);
                cells.encode(buf);
                meta.encode(buf);
            }
            Wire::Die => buf.push(6),
            Wire::Done => buf.push(7),
            Wire::Job(job, inner) => {
                buf.push(JOB_TAG);
                job.encode(buf);
                inner.encode(buf);
            }
            Wire::Bcast(inner) => {
                buf.push(9);
                inner.encode(buf);
            }
            Wire::Reduce { epoch, counts } => {
                buf.push(10);
                epoch.encode(buf);
                counts.encode(buf);
            }
        }
    }

    fn decode(src: &mut &[u8]) -> Option<Self> {
        match u8::decode(src)? {
            0 => Some(Wire::App(u32::decode(src)?, Msg::decode(src)?)),
            2 => Some(Wire::Stop {
                epoch: u32::decode(src)?,
            }),
            3 => Some(Wire::Abort {
                epoch: u32::decode(src)?,
                dead: Vec::decode(src)?,
            }),
            4 => Some(Wire::Snapshot {
                epoch: u32::decode(src)?,
                cells: Vec::decode(src)?,
                computed: u64::decode(src)?,
                stats: Vec::decode(src)?.try_into().ok()?,
            }),
            5 => Some(Wire::Resume {
                epoch: u32::decode(src)?,
                alive: Vec::decode(src)?,
                cells: Vec::decode(src)?,
                meta: Vec::decode(src)?,
            }),
            6 => Some(Wire::Die),
            7 => Some(Wire::Done),
            JOB_TAG => Some(Wire::Job(u32::decode(src)?, Box::new(Wire::decode(src)?))),
            9 => Some(Wire::Bcast(Box::new(Wire::decode(src)?))),
            10 => Some(Wire::Reduce {
                epoch: u32::decode(src)?,
                counts: Vec::decode(src)?,
            }),
            _ => None,
        }
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            Wire::App(epoch, msg) => epoch.wire_size() + Codec::wire_size(msg),
            Wire::Stop { epoch } => epoch.wire_size(),
            Wire::Abort { epoch, dead } => epoch.wire_size() + dead.wire_size(),
            Wire::Snapshot {
                epoch,
                cells,
                computed,
                stats,
            } => epoch.wire_size() + cells.wire_size() + computed.wire_size() + 8 + 8 * stats.len(),
            Wire::Resume {
                epoch,
                alive,
                cells,
                meta,
            } => epoch.wire_size() + alive.wire_size() + cells.wire_size() + meta.wire_size(),
            Wire::Die | Wire::Done => 0,
            Wire::Job(job, inner) => job.wire_size() + Codec::wire_size(inner.as_ref()),
            Wire::Bcast(inner) => Codec::wire_size(inner.as_ref()),
            Wire::Reduce { epoch, counts } => epoch.wire_size() + counts.wire_size(),
        }
    }
}

/// The vertex-traffic half of the demultiplexed socket: implements
/// [`Transport`] for the worker loop, filtering out messages from *past*
/// epochs at consumption time (so a message that raced past an epoch
/// change in the demux thread is still discarded). Messages from a
/// *future* epoch are parked, not dropped: after a recovery the places
/// enter the new epoch at different moments, and a fast peer's vertex
/// traffic can arrive while this place is still resuming — discarding it
/// would starve this place's share of the DAG and stall the run.
pub(crate) struct AppPlane<V> {
    node: Arc<SocketNode>,
    epoch: AtomicU32,
    app_rx: Receiver<(u32, Envelope<Msg<V>>)>,
    early: dpx10_sync::Mutex<Vec<(u32, Envelope<Msg<V>>)>>,
    liveness: LivenessBoard,
    /// `Some(job_id)` when this plane carries one job of a multi-job
    /// serve: outbound frames — vertex traffic and control alike — get
    /// wrapped in [`Wire::Job`] so the remote demux can route them to
    /// the right job's channels. `None` is the single-job engine (bare
    /// frames).
    job: Option<u32>,
}

impl<V: VertexValue> AppPlane<V> {
    /// Builds the plane over `node`, consuming the demux's app frames
    /// from `app_rx`. `job` namespaces outbound frames (see the field).
    pub(crate) fn new(
        node: Arc<SocketNode>,
        app_rx: Receiver<(u32, Envelope<Msg<V>>)>,
        job: Option<u32>,
    ) -> Self {
        AppPlane {
            liveness: node.liveness().clone(),
            node,
            epoch: AtomicU32::new(0),
            app_rx,
            early: dpx10_sync::Mutex::new(Vec::new()),
            job,
        }
    }

    /// Advances the plane to `epoch` (done between epochs, with the
    /// workers quiesced).
    fn set_epoch(&self, epoch: u32) {
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Frames `wire` — inside this plane's [`Wire::Job`] envelope when
    /// it carries a served job — and sends it to `dst`. Every outbound
    /// frame of a driver, data or control, goes through here.
    pub(crate) fn send_wire(&self, dst: PlaceId, wire: &Wire<V>) -> Result<(), DeadPlaceError> {
        let mut buf = Vec::with_capacity(5 + Codec::wire_size(wire));
        if let Some(job) = self.job {
            buf.push(JOB_TAG);
            job.encode(&mut buf);
        }
        wire.encode(&mut buf);
        self.node.send_bytes(dst, buf).map(|_| ())
    }

    /// Classifies one demuxed frame against `current`: deliver, park for
    /// a later epoch, or drop as stale.
    fn admit(&self, epoch: u32, env: Envelope<Msg<V>>, current: u32) -> Option<Envelope<Msg<V>>> {
        use std::cmp::Ordering as O;
        match epoch.cmp(&current) {
            O::Equal => Some(env),
            O::Greater => {
                self.early.lock().push((epoch, env));
                None
            }
            O::Less => None, // stale epoch: state was recovered, drop
        }
    }

    /// Pops one parked message of the current epoch, pruning any that
    /// went stale since they were parked.
    fn pop_early(&self, current: u32) -> Option<Envelope<Msg<V>>> {
        let mut early = self.early.lock();
        early.retain(|(e, _)| *e >= current);
        let k = early.iter().position(|(e, _)| *e == current)?;
        Some(early.swap_remove(k).1)
    }
}

impl<V: VertexValue> Transport<Msg<V>> for AppPlane<V> {
    fn num_places(&self) -> u16 {
        self.node.places()
    }

    fn liveness(&self) -> &LivenessBoard {
        &self.liveness
    }

    fn send(
        &self,
        src: PlaceId,
        dst: PlaceId,
        msg: Msg<V>,
        _wire_bytes: usize,
    ) -> Result<(), DeadPlaceError> {
        debug_assert_eq!(src, self.node.me(), "socket places only send as themselves");
        self.send_wire(dst, &Wire::App(self.epoch.load(Ordering::Acquire), msg))
    }

    fn try_recv(&self, _at: PlaceId) -> Option<Envelope<Msg<V>>> {
        let current = self.epoch.load(Ordering::Acquire);
        if let Some(env) = self.pop_early(current) {
            return Some(env);
        }
        loop {
            match self.app_rx.try_recv() {
                Ok((epoch, env)) => {
                    if let Some(env) = self.admit(epoch, env, current) {
                        return Some(env);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    fn recv_timeout(&self, at: PlaceId, timeout: Duration) -> Option<Envelope<Msg<V>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(env) = self.try_recv(at) {
                return Some(env);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Wait for anything to arrive, then re-filter.
            let (epoch, env) = self.app_rx.recv_timeout(deadline - now).ok()?;
            let current = self.epoch.load(Ordering::Acquire);
            if let Some(env) = self.admit(epoch, env, current) {
                return Some(env);
            }
        }
    }
}

/// A planned fault landed on this place: die the way a crashed process
/// dies — no goodbye frame, so the peers must *detect* it. `dying`
/// tells this place's drivers to stop. In soft-die mode only the
/// sockets die (the place is a thread of a test process that must
/// survive).
pub(crate) fn die(node: &SocketNode, dying: &AtomicBool, soft_die: bool, recorder: &Recorder) {
    let me = node.me().0;
    recorder.instant_now(me, RUNTIME_WORKER, EventKind::CtlDie, u64::from(me));
    dying.store(true, Ordering::Release);
    if soft_die {
        node.crash();
    } else {
        std::process::abort();
    }
}

/// Reads raw frames off the mesh and splits them: vertex traffic to the
/// [`AppPlane`]'s channel, control messages to the control channel. A
/// planned `Die` addresses the place rather than the driver and is
/// obeyed here. A payload that fails to decode marks its sender dead
/// (its stream is corrupt) instead of panicking.
fn demux_loop<V: VertexValue>(
    node: Arc<SocketNode>,
    app_tx: Sender<(u32, Envelope<Msg<V>>)>,
    ctl_tx: Sender<(PlaceId, Wire<V>)>,
    stop: Arc<AtomicBool>,
    dying: Arc<AtomicBool>,
    soft_die: bool,
    recorder: Recorder,
) {
    while !stop.load(Ordering::Acquire) {
        let Some((src, bytes)) = node.recv_bytes_timeout(Duration::from_millis(5)) else {
            continue;
        };
        match decode_exact::<Wire<V>>(&bytes) {
            Some(Wire::App(epoch, msg)) => {
                let _ = app_tx.send((epoch, Envelope { src, msg }));
            }
            Some(Wire::Die) => die(&node, &dying, soft_die, &recorder),
            Some(wire) => {
                let _ = ctl_tx.send((src, wire));
            }
            None => {
                node.liveness().mark_dead(src);
            }
        }
    }
}

/// Whether every place id, cell id and count a peer's control frame
/// carries is one this run can index: place ids inside the mesh's slot
/// space, packed cell ids inside the pattern's region, finished counts
/// no larger than the region (so a table of them cannot overflow its
/// sum). Peers control these bytes; the driver's tables must never be
/// indexed by them unchecked.
fn well_formed<V>(wire: &Wire<V>, slots: u16, region: Region2D) -> bool {
    let cell_ok = |packed: u64| {
        let id = VertexId::unpack(packed);
        region.contains(id.i, id.j)
    };
    match wire {
        Wire::Abort { dead, .. } => dead.iter().all(|d| *d < slots),
        Wire::Snapshot { cells, .. } => cells.iter().all(|(c, _)| cell_ok(*c)),
        Wire::Resume {
            alive, cells, meta, ..
        } => {
            // Slot order: ascending, led by the coordinator.
            alive.first() == Some(&0)
                && alive.windows(2).all(|w| w[0] < w[1])
                && alive.last().is_some_and(|p| *p < slots)
                && cells.iter().all(|(c, _)| cell_ok(*c))
                && meta.iter().all(|c| cell_ok(*c))
        }
        Wire::Reduce { counts, .. } => counts.iter().all(|(_, n)| *n <= region.len()),
        Wire::Bcast(inner) => well_formed(inner, slots, region),
        Wire::App(..) | Wire::Stop { .. } | Wire::Die | Wire::Done | Wire::Job(..) => true,
    }
}

/// The data-plane half of [`well_formed`]: whether every cell id a
/// peer's vertex-protocol message carries is one `slot` may act on.
/// Every id must be a vertex of the pattern; `Done`/`PushVal` targets,
/// pulled cells and shipped-back results must be owned here (a foreign
/// id would index another cell of this shard); a pulled cell must be
/// finished; a shipped `Exec` must carry exactly the pattern's
/// dependencies, one value each (the app's `compute` indexes them).
/// Checked per message by the socket places' workers — a frame's epoch
/// decides which distribution it is held against.
pub(crate) fn data_well_formed<A: DpApp>(
    place: &Place<A>,
    slot: usize,
    msg: &Msg<A::Value>,
) -> bool {
    let dist = &place.dist;
    let cell =
        |id: &VertexId| dist.region().contains(id.i, id.j) && place.pattern.contains(id.i, id.j);
    let mine = |id: &VertexId| cell(id) && dist.slot_of(id.i, id.j) == slot;
    let done = |from: &VertexId, targets: &[VertexId]| cell(from) && targets.iter().all(mine);
    let pull = |id: &VertexId| {
        mine(id)
            && place.shards[slot].finished[local_index(dist, *id) as usize].load(Ordering::Acquire)
    };
    match msg {
        Msg::Done { from, targets, .. } | Msg::PushVal { from, targets, .. } => done(from, targets),
        Msg::DoneBatch { entries } | Msg::PushValBatch { entries } => {
            entries.iter().all(|(from, _, targets)| done(from, targets))
        }
        Msg::Pull { id } => pull(id),
        Msg::PullBatch { ids } => ids.iter().all(pull),
        Msg::PullVal { id, .. } => cell(id),
        Msg::PullValBatch { entries } => entries.iter().all(|(id, _)| cell(id)),
        Msg::ExecResult { id, .. } => mine(id),
        Msg::Exec {
            id,
            dep_ids,
            dep_values,
        } => {
            cell(id) && dep_values.len() == dep_ids.len() && {
                let mut deps = Vec::with_capacity(dep_ids.len());
                place.pattern.dependencies(id.i, id.j, &mut deps);
                deps == *dep_ids
            }
        }
        // Ignored by the static engines' handlers.
        Msg::ChunkOffer { .. } | Msg::ChunkData { .. } | Msg::ChunkAck { .. } => true,
    }
}

/// One `Resume` scatter as a place holds it: on place 0 everything
/// needed to rebuild any survivor's bundle if the tree hop carrying it
/// died with a relay (the coordinator re-sends directly to peers it has
/// not heard from in the resumed epoch); on a worker the hop it
/// received, to split among its own schedule children.
pub(crate) struct ResumeState<V> {
    /// The epoch being resumed *into* (old + 1).
    epoch: u32,
    /// Surviving places of the scatter, in slot order.
    alive: Vec<u16>,
    /// Packed ids of every restored finished cell.
    meta: Vec<u64>,
    /// The restored finished cells held here — all of them on place 0,
    /// the receiver's subtree's on a worker (filtered per subtree on
    /// demand: scatters and re-sends are rare).
    cells: Vec<(u64, V)>,
}

/// The multi-process engine. Construct identically in every place
/// process, then call [`run`](SocketEngine::run) with that process's
/// [`SocketConfig`].
pub struct SocketEngine<A: DpApp> {
    app: Arc<A>,
    pattern: Arc<dyn DagPattern>,
    config: EngineConfig,
    init: Option<InitOverride<A::Value>>,
    soft_die: bool,
    recorder: Recorder,
    downgrade: Option<ScheduleDowngrade>,
}

impl<A: DpApp + 'static> SocketEngine<A> {
    /// Creates an engine for `app` over `pattern` with `config`.
    ///
    /// Work stealing degrades to local scheduling here: stealing pops
    /// from another slot's ready list through shared memory, which only
    /// exists inside one process. The swap is recorded in the run
    /// report's [`RunReport::schedule_downgrade`] rather than applied
    /// silently.
    pub fn new(app: A, pattern: impl DagPattern + 'static, mut config: EngineConfig) -> Self {
        let downgrade = downgrade_schedule(&mut config);
        SocketEngine {
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            init: None,
            soft_die: false,
            recorder: Recorder::disabled(),
            downgrade,
        }
    }

    /// Attaches a flight recorder; this place's epoch, control-protocol,
    /// snapshot and vertex events land in its per-place ring.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Installs a §VI-E initialisation override (pre-finish cells).
    pub fn with_init(mut self, init: InitOverride<A::Value>) -> Self {
        self.init = Some(init);
        self
    }

    /// Makes a planned `Die` crash the *sockets* instead of the whole
    /// process: every connection closes without a goodbye (peers detect
    /// the death exactly as after a SIGKILL) and `run` returns
    /// `Ok(None)`. Required when places are threads of one process — the
    /// chaos harness — where `std::process::abort` would take the whole
    /// differential run down with the victim.
    pub fn with_soft_die(mut self) -> Self {
        self.soft_die = true;
        self
    }

    /// Joins the mesh as `socket` describes and runs the computation.
    ///
    /// Returns `Ok(Some(result))` on place 0 and `Ok(None)` on every
    /// other place (the result lives with the coordinator; workers just
    /// exit).
    pub fn run(&self, socket: SocketConfig) -> Result<Option<DagResult<A::Value>>, EngineError> {
        preflight(&self.config, self.pattern.as_ref())?;
        let topology_places = self.config.topology.num_places();

        // `DPX10_SOCKET_TRACE=1` is an alias for "record and echo every
        // event to stderr" — the recorder's echo subscriber replaces the
        // old ad-hoc eprintln tracing.
        let mut recorder = self.recorder.clone();
        if std::env::var_os("DPX10_SOCKET_TRACE").is_some() {
            if !recorder.enabled() {
                recorder = Recorder::with_capacity(topology_places as usize, 1 << 12);
            }
            recorder.set_echo(true);
        }
        let mut socket = socket;
        if !socket.recorder.enabled() {
            socket.recorder = recorder.clone();
        }

        let node = Arc::new(
            SocketNode::connect(socket)
                .map_err(|e| EngineError::Socket(format!("mesh formation failed: {e}")))?,
        );
        let me = node.me();
        let places = node.places();
        if topology_places != places {
            return Err(EngineError::Socket(format!(
                "topology has {topology_places} places but the mesh has {places}"
            )));
        }

        let (app_tx, app_rx) = unbounded();
        let (ctl_tx, ctl_rx) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let dying = Arc::new(AtomicBool::new(false));
        let demux = {
            let node = node.clone();
            let (stop, dying, recorder) = (stop.clone(), dying.clone(), recorder.clone());
            let soft_die = self.soft_die;
            std::thread::Builder::new()
                .name(format!("dpx10-demux{}", me.index()))
                .spawn(move || demux_loop(node, app_tx, ctl_tx, stop, dying, soft_die, recorder))
                .map_err(|e| EngineError::Socket(format!("spawn demux: {e}")))?
        };

        // The mesh's *live membership*, not `0..places`: on an elastic
        // mesh the slot space has holes where places drained out, and
        // pinning them back in would make the snapshot collector wait on
        // peers that will never answer.
        let (config, participants) = (&self.config, node.roster().members());
        let mut run = Run::new(
            &self.app,
            &self.pattern,
            config,
            self.init.as_ref(),
            participants,
        );
        run.report.schedule_downgrade = self.downgrade.clone();
        let mut driver = Driver {
            pattern: &self.pattern,
            config,
            plane: Arc::new(AppPlane::new(node.clone(), app_rx, None)),
            ctl_rx,
            node: node.clone(),
            me,
            dying,
            recorder,
            peer_stats: Default::default(),
            resume: None,
        };
        let result = driver.drive(run, 0);

        // Whatever happened — success, stall, error — release the
        // workers before the goodbye, or a coordinator error would
        // strand them waiting on a control message that never comes.
        if me == PlaceId::ZERO {
            // Release live members only; drained slots have no outbox.
            for p in node.roster().members() {
                if p != me {
                    let _ = driver.plane.send_wire(p, &Wire::Done);
                }
            }
        }
        stop.store(true, Ordering::Release);
        node.shutdown();
        let _ = demux.join();
        result
    }
}

/// One place's mesh side of one DAG run: the control loops, whether the
/// DAG is the process's only one ([`SocketEngine::run`]) or one job of a
/// serve ([`crate::jobs`]).
pub(crate) struct Driver<'a, A: DpApp> {
    pub(crate) pattern: &'a Arc<dyn DagPattern>,
    pub(crate) config: &'a EngineConfig,
    pub(crate) node: Arc<SocketNode>,
    /// Carries the frame namespace: every outbound frame, data or
    /// control, leaves through [`AppPlane::send_wire`].
    pub(crate) plane: Arc<AppPlane<A::Value>>,
    pub(crate) ctl_rx: Receiver<(PlaceId, Wire<A::Value>)>,
    pub(crate) me: PlaceId,
    /// Raised by the demux (planned `Die`), a kill watchdog or a
    /// panicked worker once this place is crashing.
    pub(crate) dying: Arc<AtomicBool>,
    pub(crate) recorder: Recorder,
    /// Place 0: every peer's cumulative counters as of its last snapshot.
    pub(crate) peer_stats: HashMap<PlaceId, [u64; STAT_COUNTERS]>,
    /// Place 0: the last `Resume` scatter, kept to re-send a survivor's
    /// bundle if a relay hop died with its carrier; the places heard from
    /// since (a `Reduce` entry for a place can only originate there, so
    /// it proves the place entered the epoch); when to nudge the others.
    pub(crate) resume: Option<(ResumeState<A::Value>, HashSet<PlaceId>, Instant)>,
}

impl<A: DpApp + 'static> Driver<'_, A> {
    fn send_ctl(&self, dst: PlaceId, wire: &Wire<A::Value>) -> Result<(), DeadPlaceError> {
        self.plane.send_wire(dst, wire)
    }

    fn region(&self) -> Region2D {
        Region2D::new(self.pattern.height(), self.pattern.width())
    }

    /// The next control frame, or `None` on a timeout tick. A frame that
    /// names a place, cell or count this run cannot index is treated
    /// like an undecodable payload: dropped, its sender marked dead.
    fn recv_ctl(&self, timeout: Duration) -> Option<(PlaceId, Wire<A::Value>)> {
        let (src, wire) = self.ctl_rx.recv_timeout(timeout).ok()?;
        let slots = self.node.liveness().num_places();
        if well_formed(&wire, slots, self.region()) {
            Some((src, wire))
        } else {
            self.node.liveness().mark_dead(src);
            None
        }
    }

    /// Runs `run` to completion on this place, as a host of the shared
    /// epoch loop whose workers record onto tracks `track_base..`.
    /// `Ok(Some(result))` on place 0, `Ok(None)` on every other
    /// participant.
    pub(crate) fn drive(
        &mut self,
        run: Run<'_, A>,
        track_base: u64,
    ) -> Result<Option<DagResult<A::Value>>, EngineError> {
        let plane = self.plane.clone();
        let host = Host {
            me: self.me,
            liveness: self.node.liveness().clone(),
            stats: self.node.stats().clone(),
            recorder: self.recorder.clone(),
            // Workers are quiesced between epochs, so every flush
            // carries the current epoch's tag.
            transport: &mut |epoch| {
                plane.set_epoch(epoch);
                plane.clone()
            },
            track_base,
            // The victim's demux obeys by crashing without a goodbye.
            // (A serve clears its jobs' plans; its kills are `ServeKill`s.)
            kill: &|victim| {
                let _ = plane.send_wire(victim, &Wire::Die);
            },
            checkpoint: None,
            mesh: Some(self),
        };
        epoch::drive(run, host)
    }

    /// The epoch's tree schedule over `alive`, rooted at place 0's rank
    /// (ranks index `alive`, whose order is exactly the slot order).
    fn schedule(&self, alive: &[PlaceId]) -> CollectiveSchedule {
        let root = alive.iter().position(|p| *p == PlaceId::ZERO).unwrap_or(0);
        CollectiveSchedule::new(alive.len(), root)
    }

    /// Reaches every schedule child of `me_rank` through `send(rank)`; a
    /// child that is dead or unreachable is replaced by its own children
    /// (tree repair), so every live subtree still gets its frame.
    fn fan_out(
        &self,
        alive: &[PlaceId],
        me_rank: usize,
        send: impl Fn(usize) -> Result<(), DeadPlaceError>,
    ) {
        let sched = self.schedule(alive);
        let mut work = sched.children(me_rank);
        while let Some(c) = work.pop() {
            if !self.node.liveness().is_alive(alive[c]) || send(c).is_err() {
                work.extend(sched.children(c));
            }
        }
    }

    /// Forwards a broadcast hop to `me_rank`'s schedule children.
    fn relay_hops(&self, alive: &[PlaceId], me_rank: usize, hop: &Wire<A::Value>) {
        self.fan_out(alive, me_rank, |c| self.send_ctl(alive[c], hop));
    }

    /// Sends the `Resume` scatter hops from `me_rank` in the new epoch's
    /// schedule: each child receives the restored cells of its whole
    /// subtree plus the global finished-set metadata.
    fn scatter_resume(&self, st: &ResumeState<A::Value>, me_rank: usize) {
        let places: Vec<PlaceId> = st.alive.iter().copied().map(PlaceId).collect();
        self.fan_out(&places, me_rank, |c| {
            self.send_ctl(places[c], &self.resume_frame_for(st, &places, c))
        });
    }

    /// The `Resume` frame of rank `rank`: the restored cells its subtree
    /// owns under the *new* distribution (whose slot order is the
    /// survivors' order) plus the global metadata. Built per hop by the
    /// scatter, and again by the re-send insurance, so a survivor
    /// stranded by a dead relay still enters the epoch.
    fn resume_frame_for(
        &self,
        st: &ResumeState<A::Value>,
        places: &[PlaceId],
        rank: usize,
    ) -> Wire<A::Value> {
        let sub = self.schedule(places).subtree(rank);
        let ndist = Dist::new(
            self.region(),
            self.config.dist_kind.clone(),
            places.to_vec(),
        );
        let cells = st
            .cells
            .iter()
            .filter(|(packed, _)| {
                let id = VertexId::unpack(*packed);
                sub.contains(&ndist.slot_of(id.i, id.j))
            })
            .cloned()
            .collect();
        Wire::Resume {
            epoch: st.epoch,
            alive: st.alive.clone(),
            cells,
            meta: st.meta.clone(),
        }
    }

    /// Sends this place's slot snapshot to place 0.
    fn send_snapshot(
        &self,
        shared: &Arc<Shared<A>>,
        epoch: u32,
        my_slot: usize,
        busy_before: u64,
    ) -> Result<(), EngineError> {
        // Flush-before-snapshot barrier: anything still buffered in the
        // coalescing layer goes to the wire (or dies with a dead lane)
        // before this epoch's counters and cells are reported, so the
        // snapshot never precedes traffic it already counted.
        shared.transport.flush(self.me);
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        let shard = &shared.place.shards[my_slot];
        let mut cells = Vec::new();
        for (li, &(i, j)) in shard.points.iter().enumerate() {
            if shard.in_pattern[li] && shard.finished[li].load(Ordering::Acquire) {
                let v = shard.values[li].get().expect("finished => set").clone();
                cells.push((VertexId::new(i, j).pack(), v));
            }
        }
        let busy = busy_before + shard.busy_ns.load(Ordering::Relaxed);
        let stats = self.node.stats().place(self.me).to_counters(busy);
        let sent = cells.len() as u64;
        let result = self
            .send_ctl(
                PlaceId::ZERO,
                &Wire::Snapshot {
                    epoch,
                    cells,
                    computed: shared.computed.load(Ordering::Relaxed),
                    stats,
                },
            )
            .map_err(|e| EngineError::Socket(format!("snapshot delivery failed: {e}")));
        if let Some(start) = rec_start {
            self.recorder.span(
                self.me.0,
                RUNTIME_WORKER,
                EventKind::Snapshot,
                start,
                self.recorder.now_ns(),
                sent,
            );
        }
        result
    }
}

impl<A: DpApp + 'static> Mesh<A> for Driver<'_, A> {
    /// A worker place's mid-epoch loop: fold subtree progress up the
    /// tree to place 0 and obey (and relay) its control messages.
    fn follow(
        &mut self,
        shared: &Arc<Shared<A>>,
        workers: &mut Workers<A>,
        epoch: u32,
        busy_before: u64,
    ) -> Result<Flow<A::Value>, EngineError> {
        let alive = shared.place.dist.places();
        let my_slot = alive.iter().position(|p| *p == self.me);
        let my_slot = my_slot.expect("a place follows only epochs it is a participant of");
        let sched = self.schedule(alive);
        let mut last_reported = u64::MAX;
        let mut last_progress = Instant::now();
        // Finished counts our subtree reported, folded into every
        // Reduce hop we send up (max-merged: duplicates are harmless).
        let mut child_counts: HashMap<u16, u64> = HashMap::new();
        // Set once a concluding Stop/Abort has been handled; dedups the
        // tree hop against the coordinator's direct re-send insurance
        // (and stops us re-relaying duplicates).
        let mut concluded = false;
        // Set once we have snapshotted and are owed a Resume/Done; if
        // the coordinator wrote *us* off it cannot even address us, so
        // an orphaned wait must time out rather than hang.
        let mut awaiting_release: Option<Instant> = None;

        loop {
            if !self.node.liveness().is_alive(PlaceId::ZERO) {
                return Err(EngineError::Socket(
                    "place 0 was lost; a worker cannot continue without the coordinator".into(),
                ));
            }
            if let Some(since) = awaiting_release {
                if since.elapsed() > SNAPSHOT_DEADLINE {
                    return Err(EngineError::Socket(
                        "no release from the coordinator after snapshot".into(),
                    ));
                }
            }

            if let Err(panicked) = shared.check_panic() {
                // A place that cannot compute leaves like a dead one — no
                // goodbye — so the coordinator recovers without it.
                self.dying.store(true, Ordering::Release);
                self.node.crash();
                return Err(panicked);
            }
            let received = self.recv_ctl(Duration::from_millis(5));
            // Checked after the receive: the demux raises `dying` before
            // it forwards anything that arrived behind the `Die`, so a
            // crashing place never acts on a later frame.
            if self.dying.load(Ordering::Acquire) {
                shared.fault.store(true, Ordering::Release);
                return Ok(Flow::Exit);
            }
            let received = match received {
                Some((src, Wire::Bcast(inner))) => {
                    // A tree hop: relay to our schedule children first
                    // (adopting dead subtrees), then handle the inner
                    // frame as if it had arrived directly. A duplicate
                    // hop after we concluded is not re-relayed — the
                    // first relay already covered the subtree.
                    let hop = Wire::Bcast(inner);
                    if !concluded {
                        self.relay_hops(alive, my_slot, &hop);
                    }
                    let Wire::Bcast(inner) = hop else {
                        unreachable!()
                    };
                    Some((src, *inner))
                }
                other => other,
            };
            match received {
                Some((_, verdict @ (Wire::Stop { epoch: e } | Wire::Abort { epoch: e, .. })))
                    if e == epoch && !concluded =>
                {
                    concluded = true;
                    let kind = if let Wire::Abort { dead, .. } = verdict {
                        for d in dead {
                            self.node.liveness().mark_dead(PlaceId(d));
                        }
                        shared.fault.store(true, Ordering::Release);
                        EventKind::CtlAbort
                    } else {
                        shared.done.store(true, Ordering::Release);
                        EventKind::CtlStop
                    };
                    self.recorder
                        .instant_now(self.me.0, RUNTIME_WORKER, kind, u64::from(epoch));
                    // Quiesce first: the cells, `computed` and the
                    // counters of one snapshot describe the same moment.
                    workers.stop();
                    self.send_snapshot(shared, epoch, my_slot, busy_before)?;
                    awaiting_release = Some(Instant::now());
                }
                Some((
                    _,
                    Wire::Resume {
                        epoch: e,
                        alive: new_alive,
                        cells,
                        meta,
                    },
                )) if e == epoch + 1 => {
                    self.recorder.instant_now(
                        self.me.0,
                        RUNTIME_WORKER,
                        EventKind::CtlResume,
                        u64::from(epoch + 1),
                    );
                    // Relay the scatter onwards: each of our schedule
                    // children in the *new* epoch's tree receives its
                    // subtree's share of the bundle. (Stragglers this
                    // relay duplicates are dropped by the receivers'
                    // own epoch guards; stranded places the relay never
                    // reaches get direct insurance re-sends from the
                    // coordinator.)
                    let st = ResumeState {
                        epoch: e,
                        alive: new_alive,
                        meta,
                        cells,
                    };
                    if let Some(r) = st.alive.iter().position(|p| *p == self.me.0) {
                        self.scatter_resume(&st, r);
                    }
                    let alive = st.alive.into_iter().map(PlaceId).collect();
                    return Ok(Flow::Resume(alive, (st.cells, st.meta)));
                }
                Some((_, Wire::Reduce { epoch: e, counts })) if e == epoch => {
                    // A child's subtree counts; folded into our next hop.
                    fold_counts(&mut child_counts, &counts);
                }
                Some((_, Wire::Done)) => {
                    self.recorder.instant_now(
                        self.me.0,
                        RUNTIME_WORKER,
                        EventKind::CtlDone,
                        u64::from(epoch),
                    );
                    return Ok(Flow::Exit);
                }
                _ => {}
            }

            let finished = shared.place.shards[my_slot]
                .finished_local
                .load(Ordering::Relaxed);
            if finished != last_reported || last_progress.elapsed() > PROGRESS_INTERVAL {
                last_reported = finished;
                last_progress = Instant::now();
                // One Reduce hop up the tree: our own count folded with
                // everything our subtree reported, addressed to the
                // nearest live ancestor (the root directly if the whole
                // chain died). The interval re-send also forwards child
                // updates that arrived while our own count sat still.
                // Failure to report is not fatal by itself; the liveness
                // check at the top of the loop is the judge of that.
                let mut counts: Vec<(u16, u64)> = vec![(self.me.0, finished)];
                counts.extend(child_counts.iter().map(|(&p, &n)| (p, n)));
                let parent = sched
                    .live_parent(my_slot, |r| !self.node.liveness().is_alive(alive[r]))
                    .unwrap_or(sched.root());
                let _ = self.send_ctl(alive[parent], &Wire::Reduce { epoch, counts });
            }
        }
    }

    /// One tick of place 0's mid-epoch loop: fold a tree-reduced
    /// progress report into the finished table, and re-send `Resume`
    /// bundles to survivors a dead relay may have stranded.
    fn progress(&mut self, epoch: u32, alive: &[PlaceId], table: &mut [u64]) {
        // Taken out so the re-sends below may borrow `self`.
        let mut resume = self.resume.take().filter(|(st, ..)| st.epoch == epoch);
        if let Some((src, Wire::Reduce { epoch: e, counts })) = self.recv_ctl(TICK) {
            let counts = counts.into_iter().map(|(pid, n)| (PlaceId(pid), n));
            for (p, n) in std::iter::once((src, 0)).chain(counts) {
                let Some(s) = alive.iter().position(|a| *a == p).filter(|_| e == epoch) else {
                    continue;
                };
                table[s] = table[s].max(n);
                if let Some((_, heard, _)) = &mut resume {
                    heard.insert(p);
                }
            }
        }
        if let Some((st, heard, next_nudge)) = &mut resume {
            if Instant::now() >= *next_nudge {
                *next_nudge = Instant::now() + RESUME_RESEND;
                for (s, p) in alive.iter().enumerate() {
                    if !heard.contains(p) && self.node.liveness().is_alive(*p) {
                        let _ = self.send_ctl(*p, &self.resume_frame_for(st, alive, s));
                    }
                }
            }
        }
        self.resume = resume;
    }

    /// Place 0: tree-broadcasts the verdict (one `Bcast` hop per
    /// schedule child; the receivers relay onwards), then waits for every
    /// live peer's snapshot, folding in its cells and (cumulative)
    /// counters; peers that never answer are marked dead and returned.
    fn conclude(
        &mut self,
        epoch: u32,
        alive: &[PlaceId],
        aborted: Option<&[PlaceId]>,
        arr: &mut DistArray<A::Value>,
        computed_total: &mut u64,
        busy: &mut [u64],
    ) -> Vec<PlaceId> {
        let conclude = || match aborted {
            None => Wire::Stop { epoch },
            Some(dead) => Wire::Abort {
                epoch,
                dead: dead.iter().map(|p| p.0).collect(),
            },
        };
        let root = self.schedule(alive).root();
        self.relay_hops(alive, root, &Wire::Bcast(Box::new(conclude())));
        let conclude = conclude();
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        // Start from every peer of the epoch, not just the currently
        // live ones: a place whose death was already detected (e.g. a
        // kill landing right at the end of the epoch, before its
        // snapshot) must still be reported as lost so its values get
        // recovered rather than silently dropped.
        let mut pending: Vec<PlaceId> = alive.iter().copied().filter(|p| *p != self.me).collect();
        let mut lost = Vec::new();
        let deadline = Instant::now() + SNAPSHOT_DEADLINE;
        let mut next_nudge = Instant::now() + CONCLUDE_RESEND;
        loop {
            pending.retain(|p| {
                if self.node.liveness().is_alive(*p) {
                    true
                } else {
                    lost.push(*p);
                    false
                }
            });
            if pending.is_empty() {
                break;
            }
            if Instant::now() > deadline {
                for p in pending.drain(..) {
                    self.node.liveness().mark_dead(p);
                    lost.push(p);
                }
                break;
            }
            if Instant::now() >= next_nudge {
                next_nudge = Instant::now() + CONCLUDE_RESEND;
                // Broadcast insurance: a relay that died after taking
                // its hop may have stranded its subtree; re-send the
                // bare concluding frame (not a `Bcast`, so nobody
                // re-relays it) directly to the peers still owed a
                // snapshot. Receivers that got the tree hop already
                // ignore the duplicate.
                for p in &pending {
                    let _ = self.send_ctl(*p, &conclude);
                }
            }
            let Some((src, wire)) = self.recv_ctl(Duration::from_millis(10)) else {
                continue;
            };
            if let Wire::Snapshot {
                epoch: e,
                cells,
                computed,
                stats,
            } = wire
            {
                if e != epoch {
                    continue;
                }
                let Some(k) = pending.iter().position(|p| *p == src) else {
                    continue;
                };
                pending.swap_remove(k);
                for (packed, v) in cells {
                    let id = VertexId::unpack(packed);
                    arr.set(id.i, id.j, v);
                }
                *computed_total += computed;
                busy[src.index()] = StatsSnapshot::from_counters(stats).1;
                self.peer_stats.insert(src, stats);
            }
        }
        if let Some(start) = rec_start {
            self.recorder.span(
                self.me.0,
                RUNTIME_WORKER,
                EventKind::Snapshot,
                start,
                self.recorder.now_ns(),
                lost.len() as u64,
            );
        }
        lost
    }

    /// Place 0: scatters the restored state down the tree of `epoch`,
    /// the one being resumed into — each schedule child receives its
    /// subtree's finished values plus the packed ids of *every* finished
    /// cell — and remembers the scatter for the re-send insurance.
    fn resume(&mut self, epoch: u32, alive: &[PlaceId], restored: &DistArray<A::Value>) {
        self.recorder.instant_now(
            self.me.0,
            RUNTIME_WORKER,
            EventKind::CtlResume,
            u64::from(epoch),
        );
        let mut cells = Vec::new();
        let rdist = restored.dist();
        for s in 0..rdist.num_slots() {
            for (i, j, v, finished) in restored.iter_slot(s) {
                if finished {
                    cells.push((VertexId::new(i, j).pack(), v.clone()));
                }
            }
        }
        let st = ResumeState {
            epoch,
            alive: alive.iter().map(|p| p.0).collect(),
            meta: cells.iter().map(|(packed, _)| *packed).collect(),
            cells,
        };
        // A hop failure here means the peer died *after* recovery; the
        // adoption inside the scatter plus the next epoch's liveness
        // check and re-send insurance catch it.
        self.scatter_resume(&st, self.schedule(alive).root());
        self.resume = Some((st, HashSet::from([self.me]), Instant::now() + RESUME_RESEND));
    }

    fn comm(&self) -> StatsSnapshot {
        let mut comm = StatsSnapshot::default();
        if self.plane.job.is_none() {
            // A served job leaves `comm` at its default: the substrate's
            // counters are mesh-level, not attributable to one job.
            let mut sum = self.node.stats().to_counters();
            for peer in self.peer_stats.values() {
                for (total, counter) in sum.iter_mut().zip(peer) {
                    *total += counter;
                }
            }
            comm = StatsSnapshot::from_counters(sum).0;
        }
        comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DepView;
    use dpx10_apgas::codec::encode_to_vec;
    use dpx10_dag::builtin::Grid2;

    #[test]
    fn wire_round_trips() {
        let wires: Vec<Wire<i64>> = vec![
            Wire::App(
                3,
                Msg::PullVal {
                    id: VertexId::new(1, 2),
                    value: -7,
                },
            ),
            Wire::Stop { epoch: 0 },
            Wire::Abort {
                epoch: 2,
                dead: vec![1, 3],
            },
            Wire::Snapshot {
                epoch: 1,
                cells: vec![(VertexId::new(0, 0).pack(), 9)],
                computed: 5,
                stats: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
            },
            Wire::Resume {
                epoch: 2,
                alive: vec![0, 2],
                cells: vec![(VertexId::new(1, 1).pack(), -1)],
                meta: vec![VertexId::new(1, 1).pack(), VertexId::new(0, 3).pack()],
            },
            Wire::Die,
            Wire::Done,
            Wire::Job(
                7,
                Box::new(Wire::App(
                    2,
                    Msg::Pull {
                        id: VertexId::new(4, 4),
                    },
                )),
            ),
            Wire::Job(0, Box::new(Wire::Stop { epoch: 3 })),
            Wire::Bcast(Box::new(Wire::Stop { epoch: 4 })),
            Wire::Bcast(Box::new(Wire::Abort {
                epoch: 4,
                dead: vec![2],
            })),
            Wire::Reduce {
                epoch: 5,
                counts: vec![(1, 40), (3, 7)],
            },
        ];
        for wire in wires {
            let buf = encode_to_vec(&wire);
            assert_eq!(buf.len(), Codec::wire_size(&wire));
            let back: Wire<i64> = decode_exact(&buf).expect("decodes");
            // Structural comparison through re-encoding (no PartialEq on
            // purpose: Wire is an internal protocol type).
            assert_eq!(encode_to_vec(&back), buf);
        }
    }

    #[test]
    fn wire_rejects_unknown_tag() {
        assert!(decode_exact::<Wire<i64>>(&[99]).is_none());
        // Tag 1 was the direct `Progress` report; `Reduce` replaced it.
        let mut progress = vec![1u8];
        1u32.encode(&mut progress);
        42u64.encode(&mut progress);
        assert!(decode_exact::<Wire<i64>>(&progress).is_none());
    }

    #[test]
    fn resume_truncated_after_cells_is_rejected() {
        // The finished-set metadata is a mandatory field — bare and
        // wrapped in the serve protocol's Job envelope.
        let mut truncated = vec![5u8];
        3u32.encode(&mut truncated);
        vec![0u16, 1].encode(&mut truncated);
        vec![(VertexId::new(2, 2).pack(), 11i64)].encode(&mut truncated);
        assert!(decode_exact::<Wire<i64>>(&truncated).is_none());

        let mut wrapped = vec![JOB_TAG];
        9u32.encode(&mut wrapped);
        wrapped.extend_from_slice(&truncated);
        assert!(decode_exact::<Wire<i64>>(&wrapped).is_none());

        // With the field present, both forms decode.
        Vec::<u64>::new().encode(&mut truncated);
        Vec::<u64>::new().encode(&mut wrapped);
        assert!(decode_exact::<Wire<i64>>(&truncated).is_some());
        assert!(decode_exact::<Wire<i64>>(&wrapped).is_some());
    }

    #[test]
    fn snapshot_takes_exactly_thirteen_counters() {
        for (n, ok) in [
            (0usize, false),
            (6, false),
            (12, false),
            (13, true),
            (14, false),
        ] {
            let mut buf = vec![4u8];
            1u32.encode(&mut buf);
            Vec::<(u64, i64)>::new().encode(&mut buf);
            5u64.encode(&mut buf);
            vec![7u64; n].encode(&mut buf);
            assert_eq!(
                decode_exact::<Wire<i64>>(&buf).is_some(),
                ok,
                "{n} counters"
            );
        }
    }

    #[test]
    fn reduce_decode_guards_hostile_count_length() {
        // A Reduce frame whose vec length claims more entries than the
        // buffer holds must fail cleanly, not allocate.
        let mut buf = vec![10u8];
        1u32.encode(&mut buf);
        u64::MAX.encode(&mut buf); // vec length prefix
        assert!(decode_exact::<Wire<i64>>(&buf).is_none());
    }

    /// Frames that decode fine but name a place outside the mesh, a cell
    /// outside the region or an impossible count.
    fn hostile_frames() -> Vec<(&'static str, Wire<u64>)> {
        let outside = VertexId::new(6, 0).pack();
        vec![
            (
                "abort naming place 9999",
                Wire::Bcast(Box::new(Wire::Abort {
                    epoch: 0,
                    dead: vec![9999],
                })),
            ),
            (
                "resume naming place 9999",
                Wire::Resume {
                    epoch: 1,
                    alive: vec![0, 1, 9999],
                    cells: Vec::new(),
                    meta: Vec::new(),
                },
            ),
            (
                "resume without the coordinator",
                Wire::Resume {
                    epoch: 1,
                    alive: vec![1],
                    cells: Vec::new(),
                    meta: Vec::new(),
                },
            ),
            (
                "resume cell outside the region",
                Wire::Resume {
                    epoch: 1,
                    alive: vec![0, 1],
                    cells: vec![(outside, 7)],
                    meta: vec![outside],
                },
            ),
            (
                "snapshot cell outside the region",
                Wire::Snapshot {
                    epoch: 0,
                    cells: vec![(outside, 7)],
                    computed: 1,
                    stats: [0; STAT_COUNTERS],
                },
            ),
            (
                "reduce count beyond the region",
                Wire::Reduce {
                    epoch: 0,
                    counts: vec![(1, u64::MAX)],
                },
            ),
        ]
    }

    #[test]
    fn frames_naming_foreign_places_or_cells_are_malformed() {
        let region = Region2D::new(6, 6);
        for (what, wire) in hostile_frames() {
            let back: Wire<u64> = decode_exact(&encode_to_vec(&wire)).expect(what);
            assert!(!well_formed(&back, 2, region), "{what}");
        }
        let inside = VertexId::new(5, 5).pack();
        let fine: Vec<Wire<u64>> = vec![
            Wire::Abort {
                epoch: 0,
                dead: vec![1],
            },
            Wire::Resume {
                epoch: 1,
                alive: vec![0, 1],
                cells: vec![(inside, 7)],
                meta: vec![inside],
            },
            Wire::Snapshot {
                epoch: 0,
                cells: vec![(inside, 7)],
                computed: 1,
                stats: [0; STAT_COUNTERS],
            },
            Wire::Reduce {
                epoch: 0,
                counts: vec![(1, 36)],
            },
        ];
        for wire in fine {
            assert!(well_formed(&wire, 2, region));
        }
    }

    /// Vertex-protocol messages a hostile peer could send to slot 1 of a
    /// Grid2 6×6 run on two block-column places (slot 1 owns columns
    /// 3..6): the five shapes of [`data_well_formed`]'s contract, bare
    /// and inside every batch variant.
    fn hostile_data_frames() -> Vec<(&'static str, Msg<u64>)> {
        let outside = VertexId::new(9, 9);
        let foreign = VertexId::new(2, 1); // a vertex, but slot 0's
        let mine = VertexId::new(2, 4);
        let done = |targets: Vec<VertexId>| (VertexId::new(2, 2), 7, targets);
        vec![
            (
                "done target outside the region",
                Msg::Done {
                    from: VertexId::new(2, 2),
                    value: 7,
                    targets: vec![mine, outside],
                },
            ),
            (
                "push target owned by another slot",
                Msg::PushVal {
                    from: VertexId::new(2, 2),
                    value: 7,
                    targets: vec![foreign],
                },
            ),
            ("pull of an unfinished cell", Msg::Pull { id: mine }),
            ("pull of a foreign cell", Msg::Pull { id: foreign }),
            (
                "result for a foreign cell",
                Msg::ExecResult {
                    id: foreign,
                    value: 7,
                },
            ),
            (
                "exec with the wrong dependencies",
                Msg::Exec {
                    id: mine,
                    dep_ids: vec![VertexId::new(0, 0)],
                    dep_values: vec![7],
                },
            ),
            (
                "exec with a missing value",
                Msg::Exec {
                    id: mine,
                    dep_ids: vec![VertexId::new(1, 4), VertexId::new(2, 3)],
                    dep_values: vec![7],
                },
            ),
            (
                "pulled value outside the region",
                Msg::PullVal {
                    id: outside,
                    value: 7,
                },
            ),
            (
                "done batch hiding a foreign target",
                Msg::DoneBatch {
                    entries: vec![done(vec![mine]), done(vec![foreign])],
                },
            ),
            (
                "push batch hiding an outside target",
                Msg::PushValBatch {
                    entries: vec![done(vec![mine]), done(vec![outside])],
                },
            ),
            (
                "pull batch hiding an unfinished cell",
                Msg::PullBatch {
                    ids: vec![VertexId::new(0, 3), mine],
                },
            ),
            (
                "pulled-value batch hiding an outside cell",
                Msg::PullValBatch {
                    entries: vec![(VertexId::new(0, 0), 7), (outside, 7)],
                },
            ),
        ]
    }

    #[test]
    fn data_frames_naming_unowned_or_unfinished_cells_are_malformed() {
        let (app, pattern) = (
            Arc::new(Sum),
            Arc::new(Grid2::new(6, 6)) as Arc<dyn DagPattern>,
        );
        let cfg = EngineConfig::flat(2);
        // (0, 3) is finished at slot 1; everything else is not.
        let init: InitOverride<u64> = Arc::new(|i, j| (i == 0 && j == 3).then_some(1));
        let mut run = Run::new(
            &app,
            &pattern,
            &cfg,
            Some(&init),
            vec![PlaceId(0), PlaceId(1)],
        );
        let (place, _) = run.begin(None, &dpx10_apgas::StatsBoard::new(2));
        for (what, msg) in hostile_data_frames() {
            let wire: Wire<u64> =
                decode_exact(&encode_to_vec(&Wire::App(0, msg))).expect("decodes");
            let Wire::App(_, msg) = wire else {
                unreachable!()
            };
            assert!(!data_well_formed(&place, 1, &msg), "{what}");
        }
        let mine = VertexId::new(2, 4);
        let fine: Vec<Msg<u64>> = vec![
            Msg::Done {
                from: VertexId::new(2, 2),
                value: 7,
                targets: vec![VertexId::new(2, 3), VertexId::new(3, 3)],
            },
            Msg::PushValBatch {
                entries: vec![(VertexId::new(2, 2), 7, vec![VertexId::new(2, 3)])],
            },
            Msg::Pull {
                id: VertexId::new(0, 3),
            },
            Msg::PullVal {
                id: VertexId::new(2, 2),
                value: 7,
            },
            Msg::ExecResult { id: mine, value: 7 },
            Msg::Exec {
                id: mine,
                dep_ids: vec![VertexId::new(1, 4), VertexId::new(2, 3)],
                dep_values: vec![7, 7],
            },
        ];
        for msg in fine {
            assert!(data_well_formed(&place, 1, &msg), "{msg:?}");
        }
    }

    struct Sum;
    impl DpApp for Sum {
        type Value = u64;
        fn compute(&self, _id: VertexId, deps: &DepView<'_, u64>) -> u64 {
            1 + deps.iter().map(|(_, v)| *v).sum::<u64>()
        }
    }

    /// A real worker place against a coordinator that speaks garbage:
    /// every hostile frame — control, or vertex traffic for the epoch
    /// the worker is computing — must end the worker's run with an error
    /// (it writes place 0 off), never unwind one of its threads.
    #[test]
    fn a_worker_fed_hostile_control_frames_errors_out_without_panicking() {
        let (what, data) = hostile_data_frames().swap_remove(0);
        let frames = hostile_frames()
            .into_iter()
            .chain([(what, Wire::App(0, data))]);
        for (what, wire) in frames {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().unwrap().to_string();
            let worker = std::thread::spawn(move || {
                SocketEngine::new(Sum, Grid2::new(6, 6), EngineConfig::flat(2))
                    .run(SocketConfig::worker(PlaceId(1), 2, addr))
            });
            let rogue = SocketNode::connect(SocketConfig::coordinator(listener, 2)).expect("mesh");
            rogue
                .send_bytes(PlaceId(1), encode_to_vec(&wire))
                .expect("frame leaves");
            let outcome = worker
                .join()
                .unwrap_or_else(|_| panic!("{what}: worker panicked"));
            assert!(
                matches!(outcome, Err(EngineError::Socket(_))),
                "{what}: worker should have written the coordinator off"
            );
            rogue.shutdown();
        }
    }
}

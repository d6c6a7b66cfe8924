//! The elastic mesh engine: dynamic place membership, live chunk
//! relocation, and an autoscaling job server.
//!
//! The paper's deployment model (§II) fixes the place set at launch;
//! its recovery method (§VI-D) *recomputes* a dead place's cells. This
//! module adds the third option real clusters want: places that join a
//! running computation, drain out of it gracefully, and hand their
//! chunks over *live* — relocation, not recompute.
//!
//! The engine is one more driver of [`crate::protocol`], deterministic
//! and single-threaded. The DAG is cut into `2 × capacity` column
//! blocks; each block is one protocol place — a [`Shard`] — for the
//! whole run, and each mesh [`Member`] holds some of them. The protocol
//! keeps addressing fixed slot ids; only the driver's `send` resolves
//! slot → current holder, through the *sender's* [`ChunkMap`], and
//! stamps the sender's fence epoch. The main loop gives every member
//! one round-robin turn (process one packet, or run one ready cell
//! through `prepare` → `compute` → `publish`). All vertex-protocol
//! traffic travels as real [`Msg`] codec bytes, so the protocol exercised
//! is exactly what the socket backend would put on a wire; relocation
//! control is this driver's own packet body and never leaves the
//! process. Determinism is what makes the differential oracle possible:
//! the same workload with and without a churn plan must produce
//! identical fingerprints.
//!
//! # The relocation protocol
//!
//! One relocation is in flight at a time (they serialize the epoch
//! fence):
//!
//! ```text
//!  holder ──Offer{slot}─────▶ target              (announce)
//!  holder ◀──Ack{slot,e}────── target              (accept)
//!  holder ──Data{slot,e}─────▶ target              (ship; holder's map → e+1)
//!  target ──Ack{slot,e+1}────▶ every member        (commit broadcast)
//! ```
//!
//! The shipped [`ChunkState`] is the slot's whole shard — finished
//! values, ready-counters, the ready list and the cache residents — so
//! the new holder resumes exactly where the old one stopped. Between
//! ship and commit, messages fence on the [`ChunkMap`] epoch:
//! future-stamped traffic parks and replays, past-stamped values and
//! decrements forward to the new owner, past-stamped `Pull`s drop and
//! are re-issued by the requester — from its shards' own pull waiters —
//! when its fence advances (the commit broadcast guarantees it does).
//!
//! # Membership verbs
//!
//! * **Join** — a fresh place id activates, adopts the highest-epoch
//!   chunk map in the mesh, and receives its fair share of chunks via
//!   ordinary relocations.
//! * **Drain** — the place stops computing, relocates every chunk it
//!   holds, and leaves once the mesh has acknowledged all of them.
//!   Nothing is recomputed.
//! * **Kill** — abrupt death, recovered the way every engine does: the
//!   survivors' finished values become the prior of a fresh
//!   [`build_shards`], which recounts every indegree from the finished
//!   set, and only what died with the victim runs again.
//!
//! An optional [`ElasticPolicy`] watches the ready backlog and fires
//! joins/drains automatically — the autoscaler of the job server.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dpx10_apgas::codec::{decode_exact, encode_to_vec};
use dpx10_apgas::{
    ElasticEvent, ElasticPlan, ElasticVerb, NetworkModel, PlaceId, RosterBoard, StatsBoard,
    Topology,
};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_distarray::{ChunkMap, ChunkState, Dist, DistArray, DistKind, EpochVerdict, Region2D};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

use crate::app::{DagResult, DepView, DpApp, VertexValue};
use crate::config::{CommsMode, EngineConfig};
use crate::epoch::validate;
use crate::error::EngineError;
use crate::msg::Msg;
use crate::protocol::{handle_msg, prepare, publish, Place, Sink, WorkerBufs};
use crate::schedule::ScheduleStrategy;
use crate::state::{build_shards, into_array, Shard};
use crate::stats::RunReport;

/// Consecutive all-idle rounds before the engine declares a stall.
const IDLE_LIMIT: u32 = 64;

/// Configuration of an elastic run. The DAG is cut into `2 × capacity`
/// chunks, so a joiner's fair share is never empty.
#[derive(Clone, Debug)]
pub struct ElasticConfig {
    /// Founding members (places `0..founding`). Ignored when
    /// `initial_members` is set.
    pub founding: u16,
    /// Maximum places the mesh may ever grow to (roster capacity).
    pub capacity: u16,
    /// Autoscaling policy; `None` = membership changes only by plan.
    pub policy: Option<ElasticPolicy>,
    /// Explicit member set (possibly non-contiguous, after earlier
    /// drains) — how [`ElasticServer`] resumes a mesh between jobs.
    pub initial_members: Option<Vec<u16>>,
}

impl ElasticConfig {
    /// A mesh of `founding` places with room to grow to `capacity`.
    pub fn new(founding: u16, capacity: u16) -> Self {
        ElasticConfig {
            founding,
            capacity,
            policy: None,
            initial_members: None,
        }
    }
}

/// The autoscaler: watches the per-member ready backlog and grows or
/// shrinks the mesh between relocations.
#[derive(Clone, Debug)]
pub struct ElasticPolicy {
    /// Grow when the average ready backlog per member exceeds this.
    pub grow_backlog: usize,
    /// Shrink when the average ready backlog per member falls below
    /// this.
    pub shrink_backlog: usize,
    /// Never shrink below this many members.
    pub min_places: u16,
    /// Never grow above this many members.
    pub max_places: u16,
    /// Re-evaluate every this many finished vertices.
    pub check_every: u64,
}

/// Metrics of one elastic run.
#[derive(Clone, Debug, Default)]
pub struct ElasticReport {
    /// Vertices in the DAG.
    pub total: u64,
    /// `compute()` invocations (≥ `total`; the excess is recompute).
    pub computed: u64,
    /// Invocations for cells that had already finished once — the
    /// price of kills. Zero on any run without a kill.
    pub recomputed: u64,
    /// Chunks shipped whole via the relocation protocol.
    pub chunks_relocated: u64,
    /// Finished cells carried inside relocated chunks — work relocation
    /// saved from recomputation.
    pub cells_moved: u64,
    /// Total encoded [`ChunkState`] payload bytes shipped.
    pub chunk_bytes: u64,
    /// Pulls re-issued after an epoch advance (the requester's replay
    /// half of the fence).
    pub replayed_pulls: u64,
    /// Future-stamped messages parked at the fence and later replayed.
    pub parked_replayed: u64,
    /// Past-stamped pulls dropped at the fence.
    pub stale_dropped: u64,
    /// Past-stamped values and decrements forwarded to the
    /// re-registered owner.
    pub forwarded: u64,
    /// Places that joined mid-run.
    pub joins: u64,
    /// Drains initiated (graceful departures).
    pub drains: u64,
    /// Abrupt deaths processed.
    pub kills: u64,
    /// `(finished vertices at the time, member count)`: the founding
    /// mesh, then one entry per membership change — the mesh-size
    /// timeline.
    pub mesh_sizes: Vec<(u64, u16)>,
    /// Members still in the mesh at the end, ascending.
    pub final_members: Vec<u16>,
    /// The next fresh place id a joiner would receive.
    pub next_place: u16,
    /// The chunk-map epoch at the end (relocations that completed).
    pub final_epoch: u64,
}

/// A finished elastic run: the result every engine returns, plus the
/// mesh's own metrics.
pub struct ElasticRun<V> {
    result: DagResult<V>,
    report: ElasticReport,
}

impl<V: VertexValue> ElasticRun<V> {
    /// The result of vertex `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` was not part of the DAG.
    pub fn get(&self, i: u32, j: u32) -> V {
        self.result.get(i, j)
    }

    /// The result of `(i, j)`, or `None` for cells outside the DAG.
    pub fn try_get(&self, i: u32, j: u32) -> Option<V> {
        self.result.try_get(i, j)
    }

    /// [`DagResult::fingerprint`] of the run's result, so an elastic
    /// run compares directly against any other engine's.
    pub fn fingerprint(&self) -> u64 {
        self.result.fingerprint()
    }

    /// The result as every engine returns it; its report carries the
    /// protocol's own counters (pulls, cache hits, …).
    pub fn result(&self) -> &DagResult<V> {
        &self.result
    }

    /// Metrics of the run.
    pub fn report(&self) -> &ElasticReport {
        &self.report
    }
}

/// A packet in flight, stamped with the sender's fence epoch at send
/// time.
struct Packet {
    /// The sending member.
    src: u16,
    epoch: u64,
    body: Body,
}

/// What a [`Packet`] carries.
enum Body {
    /// Encoded vertex-protocol [`Msg`] bytes from slot `route.0` to slot
    /// `route.1` — what the fence rules on.
    Msg { route: (u16, u16), bytes: Vec<u8> },
    /// Relocation control: addressed to a member, bypasses the fence.
    Control(Control),
}

/// The relocation protocol's steps (one relocation in flight at a time).
enum Control {
    /// The holder announces the hand-over of `slot` to the target.
    Offer { slot: u16 },
    /// The shipped shard: an encoded [`ChunkState`], packaged under the
    /// holder's fence epoch `epoch`.
    Data {
        slot: u16,
        epoch: u64,
        chunk: Vec<u8>,
    },
    /// The target's accept (its epoch), or the new owner's commit
    /// broadcast (the epoch every fence adopts).
    Ack { slot: u16, epoch: u64 },
}

/// One place of the deterministic mesh. Its share of the protocol state
/// is the shards of the slots it holds.
struct Member {
    map: ChunkMap,
    inbox: VecDeque<Packet>,
    /// Protocol packets held at the fence until the map catches up.
    parked: Vec<Packet>,
    draining: bool,
    drain_started_ns: u64,
}

impl Member {
    fn new(map: ChunkMap) -> Self {
        Member {
            map,
            inbox: VecDeque::new(),
            parked: Vec::new(),
            draining: false,
            drain_started_ns: 0,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RelocStage {
    /// `Offer` sent, waiting for the target's accept.
    Offered,
    /// `Data` sent; the holder's map already points at the target.
    Shipped,
    /// Installed; waiting for every member to process the commit
    /// broadcast.
    Committing,
}

/// The single relocation in flight (they serialize the fence).
#[derive(Debug)]
struct Relocation {
    slot: u16,
    from: u16,
    to: u16,
    stage: RelocStage,
    /// Members that have not yet processed the commit broadcast.
    acks_outstanding: BTreeSet<u16>,
    /// The epoch the commit broadcast carries.
    commit_epoch: u64,
    started_ns: u64,
}

/// The elastic mesh engine. Construct with [`ElasticEngine::new`],
/// optionally attach a churn plan / recorder, then
/// [`run`](ElasticEngine::run).
pub struct ElasticEngine<A: DpApp> {
    app: Arc<A>,
    pattern: Arc<dyn DagPattern>,
    config: ElasticConfig,
    plan: ElasticPlan,
    recorder: Recorder,
}

impl<A: DpApp> ElasticEngine<A> {
    /// A quiet engine (no churn plan) over `app` and `pattern`.
    pub fn new(app: A, pattern: impl DagPattern + 'static, config: ElasticConfig) -> Self {
        ElasticEngine {
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            plan: ElasticPlan::quiet(0),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a membership-churn plan.
    pub fn with_plan(mut self, plan: ElasticPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Attaches a flight recorder: joins, drains and relocations become
    /// spans on the timeline.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the DAG to completion under the configured churn plan.
    pub fn run(&self) -> Result<ElasticRun<A::Value>, EngineError> {
        Machine::new(self)?.run()
    }
}

/// One run: the protocol's state and the mesh that drives it.
struct Machine<A: DpApp> {
    /// One shard per chunk slot, addressed by the protocol as place
    /// `PlaceId(slot)` whoever holds it.
    place: Place<A>,
    mesh: Mesh,
    bufs: WorkerBufs,
    /// Remote-value cache entries per chunk.
    cache_capacity: usize,
}

/// Everything of a run that is not vertex-protocol state — membership,
/// the fence, the relocation in flight and the books — and the
/// protocol's [`Sink`].
struct Mesh {
    recorder: Recorder,
    policy: Option<ElasticPolicy>,
    /// Slot → the member its shard lives at; `None` while the shard is a
    /// payload on the wire.
    holder: Vec<Option<u16>>,
    /// Slot → runnable local vertices, in arrival order.
    ready: Vec<VecDeque<u32>>,
    members: BTreeMap<u16, Member>,
    /// The member whose turn is running: protocol sends leave from it.
    acting: u16,
    roster: RosterBoard,
    in_flight: Option<Relocation>,
    /// `(slot, preferred target)` — targets are re-validated (and
    /// retargeted) when the relocation starts.
    reloc_queue: VecDeque<(u16, u16)>,
    /// The plan's events still to fire, ascending.
    events: VecDeque<ElasticEvent>,
    finished: u64,
    last_policy_check: u64,
    report: ElasticReport,
}

impl<V: VertexValue> Sink<V> for Mesh {
    fn send(&mut self, src: PlaceId, dst: PlaceId, msg: Msg<V>) {
        self.route(self.acting, src.0, dst.0, &msg);
    }

    fn ready(&mut self, slot: usize, li: u32) {
        self.ready[slot].push_back(li);
    }

    fn stamp(&mut self, _place: PlaceId, _kind: EventKind, _arg: u64) {}

    fn exec(&mut self, _: usize, _: PlaceId, id: VertexId, _: Vec<VertexId>, _: Vec<V>) {
        unreachable!("the elastic mesh runs every vertex at its owner, {id} included");
    }

    fn finished(&mut self, _slot: usize, _id: VertexId, _value: &V) {
        self.report.computed += 1;
        self.finished += 1;
    }
}

impl Mesh {
    /// Protocol traffic from slot `src` (at member `from`) to slot
    /// `dst`: the *sender's* map says who holds `dst` now.
    fn route<V: VertexValue>(&mut self, from: u16, src: u16, dst: u16, msg: &Msg<V>) {
        if let Some(owner) = self.members[&from].map.owner(dst) {
            let bytes = encode_to_vec(msg);
            let route = (src, dst);
            self.post(from, owner.0, Body::Msg { route, bytes });
        }
    }

    /// Puts `body` in `to`'s inbox under `src`'s current epoch.
    fn post(&mut self, src: u16, to: u16, body: Body) {
        let epoch = self.members[&src].map.epoch();
        self.deliver(to, Packet { src, epoch, body });
    }

    fn deliver(&mut self, to: u16, pkt: Packet) {
        // A departed member: the mesh shrugs.
        if let Some(m) = self.members.get_mut(&to) {
            m.inbox.push_back(pkt);
        }
    }

    fn slots(&self) -> u16 {
        self.holder.len() as u16
    }

    fn held_slots(&self, p: u16) -> Vec<u16> {
        (0..self.slots())
            .filter(|&s| self.holder[s as usize] == Some(p))
            .collect()
    }

    /// The non-draining member holding the fewest chunks (lowest id on
    /// ties), excluding `not`.
    fn least_loaded_excluding(&self, not: Option<u16>) -> Option<u16> {
        self.members
            .iter()
            .filter(|(&q, m)| Some(q) != not && !m.draining)
            .map(|(&q, _)| (self.held_slots(q).len(), q))
            .min()
            .map(|(_, q)| q)
    }

    /// The members `keep` holds for, ascending.
    fn members_that(&self, keep: impl Fn(&Member) -> bool) -> Vec<u16> {
        let kept = self.members.iter().filter(|(_, m)| keep(m));
        kept.map(|(&p, _)| p).collect()
    }

    /// `(slot, from, to)` of the relocation in flight, if it is at `stage`.
    fn relocating(&self, stage: RelocStage) -> Option<(u16, u16, u16)> {
        let rel = self.in_flight.as_ref().filter(|rel| rel.stage == stage);
        rel.map(|rel| (rel.slot, rel.from, rel.to))
    }

    /// The highest-epoch map in the mesh: whoever adopts it is never
    /// behind a commit broadcast it will not receive.
    fn newest_map(&self) -> ChunkMap {
        let newest = self.members.values().max_by_key(|m| m.map.epoch());
        newest.expect("place 0 is always a member").map.clone()
    }

    /// A membership or relocation span from `start_ns` to now on
    /// `place`'s runtime track.
    fn span(&self, place: u16, kind: EventKind, start_ns: u64, arg: u16) {
        let now = self.recorder.now_ns();
        self.recorder
            .span(place, RUNTIME_WORKER, kind, start_ns, now, u64::from(arg));
    }

    fn note_mesh_size(&mut self) {
        let sample = (self.finished, self.members.len() as u16);
        self.report.mesh_sizes.push(sample);
    }

    /// `p`'s fence advanced: what it parked re-enters its inbox.
    fn replay_parked(&mut self, p: u16) {
        if let Some(m) = self.members.get_mut(&p) {
            self.report.parked_replayed += m.parked.len() as u64;
            m.inbox.extend(m.parked.drain(..));
        }
    }
}

impl<A: DpApp> Machine<A> {
    fn new(engine: &ElasticEngine<A>) -> Result<Self, EngineError> {
        let pattern = engine.pattern.clone();
        let total = pattern.vertex_count();
        // What every engine does unless told otherwise: the validation
        // rule and the cache size of the default configuration.
        let defaults = EngineConfig::paper(1);
        validate(&defaults, pattern.as_ref())?;
        let mut members = match &engine.config.initial_members {
            Some(m) => m.clone(),
            None => (0..engine.config.founding).collect(),
        };
        members.sort_unstable();
        members.dedup();
        if members.first() != Some(&0) {
            return Err(EngineError::Job(
                "elastic mesh: place 0 must be a member".into(),
            ));
        }
        let next_place = members[members.len() - 1] + 1;
        let capacity = engine.config.capacity.max(next_place);
        let slots = 2 * capacity;
        let dist = Arc::new(Dist::new(
            Region2D::new(pattern.height(), pattern.width()),
            DistKind::BlockCol,
            (0..slots).map(PlaceId).collect(),
        ));
        let roster = RosterBoard::new(next_place, capacity);
        for p in (0..next_place).filter(|p| !members.contains(p)) {
            // Resumed meshes may have holes (earlier drains); the roster
            // records them as Left so ids are not reused.
            let _ = roster.start_drain(PlaceId(p));
            let _ = roster.leave(PlaceId(p));
        }
        let holder: Vec<Option<u16>> = (0..slots as usize)
            .map(|s| Some(members[s % members.len()]))
            .collect();
        let map = ChunkMap::new(holder.iter().flatten().map(|&p| PlaceId(p)).collect());
        let mut events = engine.plan.events.clone();
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap_or(std::cmp::Ordering::Equal));
        let mut machine = Machine {
            place: Place {
                app: engine.app.clone(),
                pattern,
                dist,
                shards: Vec::new(),
                stats: StatsBoard::new(slots),
                topo: Topology::flat(slots),
                net: NetworkModel::tianhe_like(),
                schedule: ScheduleStrategy::Local,
                comms: CommsMode::Pull,
                agg: None,
            },
            mesh: Mesh {
                recorder: engine.recorder.clone(),
                policy: engine.config.policy.clone(),
                holder,
                ready: vec![VecDeque::new(); slots as usize],
                acting: 0,
                report: ElasticReport {
                    total,
                    next_place,
                    mesh_sizes: vec![(0, members.len() as u16)],
                    ..ElasticReport::default()
                },
                members: members
                    .into_iter()
                    .map(|p| (p, Member::new(map.clone())))
                    .collect(),
                roster,
                in_flight: None,
                reloc_queue: VecDeque::new(),
                events: events.into(),
                finished: 0,
                last_policy_check: 0,
            },
            bufs: WorkerBufs::default(),
            cache_capacity: defaults.cache_capacity,
        };
        machine.build(None);
        Ok(machine)
    }

    // ---- main loop ------------------------------------------------

    fn run(mut self) -> Result<ElasticRun<A::Value>, EngineError> {
        self.drive()?;
        Ok(self.finish())
    }

    fn finish(mut self) -> ElasticRun<A::Value> {
        // Quiescent as `protocol_order.rs` demands of every driver.
        debug_assert!(self.place.shards.iter().all(|shard| {
            let pending = shard.pending.lock();
            let closed = |open: &AtomicU32| open.load(Ordering::Acquire) == 0;
            pending.parked.is_empty()
                && pending.waiters.is_empty()
                && shard.indegree.iter().all(closed)
        }));
        let mut report = std::mem::take(&mut self.mesh.report);
        report.final_members = self.mesh.members.keys().copied().collect();
        report.final_epoch = self.mesh.newest_map().epoch();
        let run_report = RunReport {
            vertices_total: report.total,
            vertices_computed: report.computed,
            comm: self.place.stats.snapshot(),
            epochs: 1 + report.kills as u32,
            ..RunReport::default()
        };
        let shards = std::mem::take(&mut self.place.shards);
        let array = into_array(shards, self.place.dist.clone());
        ElasticRun {
            result: DagResult::new(array, run_report),
            report,
        }
    }

    /// Runs until every vertex has finished, then settles: in-flight
    /// relocations finish and pending drains complete, so the final
    /// membership is clean for the next job.
    fn drive(&mut self) -> Result<(), EngineError> {
        let total = self.mesh.report.total;
        let step_limit = 200 * total.max(1) + 20_000;
        let (mut steps, mut idle_rounds) = (0u64, 0u32);
        loop {
            let mesh = &self.mesh;
            let computing = mesh.finished < total;
            let busy = |m: &Member| m.draining || !m.inbox.is_empty();
            if computing {
                self.fire_due_events();
                self.policy_tick();
            } else if mesh.in_flight.is_none()
                && mesh.reloc_queue.is_empty()
                && !mesh.members.values().any(busy)
            {
                return Ok(());
            }
            idle_rounds = if self.round() { 0 } else { idle_rounds + 1 };
            steps += 1;
            if idle_rounds > IDLE_LIMIT || steps > step_limit {
                if !computing {
                    return Ok(()); // report the mesh as-is rather than spin
                }
                // A stall is an engine bug by definition: say where.
                let mesh = &self.mesh;
                let members = mesh.members.iter();
                let backlog = members.map(|(p, m)| (p, m.inbox.len(), m.parked.len()));
                eprintln!(
                    "elastic mesh stalled at {}/{total}: relocating {:?}; (member, inbox, parked \
                     at the fence) {:?}",
                    mesh.finished,
                    mesh.in_flight,
                    backlog.collect::<Vec<_>>()
                );
                let finished = mesh.finished;
                return Err(EngineError::Stalled { finished, total });
            }
        }
    }

    /// One round-robin pass: the next relocation starts if none is in
    /// flight, every member takes a turn, finished drains leave.
    fn round(&mut self) -> bool {
        self.start_next_relocation();
        let mut any = false;
        let order: Vec<u16> = self.mesh.members.keys().copied().collect();
        for p in order {
            any |= self.member_turn(p);
        }
        any | self.complete_drains()
    }

    /// One packet, or — for a member that is not draining — one ready
    /// vertex of the first held slot that has one.
    fn member_turn(&mut self, p: u16) -> bool {
        let Some(m) = self.mesh.members.get_mut(&p) else {
            return false; // killed earlier this round
        };
        if let Some(pkt) = m.inbox.pop_front() {
            self.process_packet(p, pkt);
            return true;
        }
        if m.draining {
            return false;
        }
        for slot in self.mesh.held_slots(p) {
            if let Some(li) = self.mesh.ready[slot as usize].pop_front() {
                self.execute(p, slot as usize, li);
                return true;
            }
        }
        false
    }

    /// The owner-side path every driver runs: gather (or park on
    /// pulls), compute, publish.
    fn execute(&mut self, p: u16, slot: usize, li: u32) {
        let shard = &self.place.shards[slot];
        if shard.finished[li as usize].load(Ordering::Acquire) {
            return;
        }
        self.mesh.acting = p;
        let Some((_, values)) = prepare(&self.place, &mut self.mesh, slot, li, &mut self.bufs)
        else {
            return; // parked awaiting pulls
        };
        let (i, j) = shard.points[li as usize];
        let id = VertexId::new(i, j);
        let view = DepView::new(&self.bufs.deps, &values);
        let value = self.place.app.compute(id, &view);
        publish(
            &self.place,
            &mut self.mesh,
            slot,
            li,
            id,
            value,
            &mut self.bufs,
        );
    }

    /// Builds every shard — fresh, or from the survivors' finished
    /// values after a kill — and returns how many cells start finished.
    fn build(&mut self, prior: Option<&DistArray<A::Value>>) -> u64 {
        let place = &mut self.place;
        let pattern = place.pattern.as_ref();
        let (shards, kept) = build_shards(
            pattern,
            &place.dist,
            prior,
            None,
            None,
            self.cache_capacity,
            None,
        );
        place.shards = shards;
        (0..self.mesh.slots()).for_each(|slot| self.adopt_ready(slot));
        kept
    }

    /// Puts the shard `state` describes in its slot.
    fn install(&mut self, state: ChunkState<A::Value>, cache_capacity: usize) {
        let (place, slot) = (&mut self.place, state.slot);
        let pattern = place.pattern.as_ref();
        place.shards[slot as usize] =
            Shard::from_chunk(pattern, &place.dist, state, cache_capacity);
        self.adopt_ready(slot);
    }

    /// Moves what [`build_shards`] / [`Shard::from_chunk`] queued on the
    /// shard's own ready list onto the mesh's.
    fn adopt_ready(&mut self, slot: u16) {
        let shard = &self.place.shards[slot as usize];
        self.mesh.ready[slot as usize] = std::iter::from_fn(|| shard.ready.pop()).collect();
    }

    // ---- events & policy ------------------------------------------

    fn fire_due_events(&mut self) {
        while let Some(&ev) = self.mesh.events.front() {
            let due = (ev.at * self.mesh.report.total as f64).ceil() as u64;
            if self.mesh.finished < due {
                break;
            }
            self.mesh.events.pop_front();
            match ev.verb {
                ElasticVerb::Join => self.do_join(),
                ElasticVerb::Drain { place } => self.do_drain(place.0),
                ElasticVerb::Relocate { slot } => {
                    let slot = slot % self.mesh.slots();
                    let from = self.mesh.holder[slot as usize];
                    if let Some(to) = self.mesh.least_loaded_excluding(from) {
                        self.mesh.reloc_queue.push_back((slot, to));
                    }
                }
                ElasticVerb::Kill { place } => self.do_kill(place.0),
            }
        }
    }

    fn policy_tick(&mut self) {
        let mesh = &self.mesh;
        let Some(policy) = mesh.policy.clone() else {
            return;
        };
        if mesh.in_flight.is_some()
            || !mesh.reloc_queue.is_empty()
            || mesh.members.values().any(|m| m.draining)
            || mesh.finished < mesh.last_policy_check + policy.check_every
        {
            return;
        }
        let backlog: usize = mesh.ready.iter().map(VecDeque::len).sum();
        let count = mesh.members.len();
        let avg = backlog / count.max(1);
        self.mesh.last_policy_check = self.mesh.finished;
        if avg > policy.grow_backlog && (count as u16) < policy.max_places {
            self.do_join();
        } else if avg < policy.shrink_backlog && (count as u16) > policy.min_places {
            // Shed the highest-id member; place 0 never drains.
            if let Some(&victim) = self.mesh.members.keys().max() {
                self.do_drain(victim);
            }
        }
    }

    // ---- membership verbs -----------------------------------------

    fn do_join(&mut self) {
        let mesh = &mut self.mesh;
        let addr = format!("elastic:v{}", mesh.roster.version());
        let Some(p) = mesh.roster.admit(addr) else {
            return; // at capacity
        };
        mesh.roster.activate(p).expect("admitted slot activates");
        mesh.report.next_place = mesh.report.next_place.max(p.0 + 1);
        mesh.span(p.0, EventKind::Join, mesh.recorder.now_ns(), p.0);
        let joiner = Member::new(mesh.newest_map());
        mesh.members.insert(p.0, joiner);
        mesh.report.joins += 1;
        mesh.note_mesh_size();
        // Rebalance: queue the joiner's fair share, peeled off the
        // most-loaded members. `spare` holds, per donor, the chunks it
        // has that are not moving already and how many it has given; a
        // donor's load counts each gift twice, so it keeps half.
        let share = (mesh.slots() as usize / mesh.members.len()).max(1);
        let mut moving: BTreeSet<u16> = mesh.reloc_queue.iter().map(|&(s, _)| s).collect();
        moving.extend(mesh.in_flight.as_ref().map(|rel| rel.slot));
        let donors = mesh.members_that(|m| !m.draining);
        let donors = donors.into_iter().filter(|&q| q != p.0);
        let mut spare: Vec<(Vec<u16>, usize)> = donors.map(|q| (mesh.held_slots(q), 0)).collect();
        spare
            .iter_mut()
            .for_each(|(left, _)| left.retain(|s| !moving.contains(s)));
        let load = |(left, given): &(Vec<u16>, usize)| left.len().saturating_sub(*given);
        for _ in 0..share {
            // Reversed, so that the lowest id wins a tie.
            let best = spare.iter_mut().rev().max_by_key(|d| load(d));
            let Some(donor) = best.filter(|d| load(d) >= 2) else {
                break;
            };
            donor.1 += 1;
            let slot = donor.0.pop().expect("a load of two has a chunk");
            mesh.reloc_queue.push_back((slot, p.0));
        }
    }

    fn do_drain(&mut self, place: u16) {
        let mesh = &mut self.mesh;
        let non_draining = mesh.members.values().filter(|m| !m.draining).count();
        let eligible = place != 0
            && non_draining >= 2
            && mesh.members.get(&place).is_some_and(|m| !m.draining);
        if !eligible || mesh.roster.start_drain(PlaceId(place)).is_err() {
            return;
        }
        let m = mesh.members.get_mut(&place).expect("checked above");
        m.draining = true;
        m.drain_started_ns = mesh.recorder.now_ns();
        mesh.report.drains += 1;
        // Queue everything it holds; round-robin over the least-loaded
        // survivors. Targets are re-validated at relocation start.
        let mut targets = mesh.members_that(|m| !m.draining);
        targets.sort_by_key(|&q| (mesh.held_slots(q).len(), q));
        for (k, slot) in mesh.held_slots(place).into_iter().enumerate() {
            mesh.reloc_queue
                .push_back((slot, targets[k % targets.len()]));
        }
    }

    /// Abrupt death, recovered like a fault in any other engine: the
    /// epoch ends, the survivors' finished values seed the next one.
    fn do_kill(&mut self, victim: u16) {
        if victim == 0 || !self.mesh.members.contains_key(&victim) || self.mesh.members.len() <= 1 {
            return;
        }
        self.mesh.report.kills += 1;
        // Lost: everything the victim held, plus a payload that died in
        // its inbox mid-relocation.
        let mut lost = self.mesh.held_slots(victim);
        lost.extend(self.resolve_in_flight_for_kill(victim));
        for &slot in &lost {
            self.vacate(slot);
        }
        let mesh = &mut self.mesh;
        mesh.members.remove(&victim);
        mesh.roster.mark_dead(PlaceId(victim));
        // Epoch repair: a kill mid-relocation can leave the shipper or
        // the target one epoch ahead. Everyone adopts the newest map
        // before the uniform re-registrations below, so fences stay
        // identical.
        let truth = mesh.newest_map();
        for m in mesh.members.values_mut() {
            if m.map.epoch() < truth.epoch() {
                m.map = truth.clone();
            }
            // The abandoned epoch's protocol traffic dies with it, as
            // under every engine; relocation control survives.
            m.inbox.retain(|pkt| matches!(pkt.body, Body::Control(_)));
            m.parked.clear();
        }
        for &slot in &lost {
            let to = mesh.least_loaded_excluding(None).expect("place 0 survives");
            mesh.holder[slot as usize] = Some(to);
            for m in mesh.members.values_mut() {
                m.map.relocate(slot, PlaceId(to));
            }
        }
        // The paper's recovery (§VI-D): keep the surviving finished
        // cells, recount every indegree from them, recompute the rest.
        let shards = std::mem::take(&mut self.place.shards);
        let prior = into_array(shards, self.place.dist.clone());
        let kept = self.build(Some(&prior));
        self.mesh.report.recomputed += self.mesh.finished - kept;
        self.mesh.finished = kept;
        self.mesh.note_mesh_size();
    }

    /// Settles the relocation in flight before a kill's recovery. What
    /// is left of a commit broadcast is covered by the epoch repair (the
    /// target's map is the newest) and its queued acks become no-ops.
    /// Returns the slot whose payload died with the victim, if any.
    fn resolve_in_flight_for_kill(&mut self, victim: u16) -> Option<u16> {
        let rel = self.mesh.in_flight.take()?;
        match rel.stage {
            // Nothing shipped: between two survivors the hand-over just
            // carries on; a dead holder's chunk is lost with the rest; a
            // dead target aborts (drain leftovers re-queue themselves).
            RelocStage::Offered if rel.from != victim && rel.to != victim => {
                self.mesh.in_flight = Some(rel);
            }
            // The payload died in the victim's inbox: the slot is lost.
            RelocStage::Shipped if rel.to == victim => return Some(rel.slot),
            // The payload survives in a live inbox: install it now, so
            // the recovery sees its finished cells.
            RelocStage::Shipped => {
                let (to, slot) = (rel.to, rel.slot);
                self.mesh.in_flight = Some(rel);
                let inbox = &mut self.mesh.members.get_mut(&to).expect("a survivor").inbox;
                let at = inbox.iter().position(|pkt| {
                    matches!(pkt.body, Body::Control(Control::Data { slot: s, .. }) if s == slot)
                });
                let pkt = at.and_then(|at| inbox.remove(at));
                self.process_packet(to, pkt.expect("a shipped payload is in the inbox"));
                self.mesh.in_flight = None;
            }
            RelocStage::Offered | RelocStage::Committing => {}
        }
        None
    }

    fn complete_drains(&mut self) -> bool {
        let mesh = &mut self.mesh;
        let mut changed = false;
        for d in mesh.members_that(|m| m.draining) {
            let held = mesh.held_slots(d);
            // Re-queue leftovers (aborted relocations, late arrivals).
            let rel = mesh.in_flight.as_ref();
            let mut busy: BTreeSet<u16> = mesh.reloc_queue.iter().map(|&(s, _)| s).collect();
            busy.extend(rel.map(|rel| rel.slot));
            for &s in held.iter().filter(|s| !busy.contains(s)) {
                if let Some(to) = mesh.least_loaded_excluding(Some(d)) {
                    mesh.reloc_queue.push_back((s, to));
                }
            }
            let involved = rel.is_some_and(|r| r.from == d || r.to == d);
            let m = &mesh.members[&d];
            if held.is_empty() && !involved && m.inbox.is_empty() && m.parked.is_empty() {
                mesh.span(d, EventKind::Drain, m.drain_started_ns, d);
                let _ = mesh.roster.leave(PlaceId(d));
                mesh.members.remove(&d);
                mesh.note_mesh_size();
                changed = true;
            }
        }
        changed
    }

    // ---- relocation -----------------------------------------------

    fn start_next_relocation(&mut self) {
        if self.mesh.in_flight.is_some() {
            return;
        }
        while let Some((slot, want_to)) = self.mesh.reloc_queue.pop_front() {
            let mesh = &self.mesh;
            // A slot lost to a kill while queued has a new holder or
            // none; either way the plan's intent is gone.
            let Some(from) = mesh.holder[slot as usize] else {
                continue;
            };
            let takes = |q: &u16| *q != from && mesh.members.get(q).is_some_and(|m| !m.draining);
            let wanted = Some(want_to).filter(takes);
            let Some(to) = wanted.or_else(|| mesh.least_loaded_excluding(Some(from))) else {
                continue;
            };
            let started_ns = mesh.recorder.now_ns();
            let offer = Control::Offer { slot };
            self.mesh.post(from, to, Body::Control(offer));
            self.mesh.in_flight = Some(Relocation {
                slot,
                from,
                to,
                stage: RelocStage::Offered,
                acks_outstanding: BTreeSet::new(),
                commit_epoch: 0,
                started_ns,
            });
            return;
        }
    }

    /// `slot`'s shard as the state a [`Control::Data`] ships.
    fn package(&self, slot: u16) -> ChunkState<A::Value> {
        let ready = self.mesh.ready[slot as usize].iter().copied();
        self.place.shards[slot as usize].to_chunk(slot, ready)
    }

    /// `slot`'s shard left this process's memory (shipped, or died with
    /// its holder): nothing of it may be read again.
    fn vacate(&mut self, slot: u16) {
        self.install(ChunkState::empty(slot), 0);
        self.mesh.holder[slot as usize] = None;
    }

    /// The holder received the target's accept: ship the chunk and
    /// advance the local fence. From here until the commit broadcast
    /// lands everywhere, the mesh runs split-epoch — exactly what the
    /// fence exists for.
    fn ship_chunk(&mut self, holder: u16, ack_epoch: u64) {
        let mesh = &mut self.mesh;
        let rel = mesh.in_flight.take().expect("accept implies in-flight");
        let (slot, to) = (rel.slot, rel.to);
        let my_epoch = mesh.members[&holder].map.epoch();
        if ack_epoch != my_epoch || mesh.holder[slot as usize] != Some(holder) {
            // A kill moved the world since the offer: abort; drain
            // leftovers re-queue themselves.
            return;
        }
        mesh.in_flight = Some(Relocation {
            stage: RelocStage::Shipped,
            ..rel
        });
        let data = Control::Data {
            slot,
            epoch: my_epoch,
            chunk: encode_to_vec(&self.package(slot)),
        };
        self.vacate(slot);
        let mesh = &mut self.mesh;
        mesh.post(holder, to, Body::Control(data));
        let m = mesh.members.get_mut(&holder).expect("holder is a member");
        m.map.relocate(slot, PlaceId(to)).expect("owner changes");
        self.fence_advanced(holder, slot);
    }

    /// The target installs a shipped chunk, re-registers ownership and
    /// broadcasts the commit [`Control::Ack`] that advances every fence.
    fn install_chunk(&mut self, target: u16, slot: u16, epoch: u64, payload: &[u8]) {
        let shipped = self.mesh.relocating(RelocStage::Shipped);
        if !shipped.is_some_and(|(s, _, to)| s == slot && to == target) {
            return; // stale payload from an aborted relocation
        }
        let state: ChunkState<A::Value> = decode_exact(payload).expect("a shipped chunk decodes");
        self.mesh.report.cells_moved += state.finished.len() as u64;
        self.mesh.report.chunk_bytes += payload.len() as u64;
        self.mesh.report.chunks_relocated += 1;
        self.install(state, self.cache_capacity);
        let mesh = &mut self.mesh;
        mesh.holder[slot as usize] = Some(target);
        let m = mesh.members.get_mut(&target).expect("target is a member");
        let commit = m.map.relocate(slot, PlaceId(target));
        let commit_epoch = commit.expect("adoption changes the owner");
        debug_assert_eq!(commit_epoch, epoch + 1, "single relocation in flight");
        let mut others: BTreeSet<u16> = mesh.members.keys().copied().collect();
        others.remove(&target);
        for &q in &others {
            let commit = Control::Ack {
                slot,
                epoch: commit_epoch,
            };
            mesh.post(target, q, Body::Control(commit));
        }
        let rel = mesh.in_flight.as_mut().expect("matched above");
        rel.stage = RelocStage::Committing;
        rel.commit_epoch = commit_epoch;
        rel.acks_outstanding = others;
        self.fence_advanced(target, slot);
    }

    // ---- message processing ---------------------------------------

    /// Relocation control goes to its handler; protocol traffic passes
    /// the epoch fence, and what it admits goes to [`handle_msg`].
    fn process_packet(&mut self, p: u16, mut pkt: Packet) {
        let ((src_slot, slot), msg) = match pkt.body {
            Body::Control(control) => return self.on_control(p, pkt.src, control),
            Body::Msg { route, ref bytes } => {
                let msg = decode_exact::<Msg<A::Value>>(bytes);
                (route, msg.expect("in-mesh packets decode"))
            }
        };
        let mesh = &mut self.mesh;
        if mesh.holder[slot as usize] == Some(p) {
            // Holding the shard makes the message valid whatever its
            // stamp says — cell identity does not change across epochs.
            mesh.acting = p;
            let src = PlaceId(src_slot);
            handle_msg(&self.place, mesh, slot as usize, src, msg, &mut self.bufs);
            return;
        }
        let m = mesh.members.get_mut(&p).expect("processing own inbox");
        let owner = m.map.owner(slot);
        if m.map.admit(pkt.epoch) == EpochVerdict::Park || owner == Some(PlaceId(p)) {
            // From an epoch this member has not reached, or registered
            // here with the payload still en route: hold it.
            m.parked.push(pkt);
        } else if matches!(msg, Msg::Pull { .. }) {
            // Drop; the requester re-issues when its fence advances
            // (the commit broadcast guarantees it does).
            mesh.report.stale_dropped += 1;
        } else if let Some(owner) = owner {
            // Values and decrements follow the chunk to where this
            // member's map says it went.
            (pkt.src, pkt.epoch) = (p, m.map.epoch());
            mesh.report.forwarded += 1;
            mesh.deliver(owner.0, pkt);
        }
    }

    fn on_control(&mut self, p: u16, src: u16, control: Control) {
        match control {
            Control::Offer { slot } => {
                // Accept when this is the relocation in flight; a stale
                // offer (aborted by a kill) is ignored.
                if self.mesh.relocating(RelocStage::Offered) == Some((slot, src, p)) {
                    let epoch = self.mesh.members[&p].map.epoch();
                    let ack = Control::Ack { slot, epoch };
                    self.mesh.post(p, src, Body::Control(ack));
                }
            }
            Control::Data { slot, epoch, chunk } => self.install_chunk(p, slot, epoch, &chunk),
            Control::Ack { slot, epoch } => self.on_chunk_ack(p, src, slot, epoch),
        }
    }

    fn on_chunk_ack(&mut self, p: u16, src: u16, slot: u16, epoch: u64) {
        // The holder's accept?
        if self.mesh.relocating(RelocStage::Offered) == Some((slot, p, src)) {
            return self.ship_chunk(p, epoch);
        }
        // A commit broadcast: adopt the new registration (the sender is
        // the new owner) and retire the ack.
        let m = self.mesh.members.get_mut(&p).expect("processing own inbox");
        if m.map.observe_relocation(slot, PlaceId(src), epoch) {
            self.fence_advanced(p, slot);
        }
        let mesh = &mut self.mesh;
        let done = mesh.in_flight.as_mut().is_some_and(|rel| {
            let committing = rel.slot == slot
                && rel.stage == RelocStage::Committing
                && rel.commit_epoch == epoch;
            committing && {
                rel.acks_outstanding.remove(&p);
                rel.acks_outstanding.is_empty()
            }
        });
        if done {
            let rel = mesh.in_flight.take().expect("just matched");
            mesh.span(rel.to, EventKind::Relocate, rel.started_ns, rel.slot);
        }
    }

    /// `p` learnt that `moved` changed hands. What it parked at the
    /// fence replays, and every pull its shards still await from that
    /// slot goes out again — the old holder drops pulls that reach it
    /// after the hand-over.
    fn fence_advanced(&mut self, p: u16, moved: u16) {
        self.mesh.replay_parked(p);
        for slot in self.mesh.held_slots(p) {
            let pending = self.place.shards[slot as usize].pending.lock();
            // Hash-map order must not decide the order of sends.
            let mut awaited: Vec<u64> = pending.waiters.keys().copied().collect();
            drop(pending);
            awaited.sort_unstable();
            for id in awaited.into_iter().map(VertexId::unpack) {
                if self.place.dist.slot_of(id.i, id.j) == moved as usize {
                    self.mesh.report.replayed_pulls += 1;
                    let pull = Msg::<A::Value>::Pull { id };
                    self.mesh.route(p, slot, moved, &pull);
                }
            }
        }
    }
}

/// A mesh that outlives a single job: runs DAGs back to back on the
/// same membership, carrying joins and drains across job boundaries —
/// the autoscaling job server of the elastic mesh.
pub struct ElasticServer {
    capacity: u16,
    policy: Option<ElasticPolicy>,
    recorder: Recorder,
    members: Vec<u16>,
    next_place: u16,
    jobs_run: u64,
}

impl ElasticServer {
    /// A server starting with `founding` members and room for
    /// `capacity`.
    pub fn new(founding: u16, capacity: u16) -> Self {
        let founding = founding.max(1);
        ElasticServer {
            capacity: capacity.max(founding),
            policy: None,
            recorder: Recorder::disabled(),
            members: (0..founding).collect(),
            next_place: founding,
            jobs_run: 0,
        }
    }

    /// Installs an autoscaling policy applied to every job.
    pub fn with_policy(mut self, policy: ElasticPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Attaches a flight recorder shared by every job's engine.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Current members, ascending.
    pub fn members(&self) -> &[u16] {
        &self.members
    }

    /// Jobs completed so far.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// Runs one job on the current mesh under `plan`, then adopts the
    /// membership the run ended with.
    pub fn run_job<A: DpApp>(
        &mut self,
        app: A,
        pattern: impl DagPattern + 'static,
        plan: ElasticPlan,
    ) -> Result<ElasticRun<A::Value>, EngineError> {
        let config = ElasticConfig {
            founding: self.members.len() as u16,
            capacity: self.capacity.max(self.next_place),
            policy: self.policy.clone(),
            initial_members: Some(self.members.clone()),
        };
        let run = ElasticEngine::new(app, pattern, config)
            .with_plan(plan)
            .with_recorder(self.recorder.clone())
            .run()?;
        self.members = run.report.final_members.clone();
        self.next_place = run.report.next_place.max(self.next_place);
        self.jobs_run += 1;
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_apgas::ElasticEvent;
    use dpx10_dag::builtin::Grid3;

    /// A non-commutative mixing kernel: any dropped, duplicated or
    /// reordered dependency value changes the fingerprint.
    struct Mix;

    impl DpApp for Mix {
        type Value = u64;
        fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
            let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ id.pack();
            for (d, v) in deps.iter() {
                h = h.rotate_left(13).wrapping_mul(0x0000_0100_0000_01b3)
                    ^ v.wrapping_add(d.pack());
            }
            h.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn run_plan(founding: u16, capacity: u16, plan: ElasticPlan) -> ElasticRun<u64> {
        ElasticEngine::new(
            Mix,
            Grid3::new(12, 12),
            ElasticConfig::new(founding, capacity),
        )
        .with_plan(plan)
        .run()
        .expect("elastic run completes")
    }

    fn solo_fingerprint() -> u64 {
        run_plan(1, 1, ElasticPlan::quiet(0)).fingerprint()
    }

    fn ev(at: f64, verb: ElasticVerb) -> ElasticEvent {
        ElasticEvent { at, verb }
    }

    #[test]
    fn quiet_elastic_mesh_matches_solo() {
        let solo = solo_fingerprint();
        let run = run_plan(3, 6, ElasticPlan::quiet(1));
        assert_eq!(
            run.fingerprint(),
            solo,
            "distribution must not change values"
        );
        let r = run.report();
        assert_eq!(r.computed, r.total);
        assert_eq!(r.recomputed, 0);
        assert_eq!(r.chunks_relocated, 0);
        assert_eq!(r.final_members, vec![0, 1, 2]);
        assert_eq!(run.get(11, 11), run.try_get(11, 11).unwrap());
    }

    #[test]
    fn relocate_event_moves_a_chunk_without_recompute() {
        let solo = solo_fingerprint();
        let plan = ElasticPlan {
            seed: 2,
            events: vec![
                ev(0.2, ElasticVerb::Relocate { slot: 1 }),
                ev(0.5, ElasticVerb::Relocate { slot: 4 }),
            ],
        };
        let run = run_plan(3, 6, plan);
        assert_eq!(run.fingerprint(), solo);
        let r = run.report();
        assert!(r.chunks_relocated >= 1, "a chunk must actually move");
        assert_eq!(r.recomputed, 0, "relocation is not recompute");
        assert_eq!(r.computed, r.total);
        assert!(r.final_epoch >= 1, "relocation bumps the fence");
    }

    #[test]
    fn grow_to_five_then_drain_to_three_relocates_not_recomputes() {
        let solo = solo_fingerprint();
        let plan = ElasticPlan {
            seed: 3,
            events: vec![
                ev(0.10, ElasticVerb::Join),
                ev(0.15, ElasticVerb::Join),
                ev(0.50, ElasticVerb::Drain { place: PlaceId(3) }),
                ev(0.65, ElasticVerb::Drain { place: PlaceId(4) }),
            ],
        };
        let run = run_plan(3, 6, plan);
        assert_eq!(run.fingerprint(), solo, "churn must not change values");
        let r = run.report();
        assert_eq!(r.joins, 2);
        assert_eq!(r.drains, 2);
        assert!(
            r.chunks_relocated >= 1 && r.cells_moved >= 1,
            "grow/drain moves live state: {r:?}"
        );
        assert_eq!(r.recomputed, 0, "graceful churn never recomputes");
        assert_eq!(r.computed, r.total);
        assert_eq!(r.final_members, vec![0, 1, 2], "mesh returns to founders");
        assert!(
            r.mesh_sizes.iter().any(|&(_, n)| n == 5),
            "the mesh must actually reach 5 members: {:?}",
            r.mesh_sizes
        );
    }

    #[test]
    fn kill_recovers_by_recompute() {
        let solo = solo_fingerprint();
        let plan = ElasticPlan {
            seed: 4,
            events: vec![ev(0.5, ElasticVerb::Kill { place: PlaceId(2) })],
        };
        let run = run_plan(3, 6, plan);
        assert_eq!(run.fingerprint(), solo, "recovery must restore all values");
        let r = run.report();
        assert_eq!(r.kills, 1);
        assert!(r.recomputed > 0, "a mid-run kill loses finished cells");
        assert_eq!(r.computed, r.total + r.recomputed);
        assert_eq!(r.final_members, vec![0, 1]);
    }

    #[test]
    fn kill_during_relocation_keeps_values_correct() {
        let solo = solo_fingerprint();
        // Relocations queue right before the kill fires, so the kill
        // barrier has to resolve whatever stage is in flight.
        let plan = ElasticPlan {
            seed: 5,
            events: vec![
                ev(0.30, ElasticVerb::Relocate { slot: 2 }),
                ev(0.31, ElasticVerb::Relocate { slot: 5 }),
                ev(0.32, ElasticVerb::Kill { place: PlaceId(1) }),
            ],
        };
        let run = run_plan(3, 6, plan);
        assert_eq!(run.fingerprint(), solo);
        assert_eq!(run.report().kills, 1);
        assert_eq!(
            run.report().computed - run.report().recomputed,
            run.report().total
        );
    }

    #[test]
    fn autoscaling_policy_grows_and_sheds() {
        let solo = solo_fingerprint();
        let mut cfg = ElasticConfig::new(2, 6);
        cfg.policy = Some(ElasticPolicy {
            grow_backlog: 0,
            shrink_backlog: 0, // never sheds: avg < 0 is impossible
            min_places: 2,
            max_places: 4,
            check_every: 8,
        });
        let grown = ElasticEngine::new(Mix, Grid3::new(12, 12), cfg)
            .with_plan(ElasticPlan::quiet(6))
            .run()
            .expect("policy run completes");
        assert_eq!(grown.fingerprint(), solo);
        assert!(grown.report().joins >= 1, "backlog must trigger a join");
        assert!(grown.report().final_members.len() <= 4);

        let mut cfg = ElasticConfig::new(4, 6);
        cfg.policy = Some(ElasticPolicy {
            grow_backlog: usize::MAX,
            shrink_backlog: usize::MAX, // always sheds down to min
            min_places: 2,
            max_places: 6,
            check_every: 8,
        });
        let shed = ElasticEngine::new(Mix, Grid3::new(12, 12), cfg)
            .with_plan(ElasticPlan::quiet(7))
            .run()
            .expect("policy run completes");
        assert_eq!(shed.fingerprint(), solo);
        let r = shed.report();
        assert!(r.drains >= 1, "idle mesh must shed members");
        assert_eq!(r.recomputed, 0, "autoscaling never recomputes");
        assert_eq!(r.final_members, vec![0, 1], "sheds to min_places");
    }

    #[test]
    fn server_carries_membership_across_jobs() {
        let solo = solo_fingerprint();
        let mut server = ElasticServer::new(3, 6);
        let grow = ElasticPlan {
            seed: 8,
            events: vec![ev(0.2, ElasticVerb::Join)],
        };
        let first = server.run_job(Mix, Grid3::new(12, 12), grow).unwrap();
        assert_eq!(first.fingerprint(), solo);
        assert_eq!(server.members(), &[0, 1, 2, 3]);
        let drain = ElasticPlan {
            seed: 9,
            events: vec![ev(0.3, ElasticVerb::Drain { place: PlaceId(1) })],
        };
        let second = server.run_job(Mix, Grid3::new(12, 12), drain).unwrap();
        assert_eq!(second.fingerprint(), solo);
        assert_eq!(server.members(), &[0, 2, 3], "ids are not reused");
        assert_eq!(server.jobs_run(), 2);
        // The resumed mesh has a hole at place 1 and still runs clean.
        let third = server
            .run_job(Mix, Grid3::new(12, 12), ElasticPlan::quiet(10))
            .unwrap();
        assert_eq!(third.fingerprint(), solo);
        assert_eq!(third.report().recomputed, 0);
    }

    #[test]
    fn generated_plans_replay_against_the_serial_fingerprint() {
        // A mini differential sweep (the harness runs the full one):
        // generator-produced churn over several seeds, fingerprints
        // pinned to the solo run.
        let solo = solo_fingerprint();
        for seed in 0..12u64 {
            let plan = ElasticPlan::generate(seed, 3, 5);
            let run = run_plan(3, 5, plan.clone());
            assert_eq!(
                run.fingerprint(),
                solo,
                "seed {seed:#x} plan {plan} diverged"
            );
            let r = run.report();
            if r.kills == 0 {
                assert_eq!(
                    r.recomputed, 0,
                    "seed {seed:#x}: churn without kills never recomputes"
                );
            }
        }
    }

    /// A 12×12 machine to drive by hand.
    fn machine(founding: u16, events: Vec<ElasticEvent>) -> Machine<Mix> {
        let plan = ElasticPlan { seed: 21, events };
        let engine = ElasticEngine::new(Mix, Grid3::new(12, 12), ElasticConfig::new(founding, 6));
        Machine::new(&engine.with_plan(plan)).expect("a valid mesh")
    }

    #[test]
    fn chunk_ships_with_a_vertex_parked_on_an_unanswered_pull() {
        // The kill's recount readies cells whose restored dependencies
        // sit in no cache: they park and pull. The relocation queued in
        // the same breath then ships slot 1 from its new holder while
        // one of them still waits for its `PullVal`.
        let mut m = machine(
            3,
            vec![
                ev(0.30, ElasticVerb::Relocate { slot: 1 }),
                ev(0.30, ElasticVerb::Kill { place: PlaceId(1) }),
            ],
        );
        let mut shipped_parked = false;
        while m.mesh.finished < m.mesh.report.total {
            m.fire_due_events();
            // The holder ships in the turn it spends on the accept, so
            // its shard is at ship time what it is now.
            let parked = m
                .mesh
                .relocating(RelocStage::Offered)
                .is_some_and(|(slot, ..)| {
                    let pending = m.place.shards[slot as usize].pending.lock();
                    pending.parked.values().any(|p| p.remaining > 0)
                });
            m.round();
            shipped_parked |= parked && m.mesh.relocating(RelocStage::Offered).is_none();
        }
        m.drive().expect("the mesh settles");
        assert!(shipped_parked, "the plan must ship a parked vertex");
        let run = m.finish(); // asserts quiescence
        assert_eq!(run.fingerprint(), solo_fingerprint());
        assert_eq!(run.report().chunks_relocated, 1, "shipped, not aborted");
        assert!(run.report().recomputed > 0);
    }

    #[test]
    fn a_payload_on_the_wire_outlives_a_third_place_and_dies_with_its_target() {
        for target_dies in [false, true] {
            // Four members hold three chunks each: slot 3 goes to place
            // 0, which leaves place 1 the least loaded for slot 7 — and
            // a hand-over from 3 down to 1 stays `Shipped` across a round.
            let mut m = machine(
                4,
                vec![
                    ev(0.20, ElasticVerb::Relocate { slot: 3 }),
                    ev(0.40, ElasticVerb::Relocate { slot: 7 }),
                ],
            );
            while m.mesh.relocating(RelocStage::Shipped).map(|rel| rel.0) != Some(7) {
                assert!(m.mesh.finished < m.mesh.report.total, "never shipped");
                m.fire_due_events();
                m.round();
            }
            assert_eq!(m.mesh.relocating(RelocStage::Shipped), Some((7, 3, 1)));
            m.do_kill(if target_dies { 1 } else { 2 });
            m.drive().expect("the mesh settles");
            let run = m.finish();
            assert_eq!(run.fingerprint(), solo_fingerprint());
            let r = run.report();
            assert_eq!(r.chunks_relocated, if target_dies { 1 } else { 2 });
            assert_eq!(r.computed - r.recomputed, r.total);
        }
    }
}

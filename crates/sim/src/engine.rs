//! The simulated DPX10 engine.
//!
//! A driver of [`dpx10_core::protocol`] — the one implementation of the
//! vertex protocol, shared with the threaded and socket engines — under
//! a virtual clock. What is the simulator's own is below: the event
//! queue, the cost model (each place has `W` worker slots, a dispatched
//! vertex occupies one for `framework_overhead + compute`, messages
//! arrive after the network model's transfer time), the policy ready
//! queues and the epoch loop — whose steps (pre-flight, begin, recover,
//! finish) are [`dpx10_core::epoch`]'s, the ones the real-time engines
//! run. Runs are bit-for-bit deterministic. A run is observed the way a
//! real one is: through the flight recorder, stamped on the virtual
//! clock.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use dpx10_apgas::{PlaceId, StatsBoard};
use dpx10_core::epoch::{kill_threshold, preflight, Run};
use dpx10_core::protocol::{handle_msg, prepare, publish, Place, Sink, WorkerBufs};
use dpx10_core::state::into_array;
use dpx10_core::{msg::Msg, DagResult, DepView, DpApp, EngineConfig, EngineError, InitOverride};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

use crate::cost::SimConfig;
use crate::event::{EventQueue, SimTime};
use crate::ready::ReadyQueue;

/// The simulator engine for one application run.
pub struct SimEngine<A: DpApp> {
    app: Arc<A>,
    pattern: Arc<dyn DagPattern>,
    config: SimConfig,
    init: Option<InitOverride<A::Value>>,
    recorder: Recorder,
}

enum Ev<V> {
    /// A locally dispatched vertex finishes computing on worker `tid`.
    Done {
        slot: usize,
        li: u32,
        value: V,
        tid: u16,
    },
    /// A remotely shipped vertex finishes computing at `slot`, worker
    /// `tid`.
    ExecDone {
        slot: usize,
        owner: PlaceId,
        id: VertexId,
        value: V,
        tid: u16,
    },
    /// A message arrives at `dst`.
    Arrive {
        src: PlaceId,
        dst: PlaceId,
        msg: Msg<V>,
    },
}

/// A remotely shipped vertex waiting for a worker: `(id, dep ids,
/// dep values)`.
type ExecTask<V> = (VertexId, Vec<VertexId>, Vec<V>);

/// Mutable per-epoch simulation state — and, as the protocol's
/// [`Sink`], where its effects land on the virtual clock.
struct Epoch<'a, A: DpApp> {
    /// The protocol state the handlers run over.
    place: &'a Place<A>,
    /// Virtual time of the event being processed.
    now: SimTime,
    /// Policy-ordered ready lists (supersede the shards' FIFO queues).
    ready: Vec<ReadyQueue>,
    /// Remotely shipped vertices waiting for a worker, per slot.
    exec_queue: Vec<VecDeque<ExecTask<A::Value>>>,
    busy: Vec<u16>,
    queue: EventQueue<Ev<A::Value>>,
    finished: u64,
    total: u64,
    /// The armed fault: victim and the finished count that triggers it.
    threshold: Option<(PlaceId, u64)>,
    /// The victim and virtual time of the fault, once it has fired.
    fault_at: Option<(PlaceId, SimTime)>,
    /// Latest publish time seen.
    last_publish: SimTime,
    /// Accumulated busy nanoseconds per slot.
    busy_ns: Vec<u64>,
    /// Flight recorder (virtual-clock timestamps, shared schema with the
    /// real backends).
    rec: Recorder,
    /// Free worker ids per slot, so concurrent virtual workers land on
    /// distinct timeline tracks. Leased at dispatch, returned on `Done`.
    free_tids: Vec<Vec<u16>>,
}

impl<A: DpApp + 'static> SimEngine<A> {
    /// Creates a simulator for `app` over `pattern` with `config`.
    pub fn new(app: A, pattern: impl DagPattern + 'static, config: SimConfig) -> Self {
        SimEngine {
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            init: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Installs a §VI-E initialisation override.
    pub fn with_init(mut self, init: InitOverride<A::Value>) -> Self {
        self.init = Some(init);
        self
    }

    /// Attaches a flight recorder. Simulated runs stamp events with the
    /// *virtual* clock, so exported timelines show simulated time.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the simulation to completion and returns the results with
    /// `report().sim_time` holding the virtual makespan.
    pub fn run(&self) -> Result<DagResult<A::Value>, EngineError> {
        let cfg = &self.config;
        // What the shared steps read. The simulator always executes
        // through the enumerated adapter view (no aggregation lanes).
        let steps = EngineConfig {
            topology: cfg.topology,
            network: cfg.network,
            dist_kind: cfg.dist_kind.clone(),
            schedule: cfg.schedule,
            comms: cfg.comms,
            cache_capacity: cfg.cache_capacity,
            restore_manner: cfg.restore_manner,
            fault: cfg.fault,
            aggregation: false,
            ..EngineConfig::paper(1)
        };
        preflight(&steps, self.pattern.as_ref())?;

        let places = cfg.topology.places().collect();
        let mut run = Run::new(&self.app, &self.pattern, &steps, self.init.as_ref(), places);
        let total = run.report.vertices_total;
        let mut base: SimTime = 0;
        let mut place_busy: Vec<Duration> = Vec::new();
        // Cumulative across epochs, like the real backends' boards.
        let stats = StatsBoard::new(cfg.topology.num_places());
        let mut fault_pending = cfg.fault;
        let mut makespan_ns: SimTime = 0;
        let mut bufs = WorkerBufs::default();

        let final_array = loop {
            let (place, prefinished) = run.begin(None, &stats);
            let dist = place.dist.clone();
            let nslots = dist.num_slots();
            // Move the seeded FIFO ready lists into policy queues.
            let ready: Vec<ReadyQueue> = place
                .shards
                .iter()
                .map(|shard| {
                    let mut q = ReadyQueue::new(cfg.ready_policy);
                    while let Some(li) = shard.ready.pop() {
                        let (i, j) = shard.points[li as usize];
                        q.push(li, i as u64 + j as u64);
                    }
                    q
                })
                .collect();
            let mut ep = Epoch {
                place: &place,
                now: base,
                ready,
                exec_queue: (0..nslots).map(|_| Default::default()).collect(),
                busy: vec![0; nslots],
                queue: EventQueue::new(),
                finished: prefinished,
                total,
                threshold: fault_pending
                    .map(|p| (p.place, kill_threshold(p.after_fraction, total))),
                fault_at: None,
                last_publish: base,
                busy_ns: vec![0; nslots],
                rec: self.recorder.clone(),
                free_tids: (0..nslots)
                    .map(|_| (0..cfg.topology.threads_per_place).rev().collect())
                    .collect(),
            };
            self.recorder.instant(
                0,
                RUNTIME_WORKER,
                EventKind::EpochStart,
                base,
                u64::from(run.report.epochs - 1),
            );

            if prefinished == total {
                break into_array(place.shards, dist);
            }

            // Seed: dispatch every slot at the epoch base time.
            for slot in 0..nslots {
                self.dispatch(&mut ep, slot, &mut bufs);
            }

            // Main event loop.
            let outcome = loop {
                if ep.finished >= total {
                    break EpochEnd::Complete;
                }
                if let Some((victim, _)) = ep.fault_at {
                    break EpochEnd::Fault(victim);
                }
                let Some((t, ev)) = ep.queue.pop() else {
                    break EpochEnd::Stalled;
                };
                ep.now = t;
                let slot = match ev {
                    Ev::Done {
                        slot,
                        li,
                        value,
                        tid,
                    } => {
                        ep.release(slot, tid);
                        let (i, j) = place.shards[slot].points[li as usize];
                        publish(
                            &place,
                            &mut ep,
                            slot,
                            li,
                            VertexId::new(i, j),
                            value,
                            &mut bufs,
                        );
                        slot
                    }
                    Ev::ExecDone {
                        slot,
                        owner,
                        id,
                        value,
                        tid,
                    } => {
                        ep.release(slot, tid);
                        ep.send(dist.places()[slot], owner, Msg::ExecResult { id, value });
                        slot
                    }
                    Ev::Arrive { src, dst, msg } => {
                        let Some(slot) = dist.places().iter().position(|&p| p == dst) else {
                            continue;
                        };
                        handle_msg(&place, &mut ep, slot, src, msg, &mut bufs);
                        slot
                    }
                };
                self.dispatch(&mut ep, slot, &mut bufs);
            };

            makespan_ns = makespan_ns.max(ep.last_publish);
            if place_busy.len() < ep.busy_ns.len() {
                place_busy.resize(ep.busy_ns.len(), Duration::ZERO);
            }
            for (slot, &ns) in ep.busy_ns.iter().enumerate() {
                place_busy[slot] += Duration::from_nanos(ns);
            }

            match outcome {
                EpochEnd::Complete => break into_array(place.shards, dist),
                EpochEnd::Stalled => {
                    return Err(EngineError::Stalled {
                        finished: ep.finished,
                        total,
                    })
                }
                EpochEnd::Fault(victim) => {
                    let fault_time = ep.fault_at.expect("fault recorded").1;
                    let snapshot = into_array(place.shards, dist);
                    let took = run.recover(&snapshot, &[victim], &cfg.cost.recovery);
                    base = fault_time + took.as_nanos() as SimTime;
                    self.recorder.instant(
                        victim.0,
                        RUNTIME_WORKER,
                        EventKind::Fault,
                        fault_time,
                        u64::from(run.report.epochs - 1),
                    );
                    self.recorder.span(
                        0,
                        RUNTIME_WORKER,
                        EventKind::Recovery,
                        fault_time,
                        base,
                        u64::from(run.report.epochs - 1),
                    );
                    fault_pending = None;
                }
            }
        };

        let comm = stats.snapshot();
        run.report.vertices_computed = comm.tasks_run;
        run.report.sim_time = Duration::from_nanos(makespan_ns.max(base));
        Ok(run.finish(final_array, comm, place_busy))
    }

    /// Fills the free worker slots of `slot` with ready work at the
    /// current virtual time.
    fn dispatch(&self, ep: &mut Epoch<'_, A>, slot: usize, bufs: &mut WorkerBufs) {
        let place = ep.place;
        let me = place.dist.places()[slot];
        if ep.fault_at.is_some_and(|(victim, _)| victim == me) {
            return; // dead place dispatches nothing
        }
        let cost = &self.config.cost;
        let t = ep.now;
        let done_at = t + (cost.framework_overhead + cost.compute).as_nanos() as SimTime;
        while ep.busy[slot] < place.topo.threads_per_place {
            // Remotely shipped work first (it already consumed scheduling
            // effort at its owner), then the local ready list.
            if let Some((id, dep_ids, dep_values)) = ep.exec_queue[slot].pop_front() {
                let value = self.app.compute(id, &DepView::new(&dep_ids, &dep_values));
                let owner = place.dist.place_of(id.i, id.j);
                let tid = ep.occupy(slot, id, done_at);
                let ev = Ev::ExecDone {
                    slot,
                    owner,
                    id,
                    value,
                    tid,
                };
                ep.queue.push(done_at, ev);
                continue;
            }
            let Some(li) = ep.ready[slot].pop() else {
                break;
            };
            let shard = &place.shards[slot];
            if shard.finished[li as usize].load(Ordering::Relaxed) {
                continue;
            }
            let Some((target, values)) = prepare(place, ep, slot, li, bufs) else {
                continue; // parked on pulls; no worker consumed
            };
            let (i, j) = shard.points[li as usize];
            let id = VertexId::new(i, j);
            if target != me {
                let msg = Msg::Exec {
                    id,
                    dep_ids: std::mem::take(&mut bufs.deps),
                    dep_values: values.into_owned(),
                };
                // Shipping costs the owner its scheduling overhead only.
                let at = t + cost.framework_overhead.as_nanos() as SimTime;
                ep.send_at(at, me, target, msg);
                continue;
            }
            let value = self.app.compute(id, &values.view(&bufs.deps));
            let tid = ep.occupy(slot, id, done_at);
            let ev = Ev::Done {
                slot,
                li,
                value,
                tid,
            };
            ep.queue.push(done_at, ev);
        }
    }
}

enum EpochEnd {
    Complete,
    Fault(PlaceId),
    Stalled,
}

impl<A: DpApp> Epoch<'_, A> {
    /// Leases a worker of `slot` to vertex `id` from now until `done_at`.
    fn occupy(&mut self, slot: usize, id: VertexId, done_at: SimTime) -> u16 {
        self.busy[slot] += 1;
        self.busy_ns[slot] += done_at - self.now;
        let tid = self.free_tids[slot].pop().unwrap_or(0);
        let me = self.place.dist.places()[slot];
        self.rec.span(
            me.0,
            tid,
            EventKind::VertexCompute,
            self.now,
            done_at,
            id.pack(),
        );
        tid
    }

    /// Returns worker `tid` of `slot` to the free pool.
    fn release(&mut self, slot: usize, tid: u16) {
        self.busy[slot] -= 1;
        self.free_tids[slot].push(tid);
    }

    /// Prices a message leaving at `t` and enqueues its arrival; local
    /// sends are free.
    fn send_at(&mut self, t: SimTime, src: PlaceId, dst: PlaceId, msg: Msg<A::Value>) {
        let bytes = msg.wire_size();
        let arrive = if src == dst {
            t
        } else {
            let place = self.place;
            let cost = place.net.transfer_time(&place.topo, src, dst, bytes);
            place.stats.place(src).on_send(bytes, cost);
            self.rec
                .instant(src.0, RUNTIME_WORKER, EventKind::MsgSend, t, bytes as u64);
            t + cost.as_nanos() as SimTime
        };
        self.queue.push(arrive, Ev::Arrive { src, dst, msg });
    }
}

impl<A: DpApp> Sink<A::Value> for Epoch<'_, A> {
    fn send(&mut self, src: PlaceId, dst: PlaceId, msg: Msg<A::Value>) {
        self.send_at(self.now, src, dst, msg);
    }

    fn ready(&mut self, slot: usize, li: u32) {
        let (i, j) = self.place.shards[slot].points[li as usize];
        self.ready[slot].push(li, i as u64 + j as u64);
    }

    fn stamp(&mut self, place: PlaceId, kind: EventKind, arg: u64) {
        self.rec
            .instant(place.0, RUNTIME_WORKER, kind, self.now, arg);
    }

    fn exec(
        &mut self,
        slot: usize,
        _src: PlaceId,
        id: VertexId,
        dep_ids: Vec<VertexId>,
        dep_values: Vec<A::Value>,
    ) {
        self.exec_queue[slot].push_back((id, dep_ids, dep_values));
    }

    /// Computation is counted at publish, not dispatch: work stranded in
    /// flight by an epoch abort was never visible to anyone, so it must
    /// not inflate the recomputation count recovery is judged by.
    fn finished(&mut self, slot: usize, _id: VertexId, _value: &A::Value) {
        let me = self.place.dist.places()[slot];
        self.place.stats.place(me).on_task();
        self.finished += 1;
        self.last_publish = self.now;
        if let Some((victim, at)) = self.threshold {
            if self.finished >= at && self.fault_at.is_none() && self.finished < self.total {
                self.fault_at = Some((victim, self.now));
            }
        }
    }
}

//! The simulated DPX10 engine.
//!
//! A driver of [`dpx10_core::protocol`] — the one implementation of the
//! vertex protocol, shared with the threaded and socket engines — under
//! a virtual clock. What is the simulator's own is below: the event
//! queue, the cost model (each place has [`SimConfig::workers`] worker
//! slots, a dispatched vertex occupies one for `framework_overhead +
//! compute`, messages arrive after the network model's transfer time)
//! and the epoch loop — whose steps (pre-flight, begin, recover, finish)
//! are [`dpx10_core::epoch`]'s, the ones the real-time engines run.
//! Ready vertices go where every host puts them, the shard's
//! `ReadyList`; the simulator runs no cursors, so each list is FIFO.
//! Runs are bit-for-bit deterministic. A run is observed the way a real
//! one is: through the flight recorder, stamped on the virtual clock.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use dpx10_apgas::{PlaceId, StatsBoard};
use dpx10_core::epoch::{kill_threshold, preflight, Run};
use dpx10_core::protocol::{handle_msg, prepare, publish, Ctx, Sink, WorkerBufs};
use dpx10_core::state::Shard;
use dpx10_core::{msg::Msg, DagResult, DepView, DpApp, EngineConfig, EngineError, InitOverride};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

use crate::cost::SimConfig;
use crate::event::{EventQueue, SimTime};

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
/// [`Sink`], where its effects land on the virtual clock. The shards
/// are the event loop's: it hands the protocol the one an event is for.
struct Epoch<'a, A: DpApp> {
    /// What the handlers read.
    ctx: &'a Ctx<A>,
    /// Virtual time of the event being processed.
    now: SimTime,
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
    /// Creates a simulator for `app` over `pattern` with `config` (an
    /// [`EngineConfig`] runs one FIFO worker per place at the default
    /// cost).
    pub fn new(app: A, pattern: impl DagPattern + 'static, config: impl Into<SimConfig>) -> Self {
        SimEngine {
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config: config.into(),
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
        let unsupported = [
            ("coalesce", cfg.coalesce.is_some()),
            ("chaos", cfg.chaos.is_some()),
            ("checkpoint", cfg.checkpoint.is_some()),
        ];
        if let Some(&(field, _)) = unsupported.iter().find(|(_, set)| *set) {
            let backend = "sim";
            return Err(EngineError::Unsupported { backend, field });
        }
        // What the shared steps read. The simulator always executes
        // through the enumerated adapter view (no aggregation lanes).
        let steps = EngineConfig {
            aggregation: false,
            ..cfg.engine.clone()
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
            let (ctx, start, prefinished) = run.begin(None, &stats);
            let dist = ctx.dist.clone();
            let nslots = dist.num_slots();
            let mut shards = start.build_all(&ctx);
            let mut ep = Epoch {
                ctx: &ctx,
                now: base,
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
                    .map(|_| (0..cfg.workers).rev().collect())
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
                break start.into_array(&ctx, shards);
            }

            // Seed: dispatch every slot at the epoch base time.
            for shard in &mut shards {
                self.dispatch(&mut ep, shard, &mut bufs);
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
                        let shard = &mut shards[slot];
                        let (i, j) = shard.points.get(li);
                        let id = VertexId::new(i, j);
                        publish(&ctx, shard, &mut ep, li, id, value, &mut bufs);
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
                        handle_msg(&ctx, &mut shards[slot], &mut ep, src, msg, &mut bufs);
                        slot
                    }
                };
                self.dispatch(&mut ep, &mut shards[slot], &mut bufs);
            };

            makespan_ns = makespan_ns.max(ep.last_publish);
            if place_busy.len() < ep.busy_ns.len() {
                place_busy.resize(ep.busy_ns.len(), Duration::ZERO);
            }
            for (slot, &ns) in ep.busy_ns.iter().enumerate() {
                place_busy[slot] += Duration::from_nanos(ns);
            }

            match outcome {
                EpochEnd::Complete => break start.into_array(&ctx, shards),
                EpochEnd::Stalled => {
                    return Err(EngineError::Stalled {
                        finished: ep.finished,
                        total,
                    })
                }
                EpochEnd::Fault(victim) => {
                    let fault_time = ep.fault_at.expect("fault recorded").1;
                    let snapshot = start.into_array(&ctx, shards);
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

    /// Fills the free worker slots of `shard`'s place with ready work
    /// at the current virtual time.
    fn dispatch(&self, ep: &mut Epoch<'_, A>, shard: &mut Shard<A::Value>, bufs: &mut WorkerBufs) {
        let ctx = ep.ctx;
        let slot = shard.slot;
        let me = ctx.dist.places()[slot];
        if ep.fault_at.is_some_and(|(victim, _)| victim == me) {
            return; // dead place dispatches nothing
        }
        let cost = &self.config.cost;
        let t = ep.now;
        let done_at = t + (cost.framework_overhead + cost.compute).as_nanos() as SimTime;
        while ep.busy[slot] < self.config.workers {
            // Remotely shipped work first (it already consumed scheduling
            // effort at its owner), then the local ready list.
            if let Some((id, dep_ids, dep_values)) = ep.exec_queue[slot].pop_front() {
                let value = self.app.compute(id, &DepView::new(&dep_ids, &dep_values));
                let owner = ctx.dist.place_of(id.i, id.j);
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
            let Some(li) = shard.pop_ready() else {
                break;
            };
            if shard.finished(li) {
                continue;
            }
            let (i, j) = shard.points.get(li);
            let id = VertexId::new(i, j);
            let Some((target, values)) = prepare(ctx, shard, ep, li, id, bufs) else {
                continue; // parked on pulls; no worker consumed
            };
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
        let me = self.ctx.dist.places()[slot];
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
            let ctx = self.ctx;
            let cost = ctx.net.transfer_time(&ctx.topo, src, dst, bytes);
            ctx.stats.place(src).on_send(bytes, cost);
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

    fn ready(&mut self, shard: &mut Shard<A::Value>, li: u32) {
        shard.ready.push(li);
    }

    fn stamp(&mut self, place: PlaceId, kind: EventKind, arg: u64) {
        self.rec
            .instant(place.0, RUNTIME_WORKER, kind, self.now, arg);
    }

    fn exec(
        &mut self,
        shard: &mut Shard<A::Value>,
        _src: PlaceId,
        id: VertexId,
        dep_ids: Vec<VertexId>,
        dep_values: Vec<A::Value>,
    ) {
        self.exec_queue[shard.slot].push_back((id, dep_ids, dep_values));
    }

    /// Computation is counted at publish, not dispatch: work stranded in
    /// flight by an epoch abort was never visible to anyone, so it must
    /// not inflate the recomputation count recovery is judged by.
    fn finished(&mut self, slot: usize, _id: VertexId, _value: &A::Value) {
        let me = self.ctx.dist.places()[slot];
        self.ctx.stats.place(me).on_task();
        self.finished += 1;
        self.last_publish = self.now;
        if let Some((victim, at)) = self.threshold {
            if self.finished >= at && self.fault_at.is_none() && self.finished < self.total {
                self.fault_at = Some((victim, self.now));
            }
        }
    }
}

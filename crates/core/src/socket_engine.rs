//! The multi-process socket engine.
//!
//! Runs the same vertex-execution protocol as [`crate::ThreadedEngine`],
//! but with one OS process per place connected by the TCP mesh of
//! [`dpx10_apgas::socket`] — the closest this reproduction gets to the
//! paper's real X10 deployment (§VII ran 2 place processes per node).
//!
//! Every process executes [`SocketEngine::run`] with the same
//! application, pattern and configuration; place 0 admits each place
//! into the mesh under the id its launcher gave it. Each place builds and runs only its own slot's shard, and
//! exchanges [`Msg`]s over the wire; what every place agrees on without
//! a word (the distribution, who starts finished) is deterministic.
//!
//! The epoch loop is [`crate::epoch`]'s, shared with the threaded
//! engine; a place's *mesh side* of it — the control protocol below —
//! lives here, in the crate-private `Driver`; the mesh session under it
//! (connection, routing on the socket readers, frame grammar, goodbye)
//! is `mesh.rs`'s.
//! [`SocketEngine::run`] is a session of one run, a serve
//! ([`crate::jobs`]) one of a `Driver` per job. A run's inputs are all
//! data: the participants that seed the epoch roster (the mesh's
//! members and crashed places vs the job's placement), its index in the
//! session (stamped on every frame; a solo run is job 0), and the trace
//! track its workers count up from (0 vs a per-job base).
//!
//! # The control protocol
//!
//! Vertex traffic alone cannot terminate a distributed run — no process
//! sees the global finished counter — so a thin coordination layer rides
//! on the same connections as `RunFrame`s, tagged with an *epoch*
//! (recovery round) so stragglers from a failed epoch are discarded.
//! Control is a star around place 0, which Resilient X10 already
//! requires to survive; no frame is relayed:
//!
//! * each worker sends place 0 its slot's finished count as a
//!   `Progress` whenever it changes (max-merged on receipt, so a
//!   duplicated frame cannot corrupt the table);
//! * place 0 declares success when the counts sum to the DAG size,
//!   sends every participant the `Verdict`, gathers a `Snapshot` of
//!   every slot's values, and releases everyone with `Release`;
//! * a detected failure (connection loss / missed heartbeats feeding the
//!   shared liveness board, or a planned `Die`, which the victim's socket
//!   reader obeys by crashing without a goodbye) makes place 0 send a
//!   `Verdict` naming the dead, gather the survivors' snapshots, run the
//!   paper's recovery (§VI-D), and restart each survivor with its own
//!   `Resume` — the restored values it owns under the new distribution
//!   plus the packed ids of every finished cell (the metadata that
//!   unblocks dependencies on other survivors' cells without shipping
//!   every value to every place) — a fresh epoch.
//!
//! Links are reliable and ordered, so no control frame is ever re-sent:
//! a peer that dies mid-protocol is caught by liveness, like any other.
//!
//! Communication statistics on this backend are the bytes *actually
//! framed* onto the sockets (vertex and control traffic alike); the
//! [`dpx10_apgas::NetworkModel`] prices nothing here.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_apgas::stats::STAT_COUNTERS;
use dpx10_apgas::{DeadPlaceError, MemberState, PlaceId, SocketConfig, SocketNode, StatsSnapshot};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_distarray::{DistArray, Region2D};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

use crate::app::{DagResult, DpApp};
use crate::config::{EngineConfig, InitOverride};
use crate::engine::Shared;
use crate::epoch::{self, preflight, Flow, Host, Mesh, Run, Workers, TICK};
use crate::error::EngineError;
use crate::mesh::{AppPlane, RunFrame, Session, Wire, SNAPSHOT_DEADLINE};
use crate::msg::Msg;
use crate::protocol::Ctx;
use crate::state::{Cell, Shard};

/// Whether every place id, cell id and count a peer's control frame
/// carries is one this run can index: place ids inside the mesh's slot
/// space, packed cell ids inside the pattern's region, finished and
/// computed counts no larger than the region (so a sum of them cannot
/// overflow). Peers control these bytes; the driver's tables must never
/// be indexed by them unchecked.
fn well_formed<V>(frame: &RunFrame<V>, slots: u16, region: Region2D) -> bool {
    let cell_ok = |packed: u64| {
        let id = VertexId::unpack(packed);
        region.contains(id.i, id.j)
    };
    match frame {
        RunFrame::Verdict { dead, .. } => dead.iter().flatten().all(|d| *d < slots),
        RunFrame::Snapshot {
            cells, computed, ..
        } => *computed <= region.len() && cells.iter().all(|(c, _)| cell_ok(*c)),
        RunFrame::Resume {
            alive, cells, meta, ..
        } => {
            // Slot order: ascending, led by the coordinator.
            alive.first() == Some(&0)
                && alive.windows(2).all(|w| w[0] < w[1])
                && alive.last().is_some_and(|p| *p < slots)
                && cells.iter().all(|(c, _)| cell_ok(*c))
                && meta.iter().all(|c| cell_ok(*c))
        }
        RunFrame::Progress { finished, .. } => *finished <= region.len(),
        RunFrame::App(..) | RunFrame::Release => true,
    }
}

/// The data-plane half of [`well_formed`]: whether every cell id a
/// peer's vertex-protocol message carries is one `shard` may act on.
/// Every id must be a vertex of the pattern; `Done` targets,
/// pulled cells and shipped-back results must be owned here (a foreign
/// id would index another cell of this shard); a pulled cell must be
/// finished with its value here; a shipped `Exec` must carry exactly the pattern's
/// dependencies, one value each (the app's `compute` indexes them).
/// Checked per message by the socket places' workers — a frame's epoch
/// decides which distribution it is held against.
pub(crate) fn data_well_formed<A: DpApp>(
    ctx: &Ctx<A>,
    shard: &Shard<A::Value>,
    msg: &Msg<A::Value>,
) -> bool {
    let dist = &ctx.dist;
    let cell =
        |id: &VertexId| dist.region().contains(id.i, id.j) && ctx.pattern.contains(id.i, id.j);
    let mine = |id: &VertexId| cell(id) && dist.slot_of(id.i, id.j) == shard.slot;
    let done = |from: &VertexId, targets: &[VertexId]| cell(from) && targets.iter().all(mine);
    let pull = |id: &VertexId| mine(id) && shard.cells[dist.local_index(id.i, id.j)] == Cell::Done;
    match msg {
        Msg::Done { from, targets, .. } => done(from, targets),
        Msg::DoneBatch { entries } => entries.iter().all(|(from, _, targets)| done(from, targets)),
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
                ctx.pattern.dependencies(id.i, id.j, &mut deps);
                deps == *dep_ids
            }
        }
    }
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
}

impl<A: DpApp + 'static> SocketEngine<A> {
    /// Creates an engine for `app` over `pattern` with `config`.
    pub fn new(app: A, pattern: impl DagPattern + 'static, config: EngineConfig) -> Self {
        SocketEngine {
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            init: None,
            soft_die: false,
            recorder: Recorder::disabled(),
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
        if self.config.checkpoint.is_some() {
            return Err(EngineError::Unsupported {
                backend: "sockets",
                field: "checkpoint",
            });
        }
        preflight(&self.config, self.pattern.as_ref())?;
        let session = Session::open(socket, &self.recorder, self.soft_die, 1)?;
        let topology_places = self.config.topology.num_places();
        let places = session.member.node.places();
        if topology_places != places {
            session.close(true);
            return Err(EngineError::Socket(format!(
                "topology has {topology_places} places but the mesh has {places}"
            )));
        }
        // The mesh's membership, not `0..places`: on an elastic mesh the
        // slot space has holes where places drained out, and pinning them
        // back in would make the snapshot collector wait on peers that
        // will never answer. A *crashed* place stays in: every place must
        // seed epoch 0 with the same roster however late it starts, and
        // the epoch loop recovers the dead one like any other.
        let roster = session.member.node.roster();
        let participants: Vec<PlaceId> = (0..roster.capacity())
            .map(PlaceId)
            .filter(|&p| roster.is_member(p) || roster.state(p) == MemberState::Dead)
            .collect();
        let run = Run::new(
            &self.app,
            &self.pattern,
            &self.config,
            self.init.as_ref(),
            participants.clone(),
        );
        let mut driver = Driver::new(self.pattern.as_ref(), session.links[0].clone());
        let result = driver.drive(run, 0);
        driver.release(&participants);
        // A place whose run failed has nobody to wait for.
        session.close(result.is_err());
        result
    }
}

/// One place's mesh side of one DAG run: the control loops, whether the
/// DAG is the session's only one ([`SocketEngine::run`]) or one job of a
/// serve ([`crate::jobs`]).
pub(crate) struct Driver<A: DpApp> {
    /// The pattern's region: every cell a peer's frame names lies in it.
    region: Region2D,
    node: Arc<SocketNode>,
    recorder: Recorder,
    /// Every outbound frame, data or control, leaves through
    /// [`AppPlane::send_frame`], stamped with the run's job id.
    plane: Arc<AppPlane<A::Value>>,
    me: PlaceId,
    /// Place 0: every peer's cumulative counters as of its last snapshot.
    peer_stats: HashMap<PlaceId, [u64; STAT_COUNTERS]>,
}

impl<A: DpApp + 'static> Driver<A> {
    /// The mesh side of a run of `pattern` over `plane`.
    pub(crate) fn new(pattern: &dyn DagPattern, plane: Arc<AppPlane<A::Value>>) -> Self {
        Driver {
            region: Region2D::new(pattern.height(), pattern.width()),
            me: plane.member.node.me(),
            node: plane.member.node.clone(),
            recorder: plane.member.recorder.clone(),
            plane,
            peer_stats: HashMap::new(),
        }
    }

    /// Place 0: releases the run's surviving `followers`, whatever its
    /// outcome was — success, stall, error — or they would wait on a
    /// control frame that never comes.
    pub(crate) fn release(&self, followers: &[PlaceId]) {
        if self.me == PlaceId::ZERO {
            for p in followers.iter().filter(|p| **p != self.me) {
                let _ = self.send_ctl(*p, &RunFrame::Release);
            }
        }
    }

    fn send_ctl(&self, dst: PlaceId, frame: &RunFrame<A::Value>) -> Result<(), DeadPlaceError> {
        self.plane.send_frame(dst, frame)
    }

    /// Records control event `kind` of `epoch` on this place's track.
    fn stamp(&self, kind: EventKind, epoch: u32) {
        self.recorder
            .instant_now(self.me.0, RUNTIME_WORKER, kind, epoch.into());
    }

    /// The next control frame, or `None` on a timeout tick. A frame that
    /// names a place, cell or count this run cannot index is treated
    /// like an undecodable payload: dropped, its sender marked dead.
    fn recv_ctl(&self, timeout: Duration) -> Option<(PlaceId, RunFrame<A::Value>)> {
        let (src, frame) = self.plane.ctl_rx.recv_timeout(timeout).ok()?;
        let slots = self.node.liveness().num_places();
        if well_formed(&frame, slots, self.region) {
            Some((src, frame))
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
        let (plane, node) = (self.plane.clone(), self.node.clone());
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
            // The victim's reader obeys by crashing without a goodbye.
            // (A serve clears its jobs' plans; its kills are `ServeKill`s.)
            kill: &|victim| {
                let _ = node.send_bytes(victim, Wire::<A::Value>::Die.encode());
            },
            checkpoint: None,
            mesh: Some(self),
            boundaries: None,
        };
        epoch::drive(run, host)
    }

    /// Sends this place's slot snapshot — its joined `shard` — to place
    /// 0.
    fn send_snapshot(
        &self,
        shared: &Arc<Shared<A>>,
        shard: &Shard<A::Value>,
        epoch: u32,
        busy_before: u64,
    ) -> Result<(), EngineError> {
        // Flush-before-snapshot barrier: anything still buffered in the
        // coalescing layer goes to the wire (or dies with a dead lane)
        // before this epoch's counters and cells are reported, so the
        // snapshot never precedes traffic it already counted.
        shared.transport.flush(self.me);
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        let mut cells = Vec::new();
        for (li, (i, j)) in (0..).zip(shard.points.iter()) {
            if shard.is_vertex(li) && shard.finished(li) {
                let v = shard.value(li).clone();
                cells.push((VertexId::new(i, j).pack(), v));
            }
        }
        let stats = self.node.stats().place(self.me);
        let stats = stats.to_counters(busy_before + shard.busy_ns);
        let sent = cells.len() as u64;
        let result = self
            .send_ctl(
                PlaceId::ZERO,
                &RunFrame::Snapshot {
                    epoch,
                    cells,
                    computed: shard.computed(),
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

impl<A: DpApp + 'static> Mesh<A> for Driver<A> {
    /// A worker place's mid-epoch loop: report this slot's progress to
    /// place 0 and obey its control frames.
    fn follow(
        &mut self,
        shared: &Arc<Shared<A>>,
        workers: &mut Workers<A>,
        epoch: u32,
        busy_before: u64,
    ) -> Result<Flow<A::Value>, EngineError> {
        let places = shared.ctx.dist.places();
        let my_slot = places.iter().position(|p| *p == self.me);
        let my_slot = my_slot.expect("a place follows only epochs it is a participant of");
        // Never a real count: the first pass of the epoch reports.
        let mut last_reported = u64::MAX;
        // Set once a verdict has been obeyed: a duplicated frame must
        // not snapshot twice.
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
                self.plane.member.dying.store(true, Ordering::Release);
                self.node.crash();
                return Err(panicked);
            }
            let received = self.recv_ctl(Duration::from_millis(5));
            // Checked after the receive: the reader of the `Die` raises
            // `dying` before it routes anything that arrived behind it
            // (control comes from place 0 only, on one link), so a
            // crashing place never acts on a later frame.
            if self.plane.member.dying.load(Ordering::Acquire) {
                shared.fault.store(true, Ordering::Release);
                return Ok(Flow::Exit);
            }
            match received {
                Some((_, RunFrame::Verdict { epoch: e, dead })) if e == epoch && !concluded => {
                    concluded = true;
                    let kind = if let Some(dead) = dead {
                        for d in dead {
                            self.node.liveness().mark_dead(PlaceId(d));
                        }
                        shared.fault.store(true, Ordering::Release);
                        EventKind::CtlAbort
                    } else {
                        shared.done.store(true, Ordering::Release);
                        EventKind::CtlStop
                    };
                    self.stamp(kind, epoch);
                    // Quiesce first: the cells, `computed` and the
                    // counters of one snapshot describe the same moment.
                    workers.stop();
                    let Some(shard) = workers.shards.first() else {
                        shared.check_panic()?;
                        unreachable!("an owner that did not unwind hands its shard back");
                    };
                    self.send_snapshot(shared, shard, epoch, busy_before)?;
                    awaiting_release = Some(Instant::now());
                }
                Some((
                    _,
                    RunFrame::Resume {
                        epoch: e,
                        alive,
                        cells,
                        meta,
                    },
                )) if e == epoch + 1 => {
                    self.stamp(EventKind::CtlResume, e);
                    let alive = alive.into_iter().map(PlaceId).collect();
                    return Ok(Flow::Resume(alive, (cells, meta)));
                }
                Some((_, RunFrame::Release)) => {
                    self.stamp(EventKind::CtlDone, epoch);
                    return Ok(Flow::Exit);
                }
                _ => {}
            }

            let finished = shared.progress[my_slot].0.load(Ordering::Relaxed);
            if finished != last_reported {
                last_reported = finished;
                // Failure to report is not fatal by itself; the liveness
                // check at the top of the loop is the judge of that.
                let _ = self.send_ctl(PlaceId::ZERO, &RunFrame::Progress { epoch, finished });
            }
        }
    }

    /// One tick of place 0's mid-epoch loop: fold a follower's progress
    /// report into the finished table.
    fn progress(&mut self, epoch: u32, alive: &[PlaceId], table: &mut [u64]) {
        if let Some((src, RunFrame::Progress { epoch: e, finished })) = self.recv_ctl(TICK) {
            if let Some(s) = alive.iter().position(|p| *p == src).filter(|_| e == epoch) {
                table[s] = table[s].max(finished);
            }
        }
    }

    /// Place 0: sends every other participant the verdict, then waits
    /// for every live peer's snapshot, folding in its cells and
    /// (cumulative) counters; peers that never answer are marked dead
    /// and returned.
    fn conclude(
        &mut self,
        epoch: u32,
        alive: &[PlaceId],
        aborted: Option<&[PlaceId]>,
        arr: &mut DistArray<A::Value>,
        computed_total: &mut u64,
        busy: &mut [u64],
    ) -> Vec<PlaceId> {
        // Start from every peer of the epoch, not just the currently
        // live ones: a place whose death was already detected (e.g. a
        // kill landing right at the end of the epoch, before its
        // snapshot) must still be reported as lost so its values get
        // recovered rather than silently dropped.
        let mut pending: Vec<PlaceId> = alive.iter().copied().filter(|p| *p != self.me).collect();
        let verdict = RunFrame::Verdict {
            epoch,
            dead: aborted.map(|dead| dead.iter().map(|p| p.0).collect()),
        };
        for p in &pending {
            // An unreachable peer is caught by liveness below.
            let _ = self.send_ctl(*p, &verdict);
        }
        let rec_start = self.recorder.enabled().then(|| self.recorder.now_ns());
        let mut lost = Vec::new();
        let deadline = Instant::now() + SNAPSHOT_DEADLINE;
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
            let Some((src, frame)) = self.recv_ctl(Duration::from_millis(10)) else {
                continue;
            };
            if let RunFrame::Snapshot {
                epoch: e,
                cells,
                computed,
                stats,
            } = frame
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

    /// Place 0: sends each other survivor of `epoch`, the one being
    /// resumed into, its own `Resume`: the finished values it owns under
    /// the new distribution plus the packed ids of *every* finished cell.
    fn resume(&mut self, epoch: u32, alive: &[PlaceId], restored: &DistArray<A::Value>) {
        self.stamp(EventKind::CtlResume, epoch);
        // Recovery distributed `restored` over exactly these survivors:
        // its slot `s` is what `alive[s]` owns in the new epoch.
        debug_assert_eq!(restored.dist().places(), alive);
        let finished = |s| restored.iter_slot(s).filter(|c| c.3);
        let pack = |i, j| VertexId::new(i, j).pack();
        let meta: Vec<u64> = (0..alive.len())
            .flat_map(|s| finished(s).map(|(i, j, ..)| pack(i, j)))
            .collect();
        let ids: Vec<u16> = alive.iter().map(|p| p.0).collect();
        for (s, p) in alive.iter().enumerate().filter(|(_, p)| **p != self.me) {
            let cells = finished(s).map(|(i, j, v, _)| (pack(i, j), v.clone()));
            let frame = RunFrame::Resume {
                epoch,
                alive: ids.clone(),
                cells: cells.collect(),
                meta: meta.clone(),
            };
            // A survivor that died after recovery is caught by the next
            // epoch's liveness check.
            let _ = self.send_ctl(*p, &frame);
        }
    }

    fn comm(&self) -> StatsSnapshot {
        let mut comm = StatsSnapshot::default();
        if self.plane.member.sole {
            // One of several jobs leaves `comm` at its default: the
            // substrate's counters are mesh-level, not attributable.
            // Peers report their own counters, so the sum saturates.
            let mut sum = self.node.stats().to_counters();
            for peer in self.peer_stats.values() {
                for (total, counter) in sum.iter_mut().zip(peer) {
                    *total = total.saturating_add(*counter);
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
    use dpx10_apgas::Codec;
    use dpx10_dag::builtin::Grid2;

    #[test]
    fn wire_round_trips() {
        let verdict = |epoch, dead| RunFrame::Verdict { epoch, dead };
        let frames: Vec<RunFrame<i64>> = vec![
            RunFrame::App(
                3,
                Msg::PullVal {
                    id: VertexId::new(1, 2),
                    value: -7,
                },
            ),
            verdict(0, None),
            verdict(2, Some(vec![1, 3])),
            RunFrame::Snapshot {
                epoch: 1,
                cells: vec![(VertexId::new(0, 0).pack(), 9)],
                computed: 5,
                stats: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
            },
            RunFrame::Resume {
                epoch: 2,
                alive: vec![0, 2],
                cells: vec![(VertexId::new(1, 1).pack(), -1)],
                meta: vec![VertexId::new(1, 1).pack(), VertexId::new(0, 3).pack()],
            },
            RunFrame::Release,
            RunFrame::Progress {
                epoch: 5,
                finished: 40,
            },
        ];
        // Every run frame under a solo run's id and a served job's.
        let runs = frames.into_iter().zip([0, 7].into_iter().cycle());
        let wires = runs.map(|(frame, job)| Wire::Run(job, frame));
        for wire in wires.chain([Wire::Die, Wire::Goodbye]) {
            let buf = wire.encode();
            let back = Wire::<i64>::decode(&buf).expect("decodes");
            // Structural comparison through re-encoding (no PartialEq on
            // purpose: Wire is an internal protocol type).
            assert_eq!(back.encode(), buf);
        }
    }

    /// `[tag][job 9]`, the header of a run frame.
    fn header(tag: u8) -> Vec<u8> {
        [&[tag][..], &9u32.to_le_bytes()].concat()
    }

    #[test]
    fn wire_rejects_unknown_tag() {
        assert!(Wire::<i64>::decode(&[99]).is_none());
        // Tag 1 is retired: `Progress` is tag 10.
        let mut progress = header(1);
        1u32.encode(&mut progress);
        42u64.encode(&mut progress);
        assert!(Wire::<i64>::decode(&progress).is_none());
        // A session frame has no job id, a run frame must have one, and
        // nothing can follow either: no frame carries a frame.
        assert!(Wire::<i64>::decode(&[7]).is_some());
        assert!(Wire::<i64>::decode(&header(7)).is_none());
        assert!(Wire::<i64>::decode(&[8]).is_none());
        assert!(Wire::<i64>::decode(&header(8)).is_some());
        for inner in [header(8), vec![6]] {
            assert!(Wire::<i64>::decode(&[header(8), inner].concat()).is_none());
        }
    }

    #[test]
    fn resume_truncated_after_cells_is_rejected() {
        // The finished-set metadata is a mandatory field.
        let mut truncated = header(5);
        3u32.encode(&mut truncated);
        vec![0u16, 1].encode(&mut truncated);
        vec![(VertexId::new(2, 2).pack(), 11i64)].encode(&mut truncated);
        assert!(Wire::<i64>::decode(&truncated).is_none());
        // With the field present, the frame decodes.
        Vec::<u64>::new().encode(&mut truncated);
        assert!(Wire::<i64>::decode(&truncated).is_some());
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
            let mut buf = header(4);
            1u32.encode(&mut buf);
            Vec::<(u64, i64)>::new().encode(&mut buf);
            5u64.encode(&mut buf);
            vec![7u64; n].encode(&mut buf);
            assert_eq!(Wire::<i64>::decode(&buf).is_some(), ok, "{n} counters");
        }
    }

    #[test]
    fn progress_decode_rejects_the_retired_reduce_layout() {
        // Tag 10 once carried a vec of `(place, count)` entries; that
        // layout must not decode as a `Progress` with a tail left over.
        let mut reduce = header(10);
        1u32.encode(&mut reduce);
        vec![(1u16, 40u64)].encode(&mut reduce);
        assert!(Wire::<i64>::decode(&reduce).is_none());
        // One count, whole, and nothing else.
        let mut progress = header(10);
        1u32.encode(&mut progress);
        assert!(Wire::<i64>::decode(&progress).is_none());
        40u64.encode(&mut progress);
        assert!(Wire::<i64>::decode(&progress).is_some());
    }

    /// Frames that decode fine but name a place outside the mesh, a cell
    /// outside the region or an impossible count.
    fn hostile_frames() -> Vec<(&'static str, RunFrame<u64>)> {
        let outside = VertexId::new(6, 0).pack();
        let resume = |alive, cells: Vec<(u64, u64)>| {
            let meta = cells.iter().map(|(cell, _)| *cell).collect();
            RunFrame::Resume {
                epoch: 1,
                alive,
                cells,
                meta,
            }
        };
        vec![
            (
                "abort naming place 9999",
                RunFrame::Verdict {
                    epoch: 0,
                    dead: Some(vec![9999]),
                },
            ),
            (
                "resume naming place 9999",
                resume(vec![0, 1, 9999], Vec::new()),
            ),
            (
                "resume without the coordinator",
                resume(vec![1], Vec::new()),
            ),
            (
                "resume cell outside the region",
                resume(vec![0, 1], vec![(outside, 7)]),
            ),
            (
                "snapshot cell outside the region",
                RunFrame::Snapshot {
                    epoch: 0,
                    cells: vec![(outside, 7)],
                    computed: 1,
                    stats: [0; STAT_COUNTERS],
                },
            ),
            (
                "snapshot computed beyond the region",
                RunFrame::Snapshot {
                    epoch: 0,
                    cells: Vec::new(),
                    computed: u64::MAX,
                    stats: [0; STAT_COUNTERS],
                },
            ),
            (
                "progress count beyond the region",
                RunFrame::Progress {
                    epoch: 0,
                    finished: u64::MAX,
                },
            ),
        ]
    }

    /// Payloads no frame of the grammar matches: 1 MiB of each envelope
    /// tag of a nestable grammar — whose decoder would recurse once per
    /// tag and overflow its stack — and of the `(tag 8, job 0)` prefix;
    /// and epoch 0 vertex traffic whose `Msg` is a retired relocation
    /// acknowledgement (tag 10, slot, epoch), once accepted and ignored.
    fn hostile_bytes() -> [(&'static str, Vec<u8>); 4] {
        let mut retired = vec![0];
        (0u32, 0u32, 10u8).encode(&mut retired);
        (1u16, 0u64).encode(&mut retired);
        [
            ("1 MiB of tag 9", vec![9; 1 << 20]),
            ("1 MiB of tag 8", vec![8; 1 << 20]),
            ("1 MiB of (tag 8, job 0)", [8, 0, 0, 0, 0].repeat(1 << 18)),
            ("vertex traffic with retired Msg tag 10", retired),
        ]
    }

    proptest::proptest! {
        /// Arbitrary bytes behind every tag: the decoder answers without
        /// unwinding, and only to what a frame encodes to.
        #[test]
        fn arbitrary_bytes_never_unwind_the_decoder(
            tag in 0u8..12,
            tail in proptest::collection::vec(proptest::any::<u8>(), 0..192),
        ) {
            let bytes = [vec![tag], tail].concat();
            if let Some(wire) = Wire::<u64>::decode(&bytes) {
                proptest::prop_assert_eq!(wire.encode(), bytes);
            }
        }
    }

    #[test]
    fn frames_naming_foreign_places_or_cells_are_malformed() {
        let region = Region2D::new(6, 6);
        for (what, frame) in hostile_frames() {
            let back = Wire::<u64>::decode(&Wire::Run(0, frame).encode()).expect(what);
            let Wire::Run(0, back) = back else {
                unreachable!()
            };
            assert!(!well_formed(&back, 2, region), "{what}");
        }
        let inside = VertexId::new(5, 5).pack();
        let fine: Vec<RunFrame<u64>> = vec![
            RunFrame::Verdict {
                epoch: 0,
                dead: Some(vec![1]),
            },
            RunFrame::Resume {
                epoch: 1,
                alive: vec![0, 1],
                cells: vec![(inside, 7)],
                meta: vec![inside],
            },
            RunFrame::Snapshot {
                epoch: 0,
                cells: vec![(inside, 7)],
                computed: 36,
                stats: [0; STAT_COUNTERS],
            },
            RunFrame::Progress {
                epoch: 0,
                finished: 36,
            },
        ];
        for frame in fine {
            assert!(well_formed(&frame, 2, region));
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
        let done = |targets: Vec<VertexId>| (VertexId::new(2, 2), 7, targets.into());
        vec![
            (
                "done target outside the region",
                Msg::Done {
                    from: VertexId::new(2, 2),
                    value: 7,
                    targets: vec![mine, outside].into(),
                },
            ),
            (
                "done target owned by another slot",
                Msg::Done {
                    from: VertexId::new(2, 2),
                    value: 7,
                    targets: vec![foreign].into(),
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
                "done batch hiding an outside target",
                Msg::DoneBatch {
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
        let (ctx, mut start, _) = run.begin(None, &dpx10_apgas::StatsBoard::new(2));
        // (1, 3) is finished per a `Resume`'s metadata, its value not here.
        start.meta = Some([VertexId::new(1, 3).pack()].into_iter().collect());
        let shard = start.build(&ctx, 1);
        let elsewhere = (
            "pull of a cell finished elsewhere",
            Msg::Pull {
                id: VertexId::new(1, 3),
            },
        );
        for (what, msg) in hostile_data_frames().into_iter().chain([elsewhere]) {
            let wire = Wire::Run(0, RunFrame::App(0, msg));
            let wire = Wire::<u64>::decode(&wire.encode()).expect("decodes");
            let Wire::Run(0, RunFrame::App(0, msg)) = wire else {
                unreachable!()
            };
            assert!(!data_well_formed(&ctx, &shard, &msg), "{what}");
        }
        let mine = VertexId::new(2, 4);
        let fine: Vec<Msg<u64>> = vec![
            Msg::Done {
                from: VertexId::new(2, 2),
                value: 7,
                targets: vec![VertexId::new(2, 3), VertexId::new(3, 3)].into(),
            },
            Msg::DoneBatch {
                entries: vec![(VertexId::new(2, 2), 7, vec![VertexId::new(2, 3)].into())],
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
            assert!(data_well_formed(&ctx, &shard, &msg), "{msg:?}");
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
    /// every hostile frame — control, vertex traffic for the epoch the
    /// worker is computing, or bytes its socket reader cannot decode —
    /// must end the worker's run with an error (it writes place 0 off),
    /// never unwind one of its threads or overflow a stack.
    #[test]
    fn a_worker_fed_hostile_control_frames_errors_out_without_panicking() {
        let (what, data) = hostile_data_frames().swap_remove(0);
        let frames = hostile_frames()
            .into_iter()
            .chain([(what, RunFrame::App(0, data))])
            .map(|(what, frame)| (what, Wire::Run(0, frame).encode()))
            .chain(hostile_bytes());
        for (what, bytes) in frames {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().unwrap().to_string();
            let worker = std::thread::spawn(move || {
                SocketEngine::new(Sum, Grid2::new(6, 6), EngineConfig::flat(2))
                    .run(SocketConfig::worker(PlaceId(1), 2, addr))
            });
            let rogue = SocketNode::connect(SocketConfig::coordinator(listener, 2)).expect("mesh");
            rogue.send_bytes(PlaceId(1), bytes).expect("frame leaves");
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

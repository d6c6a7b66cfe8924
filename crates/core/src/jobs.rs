//! The multi-job scheduler: serve many independent DP jobs over one
//! shared socket mesh.
//!
//! The one-shot engines tear the world down after a single DAG; a
//! service admits, schedules and recovers many jobs concurrently over a
//! mesh that outlives all of them. [`JobServer`] is that layer over one
//! `mesh.rs` session:
//!
//! * **Namespacing** — a served job is run `job_id` of the session:
//!   every frame it sends carries that id (a solo run's carry 0), so the
//!   socket readers route traffic to per-job channels and one job's
//!   abort or park can never destroy another job's frames.
//! * **Admission** — jobs run in a deterministic (priority descending,
//!   submission order ascending) sequence with at most
//!   [`JobServer::with_max_in_flight`] drivers live per place, and
//!   [`JobServer::submit`] applies backpressure once the queue holds
//!   [`JobServer::with_max_queue`] jobs. Every place computes the same
//!   order from the same specs, so no cross-place negotiation is needed:
//!   the globally least unfinished job is admitted at every participant,
//!   which makes the cap deadlock-free.
//! * **Bounded concurrency** — an admitted job computes exactly as a
//!   solo run does, on one worker thread per epoch started by the
//!   shared epoch loop; a place therefore runs at most `max_in_flight`
//!   workers, scheduled by the OS, and the admission cap is the one
//!   number that bounds them.
//! * **Fault isolation** — liveness is mesh-level, recovery is per-job:
//!   a place death triggers the §VI-D recovery protocol only for jobs
//!   whose placement contains the dead place; everything else keeps
//!   running undisturbed on its own epoch chain.
//!
//! The epoch loop itself is not here. Each admitted job is one
//! [`Driver`] — the socket engine's — over the job's placement, its link
//! of the session and a base trace track that keeps its workers off
//! every other job's; so a job's control is the same star around place
//! 0 as a solo run's: progress in, verdicts, snapshots and per-survivor
//! `Resume`s straight between place 0 and each participant.
//!
//! Place 0 coordinates every job (placements must include it) and is
//! the only place that returns a [`ServeReport`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpx10_apgas::{PlaceId, SocketConfig};
use dpx10_dag::DagPattern;
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};
use dpx10_sync::channel::unbounded;

use crate::app::{DagResult, DpApp, VertexValue};
use crate::config::EngineConfig;
use crate::epoch::{killable, validate, Run};
use crate::error::EngineError;
use crate::mesh::{Member, Session};
use crate::socket_engine::Driver;

/// What a job's driver thread hands back: `Ok(Some)` only on place 0.
type JobResult<V> = Result<Option<DagResult<V>>, EngineError>;

/// One job of a serve: a DP application over a pattern, with its own
/// engine configuration, an admission priority and an optional placement
/// restricted to a subset of the mesh.
pub struct JobSpec<A: DpApp> {
    /// Human-readable label, echoed in the [`ServeReport`].
    pub name: String,
    /// The application computing each vertex.
    pub app: Arc<A>,
    /// The dependency pattern the job solves.
    pub pattern: Arc<dyn DagPattern>,
    /// Per-job engine configuration. Its topology must have exactly as
    /// many places as the job's placement; fault plans are a serve-level
    /// concern and get cleared at admission.
    pub config: EngineConfig,
    /// Admission priority: higher runs earlier. Ties break by
    /// submission order.
    pub priority: u8,
    /// `Some` pins the job to a subset of the mesh (must include place
    /// 0, the per-job coordinator); `None` uses every place.
    pub places: Option<Vec<PlaceId>>,
}

impl<A: DpApp> JobSpec<A> {
    /// A job named `name` running `app` over `pattern` with `config`,
    /// at priority 0, on every place of the mesh.
    pub fn new(
        name: impl Into<String>,
        app: A,
        pattern: impl DagPattern + 'static,
        config: EngineConfig,
    ) -> Self {
        JobSpec {
            name: name.into(),
            app: Arc::new(app),
            pattern: Arc::new(pattern),
            config,
            priority: 0,
            places: None,
        }
    }

    /// Sets the admission priority (higher runs earlier).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Pins the job to `places` (must include place 0).
    pub fn pinned_to(mut self, places: Vec<PlaceId>) -> Self {
        self.places = Some(places);
        self
    }
}

/// A serve-level planned fault: the victim place crashes once it has
/// published `after_vertices` vertices across *all* jobs it hosts —
/// chaos for the multi-job recovery path, analogous to the single-job
/// [`crate::config::FaultPlan`]. Its count is the place's `tasks_run`,
/// which each job's worker brings up to date at the start of every round
/// of its loop, so the kill lands within one round of the threshold: per
/// job, at most 32 executed vertices plus what the round's messages
/// publish.
#[derive(Clone, Copy, Debug)]
pub struct ServeKill {
    /// The place that dies (never place 0).
    pub place: PlaceId,
    /// Vertices the victim publishes (summed over jobs) before dying.
    pub after_vertices: u64,
}

/// One job's fate in a finished serve.
pub struct JobOutcome<V: VertexValue> {
    /// The job's id (its submission index).
    pub job_id: u32,
    /// The spec's name.
    pub name: String,
    /// The spec's priority.
    pub priority: u8,
    /// Time the job spent queued between serve start and admission.
    pub wait: Duration,
    /// The job's result, exactly as a solo run would report it (per-job
    /// epochs and recoveries included). Communication counters are
    /// mesh-level and not attributed per job, so `report().comm` stays
    /// at its default unless the serve carried this job only.
    pub result: Result<DagResult<V>, EngineError>,
}

/// What [`JobServer::serve`] returns on place 0: every job's outcome in
/// submission order, plus scheduler-level counters.
pub struct ServeReport<V: VertexValue> {
    /// Per-job outcomes, indexed by job id.
    pub jobs: Vec<JobOutcome<V>>,
    /// The largest number of jobs that were in flight at once on
    /// place 0 (which participates in every job).
    pub peak_in_flight: usize,
}

impl<V: VertexValue> ServeReport<V> {
    /// Number of jobs that finished with a result.
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.result.is_ok()).count()
    }
}

/// Serves a batch of DP jobs over one socket mesh. Construct and submit
/// identically on every place process, then call
/// [`serve`](JobServer::serve) with that process's [`SocketConfig`] —
/// the same calling convention as [`crate::SocketEngine::run`].
pub struct JobServer<A: DpApp> {
    jobs: Vec<JobSpec<A>>,
    max_in_flight: usize,
    max_queue: usize,
    soft_die: bool,
    kill: Option<ServeKill>,
    recorder: Recorder,
}

impl<A: DpApp + 'static> Default for JobServer<A> {
    fn default() -> Self {
        JobServer::new()
    }
}

impl<A: DpApp + 'static> JobServer<A> {
    /// An empty server: up to 4 jobs in flight, a 64-job queue.
    pub fn new() -> Self {
        JobServer {
            jobs: Vec::new(),
            max_in_flight: 4,
            max_queue: 64,
            soft_die: false,
            kill: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Caps how many jobs run concurrently on each place (min 1).
    pub fn with_max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    /// Caps the admission queue; [`submit`](JobServer::submit) rejects
    /// past it (backpressure).
    pub fn with_max_queue(mut self, n: usize) -> Self {
        self.max_queue = n.max(1);
        self
    }

    /// Makes a planned kill crash the victim's *sockets* instead of the
    /// process — required when places are threads of one test process
    /// (see [`crate::SocketEngine::with_soft_die`]).
    pub fn with_soft_die(mut self) -> Self {
        self.soft_die = true;
        self
    }

    /// Arms a serve-level planned fault (see [`ServeKill`]).
    pub fn with_kill(mut self, kill: ServeKill) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Attaches a flight recorder; admissions, completions and every
    /// job's engine events land in this place's ring, with each job's
    /// workers on their own tracks.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues a job and returns its id (the submission index), or
    /// rejects it when the queue is full — the submitter must retry
    /// later rather than pile up unbounded work — or when its config
    /// asks for a checkpoint, which a served job cannot write.
    pub fn submit(&mut self, spec: JobSpec<A>) -> Result<u32, EngineError> {
        if spec.config.checkpoint.is_some() {
            let (backend, field) = ("serve", "checkpoint");
            return Err(EngineError::Unsupported { backend, field });
        }
        if self.jobs.len() >= self.max_queue {
            return Err(EngineError::Job(format!(
                "admission queue is full ({} jobs); retry after a serve",
                self.jobs.len()
            )));
        }
        self.jobs.push(spec);
        Ok((self.jobs.len() - 1) as u32)
    }

    /// Joins the mesh and serves every queued job to completion.
    ///
    /// Returns `Ok(Some(report))` on place 0 and `Ok(None)` elsewhere.
    /// Every place must call `serve` with an identically-built server
    /// (same jobs, same order) — admission order is derived
    /// deterministically from the specs on each place independently.
    pub fn serve(
        &self,
        socket: SocketConfig,
    ) -> Result<Option<ServeReport<A::Value>>, EngineError> {
        if self.jobs.is_empty() {
            return Err(EngineError::Job("no jobs submitted".into()));
        }
        let njobs = self.jobs.len();
        let session = Session::open(socket, &self.recorder, self.soft_die, njobs)?;
        let member = session.member.clone();
        let (node, recorder, me) = (&member.node, &member.recorder, member.node.me());
        // Every place validates the same specs the same way; an invalid
        // serve fails identically everywhere, tearing the mesh down
        // symmetrically. Validation runs against the live roster, not
        // the founding count — slots drained out of an elastic mesh are
        // not schedulable.
        let members = node.roster().members();
        let victims = self.kill.iter().map(|k| k.place);
        let checked = killable(node.places(), victims).and(self.resolve_placements(&members));
        let placements = match checked {
            Ok(p) => p,
            Err(e) => {
                session.close(true);
                return Err(e);
            }
        };

        let watchdog = self.kill.filter(|k| k.place == me).map(|kill| {
            let member = member.clone();
            // A thread-spawn failure past this point would strand peers
            // mid-protocol; dying loudly lets the mesh detect us.
            std::thread::Builder::new()
                .name(format!("dpx10-kill-p{}", me.index()))
                .spawn(move || kill_watchdog(&member, kill.after_vertices))
                .expect("spawn kill watchdog")
        });

        // Deterministic admission order: priority descending, submission
        // id ascending — identical on every place by construction.
        let mut order: Vec<usize> = (0..njobs).collect();
        order.sort_by_key(|&j| (std::cmp::Reverse(self.jobs[j].priority), j));
        let my_jobs: Vec<usize> = order
            .into_iter()
            .filter(|&j| placements[j].contains(&me))
            .collect();

        let serve_start = Instant::now();
        let (done_tx, done_rx) = unbounded();
        let mut next = 0usize;
        let mut running = 0usize;
        let mut peak = 0usize;
        let mut waits: Vec<Duration> = vec![Duration::ZERO; njobs];
        let mut results: Vec<Option<JobResult<A::Value>>> = (0..njobs).map(|_| None).collect();
        let mut driver_handles = Vec::with_capacity(my_jobs.len());

        while next < my_jobs.len() || running > 0 {
            while next < my_jobs.len() && running < self.max_in_flight {
                let j = my_jobs[next];
                next += 1;
                waits[j] = serve_start.elapsed();
                recorder.instant_now(me.0, RUNTIME_WORKER, EventKind::JobAdmit, j as u64);
                let spec = &self.jobs[j];
                let (app, pattern) = (spec.app.clone(), spec.pattern.clone());
                let mut config = spec.config.clone();
                // Faults are a serve-level concern (`ServeKill`).
                config.fault = None;
                config.chaos = None;
                let placement = placements[j].clone();
                let link = session.links[j].clone();
                let tx = done_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("dpx10-job{j}p{}", me.index()))
                    .spawn(move || {
                        let run = Run::new(&app, &pattern, &config, None, placement.clone());
                        let mut driver = Driver::new(pattern.as_ref(), link);
                        // A driver that unwinds must still report, or the
                        // admission loop would wait on it forever.
                        let drive = AssertUnwindSafe(|| driver.drive(run, track_base(j)));
                        let result = catch_unwind(drive).unwrap_or_else(|_| {
                            Err(EngineError::Job(format!("job {j}'s driver panicked")))
                        });
                        driver.release(&placement);
                        let _ = tx.send((j, result));
                    })
                    .expect("spawn job driver");
                driver_handles.push(handle);
                running += 1;
                peak = peak.max(running);
            }
            if let Ok((jid, result)) = done_rx.recv_timeout(Duration::from_millis(5)) {
                running -= 1;
                recorder.instant_now(me.0, RUNTIME_WORKER, EventKind::JobDone, jid as u64);
                results[jid] = Some(result);
            }
        }

        for h in driver_handles {
            let _ = h.join();
        }
        session.close(false);
        if let Some(w) = watchdog {
            let _ = w.join();
        }

        if me != PlaceId::ZERO {
            return Ok(None);
        }
        let jobs = results
            .into_iter()
            .enumerate()
            .map(|(j, r)| JobOutcome {
                job_id: j as u32,
                name: self.jobs[j].name.clone(),
                priority: self.jobs[j].priority,
                wait: waits[j],
                result: match r {
                    Some(Ok(Some(result))) => Ok(result),
                    Some(Ok(None)) => Err(EngineError::Job("job ended without a result".into())),
                    Some(Err(e)) => Err(e),
                    None => Err(EngineError::Job("job was never admitted".into())),
                },
            })
            .collect();
        Ok(Some(ServeReport {
            jobs,
            peak_in_flight: peak,
        }))
    }

    /// Resolves, sorts and checks every job's placement against the
    /// mesh's *live roster* — an elastic mesh may have drained or dead
    /// slots below its capacity, and a pin to one of those must be
    /// rejected, not discovered as a hang.
    fn resolve_placements(&self, members: &[PlaceId]) -> Result<Vec<Vec<PlaceId>>, EngineError> {
        let mut placements = Vec::with_capacity(self.jobs.len());
        for (j, spec) in self.jobs.iter().enumerate() {
            let mut placement = spec.places.clone().unwrap_or_else(|| members.to_vec());
            placement.sort_unstable();
            placement.dedup();
            if placement.first() != Some(&PlaceId::ZERO) {
                return Err(EngineError::Job(format!(
                    "job {j} ({}) must include place 0, its coordinator",
                    spec.name
                )));
            }
            if let Some(p) = placement.iter().find(|p| !members.contains(p)) {
                return Err(EngineError::Job(format!(
                    "job {j} ({}) is pinned to {p}, not a live member of the mesh",
                    spec.name
                )));
            }
            if spec.config.topology.num_places() as usize != placement.len() {
                return Err(EngineError::Job(format!(
                    "job {j} ({}): topology has {} places but the placement has {}",
                    spec.name,
                    spec.config.topology.num_places(),
                    placement.len()
                )));
            }
            validate(spec.pattern.as_ref())?;
            placements.push(placement);
        }
        Ok(placements)
    }
}

/// The first trace track of job `job`'s workers: high-numbered and
/// eight apart, so each job's compute shows up on its own tracks and
/// never collides with a solo engine's worker ids (which count from 0).
fn track_base(job: usize) -> u64 {
    0x4A00 | (((job as u64) & 0x3F) << 3)
}

/// The victim place's self-inflicted planned fault: once this place has
/// published the armed number of vertices across all jobs, crash —
/// peers *detect* the death (heartbeats), exactly like a SIGKILL.
fn kill_watchdog(member: &Member, after_vertices: u64) {
    while !member.over.load(Ordering::Acquire) && !member.dying.load(Ordering::Acquire) {
        let published = &member.node.stats().place(member.node.me()).tasks_run;
        if published.load(Ordering::Relaxed) >= after_vertices {
            member.die();
            return;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DepView;
    use dpx10_dag::VertexId;

    struct Nop;
    impl DpApp for Nop {
        type Value = u64;
        fn compute(&self, _id: VertexId, _deps: &DepView<'_, u64>) -> u64 {
            0
        }
    }

    #[test]
    fn submit_applies_backpressure() {
        let mut server: JobServer<Nop> = JobServer::new().with_max_queue(2);
        let spec = || {
            JobSpec::new(
                "j",
                Nop,
                dpx10_dag::builtin::RowWave::new(2, 2),
                EngineConfig::flat(1),
            )
        };
        assert_eq!(server.submit(spec()).unwrap(), 0);
        assert_eq!(server.submit(spec()).unwrap(), 1);
        let err = server.submit(spec()).unwrap_err();
        assert!(matches!(err, EngineError::Job(_)), "{err}");
    }

    #[test]
    fn placement_must_include_place_zero() {
        let mut server: JobServer<Nop> = JobServer::new();
        server
            .submit(
                JobSpec::new(
                    "pinned-wrong",
                    Nop,
                    dpx10_dag::builtin::RowWave::new(2, 2),
                    EngineConfig::flat(1),
                )
                .pinned_to(vec![PlaceId(1)]),
            )
            .unwrap();
        let err = server
            .resolve_placements(&[PlaceId(0), PlaceId(1)])
            .unwrap_err();
        assert!(err.to_string().contains("place 0"), "{err}");
    }

    #[test]
    fn placement_must_match_topology() {
        let mut server: JobServer<Nop> = JobServer::new();
        server
            .submit(JobSpec::new(
                "too-wide",
                Nop,
                dpx10_dag::builtin::RowWave::new(2, 2),
                EngineConfig::flat(3),
            ))
            .unwrap();
        let err = server
            .resolve_placements(&[PlaceId(0), PlaceId(1)])
            .unwrap_err();
        assert!(matches!(err, EngineError::Job(_)), "{err}");
    }

    #[test]
    fn placement_must_name_live_members_only() {
        let mut server: JobServer<Nop> = JobServer::new();
        server
            .submit(
                JobSpec::new(
                    "pinned-to-drained",
                    Nop,
                    dpx10_dag::builtin::RowWave::new(2, 2),
                    EngineConfig::flat(2),
                )
                .pinned_to(vec![PlaceId(0), PlaceId(1)]),
            )
            .unwrap();
        // A 4-capacity mesh where slot 1 drained out: members are 0, 2.
        let err = server
            .resolve_placements(&[PlaceId(0), PlaceId(2)])
            .unwrap_err();
        assert!(err.to_string().contains("not a live member"), "{err}");
        // The same pin is fine while slot 1 is a member.
        assert!(server
            .resolve_placements(&[PlaceId(0), PlaceId(1), PlaceId(2)])
            .is_ok());
    }
}

//! The elastic mesh: places join a running computation and drain out of
//! it, and a job server carries the membership from job to job.
//!
//! A membership change is the paper's recovery rule (§VI-D), planned:
//! each verb of an [`ElasticPlan`] is a boundary of the shared epoch
//! loop, armed like an exact progress kill. Its epoch ends and the next
//! is distributed over the new roster from every finished cell: a
//! drainer's cells go to their new owners, a kill loses only the
//! victim's ([`RestoreManner::CopyRemote`]). The stop is a `Join` or
//! `Drain` span on place 0's runtime track, up to the next epoch's start.

use dpx10_apgas::{ElasticPlan, PlaceId};
use dpx10_dag::DagPattern;
use dpx10_distarray::RestoreManner;
use dpx10_obs::Recorder;

use crate::app::{DagResult, DpApp, VertexValue};
use crate::config::EngineConfig;
use crate::engine::ThreadedEngine;
use crate::epoch::Boundaries;
use crate::error::EngineError;

/// Configuration of an elastic run.
#[derive(Clone, Debug)]
pub struct ElasticConfig {
    /// Founding members (places `0..founding`).
    pub founding: u16,
    /// Maximum places the mesh may ever grow to (roster capacity).
    pub capacity: u16,
}

impl ElasticConfig {
    /// A mesh of `founding` places with room to grow to `capacity`.
    pub fn new(founding: u16, capacity: u16) -> Self {
        ElasticConfig { founding, capacity }
    }
}

/// Metrics of one elastic run.
#[derive(Clone, Debug, Default)]
pub struct ElasticReport {
    /// Vertices in the DAG.
    pub total: u64,
    /// `compute()` invocations (≥ `total`; the excess is recompute).
    pub computed: u64,
    /// Cells the run's kills lost and computed again.
    pub recomputed: u64,
    /// Finished cells the drained places handed over at their boundaries.
    pub cells_moved: u64,
    /// Epochs a planned boundary ended.
    pub boundaries: u64,
    /// Places that joined mid-run.
    pub joins: u64,
    /// Graceful departures.
    pub drains: u64,
    /// Abrupt deaths.
    pub kills: u64,
    /// `(finished cells, member count)`: the founders, then each change.
    pub mesh_sizes: Vec<(u64, u16)>,
    /// Members still in the mesh at the end, ascending.
    pub final_members: Vec<u16>,
    /// The next fresh place id a joiner would receive.
    pub next_place: u16,
}

/// A finished elastic run: every engine's result, plus the mesh's metrics.
pub struct ElasticRun<V> {
    result: DagResult<V>,
    report: ElasticReport,
}

impl<V: VertexValue> ElasticRun<V> {
    /// The result of `(i, j)`, or `None` for cells outside the DAG.
    pub fn try_get(&self, i: u32, j: u32) -> Option<V> {
        self.result.try_get(i, j)
    }

    /// [`DagResult::fingerprint`] of the run's result.
    pub fn fingerprint(&self) -> u64 {
        self.result.fingerprint()
    }

    /// The result as every engine returns it, with its epochs,
    /// recoveries and communication counters.
    pub fn result(&self) -> &DagResult<V> {
        &self.result
    }

    /// Metrics of the run.
    pub fn report(&self) -> &ElasticReport {
        &self.report
    }
}

/// The elastic mesh engine: a churn plan run on the threaded host.
pub struct ElasticEngine<A: DpApp> {
    /// The host: `capacity` places, whose recovery copies cells over.
    threads: ThreadedEngine<A>,
    founding: u16,
    plan: ElasticPlan,
}

impl<A: DpApp + 'static> ElasticEngine<A> {
    /// A quiet engine (no churn plan) over `app` and `pattern`.
    pub fn new(app: A, pattern: impl DagPattern + 'static, config: ElasticConfig) -> Self {
        let founding = config.founding.max(1);
        let cfg = EngineConfig::flat(config.capacity.max(founding));
        let cfg = cfg.with_restore(RestoreManner::CopyRemote);
        let threads = ThreadedEngine::new(app, pattern, cfg);
        let plan = ElasticPlan::quiet(0);
        ElasticEngine {
            threads,
            founding,
            plan,
        }
    }

    /// Attaches a membership-churn plan.
    pub fn with_plan(mut self, plan: ElasticPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Attaches a flight recorder: the run's events, plus a span per
    /// join and drain.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.threads = self.threads.with_recorder(recorder);
        self
    }

    /// Runs the DAG to completion under the configured churn plan.
    pub fn run(&self) -> Result<ElasticRun<A::Value>, EngineError> {
        self.run_on((0..self.founding).map(PlaceId).collect())
    }

    /// Runs on `members`, ascending from place 0: the founders, or a
    /// server's roster after earlier jobs (which may have holes).
    fn run_on(&self, members: Vec<PlaceId>) -> Result<ElasticRun<A::Value>, EngineError> {
        let total = self.threads.pattern.vertex_count();
        let mut b = Boundaries::new(&self.plan, total, &members);
        let result = self.threads.run_on(members, Some(&mut b))?;
        let mut report = b.log;
        report.computed = result.report().vertices_computed;
        report.recomputed = result.report().recoveries.iter().map(|r| r.lost).sum();
        Ok(ElasticRun { result, report })
    }
}

/// A mesh that outlives a single job: runs DAGs back to back on the
/// same membership, carrying joins and drains across job boundaries.
pub struct ElasticServer {
    capacity: u16,
    recorder: Recorder,
    members: Vec<u16>,
    jobs_run: u64,
}

impl ElasticServer {
    /// A server starting with `founding` members and room for `capacity`.
    pub fn new(founding: u16, capacity: u16) -> Self {
        let founding = founding.max(1);
        ElasticServer {
            capacity: capacity.max(founding),
            recorder: Recorder::disabled(),
            members: (0..founding).collect(),
            jobs_run: 0,
        }
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

    /// Runs one job under `plan`, then adopts the roster it ended with.
    pub fn run_job<A: DpApp + 'static>(
        &mut self,
        app: A,
        pattern: impl DagPattern + 'static,
        plan: ElasticPlan,
    ) -> Result<ElasticRun<A::Value>, EngineError> {
        let config = ElasticConfig::new(self.members.len() as u16, self.capacity);
        let engine = ElasticEngine::new(app, pattern, config).with_plan(plan);
        let engine = engine.with_recorder(self.recorder.clone());
        let run = engine.run_on(self.members.iter().map(|&p| PlaceId(p)).collect())?;
        self.members = run.report.final_members.clone();
        self.jobs_run += 1;
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_apgas::{ElasticEvent, ElasticVerb, ElasticVerb::*};
    use dpx10_dag::{builtin::Grid3, VertexId};

    use crate::app::DepView;

    /// A non-commutative mixing kernel: any dropped, duplicated or
    /// reordered dependency value changes the fingerprint.
    struct Mix;

    impl DpApp for Mix {
        type Value = u64;
        fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
            let mix = |h: u64, (d, v): (VertexId, &u64)| h.rotate_left(13) ^ v ^ d.pack();
            let h = deps.iter().fold(id.pack(), mix);
            h.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn plan(events: &[(f64, ElasticVerb)]) -> ElasticPlan {
        let events = events.iter().map(|&(at, verb)| ElasticEvent { at, verb });
        let events = events.collect();
        ElasticPlan { seed: 1, events }
    }

    fn drain(p: u16) -> ElasticVerb {
        ElasticVerb::Drain { place: PlaceId(p) }
    }

    fn solo() -> u64 {
        let engine = ElasticEngine::new(Mix, Grid3::new(12, 12), ElasticConfig::new(1, 1));
        engine.run().unwrap().fingerprint()
    }

    /// Runs `plan` on a 12×12 grid; the values must be a solo run's.
    fn run_plan(founding: u16, capacity: u16, plan: ElasticPlan) -> ElasticReport {
        let config = ElasticConfig::new(founding, capacity);
        let engine = ElasticEngine::new(Mix, Grid3::new(12, 12), config);
        let run = engine.with_plan(plan).run().unwrap();
        assert_eq!(run.fingerprint(), solo());
        assert_eq!(run.result().get(11, 11), run.try_get(11, 11).unwrap());
        run.report().clone()
    }

    #[test]
    fn quiet_elastic_mesh_matches_solo() {
        let r = run_plan(3, 6, plan(&[]));
        assert_eq!((r.computed, r.recomputed, r.boundaries), (r.total, 0, 0));
        assert_eq!(r.final_members, vec![0, 1, 2]);
    }

    #[test]
    fn grow_to_five_then_drain_to_three_relocates_not_recomputes() {
        let churn = [(0.1, Join), (0.15, Join), (0.5, drain(3)), (0.65, drain(4))];
        let r = run_plan(3, 6, plan(&churn));
        assert_eq!((r.joins, r.drains, r.recomputed), (2, 2, 0), "{r:?}");
        assert_eq!(r.final_members, vec![0, 1, 2], "mesh returns to founders");
        assert!(r.mesh_sizes.iter().any(|&(_, n)| n == 5), "{r:?}");
    }

    #[test]
    fn kill_recovers_by_recompute() {
        // Place 2 holds a third of the cells: at 75 % some are finished.
        let r = run_plan(3, 6, plan(&[(0.75, Kill { place: PlaceId(2) })]));
        assert_eq!((r.kills, r.final_members.clone()), (1, vec![0, 1]));
        assert!(r.recomputed > 0, "a late kill loses finished cells");
        assert_eq!(r.computed, r.total + r.recomputed);
    }

    #[test]
    fn server_carries_membership_across_jobs() {
        let (mut server, solo) = (ElasticServer::new(3, 6), solo());
        let mut job = |events: &[(f64, ElasticVerb)]| {
            let run = server
                .run_job(Mix, Grid3::new(12, 12), plan(events))
                .unwrap();
            assert_eq!(run.fingerprint(), solo);
            (server.members().to_vec(), run.report().recomputed)
        };
        assert_eq!(job(&[(0.2, Join)]).0, [0, 1, 2, 3]);
        assert_eq!(job(&[(0.3, drain(1))]).0, [0, 2, 3], "ids are not reused");
        // The resumed mesh has a hole at place 1 and still runs clean.
        assert_eq!(job(&[]), (vec![0, 2, 3], 0));
        assert_eq!(server.jobs_run(), 3);
    }

    #[test]
    fn generated_plans_replay_against_the_serial_fingerprint() {
        // A mini differential sweep (the harness runs the full one).
        for seed in 0..12u64 {
            let r = run_plan(3, 5, ElasticPlan::generate(seed, 3, 5));
            assert!(r.kills > 0 || r.recomputed == 0, "seed {seed:#x}: {r:?}");
        }
    }
}

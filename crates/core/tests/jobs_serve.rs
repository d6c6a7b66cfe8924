//! In-process end-to-end tests of the multi-job scheduler: every place
//! is a thread with its own `SocketNode`, and one `JobServer` per place
//! serves several concurrent DP jobs over the shared mesh. The oracle
//! for every job is its solo single-place threaded run — vertex values
//! are a pure function of the DAG, so any cross-job frame leakage or
//! scheduling corruption changes a fingerprint.

use dpx10_apgas::local_mesh;
use dpx10_core::{
    CheckpointConfig, DagResult, DepView, DpApp, EngineConfig, EngineError, JobServer, JobSpec,
    PlaceId, ScheduleStrategy, ServeReport, ThreadedEngine,
};
use dpx10_dag::{builtin, DagPattern, VertexId};

/// Differential app: any misrouted or stale dependency value changes
/// everything downstream.
struct MixApp;

impl DpApp for MixApp {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        let mut acc = 0x9E37_79B9_u64.wrapping_mul(id.pack() | 1).rotate_left(7);
        for (did, v) in deps.iter() {
            acc = acc
                .wrapping_add(v.rotate_left((did.i % 31) + 1))
                .wrapping_mul(0x100_0000_01B3);
        }
        acc
    }
}

fn solo_fingerprint(pattern: impl DagPattern + Clone + 'static) -> u64 {
    ThreadedEngine::new(MixApp, pattern, EngineConfig::flat(1))
        .run()
        .expect("solo run")
        .fingerprint()
}

/// Runs `places` serve participants as threads in this process and
/// returns place 0's report. `build` must produce the same server on
/// every call — the serve contract.
fn serve_mesh<A: DpApp<Value = u64> + 'static>(
    places: u16,
    build: impl Fn() -> JobServer<A> + Sync,
) -> ServeReport<u64> {
    local_mesh(places, |socket| build().serve(socket))
        .expect("coordinator returns the report, workers return Ok(None)")
}

#[test]
fn four_concurrent_jobs_match_their_solo_fingerprints() {
    let report = serve_mesh(3, || {
        let mut server = JobServer::new().with_max_in_flight(4);
        server
            .submit(JobSpec::new(
                "grid2",
                MixApp,
                builtin::Grid2::new(14, 14),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(JobSpec::new(
                "grid3",
                MixApp,
                builtin::Grid3::new(12, 12),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(JobSpec::new(
                "rowwave",
                MixApp,
                builtin::RowWave::new(10, 16),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(JobSpec::new(
                "diagonal",
                MixApp,
                builtin::Diagonal::new(12, 12),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
    });

    assert_eq!(report.jobs.len(), 4);
    assert_eq!(report.succeeded(), 4);
    // All four were admitted together (cap 4, one mesh).
    assert_eq!(report.peak_in_flight, 4);
    let solos = [
        solo_fingerprint(builtin::Grid2::new(14, 14)),
        solo_fingerprint(builtin::Grid3::new(12, 12)),
        solo_fingerprint(builtin::RowWave::new(10, 16)),
        solo_fingerprint(builtin::Diagonal::new(12, 12)),
    ];
    for (job, solo) in report.jobs.iter().zip(solos) {
        let result = job.result.as_ref().expect("job succeeded");
        assert_eq!(
            result.fingerprint(),
            solo,
            "job {} diverged from its solo run",
            job.name
        );
        assert_eq!(result.report().epochs, 1, "no faults => one epoch");
        assert!(result.report().recoveries.is_empty());
        // Counted from the job's own shards: the mesh's `tasks_run`
        // counts all four jobs.
        let r = result.report();
        assert_eq!(
            r.vertices_computed, r.vertices_total,
            "job {} computed count",
            job.name
        );
    }
}

/// Under every strategy: a random job ships `Exec` only within its own
/// placement.
#[test]
fn pinned_job_runs_on_its_subset_with_the_same_answer() {
    for schedule in ScheduleStrategy::ALL {
        let report = serve_mesh(3, || {
            let mut server = JobServer::new();
            server
                .submit(JobSpec::new(
                    "wide",
                    MixApp,
                    builtin::Grid3::new(10, 10),
                    EngineConfig::flat(3).with_schedule(schedule),
                ))
                .unwrap();
            server
                .submit(
                    JobSpec::new(
                        "pinned",
                        MixApp,
                        builtin::Grid2::new(10, 10),
                        EngineConfig::flat(2).with_schedule(schedule),
                    )
                    .pinned_to(vec![PlaceId(0), PlaceId(1)]),
                )
                .unwrap();
            server
        });

        assert_eq!(report.succeeded(), 2, "{}", schedule.name());
        assert_eq!(
            report.jobs[0].result.as_ref().unwrap().fingerprint(),
            solo_fingerprint(builtin::Grid3::new(10, 10)),
            "wide job under {}",
            schedule.name()
        );
        assert_eq!(
            report.jobs[1].result.as_ref().unwrap().fingerprint(),
            solo_fingerprint(builtin::Grid2::new(10, 10)),
            "pinned job under {}",
            schedule.name()
        );
    }
}

#[test]
fn priority_and_cap_order_admission() {
    let report = serve_mesh(2, || {
        let mut server = JobServer::new().with_max_in_flight(1);
        server
            .submit(
                JobSpec::new(
                    "background",
                    MixApp,
                    builtin::RowWave::new(8, 8),
                    EngineConfig::flat(2),
                )
                .with_priority(0),
            )
            .unwrap();
        server
            .submit(
                JobSpec::new(
                    "urgent",
                    MixApp,
                    builtin::RowWave::new(8, 8),
                    EngineConfig::flat(2),
                )
                .with_priority(9),
            )
            .unwrap();
        server
    });

    assert_eq!(report.succeeded(), 2);
    assert_eq!(report.peak_in_flight, 1, "cap of one is respected");
    // The urgent job was admitted first despite being submitted second:
    // the background job waited at least as long.
    assert!(report.jobs[0].wait >= report.jobs[1].wait);
}

/// `MixApp` whose completion hook panics on demand — the hook runs on
/// the job's driver thread of place 0, so this unwinds a driver.
struct Fragile {
    boom: bool,
}

impl DpApp for Fragile {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        MixApp.compute(id, deps)
    }
    fn app_finished(&self, _result: &DagResult<u64>) {
        assert!(!self.boom, "app_finished blew up");
    }
}

#[test]
fn a_panicking_driver_fails_its_job_and_the_serve_still_returns() {
    let report = serve_mesh(2, || {
        let mut server = JobServer::new();
        for (name, boom) in [("boom", true), ("fine", false)] {
            server
                .submit(JobSpec::new(
                    name,
                    Fragile { boom },
                    builtin::RowWave::new(6, 6),
                    EngineConfig::flat(2),
                ))
                .unwrap();
        }
        server
    });
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(report.succeeded(), 1, "exactly the panicking job failed");
    assert!(
        matches!(report.jobs[0].result, Err(EngineError::Job(_))),
        "the unwound driver is reported as a failed job"
    );
    assert_eq!(
        report.jobs[1].result.as_ref().unwrap().fingerprint(),
        solo_fingerprint(builtin::RowWave::new(6, 6)),
    );
}

#[test]
fn a_checkpoint_is_refused_at_submission() {
    // A served job's host writes no checkpoint: the job is refused, not
    // run without one, and the queue stays as it was.
    let config = EngineConfig {
        checkpoint: Some(CheckpointConfig::new("unused")),
        ..EngineConfig::flat(2)
    };
    let mut server = JobServer::new();
    let spec = JobSpec::new("ckpt", MixApp, builtin::Grid3::new(6, 6), config);
    let err = server
        .submit(spec)
        .expect_err("a served job cannot checkpoint");
    assert!(
        matches!(
            err,
            EngineError::Unsupported {
                backend: "serve",
                field: "checkpoint"
            }
        ),
        "{err}"
    );
    assert!(server.is_empty());
}

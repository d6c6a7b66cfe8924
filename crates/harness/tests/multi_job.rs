//! Chaos differential oracle for the multi-job scheduler: several
//! concurrent jobs share one 3- or 5-place socket mesh while a pinned,
//! deterministic kill takes a place down mid-serve. The oracle for
//! every job — faulted or not — is its solo single-place threaded run;
//! fault isolation is asserted structurally: only jobs with vertices on
//! the dead place recover (epochs ≥ 2), jobs pinned away from it never
//! see a second epoch. A traced serve adds the trace-side invariant:
//! concurrent jobs' workers never share a `(place, worker)` track.

use std::collections::HashSet;
use std::time::Duration;

use dpx10_apgas::{local_mesh, SocketConfig};
use dpx10_core::{
    DistKind, EngineConfig, JobOutcome, JobServer, JobSpec, PlaceId, ServeKill, ServeReport,
    ThreadedEngine,
};
use dpx10_dag::{builtin, DagPattern};
use dpx10_harness::MixApp;
use dpx10_obs::oracle::check_span_nesting;
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

fn solo_fingerprint(pattern: impl DagPattern + Clone + 'static) -> u64 {
    ThreadedEngine::new(MixApp, pattern, EngineConfig::flat(1))
        .run()
        .expect("solo run")
        .fingerprint()
}

/// Tight failure-detector settings so the pinned kill is noticed fast.
fn tighten(mut cfg: SocketConfig) -> SocketConfig {
    cfg.heartbeat = Duration::from_millis(25);
    cfg.peer_timeout = Duration::from_millis(600);
    cfg
}

fn serve_mesh(places: u16, build: impl Fn() -> JobServer<MixApp> + Sync) -> ServeReport<u64> {
    local_mesh(places, |cfg| build().serve(tighten(cfg)))
        .expect("coordinator returns the report; workers (including the victim) shut down cleanly")
}

#[test]
fn place_death_mid_serve_recovers_only_the_affected_jobs() {
    // Four jobs: two big full-mesh jobs that are certain to have
    // unfinished vertices on place 2 when it dies, two pinned to
    // {0, 1} and therefore out of the blast radius. Place 2 kills
    // itself after publishing 30 vertices — far before any full-mesh
    // job (≥ 360 vertices, ~a third of them on place 2) can finish.
    let report = serve_mesh(3, || {
        let mut server = JobServer::new()
            .with_max_in_flight(4)
            .with_soft_die()
            .with_kill(ServeKill {
                place: PlaceId(2),
                after_vertices: 30,
            });
        server
            .submit(JobSpec::new(
                "wide-grid3",
                MixApp,
                builtin::Grid3::new(20, 20),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(JobSpec::new(
                "wide-grid2",
                MixApp,
                builtin::Grid2::new(18, 20),
                EngineConfig::flat(3),
            ))
            .unwrap();
        server
            .submit(
                JobSpec::new(
                    "pinned-rowwave",
                    MixApp,
                    builtin::RowWave::new(10, 12),
                    EngineConfig::flat(2),
                )
                .pinned_to(vec![PlaceId(0), PlaceId(1)]),
            )
            .unwrap();
        server
            .submit(
                JobSpec::new(
                    "pinned-diagonal",
                    MixApp,
                    builtin::Diagonal::new(11, 11),
                    EngineConfig::flat(2),
                )
                .pinned_to(vec![PlaceId(0), PlaceId(1)]),
            )
            .unwrap();
        server
    });

    assert_eq!(report.jobs.len(), 4);
    assert_eq!(
        report.succeeded(),
        4,
        "every job completes despite the mid-serve place death"
    );

    let solos = [
        solo_fingerprint(builtin::Grid3::new(20, 20)),
        solo_fingerprint(builtin::Grid2::new(18, 20)),
        solo_fingerprint(builtin::RowWave::new(10, 12)),
        solo_fingerprint(builtin::Diagonal::new(11, 11)),
    ];
    for (job, solo) in report.jobs.iter().zip(solos) {
        // Survivors: {0, 1} either way — the wide jobs lost place 2, the
        // pinned ones never had it.
        assert_job(job, solo, job.name.starts_with("wide"), 2);
    }
}

/// One job's fate after a mid-serve place death: the solo fingerprint
/// always; a recovery exactly when the job had vertices on the victim;
/// one busy-time entry per place of its final epoch.
fn assert_job(job: &JobOutcome<u64>, solo: u64, in_blast_radius: bool, survivors: usize) {
    let result = job.result.as_ref().expect("job succeeded");
    assert_eq!(
        result.fingerprint(),
        solo,
        "job {} diverged from its solo oracle after the fault",
        job.name
    );
    let rep = result.report();
    if in_blast_radius {
        // Blast radius: the job lost a place and must have recovered
        // into a second (or later) epoch.
        assert!(
            rep.epochs >= 2,
            "job {} had vertices on the dead place but ran {} epoch(s)",
            job.name,
            rep.epochs
        );
        assert!(
            !rep.recoveries.is_empty(),
            "job {} recorded no recovery pass",
            job.name
        );
    } else {
        // Isolation: jobs pinned away from the victim never even
        // notice the death.
        assert_eq!(
            rep.epochs, 1,
            "pinned job {} was dragged into a recovery it did not need",
            job.name
        );
        assert!(
            rep.recoveries.is_empty(),
            "pinned job {} recorded a recovery",
            job.name
        );
    }
    assert_eq!(
        rep.place_busy.len(),
        survivors,
        "job {} reports busy time per surviving place",
        job.name
    );
}

#[test]
fn place_death_on_five_places_recovers_under_job_wrapping() {
    // Control is a star around place 0: every verdict, snapshot,
    // progress report and `Resume` goes straight between place 0 and
    // one peer. Killing place 1 makes the full-mesh jobs conclude with
    // the other four places and resume the three other survivors, each
    // with its own `Resume` — all under their own job ids. The job
    // pinned to {0, 2, 4} never had place 1 and must not notice.
    //
    // Columns are dealt round-robin, so place 1 owns columns 1, 6, 11, …
    // of the wide jobs: column 1 (24 + 22 cells) needs only place 0, but
    // column 6 needs columns 2..=5 — every other place. A kill at 60
    // published vertices therefore lands after the whole mesh has
    // admitted the wide jobs, and long before they can finish (place 1
    // owns 230 of their cells).
    let wide = || EngineConfig::flat(5).with_dist(DistKind::CyclicCol);
    let report = serve_mesh(5, move || {
        let mut server = JobServer::new()
            .with_max_in_flight(3)
            .with_soft_die()
            .with_kill(ServeKill {
                place: PlaceId(1),
                after_vertices: 60,
            });
        server
            .submit(JobSpec::new(
                "wide-grid3",
                MixApp,
                builtin::Grid3::new(24, 25),
                wide(),
            ))
            .unwrap();
        server
            .submit(JobSpec::new(
                "wide-grid2",
                MixApp,
                builtin::Grid2::new(22, 25),
                wide(),
            ))
            .unwrap();
        server
            .submit(
                JobSpec::new(
                    "pinned-rowwave",
                    MixApp,
                    builtin::RowWave::new(12, 12),
                    EngineConfig::flat(3),
                )
                .pinned_to(vec![PlaceId(0), PlaceId(2), PlaceId(4)]),
            )
            .unwrap();
        server
    });

    assert_eq!(report.succeeded(), 3);
    let solos = [
        solo_fingerprint(builtin::Grid3::new(24, 25)),
        solo_fingerprint(builtin::Grid2::new(22, 25)),
        solo_fingerprint(builtin::RowWave::new(12, 12)),
    ];
    for (job, solo) in report.jobs.iter().zip(solos) {
        let wide = job.name.starts_with("wide");
        assert_job(job, solo, wide, if wide { 4 } else { 3 });
    }
}

#[test]
fn traced_serve_keeps_every_jobs_workers_on_their_own_tracks() {
    // What the shared pool used to guarantee by construction, now that
    // every job's workers are plain per-epoch threads: with the cap's
    // worth of jobs in flight, one owner thread per place each, and a
    // place dying under them, no two workers of one place ever record
    // onto the same `(place, worker)` track — their compute spans would
    // interleave and fail the nesting oracle.
    let recorder = Recorder::with_capacity(3, 1 << 16);
    let report = serve_mesh(3, || {
        let mut server = JobServer::new()
            .with_max_in_flight(3)
            .with_soft_die()
            .with_recorder(recorder.clone())
            .with_kill(ServeKill {
                place: PlaceId(2),
                after_vertices: 40,
            });
        let (g3, g2) = (builtin::Grid3::new(20, 20), builtin::Grid2::new(18, 20));
        server
            .submit(JobSpec::new("grid3", MixApp, g3, EngineConfig::flat(3)))
            .unwrap();
        server
            .submit(JobSpec::new("grid2", MixApp, g2, EngineConfig::flat(3)))
            .unwrap();
        let (dg, rw) = (
            builtin::Diagonal::new(16, 16),
            builtin::RowWave::new(12, 24),
        );
        server
            .submit(JobSpec::new("diagonal", MixApp, dg, EngineConfig::flat(3)))
            .unwrap();
        server
            .submit(JobSpec::new("rowwave", MixApp, rw, EngineConfig::flat(3)))
            .unwrap();
        server
    });

    assert_eq!(report.succeeded(), 4);
    assert_eq!(report.peak_in_flight, 3, "the cap's worth ran together");
    let solos = [
        solo_fingerprint(builtin::Grid3::new(20, 20)),
        solo_fingerprint(builtin::Grid2::new(18, 20)),
        solo_fingerprint(builtin::Diagonal::new(16, 16)),
        solo_fingerprint(builtin::RowWave::new(12, 24)),
    ];
    for (job, solo) in report.jobs.iter().zip(solos) {
        let result = job.result.as_ref().expect("job succeeded");
        assert_eq!(result.fingerprint(), solo, "job {} diverged", job.name);
    }
    assert!(
        report
            .jobs
            .iter()
            .any(|j| !j.result.as_ref().unwrap().report().recoveries.is_empty()),
        "the kill landed mid-serve"
    );

    let trace = recorder.drain();
    assert!(
        trace.complete(),
        "ring too small: {} dropped",
        trace.dropped
    );
    // Worker tracks only: concurrent jobs' drivers legitimately overlap
    // their snapshot/recovery spans on a place's runtime track.
    let mut events = trace.events;
    events.retain(|e| e.worker != RUNTIME_WORKER);
    check_span_nesting(&events).expect("two workers shared a track");
    let tracks: HashSet<u16> = events
        .iter()
        .filter(|e| e.place == 0 && e.kind == EventKind::VertexCompute)
        .map(|e| e.worker)
        .collect();
    assert!(
        tracks.len() >= 4,
        "each job computes on its own tracks: {tracks:?}"
    );
}

//! The epoch loop has four real-time hosts; the same configuration
//! must mean the same thing on each. One planned kill, run through the
//! threaded engine (every place's workers threads of one process) and
//! through a socket mesh (every place its own host), is held to the
//! same report shape, the same values and the same trace numbering; a
//! quiet DAG reads the same as a mesh's solo run and as the only job
//! of a serve — both are one session of one run; and the elastic engine
//! is the threaded host plus planned membership boundaries.

use std::time::Duration;

use dpx10_apgas::{local_mesh, ElasticEvent, ElasticPlan, ElasticVerb, PlaceId, SocketConfig};
use dpx10_core::{
    DagResult, DistKind, ElasticConfig, ElasticEngine, EngineConfig, FaultPlan, JobServer, JobSpec,
    SocketEngine, ThreadedEngine,
};
use dpx10_dag::builtin::Grid3;
use dpx10_harness::{oracle, MixApp};
use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

const PLACES: u16 = 3;
// Large enough that the mesh's coordinator, which polls progress every
// couple of milliseconds, sees the 40 % threshold long before the end.
const SIDE: u32 = 128;

fn config() -> EngineConfig {
    EngineConfig::flat(PLACES)
        .with_dist(DistKind::BlockRow)
        .with_fault(FaultPlan {
            place: PlaceId(2),
            after_fraction: 0.4,
        })
}

fn on_threads(recorder: Recorder) -> DagResult<u64> {
    ThreadedEngine::new(MixApp, Grid3::new(SIDE, SIDE), config())
        .with_recorder(recorder)
        .run()
        .expect("the threaded run survives the kill")
}

fn on_the_mesh(recorder: Recorder) -> DagResult<u64> {
    local_mesh(PLACES, |mut cfg: SocketConfig| {
        cfg.heartbeat = Duration::from_millis(25);
        cfg.peer_timeout = Duration::from_millis(600);
        SocketEngine::new(MixApp, Grid3::new(SIDE, SIDE), config())
            .with_soft_die()
            .with_recorder(recorder.clone())
            .run(cfg)
    })
    .expect("the coordinator holds the result and the workers shut down cleanly")
}

#[test]
fn one_kill_reads_the_same_on_threads_and_on_a_mesh() {
    let threads = on_threads(Recorder::disabled());
    let mesh = on_the_mesh(Recorder::disabled());

    for (id, want) in oracle(&Grid3::new(SIDE, SIDE)) {
        assert_eq!(threads.try_get(id.i, id.j), Some(want), "threads at {id}");
    }
    assert_eq!(threads.fingerprint(), mesh.fingerprint());

    for (host, result) in [("threads", &threads), ("mesh", &mesh)] {
        let report = result.report();
        assert!(report.epochs >= 2, "{host}: the kill must have fired");
        assert_eq!(
            report.recoveries.len() as u32,
            report.epochs - 1,
            "{host}: one recovery per abandoned epoch"
        );
        assert_eq!(
            report.place_busy.len(),
            usize::from(PLACES) - 1,
            "{host}: busy time is reported for the survivors"
        );
        assert_eq!(report.vertices_total, u64::from(SIDE * SIDE), "{host}");
        assert!(report.vertices_computed >= report.vertices_total, "{host}");
        assert_eq!(report.comm.tasks_run, report.vertices_computed, "{host}");
    }
}

#[test]
fn a_solo_mesh_run_reads_the_same_as_the_only_job_of_a_serve() {
    let quiet = || EngineConfig::flat(PLACES).with_dist(DistKind::BlockRow);
    let solo = local_mesh(PLACES, |cfg: SocketConfig| {
        SocketEngine::new(MixApp, Grid3::new(SIDE, SIDE), quiet()).run(cfg)
    })
    .expect("the solo run finishes");
    let mut served = local_mesh(PLACES, |cfg: SocketConfig| {
        let mut server = JobServer::new();
        let spec = JobSpec::new("only", MixApp, Grid3::new(SIDE, SIDE), quiet());
        server.submit(spec).expect("an empty queue admits");
        server.serve(cfg)
    })
    .expect("the serve finishes");
    let served = served.jobs.remove(0).result.expect("the job succeeds");

    assert_eq!(solo.fingerprint(), served.fingerprint());
    for (host, result) in [("solo", &solo), ("served", &served)] {
        let report = result.report();
        assert_eq!(report.epochs, 1, "{host}");
        assert_eq!(report.vertices_computed, u64::from(SIDE * SIDE), "{host}");
        assert_eq!(report.place_busy.len(), usize::from(PLACES), "{host}");
        // A session of one run reports `comm`: the mesh's counters are
        // that run's own.
        assert_eq!(report.comm.tasks_run, report.vertices_computed, "{host}");
    }
}

#[test]
fn traces_number_epochs_from_zero_on_every_host() {
    // `EpochStart` carries the 0-based epoch that starts, the `Recovery`
    // span the 0-based epoch that was abandoned — as on the simulator.
    type Host = fn(Recorder) -> DagResult<u64>;
    for (host, run) in [("threads", on_threads as Host), ("mesh", on_the_mesh)] {
        let recorder = Recorder::with_capacity(usize::from(PLACES), 1 << 18);
        let result = run(recorder.clone());
        assert_eq!(result.report().epochs, 2, "{host}");
        let trace = recorder.drain();
        assert!(trace.complete(), "{host}: the ring must not have wrapped");
        let of = |kind: EventKind| {
            let events = trace.events.iter();
            events.filter(move |e| e.kind == kind && e.place == 0)
        };
        let starts: Vec<u64> = of(EventKind::EpochStart).map(|e| e.arg).collect();
        assert_eq!(starts, [0, 1], "{host}: EpochStart args on place 0");
        let recoveries: Vec<u64> = of(EventKind::Recovery).map(|e| e.arg).collect();
        assert_eq!(recoveries, [0], "{host}: one Recovery span, of epoch 0");
    }
}

fn elastic(founding: u16, capacity: u16, events: Vec<ElasticEvent>) -> ElasticEngine<MixApp> {
    let plan = ElasticPlan {
        seed: 0xED6E,
        events,
    };
    let config = ElasticConfig::new(founding, capacity);
    ElasticEngine::new(MixApp, Grid3::new(SIDE, SIDE), config).with_plan(plan)
}

fn drain(at: f64, place: u16) -> ElasticEvent {
    let verb = ElasticVerb::Drain {
        place: PlaceId(place),
    };
    ElasticEvent { at, verb }
}

#[test]
fn the_elastic_host_is_the_threaded_host_plus_boundaries() {
    // Quiet, the elastic engine is the threaded engine on its founders.
    let threads = ThreadedEngine::new(MixApp, Grid3::new(SIDE, SIDE), EngineConfig::flat(PLACES))
        .run()
        .expect("the threaded run finishes");
    let quiet = elastic(PLACES, 6, Vec::new()).run().expect("a quiet run");
    assert_eq!(quiet.fingerprint(), threads.fingerprint());
    let report = quiet.result().report();
    assert_eq!(report.vertices_computed, threads.report().vertices_computed);
    assert_eq!((report.epochs, quiet.report().boundaries), (1, 0));

    // Drains only add epochs: no recovery, nothing computed twice.
    let drained = elastic(4, 6, vec![drain(0.3, 3), drain(0.6, 1)]).run();
    let drained = drained.expect("a drained run");
    assert_eq!(drained.fingerprint(), threads.fingerprint());
    let (report, r) = (drained.result().report(), drained.report());
    assert!(report.recoveries.is_empty(), "{r:?}");
    assert_eq!((r.drains, r.recomputed), (2, 0));
    assert!(r.boundaries >= 1, "{r:?}");
    assert_eq!(u64::from(report.epochs), 1 + r.boundaries);

    // A join past capacity is refused; the one under it is not.
    let join = ElasticEvent {
        at: 0.2,
        verb: ElasticVerb::Join,
    };
    let joined = elastic(PLACES, PLACES + 1, vec![join, join]).run();
    let r = joined.expect("a joined run").report().clone();
    assert_eq!((r.joins, r.next_place), (1, PLACES + 1));
    assert_eq!(r.final_members, [0, 1, 2, 3]);
}

#[test]
fn a_boundary_stops_place_zero_until_the_next_epoch_starts() {
    // One span per membership verb on place 0's runtime track, from the
    // boundary to the next `EpochStart`.
    let recorder = Recorder::with_capacity(6, 1 << 18);
    let run = elastic(PLACES, 6, vec![drain(0.5, 2)]).with_recorder(recorder.clone());
    assert_eq!(run.run().expect("a drained run").report().drains, 1);
    let trace = recorder.drain();
    let on_zero = |kind| {
        let events = trace.events.iter();
        events.filter(move |e| e.kind == kind && e.place == 0 && e.worker == RUNTIME_WORKER)
    };
    let spans: Vec<_> = on_zero(EventKind::Drain).collect();
    assert_eq!(spans.len(), 1, "one drain, one span");
    assert_eq!(spans[0].arg, 2, "the span names the drained place");
    let starts: Vec<u64> = on_zero(EventKind::EpochStart).map(|e| e.ts_ns).collect();
    assert_eq!(starts.len(), 2);
    assert_eq!(
        spans[0].end_ns(),
        starts[1],
        "the world restarts with epoch 1"
    );
}

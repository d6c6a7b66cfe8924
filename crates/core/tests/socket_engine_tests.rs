//! In-process end-to-end tests of the socket engine: every place is a
//! thread with its own `SocketNode`, so the whole TCP mesh, the wire
//! protocol and the termination/recovery control plane run for real —
//! only process boundaries are missing (the CLI integration tests cover
//! those, including SIGKILL fault injection).

use std::sync::Arc;

use dpx10_apgas::local_mesh;
use dpx10_core::{
    CheckpointConfig, DepView, DistKind, DpApp, EngineConfig, ScheduleStrategy, SocketEngine,
    ThreadedEngine,
};
use dpx10_dag::{builtin::Grid3, topological_order, DagPattern, VertexId};

/// Same differential app as the threaded engine tests: any misrouted or
/// stale dependency value changes everything downstream.
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

fn oracle<P: DagPattern>(pattern: &P) -> std::collections::HashMap<VertexId, u64> {
    let order = topological_order(pattern).expect("acyclic");
    let mut out = std::collections::HashMap::new();
    let mut deps = Vec::new();
    for id in order {
        deps.clear();
        pattern.dependencies(id.i, id.j, &mut deps);
        let vals: Vec<u64> = deps.iter().map(|d| out[d]).collect();
        out.insert(id, MixApp.compute(id, &DepView::new(&deps, &vals)));
    }
    out
}

/// Runs `places` socket places as threads in this process and returns
/// the coordinator's result.
fn run_mesh<P: DagPattern + Clone + 'static>(
    places: u16,
    pattern: P,
    config: EngineConfig,
    init: Option<dpx10_core::InitOverride<u64>>,
) -> dpx10_core::DagResult<u64> {
    local_mesh(places, |socket| {
        let mut engine = SocketEngine::new(MixApp, pattern.clone(), config.clone());
        if let Some(init) = init.clone() {
            engine = engine.with_init(init);
        }
        engine.run(socket)
    })
    .expect("coordinator returns the result, workers yield none")
}

#[test]
fn four_places_match_oracle_and_threaded_engine_bit_for_bit() {
    let pattern = Grid3::new(13, 11);
    let expect = oracle(&pattern);
    let threaded = ThreadedEngine::new(MixApp, pattern, EngineConfig::flat(4))
        .run()
        .expect("threaded run");
    let socket = run_mesh(4, pattern, EngineConfig::flat(4), None);
    for (id, v) in &expect {
        assert_eq!(
            socket.try_get(id.i, id.j).as_ref(),
            Some(v),
            "{id} vs oracle"
        );
        assert_eq!(
            socket.try_get(id.i, id.j),
            threaded.try_get(id.i, id.j),
            "{id} vs threaded engine"
        );
    }
    assert_eq!(socket.report().epochs, 1);
}

#[test]
fn socket_stats_count_real_framed_bytes_with_no_network_model() {
    let result = run_mesh(
        3,
        Grid3::new(10, 10),
        EngineConfig::flat(3).with_dist(DistKind::BlockCol),
        None,
    );
    let comm = result.report().comm;
    assert!(comm.messages_sent > 0, "places must have talked");
    assert!(
        comm.bytes_sent > comm.messages_sent * 5,
        "every framed message costs at least its header"
    );
    assert_eq!(
        comm.net_time,
        std::time::Duration::ZERO,
        "the socket backend must not price transfers through the model"
    );
}

#[test]
fn pull_path_over_sockets_matches_oracle() {
    // No cache: every pushed remote value is evicted immediately and
    // must be pulled back over the wire.
    let pattern = Grid3::new(12, 12);
    let expect = oracle(&pattern);
    let result = run_mesh(
        4,
        pattern,
        EngineConfig::flat(4)
            .with_cache(0)
            .with_dist(DistKind::CyclicCol),
        None,
    );
    for (id, v) in &expect {
        assert_eq!(result.try_get(id.i, id.j).as_ref(), Some(v), "{id}");
    }
    assert!(result.report().comm.cache_misses > 0);
}

/// Every strategy runs as asked over sockets; random ships most
/// vertices as `Exec` to another place and their `ExecResult` back.
#[test]
fn random_scheduling_ships_exec_over_the_wire() {
    let pattern = Grid3::new(11, 11);
    let expect = oracle(&pattern);
    for schedule in ScheduleStrategy::ALL {
        let result = run_mesh(
            3,
            pattern,
            EngineConfig::flat(3).with_schedule(schedule),
            None,
        );
        for (id, v) in &expect {
            assert_eq!(
                result.try_get(id.i, id.j).as_ref(),
                Some(v),
                "{id} under {}",
                schedule.name()
            );
        }
    }
}

#[test]
fn fully_prefinished_dag_short_circuits_on_every_place() {
    let init: dpx10_core::InitOverride<u64> = Arc::new(|i, j| Some(u64::from(i * 100 + j)));
    let result = run_mesh(3, Grid3::new(8, 8), EngineConfig::flat(3), Some(init));
    assert_eq!(result.report().vertices_computed, 0);
    assert_eq!(result.get(7, 7), 707);
}

/// `MixApp` whose `compute()` panics at one vertex.
struct PanicsAt(VertexId);

impl DpApp for PanicsAt {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        assert!(id != self.0, "compute() blew up at {id}");
        MixApp.compute(id, deps)
    }
}

#[test]
fn a_panicking_compute_fails_the_mesh_run_in_bounded_time() {
    // (6, 5) is place 1's: its worker unwinds, the place leaves the mesh
    // like a dead one, place 0 recovers alone, reaches the same vertex
    // and reports its own panic — an error well inside the (default,
    // 30 s) stall limit, never a hang.
    let started = std::time::Instant::now();
    let err = local_mesh(2, |socket| {
        SocketEngine::new(
            PanicsAt(VertexId::new(6, 5)),
            Grid3::new(10, 10),
            EngineConfig::flat(2),
        )
        .with_soft_die()
        .run(socket)
    })
    .err()
    .expect("a run whose compute() panics must not complete");
    assert!(
        err.contains("coordinator failed: a worker thread of place 0 panicked"),
        "{err}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "reported only after {:?}",
        started.elapsed()
    );
}

#[test]
fn a_checkpoint_is_refused_not_dropped() {
    let config = EngineConfig {
        checkpoint: Some(CheckpointConfig::new("unused")),
        ..EngineConfig::flat(2)
    };
    let err = local_mesh(2, |socket| {
        SocketEngine::new(MixApp, Grid3::new(6, 6), config.clone()).run(socket)
    })
    .err()
    .expect("the socket backend cannot checkpoint");
    assert!(
        err.contains("the sockets backend does not support `checkpoint`"),
        "{err}"
    );
}

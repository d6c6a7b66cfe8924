//! How many heap allocations a run makes per cell when most edges cross
//! places. A counting global allocator bumps a process-wide counter, so
//! every case holds [`SERIAL`] while it counts, and counts the second
//! of two identical runs (the first pays one-time setup: thread-locals,
//! lazily sized tables).
//!
//! The shape is the socket benchmark's: a SWLAG grid on cyclic columns
//! over two places, so every vertex's left and diagonal dependencies
//! live on the other place, with a 256-entry cache. In push mode with
//! coalescing, a remote edge allocates nothing: its `Done` targets are
//! inline, one pin serves all of a value's targets, the shard tables
//! reuse their buckets and a remote gather fills an inline array. What
//! remains is per batch, per frame and per run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use dpx10_apgas::local_mesh;
use dpx10_core::{
    CommsMode, DagResult, DepView, DistKind, DpApp, EngineConfig, SocketEngine, ThreadedEngine,
};
use dpx10_dag::builtin::Grid3;
use dpx10_dag::VertexId;

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const SIDE: u32 = 200;

/// The most allocations per cell a push run with coalescing may make.
const PUSH_BOUND: f64 = 0.5;

/// Smith-Waterman with affine gaps (Gotoh): `(h, e, f)` per cell over
/// two pseudo-random sequences, the benchmark's SWLAG.
struct Swlag {
    a: Vec<u8>,
    b: Vec<u8>,
}

const NEG_INF: i32 = i32::MIN / 4;

impl Swlag {
    fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut seq = || {
            (0..SIDE - 1)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    b"ACGT"[(x % 4) as usize]
                })
                .collect()
        };
        Swlag { a: seq(), b: seq() }
    }
}

impl DpApp for Swlag {
    type Value = (i32, i32, i32);

    fn compute(&self, id: VertexId, deps: &DepView<'_, (i32, i32, i32)>) -> (i32, i32, i32) {
        let (i, j) = (id.i, id.j);
        if i == 0 || j == 0 {
            return (0, NEG_INF, NEG_INF);
        }
        let (open, extend) = (-3, -1);
        let up = deps.get(i - 1, j).expect("up");
        let left = deps.get(i, j - 1).expect("left");
        let diag = deps.get(i - 1, j - 1).expect("diag");
        let s = if self.a[i as usize - 1] == self.b[j as usize - 1] {
            2
        } else {
            -1
        };
        let e = (left.1 + extend).max(left.0 + open);
        let f = (up.2 + extend).max(up.0 + open);
        (0.max(diag.0 + s).max(e).max(f), e, f)
    }
}

fn config(comms: CommsMode, coalesce: Option<usize>) -> EngineConfig {
    EngineConfig::flat(2)
        .with_dist(DistKind::CyclicCol)
        .with_cache(256)
        .with_comms(comms)
        .with_coalesce(coalesce)
}

fn threads(config: &EngineConfig) -> DagResult<(i32, i32, i32)> {
    let engine = ThreadedEngine::new(Swlag::new(), Grid3::new(SIDE, SIDE), config.clone());
    engine.run().expect("threaded run")
}

fn sockets(config: &EngineConfig) -> DagResult<(i32, i32, i32)> {
    local_mesh(2, |socket| {
        SocketEngine::new(Swlag::new(), Grid3::new(SIDE, SIDE), config.clone()).run(socket)
    })
    .expect("socket mesh run")
}

/// Allocations per cell of the second of two runs of `run`, whose
/// answer must equal the first's.
fn allocs_per_cell(
    run: fn(&EngineConfig) -> DagResult<(i32, i32, i32)>,
    config: &EngineConfig,
) -> f64 {
    let first = run(config);
    ALLOCS.store(0, Ordering::SeqCst);
    let second = run(config);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let cells = u64::from(SIDE * SIDE);
    assert_eq!(second.report().vertices_computed, cells);
    assert_eq!(
        second.get(SIDE - 1, SIDE - 1),
        first.get(SIDE - 1, SIDE - 1)
    );
    allocs as f64 / cells as f64
}

#[test]
fn a_threaded_push_run_allocates_almost_nothing_per_cell() {
    let _serial = serial();
    let per_cell = allocs_per_cell(threads, &config(CommsMode::Push, Some(4096)));
    println!("threads, push + coalesce 4096: {per_cell:.3} allocations per cell");
    assert!(per_cell <= PUSH_BOUND, "{per_cell:.3} allocations per cell");
}

#[test]
fn a_socket_push_run_allocates_almost_nothing_per_cell() {
    let _serial = serial();
    let per_cell = allocs_per_cell(sockets, &config(CommsMode::Push, Some(4096)));
    println!("sockets, push + coalesce 4096: {per_cell:.3} allocations per cell");
    assert!(per_cell <= PUSH_BOUND, "{per_cell:.3} allocations per cell");
}

/// Pull mode parks vertices and sends a frame per event: reported, not
/// bounded (the sockets figure is per frame).
#[test]
fn pull_runs_report_their_allocations_per_cell() {
    let _serial = serial();
    let pull = config(CommsMode::Pull, None);
    let threaded = allocs_per_cell(threads, &pull);
    let socket = allocs_per_cell(sockets, &pull);
    println!("threads, pull: {threaded:.3} allocations per cell");
    println!("sockets, pull: {socket:.3} allocations per cell");
}

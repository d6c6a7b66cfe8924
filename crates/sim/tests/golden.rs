//! Golden numbers of the simulator, recorded at the commit *before* its
//! private copy of the vertex protocol was deleted (PR 17's parent).
//!
//! The simulator is deterministic, and every paper figure is read off
//! its virtual clock and traffic counters — so a refactor of the vertex
//! protocol must leave those numbers bit-identical, not merely "still
//! correct". Each row below pins one configuration's makespan, traffic
//! and event trace as literals; a change that moves any of them has
//! changed what the simulated cluster *does* (send order, park/pull
//! decisions, dedup, fault timing), and must say so by editing the row.
//!
//! The eighth column is `Trace::fingerprint()` of the flight recorder's
//! trace: every event the run stamps on the virtual clock (vertex
//! computes, sends, cache and pull instants, faults, recoveries). Its
//! literals were recorded at commit 01a80f9, with a recorder attached
//! to the unchanged engine, when they replaced the digest of the
//! simulator's own trace buffer; the other seven columns keep their
//! original literals.

use dpx10_core::{
    CommsMode, DepView, DistKind, DpApp, FaultPlan, PlaceId, RestoreManner, ScheduleStrategy,
};
use dpx10_dag::builtin::{FullPrevRowCol, Grid3, Pyramid};
use dpx10_dag::{DagPattern, VertexId};
use dpx10_obs::Recorder;
use dpx10_sim::{ReadyPolicy, SimConfig, SimEngine};

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

/// `(sim_time ns, messages_sent, bytes_sent, pulls_sent, pulls_deduped,
/// cache_hits, vertices_computed, recorder trace fingerprint)`.
type Golden = (u64, u64, u64, u64, u64, u64, u64, u64);

fn measure(pattern: impl DagPattern + 'static, config: SimConfig) -> Golden {
    let recorder = Recorder::new(config.topology.num_places() as usize);
    let result = SimEngine::new(MixApp, pattern, config)
        .with_recorder(recorder.clone())
        .run()
        .expect("completes");
    let trace = recorder.drain();
    assert!(trace.complete(), "the pinned trace must be complete");
    let r = result.report();
    (
        r.sim_time.as_nanos() as u64,
        r.comm.messages_sent,
        r.comm.bytes_sent,
        r.comm.pulls_sent,
        r.comm.pulls_deduped,
        r.comm.cache_hits,
        r.vertices_computed,
        trace.fingerprint(),
    )
}

/// The DAG shapes of the table: a wavefront with two remote edges per
/// vertex, a wide fan-in (whole previous row and column) where MinComm
/// actually ships work, and a pyramid whose simultaneously-ready
/// vertices share remote dependencies (the pull-dedup hub).
#[derive(Clone, Copy, Debug)]
enum Shape {
    Grid,
    FanIn,
    Pyramid,
}

/// One configuration: shape, distribution, comms mode, cache entries,
/// scheduler, mid-run fault (place 2 at 50 %) with its restore manner,
/// ready-list policy — and what it must measure.
type Row = (
    Shape,
    DistKind,
    CommsMode,
    usize,
    ScheduleStrategy,
    Option<RestoreManner>,
    ReadyPolicy,
    Golden,
);

/// Runs one row on 4 places × 6 workers over the Tianhe-like network.
fn run_row(row: &Row) -> Golden {
    let (shape, dist, comms, cache, schedule, fault, ready, _) = row.clone();
    let mut c = SimConfig::paper(2)
        .with_dist(dist)
        .with_comms(comms)
        .with_cache(cache)
        .with_schedule(schedule)
        .with_ready_policy(ready);
    if let Some(manner) = fault {
        c = c
            .with_fault(FaultPlan::mid_run(PlaceId(2)))
            .with_restore(manner);
    }
    match shape {
        Shape::Grid => measure(Grid3::new(40, 40), c),
        Shape::FanIn => measure(FullPrevRowCol::new(14, 14), c),
        Shape::Pyramid => measure(Pyramid::new(24, 24), c),
    }
}

#[test]
fn simulator_numbers_are_pinned() {
    use CommsMode::{Pull, Push};
    use DistKind::{BlockRow, CyclicCol, CyclicRow};
    use ReadyPolicy::{Fifo, MaxDiagonal};
    use RestoreManner::{CopyRemote, RecomputeRemote};
    use ScheduleStrategy::{Local, MinComm, Random};
    use Shape::{FanIn, Grid, Pyramid};

    #[rustfmt::skip]
    let table: [Row; 10] = [
        (Grid,    CyclicCol, Pull, 4096, Local,   None,                  Fifo,        (505_982, 1_560, 49_608, 0, 0, 3_081, 1_600, 456_113_301_552_296_683)),
        (Grid,    CyclicCol, Pull, 0,    Local,   None,                  Fifo,        (3_067_492, 7_722, 123_552, 3_081, 0, 0, 1_600, 4_914_948_892_216_632_452)),
        (Grid,    BlockRow,  Pull, 16,   Local,   None,                  MaxDiagonal, (38_846, 120, 3_816, 0, 0, 237, 1_600, 10_423_944_823_992_750_841)),
        (Grid,    CyclicCol, Push, 0,    Local,   None,                  Fifo,        (505_982, 1_560, 49_608, 0, 0, 0, 1_600, 17_879_962_683_553_739_305)),
        (Grid,    CyclicCol, Push, 16,   Random,  None,                  MaxDiagonal, (3_299_302, 3_924, 132_872, 0, 0, 2_904, 1_600, 10_571_453_654_900_453_919)),
        (FanIn,   BlockRow,  Pull, 16,   MinComm, None,                  Fifo,        (1_347_976, 1_820, 36_296, 719, 0, 1_049, 196, 9_195_069_587_335_548_658)),
        (Pyramid, CyclicRow, Pull, 2,    Local,   None,                  Fifo,        (1_463_014, 1_806, 36_760, 627, 942, 2_475, 576, 1_834_529_428_388_257_731)),
        (Grid,    CyclicCol, Pull, 16,   Local,   Some(RecomputeRemote), Fifo,        (2_240_288, 2_320, 70_608, 80, 0, 4_344, 2_200, 13_364_027_634_068_809_489)),
        (FanIn,   BlockRow,  Push, 4096, MinComm, Some(CopyRemote),      Fifo,        (977_180, 694, 23_960, 166, 0, 988, 196, 3_129_356_870_099_140_444)),
        (Pyramid, CyclicRow, Pull, 0,    Random,  Some(CopyRemote),      MaxDiagonal, (1_917_746, 3_031, 74_136, 745, 1_105, 0, 648, 8_404_896_852_061_333_817)),
    ];
    // Compared as whole tables so one failing run reports every row.
    let got: Vec<Golden> = table.iter().map(run_row).collect();
    let expect: Vec<Golden> = table.iter().map(|row| row.7).collect();
    assert_eq!(got, expect);
}

//! Elastic-mesh differential tests: membership churn (joins, drains,
//! live relocations, kills) must never change a single cell value.
//!
//! Three layers of evidence:
//!
//! * a pinned-seed sweep of generator-produced churn plans, each run
//!   compared cell-by-cell against the serial oracle and by fingerprint
//!   against a solo run;
//! * a crafted kill-during-relocation schedule proving the epoch fence
//!   resolves an in-flight chunk transfer under fire;
//! * the 3 → 5 → 3 demo: the mesh grows mid-sweep and drains back down
//!   with chunks provably relocated, not recomputed.

use dpx10_apgas::{ElasticEvent, ElasticPlan, ElasticVerb, PlaceId};
use dpx10_apps::{with_app, AppKind, AppVisitor, CatalogApp};
use dpx10_core::{ElasticConfig, ElasticEngine, ElasticRun, EngineConfig, ThreadedEngine};
use dpx10_dag::builtin::Grid3;
use dpx10_harness::{oracle, MixApp};

fn run_elastic(h: u32, w: u32, founding: u16, capacity: u16, plan: ElasticPlan) -> ElasticRun<u64> {
    ElasticEngine::new(
        MixApp,
        Grid3::new(h, w),
        ElasticConfig::new(founding, capacity),
    )
    .with_plan(plan)
    .run()
    .expect("elastic run completes")
}

fn assert_matches_oracle(run: &ElasticRun<u64>, h: u32, w: u32, label: &str) {
    for (id, want) in oracle(&Grid3::new(h, w)) {
        assert_eq!(
            run.try_get(id.i, id.j),
            Some(want),
            "{label}: value mismatch at {id}"
        );
    }
}

fn ev(at: f64, verb: ElasticVerb) -> ElasticEvent {
    ElasticEvent { at, verb }
}

/// Pinned seeds for the generated-churn sweep. Frozen so a regression
/// in the fence or the relocation protocol reproduces byte-for-byte.
const SEEDS: [u64; 25] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_0002,
    0x0000_0000_0000_0003,
    0x0000_0000_0000_0007,
    0x0000_0000_0000_0011,
    0x0000_0000_0000_002A,
    0x0000_0000_0000_0539,
    0x0000_0000_0001_E240,
    0x0000_0000_DEAD_BEEF,
    0x0000_0001_0000_0001,
    0x0123_4567_89AB_CDEF,
    0x1111_1111_1111_1111,
    0x2222_2222_2222_2222,
    0x3C0F_FEE5_CA1E_D007,
    0x4242_4242_4242_4242,
    0x5555_5555_5555_5555,
    0x6B8B_4567_327B_23C6,
    0x7FFF_FFFF_FFFF_FFFF,
    0x8000_0000_0000_0000,
    0x9E37_79B9_7F4A_7C15,
    0xA5A5_A5A5_A5A5_A5A5,
    0xBADC_0FFE_E0DD_F00D,
    0xCAFE_BABE_CAFE_BABE,
    0xDEAD_10CC_DEAD_10CC,
    0xFEDC_BA98_7654_3210,
];

#[test]
fn pinned_seed_churn_sweep_matches_oracle() {
    let solo = run_elastic(12, 12, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let (mut relocations, mut kills, mut joins, mut drains, mut fence) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for &seed in &SEEDS {
        let plan = ElasticPlan::generate(seed, 3, 5);
        let label = format!("seed {seed:#018x} plan {plan}");
        let run = run_elastic(12, 12, 3, 5, plan);
        assert_eq!(run.fingerprint(), solo, "{label}: fingerprint diverged");
        assert_matches_oracle(&run, 12, 12, &label);
        let r = run.report();
        assert_eq!(
            r.computed - r.recomputed,
            r.total,
            "{label}: every cell computed exactly once net of recovery"
        );
        if r.kills == 0 {
            assert_eq!(
                r.recomputed, 0,
                "{label}: churn without kills never recomputes"
            );
        }
        relocations += r.chunks_relocated;
        kills += r.kills;
        joins += r.joins;
        drains += r.drains;
        fence += r.parked_replayed + r.replayed_pulls + r.stale_dropped + r.forwarded;
    }
    // The pinned sweep must actually exercise every verb and the fence.
    assert!(relocations > 0, "sweep never relocated a chunk");
    assert!(kills > 0, "sweep never killed a place");
    assert!(joins > 0, "sweep never grew the mesh");
    assert!(drains > 0, "sweep never drained a place");
    assert!(fence > 0, "sweep never tripped the epoch fence");
}

#[test]
fn kill_lands_mid_relocation_and_the_fence_resolves_it() {
    // The relocation starts at 43/144 finished; the kill threshold is
    // two cells later, so it fires while the transfer is in flight —
    // the kill barrier must deliver or discard the chunk and repair
    // every member's epoch before reassigning the victim's slots.
    let solo = run_elastic(12, 12, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let plan = ElasticPlan {
        seed: 0x0E1A_571C,
        events: vec![
            ev(0.30, ElasticVerb::Relocate { slot: 2 }),
            ev(0.32, ElasticVerb::Kill { place: PlaceId(1) }),
        ],
    };
    let run = run_elastic(12, 12, 3, 5, plan);
    assert_eq!(run.fingerprint(), solo);
    assert_matches_oracle(&run, 12, 12, "kill-mid-relocation");
    let r = run.report();
    assert_eq!(r.kills, 1);
    assert!(
        r.recomputed > 0,
        "the victim held finished cells, so recovery recomputes: {r:?}"
    );
    assert_eq!(r.computed - r.recomputed, r.total);
}

#[test]
fn drain_under_load_relocates_every_chunk() {
    // Draining a busy member ships every chunk it holds — finished
    // cells travel with the chunk, so nothing recomputes and the
    // drained places leave only once their inboxes are empty.
    let solo = run_elastic(12, 12, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let plan = ElasticPlan {
        seed: 0x000D_1A17,
        events: vec![
            ev(0.20, ElasticVerb::Drain { place: PlaceId(1) }),
            ev(0.40, ElasticVerb::Drain { place: PlaceId(2) }),
        ],
    };
    let run = run_elastic(12, 12, 3, 5, plan);
    assert_eq!(run.fingerprint(), solo);
    assert_matches_oracle(&run, 12, 12, "drain-under-load");
    let r = run.report();
    assert_eq!(r.drains, 2);
    assert_eq!(r.recomputed, 0, "graceful drains never recompute");
    assert!(
        r.chunks_relocated >= 2,
        "both drains must ship chunks: {r:?}"
    );
    assert_eq!(r.final_members, vec![0], "both drained places left");
}

#[test]
fn kill_barrier_replays_unanswered_pulls() {
    // A join rebalances chunks to the newcomer, the kill lands one
    // cell later and the survivor drains out. Pulls in flight to the
    // dead place end with the epoch, like every other message of it;
    // the recovery's recount readies their requesters again, and
    // those must pull the restored values afresh — every cache was
    // rebuilt empty.
    let solo = run_elastic(12, 12, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let plan = ElasticPlan {
        seed: 0xF3A2,
        events: vec![
            ev(0.50, ElasticVerb::Join),
            ev(0.51, ElasticVerb::Kill { place: PlaceId(1) }),
            ev(0.57, ElasticVerb::Drain { place: PlaceId(2) }),
        ],
    };
    let run = run_elastic(12, 12, 3, 5, plan);
    assert_eq!(run.fingerprint(), solo);
    assert_matches_oracle(&run, 12, 12, "kill-barrier-replay");
    let r = run.report();
    assert_eq!((r.joins, r.kills, r.drains), (1, 1, 1));
    assert!(
        run.result().report().comm.pulls_sent > 0,
        "the recovery epoch must pull the restored dependencies again: {r:?}"
    );
    assert_eq!(r.computed - r.recomputed, r.total);
}

#[test]
fn kill_discards_done_backlog_and_the_barrier_recounts() {
    // Regression: the victim dies holding unprocessed `Done`
    // decrements for a chunk that was force-delivered to a survivor
    // mid-relocation. Without the barrier's indegree recount the
    // installed chunk waits forever for decrements nobody will send.
    let solo = run_elastic(12, 12, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let plan = ElasticPlan {
        seed: 0x57A11,
        events: vec![
            ev(0.50, ElasticVerb::Relocate { slot: 7 }),
            ev(0.52, ElasticVerb::Kill { place: PlaceId(1) }),
        ],
    };
    let run = run_elastic(12, 12, 3, 5, plan);
    assert_eq!(run.fingerprint(), solo);
    assert_matches_oracle(&run, 12, 12, "done-backlog-recount");
    let r = run.report();
    assert_eq!(r.kills, 1);
    assert_eq!(r.chunks_relocated, 1, "the in-flight chunk force-delivers");
    assert_eq!(r.computed - r.recomputed, r.total);
}

#[test]
fn mesh_grows_to_five_mid_sweep_and_drains_back_to_three() {
    // The acceptance demo: 3 founding places, two joins mid-run, two
    // drains later; every fingerprint equals the solo run and at least
    // one chunk moves with its finished cells intact.
    let solo = run_elastic(14, 14, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let plan = ElasticPlan {
        seed: 0x353,
        events: vec![
            ev(0.10, ElasticVerb::Join),
            ev(0.18, ElasticVerb::Join),
            ev(0.55, ElasticVerb::Drain { place: PlaceId(3) }),
            ev(0.70, ElasticVerb::Drain { place: PlaceId(4) }),
        ],
    };
    let run = run_elastic(14, 14, 3, 6, plan);
    assert_eq!(run.fingerprint(), solo);
    assert_matches_oracle(&run, 14, 14, "grow-drain demo");
    let r = run.report();
    assert_eq!((r.joins, r.drains, r.kills), (2, 2, 0));
    assert!(
        r.mesh_sizes.iter().any(|&(_, n)| n == 5),
        "mesh must reach 5 members: {:?}",
        r.mesh_sizes
    );
    assert_eq!(
        r.final_members,
        vec![0, 1, 2],
        "mesh returns to the founders"
    );
    assert!(
        r.chunks_relocated >= 1 && r.cells_moved >= 1,
        "chunks must relocate carrying finished cells: {r:?}"
    );
    assert!(r.chunk_bytes > 0, "relocation ships real payload bytes");
    assert_eq!(r.recomputed, 0, "relocated, never recomputed");
}

#[test]
fn shrunk_plans_still_replay_deterministically() {
    // The chaos shrinker drops one event at a time; every shrunk plan
    // must still be a valid, correct run (this is what makes failures
    // minimizable).
    let solo = run_elastic(12, 12, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let plan = ElasticPlan::generate(SEEDS[10], 3, 5);
    for shrunk in plan.shrink() {
        let run = run_elastic(12, 12, 3, 5, shrunk.clone());
        assert_eq!(
            run.fingerprint(),
            solo,
            "shrunk plan {shrunk} diverged from solo"
        );
    }
}

/// Runs a catalog app under `plan` on a 3-of-6 mesh and on a solo
/// [`ThreadedEngine`]; returns the elastic report once the two
/// fingerprints agree.
struct UnderChurn(ElasticPlan);

impl AppVisitor for UnderChurn {
    type Out = dpx10_core::ElasticReport;

    fn visit<A: CatalogApp>(self, app: A) -> Self::Out {
        let solo = ThreadedEngine::new(app.clone(), app.dag(), EngineConfig::flat(1))
            .run()
            .expect("solo run completes");
        let pattern = app.dag();
        let run = ElasticEngine::new(app, pattern, ElasticConfig::new(3, 6))
            .with_plan(self.0.clone())
            .run()
            .expect("elastic run completes");
        assert_eq!(run.fingerprint(), solo.fingerprint(), "plan {}", self.0);
        let r = run.report();
        assert_eq!(r.computed - r.recomputed, r.total, "plan {}", self.0);
        r.clone()
    }
}

#[test]
fn catalog_apps_survive_churn_with_the_threaded_fingerprint() {
    // Values that are not `u64` (SWLAG's three-score cell) and patterns
    // that are not a full grid (LPS's upper triangle, knapsack's
    // data-dependent edges) cross the relocation codec and the kill's
    // recount like MixApp on Grid3 does.
    let grow_drain = ElasticPlan {
        seed: 0x6A0,
        events: vec![
            ev(0.10, ElasticVerb::Join),
            ev(0.18, ElasticVerb::Join),
            ev(0.55, ElasticVerb::Drain { place: PlaceId(3) }),
            ev(0.70, ElasticVerb::Drain { place: PlaceId(4) }),
        ],
    };
    let kill = ElasticPlan {
        seed: 0x6A1,
        events: vec![
            ev(0.25, ElasticVerb::Relocate { slot: 4 }),
            ev(0.45, ElasticVerb::Kill { place: PlaceId(2) }),
        ],
    };
    for kind in [AppKind::Swlag, AppKind::Lps, AppKind::Knapsack] {
        let r = with_app(kind, 400, 11, UnderChurn(grow_drain.clone()));
        assert_eq!((r.joins, r.drains, r.kills), (2, 2, 0), "{}", kind.name());
        assert!(r.chunks_relocated >= 1, "{}: {r:?}", kind.name());
        assert_eq!(r.recomputed, 0, "{}: graceful churn", kind.name());
        assert_eq!(r.final_members, vec![0, 1, 2], "{}", kind.name());

        let r = with_app(kind, 400, 11, UnderChurn(kill.clone()));
        assert_eq!(r.kills, 1, "{}", kind.name());
        assert!(
            r.recomputed > 0,
            "{}: the victim held finished cells",
            kind.name()
        );
        assert_eq!(r.final_members, vec![0, 1], "{}", kind.name());
    }
}

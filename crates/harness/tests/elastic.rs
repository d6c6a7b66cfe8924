//! Elastic-mesh differential tests: membership churn (joins, drains,
//! kills) must never change a single cell value.
//!
//! Every verb is a planned boundary of the threaded epoch loop, so which
//! cells are finished when it fires depends on the schedule. What the
//! plan alone determines is asserted on every run: the fingerprint and
//! the serial oracle, `computed − recomputed == total`, no recompute
//! without a kill, the verb counts and the final members. Two layers:
//!
//! * a pinned-seed sweep of generator-produced churn plans;
//! * crafted plans: drains under load, kills sharing a boundary with a
//!   join, and the 3 → 5 → 3 demo.
//!
//! A kill is certain to cost recompute only when the victim must hold
//! finished cells: past `1 − victim_cells/total` of progress, the other
//! places cannot hold every finished cell. Tests that assert
//! `recomputed > 0` place their kills later than that.

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

/// The assertions every run must pass, whatever the schedule.
fn assert_sound(run: &ElasticRun<u64>, h: u32, w: u32, solo: u64, label: &str) {
    assert_eq!(run.fingerprint(), solo, "{label}: fingerprint diverged");
    for (id, want) in oracle(&Grid3::new(h, w)) {
        assert_eq!(
            run.try_get(id.i, id.j),
            Some(want),
            "{label}: value mismatch at {id}"
        );
    }
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
}

fn ev(at: f64, verb: ElasticVerb) -> ElasticEvent {
    ElasticEvent { at, verb }
}

/// `(joins, drains, kills, final members)` of `plan` on a mesh founded
/// with places `0..3`: the generator only emits verbs that take effect.
fn replay(plan: &ElasticPlan) -> (u64, u64, u64, Vec<u16>) {
    let (mut members, mut next) = (vec![0u16, 1, 2], 3u16);
    let (mut joins, mut drains, mut kills) = (0, 0, 0);
    for ev in &plan.events {
        match ev.verb {
            ElasticVerb::Join => {
                members.push(next);
                next += 1;
                joins += 1;
            }
            ElasticVerb::Drain { place } => {
                members.retain(|&p| p != place.0);
                drains += 1;
            }
            ElasticVerb::Kill { place } => {
                members.retain(|&p| p != place.0);
                kills += 1;
            }
        }
    }
    (joins, drains, kills, members)
}

/// Pinned seeds for the generated-churn sweep. Frozen so a regression
/// in the boundary path reproduces plan for plan.
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
    let (mut kills, mut joins, mut drains) = (0u64, 0u64, 0u64);
    for &seed in &SEEDS {
        let plan = ElasticPlan::generate(seed, 3, 5);
        let label = format!("seed {seed:#018x} plan {plan}");
        let run = run_elastic(12, 12, 3, 5, plan.clone());
        assert_sound(&run, 12, 12, solo, &label);
        let r = run.report();
        let want = replay(&plan);
        assert_eq!(
            (r.joins, r.drains, r.kills),
            (want.0, want.1, want.2),
            "{label}"
        );
        assert_eq!(r.final_members, want.3, "{label}");
        kills += r.kills;
        joins += r.joins;
        drains += r.drains;
    }
    // The pinned sweep must actually exercise every verb.
    assert!(kills > 0, "sweep never killed a place");
    assert!(joins > 0, "sweep never grew the mesh");
    assert!(drains > 0, "sweep never drained a place");
}

#[test]
fn drain_under_load_relocates_every_chunk() {
    // Draining a busy member moves its whole column block: at the
    // boundary its finished cells go to the places that stay, so nothing
    // recomputes. The second drain would leave place 0 alone: a no-op.
    let solo = run_elastic(12, 12, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let plan = ElasticPlan {
        seed: 0x000D_1A17,
        events: vec![
            ev(0.20, ElasticVerb::Drain { place: PlaceId(1) }),
            ev(0.40, ElasticVerb::Drain { place: PlaceId(2) }),
        ],
    };
    let run = run_elastic(12, 12, 3, 5, plan);
    assert_sound(&run, 12, 12, solo, "drain-under-load");
    let r = run.report();
    assert_eq!(r.drains, 1);
    assert!(run.result().report().recoveries.is_empty(), "{r:?}");
    assert_eq!(r.final_members, vec![0, 2], "the last other member stays");
}

#[test]
fn kill_barrier_replays_unanswered_pulls() {
    // A join and a kill share one boundary. Pulls in flight when it
    // stops the world end with the epoch, like every other message of
    // it; the recount readies their requesters again, and those must pull
    // the restored values afresh — every cache is rebuilt empty. At half
    // of the 144 cells, column 3 (place 0's, kept) has finished cells
    // whose row neighbours in column 4 (place 1's, lost) are unfinished,
    // and column 4 now belongs to place 2: it has to pull.
    let solo = run_elastic(12, 12, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let plan = ElasticPlan {
        seed: 0xF3A2,
        events: vec![
            ev(0.50, ElasticVerb::Join),
            ev(0.50, ElasticVerb::Kill { place: PlaceId(1) }),
        ],
    };
    let run = run_elastic(12, 12, 3, 5, plan);
    assert_sound(&run, 12, 12, solo, "kill-barrier-replay");
    let r = run.report();
    assert_eq!((r.joins, r.kills), (1, 1));
    assert_eq!(r.final_members, vec![0, 2, 3]);
    assert!(
        run.result().report().comm.pulls_sent > 0,
        "the recovery epoch must pull the restored dependencies again: {r:?}"
    );
}

#[test]
fn kill_discards_done_backlog_and_the_barrier_recounts() {
    // A join and a kill share one boundary, applied in plan order. The
    // victim dies with `Done` decrements still in flight; they end with
    // the epoch's mailboxes, and the next epoch recounts every indegree
    // from the finished cells, so no vertex waits for a decrement nobody
    // will send. Place 1 holds a third of the cells, so at 75 % some of
    // them are finished and lost.
    let solo = run_elastic(12, 12, 1, 1, ElasticPlan::quiet(0)).fingerprint();
    let plan = ElasticPlan {
        seed: 0x57A11,
        events: vec![
            ev(0.75, ElasticVerb::Join),
            ev(0.75, ElasticVerb::Kill { place: PlaceId(1) }),
        ],
    };
    let run = run_elastic(12, 12, 3, 5, plan);
    assert_sound(&run, 12, 12, solo, "done-backlog-recount");
    let r = run.report();
    assert_eq!((r.joins, r.kills), (1, 1));
    assert!(r.recomputed > 0, "the victim held finished cells: {r:?}");
    assert_eq!(r.final_members, vec![0, 2, 3]);
}

#[test]
fn mesh_grows_to_five_mid_sweep_and_drains_back_to_three() {
    // The acceptance demo: 3 founding places, two joins mid-run, two
    // drains later; every fingerprint equals the solo run and nothing
    // is computed twice.
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
    assert_sound(&run, 14, 14, solo, "grow-drain demo");
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
        assert_sound(&run, 12, 12, solo, &format!("shrunk plan {shrunk}"));
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
    // data-dependent edges) cross the boundaries' redistribution and the
    // kill's recount like MixApp on Grid3 does.
    let grow_drain = ElasticPlan {
        seed: 0x6A0,
        events: vec![
            ev(0.10, ElasticVerb::Join),
            ev(0.18, ElasticVerb::Join),
            ev(0.55, ElasticVerb::Drain { place: PlaceId(3) }),
            ev(0.70, ElasticVerb::Drain { place: PlaceId(4) }),
        ],
    };
    // Place 2 holds the last third of the columns, at least 30 % of the
    // cells of each of these patterns: at 75 %, some are finished.
    let kill = ElasticPlan {
        seed: 0x6A1,
        events: vec![ev(0.75, ElasticVerb::Kill { place: PlaceId(2) })],
    };
    for kind in [AppKind::Swlag, AppKind::Lps, AppKind::Knapsack] {
        let r = with_app(kind, 400, 11, UnderChurn(grow_drain.clone()));
        assert_eq!((r.joins, r.drains, r.kills), (2, 2, 0), "{}", kind.name());
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

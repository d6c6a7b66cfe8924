//! Property tests for ablation-plan expansion: expansion is total and
//! ordered (the same plan always yields the byte-identical experiment
//! list), the provenance-bearing digest is invariant under TOML field
//! reordering, and shrunk plans stay valid strict sub-plans.

use dpx10_apps::AppKind;
use dpx10_bench::plan::{AblationPlan, Backend};
use proptest::prelude::*;

/// Builds a random-but-valid plan from drawn axis parameters. Axes are
/// deduplicated subranges so `validate()` always holds.
fn plan_from(
    seed: u64,
    backends: usize,
    patterns: usize,
    vertices: Vec<u64>,
    places: Vec<u16>,
    coalesce_budgets: Vec<u64>,
    caches: Vec<u64>,
) -> AblationPlan {
    let mut plan = AblationPlan::parse(
        "name = \"prop\"\n[grid]\nbackend = [\"sim\"]\npattern = [\"lcs\"]\nvertices = [100]\n\
         places = [2]\ncoalesce = [\"off\"]\ntile = [1]\ncache = [0]\n",
    )
    .unwrap();
    plan.seed = seed;
    plan.backend = Backend::ALL[..backends.clamp(1, 3)]
        .iter()
        .map(|&(_, b)| b)
        .collect();
    plan.pattern = AppKind::ALL[..patterns.clamp(1, AppKind::ALL.len())].to_vec();
    let dedup_sorted = |mut v: Vec<u64>, floor: u64| -> Vec<u64> {
        v.iter_mut().for_each(|x| *x = (*x).max(floor));
        v.sort_unstable();
        v.dedup();
        v
    };
    plan.vertices = dedup_sorted(vertices, 4);
    plan.places = {
        let mut v: Vec<u16> = places.into_iter().map(|p| p.clamp(2, 8)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    plan.coalesce = {
        let mut v: Vec<Option<usize>> = coalesce_budgets
            .into_iter()
            .map(|b| if b == 0 { None } else { Some(b as usize) })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    plan.cache = dedup_sorted(caches, 0)
        .into_iter()
        .map(|c| c as usize)
        .collect();
    plan.validate().unwrap();
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Expansion is total (the cartesian product of the axis lengths)
    /// and ordered: expanding the same plan twice gives the identical
    /// experiment list, cell ids are unique, indices are positional,
    /// and every cell's seed is a pure function of plan seed + cell id.
    #[test]
    fn expansion_total_and_ordered(
        seed in 0u64..u64::MAX,
        backends in 1usize..4,
        patterns in 1usize..8,
        vertices in proptest::collection::vec(4u64..100_000, 1..3),
        places in proptest::collection::vec(2u16..8, 1..3),
        coalesce in proptest::collection::vec(0u64..10_000, 1..3),
        caches in proptest::collection::vec(0u64..10_000, 1..3),
    ) {
        let plan = plan_from(seed, backends, patterns, vertices, places, coalesce, caches);
        let cells = plan.expand();
        let expected = plan.backend.len()
            * plan.pattern.len()
            * plan.vertices.len()
            * plan.places.len()
            * plan.coalesce.len()
            * plan.tile.len()
            * plan.cache.len();
        prop_assert_eq!(cells.len(), expected);
        let again = plan.expand();
        prop_assert_eq!(&cells, &again);
        for (i, c) in cells.iter().enumerate() {
            prop_assert_eq!(c.index, i);
            prop_assert_eq!(c.plan_digest, plan.digest());
            for other in &cells[..i] {
                prop_assert_ne!(&c.cell, &other.cell);
            }
        }
        // Per-cell seeds derive from the cell id, not the position: a
        // plan with a different name digests differently but cells with
        // the same id under the same plan seed keep their seed.
        let mut renamed = plan.clone();
        renamed.name = "prop2".into();
        let renamed_cells = renamed.expand();
        for (a, b) in cells.iter().zip(&renamed_cells) {
            prop_assert_eq!(a.seed, b.seed);
            prop_assert_ne!(a.plan_digest, b.plan_digest);
        }
    }

    /// The plan digest is computed over the canonical serialization, so
    /// writing the same plan with its sections and keys in any order
    /// parses and hashes identically — while changing any actual value
    /// changes the digest.
    #[test]
    fn digest_invariant_under_field_reordering(
        seed in 0u64..1_000_000,
        vertices in 4u64..100_000,
        cache_a in 0u64..10_000,
        cache_b in 0u64..10_000,
    ) {
        let cache_b = if cache_b == cache_a { cache_b + 1 } else { cache_b };
        let forward = format!(
            "name = \"reorder\"\nseed = {seed}\n\n[grid]\nbackend = [\"sim\", \"threads\"]\n\
             pattern = [\"swlag\"]\nvertices = [{vertices}]\nplaces = [2]\n\
             coalesce = [\"off\"]\ntile = [1]\ncache = [{cache_a}, {cache_b}]\n\n\
             [fixed]\ndist = \"cyclic-row\"\nschedule = \"min-comm\"\n"
        );
        let reordered = format!(
            "seed = {seed}\nname = \"reorder\"\n\n[fixed]\nschedule = \"min-comm\"\n\
             dist = \"cyclic-row\"\n\n[grid]\ncache = [{cache_a}, {cache_b}]\ntile = [1]\n\
             coalesce = [\"off\"]\nplaces = [2]\nvertices = [{vertices}]\n\
             pattern = [\"swlag\"]\nbackend = [\"sim\", \"threads\"]\n"
        );
        let a = AblationPlan::parse(&forward).unwrap();
        let b = AblationPlan::parse(&reordered).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.canonical(), b.canonical());
        // Value changes are never invisible to the digest.
        let mut c = a.clone();
        c.vertices[0] += 1;
        prop_assert_ne!(a.digest(), c.digest());
        let mut d = a.clone();
        d.cache.swap(0, 1);
        prop_assert_ne!(a.digest(), d.digest());
    }

    /// Every shrink of a valid plan is itself valid, expands to
    /// strictly fewer cells, and introduces no cell the original plan
    /// did not contain.
    #[test]
    fn shrunk_plans_stay_valid(
        seed in 0u64..u64::MAX,
        backends in 1usize..4,
        patterns in 1usize..8,
        vertices in proptest::collection::vec(4u64..100_000, 1..3),
        coalesce in proptest::collection::vec(0u64..10_000, 1..3),
    ) {
        let plan = plan_from(seed, backends, patterns, vertices, vec![2, 3], coalesce, vec![64]);
        let full: Vec<String> = plan.expand().into_iter().map(|c| c.cell).collect();
        for small in plan.shrink() {
            prop_assert!(small.validate().is_ok());
            let cells = small.expand();
            prop_assert!(cells.len() < full.len());
            for c in &cells {
                prop_assert!(full.contains(&c.cell), "shrink invented {}", c.cell);
            }
            // Shrinking is monotone: a shrink of a shrink stays valid too.
            for smaller in small.shrink() {
                prop_assert!(smaller.validate().is_ok());
            }
        }
    }
}

//! Property-based differential testing: for random patterns, sizes,
//! distributions, schedulers, cache sizes and fault points, the threaded
//! engine, the simulator and a serial oracle must all agree on every
//! vertex value.

use dpx10::prelude::*;
use dpx10_dag::topological_order;
use proptest::prelude::*;

/// A mixing app whose output is sensitive to any mis-delivered value.
#[derive(Clone)]
struct MixApp;

impl DpApp for MixApp {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &dpx10::core::DepView<'_, u64>) -> u64 {
        let mut acc = 0x9E37_79B9_u64.wrapping_mul(id.pack() | 1).rotate_left(9);
        for (did, v) in deps.iter() {
            acc = acc
                .wrapping_add(v.rotate_left((did.j % 29) + 1))
                .wrapping_mul(0x100_0000_01B3);
        }
        acc
    }
}

fn oracle(pattern: &dyn DagPattern) -> std::collections::HashMap<VertexId, u64> {
    let order = topological_order(pattern).expect("acyclic");
    let mut out = std::collections::HashMap::new();
    let mut deps = Vec::new();
    for id in order {
        deps.clear();
        pattern.dependencies(id.i, id.j, &mut deps);
        let vals: Vec<u64> = deps.iter().map(|d| out[d]).collect();
        out.insert(
            id,
            MixApp.compute(id, &dpx10::core::DepView::new(&deps, &vals)),
        );
    }
    out
}

fn dist_kind(idx: usize) -> DistKind {
    match idx {
        0 => DistKind::BlockRow,
        1 => DistKind::BlockCol,
        2 => DistKind::CyclicRow,
        3 => DistKind::CyclicCol,
        4 => DistKind::BlockCyclicRow { block: 2 },
        _ => DistKind::BlockCyclicCol { block: 3 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Threaded engine == oracle for random configurations.
    #[test]
    fn threaded_matches_oracle(
        h in 2u32..14,
        w in 2u32..14,
        kind_idx in 0usize..8,
        dist_idx in 0usize..6,
        places in 1u16..5,
        cache in 0usize..32,
        sched_idx in 0..ScheduleStrategy::ALL.len(),
    ) {
        let kind = BuiltinKind::ALL[kind_idx];
        let expect = oracle(kind.instantiate(h, w).as_ref());
        let config = EngineConfig::flat(places)
            .with_dist(dist_kind(dist_idx))
            .with_cache(cache)
            .with_schedule(ScheduleStrategy::ALL[sched_idx]);
        let result = ThreadedEngine::new(MixApp, kind.instantiate(h, w), config)
            .run()
            .expect("completes");
        for (id, v) in &expect {
            prop_assert_eq!(result.try_get(id.i, id.j), Some(*v), "{:?} at {}", kind, id);
        }
    }

    /// Simulator == oracle for random configurations.
    #[test]
    fn sim_matches_oracle(
        h in 2u32..14,
        w in 2u32..14,
        kind_idx in 0usize..8,
        dist_idx in 0usize..6,
        places in 1u16..6,
        cache in 0usize..32,
        sched_idx in 0..ScheduleStrategy::ALL.len(),
    ) {
        let kind = BuiltinKind::ALL[kind_idx];
        let expect = oracle(kind.instantiate(h, w).as_ref());
        let config = EngineConfig::flat(places)
            .with_dist(dist_kind(dist_idx))
            .with_cache(cache)
            .with_schedule(ScheduleStrategy::ALL[sched_idx]);
        let result = SimEngine::new(MixApp, kind.instantiate(h, w), config)
            .run()
            .expect("completes");
        for (id, v) in &expect {
            prop_assert_eq!(result.try_get(id.i, id.j), Some(*v), "{:?} at {}", kind, id);
        }
    }

    /// A mid-run fault never changes any result, under either restore
    /// manner, on either engine.
    #[test]
    fn fault_never_changes_results(
        h in 4u32..12,
        w in 4u32..12,
        kind_idx in 0usize..8,
        places in 3u16..6,
        victim in 1u16..3,
        fraction in 0.1f64..0.9,
        copy_remote in proptest::bool::ANY,
    ) {
        let kind = BuiltinKind::ALL[kind_idx];
        let expect = oracle(kind.instantiate(h, w).as_ref());
        let manner = if copy_remote { RestoreManner::CopyRemote } else { RestoreManner::RecomputeRemote };

        let sim = SimEngine::new(
            MixApp,
            kind.instantiate(h, w),
            EngineConfig::flat(places)
                .with_restore(manner)
                .with_fault(FaultPlan { place: PlaceId(victim), after_fraction: fraction }),
        )
        .run()
        .expect("sim survives");
        for (id, v) in &expect {
            prop_assert_eq!(sim.try_get(id.i, id.j), Some(*v));
        }

        let threaded = ThreadedEngine::new(
            MixApp,
            kind.instantiate(h, w),
            EngineConfig::flat(places)
                .with_restore(manner)
                .with_fault(FaultPlan { place: PlaceId(victim), after_fraction: fraction }),
        )
        .run()
        .expect("threaded survives");
        for (id, v) in &expect {
            prop_assert_eq!(threaded.try_get(id.i, id.j), Some(*v));
        }
    }

    /// Knapsack (data-dependent pattern): engines == textbook DP.
    #[test]
    fn knapsack_differential(
        weights in proptest::collection::vec(1u32..9, 1..10),
        values in proptest::collection::vec(1u64..50, 10),
        capacity in 0u32..24,
        places in 1u16..4,
    ) {
        let items: Vec<dpx10::apps::knapsack::Item> = weights
            .iter()
            .zip(values.iter())
            .map(|(&w, &v)| dpx10::apps::knapsack::Item { weight: w, value: v })
            .collect();
        let expect = dpx10::apps::serial::knapsack(&items, capacity);
        let n = items.len() as u32;

        let app = dpx10::apps::KnapsackApp::new(items.clone(), capacity);
        let pattern = app.pattern();
        let got = ThreadedEngine::new(app, pattern, EngineConfig::flat(places).with_dist(DistKind::BlockRow))
            .run()
            .expect("completes")
            .get(n, capacity);
        prop_assert_eq!(got, expect);
    }
}

//! Seed → scenario expansion: the random pattern, cluster shape and
//! chaos plan a differential run executes.

use std::fmt;
use std::sync::Arc;

use dpx10_apgas::{ChaosPlan, ChaosRng};
use dpx10_core::{DistKind, ScheduleStrategy};
use dpx10_dag::{BuiltinKind, DagPattern, GapDag, KnapsackDag, LwsDag, RangedDag, VertexId};

/// A seeded random DAG pattern: each vertex draws edges from a fixed
/// window of row-major-preceding neighbours, each edge included by an
/// independent coin keyed on `(seed, src, dst)`.
///
/// Because every candidate source precedes its target in row-major
/// order, the pattern is acyclic by construction; because
/// [`dependencies`](DagPattern::dependencies) and
/// [`anti_dependencies`](DagPattern::anti_dependencies) consult the
/// *same* coin, they are mutual inverses by construction. This is the
/// harness's stand-in for "a user-written custom pattern we have never
/// seen before".
#[derive(Clone, Debug)]
pub struct RandomWindowDag {
    height: u32,
    width: u32,
    seed: u64,
    density: f64,
}

/// Candidate edge sources of `(i, j)`, as `(di, dj)` offsets. Every
/// offset points at a strictly row-major-earlier cell.
const OFFSETS: [(i64, i64); 6] = [(0, -1), (-1, 0), (-1, -1), (-1, 1), (0, -2), (-2, 0)];

impl RandomWindowDag {
    /// A `height × width` pattern whose edges are drawn from `seed`
    /// with the given per-edge probability.
    pub fn new(height: u32, width: u32, seed: u64, density: f64) -> Self {
        assert!(height > 0 && width > 0, "pattern must be non-empty");
        RandomWindowDag {
            height,
            width,
            seed,
            density,
        }
    }

    /// The edge coin: pure in `(seed, src, dst)`, so both directions of
    /// the adjacency query agree without storing the edge set.
    fn edge(&self, src: VertexId, dst: VertexId) -> bool {
        ChaosRng::new(self.seed)
            .fork(src.pack())
            .fork(dst.pack())
            .chance(self.density)
    }
}

impl DagPattern for RandomWindowDag {
    fn height(&self) -> u32 {
        self.height
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        for (di, dj) in OFFSETS {
            let si = i as i64 + di;
            let sj = j as i64 + dj;
            if si >= 0 && sj >= 0 && si < i64::from(self.height) && sj < i64::from(self.width) {
                let src = VertexId::new(si as u32, sj as u32);
                if self.edge(src, VertexId::new(i, j)) {
                    out.push(src);
                }
            }
        }
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        for (di, dj) in OFFSETS {
            let ti = i as i64 - di;
            let tj = j as i64 - dj;
            if ti >= 0 && tj >= 0 && ti < i64::from(self.height) && tj < i64::from(self.width) {
                let dst = VertexId::new(ti as u32, tj as u32);
                if self.edge(VertexId::new(i, j), dst) {
                    out.push(dst);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "random-window"
    }
}

/// Everything one differential run needs, expanded deterministically
/// from one seed.
#[derive(Clone)]
pub struct Scenario {
    /// The seed this scenario was expanded from.
    pub seed: u64,
    /// The DAG pattern under test.
    pub pattern: Arc<dyn DagPattern>,
    /// Number of places on every backend.
    pub places: u16,
    /// Vertex distribution.
    pub dist: DistKind,
    /// Scheduling strategy.
    pub schedule: ScheduleStrategy,
    /// Remote-value cache capacity.
    pub cache: usize,
    /// The chaos plan applied on top of the run.
    pub plan: ChaosPlan,
}

impl Scenario {
    /// Expands `seed` into a scenario. Pure: the same seed always
    /// yields the same pattern, shape and plan.
    pub fn generate(seed: u64) -> Self {
        let mut rng = ChaosRng::new(seed).fork(0x5343_4E52); // "SCNR"
        let places = 2 + rng.below(3) as u16;
        let h = 6 + rng.below(9) as u32;
        let w = 6 + rng.below(9) as u32;
        let pattern: Arc<dyn DagPattern> = match rng.below(10) {
            0 => BuiltinKind::Grid2.instantiate(h, w).into(),
            1 => BuiltinKind::Grid3.instantiate(h, w).into(),
            2 => BuiltinKind::Diagonal.instantiate(h, w).into(),
            3 => BuiltinKind::RowWave.instantiate(h, w).into(),
            4 => BuiltinKind::Pyramid.instantiate(h, w).into(),
            5 => BuiltinKind::FullPrevRowCol.instantiate(h, w).into(),
            6 => {
                let items = 5 + rng.below(6) as usize;
                let weights = (0..items).map(|_| 1 + rng.below(6) as u32).collect();
                Arc::new(KnapsackDag::new(weights, 8 + rng.below(16) as u32))
            }
            // Interval-dependency (ranged) patterns: the chaos app has
            // no aggregation spec, so the sweep drives the enumeration
            // adapter — every interval edge delivered, decremented and
            // recovered like a point edge.
            7 => Arc::new(RangedDag::new(LwsDag::new(h * w))),
            8 => Arc::new(RangedDag::new(GapDag::new(h, w))),
            _ => {
                let density = 0.25 + rng.unit() * 0.5;
                Arc::new(RandomWindowDag::new(h, w, rng.next_u64(), density))
            }
        };
        let dist = match rng.below(4) {
            0 => DistKind::BlockCol,
            1 => DistKind::BlockRow,
            2 => DistKind::CyclicCol,
            _ => DistKind::CyclicRow,
        };
        // Four arms for three strategies: every seed keeps the scenario
        // it drew before work stealing went; only its `sched=` can change.
        let schedule = match rng.below(4) {
            1 => ScheduleStrategy::Random,
            2 => ScheduleStrategy::MinComm,
            _ => ScheduleStrategy::Local,
        };
        let cache = [0usize, 8, 4096][rng.below(3) as usize];
        let plan = ChaosPlan::generate(rng.next_u64(), places);
        Scenario {
            seed,
            pattern,
            places,
            dist,
            schedule,
            cache,
            plan,
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}x{} places={} dist={:?} sched={:?} cache={} | {}",
            self.pattern.name(),
            self.pattern.height(),
            self.pattern.width(),
            self.places,
            self.dist,
            self.schedule,
            self.cache,
            self.plan,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_dag::validate_pattern;

    #[test]
    fn random_window_patterns_validate() {
        // Inversion, containment and acyclicity for a spread of seeds
        // and densities — the full pattern contract.
        for seed in 0..32u64 {
            let density = 0.1 + (seed as f64) * 0.025;
            let dag = RandomWindowDag::new(9, 11, seed, density);
            validate_pattern(&dag).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn scenarios_are_reproducible_and_valid() {
        for seed in 0..64u64 {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a.to_string(), b.to_string(), "seed {seed}");
            assert!((2..=4).contains(&a.places));
            validate_pattern(a.pattern.as_ref()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for k in &a.plan.kills {
                assert!(k.place.0 > 0 && k.place.0 < a.places, "seed {seed}");
            }
        }
    }

    #[test]
    fn seed_space_actually_varies() {
        let names: std::collections::HashSet<String> = (0..64u64)
            .map(|s| Scenario::generate(s).pattern.name().to_string())
            .collect();
        assert!(names.len() >= 4, "pattern mix too narrow: {names:?}");
    }
}

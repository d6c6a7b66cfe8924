//! Scheduling strategies (paper §VI-C, §VI-E).
//!
//! "The scheduling strategy can be specified by the user. By default, we
//! use a local scheduling strategy which execute the vertex on the local
//! place. We also provided another two methods: random scheduling and
//! minimum communication scheduling."

use dpx10_apgas::{NetworkModel, PlaceId, Topology};
use dpx10_dag::VertexId;

/// Where a ready vertex executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleStrategy {
    /// On the place that owns it (default).
    Local,
    /// On a uniformly random live place.
    Random,
    /// On the place minimising the bytes that must move: dependency
    /// values not already resident there, plus the result's trip home.
    /// "This strategy introduces some extra overhead and should be used
    /// in appropriate scenarios" (§VI-C).
    MinComm,
}

impl ScheduleStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [ScheduleStrategy; 3] = [
        ScheduleStrategy::Local,
        ScheduleStrategy::Random,
        ScheduleStrategy::MinComm,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleStrategy::Local => "local",
            ScheduleStrategy::Random => "random",
            ScheduleStrategy::MinComm => "min-comm",
        }
    }

    /// The strategy called `name`, if any.
    pub fn parse(name: &str) -> Option<ScheduleStrategy> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Picks the execution place for a ready vertex under the min-comm
/// strategy: for every candidate place, sums the network cost of shipping
/// each dependency value that is not local to the candidate, plus the
/// result's return to the owner, and returns the cheapest candidate
/// (owner wins ties, so min-comm degrades gracefully to local).
///
/// `dep_homes`/`dep_bytes` give each dependency's owning place and wire
/// size; `result_bytes` prices the result's trip home.
pub fn min_comm_choice(
    owner: PlaceId,
    candidates: &[PlaceId],
    dep_homes: &[PlaceId],
    dep_bytes: &[usize],
    result_bytes: usize,
    topo: &Topology,
    net: &NetworkModel,
) -> PlaceId {
    debug_assert_eq!(dep_homes.len(), dep_bytes.len());
    let mut best = owner;
    let mut best_cost = f64::INFINITY;
    for &cand in candidates {
        let mut cost = 0.0;
        for (&home, &bytes) in dep_homes.iter().zip(dep_bytes) {
            if home != cand {
                cost += net.transfer_time(topo, home, cand, bytes).as_secs_f64();
            }
        }
        if cand != owner {
            cost += net
                .transfer_time(topo, cand, owner, result_bytes)
                .as_secs_f64();
        }
        // Strict `<` keeps the earliest minimum; seeding `best = owner`
        // with INFINITY means the owner wins exact ties only if it is the
        // first candidate to reach the minimum — so make ties explicit:
        if cost < best_cost || (cost == best_cost && cand == owner) {
            best_cost = cost;
            best = cand;
        }
    }
    best
}

/// A deterministic per-vertex "random" place choice: hash of the vertex
/// id over the candidates. Deterministic randomness keeps the threaded
/// and simulated engines agreeing on placement, which the differential
/// tests rely on.
pub fn random_choice(id: VertexId, candidates: &[PlaceId]) -> PlaceId {
    debug_assert!(!candidates.is_empty());
    // SplitMix64 finaliser over the packed id: cheap, well mixed.
    let mut x = id.pack().wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    candidates[(x % candidates.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn candidates(n: u16) -> Vec<PlaceId> {
        (0..n).map(PlaceId).collect()
    }

    #[test]
    fn min_comm_prefers_dependency_home() {
        let topo = Topology::flat(3);
        let net = NetworkModel::uniform(Duration::from_micros(5), 1e9);
        // Owner 0, but both (large) deps live on place 2 and the result is
        // tiny: executing on 2 moves fewer bytes.
        let chosen = min_comm_choice(
            PlaceId(0),
            &candidates(3),
            &[PlaceId(2), PlaceId(2)],
            &[1_000_000, 1_000_000],
            8,
            &topo,
            &net,
        );
        assert_eq!(chosen, PlaceId(2));
    }

    #[test]
    fn min_comm_prefers_owner_when_deps_local() {
        let topo = Topology::flat(3);
        let net = NetworkModel::uniform(Duration::from_micros(5), 1e9);
        let chosen = min_comm_choice(
            PlaceId(1),
            &candidates(3),
            &[PlaceId(1), PlaceId(1)],
            &[64, 64],
            8,
            &topo,
            &net,
        );
        assert_eq!(chosen, PlaceId(1));
    }

    #[test]
    fn min_comm_owner_wins_ties() {
        let topo = Topology::flat(2);
        let net = NetworkModel::free(); // all costs zero -> everything ties
        let chosen = min_comm_choice(
            PlaceId(1),
            &candidates(2),
            &[PlaceId(0)],
            &[64],
            8,
            &topo,
            &net,
        );
        assert_eq!(chosen, PlaceId(1));
    }

    #[test]
    fn random_choice_deterministic_and_spread() {
        let cands = candidates(4);
        let a = random_choice(VertexId::new(3, 5), &cands);
        let b = random_choice(VertexId::new(3, 5), &cands);
        assert_eq!(a, b, "same vertex, same choice");
        // Over many vertices every place gets picked.
        let mut hit = [false; 4];
        for i in 0..32 {
            for j in 0..32 {
                hit[random_choice(VertexId::new(i, j), &cands).index()] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "all places reachable: {hit:?}");
    }

    #[test]
    fn strategy_names() {
        for s in ScheduleStrategy::ALL {
            assert_eq!(ScheduleStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(ScheduleStrategy::parse("work-stealing"), None);
    }
}

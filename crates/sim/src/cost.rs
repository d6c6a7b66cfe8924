//! The simulator's cost model and configuration.

use std::time::Duration;

use dpx10_apgas::{NetworkModel, Topology};
use dpx10_core::{FaultPlan, ScheduleStrategy};
use dpx10_distarray::{DistKind, RecoveryCostModel, RestoreManner};

use crate::ready::ReadyPolicy;

/// Virtual-time prices of the simulated machine.
///
/// Defaults are calibrated in EXPERIMENTS.md against the paper's testbed
/// shapes: a Smith-Waterman-class cell is ~60–90 ns of real work on a
/// 2.93 GHz Xeon; DPX10's per-vertex bookkeeping (ready-list operations,
/// dependency resolution, activity spawn) costs a further handful of
/// nanoseconds — the source of the 1.02–1.12× overhead in Fig. 12.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Time one `compute()` call occupies a worker slot.
    pub compute: Duration,
    /// Per-vertex framework bookkeeping added on top of `compute`.
    pub framework_overhead: Duration,
    /// Prices of the recovery pass (Fig. 13).
    pub recovery: RecoveryCostModel,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            compute: Duration::from_nanos(60),
            framework_overhead: Duration::from_nanos(6),
            recovery: RecoveryCostModel::default(),
        }
    }
}

impl CostModel {
    /// Cost model with a given per-vertex compute time.
    pub fn with_compute(ns: u64) -> Self {
        CostModel {
            compute: Duration::from_nanos(ns),
            ..CostModel::default()
        }
    }
}

/// Full simulator configuration; mirrors
/// [`dpx10_core::EngineConfig`] plus the [`CostModel`].
#[derive(Clone)]
pub struct SimConfig {
    /// Cluster shape (places and worker slots per place).
    pub topology: Topology,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Vertex distribution over places.
    pub dist_kind: DistKind,
    /// Scheduling strategy.
    pub schedule: ScheduleStrategy,
    /// FIFO cache entries per place.
    pub cache_capacity: usize,
    /// Restore manner after a fault.
    pub restore_manner: RestoreManner,
    /// Optional planned failure (the paper kills a node "in the middle
    /// of the execution", §VIII-C).
    pub fault: Option<FaultPlan>,
    /// Virtual-time prices.
    pub cost: CostModel,
    /// Ready-list ordering per place (extension; see `sim::ready`).
    pub ready_policy: ReadyPolicy,
    /// How remote values travel (mirrors `EngineConfig::comms`).
    pub comms: dpx10_core::CommsMode,
}

impl SimConfig {
    /// The paper's deployment on `nodes` nodes (2 places × 6 workers
    /// each, Tianhe-like network), default knobs.
    pub fn paper(nodes: u16) -> Self {
        SimConfig {
            topology: Topology::paper(nodes),
            network: NetworkModel::tianhe_like(),
            dist_kind: DistKind::BlockCol,
            schedule: ScheduleStrategy::Local,
            cache_capacity: 4096,
            restore_manner: RestoreManner::RecomputeRemote,
            fault: None,
            cost: CostModel::default(),
            ready_policy: ReadyPolicy::Fifo,
            comms: dpx10_core::CommsMode::Pull,
        }
    }

    /// Flat test topology.
    pub fn flat(places: u16) -> Self {
        SimConfig {
            topology: Topology::flat(places),
            ..SimConfig::paper(1)
        }
    }

    /// Sets the distribution.
    pub fn with_dist(mut self, kind: DistKind) -> Self {
        self.dist_kind = kind;
        self
    }

    /// Sets the scheduling strategy.
    pub fn with_schedule(mut self, schedule: ScheduleStrategy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the cache capacity.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Plans a fault.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Sets the restore manner.
    pub fn with_restore(mut self, manner: RestoreManner) -> Self {
        self.restore_manner = manner;
        self
    }

    /// Sets the ready-list policy.
    pub fn with_ready_policy(mut self, policy: ReadyPolicy) -> Self {
        self.ready_policy = policy;
        self
    }

    /// Sets the remote-value delivery mode.
    pub fn with_comms(mut self, comms: dpx10_core::CommsMode) -> Self {
        self.comms = comms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_apgas::PlaceId;

    #[test]
    fn paper_config_shape() {
        let c = SimConfig::paper(10);
        assert_eq!(c.topology.num_places(), 20);
        assert_eq!(c.topology.threads_per_place, 6);
        assert!(c.fault.is_none());
    }

    #[test]
    fn builders() {
        let c = SimConfig::flat(3)
            .with_cache(9)
            .with_cost(CostModel::with_compute(120))
            .with_fault(FaultPlan::mid_run(PlaceId(2)));
        assert_eq!(c.cache_capacity, 9);
        assert_eq!(c.cost.compute, Duration::from_nanos(120));
        assert_eq!(c.fault.unwrap().place, PlaceId(2));
    }
}

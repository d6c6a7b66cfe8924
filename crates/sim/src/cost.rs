//! The simulator's cost model and configuration.

use std::ops::Deref;
use std::time::Duration;

use dpx10_core::{CommsMode, EngineConfig, FaultPlan, ScheduleStrategy};
use dpx10_distarray::{DistKind, RecoveryCostModel, RestoreManner};

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

/// Full simulator configuration: the engines' [`EngineConfig`] (its
/// fields read through `Deref`) plus the two values only the simulator
/// reads. The simulator refuses `coalesce`, `chaos` and `checkpoint` with
/// [`EngineError::Unsupported`] (it has no transport to batch or perturb
/// and no disk), ignores `stall_limit` (it has no wall clock) and gathers
/// intervals enumerated whatever `aggregation` says.
///
/// [`EngineError::Unsupported`]: dpx10_core::EngineError::Unsupported
#[derive(Clone)]
pub struct SimConfig {
    /// What every engine reads.
    pub engine: EngineConfig,
    /// Virtual-time prices.
    pub cost: CostModel,
    /// Worker slots per place (X10's `X10_NTHREADS`; the paper runs 6):
    /// how many vertices a simulated place computes at once. A real
    /// engine runs one owner thread per place.
    pub workers: u16,
}

impl From<EngineConfig> for SimConfig {
    /// One worker per place and the default cost model.
    fn from(engine: EngineConfig) -> Self {
        SimConfig {
            engine,
            cost: CostModel::default(),
            workers: 1,
        }
    }
}

impl Deref for SimConfig {
    type Target = EngineConfig;

    fn deref(&self) -> &EngineConfig {
        &self.engine
    }
}

impl SimConfig {
    /// The paper's deployment on `nodes` nodes ([`EngineConfig::paper`]:
    /// 2 places per node, Tianhe-like network) with 6 workers per place.
    pub fn paper(nodes: u16) -> Self {
        SimConfig {
            workers: 6,
            ..EngineConfig::paper(nodes).into()
        }
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// [`EngineConfig::with_dist`] on the engine config.
    pub fn with_dist(mut self, kind: DistKind) -> Self {
        self.engine = self.engine.with_dist(kind);
        self
    }

    /// [`EngineConfig::with_schedule`] on the engine config.
    pub fn with_schedule(mut self, schedule: ScheduleStrategy) -> Self {
        self.engine = self.engine.with_schedule(schedule);
        self
    }

    /// [`EngineConfig::with_cache`] on the engine config.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.engine = self.engine.with_cache(capacity);
        self
    }

    /// [`EngineConfig::with_fault`] on the engine config.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.engine = self.engine.with_fault(fault);
        self
    }

    /// [`EngineConfig::with_restore`] on the engine config.
    pub fn with_restore(mut self, manner: RestoreManner) -> Self {
        self.engine = self.engine.with_restore(manner);
        self
    }

    /// [`EngineConfig::with_comms`] on the engine config.
    pub fn with_comms(mut self, comms: CommsMode) -> Self {
        self.engine = self.engine.with_comms(comms);
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
        assert_eq!(c.workers, 6);
        assert!(c.fault.is_none());
        // 144 cores at 12 nodes, as in Fig. 10's caption.
        let c = SimConfig::paper(12);
        assert_eq!(c.topology.num_places() as u32 * c.workers as u32, 144);
    }

    #[test]
    fn builders() {
        let c = SimConfig::from(EngineConfig::flat(3).with_cache(9))
            .with_cost(CostModel::with_compute(120))
            .with_fault(FaultPlan::mid_run(PlaceId(2)));
        assert_eq!(c.workers, 1);
        assert_eq!(c.cache_capacity, 9);
        assert_eq!(c.cost.compute, Duration::from_nanos(120));
        assert_eq!(c.fault.unwrap().place, PlaceId(2));
    }
}

//! Engine configuration — the paper's launch parameters and §VI-E
//! refinement knobs in one struct.

use std::sync::Arc;

use dpx10_apgas::{ChaosPlan, NetworkModel, PlaceId, Topology};
use dpx10_distarray::{DistKind, RestoreManner};

use crate::schedule::ScheduleStrategy;

/// When to inject a place failure during a run (the experiments trigger
/// the failure "manually in the middle of the execution", §VIII-C).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// The place to kill (never place 0).
    pub place: PlaceId,
    /// Kill once this fraction of vertices has finished (0.5 = the
    /// paper's mid-run failure).
    pub after_fraction: f64,
}

impl FaultPlan {
    /// The paper's experiment: kill `place` at 50 % progress.
    pub fn mid_run(place: PlaceId) -> Self {
        FaultPlan {
            place,
            after_fraction: 0.5,
        }
    }
}

/// How remote dependency values travel between places (§VI-C and the
/// collectives-plane push refinement).
///
/// Under [`CommsMode::Pull`] a consumer that misses its FIFO cache asks
/// the owner with a `Pull`/`PullVal` round-trip. Under
/// [`CommsMode::Push`] the producer eagerly ships the finished value to
/// every consumer place alongside the indegree decrements — the same
/// `Done` as pull mode; a receiving place in push mode pins the value
/// for its parked consumers so the round-trip never happens;
/// pulls stay armed as the fallback (races, post-recovery restored
/// cells), so the two modes are answer- and fingerprint-equivalent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommsMode {
    /// Cache-miss pull round-trips only (the paper's §VI-C protocol).
    #[default]
    Pull,
    /// Eager producer-side value delivery with pull fallback.
    Push,
}

impl CommsMode {
    /// The CLI spelling (`--comms pull|push`).
    pub fn name(self) -> &'static str {
        match self {
            CommsMode::Pull => "pull",
            CommsMode::Push => "push",
        }
    }
}

/// Full engine configuration.
///
/// Defaults reproduce the framework's documented defaults: block-by-column
/// distribution (§VI-B), local scheduling (§VI-C), a modest FIFO cache,
/// recompute-remote restore manner (§VI-D), and the paper's topology of 2
/// places per node.
#[derive(Clone)]
pub struct EngineConfig {
    /// Cluster shape.
    pub topology: Topology,
    /// Interconnect cost model.
    pub network: NetworkModel,
    /// How the DAG's vertices are partitioned over places.
    pub dist_kind: DistKind,
    /// Where ready vertices execute.
    pub schedule: ScheduleStrategy,
    /// Remote-value cache entries per place (0 disables, §VI-E).
    pub cache_capacity: usize,
    /// What recovery does with finished vertices whose owner changed.
    pub restore_manner: RestoreManner,
    /// Optional injected failure.
    pub fault: Option<FaultPlan>,
    /// How long the watchdog tolerates zero progress before declaring
    /// the run stalled (a stall means a broken custom pattern or an
    /// engine bug; see [`crate::EngineError::Stalled`]). The simulator
    /// ignores it: it has no wall clock, and reports a stall when its
    /// event queue runs dry.
    pub stall_limit: std::time::Duration,
    /// Optional spill-to-disk checkpointing (§X future work; see
    /// [`crate::checkpoint`]). The threaded engine's: the simulator and
    /// the socket backend refuse it.
    pub checkpoint: Option<crate::checkpoint::CheckpointConfig>,
    /// Optional seeded chaos plan: extra kills (possibly several per
    /// run), transport perturbation and worker-schedule shaking, all
    /// derived from the plan's seed. Composes with [`fault`]: both kinds
    /// of kill can be armed at once. The simulator refuses it.
    ///
    /// [`fault`]: EngineConfig::fault
    pub chaos: Option<ChaosPlan>,
    /// Message coalescing: `Some(bytes)` wraps the transport in a
    /// [`dpx10_apgas::CoalescingTransport`] flushing per-destination
    /// buffers at that byte budget (plus entry-count and idle-drain
    /// triggers); `None` ships one message per protocol event, the
    /// paper's §VI-C behaviour. The simulator refuses `Some`.
    pub coalesce: Option<usize>,
    /// How remote dependency values travel (pull round-trips or eager
    /// producer push).
    pub comms: CommsMode,
    /// Whether interval dependencies execute through the prefix-
    /// aggregation lanes (`true`, the default) or fall back to classic
    /// enumerated gathering. Only consulted when the app declares an
    /// [`dpx10_dag::AggSpec`] *and* the pattern exposes an interval view;
    /// turning it off is the differential harness's way of comparing the
    /// O(1)-lookup path against the O(n)-gather path.
    pub aggregation: bool,
}

impl EngineConfig {
    /// Defaults on `nodes` paper-shaped nodes.
    pub fn paper(nodes: u16) -> Self {
        EngineConfig {
            topology: Topology::paper(nodes),
            network: NetworkModel::tianhe_like(),
            dist_kind: DistKind::BlockCol,
            schedule: ScheduleStrategy::Local,
            cache_capacity: 4096,
            restore_manner: RestoreManner::RecomputeRemote,
            fault: None,
            stall_limit: std::time::Duration::from_secs(30),
            checkpoint: None,
            chaos: None,
            coalesce: None,
            comms: CommsMode::Pull,
            aggregation: true,
        }
    }

    /// Small flat topology for tests: `places` places, one per node.
    pub fn flat(places: u16) -> Self {
        EngineConfig {
            topology: Topology::flat(places),
            ..EngineConfig::paper(1)
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

    /// Sets the per-place cache capacity.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the restore manner.
    pub fn with_restore(mut self, manner: RestoreManner) -> Self {
        self.restore_manner = manner;
        self
    }

    /// Plans a fault injection.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Arms a seeded chaos plan.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Sets the coalescing byte budget (`None` disables coalescing).
    pub fn with_coalesce(mut self, bytes: Option<usize>) -> Self {
        self.coalesce = bytes;
        self
    }

    /// Sets the remote-value delivery mode.
    pub fn with_comms(mut self, comms: CommsMode) -> Self {
        self.comms = comms;
        self
    }

    /// Enables or disables the prefix-aggregation execution path.
    pub fn with_aggregation(mut self, on: bool) -> Self {
        self.aggregation = on;
        self
    }
}

/// Optional per-vertex initialisation override (§VI-E, *Initialization of
/// DAG*): returning `Some(v)` marks `(i, j)` as already finished with
/// value `v`, so it is never scheduled — "such as set the unneeded
/// vertices as finished".
pub type InitOverride<V> = Arc<dyn Fn(u32, u32) -> Option<V> + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = EngineConfig::paper(4);
        assert_eq!(c.topology.num_places(), 8);
        assert!(matches!(c.dist_kind, DistKind::BlockCol));
        assert!(matches!(c.schedule, ScheduleStrategy::Local));
        assert_eq!(c.restore_manner, RestoreManner::RecomputeRemote);
        assert!(c.fault.is_none());
    }

    #[test]
    fn builder_chain() {
        let c = EngineConfig::flat(2)
            .with_dist(DistKind::BlockRow)
            .with_cache(7)
            .with_restore(RestoreManner::CopyRemote)
            .with_fault(FaultPlan::mid_run(PlaceId(1)));
        assert!(matches!(c.dist_kind, DistKind::BlockRow));
        assert_eq!(c.cache_capacity, 7);
        assert_eq!(c.restore_manner, RestoreManner::CopyRemote);
        assert_eq!(c.fault.unwrap().after_fraction, 0.5);
    }
}

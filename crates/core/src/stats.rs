//! Per-run metrics reported by the engines.

use std::time::Duration;

use dpx10_apgas::StatsSnapshot;
use dpx10_distarray::RecoveryReport;

/// Everything a finished run reports: wall/simulated time, communication
/// counters and recovery events. The figure harness consumes these.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Real elapsed time of the run (threaded engine) — on a one-core
    /// host this measures overhead, not speedup.
    pub wall_time: Duration,
    /// Simulated makespan (simulator engine; zero for threaded runs).
    pub sim_time: Duration,
    /// Vertices computed, including recomputation after faults.
    pub vertices_computed: u64,
    /// Vertices in the DAG.
    pub vertices_total: u64,
    /// Aggregated substrate counters (messages, bytes, cache hits…).
    pub comm: StatsSnapshot,
    /// One entry per recovery the run performed.
    pub recoveries: Vec<RecoveryReport>,
    /// Total simulated time spent inside recovery passes.
    pub recovery_time: Duration,
    /// Number of epochs (1 + number of faults survived).
    pub epochs: u32,
    /// Per-place busy time (worker-seconds of compute), populated by
    /// every backend — virtual time on the simulator, measured wall
    /// time on the threaded and socket engines; indexed by the final
    /// epoch's slot order. The real engines time every compute only
    /// while a flight recorder is on; otherwise each worker times one
    /// compute in 16 (its first included) and charges it for all 16, so
    /// the value is an estimate.
    pub place_busy: Vec<Duration>,
}

impl RunReport {
    /// Extra vertices computed due to recomputation after faults.
    pub fn recomputed(&self) -> u64 {
        self.vertices_computed.saturating_sub(self.vertices_total)
    }

    /// Mean worker utilisation of a simulated run: total busy time over
    /// `places × workers × makespan`. `None` when the run recorded no
    /// busy time or no makespan (real-time backends have no virtual
    /// makespan, so this stays simulator-only).
    pub fn utilization(&self, workers_per_place: u16) -> Option<f64> {
        if self.place_busy.is_empty() || self.sim_time.is_zero() {
            return None;
        }
        let busy: f64 = self.place_busy.iter().map(Duration::as_secs_f64).sum();
        let capacity =
            self.sim_time.as_secs_f64() * self.place_busy.len() as f64 * workers_per_place as f64;
        Some(busy / capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recomputed_counts_overwork() {
        let r = RunReport {
            vertices_computed: 130,
            vertices_total: 100,
            ..RunReport::default()
        };
        assert_eq!(r.recomputed(), 30);
    }

    #[test]
    fn utilization_bounds() {
        let r = RunReport {
            sim_time: Duration::from_secs(2),
            place_busy: vec![Duration::from_secs(1), Duration::from_secs(2)],
            ..RunReport::default()
        };
        let u = r.utilization(1).unwrap();
        assert!((u - 0.75).abs() < 1e-9);
        assert_eq!(RunReport::default().utilization(1), None);
    }

    #[test]
    fn recomputed_saturates() {
        let r = RunReport {
            vertices_computed: 90,
            vertices_total: 100,
            ..RunReport::default()
        };
        assert_eq!(r.recomputed(), 0);
    }
}

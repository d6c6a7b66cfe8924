//! Pins the socket engine's work-stealing downgrade: the distributed
//! backend has no shared ready-lists to steal from, so a `WorkStealing`
//! request is served as `Local` — but it must say so in the
//! [`RunReport`](dpx10_core::RunReport) instead of silently swapping
//! the schedule (the historical behaviour this test exists to prevent).

use dpx10_apgas::local_mesh;
use dpx10_core::{DagResult, DepView, DpApp, EngineConfig, ScheduleStrategy, SocketEngine};
use dpx10_dag::{builtin::Grid2, VertexId};

struct MixApp;

impl DpApp for MixApp {
    type Value = u64;
    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        let mut acc = 0x9E37_79B9_u64.wrapping_mul(id.pack() | 1).rotate_left(7);
        for (did, v) in deps.iter() {
            acc = acc
                .wrapping_add(v.rotate_left((did.i % 31) + 1))
                .wrapping_mul(0x100_0000_01B3);
        }
        acc
    }
}

fn run_mesh(places: u16, config: EngineConfig) -> DagResult<u64> {
    local_mesh(places, |socket| {
        SocketEngine::new(MixApp, Grid2::new(9, 9), config.clone()).run(socket)
    })
    .expect("coordinator returns the result, workers yield none")
}

#[test]
fn work_stealing_request_is_downgraded_and_recorded() {
    let config = EngineConfig::flat(2).with_schedule(ScheduleStrategy::WorkStealing);
    let result = run_mesh(2, config);
    let downgrade = result
        .report()
        .schedule_downgrade
        .as_ref()
        .expect("the silent WorkStealing→Local swap must be reported");
    assert_eq!(downgrade.requested, ScheduleStrategy::WorkStealing);
    assert_eq!(downgrade.effective, ScheduleStrategy::Local);
    assert!(!downgrade.reason.is_empty());
}

#[test]
fn native_local_schedule_reports_no_downgrade() {
    let config = EngineConfig::flat(2).with_schedule(ScheduleStrategy::Local);
    let result = run_mesh(2, config);
    assert_eq!(result.report().schedule_downgrade, None);
}

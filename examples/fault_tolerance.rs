//! Fault tolerance (paper §VI-D, §VIII-C): kill a place mid-run and
//! watch the new recovery method rebuild the distributed array over the
//! survivors and finish the computation correctly.
//!
//! ```text
//! cargo run --release -p dpx10 --example fault_tolerance
//! ```

use dpx10::apps::{serial, workload, SwLinearApp};
use dpx10::prelude::*;

fn main() {
    let a = workload::dna(200, 7);
    let b = workload::dna(200, 8);

    // A 4-place run that loses place 3 at 50 % progress — the paper's
    // §VIII-C setup in miniature.
    let app = SwLinearApp::new(a.clone(), b.clone());
    let pattern = app.pattern();
    let config = EngineConfig::flat(4)
        .with_dist(DistKind::BlockRow)
        .with_fault(FaultPlan::mid_run(PlaceId(3)));
    let result = ThreadedEngine::new(app, pattern, config)
        .run()
        .expect("the run survives the failure");

    let report = result.report();
    println!("epochs: {} (1 fault survived)", report.epochs);
    for (k, rec) in report.recoveries.iter().enumerate() {
        println!(
            "recovery #{k}: kept {} finished vertices, dropped {} for \
             recomputation, lost {} with the dead place; simulated \
             recovery time {:?}",
            rec.kept, rec.dropped, rec.lost, rec.sim_time
        );
    }
    println!(
        "recomputed {} extra vertices after the fault",
        report.recomputed()
    );

    // The result is still exactly right.
    let expect =
        serial::smith_waterman_linear(&a, &b, &SwLinearApp::new(a.clone(), b.clone()).scoring);
    for i in 0..=a.len() as u32 {
        for j in 0..=b.len() as u32 {
            assert_eq!(result.get(i, j), expect[i as usize][j as usize]);
        }
    }
    println!(
        "all {} cells verified against the serial oracle ✔",
        expect.len() * expect[0].len()
    );

    // The same failure on the simulated cluster, with the restore-manner
    // refinement flipped: copy finished remote vertices instead of
    // recomputing them (§VI-E).
    let app = SwLinearApp::new(a.clone(), b.clone());
    let pattern = app.pattern();
    let sim = SimEngine::new(
        app,
        pattern,
        SimConfig::paper(4)
            .with_dist(DistKind::BlockRow)
            .with_restore(RestoreManner::CopyRemote)
            .with_fault(FaultPlan::mid_run(PlaceId(5))),
    )
    .run()
    .expect("simulated run survives");
    let rec = &sim.report().recoveries[0];
    println!(
        "simulated cluster with CopyRemote: migrated {} vertices ({} bytes) \
         instead of dropping them; virtual makespan {:?}",
        rec.migrated,
        rec.bytes_migrated,
        sim.report().sim_time
    );
}

//! Every workload, end to end, at 1/100 of its size.

use std::time::Instant;

use dpx10_core::{EngineConfig, ThreadedEngine};
use dpxbench::child::{measure, Options, Trace};
use dpxbench::metrics::END_TO_END;
use dpxbench::workloads::{digest, NAMES};

fn run(workload: &str, trace: Trace) -> dpxbench::report::WorkloadResult {
    measure(
        &Options {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.2,
            trace,
            quick: false,
            scale: 100,
            out: None,
        },
        Instant::now(),
    )
}

#[test]
fn every_workload_runs_correctly_at_one_hundredth_size() {
    for name in NAMES {
        let result = run(name, Trace::Both);
        assert_eq!(result.failed, 0, "{name}: {:?}", result.notes);
        assert!(
            result.attempted >= 3,
            "{name}: {} operations",
            result.attempted
        );
        for m in END_TO_END {
            let value = result
                .get(m.name)
                .unwrap_or_else(|| panic!("{name} lacks {}", m.name))
                .summary
                .median;
            assert!(
                value.is_finite() && value > 0.0,
                "{name}: {} = {value}",
                m.name
            );
        }
        // What only some workloads have is reported by those alone.
        for (metric, on) in [
            ("overhead_ratio", &["swlag-threads", "swlag-tiled"][..]),
            ("recovery_overhead_ratio", &["mtp-fault"]),
            ("jobs_per_sec", &["serve-mixed-jobs"]),
            ("job_latency_p50_ms", &["serve-mixed-jobs"]),
        ] {
            assert_eq!(
                result.get(metric).is_some(),
                on.contains(&name),
                "{name}: {metric}"
            );
        }
        assert_eq!(result.get("failed_frac").unwrap().summary.median, 0.0);
        let ledger = result.closed_ledger().expect("probes charged the ledger");
        assert!(!ledger.rows.is_empty());
        assert!(
            (ledger.probed_ns + ledger.residual_ns - ledger.end_to_end_ns).abs()
                <= 1e-9 * ledger.end_to_end_ns.abs(),
            "{name}: ledger does not close"
        );
        let probed = result.get("ledger.probed_ns_per_vertex").unwrap();
        assert_eq!(probed.summary.median, ledger.probed_ns);
        assert!(result.get("obs.events_recorded").unwrap().summary.median > 0.0);
    }
}

#[test]
fn trace_off_reports_end_to_end_only_and_trace_on_skips_setup() {
    let off = run("mtp-fault", Trace::Off);
    assert_eq!(off.failed, 0, "{:?}", off.notes);
    assert_eq!(off.metrics.len(), END_TO_END.len());
    assert!(off.ledger.is_empty());
    let on = run("mtp-fault", Trace::On);
    assert_eq!(on.failed, 0, "{:?}", on.notes);
    assert!(on.get("setup_s").is_none());
    let ratio = on.get("recovery_overhead_ratio").unwrap().summary.median;
    assert!(ratio > 0.0);
    // How much a kill loses at this size is scheduling luck; that every
    // faulted rep restarted in a second epoch is not.
    assert_eq!(on.get("core.epochs").unwrap().summary.median, 2.0);
}

#[test]
fn serve_counts_every_job_as_an_operation() {
    let result = run("serve-mixed-jobs", Trace::Off);
    assert_eq!(result.failed, 0, "{:?}", result.notes);
    // Four jobs per serve at this scale, at least three serves.
    assert!(result.attempted >= 12 && result.attempted.is_multiple_of(4));
}

#[test]
fn unknown_workload_is_a_failed_operation_not_a_panic() {
    let result = run("no-such-workload", Trace::Off);
    assert_eq!((result.attempted, result.failed), (1, 1));
    assert!(result
        .contract_line(false)
        .starts_with("{\"correct\": false"));
}

#[test]
fn streamed_digest_equals_the_canonical_fingerprint() {
    let app = dpx10_apps::LcsApp::new(b"ACCGGTTA".to_vec(), b"GTCGTTCA".to_vec());
    let pattern = app.pattern();
    let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
        .run()
        .unwrap();
    assert_eq!(digest(&result), result.fingerprint());
}

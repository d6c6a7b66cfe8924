//! Ledger arithmetic: probed + residual = end to end.

use dpxbench::ledger::{Ledger, LedgerRow};

#[test]
fn probed_plus_residual_is_end_to_end() {
    let rows = vec![
        LedgerRow::new("dag.dependencies_ns", 1.0, 12.5),
        LedgerRow::new("distarray.slot_of_ns", 6.0, 2.0),
        LedgerRow::new("apgas.mailbox_ns", 0.0005, 150.0),
    ];
    // 2 M cells/s is 500 ns per vertex end to end.
    let ledger = Ledger::close(rows, 2_000_000.0);
    assert_eq!(ledger.end_to_end_ns, 500.0);
    assert!((ledger.probed_ns - (12.5 + 12.0 + 0.075)).abs() < 1e-12);
    assert!((ledger.probed_ns + ledger.residual_ns - ledger.end_to_end_ns).abs() < 1e-9);
    assert_eq!(ledger.rows[1].layer(), "distarray");
    assert_eq!(ledger.rows[1].ns_per_vertex(), 12.0);
}

#[test]
fn residual_goes_negative_when_probes_exceed_wall() {
    // Two places overlapping work: more probed CPU time than wall time.
    let ledger = Ledger::close(vec![LedgerRow::new("apps.compute_ns", 1.0, 30.0)], 1e8);
    assert_eq!(ledger.end_to_end_ns, 10.0);
    assert_eq!(ledger.residual_ns, -20.0);
    assert!((ledger.probed_ns + ledger.residual_ns - ledger.end_to_end_ns).abs() < 1e-12);
}

#[test]
fn rendered_table_names_every_row_and_both_totals() {
    let ledger = Ledger::close(vec![LedgerRow::new("sync.mutex_ns", 2.0, 20.0)], 1e7);
    let table = ledger.render();
    for needle in [
        "sync.mutex_ns",
        "ledger.probed_ns_per_vertex",
        "core.engine_residual_ns",
        "end to end",
    ] {
        assert!(table.contains(needle), "{needle} missing from:\n{table}");
    }
}

//! The per-vertex cost ledger: what the probes can see of one vertex's
//! end-to-end time, and the residual they cannot.
//!
//! Each row charges one probed call at a stated number of calls per
//! vertex. The rows sum to `ledger.probed_ns_per_vertex`; what is left
//! of the end-to-end time per vertex (`1e9 / cells_per_sec`) is
//! `core.engine_residual_ns` — the time the engines spend in code that
//! cannot be called from outside. Probes are single-thread costs while
//! the end-to-end time is wall time over two places, so on a workload
//! that really runs in parallel the residual understates that hidden
//! cost; `core.place_busy_frac` says how parallel a run was.

/// One probed call charged to a vertex.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRow {
    /// The per-call metric the row charges (its prefix is the layer).
    pub metric: &'static str,
    /// How often one vertex makes the call.
    pub calls_per_vertex: f64,
    /// Median cost of one call.
    pub ns_per_call: f64,
}

impl LedgerRow {
    /// A row charging `metric` at `calls_per_vertex`.
    pub fn new(metric: &'static str, calls_per_vertex: f64, ns_per_call: f64) -> Self {
        LedgerRow {
            metric,
            calls_per_vertex,
            ns_per_call,
        }
    }

    /// The layer (crate) the row belongs to.
    pub fn layer(&self) -> &'static str {
        self.metric.split('.').next().unwrap_or(self.metric)
    }

    /// The row's share of one vertex.
    pub fn ns_per_vertex(&self) -> f64 {
        self.calls_per_vertex * self.ns_per_call
    }
}

/// A closed ledger: rows, their sum, and the residual against the
/// end-to-end time. `probed + residual == end_to_end` by construction.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// The charged rows.
    pub rows: Vec<LedgerRow>,
    /// End-to-end nanoseconds per vertex (`1e9 / cells_per_sec`).
    pub end_to_end_ns: f64,
    /// Sum of the rows.
    pub probed_ns: f64,
    /// `end_to_end_ns - probed_ns`; negative when the places overlapped
    /// more work than the probes account for.
    pub residual_ns: f64,
}

impl Ledger {
    /// Closes `rows` against a throughput.
    pub fn close(rows: Vec<LedgerRow>, cells_per_sec: f64) -> Ledger {
        let end_to_end_ns = 1e9 / cells_per_sec;
        let probed_ns: f64 = rows.iter().map(LedgerRow::ns_per_vertex).sum();
        Ledger {
            rows,
            end_to_end_ns,
            probed_ns,
            residual_ns: end_to_end_ns - probed_ns,
        }
    }

    /// The table printed per workload: layer, call, calls per vertex,
    /// ns per call, ns per vertex, share of end-to-end, then the
    /// residual and the total.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<10} {:<32} {:>12} {:>12} {:>12} {:>8}",
            "layer", "call", "calls/vertex", "ns/call", "ns/vertex", "share"
        );
        let share = |ns: f64| 100.0 * ns / self.end_to_end_ns;
        for r in &self.rows {
            let calls = if r.calls_per_vertex >= 1e-3 {
                format!("{:.4}", r.calls_per_vertex)
            } else {
                format!("{:.3e}", r.calls_per_vertex)
            };
            let _ = writeln!(
                out,
                "  {:<10} {:<32} {:>12} {:>12.2} {:>12.2} {:>7.1}%",
                r.layer(),
                r.metric,
                calls,
                r.ns_per_call,
                r.ns_per_vertex(),
                share(r.ns_per_vertex())
            );
        }
        let mut total = |label: &str, metric: &str, ns: f64| {
            let _ = writeln!(
                out,
                "  {:<10} {:<32} {:>12} {:>12} {:>12.2} {:>7.1}%",
                label,
                metric,
                "",
                "",
                ns,
                share(ns)
            );
        };
        total("ledger", "ledger.probed_ns_per_vertex", self.probed_ns);
        total("core", "core.engine_residual_ns", self.residual_ns);
        total("", "end to end (1e9 / cells_per_sec)", self.end_to_end_ns);
        out
    }
}

//! Results: what a workload child hands its parent, and how the parent
//! prints and stores it.
//!
//! The child writes one tab-separated record per line on its standard
//! output; the parent parses them back into a [`WorkloadResult`], prints
//! the tables and writes the JSON files. JSON is only ever written.

use std::fmt::Write as _;

use crate::ledger::{Ledger, LedgerRow};
use crate::metrics::{self, Metric};
use crate::spans::json_string;
use crate::stats::Summary;

/// First field of every record line.
const TAG: &str = "@dpxbench";

/// One metric of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricResult {
    /// Catalogue entry.
    pub metric: &'static Metric,
    /// Median, sample count, extremes and quartiles.
    pub summary: Summary,
}

impl MetricResult {
    /// Summarises `values` under the catalogue entry `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not hold: the benchmark may
    /// only print metrics it has declared.
    pub fn new(name: &str, values: &[f64]) -> MetricResult {
        let metric = metrics::find(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        MetricResult {
            metric,
            summary: Summary::of(values),
        }
    }

    /// Whether the metric is end-to-end.
    pub fn end_to_end(&self) -> bool {
        self.metric.bound.is_some()
    }
}

/// Everything one workload child measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Operations attempted (reps; jobs in a serve; twins in `mtp-fault`).
    pub attempted: u64,
    /// Operations that errored, panicked or missed the warm-up's digest.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<MetricResult>,
    /// Ledger rows, when the probes ran.
    pub ledger: Vec<LedgerRow>,
    /// Free-form remarks (failure reasons, percentile support).
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// The metric called `name`, if measured.
    pub fn get(&self, name: &str) -> Option<&MetricResult> {
        self.metrics.iter().find(|m| m.metric.name == name)
    }

    /// Share of operations that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The closed ledger, when probes and throughput are both present.
    pub fn closed_ledger(&self) -> Option<Ledger> {
        let rate = self.get("cells_per_sec")?.summary.median;
        (!self.ledger.is_empty()).then(|| Ledger::close(self.ledger.clone(), rate))
    }

    /// The record lines a child prints.
    pub fn to_records(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{TAG}\tworkload\t{}", self.name);
        let _ = writeln!(out, "{TAG}\tops\t{}\t{}", self.attempted, self.failed);
        for m in &self.metrics {
            let s = &m.summary;
            let _ = writeln!(
                out,
                "{TAG}\tmetric\t{}\t{}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}",
                m.metric.name, s.n, s.median, s.min, s.max, s.q1, s.q3
            );
        }
        for r in &self.ledger {
            let _ = writeln!(
                out,
                "{TAG}\tledger\t{}\t{:e}\t{:e}",
                r.metric, r.calls_per_vertex, r.ns_per_call
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "{TAG}\tnote\t{}", n.replace(['\t', '\n'], " "));
        }
        out
    }

    /// Parses a child's output back; lines without the tag are ignored.
    pub fn from_records(text: &str) -> Result<WorkloadResult, String> {
        let mut out = WorkloadResult::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.first() != Some(&TAG) {
                continue;
            }
            let bad = || format!("malformed record: {line:?}");
            let num = |k: usize| -> Result<f64, String> {
                fields
                    .get(k)
                    .and_then(|f| f.parse::<f64>().ok())
                    .ok_or_else(bad)
            };
            match fields.get(1).copied() {
                Some("workload") => out.name = fields.get(2).ok_or_else(bad)?.to_string(),
                Some("ops") => {
                    out.attempted = num(2)? as u64;
                    out.failed = num(3)? as u64;
                }
                Some("metric") => {
                    let name = fields.get(2).ok_or_else(bad)?;
                    let metric = metrics::find(name).ok_or_else(bad)?;
                    out.metrics.push(MetricResult {
                        metric,
                        summary: Summary {
                            n: num(3)? as usize,
                            median: num(4)?,
                            min: num(5)?,
                            max: num(6)?,
                            q1: num(7)?,
                            q3: num(8)?,
                        },
                    });
                }
                Some("ledger") => {
                    let name = fields.get(2).ok_or_else(bad)?;
                    let metric = metrics::find(name).ok_or_else(bad)?;
                    out.ledger
                        .push(LedgerRow::new(metric.name, num(3)?, num(4)?));
                }
                Some("note") => out.notes.push(fields[2..].join(" ")),
                _ => return Err(bad()),
            }
        }
        if out.name.is_empty() {
            return Err("child printed no result".to_string());
        }
        Ok(out)
    }

    /// The human-readable table: every metric by name with its unit,
    /// then the ledger.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ==  operations: {} attempted, {} failed (failed_frac {})",
            self.name,
            self.attempted,
            self.failed,
            self.failed_frac()
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>14} {:<6} {:>5} {:>14} {:>14}",
            "metric", "median", "unit", "n", "min", "max"
        );
        for pass in [true, false] {
            for m in self.metrics.iter().filter(|m| m.end_to_end() == pass) {
                let s = &m.summary;
                let _ = writeln!(
                    out,
                    "  {:<34} {:>14} {:<6} {:>5} {:>14} {:>14}",
                    m.metric.name,
                    sig(s.median),
                    m.metric.unit,
                    s.n,
                    sig(s.min),
                    sig(s.max)
                );
            }
        }
        if let Some(ledger) = self.closed_ledger() {
            let _ = writeln!(out, "  ledger, per DAG vertex:");
            out.push_str(&ledger.render());
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// This workload as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"attempted\":{},\"failed\":{},\"failed_frac\":{},\"metrics\":{{",
            self.attempted,
            self.failed,
            self.failed_frac()
        );
        for (k, m) in self.metrics.iter().enumerate() {
            let s = &m.summary;
            let _ = write!(
                out,
                "{}\n    {}:{{\"kind\":{},\"unit\":{},\"median\":{},\"n\":{},\"min\":{},\"max\":{},\"q1\":{},\"q3\":{}}}",
                if k == 0 { "" } else { "," },
                json_string(m.metric.name),
                json_string(if m.end_to_end() { "end_to_end" } else { "per_layer" }),
                json_string(m.metric.unit),
                num(s.median),
                s.n,
                num(s.min),
                num(s.max),
                num(s.q1),
                num(s.q3)
            );
        }
        out.push_str("},\n   \"ledger\":[");
        if let Some(ledger) = self.closed_ledger() {
            for (k, r) in ledger.rows.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\n    {{\"layer\":{},\"call\":{},\"calls_per_vertex\":{},\"ns_per_call\":{},\"ns_per_vertex\":{}}}",
                    if k == 0 { "" } else { "," },
                    json_string(r.layer()),
                    json_string(r.metric),
                    num(r.calls_per_vertex),
                    num(r.ns_per_call),
                    num(r.ns_per_vertex())
                );
            }
            let _ = write!(
                out,
                "],\n   \"ledger_totals\":{{\"end_to_end_ns\":{},\"probed_ns\":{},\"residual_ns\":{}}}",
                num(ledger.end_to_end_ns),
                num(ledger.probed_ns),
                num(ledger.residual_ns)
            );
        } else {
            out.push(']');
        }
        out.push_str(",\n   \"notes\":[");
        for (k, n) in self.notes.iter().enumerate() {
            let _ = write!(out, "{}{}", if k == 0 { "" } else { "," }, json_string(n));
        }
        out.push_str("]}");
        out
    }

    /// The one-line JSON object the benchmark contract asks for: the
    /// end-to-end metrics (`per_layer == false`) or the per-layer ones.
    /// Every catalogue metric of the chosen kind is present; one this
    /// workload does not produce reads 0.
    pub fn contract_line(&self, per_layer: bool) -> String {
        let list = if per_layer {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (k, m) in list.iter().enumerate() {
            let value = self.get(m.name).map_or(0.0, |r| r.summary.median);
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if k == 0 { "" } else { ", " },
                json_string(m.name),
                num(value),
                json_string(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number as JSON, with all its digits; anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Six significant digits for tables.
fn sig(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let magnitude = v.abs().log10().floor() as i32;
    if (-4..9).contains(&magnitude) {
        let decimals = (5 - magnitude).clamp(0, 9) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.5e}")
    }
}

/// A whole run as one JSON document.
pub fn results_json(header: &[(String, String)], workloads: &[WorkloadResult]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in header {
        let _ = writeln!(out, " {}:{},", json_string(key), value);
    }
    out.push_str(" \"workloads\":{");
    for (k, w) in workloads.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  {}:{}",
            if k == 0 { "" } else { "," },
            json_string(&w.name),
            w.to_json()
        );
    }
    out.push_str("\n }\n}\n");
    out
}

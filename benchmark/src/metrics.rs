//! The metric catalogue: every name the benchmark may print, with its
//! unit, direction and — for end-to-end metrics — the bound by which it
//! may worsen before a change counts as a regression. `BENCHMARK.json`
//! lists the same names; `tests/contract.rs` holds the two together.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name; a single layer's metric starts with its crate.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end only: allowed worsening as a share of the median.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the framework sees on every workload. The benchmark
/// contract prints every one of these for every workload and wants none
/// of them ever 0, so what only some workloads can report is in
/// [`PER_LAYER`] under its own name, without a bound.
///
/// `wall_s` and `cells_per_sec` are one measurement in two units (time
/// to the answer; size-normalised rate, which the ledger closes on).
///
/// Bounds: a bound is per metric, not per workload, so the least steady
/// workload sets it. Ten seeds of one commit spread the time metrics up
/// to 22 % between their quartiles on the socket meshes in a poor hour
/// (2–12 % in a quiet one) and `peak_rss_mb` up to 9.7 % on
/// `serve-mixed-jobs` (under 1.2 % elsewhere); three times that is past
/// the contract's cap of 25 %, so every bound is the cap. See README,
/// "Bounds".
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("cells_per_sec", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Metrics without a bound. First the end-to-end figures that exist on
/// some workloads only (`overhead_ratio`: `swlag-threads`, `swlag-tiled`;
/// `recovery_overhead_ratio`: `mtp-fault`; `jobs_per_sec`,
/// `job_latency_*`: `serve-mixed-jobs`) and `failed_frac`, which must be
/// 0; then single layers, measured from outside, named after their
/// crate. These explain an end-to-end move, they do not gate one.
pub const PER_LAYER: &[Metric] = &[
    layer("overhead_ratio", "ratio", Lower),
    layer("recovery_overhead_ratio", "ratio", Lower),
    layer("jobs_per_sec", "1/s", Higher),
    layer("job_latency_p50_ms", "ms", Lower),
    layer("job_latency_p90_ms", "ms", Lower),
    layer("failed_frac", "ratio", Lower),
    layer("dag.dependencies_ns", "ns", Lower),
    layer("dag.anti_dependencies_ns", "ns", Lower),
    layer("dag.deps_per_vertex", "count", Lower),
    layer("dag.tile_dependencies_ns", "ns", Lower),
    layer("distarray.slot_of_ns", "ns", Lower),
    layer("distarray.local_index_ns", "ns", Lower),
    layer("distarray.remote_edge_frac", "ratio", Lower),
    layer("distarray.recover_ms", "ms", Lower),
    layer("core.cache_hit_ns", "ns", Lower),
    layer("core.cache_insert_ns", "ns", Lower),
    layer("core.msg_encode_ns", "ns", Lower),
    layer("core.msg_decode_ns", "ns", Lower),
    layer("core.msg_batch_entry_ns", "ns", Lower),
    layer("core.run_fixed_threads_ms", "ms", Lower),
    layer("core.run_fixed_sockets_ms", "ms", Lower),
    layer("core.report_gap_s", "s", Lower),
    layer("core.place_busy_frac", "ratio", Higher),
    layer("core.vertices_computed", "count", Lower),
    layer("core.epochs", "count", Lower),
    layer("core.recompute_frac", "ratio", Lower),
    layer("core.cache_hit_rate", "ratio", Higher),
    layer("core.pulls_sent", "count", Lower),
    layer("core.pulls_deduped", "count", Higher),
    layer("core.pushes_sent", "count", Lower),
    layer("core.pull_roundtrips_avoided", "count", Higher),
    layer("core.jobs_wait_p50_ms", "ms", Lower),
    layer("core.jobs_run_p50_ms", "ms", Lower),
    layer("core.jobs_peak_in_flight", "count", Higher),
    layer("core.bytes_per_vertex", "B", Lower),
    layer("core.engine_residual_ns", "ns", Lower),
    layer("apgas.mailbox_ns", "ns", Lower),
    layer("apgas.mailbox_contended_ns", "ns", Lower),
    layer("apgas.coalesce_send_ns", "ns", Lower),
    layer("apgas.coalesce_msgs_per_batch", "count", Higher),
    layer("apgas.frame_encode_ns", "ns", Lower),
    layer("apgas.frame_decode_ns", "ns", Lower),
    layer("apgas.frame_loopback_ns", "ns", Lower),
    layer("apgas.mesh_connect_ms", "ms", Lower),
    layer("apgas.frames_per_cell", "count", Lower),
    layer("apgas.bytes_per_cell", "B", Lower),
    layer("apgas.batches_sent", "count", Lower),
    layer("sync.mutex_ns", "ns", Lower),
    layer("sync.channel_ns", "ns", Lower),
    layer("sync.channel_contended_ns", "ns", Lower),
    layer("sync.segqueue_ns", "ns", Lower),
    layer("apps.compute_ns", "ns", Lower),
    layer("apps.serial_ns_per_cell", "ns", Lower),
    layer("apps.workload_gen_s", "s", Lower),
    layer("baseline.native_ns_per_cell", "ns", Lower),
    layer("obs.recorder_disabled_ns", "ns", Lower),
    layer("obs.recorder_span_ns", "ns", Lower),
    layer("obs.recorder_on_overhead_frac", "ratio", Lower),
    layer("obs.events_recorded", "count", Higher),
    layer("obs.events_dropped", "count", Lower),
    layer("ledger.probed_ns_per_vertex", "ns", Lower),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is a metric or workload name the contract accepts:
/// at most 64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a unit the contract accepts: 1 to 16 of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

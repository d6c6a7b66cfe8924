//! The experiment registry (declarative plans, provenance-hashed rows,
//! the tighten-only ratchet) and the runners behind the paper's figures,
//! plus small table/CSV/chart helpers.
//!
//! This crate records deterministic KPIs and fingerprints; wall-clock
//! and per-layer timing is `dpxbench`'s job (`benchmark/`). Every figure
//! of the paper's §VIII is regenerated from [`runners`] by the `figures`
//! binary. Workload generation is excluded from all timings, as in the
//! paper ("the time for initializing the cluster, generating test
//! graphs, and verifying results was not included").

#![warn(missing_docs)]

pub mod chart;
pub mod plan;
pub mod ratchet;
pub mod registry;
pub mod runner;
pub mod runners;
pub mod table;
pub mod toml_lite;

pub use chart::{Chart, Series};
pub use plan::{AblationPlan, Backend, DistChoice, Experiment};
pub use ratchet::{BaselineCell, RatchetReport, RatchetSpec, Tolerance};
pub use registry::{RunRecord, CSV_HEADER};
pub use runners::*;
pub use table::Table;

//! `dpxbench`: the repository's one benchmark.
//!
//! Six named workloads, each run by a child process of its own; for
//! every workload the end-to-end metrics a user of the framework would
//! see, and a per-layer ledger measured from outside — by wall-clocking
//! calls into public functions and reading the public run reports. See
//! `benchmark/README.md` for why each workload exists and how the layer
//! metrics are expected to move the end-to-end ones.

pub mod child;
pub mod cli;
pub mod host;
pub mod ledger;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

//! A deterministic discrete-event simulator of the DPX10 cluster.
//!
//! **Why this exists** (DESIGN.md §3): the paper's evaluation runs on
//! 2–12 Tianhe-1A nodes (up to 144 cores); this reproduction runs in a
//! one-core container, where real threads cannot exhibit cluster
//! scalability. The simulator executes the *same* code — it drives
//! `dpx10_core::protocol`, the one implementation of the per-place
//! vertex protocol (`DpApp` kernels over `DagPattern`s, the FIFO
//! remote-value cache, push-decrement/pull-fallback messaging, all three
//! scheduling strategies), with the paper's fault recovery around it —
//! under a virtual clock: vertices occupy one of the place's `W` worker
//! slots for a configurable compute time, and every inter-place message
//! advances by `latency + bytes/bandwidth` of the modelled interconnect.
//!
//! The simulation computes the real DP values (validated against serial
//! oracles by the differential test-suite) and reports the **makespan**
//! — the virtual time at which the last vertex completes. All
//! scalability figures (10–13) are regenerated from this engine, and
//! `tests/golden.rs` pins its numbers.

#![warn(missing_docs)]

pub mod cost;
pub mod engine;
pub mod event;
pub mod ready;

pub use cost::{CostModel, SimConfig};
pub use engine::SimEngine;
pub use ready::{ReadyPolicy, ReadyQueue};

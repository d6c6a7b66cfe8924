//! # dpx10 — a Rust reproduction of the DPX10 framework
//!
//! DPX10 (Wang, Yu, Sun, Meng — ICPP 2015) is a distributed framework
//! for dynamic-programming applications on the X10/APGAS model: the user
//! supplies a **DAG pattern** and a **compute()** kernel, and the
//! framework handles distribution, scheduling, communication and fault
//! tolerance. This crate is the public facade of the reproduction; see
//! the workspace's `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`apgas`] | places, activities, `finish`, mailboxes, fault model, transports (in-memory + TCP sockets) |
//! | [`dag`] | the DAG-pattern library (8 built-ins, knapsack, custom) |
//! | [`distarray`] | `Dist`/`DistArray`, snapshot baseline, new recovery |
//! | [`core`] | the framework engines (threaded + multi-process sockets) and their configuration |
//! | [`sim`] | the deterministic cluster simulator (all figures) |
//! | [`apps`] | SWLAG, MTP, LPS, 0/1KP, LCS + serial oracles |
//! | [`baseline`] | the hand-written "native X10" comparator |
//!
//! ## Quickstart
//!
//! ```
//! use dpx10::prelude::*;
//!
//! let app = dpx10::apps::LcsApp::new(b"ABC".to_vec(), b"DBC".to_vec());
//! let pattern = app.pattern();
//! let result = ThreadedEngine::new(
//!     dpx10::apps::LcsApp::new(b"ABC".to_vec(), b"DBC".to_vec()),
//!     pattern,
//!     EngineConfig::flat(2),
//! )
//! .run()
//! .unwrap();
//! assert_eq!(app.length(&result), 2);
//! assert_eq!(app.backtrack(&result), b"BC");
//! ```

#![warn(missing_docs)]

pub use dpx10_apgas as apgas;
pub use dpx10_apps as apps;
pub use dpx10_baseline as baseline;
pub use dpx10_core as core;
pub use dpx10_dag as dag;
pub use dpx10_distarray as distarray;
pub use dpx10_sim as sim;

/// The names most programs need.
pub mod prelude {
    pub use dpx10_apgas::{
        launch_places, NetworkModel, PlaceId, SocketConfig, Topology, Transport,
    };
    pub use dpx10_core::{
        DagResult, DepView, DistKind, DpApp, EngineConfig, FaultPlan, RestoreManner, RunReport,
        ScheduleStrategy, SocketEngine, ThreadedEngine, VertexValue,
    };
    pub use dpx10_dag::{
        builtin::*, BandedGrid3, BuiltinKind, CustomDag, DagPattern, IntervalSplits, KnapsackDag,
        TiledDag, VertexId,
    };
    pub use dpx10_sim::{CostModel, SimConfig, SimEngine};
}

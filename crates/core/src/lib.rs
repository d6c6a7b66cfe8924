//! The DPX10 framework core — a Rust reproduction of the paper's
//! programming model and runtime (ICPP 2015).
//!
//! A DPX10 program is "specified by a DAG pattern and a compute method
//! for the vertices" (abstract). Users implement [`DpApp`] (the paper's
//! `DPX10App[T]`), pick a pattern from `dpx10_dag`, and hand both to an
//! engine:
//!
//! * [`ThreadedEngine`] — real concurrent execution on the APGAS
//!   substrate (places as groups of worker threads), including live fault
//!   injection and the paper's recovery method;
//! * the simulator engine in `dpx10-sim` — the same protocol code under
//!   a deterministic virtual clock, for cluster-scale experiments.
//!
//! What a place does with a ready vertex and with each message is
//! implemented once, in the doc-hidden `protocol` module; the engines
//! are its drivers.
//!
//! The §VI-E refinement knobs (distribution, initialisation override,
//! scheduling strategy, cache size, restore manner) all live in
//! [`EngineConfig`].
//!
//! # Example: LCS in a dozen lines
//!
//! ```
//! use dpx10_core::{DpApp, DepView, EngineConfig, ThreadedEngine};
//! use dpx10_dag::{builtin::Grid3, VertexId};
//!
//! struct Lcs { a: Vec<u8>, b: Vec<u8> }
//!
//! impl DpApp for Lcs {
//!     type Value = u32;
//!     fn compute(&self, id: VertexId, deps: &DepView<'_, u32>) -> u32 {
//!         let (i, j) = (id.i, id.j);
//!         if i == 0 || j == 0 {
//!             return 0;
//!         }
//!         if self.a[(i - 1) as usize] == self.b[(j - 1) as usize] {
//!             deps.get(i - 1, j - 1).unwrap() + 1
//!         } else {
//!             *deps.get(i - 1, j).unwrap().max(deps.get(i, j - 1).unwrap())
//!         }
//!     }
//! }
//!
//! let app = Lcs { a: b"ABC".to_vec(), b: b"DBC".to_vec() };
//! let engine = ThreadedEngine::new(app, Grid3::new(4, 4), EngineConfig::flat(2));
//! let result = engine.run().unwrap();
//! assert_eq!(result.get(3, 3), 2); // "BC"
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod elastic;
pub mod engine;
#[doc(hidden)]
pub mod epoch;
pub mod error;
pub mod inline;
pub mod jobs;
mod mesh;
pub mod msg;
#[doc(hidden)]
pub mod protocol;
pub mod schedule;
pub mod socket_engine;
#[doc(hidden)]
pub mod state;
pub mod stats;
pub mod tiled;

pub use app::{AggView, DagResult, DepView, DpApp, VertexValue};
pub use cache::FifoCache;
pub use checkpoint::{load_checkpoint, CheckpointConfig};
pub use config::{CommsMode, EngineConfig, FaultPlan, InitOverride};
pub use elastic::{ElasticConfig, ElasticEngine, ElasticReport, ElasticRun, ElasticServer};
pub use engine::ThreadedEngine;
pub use error::EngineError;
pub use jobs::{JobOutcome, JobServer, JobSpec, ServeKill, ServeReport};
pub use schedule::ScheduleStrategy;
pub use socket_engine::SocketEngine;
pub use stats::RunReport;
pub use tiled::{run_tiled_threaded, TileValue, TiledApp, TiledRun};

// Re-export the pieces applications touch, so `dpx10_core` is
// self-sufficient for most users.
pub use dpx10_apgas::{NetworkModel, PlaceId, Topology};
pub use dpx10_dag::{AggSpec, Axis, Reduction};
pub use dpx10_distarray::{DistKind, RestoreManner};

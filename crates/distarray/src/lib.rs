//! Distributed 2-D arrays — the reproduction of X10's `DistArray`,
//! `Dist` and `ResilientDistArray` (paper §VI-B, §VI-D).
//!
//! DPX10 stores every vertex of the DAG in a distributed array partitioned
//! over places by a *distribution* ([`Dist`]). The distribution is a user-
//! visible refinement point ("the user can define the partition and
//! distribution of the DAG using a `Dist` structure to realize a better
//! locality", §VI-E); block-by-column is the framework default.
//!
//! Two recovery strategies are implemented:
//!
//! * [`resilient::ResilientDistArray`] — the periodic-snapshot mechanism
//!   X10 itself offers, kept as the baseline the paper argues is
//!   infeasible for DP's large intermediate state;
//! * [`recovery::recover`] — the paper's new method: build a fresh array
//!   over the surviving places, keep finished values whose owner did not
//!   change, recompute (or optionally migrate) the rest.

#![warn(missing_docs)]

pub mod aggregate;
pub mod array;
pub mod dist;
pub mod recovery;
pub mod region;
pub mod resilient;

pub use aggregate::{AggTable, PrefixLane};
pub use array::DistArray;
pub use dist::{Dist, DistKind};
pub use recovery::{recover, RecoveryCostModel, RecoveryReport, RestoreManner};
pub use region::Region2D;
pub use resilient::ResilientDistArray;

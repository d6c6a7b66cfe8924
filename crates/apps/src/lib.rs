//! The paper's DP applications, implemented against the DPX10 API.
//!
//! §VII walks through Smith-Waterman and 0/1-Knapsack as tutorials; §VIII
//! evaluates four applications — Smith-Waterman with linear and affine
//! gap penalty (SWLAG), the Manhattan Tourists Problem (MTP), Longest
//! Palindromic Subsequence (LPS) and the 0/1 Knapsack Problem (0/1KP).
//! All of them (plus the §IV LCS walk-through) live here, each with a
//! serial reference implementation ([`serial`]) the engines are
//! differentially tested against, deterministic workload generators
//! ([`workload`]), and the [`catalog`] that sizes and builds every app
//! for the CLI, the experiment registry and the figure harness.

#![warn(missing_docs)]

pub mod catalog;
pub mod extra;
pub mod gap;
pub mod knapsack;
pub mod lcs;
pub mod lps;
pub mod lws;
pub mod mtp;
pub mod rng;
pub mod serial;
pub mod swlag;
pub mod workload;

pub use catalog::{with_app, AppKind, AppVisitor, CatalogApp};
pub use extra::{
    BandedEditDistanceApp, EditDistanceApp, MatrixChainApp, NeedlemanWunschApp, NussinovApp,
};
pub use gap::GapApp;
pub use knapsack::KnapsackApp;
pub use lcs::LcsApp;
pub use lps::LpsApp;
pub use lws::LwsApp;
pub use mtp::MtpApp;
pub use swlag::{SwCell, SwLinearApp, SwlagApp};

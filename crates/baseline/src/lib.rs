//! The "native X10" baseline for the overhead study (paper §VIII-B).
//!
//! "To evaluate DPX10's overhead, we implemented the SWLAG algorithm
//! with native X10 and compared it with DPX10's implementation. For the
//! sake of simplicity and fairness, the cache list was not used and
//! other configurations were set to the same."
//!
//! Two comparators are provided:
//!
//! * [`NativeSwlag`] — a real, hand-written pipelined wavefront
//!   implementation over raw threads and channels: column-block
//!   decomposition, one boundary message per row, no DAG pattern, no
//!   ready lists, no per-vertex scheduling. This is what a careful X10
//!   programmer would write by hand, and its wall-clock time against the
//!   framework's measures the true per-vertex overhead on this machine.
//! * [`native_cost_model`] — the simulator-side equivalent: the same
//!   per-cell compute cost as the framework run but with hand-written
//!   inner-loop bookkeeping (~1 ns) instead of the framework's
//!   per-vertex machinery. `figures fig12` runs `dpx10-sim` with both
//!   cost models to regenerate the DPX10/X10 ratio curve.

#![warn(missing_docs)]

use std::thread;
use std::time::Duration;

use dpx10_sync::channel::{bounded, Receiver, Sender};

use dpx10_apps::swlag::{Scoring, SwCell};
use dpx10_sim::CostModel;

/// "Minus infinity" safe under penalty addition.
const NEG_INF: i32 = i32::MIN / 4;

/// Hand-written pipelined SWLAG over `places` column blocks.
pub struct NativeSwlag {
    /// First sequence.
    pub a: Vec<u8>,
    /// Second sequence.
    pub b: Vec<u8>,
    /// Scores.
    pub scoring: Scoring,
    /// Number of pipeline stages (the stand-in for places).
    pub places: u16,
}

impl NativeSwlag {
    /// Creates the baseline with the same default scoring as
    /// [`dpx10_apps::SwlagApp`].
    pub fn new(a: Vec<u8>, b: Vec<u8>, places: u16) -> Self {
        assert!(places > 0);
        NativeSwlag {
            a,
            b,
            scoring: Scoring {
                gap_open: -2,
                gap_extend: -1,
                ..Scoring::default()
            },
            places,
        }
    }

    /// Runs the pipeline and returns the full `H` matrix
    /// (`(|a|+1) × (|b|+1)`).
    pub fn run(&self) -> Vec<Vec<i32>> {
        let h = self.a.len() + 1;
        let w = self.b.len() + 1;
        let stages = (self.places as usize).min(w.saturating_sub(1)).max(1);

        // Column-block bounds per stage over columns 1..w (column 0 is
        // the all-zero border handled implicitly).
        let cols = w - 1;
        let bounds: Vec<(usize, usize)> = (0..stages)
            .map(|s| {
                let start = 1 + s * cols / stages;
                let end = 1 + (s + 1) * cols / stages;
                (start, end)
            })
            .collect();

        // Boundary channels: stage s receives its left-border cell for
        // each row from stage s-1.
        let mut txs: Vec<Option<Sender<SwCell>>> = Vec::new();
        let mut rxs: Vec<Option<Receiver<SwCell>>> = vec![None];
        for _ in 1..stages {
            let (tx, rx) = bounded::<SwCell>(64);
            txs.push(Some(tx));
            rxs.push(Some(rx));
        }
        txs.push(None); // last stage sends nowhere

        let results: Vec<Vec<Vec<i32>>> = thread::scope(|scope| {
            let mut handles = Vec::new();
            for (s, &(c0, c1)) in bounds.iter().enumerate() {
                let rx = rxs[s].take();
                let tx = txs[s].take();
                let (a, b, sc) = (&self.a, &self.b, &self.scoring);
                handles.push(scope.spawn(move || stage_worker(a, b, sc, h, c0, c1, rx, tx)));
            }
            handles.into_iter().map(|jh| jh.join().unwrap()).collect()
        });

        // Assemble the full matrix (column 0 is the zero border).
        let mut out = vec![vec![0i32; w]; h];
        for (s, block) in results.into_iter().enumerate() {
            let (c0, _c1) = bounds[s];
            for (i, row) in block.into_iter().enumerate() {
                for (k, v) in row.into_iter().enumerate() {
                    out[i][c0 + k] = v;
                }
            }
        }
        out
    }
}

/// One pipeline stage: owns columns `c0..c1`, processes rows in order,
/// receiving its left-boundary cell from the previous stage and sending
/// its right-boundary cell onward — one message per row, the minimal
/// communication the problem admits.
#[allow(clippy::too_many_arguments)]
fn stage_worker(
    a: &[u8],
    b: &[u8],
    sc: &Scoring,
    h: usize,
    c0: usize,
    c1: usize,
    rx: Option<Receiver<SwCell>>,
    tx: Option<Sender<SwCell>>,
) -> Vec<Vec<i32>> {
    let zero = SwCell {
        h: 0,
        e: NEG_INF,
        f: NEG_INF,
    };
    let width = c1 - c0;
    let mut out = vec![vec![0i32; width]; h];
    // Previous row of (H,E,F) for columns c0-1..c1 (index 0 = boundary).
    let mut prev: Vec<SwCell> = vec![zero; width + 1];
    let mut cur: Vec<SwCell> = vec![zero; width + 1];
    for i in 1..h {
        // The boundary cell (i, c0-1): from the left neighbour, or the
        // zero border for the first stage.
        cur[0] = match &rx {
            Some(rx) => rx.recv().expect("left neighbour alive"),
            None => zero,
        };
        for (k, j) in (c0..c1).enumerate() {
            let left = cur[k];
            let up = prev[k + 1];
            let diag = prev[k];
            let e = (left.h + sc.gap_open).max(left.e + sc.gap_extend);
            let f = (up.h + sc.gap_open).max(up.f + sc.gap_extend);
            let s = sc.similarity(a[i - 1], b[j - 1]);
            let hh = 0.max(diag.h + s).max(e).max(f);
            cur[k + 1] = SwCell { h: hh, e, f };
            out[i][k] = hh;
        }
        if let Some(tx) = &tx {
            tx.send(cur[width]).expect("right neighbour alive");
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    out
}

/// The simulator cost model of the hand-written version: identical
/// per-cell compute, but hand-rolled loop bookkeeping (~1 ns) instead of
/// the framework's per-vertex scheduling (~6 ns). Running `dpx10-sim`
/// with this model and with [`CostModel::default`] side by side yields
/// the Fig. 12 DPX10/X10 ratio.
pub fn native_cost_model(compute_ns: u64) -> CostModel {
    CostModel {
        compute: Duration::from_nanos(compute_ns),
        framework_overhead: Duration::from_nanos(1),
        ..CostModel::default()
    }
}

/// The framework-side cost model with the same compute cost, for a fair
/// Fig. 12 pairing.
pub fn framework_cost_model(compute_ns: u64) -> CostModel {
    CostModel {
        compute: Duration::from_nanos(compute_ns),
        ..CostModel::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_apps::serial;

    #[test]
    fn matches_serial_affine_reference() {
        let a = b"CTTAGCTAGCATGGA".to_vec();
        let b = b"TTAAGGCATCC".to_vec();
        let native = NativeSwlag::new(a.clone(), b.clone(), 3);
        let expect = serial::smith_waterman_affine(&a, &b, &native.scoring);
        let got = native.run();
        assert_eq!(got, expect);
    }

    #[test]
    fn stage_counts_do_not_change_results() {
        let a = dpx10_apps::workload::dna(64, 1);
        let b = dpx10_apps::workload::dna(50, 2);
        let one = NativeSwlag::new(a.clone(), b.clone(), 1).run();
        for places in [2u16, 3, 5, 8] {
            let many = NativeSwlag::new(a.clone(), b.clone(), places).run();
            assert_eq!(one, many, "{places} stages");
        }
    }

    #[test]
    fn more_stages_than_columns_is_fine() {
        let got = NativeSwlag::new(b"AC".to_vec(), b"A".to_vec(), 16).run();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].len(), 2);
    }

    #[test]
    fn matches_framework_engine() {
        use dpx10_apps::SwlagApp;
        use dpx10_core::{EngineConfig, ThreadedEngine};
        let a = dpx10_apps::workload::dna(40, 11);
        let b = dpx10_apps::workload::dna(35, 12);
        let native = NativeSwlag::new(a.clone(), b.clone(), 2).run();
        let app = SwlagApp::new(a.clone(), b.clone());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
            .run()
            .unwrap();
        for i in 0..=a.len() as u32 {
            for j in 0..=b.len() as u32 {
                assert_eq!(result.get(i, j).h, native[i as usize][j as usize]);
            }
        }
    }

    #[test]
    fn cost_models_orderered() {
        let nat = native_cost_model(90);
        let fw = framework_cost_model(90);
        assert!(nat.framework_overhead < fw.framework_overhead);
        assert_eq!(nat.compute, fw.compute);
    }
}

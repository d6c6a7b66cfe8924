//! Extension applications beyond the paper's four — its future work
//! ("implementing new demo applications", §X). Each exercises a
//! different corner of the pattern library:
//!
//! * [`EditDistanceApp`] — Levenshtein distance, the min-plus sibling of
//!   LCS on [`Grid3`].
//! * [`NeedlemanWunschApp`] — *global* alignment; unlike Smith-Waterman
//!   its borders are non-trivial (`−g·i`), exercising border compute.
//! * [`BandedEditDistanceApp`] — edit distance restricted to the
//!   [`BandedGrid3`] extension pattern (exact when the true distance is
//!   within the band).
//! * [`NussinovApp`] — RNA secondary-structure base-pair maximisation on
//!   the genuinely 2D/1D [`IntervalSplits`] pattern.
//! * [`MatrixChainApp`] — matrix-chain multiplication, the textbook
//!   interval-splits DP (paper Algorithm 3.2 shape).

use dpx10_core::{DepView, DpApp};
use dpx10_dag::{
    builtin::Grid3,
    extra::{BandedGrid3, IntervalSplits},
    VertexId,
};

/// Levenshtein edit distance between two byte strings.
#[derive(Clone, Debug)]
pub struct EditDistanceApp {
    /// First string.
    pub a: Vec<u8>,
    /// Second string.
    pub b: Vec<u8>,
}

impl EditDistanceApp {
    /// Creates the app.
    pub fn new(a: Vec<u8>, b: Vec<u8>) -> Self {
        EditDistanceApp { a, b }
    }

    /// The `(|a|+1) × (|b|+1)` grid pattern.
    pub fn pattern(&self) -> Grid3 {
        Grid3::new(self.a.len() as u32 + 1, self.b.len() as u32 + 1)
    }

    /// The distance = bottom-right cell.
    pub fn answer(&self, result: &dpx10_core::DagResult<u32>) -> u32 {
        result.get(self.a.len() as u32, self.b.len() as u32)
    }
}

impl DpApp for EditDistanceApp {
    type Value = u32;

    fn compute(&self, id: VertexId, deps: &DepView<'_, u32>) -> u32 {
        let (i, j) = (id.i, id.j);
        if i == 0 {
            return j;
        }
        if j == 0 {
            return i;
        }
        let sub = deps.get(i - 1, j - 1).expect("diag")
            + (self.a[(i - 1) as usize] != self.b[(j - 1) as usize]) as u32;
        let del = deps.get(i - 1, j).expect("up") + 1;
        let ins = deps.get(i, j - 1).expect("left") + 1;
        sub.min(del).min(ins)
    }
}

/// Needleman-Wunsch global alignment score with linear gap penalty.
#[derive(Clone, Debug)]
pub struct NeedlemanWunschApp {
    /// First sequence.
    pub a: Vec<u8>,
    /// Second sequence.
    pub b: Vec<u8>,
    /// Match score (default +1).
    pub matched: i32,
    /// Mismatch score (default −1).
    pub mismatch: i32,
    /// Gap penalty per symbol (default −1, applied as `+gap`).
    pub gap: i32,
}

impl NeedlemanWunschApp {
    /// Creates the app with +1/−1/−1 scoring.
    pub fn new(a: Vec<u8>, b: Vec<u8>) -> Self {
        NeedlemanWunschApp {
            a,
            b,
            matched: 1,
            mismatch: -1,
            gap: -1,
        }
    }

    /// The `(|a|+1) × (|b|+1)` grid pattern.
    pub fn pattern(&self) -> Grid3 {
        Grid3::new(self.a.len() as u32 + 1, self.b.len() as u32 + 1)
    }

    /// The global score = bottom-right cell.
    pub fn answer(&self, result: &dpx10_core::DagResult<i32>) -> i32 {
        result.get(self.a.len() as u32, self.b.len() as u32)
    }
}

impl DpApp for NeedlemanWunschApp {
    type Value = i32;

    fn compute(&self, id: VertexId, deps: &DepView<'_, i32>) -> i32 {
        let (i, j) = (id.i, id.j);
        if i == 0 {
            return j as i32 * self.gap;
        }
        if j == 0 {
            return i as i32 * self.gap;
        }
        let s = if self.a[(i - 1) as usize] == self.b[(j - 1) as usize] {
            self.matched
        } else {
            self.mismatch
        };
        let diag = deps.get(i - 1, j - 1).expect("diag") + s;
        let up = deps.get(i - 1, j).expect("up") + self.gap;
        let left = deps.get(i, j - 1).expect("left") + self.gap;
        diag.max(up).max(left)
    }
}

/// Edit distance on the banded pattern: missing out-of-band neighbours
/// are treated as unreachable (∞), so the result is exact whenever the
/// true distance is at most the band width.
pub struct BandedEditDistanceApp {
    /// First string.
    pub a: Vec<u8>,
    /// Second string (must be the same length: the band pattern is
    /// square).
    pub b: Vec<u8>,
    /// Band half-width.
    pub band: u32,
}

/// "Infinity" that survives +1 without wrapping.
const INF: u32 = u32::MAX / 2;

impl BandedEditDistanceApp {
    /// Creates the app; both strings must have equal length.
    pub fn new(a: Vec<u8>, b: Vec<u8>, band: u32) -> Self {
        assert_eq!(a.len(), b.len(), "banded pattern is square");
        BandedEditDistanceApp { a, b, band }
    }

    /// The banded pattern.
    pub fn pattern(&self) -> BandedGrid3 {
        BandedGrid3::new(self.a.len() as u32 + 1, self.band)
    }

    /// The (band-exact) distance.
    pub fn answer(&self, result: &dpx10_core::DagResult<u32>) -> u32 {
        result.get(self.a.len() as u32, self.b.len() as u32)
    }
}

impl DpApp for BandedEditDistanceApp {
    type Value = u32;

    fn compute(&self, id: VertexId, deps: &DepView<'_, u32>) -> u32 {
        let (i, j) = (id.i, id.j);
        if i == 0 {
            return j;
        }
        if j == 0 {
            return i;
        }
        let sub = deps
            .get(i - 1, j - 1)
            .map(|&d| d + (self.a[(i - 1) as usize] != self.b[(j - 1) as usize]) as u32)
            .unwrap_or(INF);
        let del = deps.get(i - 1, j).map(|&d| d + 1).unwrap_or(INF);
        let ins = deps.get(i, j - 1).map(|&d| d + 1).unwrap_or(INF);
        sub.min(del).min(ins)
    }
}

/// Nussinov RNA folding: maximum number of non-crossing base pairs in
/// `seq[i..=j]`, on the interval-splits pattern.
#[derive(Clone, Debug)]
pub struct NussinovApp {
    /// RNA sequence over `AUGC`.
    pub seq: Vec<u8>,
    /// Minimum hairpin loop length (0 for the textbook recurrence).
    pub min_loop: u32,
}

impl NussinovApp {
    /// Creates the app with `min_loop = 0`.
    pub fn new(seq: Vec<u8>) -> Self {
        assert!(!seq.is_empty());
        NussinovApp { seq, min_loop: 0 }
    }

    /// Whether two bases pair (Watson-Crick + GU wobble).
    #[inline]
    pub fn pairs(a: u8, b: u8) -> bool {
        matches!(
            (a, b),
            (b'A', b'U') | (b'U', b'A') | (b'G', b'C') | (b'C', b'G') | (b'G', b'U') | (b'U', b'G')
        )
    }

    /// The interval-splits pattern over `|seq|`.
    pub fn pattern(&self) -> IntervalSplits {
        IntervalSplits::new(self.seq.len() as u32)
    }

    /// Maximum pairs over the whole sequence.
    pub fn answer(&self, result: &dpx10_core::DagResult<u32>) -> u32 {
        result.get(0, self.seq.len() as u32 - 1)
    }
}

impl DpApp for NussinovApp {
    type Value = u32;

    fn compute(&self, id: VertexId, deps: &DepView<'_, u32>) -> u32 {
        let (i, j) = (id.i, id.j);
        if j - i < 1 + self.min_loop {
            return 0;
        }
        // Split maximisation covers the "unpaired end" cases via the
        // singleton splits k = i and k = j-1.
        let mut best = 0;
        for k in i..j {
            let left = *deps.get(i, k).expect("left part");
            let right = *deps.get(k + 1, j).expect("right part");
            best = best.max(left + right);
        }
        // Pair i with j around the inner interval (i+1, j-1).
        if Self::pairs(self.seq[i as usize], self.seq[j as usize]) {
            let inner = if j >= i + 2 {
                *deps.get(i + 1, j - 1).expect("inner interval")
            } else {
                0
            };
            best = best.max(inner + 1);
        }
        best
    }
}

/// Matrix-chain multiplication: minimum scalar multiplications to
/// compute `M_i × … × M_j` where `M_k` is `dims[k] × dims[k+1]`.
pub struct MatrixChainApp {
    /// Dimension vector of length `n + 1` for `n` matrices.
    pub dims: Vec<u64>,
}

impl MatrixChainApp {
    /// Creates the app for the given dimension vector.
    pub fn new(dims: Vec<u64>) -> Self {
        assert!(dims.len() >= 2, "need at least one matrix");
        MatrixChainApp { dims }
    }

    /// Number of matrices.
    pub fn n(&self) -> u32 {
        (self.dims.len() - 1) as u32
    }

    /// The interval-splits pattern over the chain.
    pub fn pattern(&self) -> IntervalSplits {
        IntervalSplits::new(self.n())
    }

    /// The optimum for the whole chain.
    pub fn answer(&self, result: &dpx10_core::DagResult<u64>) -> u64 {
        result.get(0, self.n() - 1)
    }
}

impl DpApp for MatrixChainApp {
    type Value = u64;

    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        let (i, j) = (id.i, id.j);
        if i == j {
            return 0;
        }
        let (pi, pj1) = (self.dims[i as usize], self.dims[(j + 1) as usize]);
        (i..j)
            .map(|k| {
                let left = *deps.get(i, k).expect("left part");
                let right = *deps.get(k + 1, j).expect("right part");
                left + right + pi * self.dims[(k + 1) as usize] * pj1
            })
            .min()
            .expect("non-empty split range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use dpx10_core::{EngineConfig, ThreadedEngine};

    #[test]
    fn edit_distance_matches_serial() {
        for (a, b) in [
            (b"kitten".as_slice(), b"sitting".as_slice()),
            (b"flaw", b"lawn"),
            (b"", b"abc"),
            (b"same", b"same"),
        ] {
            let app = EditDistanceApp::new(a.to_vec(), b.to_vec());
            let pattern = app.pattern();
            let result = ThreadedEngine::new(
                EditDistanceApp::new(a.to_vec(), b.to_vec()),
                pattern,
                EngineConfig::flat(2),
            )
            .run()
            .unwrap();
            assert_eq!(app.answer(&result), serial::edit_distance(a, b));
        }
    }

    #[test]
    fn needleman_wunsch_identical_strings_score_length() {
        let app = NeedlemanWunschApp::new(b"ACGTACGT".to_vec(), b"ACGTACGT".to_vec());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(
            NeedlemanWunschApp::new(b"ACGTACGT".to_vec(), b"ACGTACGT".to_vec()),
            pattern,
            EngineConfig::flat(2),
        )
        .run()
        .unwrap();
        assert_eq!(app.answer(&result), 8);
    }

    #[test]
    fn needleman_wunsch_matches_serial() {
        let (a, b) = (b"GATTACA".to_vec(), b"GCATGCU".to_vec());
        let app = NeedlemanWunschApp::new(a.clone(), b.clone());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(
            NeedlemanWunschApp::new(a.clone(), b.clone()),
            pattern,
            EngineConfig::flat(3),
        )
        .run()
        .unwrap();
        assert_eq!(
            app.answer(&result),
            serial::needleman_wunsch(&a, &b, 1, -1, -1)
        );
    }

    #[test]
    fn banded_edit_distance_exact_within_band() {
        let a = b"ABCDEFGH".to_vec();
        let b = b"ABXDEFGH".to_vec(); // distance 1
        let app = BandedEditDistanceApp::new(a.clone(), b.clone(), 3);
        let pattern = app.pattern();
        let result = ThreadedEngine::new(
            BandedEditDistanceApp::new(a.clone(), b.clone(), 3),
            pattern,
            EngineConfig::flat(2),
        )
        .run()
        .unwrap();
        assert_eq!(app.answer(&result), serial::edit_distance(&a, &b));
    }

    #[test]
    fn nussinov_matches_serial() {
        for seq in [b"GGGAAAUCC".as_slice(), b"ACUCGAUUCCGAG", b"AU", b"A"] {
            let app = NussinovApp::new(seq.to_vec());
            let pattern = app.pattern();
            let result = ThreadedEngine::new(
                NussinovApp::new(seq.to_vec()),
                pattern,
                EngineConfig::flat(2),
            )
            .run()
            .unwrap();
            assert_eq!(
                app.answer(&result),
                serial::nussinov(seq),
                "{:?}",
                std::str::from_utf8(seq)
            );
        }
    }

    #[test]
    fn matrix_chain_textbook_case() {
        // CLRS: dims [30,35,15,5,10,20,25] -> 15125.
        let dims = vec![30u64, 35, 15, 5, 10, 20, 25];
        let app = MatrixChainApp::new(dims.clone());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(
            MatrixChainApp::new(dims.clone()),
            pattern,
            EngineConfig::flat(2),
        )
        .run()
        .unwrap();
        assert_eq!(app.answer(&result), 15125);
        assert_eq!(app.answer(&result), serial::matrix_chain(&dims));
    }

    #[test]
    fn matrix_chain_single_matrix_is_free() {
        let app = MatrixChainApp::new(vec![4, 7]);
        let pattern = app.pattern();
        let result = ThreadedEngine::new(
            MatrixChainApp::new(vec![4, 7]),
            pattern,
            EngineConfig::flat(1),
        )
        .run()
        .unwrap();
        assert_eq!(app.answer(&result), 0);
    }
}

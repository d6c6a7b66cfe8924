//! Smith-Waterman local alignment: the paper's §VII-A demo (linear gap)
//! and the SWLAG evaluation application (linear *and* affine gap, §VIII).

use dpx10_apgas::Codec;
use dpx10_core::{DepView, DpApp};
use dpx10_dag::{builtin::Grid3, VertexId};

/// Match/mismatch/gap scores (paper §VII-A: +2 / −1 / −1).
#[derive(Clone, Copy, Debug)]
pub struct Scoring {
    /// Score when characters match.
    pub matched: i32,
    /// Score when they differ.
    pub mismatch: i32,
    /// Linear gap penalty (also the affine model's gap-open).
    pub gap_open: i32,
    /// Affine gap-extension penalty.
    pub gap_extend: i32,
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring {
            matched: 2,
            mismatch: -1,
            gap_open: -1,
            gap_extend: -1,
        }
    }
}

impl Scoring {
    /// The similarity function `s(a, b)`.
    #[inline]
    pub fn similarity(&self, a: u8, b: u8) -> i32 {
        if a == b {
            self.matched
        } else {
            self.mismatch
        }
    }
}

/// The paper's Fig. 7 application: Smith-Waterman with a linear gap
/// penalty, one `Int` per vertex.
#[derive(Clone, Debug)]
pub struct SwLinearApp {
    /// First sequence.
    pub a: Vec<u8>,
    /// Second sequence.
    pub b: Vec<u8>,
    /// Scores.
    pub scoring: Scoring,
}

impl SwLinearApp {
    /// Creates the app; run it over [`SwLinearApp::pattern`].
    pub fn new(a: Vec<u8>, b: Vec<u8>) -> Self {
        SwLinearApp {
            a,
            b,
            scoring: Scoring::default(),
        }
    }

    /// The `(|a|+1) × (|b|+1)` LCS-shaped DAG (paper Fig. 5 (b)).
    pub fn pattern(&self) -> Grid3 {
        Grid3::new(self.a.len() as u32 + 1, self.b.len() as u32 + 1)
    }
}

impl DpApp for SwLinearApp {
    type Value = i32;

    fn compute(&self, id: VertexId, deps: &DepView<'_, i32>) -> i32 {
        let (i, j) = (id.i, id.j);
        if i == 0 || j == 0 {
            return 0;
        }
        let s = self
            .scoring
            .similarity(self.a[(i - 1) as usize], self.b[(j - 1) as usize]);
        let diag = deps.get(i - 1, j - 1).expect("diag dep") + s;
        let up = deps.get(i - 1, j).expect("up dep") + self.scoring.gap_open;
        let left = deps.get(i, j - 1).expect("left dep") + self.scoring.gap_open;
        0.max(diag).max(up).max(left)
    }
}

/// One cell of the affine-gap (Gotoh) recurrence: the three interleaved
/// matrices `H` (best score), `E` (gap in `a`), `F` (gap in `b`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwCell {
    /// Best local-alignment score ending at this cell.
    pub h: i32,
    /// Best score ending in a gap along the second sequence.
    pub e: i32,
    /// Best score ending in a gap along the first sequence.
    pub f: i32,
}

impl Codec for SwCell {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.h.encode(buf);
        self.e.encode(buf);
        self.f.encode(buf);
    }

    fn decode(src: &mut &[u8]) -> Option<Self> {
        Some(SwCell {
            h: i32::decode(src)?,
            e: i32::decode(src)?,
            f: i32::decode(src)?,
        })
    }

    fn wire_size(&self) -> usize {
        12
    }
}

/// SWLAG: Smith-Waterman with **l**inear **a**nd affine **g**ap penalty —
/// the paper's headline evaluation app. Each vertex computes the Gotoh
/// triple, so its per-vertex work is ~1.5× the linear variant's (the cost
/// model in `dpx10-sim` prices it accordingly).
#[derive(Clone, Debug)]
pub struct SwlagApp {
    /// First sequence.
    pub a: Vec<u8>,
    /// Second sequence.
    pub b: Vec<u8>,
    /// Scores (gap_open for opening, gap_extend for extending).
    pub scoring: Scoring,
}

/// "Minus infinity" that survives adding penalties without wrapping.
const NEG_INF: i32 = i32::MIN / 4;

impl SwlagApp {
    /// Creates the app with default scoring.
    pub fn new(a: Vec<u8>, b: Vec<u8>) -> Self {
        SwlagApp {
            a,
            b,
            scoring: Scoring {
                gap_open: -2,
                gap_extend: -1,
                ..Scoring::default()
            },
        }
    }

    /// The `(|a|+1) × (|b|+1)` DAG (paper Fig. 5 (b)).
    pub fn pattern(&self) -> Grid3 {
        Grid3::new(self.a.len() as u32 + 1, self.b.len() as u32 + 1)
    }
}

impl DpApp for SwlagApp {
    type Value = SwCell;

    fn compute(&self, id: VertexId, deps: &DepView<'_, SwCell>) -> SwCell {
        let (i, j) = (id.i, id.j);
        if i == 0 || j == 0 {
            return SwCell {
                h: 0,
                e: NEG_INF,
                f: NEG_INF,
            };
        }
        let sc = &self.scoring;
        // `Grid3` order: up, left, diagonal.
        debug_assert_eq!(
            deps.ids(),
            [(i - 1, j), (i, j - 1), (i - 1, j - 1)].map(VertexId::from)
        );
        let (up, left, diag) = (deps.at(0), deps.at(1), deps.at(2));
        let e = (left.h + sc.gap_open).max(left.e + sc.gap_extend);
        let f = (up.h + sc.gap_open).max(up.f + sc.gap_extend);
        let s = sc.similarity(self.a[(i - 1) as usize], self.b[(j - 1) as usize]);
        let h = 0.max(diag.h + s).max(e).max(f);
        SwCell { h, e, f }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use dpx10_core::{EngineConfig, ThreadedEngine};

    #[test]
    fn linear_matches_paper_walkthrough_scale() {
        // Identical strings: score grows by +2 along the diagonal.
        let app = SwLinearApp::new(b"ACGT".to_vec(), b"ACGT".to_vec());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
            .run()
            .unwrap();
        assert_eq!(result.get(4, 4), 8);
    }

    #[test]
    fn linear_matches_serial_reference() {
        let (a, b) = (b"GGTTGACTA".to_vec(), b"TGTTACGG".to_vec());
        let expect = serial::smith_waterman_linear(&a, &b, &Scoring::default());
        let app = SwLinearApp::new(a, b);
        let pattern = app.pattern();
        let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(3))
            .run()
            .unwrap();
        for (i, row) in expect.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(result.get(i as u32, j as u32), v, "H[{i}][{j}]");
            }
        }
    }

    #[test]
    fn affine_matches_serial_reference() {
        let (a, b) = (b"CTTAGCTAGCAT".to_vec(), b"TTAAGGCAT".to_vec());
        let app = SwlagApp::new(a.clone(), b.clone());
        let expect = serial::smith_waterman_affine(&a, &b, &app.scoring);
        let pattern = app.pattern();
        let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
            .run()
            .unwrap();
        for i in 0..=a.len() as u32 {
            for j in 0..=b.len() as u32 {
                assert_eq!(
                    result.get(i, j).h,
                    expect[i as usize][j as usize],
                    "H[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn affine_penalises_gap_opens_more_than_extends() {
        // One long gap should beat two short gaps with affine scoring.
        let app = SwlagApp::new(b"AAAATTTTAAAA".to_vec(), b"AAAAAAAA".to_vec());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(1))
            .run()
            .unwrap();
        let best = (0..=12)
            .flat_map(|i| (0..=8).map(move |j| (i, j)))
            .map(|(i, j)| result.get(i, j).h)
            .max()
            .unwrap();
        // 8 matches (+16) − open (−2) − 3 extends (−3) = 11.
        assert_eq!(best, 11);
    }

    #[test]
    fn swcell_codec_round_trips() {
        let cell = SwCell { h: 5, e: -3, f: 0 };
        let mut buf = Vec::new();
        cell.encode(&mut buf);
        assert_eq!(buf.len(), cell.wire_size());
        let mut src = buf.as_slice();
        assert_eq!(SwCell::decode(&mut src), Some(cell));
    }
}

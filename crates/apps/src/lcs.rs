//! Longest Common Subsequence — the paper's §IV walk-through (Fig. 1),
//! with the backtracking post-processing the paper sketches done in
//! `app_finished`-style helpers.

use dpx10_core::{DagResult, DepView, DpApp};
use dpx10_dag::{builtin::Grid3, VertexId};

/// The LCS application over two strings.
///
/// Note the paper's Fig. 1 calls the example "longest common substring"
/// but computes the classic longest common *subsequence* recurrence
/// (`F[i,j] = F[i-1,j-1]+1` on match, else `max` of neighbours); we
/// implement the recurrence as given.
#[derive(Clone, Debug)]
pub struct LcsApp {
    /// First string.
    pub a: Vec<u8>,
    /// Second string.
    pub b: Vec<u8>,
}

impl LcsApp {
    /// Creates the app.
    pub fn new(a: Vec<u8>, b: Vec<u8>) -> Self {
        LcsApp { a, b }
    }

    /// The `(|a|+1) × (|b|+1)` Fig. 5 (b) pattern.
    pub fn pattern(&self) -> Grid3 {
        Grid3::new(self.a.len() as u32 + 1, self.b.len() as u32 + 1)
    }

    /// Length of the LCS.
    pub fn length(&self, result: &DagResult<u32>) -> u32 {
        result.get(self.a.len() as u32, self.b.len() as u32)
    }

    /// Reconstructs one LCS by backtracking over the finished matrix —
    /// the "result can be processed using backtracking method" step of
    /// paper §IV.
    pub fn backtrack(&self, result: &DagResult<u32>) -> Vec<u8> {
        let mut out = Vec::new();
        let (mut i, mut j) = (self.a.len() as u32, self.b.len() as u32);
        while i > 0 && j > 0 {
            if self.a[(i - 1) as usize] == self.b[(j - 1) as usize] {
                out.push(self.a[(i - 1) as usize]);
                i -= 1;
                j -= 1;
            } else if result.get(i - 1, j) >= result.get(i, j - 1) {
                i -= 1;
            } else {
                j -= 1;
            }
        }
        out.reverse();
        out
    }
}

impl DpApp for LcsApp {
    type Value = u32;

    fn compute(&self, id: VertexId, deps: &DepView<'_, u32>) -> u32 {
        let (i, j) = (id.i, id.j);
        if i == 0 || j == 0 {
            return 0;
        }
        if self.a[(i - 1) as usize] == self.b[(j - 1) as usize] {
            deps.get(i - 1, j - 1).expect("diag dep") + 1
        } else {
            *deps
                .get(i - 1, j)
                .expect("up dep")
                .max(deps.get(i, j - 1).expect("left dep"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use dpx10_core::{EngineConfig, ThreadedEngine};

    fn run(a: &[u8], b: &[u8]) -> (u32, Vec<u8>) {
        let app = LcsApp::new(a.to_vec(), b.to_vec());
        let pattern = app.pattern();
        let result = ThreadedEngine::new(
            LcsApp::new(a.to_vec(), b.to_vec()),
            pattern,
            EngineConfig::flat(2),
        )
        .run()
        .unwrap();
        (app.length(&result), app.backtrack(&result))
    }

    #[test]
    fn paper_fig1_example() {
        // Paper §IV: ABC vs DBC -> "BC".
        let (len, seq) = run(b"ABC", b"DBC");
        assert_eq!(len, 2);
        assert_eq!(seq, b"BC");
    }

    #[test]
    fn matches_serial_reference() {
        for (a, b) in [
            (b"AGCAT".as_slice(), b"GAC".as_slice()),
            (b"ABCBDAB", b"BDCABA"),
            (b"XMJYAUZ", b"MZJAWXU"),
        ] {
            let (len, seq) = run(a, b);
            assert_eq!(len, serial::lcs_len(a, b));
            // The reconstructed sequence must be a real common
            // subsequence of the right length.
            assert_eq!(seq.len() as u32, len);
            assert!(serial::is_subsequence(&seq, a));
            assert!(serial::is_subsequence(&seq, b));
        }
    }

    #[test]
    fn disjoint_alphabets_have_empty_lcs() {
        let (len, seq) = run(b"AAA", b"BBB");
        assert_eq!(len, 0);
        assert!(seq.is_empty());
    }
}

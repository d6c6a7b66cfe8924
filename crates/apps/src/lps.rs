//! Longest Palindromic Subsequence (paper §VIII).
//!
//! Interval DP over the upper triangle (Fig. 5 (d)):
//!
//! ```text
//! D(i,i) = 1
//! D(i,j) = 2                     if x_i = x_j and j = i+1
//! D(i,j) = D(i+1,j-1) + 2        if x_i = x_j
//! D(i,j) = max(D(i+1,j), D(i,j-1))   otherwise
//! ```

use dpx10_core::{DepView, DpApp};
use dpx10_dag::{builtin::IntervalUpper, VertexId};

/// The LPS application over one string.
#[derive(Clone, Debug)]
pub struct LpsApp {
    /// The subject string.
    pub text: Vec<u8>,
}

impl LpsApp {
    /// Creates the app; the string must be non-empty.
    pub fn new(text: Vec<u8>) -> Self {
        assert!(!text.is_empty(), "LPS needs a non-empty string");
        LpsApp { text }
    }

    /// The interval pattern over `|text|`.
    pub fn pattern(&self) -> IntervalUpper {
        IntervalUpper::new(self.text.len() as u32)
    }

    /// Length of the longest palindromic subsequence = `D(0, n-1)`.
    pub fn answer(&self, result: &dpx10_core::DagResult<u32>) -> u32 {
        result.get(0, self.text.len() as u32 - 1)
    }
}

impl DpApp for LpsApp {
    type Value = u32;

    fn compute(&self, id: VertexId, deps: &DepView<'_, u32>) -> u32 {
        let (i, j) = (id.i, id.j);
        if i == j {
            return 1;
        }
        let xi = self.text[i as usize];
        let xj = self.text[j as usize];
        if xi == xj {
            if j == i + 1 {
                2
            } else {
                deps.get(i + 1, j - 1).expect("inner dep") + 2
            }
        } else {
            *deps
                .get(i + 1, j)
                .expect("drop-left dep")
                .max(deps.get(i, j - 1).expect("drop-right dep"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use dpx10_core::{EngineConfig, ThreadedEngine};

    fn lps_of(text: &[u8]) -> u32 {
        let app = LpsApp::new(text.to_vec());
        let pattern = app.pattern();
        let n = text.len() as u32;
        let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
            .run()
            .unwrap();
        result.get(0, n - 1)
    }

    #[test]
    fn classic_cases() {
        assert_eq!(lps_of(b"BBABCBCAB"), 7); // BABCBAB
        assert_eq!(lps_of(b"A"), 1);
        assert_eq!(lps_of(b"AB"), 1);
        assert_eq!(lps_of(b"AA"), 2);
        assert_eq!(lps_of(b"RACECAR"), 7);
    }

    #[test]
    fn matches_serial_reference() {
        for text in [b"AGBDBA".as_slice(), b"CHARACTER", b"XYZZYXQQ"] {
            assert_eq!(
                lps_of(text),
                serial::lps(text),
                "{:?}",
                std::str::from_utf8(text)
            );
        }
    }

    #[test]
    fn palindrome_scores_its_own_length() {
        assert_eq!(lps_of(b"ABCDEDCBA"), 9);
    }
}

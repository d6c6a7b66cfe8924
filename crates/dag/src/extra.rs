//! Extension patterns beyond the paper's built-in eight — its stated
//! future work ("Planned and ongoing work of DPX10 also includes
//! developing more DAG patterns", §X).
//!
//! * [`BandedGrid3`] — the banded-alignment variant of Fig. 5 (b): only
//!   cells within `band` of the main diagonal exist, the classic
//!   O(n·band) optimisation of sequence alignment.
//! * [`IntervalSplits`] — the genuinely 2D/1D interval pattern: besides
//!   the three neighbours, `(i, j)` depends on **every split**
//!   `(i, k)`/`(k+1, j)`. This is the dependency structure of
//!   matrix-chain multiplication, optimal BSTs and Nussinov RNA folding
//!   (paper Algorithm 3.2), and the concrete case behind the paper's
//!   "2D/iD performance is less than satisfactory" caveat.

use crate::{DagPattern, VertexId};

/// Banded three-parent grid: vertex `(i, j)` exists iff
/// `|i − j| ≤ band`, with the usual top/left/diagonal edges clipped to
/// the band.
#[derive(Clone, Copy, Debug)]
pub struct BandedGrid3 {
    n: u32,
    band: u32,
}

impl BandedGrid3 {
    /// Creates the banded pattern over an `n × n` matrix.
    pub fn new(n: u32, band: u32) -> Self {
        assert!(n > 0, "pattern must be non-empty");
        BandedGrid3 { n, band }
    }

    /// Band half-width.
    pub fn band(&self) -> u32 {
        self.band
    }

    #[inline]
    fn in_band(&self, i: u32, j: u32) -> bool {
        let d = i.abs_diff(j);
        d <= self.band
    }
}

impl DagPattern for BandedGrid3 {
    fn height(&self) -> u32 {
        self.n
    }

    fn width(&self) -> u32 {
        self.n
    }

    #[inline]
    fn contains(&self, i: u32, j: u32) -> bool {
        i < self.n && j < self.n && self.in_band(i, j)
    }

    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.contains(i, j));
        if i > 0 && self.in_band(i - 1, j) {
            out.push(VertexId::new(i - 1, j));
        }
        if j > 0 && self.in_band(i, j - 1) {
            out.push(VertexId::new(i, j - 1));
        }
        if i > 0 && j > 0 {
            out.push(VertexId::new(i - 1, j - 1)); // always in band
        }
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.contains(i, j));
        if i + 1 < self.n && self.in_band(i + 1, j) {
            out.push(VertexId::new(i + 1, j));
        }
        if j + 1 < self.n && self.in_band(i, j + 1) {
            out.push(VertexId::new(i, j + 1));
        }
        if i + 1 < self.n && j + 1 < self.n {
            out.push(VertexId::new(i + 1, j + 1));
        }
    }

    fn vertex_count(&self) -> u64 {
        let (n, b) = (self.n as u64, self.band as u64);
        // Full square minus the two triangles outside the band.
        let tri = |k: u64| k * (k + 1) / 2;
        let outside = if b + 1 >= n { 0 } else { 2 * tri(n - b - 1) };
        n * n - outside
    }

    fn stencil(&self) -> Option<&[(i32, i32)]> {
        Some(&[(-1, 0), (0, -1), (-1, -1)])
    }

    fn name(&self) -> &str {
        "banded-grid3"
    }
}

/// Interval DP **with splits**: `(i, j)` (for `i ≤ j` in an upper
/// triangle) depends on `(i, k)` and `(k+1, j)` for every `i ≤ k < j`
/// — which subsumes the neighbour edges `(i, j-1)` and `(i+1, j)` —
/// plus the inner interval `(i+1, j-1)` needed by pairing recurrences
/// (Nussinov). Indegree of an interval of length `L` is `2(L-1)` plus
/// one when `L ≥ 3`.
#[derive(Clone, Copy, Debug)]
pub struct IntervalSplits {
    n: u32,
}

impl IntervalSplits {
    /// Creates the pattern over intervals of a length-`n` sequence.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "pattern must be non-empty");
        IntervalSplits { n }
    }
}

impl DagPattern for IntervalSplits {
    fn height(&self) -> u32 {
        self.n
    }

    fn width(&self) -> u32 {
        self.n
    }

    #[inline]
    fn contains(&self, i: u32, j: u32) -> bool {
        i <= j && j < self.n
    }

    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.contains(i, j));
        out.reserve(2 * (j - i) as usize + 1);
        for k in i..j {
            out.push(VertexId::new(i, k));
            out.push(VertexId::new(k + 1, j));
        }
        if j >= i + 2 {
            out.push(VertexId::new(i + 1, j - 1));
        }
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.contains(i, j));
        // (i, j) is a left part of (i, j') for every j' > j, and a right
        // part of (i', j) for every i' < i.
        for jp in j + 1..self.n {
            out.push(VertexId::new(i, jp));
        }
        for ip in 0..i {
            out.push(VertexId::new(ip, j));
        }
        // (i, j) is the inner interval of (i-1, j+1).
        if i > 0 && j + 1 < self.n {
            out.push(VertexId::new(i - 1, j + 1));
        }
    }

    fn indegree(&self, i: u32, j: u32) -> u32 {
        2 * (j - i) + (j >= i + 2) as u32
    }

    fn vertex_count(&self) -> u64 {
        let n = self.n as u64;
        n * (n + 1) / 2
    }

    fn name(&self) -> &str {
        "interval-splits"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{critical_path_len, validate_pattern};

    #[test]
    fn banded_validates_at_various_bands() {
        for band in [0u32, 1, 3, 10, 64] {
            let p = BandedGrid3::new(12, band);
            validate_pattern(&p).unwrap_or_else(|e| panic!("band {band}: {e}"));
        }
    }

    #[test]
    fn banded_vertex_count_closed_form() {
        for (n, band) in [(6u32, 1u32), (8, 2), (5, 10), (12, 0)] {
            let p = BandedGrid3::new(n, band);
            let mut count = 0u64;
            for i in 0..n {
                for j in 0..n {
                    count += p.contains(i, j) as u64;
                }
            }
            assert_eq!(p.vertex_count(), count, "n={n} band={band}");
        }
    }

    #[test]
    fn band_zero_is_a_diagonal_chain() {
        let p = BandedGrid3::new(6, 0);
        assert_eq!(p.vertex_count(), 6);
        assert_eq!(critical_path_len(&p), 6);
        let mut deps = Vec::new();
        p.dependencies(3, 3, &mut deps);
        assert_eq!(deps, vec![VertexId::new(2, 2)]);
    }

    #[test]
    fn interval_splits_validates() {
        validate_pattern(&IntervalSplits::new(9)).unwrap();
    }

    #[test]
    fn interval_splits_indegree_is_2l() {
        let p = IntervalSplits::new(8);
        assert_eq!(p.indegree(2, 2), 0);
        assert_eq!(p.indegree(2, 3), 2);
        assert_eq!(p.indegree(0, 7), 15);
        let mut deps = Vec::new();
        p.dependencies(1, 3, &mut deps);
        deps.sort();
        assert_eq!(
            deps,
            vec![
                VertexId::new(1, 1),
                VertexId::new(1, 2),
                VertexId::new(2, 2), // inner interval for pairing DPs
                VertexId::new(2, 3),
                VertexId::new(3, 3)
            ]
        );
    }

    #[test]
    fn interval_splits_levels_are_lengths() {
        let p = IntervalSplits::new(6);
        assert_eq!(critical_path_len(&p), 6);
        assert_eq!(crate::wavefront_profile(&p), vec![6, 5, 4, 3, 2, 1]);
    }
}

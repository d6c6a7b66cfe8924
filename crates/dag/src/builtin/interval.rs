//! Fig. 5 (d): upper-triangular interval-DP pattern.

use crate::{DagPattern, VertexId};

/// The interval-DP pattern over the upper triangle of an `n × n` matrix:
/// vertex `(i, j)` exists for `i ≤ j` and (for `j > i`) depends on
/// `(i+1, j)`, `(i, j-1)` and, when `j ≥ i+2`, `(i+1, j-1)`.
///
/// This is the dependency structure of the Longest Palindromic Subsequence
/// application (paper §VIII): intervals are filled from the main diagonal
/// outwards, so the wavefront runs along `j - i = const` bands. The
/// diagonal cells `(i, i)` are the DAG sources.
#[derive(Clone, Copy, Debug)]
pub struct IntervalUpper {
    n: u32,
}

impl IntervalUpper {
    /// Creates the pattern over intervals of a length-`n` sequence.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "pattern must be non-empty");
        IntervalUpper { n }
    }

    /// The sequence length `n`.
    pub fn n(&self) -> u32 {
        self.n
    }
}

impl DagPattern for IntervalUpper {
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
        if j == i {
            return; // base case D(i, i)
        }
        out.push(VertexId::new(i + 1, j));
        out.push(VertexId::new(i, j - 1));
        if j >= i + 2 {
            out.push(VertexId::new(i + 1, j - 1));
        }
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.contains(i, j));
        if i > 0 {
            out.push(VertexId::new(i - 1, j));
        }
        if j + 1 < self.n {
            out.push(VertexId::new(i, j + 1));
        }
        if i > 0 && j + 1 < self.n {
            out.push(VertexId::new(i - 1, j + 1));
        }
    }

    fn indegree(&self, i: u32, j: u32) -> u32 {
        if j == i {
            0
        } else if j == i + 1 {
            2
        } else {
            3
        }
    }

    fn vertex_count(&self) -> u64 {
        let n = self.n as u64;
        n * (n + 1) / 2
    }

    fn stencil(&self) -> Option<&[(i32, i32)]> {
        Some(&[(1, 0), (0, -1), (1, -1)])
    }

    fn name(&self) -> &str {
        "interval-upper"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_cells_are_sources() {
        let p = IntervalUpper::new(5);
        for i in 0..5 {
            assert_eq!(p.indegree(i, i), 0);
        }
    }

    #[test]
    fn off_diagonal_deps() {
        let p = IntervalUpper::new(5);
        let mut deps = Vec::new();
        p.dependencies(1, 2, &mut deps);
        assert_eq!(deps, vec![VertexId::new(2, 2), VertexId::new(1, 1)]);
        deps.clear();
        p.dependencies(0, 4, &mut deps);
        assert_eq!(
            deps,
            vec![
                VertexId::new(1, 4),
                VertexId::new(0, 3),
                VertexId::new(1, 3)
            ]
        );
    }

    #[test]
    fn lower_triangle_excluded() {
        let p = IntervalUpper::new(4);
        assert!(!p.contains(2, 1));
        assert!(p.contains(2, 2));
        assert!(!p.contains(0, 4));
    }

    #[test]
    fn vertex_count_is_triangular_number() {
        assert_eq!(IntervalUpper::new(4).vertex_count(), 10);
        assert_eq!(IntervalUpper::new(1).vertex_count(), 1);
    }

    #[test]
    fn unique_sink_is_full_interval() {
        let p = IntervalUpper::new(6);
        let mut anti = Vec::new();
        p.anti_dependencies(0, 5, &mut anti);
        assert!(anti.is_empty());
    }

    #[test]
    fn indegree_closed_form_matches_enumeration() {
        let p = IntervalUpper::new(6);
        let mut buf = Vec::new();
        for i in 0..6 {
            for j in i..6 {
                buf.clear();
                p.dependencies(i, j, &mut buf);
                assert_eq!(p.indegree(i, j), buf.len() as u32, "at ({i},{j})");
            }
        }
    }
}

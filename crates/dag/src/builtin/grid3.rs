//! Fig. 5 (b): the three-parent grid pattern (LCS / Smith-Waterman).

use super::Rect;
use crate::{DagPattern, VertexId};

/// Each vertex `(i, j)` depends on **top** `(i-1, j)`, **left** `(i, j-1)`
/// and **diagonal** `(i-1, j-1)` neighbours.
///
/// This is the pattern of the Longest Common Subsequence walk-through
/// (paper Fig. 1) and of the Smith-Waterman demo application (paper
/// §VII-A): the classic string-alignment wavefront.
#[derive(Clone, Copy, Debug)]
pub struct Grid3 {
    rect: Rect,
}

impl Grid3 {
    /// Creates the pattern for a `height × width` matrix.
    pub fn new(height: u32, width: u32) -> Self {
        Grid3 {
            rect: Rect::new(height, width),
        }
    }
}

impl DagPattern for Grid3 {
    fn height(&self) -> u32 {
        self.rect.height
    }

    fn width(&self) -> u32 {
        self.rect.width
    }

    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        if i > 0 {
            out.push(VertexId::new(i - 1, j));
        }
        if j > 0 {
            out.push(VertexId::new(i, j - 1));
        }
        if i > 0 && j > 0 {
            out.push(VertexId::new(i - 1, j - 1));
        }
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        let down = i + 1 < self.rect.height;
        let right = j + 1 < self.rect.width;
        if down {
            out.push(VertexId::new(i + 1, j));
        }
        if right {
            out.push(VertexId::new(i, j + 1));
        }
        if down && right {
            out.push(VertexId::new(i + 1, j + 1));
        }
    }

    fn indegree(&self, i: u32, j: u32) -> u32 {
        (i > 0) as u32 + (j > 0) as u32 + (i > 0 && j > 0) as u32
    }

    fn stencil(&self) -> Option<&[(i32, i32)]> {
        Some(&[(-1, 0), (0, -1), (-1, -1)])
    }

    fn name(&self) -> &str {
        "grid3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_fig1_example() {
        // Paper §IV: when computing (2, 2) the deps are (1, 1), (2, 1), (1, 2)
        // (order aside).
        let p = Grid3::new(3, 3);
        let mut deps = Vec::new();
        p.dependencies(2, 2, &mut deps);
        deps.sort();
        assert_eq!(
            deps,
            vec![
                VertexId::new(1, 1),
                VertexId::new(1, 2),
                VertexId::new(2, 1)
            ]
        );
    }

    #[test]
    fn source_and_sink() {
        let p = Grid3::new(3, 3);
        assert_eq!(p.indegree(0, 0), 0);
        let mut anti = Vec::new();
        p.anti_dependencies(2, 2, &mut anti);
        assert!(anti.is_empty());
    }

    #[test]
    fn border_vertices_have_partial_deps() {
        let p = Grid3::new(3, 3);
        assert_eq!(p.indegree(0, 2), 1); // only left
        assert_eq!(p.indegree(2, 0), 1); // only top
        assert_eq!(p.indegree(1, 1), 3);
    }

    #[test]
    fn indegree_closed_form_matches_enumeration() {
        let p = Grid3::new(5, 4);
        let mut buf = Vec::new();
        for i in 0..5 {
            for j in 0..4 {
                buf.clear();
                p.dependencies(i, j, &mut buf);
                assert_eq!(p.indegree(i, j), buf.len() as u32);
            }
        }
    }
}

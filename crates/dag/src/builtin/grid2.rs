//! Fig. 5 (a): the two-parent grid pattern.

use super::Rect;
use crate::{DagPattern, VertexId};

/// Each vertex `(i, j)` depends on its **top** `(i-1, j)` and **left**
/// `(i, j-1)` neighbours.
///
/// This is the pattern of the Manhattan Tourist Problem (paper §VIII) and
/// of every 2D/0D recurrence of the form
/// `D[i,j] = f(D[i-1,j], D[i,j-1])` (paper Algorithm 3.1).
///
/// Vertex `(0, 0)` is the unique source; `(h-1, w-1)` the unique sink.
#[derive(Clone, Copy, Debug)]
pub struct Grid2 {
    rect: Rect,
}

impl Grid2 {
    /// Creates the pattern for a `height × width` matrix.
    pub fn new(height: u32, width: u32) -> Self {
        Grid2 {
            rect: Rect::new(height, width),
        }
    }
}

impl DagPattern for Grid2 {
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
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        if i + 1 < self.rect.height {
            out.push(VertexId::new(i + 1, j));
        }
        if j + 1 < self.rect.width {
            out.push(VertexId::new(i, j + 1));
        }
    }

    fn indegree(&self, i: u32, j: u32) -> u32 {
        (i > 0) as u32 + (j > 0) as u32
    }

    fn stencil(&self) -> Option<&[(i32, i32)]> {
        Some(&[(-1, 0), (0, -1)])
    }

    fn name(&self) -> &str {
        "grid2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_vertices() {
        let p = Grid2::new(3, 3);
        let mut v = Vec::new();
        p.dependencies(0, 0, &mut v);
        assert!(v.is_empty());
        p.anti_dependencies(2, 2, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn interior_vertex_has_two_parents_two_children() {
        let p = Grid2::new(3, 3);
        let mut deps = Vec::new();
        p.dependencies(1, 1, &mut deps);
        assert_eq!(deps, vec![VertexId::new(0, 1), VertexId::new(1, 0)]);
        let mut anti = Vec::new();
        p.anti_dependencies(1, 1, &mut anti);
        assert_eq!(anti, vec![VertexId::new(2, 1), VertexId::new(1, 1 + 1)]);
    }

    #[test]
    fn indegree_closed_form_matches_enumeration() {
        let p = Grid2::new(4, 6);
        let mut buf = Vec::new();
        for i in 0..4 {
            for j in 0..6 {
                buf.clear();
                p.dependencies(i, j, &mut buf);
                assert_eq!(p.indegree(i, j), buf.len() as u32, "at ({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_rejected() {
        let _ = Grid2::new(0, 3);
    }
}

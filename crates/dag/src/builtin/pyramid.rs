//! Fig. 5 (g): the three-parent pyramid stencil.

use super::Rect;
use crate::{DagPattern, VertexId};

/// Each vertex `(i, j)` depends on the three cells above it:
/// `(i-1, j-1)`, `(i-1, j)` and `(i-1, j+1)` (where they exist).
///
/// This is the shape of triangle-smoothing / Viterbi-like recurrences where
/// a cell aggregates a window of the previous row. Row 0 is entirely
/// sources, so the wavefront advances one full row at a time with maximum
/// width — a contrast case to the anti-diagonal wavefront of
/// [`super::Grid3`].
#[derive(Clone, Copy, Debug)]
pub struct Pyramid {
    rect: Rect,
}

impl Pyramid {
    /// Creates the pattern for a `height × width` matrix.
    pub fn new(height: u32, width: u32) -> Self {
        Pyramid {
            rect: Rect::new(height, width),
        }
    }
}

impl DagPattern for Pyramid {
    fn height(&self) -> u32 {
        self.rect.height
    }

    fn width(&self) -> u32 {
        self.rect.width
    }

    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        if i == 0 {
            return;
        }
        if j > 0 {
            out.push(VertexId::new(i - 1, j - 1));
        }
        out.push(VertexId::new(i - 1, j));
        if j + 1 < self.rect.width {
            out.push(VertexId::new(i - 1, j + 1));
        }
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        if i + 1 >= self.rect.height {
            return;
        }
        if j > 0 {
            out.push(VertexId::new(i + 1, j - 1));
        }
        out.push(VertexId::new(i + 1, j));
        if j + 1 < self.rect.width {
            out.push(VertexId::new(i + 1, j + 1));
        }
    }

    fn indegree(&self, i: u32, j: u32) -> u32 {
        if i == 0 {
            0
        } else {
            1 + (j > 0) as u32 + (j + 1 < self.rect.width) as u32
        }
    }

    fn stencil(&self) -> Option<&[(i32, i32)]> {
        Some(&[(-1, -1), (-1, 0), (-1, 1)])
    }

    fn name(&self) -> &str {
        "pyramid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_row_all_sources() {
        let p = Pyramid::new(3, 4);
        for j in 0..4 {
            assert_eq!(p.indegree(0, j), 0);
        }
    }

    #[test]
    fn interior_has_three_parents() {
        let p = Pyramid::new(3, 4);
        let mut deps = Vec::new();
        p.dependencies(1, 1, &mut deps);
        assert_eq!(
            deps,
            vec![
                VertexId::new(0, 0),
                VertexId::new(0, 1),
                VertexId::new(0, 2)
            ]
        );
    }

    #[test]
    fn edges_clamped_at_borders() {
        let p = Pyramid::new(3, 4);
        assert_eq!(p.indegree(1, 0), 2);
        assert_eq!(p.indegree(1, 3), 2);
        let mut anti = Vec::new();
        p.anti_dependencies(1, 0, &mut anti);
        assert_eq!(anti, vec![VertexId::new(2, 0), VertexId::new(2, 1)]);
    }

    #[test]
    fn indegree_closed_form_matches_enumeration() {
        let p = Pyramid::new(4, 5);
        let mut buf = Vec::new();
        for i in 0..4 {
            for j in 0..5 {
                buf.clear();
                p.dependencies(i, j, &mut buf);
                assert_eq!(p.indegree(i, j), buf.len() as u32);
            }
        }
    }
}

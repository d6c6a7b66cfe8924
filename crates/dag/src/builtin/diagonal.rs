//! Fig. 5 (c): independent diagonal chains.

use super::Rect;
use crate::{DagPattern, VertexId};

/// Each vertex `(i, j)` depends only on its diagonal predecessor
/// `(i-1, j-1)`.
///
/// The graph decomposes into `height + width - 1` independent chains (one
/// per diagonal), giving the highest parallelism of the built-in library —
/// useful both for embarrassingly parallel per-diagonal recurrences and as
/// the "maximum parallelism" control in scheduling experiments.
#[derive(Clone, Copy, Debug)]
pub struct Diagonal {
    rect: Rect,
}

impl Diagonal {
    /// Creates the pattern for a `height × width` matrix.
    pub fn new(height: u32, width: u32) -> Self {
        Diagonal {
            rect: Rect::new(height, width),
        }
    }
}

impl DagPattern for Diagonal {
    fn height(&self) -> u32 {
        self.rect.height
    }

    fn width(&self) -> u32 {
        self.rect.width
    }

    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        if i > 0 && j > 0 {
            out.push(VertexId::new(i - 1, j - 1));
        }
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        if i + 1 < self.rect.height && j + 1 < self.rect.width {
            out.push(VertexId::new(i + 1, j + 1));
        }
    }

    fn indegree(&self, i: u32, j: u32) -> u32 {
        (i > 0 && j > 0) as u32
    }

    fn stencil(&self) -> Option<&[(i32, i32)]> {
        Some(&[(-1, -1)])
    }

    fn name(&self) -> &str {
        "diagonal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_row_and_column_are_sources() {
        let p = Diagonal::new(4, 4);
        for j in 0..4 {
            assert_eq!(p.indegree(0, j), 0);
        }
        for i in 0..4 {
            assert_eq!(p.indegree(i, 0), 0);
        }
    }

    #[test]
    fn chains_are_disjoint() {
        let p = Diagonal::new(3, 5);
        let mut deps = Vec::new();
        p.dependencies(2, 3, &mut deps);
        assert_eq!(deps, vec![VertexId::new(1, 2)]);
        let mut anti = Vec::new();
        p.anti_dependencies(1, 2, &mut anti);
        assert_eq!(anti, vec![VertexId::new(2, 3)]);
    }

    #[test]
    fn source_count_is_h_plus_w_minus_1() {
        let p = Diagonal::new(3, 5);
        let mut sources = 0;
        for i in 0..3 {
            for j in 0..5 {
                if p.indegree(i, j) == 0 {
                    sources += 1;
                }
            }
        }
        assert_eq!(sources, 3 + 5 - 1);
    }
}

//! Fig. 5 (e): independent left-to-right chains along each row.

use super::Rect;
use crate::{DagPattern, VertexId};

/// Each vertex `(i, j)` depends only on its **left** neighbour `(i, j-1)`.
///
/// The graph is `height` independent chains — the shape of per-row prefix
/// scans (e.g. per-sequence 1-D DP batched over many sequences).
#[derive(Clone, Copy, Debug)]
pub struct RowWave {
    rect: Rect,
}

impl RowWave {
    /// Creates the pattern for a `height × width` matrix.
    pub fn new(height: u32, width: u32) -> Self {
        RowWave {
            rect: Rect::new(height, width),
        }
    }
}

impl DagPattern for RowWave {
    fn height(&self) -> u32 {
        self.rect.height
    }

    fn width(&self) -> u32 {
        self.rect.width
    }

    fn dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        if j > 0 {
            out.push(VertexId::new(i, j - 1));
        }
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        if j + 1 < self.rect.width {
            out.push(VertexId::new(i, j + 1));
        }
    }

    fn indegree(&self, _i: u32, j: u32) -> u32 {
        (j > 0) as u32
    }

    fn stencil(&self) -> Option<&[(i32, i32)]> {
        Some(&[(0, -1)])
    }

    fn name(&self) -> &str {
        "row-wave"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_row_is_a_chain() {
        let p = RowWave::new(2, 4);
        let mut deps = Vec::new();
        p.dependencies(1, 3, &mut deps);
        assert_eq!(deps, vec![VertexId::new(1, 2)]);
        assert_eq!(p.indegree(0, 0), 0);
        assert_eq!(p.indegree(1, 0), 0);
    }

    #[test]
    fn rows_do_not_interact() {
        let p = RowWave::new(3, 3);
        let mut all = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                p.dependencies(i, j, &mut all);
                p.anti_dependencies(i, j, &mut all);
            }
        }
        // Every referenced vertex stays in the same row as its referrer.
        // (Checked indirectly: no dep may change `i`, verified per vertex.)
        let mut buf = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                buf.clear();
                p.dependencies(i, j, &mut buf);
                assert!(buf.iter().all(|d| d.i == i));
            }
        }
    }
}

//! Fig. 5 (f): independent top-to-bottom chains along each column.

use super::Rect;
use crate::{DagPattern, VertexId};

/// Each vertex `(i, j)` depends only on its **top** neighbour `(i-1, j)`.
///
/// The column-wise mirror of [`super::RowWave`]: `width` independent
/// chains. Together the two expose distribution effects cleanly — a
/// row-block distribution makes every `ColWave` edge remote while every
/// `RowWave` edge stays local, and vice versa.
#[derive(Clone, Copy, Debug)]
pub struct ColWave {
    rect: Rect,
}

impl ColWave {
    /// Creates the pattern for a `height × width` matrix.
    pub fn new(height: u32, width: u32) -> Self {
        ColWave {
            rect: Rect::new(height, width),
        }
    }
}

impl DagPattern for ColWave {
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
    }

    fn anti_dependencies(&self, i: u32, j: u32, out: &mut Vec<VertexId>) {
        debug_assert!(self.rect.contains(i, j));
        if i + 1 < self.rect.height {
            out.push(VertexId::new(i + 1, j));
        }
    }

    fn indegree(&self, i: u32, _j: u32) -> u32 {
        (i > 0) as u32
    }

    fn stencil(&self) -> Option<&[(i32, i32)]> {
        Some(&[(-1, 0)])
    }

    fn name(&self) -> &str {
        "col-wave"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_column_is_a_chain() {
        let p = ColWave::new(4, 2);
        let mut deps = Vec::new();
        p.dependencies(3, 1, &mut deps);
        assert_eq!(deps, vec![VertexId::new(2, 1)]);
        assert_eq!(p.indegree(0, 1), 0);
    }

    #[test]
    fn columns_do_not_interact() {
        let p = ColWave::new(3, 3);
        let mut buf = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                buf.clear();
                p.dependencies(i, j, &mut buf);
                p.anti_dependencies(i, j, &mut buf);
                assert!(buf.iter().all(|d| d.j == j));
            }
        }
    }
}

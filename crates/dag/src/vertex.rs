//! Vertex identifiers.

use std::fmt;

/// The unique 2-D coordinate of a DAG vertex (paper §VI-B: "Each vertex in
/// a DAG has a unique 2D coordinate marked as (i, j)").
///
/// `i` is the row, `j` is the column. Both are `u32`, which is enough for
/// the paper's billion-vertex graphs (a 31623×31623 matrix) with room to
/// spare, while keeping the id at 8 bytes so it packs into a `u64` for
/// hashing and wire transfer. The default, `(0, 0)`, fills unused
/// inline slots of fixed-size id arrays.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId {
    /// Row coordinate.
    pub i: u32,
    /// Column coordinate.
    pub j: u32,
}

impl VertexId {
    /// Creates a vertex id from row `i` and column `j`.
    #[inline]
    pub const fn new(i: u32, j: u32) -> Self {
        VertexId { i, j }
    }

    /// Packs the id into a single `u64` (`i` in the high half).
    ///
    /// The packed form is the wire and cache-key representation.
    #[inline]
    pub const fn pack(self) -> u64 {
        ((self.i as u64) << 32) | self.j as u64
    }

    /// Inverse of [`VertexId::pack`].
    #[inline]
    pub const fn unpack(raw: u64) -> Self {
        VertexId {
            i: (raw >> 32) as u32,
            j: raw as u32,
        }
    }

    /// This id moved by `(di, dj)` rows and columns, or `None` if that
    /// leaves the `u32` range (a stencil offset off the matrix edge).
    #[inline]
    pub const fn shifted(self, (di, dj): (i32, i32)) -> Option<Self> {
        match (self.i.checked_add_signed(di), self.j.checked_add_signed(dj)) {
            (Some(i), Some(j)) => Some(VertexId { i, j }),
            _ => None,
        }
    }

    /// The anti-diagonal index `i + j`, the natural wavefront number for
    /// grid-shaped DP recurrences.
    #[inline]
    pub const fn antidiagonal(self) -> u64 {
        self.i as u64 + self.j as u64
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.i, self.j)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.i, self.j)
    }
}

impl From<(u32, u32)> for VertexId {
    fn from((i, j): (u32, u32)) -> Self {
        VertexId::new(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        for &(i, j) in &[(0, 0), (1, 2), (u32::MAX, 0), (0, u32::MAX), (123, 456)] {
            let id = VertexId::new(i, j);
            assert_eq!(VertexId::unpack(id.pack()), id);
        }
    }

    #[test]
    fn pack_orders_row_major() {
        // Packing preserves (i, j) lexicographic order.
        let a = VertexId::new(1, u32::MAX).pack();
        let b = VertexId::new(2, 0).pack();
        assert!(a < b);
    }

    #[test]
    fn antidiagonal_no_overflow() {
        let id = VertexId::new(u32::MAX, u32::MAX);
        assert_eq!(id.antidiagonal(), 2 * (u32::MAX as u64));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(VertexId::new(2, 3).to_string(), "(2, 3)");
    }

    #[test]
    fn from_tuple() {
        let id: VertexId = (4, 5).into();
        assert_eq!(id, VertexId::new(4, 5));
    }
}

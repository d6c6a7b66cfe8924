//! Distributions: how a region's points map onto places.

use std::ops::Range;
use std::sync::Arc;

use dpx10_apgas::PlaceId;

use crate::region::Region2D;

/// The partitioning scheme of a [`Dist`].
#[derive(Clone)]
pub enum DistKind {
    /// Contiguous row blocks, one per place ("divided by the row",
    /// paper Fig. 6).
    BlockRow,
    /// Contiguous column blocks, one per place — the paper's default
    /// ("by default vertices are spliced and distributed along with
    /// column", §VI-B).
    BlockCol,
    /// Rows dealt round-robin across places.
    CyclicRow,
    /// Columns dealt round-robin across places.
    CyclicCol,
    /// Row blocks of the given size dealt round-robin.
    BlockCyclicRow {
        /// Rows per block.
        block: u32,
    },
    /// Column blocks of the given size dealt round-robin.
    BlockCyclicCol {
        /// Columns per block.
        block: u32,
    },
    /// Arbitrary user mapping from `(i, j)` to a *slot* (index into the
    /// distribution's place list) — the §VI-E custom-distribution hook.
    Custom(Arc<dyn Fn(u32, u32) -> usize + Send + Sync>),
}

impl std::fmt::Debug for DistKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistKind::BlockRow => write!(f, "BlockRow"),
            DistKind::BlockCol => write!(f, "BlockCol"),
            DistKind::CyclicRow => write!(f, "CyclicRow"),
            DistKind::CyclicCol => write!(f, "CyclicCol"),
            DistKind::BlockCyclicRow { block } => write!(f, "BlockCyclicRow({block})"),
            DistKind::BlockCyclicCol { block } => write!(f, "BlockCyclicCol({block})"),
            DistKind::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// A distribution of a [`Region2D`] over an ordered list of places.
///
/// Places are addressed through *slots*: slot `s` is `places()[s]`. Using
/// slots (not raw place ids) lets recovery re-target the same scheme onto
/// the surviving places (paper §VI-D: "create a new distributed array
/// among the remaining places").
#[derive(Clone, Debug)]
pub struct Dist {
    region: Region2D,
    kind: DistKind,
    places: Arc<[PlaceId]>,
}

impl Dist {
    /// Distributes `region` over `places` with the given `kind`.
    pub fn new(region: Region2D, kind: DistKind, places: Vec<PlaceId>) -> Self {
        assert!(
            !places.is_empty(),
            "a distribution needs at least one place"
        );
        if let DistKind::BlockCyclicRow { block } | DistKind::BlockCyclicCol { block } = kind {
            assert!(block > 0, "block size must be positive");
        }
        Dist {
            region,
            kind,
            places: places.into(),
        }
    }

    /// The paper-default distribution: block by column over `places`.
    pub fn default_block_col(region: Region2D, places: Vec<PlaceId>) -> Self {
        Dist::new(region, DistKind::BlockCol, places)
    }

    /// The distributed region.
    pub fn region(&self) -> Region2D {
        self.region
    }

    /// The partitioning scheme.
    pub fn kind(&self) -> &DistKind {
        &self.kind
    }

    /// The ordered target places.
    pub fn places(&self) -> &[PlaceId] {
        &self.places
    }

    /// Number of slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.places.len()
    }

    /// Start of the `s`-th balanced block when dividing `total` items
    /// into `n` blocks (first `total % n` blocks get one extra item).
    #[inline]
    fn block_start(total: u32, n: u32, s: u32) -> u32 {
        let base = total / n;
        let rem = total % n;
        s * base + s.min(rem)
    }

    /// The block index owning `x` under balanced blocking.
    #[inline]
    fn block_of(total: u32, n: u32, x: u32) -> u32 {
        let base = total / n;
        let rem = total % n;
        let split = rem * (base + 1); // items before this point sit in big blocks
        if base == 0 {
            // More places than items: item x sits in block x.
            return x;
        }
        if x < split {
            x / (base + 1)
        } else {
            rem + (x - split) / base
        }
    }

    /// The slot owning `(i, j)`.
    #[inline]
    pub fn slot_of(&self, i: u32, j: u32) -> usize {
        debug_assert!(self.region.contains(i, j));
        let n = self.num_slots() as u32;
        (match &self.kind {
            DistKind::BlockRow => Self::block_of(self.region.height, n, i),
            DistKind::BlockCol => Self::block_of(self.region.width, n, j),
            DistKind::CyclicRow => i % n,
            DistKind::CyclicCol => j % n,
            DistKind::BlockCyclicRow { block } => (i / block) % n,
            DistKind::BlockCyclicCol { block } => (j / block) % n,
            DistKind::Custom(f) => {
                let s = f(i, j) as u32;
                assert!(s < n, "custom distribution returned slot {s} of {n}");
                s
            }
        }) as usize
    }

    /// The place owning `(i, j)`.
    #[inline]
    pub fn place_of(&self, i: u32, j: u32) -> PlaceId {
        self.places[self.slot_of(i, j)]
    }

    /// Offset of `(i, j)` inside its owner's chunk.
    ///
    /// Offsets are dense per slot: `0..chunk_len(slot)`. For the block
    /// kinds this is a closed form; cyclic and custom kinds use a rank
    /// computation over the owning slot's points.
    #[inline]
    pub fn local_index(&self, i: u32, j: u32) -> usize {
        debug_assert!(self.region.contains(i, j));
        let n = self.num_slots() as u32;
        let w = self.region.width as usize;
        match &self.kind {
            DistKind::BlockRow => {
                let s = Self::block_of(self.region.height, n, i);
                let r0 = Self::block_start(self.region.height, n, s);
                (i - r0) as usize * w + j as usize
            }
            DistKind::BlockCol => {
                let s = Self::block_of(self.region.width, n, j);
                let c0 = Self::block_start(self.region.width, n, s);
                let local_w = Self::block_start(self.region.width, n, s + 1) - c0;
                i as usize * local_w as usize + (j - c0) as usize
            }
            DistKind::CyclicRow => {
                let local_row = (i / n) as usize;
                local_row * w + j as usize
            }
            DistKind::CyclicCol => {
                let s = j % n;
                let local_w = (self.region.width - s).div_ceil(n) as usize;
                i as usize * local_w + (j / n) as usize
            }
            DistKind::BlockCyclicRow { block } => {
                let local_row = ((i / (block * n)) * block + i % block) as usize;
                local_row * w + j as usize
            }
            DistKind::BlockCyclicCol { block } => {
                // Rank of column j within the owning slot's column set.
                let s = (j / block) % n;
                let full_rounds = j / (block * n);
                let local_col = (full_rounds * block + j % block) as usize;
                let local_w = self.local_width_block_cyclic(*block, s) as usize;
                i as usize * local_w + local_col
            }
            DistKind::Custom(f) => {
                // Rank of (i, j) among same-slot points in row-major order.
                // O(len) — custom distributions trade speed for flexibility;
                // engines precompute mappings when they matter.
                let slot = f(i, j);
                let mut rank = 0usize;
                for ii in 0..self.region.height {
                    for jj in 0..self.region.width {
                        if ii == i && jj == j {
                            return rank;
                        }
                        if f(ii, jj) == slot {
                            rank += 1;
                        }
                    }
                }
                unreachable!("({i},{j}) inside region");
            }
        }
    }

    /// Columns owned by slot `s` under block-cyclic-by-column.
    fn local_width_block_cyclic(&self, block: u32, s: u32) -> u32 {
        let n = self.num_slots() as u32;
        let w = self.region.width;
        let per_round = block * n;
        let full = (w / per_round) * block;
        let tail = w % per_round;
        let tail_cols = tail.saturating_sub(s * block).min(block);
        full + tail_cols
    }

    /// Number of points owned by slot `s`.
    pub fn chunk_len(&self, s: usize) -> usize {
        let n = self.num_slots() as u32;
        let s32 = s as u32;
        let h = self.region.height;
        let w = self.region.width;
        match &self.kind {
            DistKind::BlockRow => {
                let rows = Self::block_start(h, n, s32 + 1) - Self::block_start(h, n, s32);
                rows as usize * w as usize
            }
            DistKind::BlockCol => {
                let cols = Self::block_start(w, n, s32 + 1) - Self::block_start(w, n, s32);
                cols as usize * h as usize
            }
            DistKind::CyclicRow => {
                let rows = (h - s32.min(h)).div_ceil(n);
                rows as usize * w as usize
            }
            DistKind::CyclicCol => {
                let cols = if s32 < w { (w - s32).div_ceil(n) } else { 0 };
                cols as usize * h as usize
            }
            DistKind::BlockCyclicRow { block } => {
                let per_round = block * n;
                let full = (h / per_round) * block;
                let tail = h % per_round;
                let rows = full + tail.saturating_sub(s32 * block).min(*block);
                rows as usize * w as usize
            }
            DistKind::BlockCyclicCol { block } => {
                self.local_width_block_cyclic(*block, s32) as usize * h as usize
            }
            DistKind::Custom(f) => {
                let mut count = 0;
                for (i, j) in self.region.points() {
                    if f(i, j) == s {
                        count += 1;
                    }
                }
                count
            }
        }
    }

    /// The rectangle `(rows, cols)` slot `s` owns under a block kind
    /// (`BlockRow`, `BlockCol`); `None` for every other kind. Its chunk
    /// is that rectangle in row-major order: `(i, j)` sits at local
    /// index `(i - rows.start) * cols.len() + (j - cols.start)`.
    pub fn block_bounds(&self, s: usize) -> Option<(Range<u32>, Range<u32>)> {
        let n = self.num_slots() as u32;
        let s = s as u32;
        let block = |total| Self::block_start(total, n, s)..Self::block_start(total, n, s + 1);
        match &self.kind {
            DistKind::BlockRow => Some((block(self.region.height), 0..self.region.width)),
            DistKind::BlockCol => Some((0..self.region.height, block(self.region.width))),
            _ => None,
        }
    }

    /// Iterates the global points owned by slot `s`, in local-index order.
    pub fn iter_slot(&self, s: usize) -> Box<dyn Iterator<Item = (u32, u32)> + '_> {
        // Every kind numbers a slot's points row by row, so the region's
        // row-major points filtered to the slot are already in local-index
        // order. Block kinds skip the filter.
        match self.block_bounds(s) {
            Some((rows, cols)) => {
                Box::new(rows.flat_map(move |i| cols.clone().map(move |j| (i, j))))
            }
            None => Box::new(
                self.region
                    .points()
                    .filter(move |&(i, j)| self.slot_of(i, j) == s),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn places(n: u16) -> Vec<PlaceId> {
        (0..n).map(PlaceId).collect()
    }

    /// Exhaustive consistency check: local indices are a dense bijection
    /// per slot, chunk_len matches, iter_slot enumerates in order.
    fn check_dist(d: &Dist) {
        let n = d.num_slots();
        let mut seen: Vec<Vec<bool>> = (0..n).map(|s| vec![false; d.chunk_len(s)]).collect();
        for (i, j) in d.region().points() {
            let s = d.slot_of(i, j);
            assert_eq!(d.place_of(i, j), d.places()[s]);
            let li = d.local_index(i, j);
            assert!(
                li < seen[s].len(),
                "local index {li} out of range for slot {s} ({} points) at ({i},{j}) [{:?}]",
                seen[s].len(),
                d.kind()
            );
            assert!(!seen[s][li], "duplicate local index {li} in slot {s}");
            seen[s][li] = true;
        }
        for (s, slots) in seen.iter().enumerate() {
            assert!(
                slots.iter().all(|&b| b),
                "slot {s} has holes under {:?}",
                d.kind()
            );
            let pts: Vec<_> = d.iter_slot(s).collect();
            assert_eq!(pts.len(), d.chunk_len(s));
            for (rank, (i, j)) in pts.iter().enumerate() {
                assert_eq!(d.local_index(*i, *j), rank, "iter_slot order for slot {s}");
                assert_eq!(d.slot_of(*i, *j), s);
            }
        }
    }

    #[test]
    fn block_row_and_col_bijective() {
        for &(h, w, p) in &[
            (7u32, 5u32, 3u16),
            (5, 7, 3),
            (4, 4, 4),
            (3, 10, 4),
            (2, 3, 5),
        ] {
            let r = Region2D::new(h, w);
            check_dist(&Dist::new(r, DistKind::BlockRow, places(p)));
            check_dist(&Dist::new(r, DistKind::BlockCol, places(p)));
        }
    }

    #[test]
    fn cyclic_bijective() {
        for &(h, w, p) in &[(7u32, 5u32, 3u16), (5, 7, 2), (4, 9, 4), (9, 4, 4)] {
            let r = Region2D::new(h, w);
            check_dist(&Dist::new(r, DistKind::CyclicRow, places(p)));
            check_dist(&Dist::new(r, DistKind::CyclicCol, places(p)));
        }
    }

    #[test]
    fn block_cyclic_bijective() {
        for &(h, w, p, b) in &[
            (8u32, 6u32, 2u16, 2u32),
            (9, 9, 3, 2),
            (10, 7, 2, 3),
            (5, 11, 3, 4),
        ] {
            let r = Region2D::new(h, w);
            check_dist(&Dist::new(
                r,
                DistKind::BlockCyclicRow { block: b },
                places(p),
            ));
            check_dist(&Dist::new(
                r,
                DistKind::BlockCyclicCol { block: b },
                places(p),
            ));
        }
    }

    #[test]
    fn custom_bijective() {
        let r = Region2D::new(6, 6);
        let d = Dist::new(
            r,
            DistKind::Custom(Arc::new(|i, j| ((i / 3) * 2 + j / 3) as usize)),
            places(4),
        );
        check_dist(&d);
        // A map that interleaves the slots within every row and column.
        let checkerboard = DistKind::Custom(Arc::new(|i, j| ((i + j) % 2) as usize));
        check_dist(&Dist::new(Region2D::new(40, 40), checkerboard, places(2)));
    }

    #[test]
    fn block_row_matches_paper_fig6() {
        // Fig. 6 (a): 3 rows × 4 cols over 3 places, divided by row —
        // row r goes to place r.
        let d = Dist::new(Region2D::new(3, 4), DistKind::BlockRow, places(3));
        for j in 0..4 {
            assert_eq!(d.place_of(0, j), PlaceId(0));
            assert_eq!(d.place_of(1, j), PlaceId(1));
            assert_eq!(d.place_of(2, j), PlaceId(2));
        }
    }

    #[test]
    fn default_is_block_col() {
        let d = Dist::default_block_col(Region2D::new(4, 8), places(2));
        assert_eq!(d.place_of(3, 0), PlaceId(0));
        assert_eq!(d.place_of(0, 7), PlaceId(1));
    }

    #[test]
    fn more_places_than_rows() {
        let d = Dist::new(Region2D::new(2, 3), DistKind::BlockRow, places(5));
        check_dist(&d);
        // Slots beyond the rows are empty.
        assert_eq!(d.chunk_len(4), 0);
    }

    #[test]
    fn block_bounds_are_the_chunk_in_row_major_order() {
        let cases = [
            (Region2D::new(4, 7), DistKind::BlockCol, 3),
            (Region2D::new(2, 3), DistKind::BlockRow, 5),
            (Region2D::new(5, 2), DistKind::BlockRow, 3),
            (Region2D::new(3, 2), DistKind::BlockCol, 4),
        ];
        for (region, kind, n) in cases {
            let d = Dist::new(region, kind.clone(), places(n));
            for s in 0..d.num_slots() {
                let (rows, cols) = d.block_bounds(s).expect("a block kind");
                let what = format!("{kind:?} {region:?} slot {s}: {rows:?} x {cols:?}");
                assert_eq!(rows.len() * cols.len(), d.chunk_len(s), "{what}");
                let points: Vec<_> = d.iter_slot(s).collect();
                if points.is_empty() {
                    continue;
                }
                assert_eq!(points[0], (rows.start, cols.start), "{what}");
                assert_eq!(
                    points[points.len() - 1],
                    (rows.end - 1, cols.end - 1),
                    "{what}"
                );
                for (li, &(i, j)) in points.iter().enumerate() {
                    let at = (i - rows.start) as usize * cols.len() + (j - cols.start) as usize;
                    assert_eq!(at, li, "{what}");
                    assert_eq!(d.local_index(i, j), li, "{what}");
                }
            }
        }
        // Uneven splits: the first `total % n` blocks take one more.
        let d = Dist::new(Region2D::new(4, 7), DistKind::BlockCol, places(3));
        let cols: Vec<_> = (0..3).map(|s| d.block_bounds(s).unwrap().1).collect();
        assert_eq!(cols, vec![0..3, 3..5, 5..7]);
        let d = Dist::new(Region2D::new(2, 3), DistKind::BlockRow, places(5));
        let rows: Vec<_> = (0..5).map(|s| d.block_bounds(s).unwrap().0).collect();
        assert_eq!(rows, vec![0..1, 1..2, 2..2, 2..2, 2..2]);
        for kind in [DistKind::CyclicCol, DistKind::BlockCyclicRow { block: 2 }] {
            let d = Dist::new(Region2D::new(4, 4), kind, places(2));
            assert_eq!(d.block_bounds(0), None);
        }
    }

    #[test]
    fn retarget_onto_surviving_places() {
        // The recovery path builds the same scheme over fewer places.
        let r = Region2D::new(6, 6);
        let before = Dist::new(r, DistKind::BlockRow, places(3));
        let after = Dist::new(r, DistKind::BlockRow, vec![PlaceId(0), PlaceId(2)]);
        check_dist(&after);
        assert_eq!(before.num_slots(), 3);
        assert_eq!(after.num_slots(), 2);
        assert_eq!(after.place_of(5, 0), PlaceId(2));
    }
}

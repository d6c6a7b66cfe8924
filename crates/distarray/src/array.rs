//! The distributed array proper.

use std::sync::Arc;

use dpx10_apgas::PlaceId;

use crate::dist::Dist;

/// A 2-D array of `T` partitioned over places by a [`Dist`].
///
/// Each slot's points live in a dense *chunk*; alongside every value the
/// array keeps the per-vertex *finished* flag the paper's recovery method
/// relies on ("a finish flag is kept for each vertex to identify its
/// status and to help recover the result after a failure happens",
/// §VI-B).
///
/// Places are threads in this reproduction, so all chunks live in one
/// address space — but the API only exposes placement-respecting access,
/// and the engines route every cross-place read through mailboxes so that
/// communication stays observable and priceable.
#[derive(Clone, Debug)]
pub struct DistArray<T> {
    dist: Arc<Dist>,
    chunks: Vec<Chunk<T>>,
}

/// One slot's storage.
#[derive(Clone, Debug)]
pub(crate) struct Chunk<T> {
    pub(crate) values: Vec<T>,
    pub(crate) finished: Vec<bool>,
}

impl<T: Default + Clone> DistArray<T> {
    /// Allocates the array with default values, all unfinished (the
    /// paper's initial stage 1: "distributes and initializes all vertices
    /// of the input DAG across available places").
    pub fn new(dist: Arc<Dist>) -> Self {
        let chunks = (0..dist.num_slots())
            .map(|s| {
                let len = dist.chunk_len(s);
                Chunk {
                    values: vec![T::default(); len],
                    finished: vec![false; len],
                }
            })
            .collect();
        DistArray { dist, chunks }
    }
}

impl<T> DistArray<T> {
    /// The array whose slot `s` holds `chunks[s]`: its values and finished
    /// flags, in the slot's local order. Takes the vectors over without
    /// copying a value, but sheds any spare capacity: a vector collected
    /// in place from larger elements keeps their allocation.
    pub fn from_chunks(dist: Arc<Dist>, chunks: Vec<(Vec<T>, Vec<bool>)>) -> Self {
        assert_eq!(chunks.len(), dist.num_slots(), "one chunk per slot");
        let chunks = chunks
            .into_iter()
            .enumerate()
            .map(|(s, (mut values, mut finished))| {
                let len = dist.chunk_len(s);
                assert!(
                    values.len() == len && finished.len() == len,
                    "chunk {s} size"
                );
                values.shrink_to_fit();
                finished.shrink_to_fit();
                Chunk { values, finished }
            })
            .collect();
        DistArray { dist, chunks }
    }

    /// The distribution.
    pub fn dist(&self) -> &Arc<Dist> {
        &self.dist
    }

    /// The place owning `(i, j)`.
    pub fn place_of(&self, i: u32, j: u32) -> PlaceId {
        self.dist.place_of(i, j)
    }

    /// Reads the value at `(i, j)` together with its finished flag.
    pub fn get(&self, i: u32, j: u32) -> (&T, bool) {
        let s = self.dist.slot_of(i, j);
        let li = self.dist.local_index(i, j);
        let chunk = &self.chunks[s];
        (&chunk.values[li], chunk.finished[li])
    }

    /// The value at `(i, j)` if it has been marked finished.
    pub fn get_finished(&self, i: u32, j: u32) -> Option<&T> {
        let (v, done) = self.get(i, j);
        done.then_some(v)
    }

    /// Writes `(i, j)` and marks it finished.
    pub fn set(&mut self, i: u32, j: u32, value: T) {
        let s = self.dist.slot_of(i, j);
        let li = self.dist.local_index(i, j);
        let chunk = &mut self.chunks[s];
        chunk.values[li] = value;
        chunk.finished[li] = true;
    }

    /// Clears the finished flag of `(i, j)` (recovery: "All unfinished
    /// vertices in the new array will be initialized").
    pub fn reset(&mut self, i: u32, j: u32)
    where
        T: Default,
    {
        let s = self.dist.slot_of(i, j);
        let li = self.dist.local_index(i, j);
        let chunk = &mut self.chunks[s];
        chunk.values[li] = T::default();
        chunk.finished[li] = false;
    }

    /// Number of finished points.
    pub fn finished_count(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| c.finished.iter().filter(|&&b| b).count() as u64)
            .sum()
    }

    /// Total number of points.
    pub fn len(&self) -> u64 {
        self.dist.region().len()
    }

    /// Whether the array has zero points (never true: regions are
    /// non-empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates `(i, j, value, finished)` over one slot, local order.
    pub fn iter_slot(&self, s: usize) -> impl Iterator<Item = (u32, u32, &T, bool)> + '_ {
        let chunk = &self.chunks[s];
        self.dist
            .iter_slot(s)
            .enumerate()
            .map(move |(li, (i, j))| (i, j, &chunk.values[li], chunk.finished[li]))
    }

    /// Direct chunk access for the recovery machinery.
    pub(crate) fn chunk(&self, s: usize) -> &Chunk<T> {
        &self.chunks[s]
    }

    /// Materialises the whole array as a dense row-major matrix of
    /// `(value, finished)` — a small-scale debugging/verification helper.
    pub fn to_dense(&self) -> Vec<Vec<(T, bool)>>
    where
        T: Clone,
    {
        let r = self.dist.region();
        let mut out =
            vec![vec![(self.get(0, 0).0.clone(), false); r.width as usize]; r.height as usize];
        for (i, j) in r.points() {
            let (v, done) = self.get(i, j);
            out[i as usize][j as usize] = (v.clone(), done);
        }
        out
    }

    /// Drops the data of `slot`, as a place failure would.
    ///
    /// The values are replaced by defaults and all finished flags cleared;
    /// used by fault-injection tests and the recovery path to model the
    /// loss of a dead place's memory.
    pub fn poison_slot(&mut self, s: usize)
    where
        T: Default,
    {
        let chunk = &mut self.chunks[s];
        for v in &mut chunk.values {
            *v = T::default();
        }
        for f in &mut chunk.finished {
            *f = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::dist::DistKind;
    use crate::region::Region2D;

    fn array(h: u32, w: u32, places: u16) -> DistArray<i64> {
        let dist = Dist::new(
            Region2D::new(h, w),
            DistKind::BlockCol,
            (0..places).map(PlaceId).collect(),
        );
        DistArray::new(Arc::new(dist))
    }

    #[test]
    fn starts_unfinished_and_default() {
        let a = array(3, 4, 2);
        assert_eq!(a.finished_count(), 0);
        assert_eq!(a.get(2, 3), (&0, false));
        assert_eq!(a.get_finished(2, 3), None);
    }

    #[test]
    fn set_then_get() {
        let mut a = array(3, 4, 2);
        a.set(1, 2, 42);
        assert_eq!(a.get(1, 2), (&42, true));
        assert_eq!(a.get_finished(1, 2), Some(&42));
        assert_eq!(a.finished_count(), 1);
    }

    #[test]
    fn reset_clears() {
        let mut a = array(2, 2, 1);
        a.set(0, 0, 7);
        a.reset(0, 0);
        assert_eq!(a.get(0, 0), (&0, false));
        assert_eq!(a.finished_count(), 0);
    }

    #[test]
    fn values_land_in_owner_slot() {
        let mut a = array(2, 4, 2);
        a.set(0, 3, 9); // column 3 -> slot 1
        let slot1: Vec<_> = a
            .iter_slot(1)
            .filter(|&(_, _, _, done)| done)
            .map(|(i, j, &v, _)| (i, j, v))
            .collect();
        assert_eq!(slot1, vec![(0, 3, 9)]);
        assert!(a.iter_slot(0).all(|(_, _, _, done)| !done));
    }

    #[test]
    fn to_dense_matches_get() {
        let mut a = array(2, 3, 2);
        a.set(1, 2, 7);
        let dense = a.to_dense();
        assert_eq!(dense[1][2], (7, true));
        assert_eq!(dense[0][0], (0, false));
        assert_eq!(dense.len(), 2);
        assert_eq!(dense[0].len(), 3);
    }

    #[test]
    fn from_chunks_takes_slots_in_order_without_spare_capacity() {
        let dist = Arc::new(Dist::new(
            Region2D::new(2, 4),
            DistKind::BlockCol,
            vec![PlaceId(0), PlaceId(1)],
        ));
        // Collected in place from 8-byte cells: the 4-byte values inherit
        // twice the capacity they need unless the constructor sheds it.
        let chunks = (0..2u32)
            .map(|s| {
                let cells: Vec<OnceLock<u32>> = (0..4).map(|_| OnceLock::new()).collect();
                cells[1].set(10 + s).unwrap();
                let values: Vec<u32> = cells
                    .into_iter()
                    .map(|c| c.into_inner().unwrap_or_default())
                    .collect();
                (values, vec![false, true, false, false])
            })
            .collect();
        let a = DistArray::from_chunks(dist.clone(), chunks);
        assert_eq!(a.finished_count(), 2);
        for s in 0..2 {
            let chunk = a.chunk(s);
            assert_eq!(chunk.values.capacity(), chunk.values.len());
            let done: Vec<_> = a.iter_slot(s).filter(|c| c.3).map(|c| *c.2).collect();
            assert_eq!(done, vec![10 + s as u32]);
        }
    }

    #[test]
    fn poison_slot_loses_data() {
        let mut a = array(2, 4, 2);
        a.set(0, 0, 1);
        a.set(0, 3, 2);
        a.poison_slot(1);
        assert_eq!(a.get_finished(0, 0), Some(&1));
        assert_eq!(a.get_finished(0, 3), None);
    }
}

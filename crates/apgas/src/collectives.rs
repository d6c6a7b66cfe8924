//! The wire-level collective communication plane.
//!
//! Global phases of a distributed run — releasing every place from an
//! epoch, folding per-place progress into one decision, distributing
//! restored chunks after a recovery — fan out O(P) point-to-point frames
//! from place 0 when done naively. This module gives those phases a
//! *tree*: a [`CollectiveSchedule`] derives binomial parent/child edges
//! from the live roster view (rank order), with the repair rules that
//! route around dead places by adopting their subtrees.
//!
//! The socket driver in `dpx10-core` carries the schedule on its own
//! control frames: `Stop`/`Abort` broadcast hops, a folded progress
//! reduce (the epoch barrier, [`fold_counts`]), and the `Resume` scatter
//! that distributes restored chunks by subtree. (Places sharing a
//! process have no wire, so a tree there would only add hops.)
//!
//! The binomial shape is the classic one: relative to the root, rank `r`
//! parents to `r` with its highest set bit cleared, and its children are
//! `r + 2^k` for every `2^k` past `r`'s highest bit. Depth is
//! `⌈log2 P⌉`, and every rank is reached exactly once (property-tested
//! in `tests/collective_properties.rs`, including arbitrary dead-place
//! subsets).

use std::collections::HashMap;

/// Binomial-tree parent/child edges over `n` ranks, rooted anywhere.
///
/// Ranks are indices into the caller's live-roster view (slot order), so
/// a schedule built from the survivors of an epoch automatically excludes
/// places that died *before* the epoch; places that die *during* a
/// collective are handled by the repair rules below (dead children are
/// skipped and their subtrees adopted by the sender).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveSchedule {
    n: usize,
    root: usize,
}

impl CollectiveSchedule {
    /// Builds the schedule for `n` ranks rooted at `root`.
    ///
    /// # Panics
    /// When `n == 0` or `root >= n`.
    pub fn new(n: usize, root: usize) -> Self {
        assert!(n > 0, "a schedule needs at least one rank");
        assert!(root < n, "root {root} out of range for {n} ranks");
        CollectiveSchedule { n, root }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.n
    }

    /// The root rank.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Rank rotated so the root becomes 0.
    #[inline]
    fn rel(&self, rank: usize) -> usize {
        (rank + self.n - self.root) % self.n
    }

    /// Inverse of [`rel`](Self::rel).
    #[inline]
    fn abs(&self, rel: usize) -> usize {
        (rel + self.root) % self.n
    }

    /// The parent edge of `rank`; `None` for the root.
    pub fn parent(&self, rank: usize) -> Option<usize> {
        let r = self.rel(rank);
        if r == 0 {
            return None;
        }
        let msb = usize::BITS - 1 - r.leading_zeros();
        Some(self.abs(r ^ (1 << msb)))
    }

    /// The child edges of `rank`, in ascending relative order.
    pub fn children(&self, rank: usize) -> Vec<usize> {
        let r = self.rel(rank);
        let mut out = Vec::new();
        // The smallest power of two strictly above r (1 when r == 0).
        let mut k = 1usize;
        while k <= r {
            k <<= 1;
        }
        while r + k < self.n {
            out.push(self.abs(r + k));
            k <<= 1;
        }
        out
    }

    /// Tree depth bound: `⌈log2 n⌉`.
    pub fn depth(&self) -> u32 {
        usize::BITS - (self.n - 1).leading_zeros()
    }

    /// `rank` plus all its descendants (the ranks a scatter hop to
    /// `rank` must carry payloads for).
    pub fn subtree(&self, rank: usize) -> Vec<usize> {
        let mut out = vec![rank];
        let mut k = 0;
        while k < out.len() {
            let r = out[k];
            out.extend(self.children(r));
            k += 1;
        }
        out
    }

    /// The ranks a broadcast hop from `rank` must send to when the ranks
    /// for which `is_dead` holds cannot receive: dead children are
    /// skipped and their own children adopted, recursively — the tree
    /// repair that lets a collective complete mid-recovery.
    pub fn relay_targets(&self, rank: usize, is_dead: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut out = Vec::new();
        let mut work = self.children(rank);
        while let Some(c) = work.pop() {
            if is_dead(c) {
                work.extend(self.children(c));
            } else {
                out.push(c);
            }
        }
        out.sort_unstable();
        out
    }

    /// The nearest live ancestor of `rank` — where a reduce contribution
    /// goes when the direct parent died. Falls back to the root (whose
    /// death ends the run anyway, mirroring Resilient X10's place-0
    /// limitation). `None` for the root itself.
    pub fn live_parent(&self, rank: usize, is_dead: impl Fn(usize) -> bool) -> Option<usize> {
        let mut p = self.parent(rank)?;
        while p != self.root && is_dead(p) {
            p = self.parent(p).unwrap_or(self.root);
        }
        Some(p)
    }
}

/// Max-merges monotone per-place counters — the fold of the progress
/// reduce. Commutative, associative and idempotent, so the folded result
/// is independent of arrival order and tolerant of re-sent frames.
pub fn fold_counts(into: &mut HashMap<u16, u64>, counts: &[(u16, u64)]) {
    for &(p, n) in counts {
        let e = into.entry(p).or_insert(0);
        *e = (*e).max(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_shape_of_six() {
        let s = CollectiveSchedule::new(6, 0);
        assert_eq!(s.children(0), vec![1, 2, 4]);
        assert_eq!(s.children(1), vec![3, 5]);
        assert_eq!(s.children(2), Vec::<usize>::new());
        assert_eq!(s.parent(0), None);
        assert_eq!(s.parent(5), Some(1));
        assert_eq!(s.parent(4), Some(0));
        assert_eq!(s.depth(), 3);
        let mut sub = s.subtree(1);
        sub.sort_unstable();
        assert_eq!(sub, vec![1, 3, 5]);
    }

    #[test]
    fn rotation_moves_the_root() {
        let s = CollectiveSchedule::new(4, 2);
        assert_eq!(s.parent(2), None);
        // Relative ranks: 2→0, 3→1, 0→2, 1→3.
        assert_eq!(s.children(2), vec![3, 0]);
        assert_eq!(s.children(3), vec![1]);
        assert_eq!(s.parent(1), Some(3));
    }

    #[test]
    fn repair_adopts_dead_subtrees() {
        let s = CollectiveSchedule::new(8, 0);
        // With children 2 and 4 of the root dead, the root's hop list
        // must swap them for their own children.
        let dead = |r: usize| r == 2 || r == 4;
        let targets = s.relay_targets(0, dead);
        let mut expect = s.children(2);
        expect.extend(s.children(4));
        expect.push(1);
        expect.sort_unstable();
        assert_eq!(targets, expect);
        // A dead parent re-routes contributions to the live ancestor.
        assert_eq!(s.live_parent(6, dead), Some(0));
        assert_eq!(s.live_parent(0, dead), None);
    }

    #[test]
    fn fold_counts_is_idempotent_max_merge() {
        let mut m = HashMap::new();
        fold_counts(&mut m, &[(0, 5), (1, 7)]);
        fold_counts(&mut m, &[(0, 3), (1, 9), (2, 1)]);
        fold_counts(&mut m, &[(1, 9)]);
        assert_eq!(m[&0], 5);
        assert_eq!(m[&1], 9);
        assert_eq!(m[&2], 1);
    }
}

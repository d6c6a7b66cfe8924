//! Property tests of the prefix-aggregation lanes: a lane read
//! mid-wavefront — after an arbitrary permuted, duplicated subset of
//! deliveries — must equal a recompute-from-scratch fold over the same
//! prefix, for every reduction.

use dpx10_dag::{AggSpec, Axis, DepInterval, Reduction, VertexId};
use dpx10_distarray::{AggTable, PrefixLane};
use proptest::prelude::*;

const REDUCTIONS: [Reduction; 3] = [Reduction::Min, Reduction::Max, Reduction::Sum];

/// The ground truth: fold `keys[0..hi]` left-to-right from the identity.
fn scratch_fold(red: Reduction, keys: &[i64], hi: usize) -> i64 {
    keys[..hi]
        .iter()
        .fold(red.identity(), |a, &k| red.fold(a, k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Deliver an arbitrary prefix of the keys in an arbitrary order,
    /// with arbitrary duplicate re-deliveries injected; every answerable
    /// prefix query equals the scratch fold, and queries past the
    /// frontier stay unanswerable rather than wrong.
    #[test]
    fn lane_mid_wavefront_equals_scratch_fold(
        keys in proptest::collection::vec(-1000i64..1000, 1..40),
        order_seed in 0u64..u64::MAX,
        delivered in 0usize..40,
        red_idx in 0usize..3,
        dup_every in 1usize..5,
    ) {
        let red = REDUCTIONS[red_idx];
        let n = keys.len();
        let delivered = delivered.min(n);
        // A seeded permutation of the delivery order.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = order_seed;
        for k in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(k, (s % (k as u64 + 1)) as usize);
        }
        let mut lane = PrefixLane::new(red);
        for (step, &idx) in order[..delivered].iter().enumerate() {
            lane.receive(idx as u32, keys[idx]);
            if step % dup_every == 0 {
                // Re-delivery with a *corrupted* key must be ignored.
                lane.receive(idx as u32, keys[idx] ^ 0x55);
            }
        }
        let frontier = lane.frontier() as usize;
        // The frontier is exactly the longest delivered prefix.
        let expect_frontier = (0..n)
            .take_while(|i| order[..delivered].contains(i))
            .count();
        prop_assert_eq!(frontier, expect_frontier);
        for hi in 0..=n {
            match lane.prefix(hi as u32) {
                Some(got) => {
                    prop_assert!(hi <= frontier);
                    prop_assert_eq!(got, scratch_fold(red, &keys, hi), "hi={}", hi);
                }
                None => prop_assert!(hi > frontier),
            }
        }
        // `missing` names exactly the never-delivered indices below n.
        let mut miss = Vec::new();
        lane.missing(n as u32, &mut miss);
        for idx in &miss {
            prop_assert!(!order[..delivered].contains(&(*idx as usize)));
        }
        // Delivering everything missing completes the lane.
        for idx in miss {
            lane.receive(idx, keys[idx as usize]);
        }
        prop_assert_eq!(lane.prefix(n as u32), Some(scratch_fold(red, &keys, n)));
    }

    /// Table-level invariant over a 2-D grid: fold cells in an arbitrary
    /// wavefront-ish order, then every answerable row/column interval
    /// equals the scratch fold over that axis prefix — with per-axis
    /// keys, as GAP uses.
    #[test]
    fn table_intervals_equal_scratch_folds(
        h in 1u32..8,
        w in 1u32..8,
        order_seed in 0u64..u64::MAX,
        fraction in 0u32..=100,
    ) {
        let spec = AggSpec::both(Reduction::Min);
        let mut table = AggTable::new(h, w, spec);
        let row_key = |i: u32, j: u32| i64::from(i * 31 + j * 7) - 20;
        let col_key = |i: u32, j: u32| i64::from(i * 13 + j * 3) - 10;
        let mut cells: Vec<(u32, u32)> =
            (0..h).flat_map(|i| (0..w).map(move |j| (i, j))).collect();
        let mut s = order_seed;
        for k in (1..cells.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cells.swap(k, (s % (k as u64 + 1)) as usize);
        }
        let cut = (cells.len() * fraction as usize) / 100;
        let delivered = &cells[..cut];
        for &(i, j) in delivered {
            table.record(VertexId::new(i, j), |axis| match axis {
                Axis::Row => row_key(i, j),
                Axis::Col => col_key(i, j),
            });
        }
        for i in 0..h {
            for hi in 0..=w {
                let iv = DepInterval::Row { i, lo: 0, hi };
                if let Some(got) = table.interval_prefix(iv) {
                    let want = (0..hi)
                        .map(|j| row_key(i, j))
                        .fold(Reduction::Min.identity(), |a, k| a.min(k));
                    prop_assert_eq!(got, want);
                    // Answerable implies every member was delivered.
                    for j in 0..hi {
                        prop_assert!(delivered.contains(&(i, j)));
                    }
                }
            }
        }
        for j in 0..w {
            for hi in 0..=h {
                let iv = DepInterval::Col { j, lo: 0, hi };
                if let Some(got) = table.interval_prefix(iv) {
                    let want = (0..hi)
                        .map(|i| col_key(i, j))
                        .fold(Reduction::Min.identity(), |a, k| a.min(k));
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}

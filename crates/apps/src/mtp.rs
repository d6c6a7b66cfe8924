//! The Manhattan Tourists Problem (paper §VIII).
//!
//! `D(i,j) = max(D(i-1,j) + w(i-1,j,i,j), D(i,j-1) + w(i,j-1,i,j))` over
//! a grid of edge weights — the pure two-parent pattern of Fig. 5 (a).
//! Edge weights are generated on the fly from a seeded coordinate hash,
//! so a billion-vertex instance needs no stored weight matrix and every
//! run (and the serial oracle) sees identical weights.

use dpx10_core::{DepView, DpApp};
use dpx10_dag::{builtin::Grid2, VertexId};

/// Deterministic per-edge weight in `0..64`.
#[inline]
pub fn edge_weight(seed: u64, from_i: u32, from_j: u32, to_i: u32, to_j: u32) -> i64 {
    let mut x = seed
        ^ ((from_i as u64) << 48)
        ^ ((from_j as u64) << 32)
        ^ ((to_i as u64) << 16)
        ^ to_j as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x ^ (x >> 31)) % 64) as i64
}

/// The MTP application over an `h × w` street grid.
#[derive(Clone, Debug)]
pub struct MtpApp {
    /// Grid height.
    pub height: u32,
    /// Grid width.
    pub width: u32,
    /// Weight-stream seed.
    pub seed: u64,
}

impl MtpApp {
    /// Creates the app.
    pub fn new(height: u32, width: u32, seed: u64) -> Self {
        assert!(height > 0 && width > 0);
        MtpApp {
            height,
            width,
            seed,
        }
    }

    /// The Fig. 5 (a) pattern at this size.
    pub fn pattern(&self) -> Grid2 {
        Grid2::new(self.height, self.width)
    }
}

impl DpApp for MtpApp {
    type Value = i64;

    fn compute(&self, id: VertexId, deps: &DepView<'_, i64>) -> i64 {
        let (i, j) = (id.i, id.j);
        let mut best = i64::MIN;
        if i > 0 {
            let w = edge_weight(self.seed, i - 1, j, i, j);
            best = best.max(deps.get(i - 1, j).expect("top dep") + w);
        }
        if j > 0 {
            let w = edge_weight(self.seed, i, j - 1, i, j);
            best = best.max(deps.get(i, j - 1).expect("left dep") + w);
        }
        if best == i64::MIN {
            0 // the source corner
        } else {
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use dpx10_core::{DistKind, EngineConfig, ThreadedEngine};

    #[test]
    fn weights_deterministic_and_bounded() {
        let a = edge_weight(42, 1, 2, 1, 3);
        let b = edge_weight(42, 1, 2, 1, 3);
        assert_eq!(a, b);
        for i in 0..20 {
            for j in 0..20 {
                let w = edge_weight(7, i, j, i + 1, j);
                assert!((0..64).contains(&w));
            }
        }
    }

    #[test]
    fn seed_changes_weights() {
        let distinct = (0..100)
            .map(|s| edge_weight(s, 3, 4, 3, 5))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn matches_serial_reference() {
        let app = MtpApp::new(12, 9, 0xDEAD_BEEF);
        let expect = serial::manhattan_tourist(12, 9, 0xDEAD_BEEF);
        let pattern = app.pattern();
        let result = ThreadedEngine::new(
            app,
            pattern,
            EngineConfig::flat(3).with_dist(DistKind::BlockRow),
        )
        .run()
        .unwrap();
        for i in 0..12 {
            for j in 0..9 {
                assert_eq!(
                    result.get(i, j),
                    expect[i as usize][j as usize],
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn monotone_along_any_path() {
        // Weights are non-negative, so D never decreases along an edge.
        let app = MtpApp::new(8, 8, 3);
        let pattern = app.pattern();
        let result = ThreadedEngine::new(app, pattern, EngineConfig::flat(2))
            .run()
            .unwrap();
        for i in 1..8 {
            for j in 0..8 {
                assert!(result.get(i, j) >= result.get(i - 1, j));
            }
        }
    }
}

//! The 0/1 Knapsack Problem (paper §VII-B and §VIII).
//!
//! `m(i,j) = m(i-1,j)` if `w_i > j`, else
//! `max(m(i-1,j), m(i-1, j-w_i) + v_i)` — Equation (2) — over the
//! data-dependent [`KnapsackDag`] of Fig. 8.

use dpx10_core::{DepView, DpApp};
use dpx10_dag::{KnapsackDag, VertexId};

/// One item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Item {
    /// Item weight (strictly positive).
    pub weight: u32,
    /// Item value.
    pub value: u64,
}

/// The 0/1-Knapsack application.
#[derive(Clone, Debug)]
pub struct KnapsackApp {
    /// The item set (1-based in the recurrence: item `i` is
    /// `items[i-1]`).
    pub items: Vec<Item>,
    /// Knapsack capacity `W`.
    pub capacity: u32,
}

impl KnapsackApp {
    /// Creates the app.
    pub fn new(items: Vec<Item>, capacity: u32) -> Self {
        assert!(!items.is_empty());
        assert!(items.iter().all(|it| it.weight > 0));
        KnapsackApp { items, capacity }
    }

    /// The data-dependent DAG pattern for this instance (paper Fig. 8).
    pub fn pattern(&self) -> KnapsackDag {
        KnapsackDag::new(
            self.items.iter().map(|it| it.weight).collect(),
            self.capacity,
        )
    }

    /// The optimum = `m(n, W)`.
    pub fn answer(&self, result: &dpx10_core::DagResult<u64>) -> u64 {
        result.get(self.items.len() as u32, self.capacity)
    }
}

impl DpApp for KnapsackApp {
    type Value = u64;

    fn compute(&self, id: VertexId, deps: &DepView<'_, u64>) -> u64 {
        let (i, j) = (id.i, id.j);
        if i == 0 {
            return 0;
        }
        let item = self.items[(i - 1) as usize];
        let skip = *deps.get(i - 1, j).expect("skip dep");
        if item.weight <= j {
            let take = deps.get(i - 1, j - item.weight).expect("take dep") + item.value;
            skip.max(take)
        } else {
            skip
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use dpx10_core::{DistKind, EngineConfig, ThreadedEngine};

    fn solve(items: Vec<Item>, capacity: u32) -> u64 {
        let app = KnapsackApp::new(items.clone(), capacity);
        let pattern = app.pattern();
        let n = items.len() as u32;
        let result = ThreadedEngine::new(
            app,
            pattern,
            EngineConfig::flat(2).with_dist(DistKind::BlockRow),
        )
        .run()
        .unwrap();
        result.get(n, capacity)
    }

    #[test]
    fn textbook_instance() {
        // Items (w, v): (1,1), (3,4), (4,5), (5,7); W=7 -> best 9.
        let items = vec![
            Item {
                weight: 1,
                value: 1,
            },
            Item {
                weight: 3,
                value: 4,
            },
            Item {
                weight: 4,
                value: 5,
            },
            Item {
                weight: 5,
                value: 7,
            },
        ];
        assert_eq!(solve(items, 7), 9);
    }

    #[test]
    fn matches_serial_reference() {
        let items = vec![
            Item {
                weight: 2,
                value: 3,
            },
            Item {
                weight: 3,
                value: 4,
            },
            Item {
                weight: 4,
                value: 5,
            },
            Item {
                weight: 5,
                value: 6,
            },
            Item {
                weight: 1,
                value: 1,
            },
        ];
        for cap in [0u32, 1, 5, 9, 15] {
            assert_eq!(
                solve(items.clone(), cap),
                serial::knapsack(&items, cap),
                "capacity {cap}"
            );
        }
    }

    #[test]
    fn zero_capacity_takes_nothing() {
        let items = vec![Item {
            weight: 2,
            value: 10,
        }];
        assert_eq!(solve(items, 0), 0);
    }

    #[test]
    fn all_items_fit() {
        let items = vec![
            Item {
                weight: 1,
                value: 2,
            },
            Item {
                weight: 1,
                value: 3,
            },
        ];
        assert_eq!(solve(items, 10), 5);
    }
}

//! Places and the node topology.

use std::fmt;

/// Identifier of an APGAS place.
///
/// A place is the X10 unit of data + compute locality — "a collection of
/// data and worker threads operating on the data", typically one OS
/// process (paper §II). Places are numbered densely from 0; place 0 hosts
/// the coordinator, as in X10 where `main` starts at Place(0).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub u16);

impl PlaceId {
    /// The coordinator place.
    pub const ZERO: PlaceId = PlaceId(0);

    /// Index form for direct vector addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Place({})", self.0)
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "place {}", self.0)
    }
}

/// The cluster shape: how many nodes, and how many places per node.
///
/// The paper's experiments set `X10_NPLACES = 2 × nodes` (§VIII);
/// [`Topology::paper`] reproduces that (their `X10_NTHREADS = 6` is the
/// simulator's `SimConfig::workers`). The node grouping matters to the
/// network model: messages between places on the same node are priced
/// as shared-memory transfers, messages across nodes as InfiniBand
/// transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of physical nodes.
    pub nodes: u16,
    /// Places per node (paper default: 2, one per processor socket).
    pub places_per_node: u16,
}

impl Topology {
    /// The paper's deployment for a given node count: 2 places per node.
    pub fn paper(nodes: u16) -> Self {
        Topology {
            nodes,
            places_per_node: 2,
        }
    }

    /// A compact topology for unit tests: every place on its own node.
    pub fn flat(places: u16) -> Self {
        Topology {
            nodes: places,
            places_per_node: 1,
        }
    }

    /// Total number of places.
    #[inline]
    pub fn num_places(&self) -> u16 {
        self.nodes * self.places_per_node
    }

    /// The node hosting `place`.
    #[inline]
    pub fn node_of(&self, place: PlaceId) -> u16 {
        place.0 / self.places_per_node
    }

    /// Whether two places share a node (and hence shared memory).
    #[inline]
    pub fn same_node(&self, a: PlaceId, b: PlaceId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// All place ids in this topology.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.num_places()).map(PlaceId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_matches_experiment_setup() {
        let t = Topology::paper(12);
        assert_eq!(t.num_places(), 24);
    }

    #[test]
    fn node_grouping() {
        let t = Topology::paper(3);
        assert_eq!(t.node_of(PlaceId(0)), 0);
        assert_eq!(t.node_of(PlaceId(1)), 0);
        assert_eq!(t.node_of(PlaceId(2)), 1);
        assert!(t.same_node(PlaceId(0), PlaceId(1)));
        assert!(!t.same_node(PlaceId(1), PlaceId(2)));
    }

    #[test]
    fn places_iterates_all() {
        let t = Topology::flat(4);
        let ids: Vec<_> = t.places().collect();
        assert_eq!(ids, vec![PlaceId(0), PlaceId(1), PlaceId(2), PlaceId(3)]);
    }
}

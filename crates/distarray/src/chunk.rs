//! Live chunk relocation: the serialized state of one distribution slot
//! and the epoch-fenced ownership map every place keeps.
//!
//! The recovery path of the paper (§VI-D) *recomputes* a dead place's
//! cells; an elastic mesh can do better when the departure is graceful.
//! A draining place packages each slot it owns into a [`ChunkState`] —
//! finished cell values, the ready-counters of unfinished cells, the
//! remote-value cache residents, and the spill index — and ships it to
//! the new owner, which resumes the chunk *exactly* where it stopped:
//! relocation, not recompute (Finnerty et al.'s relocatable distributed
//! collections, applied to DPX10's DistArray).
//!
//! Ownership is re-registered through a [`ChunkMap`] guarded by an
//! *epoch fence*: every relocation bumps the map epoch, every message
//! names the epoch it was built under, and a receiver parks messages
//! from the future and drops messages from the past. In-flight pulls
//! addressed to the old owner are parked at the fence and replayed
//! against the new owner once the commit acknowledgement lands.

use dpx10_apgas::codec::Codec;
use dpx10_apgas::PlaceId;

/// The complete movable state of one distribution slot, as serialized
/// into the payload the elastic driver ships between holders.
///
/// Cell indices are *local* to the chunk (the slot's iteration order),
/// so the state is independent of which place holds it. Cache and spill
/// entries are keyed by the packed global vertex id they were stored
/// under.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkState<V> {
    /// The distribution slot this state belongs to.
    pub slot: u16,
    /// `(local cell index, value)` of every finished cell.
    pub finished: Vec<(u32, V)>,
    /// `(local cell index, remaining indegree)` of every unfinished
    /// cell — the ready-counters, so no dependency edge is re-counted.
    pub indegree: Vec<(u32, u32)>,
    /// Local indices whose dependencies are met but which have not run.
    pub ready: Vec<u32>,
    /// Remote-value cache residents `(packed vertex id, value)`, oldest
    /// first, so the new owner rebuilds the FIFO in the same order.
    pub cache: Vec<(u64, V)>,
    /// Spill index `(packed vertex id, value)` in append order.
    pub spill: Vec<(u64, V)>,
}

impl<V> ChunkState<V> {
    /// An empty state for `slot` (nothing computed yet).
    pub fn empty(slot: u16) -> Self {
        ChunkState {
            slot,
            finished: Vec::new(),
            indegree: Vec::new(),
            ready: Vec::new(),
            cache: Vec::new(),
            spill: Vec::new(),
        }
    }

    /// Number of finished cells carried — what relocation saves from
    /// recomputation.
    pub fn cells_moved(&self) -> usize {
        self.finished.len()
    }
}

impl<V: Codec> Codec for ChunkState<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.slot.encode(buf);
        self.finished.encode(buf);
        self.indegree.encode(buf);
        self.ready.encode(buf);
        self.cache.encode(buf);
        self.spill.encode(buf);
    }

    fn decode(src: &mut &[u8]) -> Option<Self> {
        // Each `Vec` decode carries the hostile-length guard of the
        // base codec: a claimed length exceeding the remaining input is
        // rejected before any allocation grows to meet it.
        Some(ChunkState {
            slot: u16::decode(src)?,
            finished: Vec::decode(src)?,
            indegree: Vec::decode(src)?,
            ready: Vec::decode(src)?,
            cache: Vec::decode(src)?,
            spill: Vec::decode(src)?,
        })
    }

    fn wire_size(&self) -> usize {
        2 + self.finished.wire_size()
            + self.indegree.wire_size()
            + self.ready.wire_size()
            + self.cache.wire_size()
            + self.spill.wire_size()
    }
}

/// One slot's entry in the ownership map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkOwner {
    /// The place currently owning the slot.
    pub place: PlaceId,
    /// The map epoch at which this ownership was registered.
    pub since_epoch: u64,
}

/// The epoch-fenced slot-ownership table every place keeps.
///
/// `epoch` is a logical clock over ownership changes: it starts at 0
/// and bumps once per completed relocation. A message stamped with
/// epoch `e` is *current* when `e == epoch()`, *stale* when `e <
/// epoch()` (built against an owner that has since handed the slot
/// off — drop it; the sender will re-issue), and *future* when `e >
/// epoch()` (the sender saw a relocation we have not — park it and
/// replay once our map catches up).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkMap {
    owners: Vec<ChunkOwner>,
    epoch: u64,
}

/// How a receiver must treat a message stamped with some epoch —
/// the admit rule of the fence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochVerdict {
    /// Same epoch: deliver now.
    Deliver,
    /// Message from a past epoch: drop; the sender replays against the
    /// re-registered owner.
    Stale,
    /// Message from a future epoch: park until the local map catches
    /// up, then replay.
    Park,
}

impl ChunkMap {
    /// A map with the given initial owners (slot `i` owned by
    /// `owners[i]`), at epoch 0.
    pub fn new(owners: Vec<PlaceId>) -> Self {
        ChunkMap {
            owners: owners
                .into_iter()
                .map(|place| ChunkOwner {
                    place,
                    since_epoch: 0,
                })
                .collect(),
            epoch: 0,
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> u16 {
        self.owners.len() as u16
    }

    /// Current fence epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current owner of `slot`, or `None` for an out-of-range slot.
    pub fn owner(&self, slot: u16) -> Option<PlaceId> {
        self.owners.get(slot as usize).map(|o| o.place)
    }

    /// All slots currently owned by `place`, in slot order.
    pub fn slots_owned_by(&self, place: PlaceId) -> Vec<u16> {
        (0..self.owners.len() as u16)
            .filter(|&s| self.owners[s as usize].place == place)
            .collect()
    }

    /// Re-registers `slot` to `to` and advances the fence. Returns the
    /// new epoch — the stamp the commit broadcast carries so every
    /// place fences identically. `None` for an out-of-range slot or a
    /// no-op move (same owner), which must not burn an epoch.
    pub fn relocate(&mut self, slot: u16, to: PlaceId) -> Option<u64> {
        let entry = self.owners.get_mut(slot as usize)?;
        if entry.place == to {
            return None;
        }
        self.epoch += 1;
        *entry = ChunkOwner {
            place: to,
            since_epoch: self.epoch,
        };
        Some(self.epoch)
    }

    /// The fence's admit rule for a message stamped `msg_epoch`.
    pub fn admit(&self, msg_epoch: u64) -> EpochVerdict {
        use std::cmp::Ordering::*;
        match msg_epoch.cmp(&self.epoch) {
            Equal => EpochVerdict::Deliver,
            Less => EpochVerdict::Stale,
            Greater => EpochVerdict::Park,
        }
    }

    /// Applies a relocation observed from a commit broadcast:
    /// adopts the sender's (higher) epoch. Ignores stale broadcasts.
    pub fn observe_relocation(&mut self, slot: u16, to: PlaceId, at_epoch: u64) -> bool {
        if at_epoch <= self.epoch {
            return false;
        }
        let Some(entry) = self.owners.get_mut(slot as usize) else {
            return false;
        };
        *entry = ChunkOwner {
            place: to,
            since_epoch: at_epoch,
        };
        self.epoch = at_epoch;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx10_apgas::codec::{decode_exact, encode_to_vec};

    fn state() -> ChunkState<u64> {
        ChunkState {
            slot: 3,
            finished: vec![(0, 11), (2, 13)],
            indegree: vec![(1, 2), (3, 1)],
            ready: vec![1],
            cache: vec![(99, 7), (42, 8)],
            spill: vec![(7, 70)],
        }
    }

    #[test]
    fn chunk_state_round_trips_with_exact_size() {
        let s = state();
        let buf = encode_to_vec(&s);
        assert_eq!(buf.len(), s.wire_size(), "wire_size contract");
        assert_eq!(decode_exact::<ChunkState<u64>>(&buf), Some(s));
    }

    #[test]
    fn empty_chunk_state_round_trips() {
        let s = ChunkState::<u64>::empty(9);
        let buf = encode_to_vec(&s);
        assert_eq!(buf.len(), s.wire_size());
        assert_eq!(decode_exact::<ChunkState<u64>>(&buf), Some(s));
    }

    #[test]
    fn hostile_lengths_are_rejected_not_allocated() {
        // slot, then a `finished` length claiming 2^59 entries with a
        // 1-byte body: the Vec guard must refuse before allocating.
        let mut buf = encode_to_vec(&3u16);
        buf.extend_from_slice(&(1u64 << 59).to_le_bytes());
        buf.push(0);
        let mut src = buf.as_slice();
        assert_eq!(ChunkState::<u64>::decode(&mut src), None);
        // Truncation anywhere mid-struct is also a clean None.
        let whole = encode_to_vec(&state());
        for cut in 0..whole.len() {
            let mut src = &whole[..cut];
            assert!(
                ChunkState::<u64>::decode(&mut src).is_none(),
                "truncated at {cut} must not decode"
            );
        }
    }

    #[test]
    fn relocate_bumps_epoch_and_reregisters() {
        let mut map = ChunkMap::new(vec![PlaceId(0), PlaceId(1), PlaceId(2)]);
        assert_eq!(map.epoch(), 0);
        assert_eq!(map.owner(1), Some(PlaceId(1)));
        let e = map.relocate(1, PlaceId(2)).unwrap();
        assert_eq!(e, 1);
        assert_eq!(map.owner(1), Some(PlaceId(2)));
        assert_eq!(map.slots_owned_by(PlaceId(2)), vec![1, 2]);
        // Same-owner moves and bad slots burn no epoch.
        assert_eq!(map.relocate(1, PlaceId(2)), None);
        assert_eq!(map.relocate(99, PlaceId(0)), None);
        assert_eq!(map.epoch(), 1);
    }

    #[test]
    fn fence_admit_rule() {
        let mut map = ChunkMap::new(vec![PlaceId(0), PlaceId(1)]);
        map.relocate(0, PlaceId(1)).unwrap();
        assert_eq!(map.admit(1), EpochVerdict::Deliver);
        assert_eq!(map.admit(0), EpochVerdict::Stale);
        assert_eq!(map.admit(2), EpochVerdict::Park);
    }

    #[test]
    fn observed_relocations_adopt_higher_epochs_only() {
        let mut a = ChunkMap::new(vec![PlaceId(0), PlaceId(1)]);
        let mut b = a.clone();
        let e = a.relocate(1, PlaceId(0)).unwrap();
        assert!(b.observe_relocation(1, PlaceId(0), e));
        assert_eq!(a, b, "observer converges to the relocator's map");
        assert!(!b.observe_relocation(1, PlaceId(1), e), "stale broadcast");
        assert!(!b.observe_relocation(9, PlaceId(0), e + 1), "bad slot");
    }
}

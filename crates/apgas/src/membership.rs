//! Dynamic place membership: the roster of a socket mesh.
//!
//! A [`RosterBoard`] is a versioned membership table sized to the mesh's
//! fixed *capacity*, where each slot moves through a small life cycle:
//!
//! ```text
//!  Vacant ──admit──▶ Joining ──activate──▶ Active ──drain──▶ Draining
//!     ▲                                       │                  │
//!     │                                     crash              leave
//!     │                                       ▼                  ▼
//!     └────────────(ids are not reused)──── Dead               Left
//! ```
//!
//! Founding places start Active. A *join* walks Vacant → Joining →
//! Active (place 0 admits the joiner, which dials every member). A
//! *drain* walks Active → Draining → Left (the engine above hands the
//! place's finished cells over, then the place signs off with a `Leave`
//! frame). A crash walks Active → Dead via the ordinary liveness
//! detection path. `Left` is deliberately distinct from `Dead`: a drained
//! place must never trigger recovery.
//!
//! Place ids are never reused within one mesh lifetime — a fresh joiner
//! always gets a fresh id, so an epoch fence can name "the roster as of
//! version v" unambiguously.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpx10_sync::Mutex;

use crate::place::PlaceId;

/// Where one place slot is in its membership life cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberState {
    /// The slot has never been occupied.
    Vacant,
    /// Admission granted; the joiner is still dialing peers.
    Joining,
    /// A full member of the mesh.
    Active,
    /// Relocating its owned state before leaving.
    Draining,
    /// Departed gracefully (drained). Never recovers, never recomputes.
    Left,
    /// Crash-departed; the recovery path owns whatever it held.
    Dead,
}

impl MemberState {
    /// Whether a place in this state participates in work distribution.
    pub fn is_member(self) -> bool {
        matches!(self, MemberState::Active | MemberState::Draining)
    }
}

/// A membership transition that the state machine forbids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MembershipError {
    /// The slot the transition targeted.
    pub place: PlaceId,
    /// Its state at the time.
    pub from: MemberState,
    /// The transition that was attempted.
    pub attempted: &'static str,
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "membership: cannot {} {} in state {:?}",
            self.attempted, self.place, self.from
        )
    }
}

impl std::error::Error for MembershipError {}

struct Roster {
    states: Vec<MemberState>,
    /// Listen address of each slot ("" when unknown/vacant) — place 0's
    /// source for the addresses a `JoinAccept` carries.
    addrs: Vec<String>,
}

/// The shared, versioned membership table of one mesh.
///
/// Cloning shares the underlying table (it is an `Arc` internally), so a
/// socket node, its acceptor thread and the engine above all observe the
/// same roster. Every successful transition bumps the version counter,
/// letting pollers detect change without diffing.
#[derive(Clone)]
pub struct RosterBoard {
    inner: Arc<Mutex<Roster>>,
    version: Arc<AtomicU64>,
}

impl RosterBoard {
    /// A roster with `initial` active founding members and room to grow
    /// to `capacity` places. `capacity` is clamped up to `initial`.
    pub fn new(initial: u16, capacity: u16) -> Self {
        let capacity = capacity.max(initial);
        let states = (0..capacity)
            .map(|p| {
                if p < initial {
                    MemberState::Active
                } else {
                    MemberState::Vacant
                }
            })
            .collect();
        RosterBoard {
            inner: Arc::new(Mutex::new(Roster {
                states,
                addrs: vec![String::new(); capacity as usize],
            })),
            version: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Total slots, occupied or not.
    pub fn capacity(&self) -> u16 {
        self.inner.lock().states.len() as u16
    }

    /// Monotonic change counter; bumps on every successful transition.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The state of `place` (`Vacant` when out of range).
    pub fn state(&self, place: PlaceId) -> MemberState {
        self.inner
            .lock()
            .states
            .get(place.index())
            .copied()
            .unwrap_or(MemberState::Vacant)
    }

    /// Whether `place` currently participates in work distribution.
    pub fn is_member(&self, place: PlaceId) -> bool {
        self.state(place).is_member()
    }

    /// Ids of all current members (Active or Draining), in order.
    pub fn members(&self) -> Vec<PlaceId> {
        let inner = self.inner.lock();
        (0..inner.states.len() as u16)
            .map(PlaceId)
            .filter(|p| inner.states[p.index()].is_member())
            .collect()
    }

    /// Number of current members.
    pub fn member_count(&self) -> u16 {
        self.members().len() as u16
    }

    /// The recorded listen address of `place` ("" when unknown).
    pub fn addr(&self, place: PlaceId) -> String {
        self.inner
            .lock()
            .addrs
            .get(place.index())
            .cloned()
            .unwrap_or_default()
    }

    /// Records `place`'s listen address.
    pub fn set_addr(&self, place: PlaceId, addr: impl Into<String>) {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.addrs.get_mut(place.index()) {
            *slot = addr.into();
        }
    }

    fn transition(
        &self,
        place: PlaceId,
        attempted: &'static str,
        allowed: &[MemberState],
        to: MemberState,
    ) -> Result<(), MembershipError> {
        let mut inner = self.inner.lock();
        let from = inner
            .states
            .get(place.index())
            .copied()
            .unwrap_or(MemberState::Vacant);
        if place.index() >= inner.states.len() || !allowed.contains(&from) {
            return Err(MembershipError {
                place,
                from,
                attempted,
            });
        }
        inner.states[place.index()] = to;
        drop(inner);
        self.version.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Grants the lowest vacant slot to a joiner, marking it `Joining`
    /// and recording `addr`. `None` when the mesh is at capacity.
    pub fn admit(&self, addr: impl Into<String>) -> Option<PlaceId> {
        let mut inner = self.inner.lock();
        let idx = inner
            .states
            .iter()
            .position(|s| *s == MemberState::Vacant)?;
        inner.states[idx] = MemberState::Joining;
        inner.addrs[idx] = addr.into();
        drop(inner);
        self.version.fetch_add(1, Ordering::AcqRel);
        Some(PlaceId(idx as u16))
    }

    /// Joining → Active: the joiner finished dialing the mesh.
    pub fn activate(&self, place: PlaceId) -> Result<(), MembershipError> {
        self.transition(
            place,
            "activate",
            &[MemberState::Joining],
            MemberState::Active,
        )
    }

    /// Marks a previously unknown member Active directly — how a *peer*
    /// (not the coordinator) learns of a joiner from its `JoinHello`.
    pub fn observe_join(&self, place: PlaceId) -> Result<(), MembershipError> {
        self.transition(
            place,
            "observe join of",
            &[MemberState::Vacant, MemberState::Joining],
            MemberState::Active,
        )
    }

    /// Active → Draining: the place starts handing its state over.
    pub fn start_drain(&self, place: PlaceId) -> Result<(), MembershipError> {
        self.transition(
            place,
            "drain",
            &[MemberState::Active],
            MemberState::Draining,
        )
    }

    /// Draining (or Active, for peers that missed the drain start) →
    /// Left: the `Leave` sign-off arrived.
    pub fn leave(&self, place: PlaceId) -> Result<(), MembershipError> {
        self.transition(
            place,
            "remove",
            &[MemberState::Draining, MemberState::Active],
            MemberState::Left,
        )
    }

    /// Any member state → Dead: liveness detection reported a crash.
    /// Idempotent on already-dead slots; a `Left` place stays `Left`
    /// (its sockets closing after a graceful leave is not a death).
    pub fn mark_dead(&self, place: PlaceId) {
        let mut inner = self.inner.lock();
        let Some(slot) = inner.states.get_mut(place.index()) else {
            return;
        };
        match *slot {
            MemberState::Left | MemberState::Dead | MemberState::Vacant => {}
            _ => {
                *slot = MemberState::Dead;
                drop(inner);
                self.version.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

impl fmt::Debug for RosterBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("RosterBoard")
            .field("version", &self.version())
            .field("states", &inner.states)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn founding_members_are_active() {
        let r = RosterBoard::new(3, 5);
        assert_eq!(r.capacity(), 5);
        assert_eq!(r.member_count(), 3);
        assert_eq!(r.state(PlaceId(2)), MemberState::Active);
        assert_eq!(r.state(PlaceId(3)), MemberState::Vacant);
        assert_eq!(r.state(PlaceId(9)), MemberState::Vacant);
        assert_eq!(r.version(), 0);
    }

    #[test]
    fn capacity_clamps_up_to_initial() {
        let r = RosterBoard::new(4, 2);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.member_count(), 4);
    }

    #[test]
    fn join_life_cycle() {
        let r = RosterBoard::new(2, 4);
        let p = r.admit("127.0.0.1:7001").expect("room");
        assert_eq!(p, PlaceId(2));
        assert_eq!(r.state(p), MemberState::Joining);
        assert!(!r.is_member(p), "joining places are not yet members");
        assert_eq!(r.addr(p), "127.0.0.1:7001");
        r.activate(p).unwrap();
        assert!(r.is_member(p));
        assert_eq!(r.members(), vec![PlaceId(0), PlaceId(1), PlaceId(2)]);
    }

    #[test]
    fn admit_exhausts_capacity() {
        let r = RosterBoard::new(1, 2);
        assert_eq!(r.admit("a"), Some(PlaceId(1)));
        assert_eq!(r.admit("b"), None, "mesh at capacity");
    }

    #[test]
    fn drain_leaves_without_death() {
        let r = RosterBoard::new(3, 3);
        r.start_drain(PlaceId(2)).unwrap();
        assert!(
            r.is_member(PlaceId(2)),
            "a draining place still owns chunks"
        );
        r.leave(PlaceId(2)).unwrap();
        assert_eq!(r.state(PlaceId(2)), MemberState::Left);
        assert_eq!(r.member_count(), 2);
        // Its links closing afterwards must not flip it to Dead.
        r.mark_dead(PlaceId(2));
        assert_eq!(r.state(PlaceId(2)), MemberState::Left);
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        let r = RosterBoard::new(2, 3);
        assert!(r.activate(PlaceId(0)).is_err(), "already active");
        assert!(r.start_drain(PlaceId(2)).is_err(), "vacant");
        assert!(r.leave(PlaceId(2)).is_err(), "vacant");
        assert!(r.activate(PlaceId(9)).is_err(), "out of range");
        let err = r.start_drain(PlaceId(2)).unwrap_err();
        assert_eq!(err.from, MemberState::Vacant);
        assert!(err.to_string().contains("cannot drain"));
    }

    #[test]
    fn ids_are_not_reused_after_leave() {
        let r = RosterBoard::new(1, 3);
        let a = r.admit("a").unwrap();
        r.activate(a).unwrap();
        r.start_drain(a).unwrap();
        r.leave(a).unwrap();
        let b = r.admit("b").unwrap();
        assert_ne!(a, b, "a left slot is never handed out again");
        assert_eq!(b, PlaceId(2));
    }

    #[test]
    fn versions_bump_on_every_transition_and_clones_share() {
        let r = RosterBoard::new(2, 4);
        let view = r.clone();
        let v0 = view.version();
        let p = r.admit("x").unwrap();
        r.activate(p).unwrap();
        r.mark_dead(PlaceId(1));
        assert_eq!(view.version(), v0 + 3);
        assert_eq!(view.state(PlaceId(1)), MemberState::Dead);
        // Idempotent death does not bump.
        r.mark_dead(PlaceId(1));
        assert_eq!(view.version(), v0 + 3);
    }

    #[test]
    fn observe_join_accepts_unknown_and_joining() {
        let r = RosterBoard::new(2, 4);
        r.observe_join(PlaceId(3)).unwrap();
        assert_eq!(r.state(PlaceId(3)), MemberState::Active);
        assert!(r.observe_join(PlaceId(0)).is_err(), "already active");
    }

    #[test]
    fn addrs_round_trip() {
        let r = RosterBoard::new(2, 3);
        r.set_addr(PlaceId(0), "127.0.0.1:1");
        r.set_addr(PlaceId(1), "127.0.0.1:2");
        let addrs: Vec<String> = (0..3).map(|p| r.addr(PlaceId(p))).collect();
        assert_eq!(addrs, vec!["127.0.0.1:1", "127.0.0.1:2", ""]);
    }
}

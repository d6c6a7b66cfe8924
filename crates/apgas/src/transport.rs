//! The transport abstraction: how typed messages move between places.
//!
//! The engines in `dpx10-core` speak to their peers through a
//! [`Transport`] trait object, so the same vertex-execution code runs on
//! two very different substrates:
//!
//! * [`LocalTransport`] — the original in-process mailboxes
//!   ([`crate::mailbox`]): places are groups of worker threads in one process,
//!   messages move by handing the value over a channel (no
//!   serialization), and each send is *priced* through the
//!   [`NetworkModel`] so experiments can report what the transfer would
//!   have cost on a real interconnect.
//! * [`crate::socket`] — one OS process per place, connected by a TCP
//!   mesh. The engine's plane over a [`crate::SocketNode`] encodes with
//!   [`crate::Codec`] and frames, and the stats record the bytes
//!   *actually* written to the socket; no network model is involved.
//!
//! The trait is object safe: engines hold an `Arc<dyn Transport<M>>`.

use std::time::Duration;

use crate::fault::{DeadPlaceError, LivenessBoard};
use crate::mailbox::{post_office, Envelope, Mailbox, MailboxSender};
use crate::network::NetworkModel;
use crate::place::{PlaceId, Topology};
use crate::stats::StatsBoard;

/// Moves messages of type `M` between places.
///
/// `wire_bytes` on [`send`](Transport::send) is the *modelled* size of
/// the message (what [`crate::Codec::wire_size`] reports); the local
/// transport prices transfers with it, while byte-level transports ignore
/// it and account the bytes they really frame.
pub trait Transport<M: Send>: Send + Sync {
    /// Number of places this transport connects.
    fn num_places(&self) -> u16;

    /// The shared liveness flags; transports mark places dead here when
    /// they detect a failure.
    fn liveness(&self) -> &LivenessBoard;

    /// Sends `msg` from `src` to `dst`; fails if `dst` is dead.
    fn send(
        &self,
        src: PlaceId,
        dst: PlaceId,
        msg: M,
        wire_bytes: usize,
    ) -> Result<(), DeadPlaceError>;

    /// Non-blocking receive on `at`'s inbox.
    fn try_recv(&self, at: PlaceId) -> Option<Envelope<M>>;

    /// Blocking receive on `at`'s inbox; `None` on timeout.
    fn recv_timeout(&self, at: PlaceId, timeout: Duration) -> Option<Envelope<M>>;

    /// Pushes any buffered outbound traffic of `at` to the wire. Only
    /// aggregating layers ([`crate::coalesce::CoalescingTransport`]) hold
    /// traffic back, so the default is a no-op. Engines call this when a
    /// worker goes idle and before snapshot barriers.
    fn flush(&self, at: PlaceId) {
        let _ = at;
    }
}

/// The in-process transport: every place's inbox lives in this struct,
/// sends are typed channel handoffs priced by the [`NetworkModel`].
pub struct LocalTransport<M> {
    boxes: Vec<Mailbox<M>>,
    sender: MailboxSender<M>,
    liveness: LivenessBoard,
}

impl<M: Send> LocalTransport<M> {
    /// Builds a transport with one mailbox per place of `topo`.
    pub fn new(
        topo: Topology,
        net: NetworkModel,
        liveness: LivenessBoard,
        stats: StatsBoard,
    ) -> Self {
        let (boxes, sender) = post_office(topo, net, liveness.clone(), stats);
        LocalTransport {
            boxes,
            sender,
            liveness,
        }
    }
}

impl<M: Send> Transport<M> for LocalTransport<M> {
    fn num_places(&self) -> u16 {
        self.boxes.len() as u16
    }

    fn liveness(&self) -> &LivenessBoard {
        &self.liveness
    }

    fn send(
        &self,
        src: PlaceId,
        dst: PlaceId,
        msg: M,
        wire_bytes: usize,
    ) -> Result<(), DeadPlaceError> {
        self.sender.send(src, dst, msg, wire_bytes)
    }

    fn try_recv(&self, at: PlaceId) -> Option<Envelope<M>> {
        self.boxes[at.index()].try_recv()
    }

    fn recv_timeout(&self, at: PlaceId, timeout: Duration) -> Option<Envelope<M>> {
        self.boxes[at.index()].recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn local(places: u16) -> LocalTransport<u32> {
        LocalTransport::new(
            Topology::flat(places),
            NetworkModel::tianhe_like(),
            LivenessBoard::new(places),
            StatsBoard::new(places),
        )
    }

    #[test]
    fn local_transport_routes_like_the_post_office() {
        let t = local(3);
        t.send(PlaceId(0), PlaceId(2), 7, 4).unwrap();
        let env = t.try_recv(PlaceId(2)).unwrap();
        assert_eq!((env.src, env.msg), (PlaceId(0), 7));
        assert!(t.try_recv(PlaceId(1)).is_none());
    }

    #[test]
    fn local_transport_respects_liveness() {
        let t = local(2);
        t.liveness().kill(PlaceId(1));
        assert_eq!(
            t.send(PlaceId(0), PlaceId(1), 1, 4),
            Err(DeadPlaceError { place: PlaceId(1) })
        );
    }

    #[test]
    fn usable_as_trait_object() {
        let t: Arc<dyn Transport<u32>> = Arc::new(local(2));
        t.send(PlaceId(0), PlaceId(1), 9, 4).unwrap();
        assert_eq!(t.num_places(), 2);
        let env = t.recv_timeout(PlaceId(1), Duration::from_secs(1)).unwrap();
        assert_eq!(env.msg, 9);
    }
}

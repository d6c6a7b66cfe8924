//! Typed inter-place messaging.
//!
//! Each place owns one [`Mailbox`] (its inbox); a shared cloneable
//! [`MailboxSender`] routes messages to any place. Sends are byte-priced
//! through the [`NetworkModel`] and refused with [`DeadPlaceError`] when
//! the destination has been killed — the hook the fault-tolerance path
//! (paper §VI-D) is built on.

use std::time::Duration;

use dpx10_sync::channel::{self, Receiver, RecvTimeoutError, Sender};

use crate::fault::{DeadPlaceError, LivenessBoard};
use crate::network::NetworkModel;
use crate::place::{PlaceId, Topology};
use crate::stats::StatsBoard;

/// A routed message with its source place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending place.
    pub src: PlaceId,
    /// Payload.
    pub msg: M,
}

/// The inbox of one place.
pub struct Mailbox<M> {
    place: PlaceId,
    rx: Receiver<Envelope<M>>,
}

impl<M> Mailbox<M> {
    /// The owning place.
    pub fn place(&self) -> PlaceId {
        self.place
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.rx.try_recv().ok()
    }

    /// Blocking receive with timeout; `None` on timeout or if all senders
    /// are gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Some(env),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Drains everything currently queued.
    pub fn drain(&self, out: &mut Vec<Envelope<M>>) {
        while let Ok(env) = self.rx.try_recv() {
            out.push(env);
        }
    }

    /// Number of queued messages (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// Whether the inbox is currently empty.
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }
}

/// Cloneable routing handle to every place's inbox.
pub struct MailboxSender<M> {
    topo: Topology,
    net: NetworkModel,
    liveness: LivenessBoard,
    stats: StatsBoard,
    txs: std::sync::Arc<[Sender<Envelope<M>>]>,
}

impl<M> Clone for MailboxSender<M> {
    fn clone(&self) -> Self {
        MailboxSender {
            topo: self.topo,
            net: self.net,
            liveness: self.liveness.clone(),
            stats: self.stats.clone(),
            txs: self.txs.clone(),
        }
    }
}

impl<M: Send> MailboxSender<M> {
    /// Sends `msg` (`bytes` on the wire) from `src` to `dst`.
    ///
    /// Accounts the transfer on `src`'s stats and returns
    /// `Err(DeadPlaceError)` if `dst` is dead. A send to the local place
    /// is free and always succeeds while the place lives.
    pub fn send(
        &self,
        src: PlaceId,
        dst: PlaceId,
        msg: M,
        bytes: usize,
    ) -> Result<(), DeadPlaceError> {
        self.liveness.check(dst)?;
        if src != dst {
            let cost = self.net.transfer_time(&self.topo, src, dst, bytes);
            self.stats.place(src).on_send(bytes, cost);
        }
        // The receiver half lives as long as the runtime, so a send only
        // fails if the whole runtime is tearing down; map that to the
        // destination being gone.
        self.txs[dst.index()]
            .send(Envelope { src, msg })
            .map_err(|_| DeadPlaceError { place: dst })
    }

    /// The topology this sender routes over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

/// Builds one mailbox per place plus the shared sender.
pub fn post_office<M: Send>(
    topo: Topology,
    net: NetworkModel,
    liveness: LivenessBoard,
    stats: StatsBoard,
) -> (Vec<Mailbox<M>>, MailboxSender<M>) {
    let n = topo.num_places();
    let mut boxes = Vec::with_capacity(n as usize);
    let mut txs = Vec::with_capacity(n as usize);
    for p in 0..n {
        let (tx, rx) = channel::unbounded();
        txs.push(tx);
        boxes.push(Mailbox {
            place: PlaceId(p),
            rx,
        });
    }
    let sender = MailboxSender {
        topo,
        net,
        liveness,
        stats,
        txs: txs.into(),
    };
    (boxes, sender)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(
        places: u16,
    ) -> (
        Vec<Mailbox<u32>>,
        MailboxSender<u32>,
        LivenessBoard,
        StatsBoard,
    ) {
        let topo = Topology::flat(places);
        let liveness = LivenessBoard::new(places);
        let stats = StatsBoard::new(places);
        let (boxes, sender) = post_office(
            topo,
            NetworkModel::tianhe_like(),
            liveness.clone(),
            stats.clone(),
        );
        (boxes, sender, liveness, stats)
    }

    #[test]
    fn routed_delivery() {
        let (boxes, sender, _, _) = setup(3);
        sender.send(PlaceId(0), PlaceId(2), 42, 4).unwrap();
        let env = boxes[2].try_recv().unwrap();
        assert_eq!(env.src, PlaceId(0));
        assert_eq!(env.msg, 42);
        assert!(boxes[1].try_recv().is_none());
    }

    #[test]
    fn send_to_dead_place_fails() {
        let (boxes, sender, liveness, _) = setup(3);
        liveness.kill(PlaceId(1));
        let err = sender.send(PlaceId(0), PlaceId(1), 7, 4).unwrap_err();
        assert_eq!(err.place, PlaceId(1));
        assert!(boxes[1].try_recv().is_none());
    }

    #[test]
    fn remote_sends_are_accounted_local_are_not() {
        let (_boxes, sender, _, stats) = setup(2);
        sender.send(PlaceId(0), PlaceId(1), 1, 100).unwrap();
        sender.send(PlaceId(0), PlaceId(0), 2, 100).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.messages_sent, 1);
        assert_eq!(snap.bytes_sent, 100);
        assert!(snap.net_time > Duration::ZERO);
    }

    #[test]
    fn drain_collects_in_order() {
        let (boxes, sender, _, _) = setup(2);
        for k in 0..5 {
            sender.send(PlaceId(0), PlaceId(1), k, 4).unwrap();
        }
        let mut out = Vec::new();
        boxes[1].drain(&mut out);
        let got: Vec<u32> = out.into_iter().map(|e| e.msg).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(boxes[1].is_empty());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (boxes, _sender, _, _) = setup(1);
        assert!(boxes[0].recv_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn cross_thread_delivery() {
        let (mut boxes, sender, _, _) = setup(2);
        let inbox1 = boxes.remove(1);
        let t = std::thread::spawn(move || {
            inbox1
                .recv_timeout(Duration::from_secs(5))
                .expect("message arrives")
                .msg
        });
        sender.send(PlaceId(0), PlaceId(1), 99, 4).unwrap();
        assert_eq!(t.join().unwrap(), 99);
    }
}

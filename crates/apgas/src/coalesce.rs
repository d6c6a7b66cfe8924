//! Adaptive message coalescing: per-destination aggregation buffers.
//!
//! The paper's comms plane (§VI-C) ships one message per finished vertex.
//! At Fig. 10/11 scales that is one frame, one syscall and one codec pass
//! per cell boundary on the socket backend. PGAS runtimes (DART-MPI, the
//! relocatable-collections APGAS work) win by aggregating small puts into
//! per-destination batches; [`CoalescingTransport`] does the same for any
//! message type that knows how to fold itself into a batch
//! ([`Coalescible`]).
//!
//! The flush policy is adaptive on three triggers:
//!
//! * **byte budget** — a buffer whose priced payload reaches
//!   [`CoalesceConfig::max_bytes`] is flushed by the send that filled it;
//! * **entry count** — a buffer holding [`CoalesceConfig::max_entries`]
//!   messages flushes regardless of size (bounds decode cost and keeps
//!   batch wire variants within fuzz-tested bounds);
//! * **idle drain** — engines call [`Transport::flush`] when a worker runs
//!   out of local work, so latency under low load degenerates to the
//!   uncoalesced path instead of waiting for a budget that never fills.
//!
//! Messages the protocol cannot batch (remote-exec verbs with
//! request/reply pairing) first flush the buffer of their lane — so the
//! relative order of a batched message and a later unbatchable one is
//! preserved — then pass straight through.
//!
//! Recovery interaction: the wrapper is built fresh each epoch, so
//! buffered traffic of an abandoned epoch dies with its wrapper, and a
//! flush that hits a [`DeadPlaceError`] simply drops the drained batch —
//! the epoch is being torn down and recovery recomputes the unacked
//! vertices (DESIGN.md, comms plane).
//!
//! Multi-job interaction: the job server builds one wrapper per job per
//! epoch around that job's namespaced send path, so coalescing lanes
//! are effectively keyed by `(job, destination)` — one job's batches
//! never mix frames with another's, a job's abort drops only its own
//! buffered traffic, and the per-epoch lifetime argument above holds
//! per job unchanged.

use std::sync::Arc;
use std::time::Duration;

use dpx10_obs::{EventKind, Recorder, RUNTIME_WORKER};

use crate::fault::{DeadPlaceError, LivenessBoard};
use crate::mailbox::Envelope;
use crate::place::PlaceId;
use crate::stats::StatsBoard;
use dpx10_sync::Mutex;

/// A message type that can fold itself into per-destination batches.
///
/// Implemented by the engine protocol (`Msg` in `dpx10-core`), which maps
/// its unit variants onto `DoneBatch`/`PullBatch`/`PullValBatch` wire
/// variants; this crate only sees the fold/drain seam.
pub trait Coalescible: Send + Sized {
    /// The per-destination aggregation buffer.
    type Batch: Send + Default;

    /// Folds `self` into `batch`; returns `Err(self)` when this message
    /// cannot be batched and must travel alone (the caller flushes the
    /// buffer first to preserve ordering).
    fn absorb(self, batch: &mut Self::Batch) -> Result<(), Self>;

    /// Messages currently held in `batch`.
    fn batch_entries(batch: &Self::Batch) -> usize;

    /// Priced payload bytes currently held in `batch` (same currency as
    /// the `wire_bytes` argument of [`crate::Transport::send`]).
    fn batch_bytes(batch: &Self::Batch) -> usize;

    /// Drains `batch` into ready-to-send messages, one per non-empty
    /// message family, each with its priced wire size. `batch` is empty
    /// afterwards.
    fn drain(batch: &mut Self::Batch) -> Vec<(Self, usize)>;
}

/// Flush thresholds of a [`CoalescingTransport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// Flush a buffer once its priced payload reaches this many bytes.
    pub max_bytes: usize,
    /// Flush a buffer once it holds this many messages.
    pub max_entries: usize,
}

impl CoalesceConfig {
    /// Default cap on messages per batch. Bounds the decode cost of one
    /// batch and keeps generated batches inside the fuzzed boundary.
    pub const MAX_ENTRIES: usize = 256;

    /// A config flushing at `max_bytes` with the default entry cap.
    pub fn bytes(max_bytes: usize) -> Self {
        CoalesceConfig {
            max_bytes: max_bytes.max(1),
            max_entries: Self::MAX_ENTRIES,
        }
    }
}

/// A [`Transport`](crate::Transport) decorator that aggregates batchable
/// messages into per-`(src, dst)` buffers and flushes them as single
/// inner sends (one wire frame on the socket backend).
pub struct CoalescingTransport<M: Coalescible> {
    inner: Arc<dyn crate::Transport<M>>,
    config: CoalesceConfig,
    /// Buffer for traffic from place `s` to place `d` at index
    /// `s * places + d`.
    bufs: Vec<Mutex<M::Batch>>,
    places: u16,
    stats: StatsBoard,
    recorder: Recorder,
}

impl<M: Coalescible> CoalescingTransport<M> {
    /// Wraps `inner` with aggregation buffers. Batch flushes are counted
    /// on `stats` ([`crate::PlaceStats::on_batch`]) and surface as
    /// [`EventKind::BatchFlush`] instants on `recorder`.
    pub fn new(
        inner: Arc<dyn crate::Transport<M>>,
        config: CoalesceConfig,
        stats: StatsBoard,
        recorder: Recorder,
    ) -> Self {
        let places = inner.num_places();
        let bufs = (0..usize::from(places) * usize::from(places))
            .map(|_| Mutex::new(M::Batch::default()))
            .collect();
        CoalescingTransport {
            inner,
            config,
            bufs,
            places,
            stats,
            recorder,
        }
    }

    fn buf(&self, src: PlaceId, dst: PlaceId) -> &Mutex<M::Batch> {
        &self.bufs[src.index() * usize::from(self.places) + dst.index()]
    }

    /// Drains the `(src, dst)` buffer into the inner transport. A dead
    /// destination drops the drained traffic — the epoch is being torn
    /// down and recovery recomputes the unacked vertices.
    fn flush_one(&self, src: PlaceId, dst: PlaceId) -> Result<(), DeadPlaceError> {
        let drained = {
            let mut batch = self.buf(src, dst).lock();
            let entries = M::batch_entries(&batch);
            if entries == 0 {
                return Ok(());
            }
            self.stats.place(src).on_batch(entries);
            if self.recorder.enabled() {
                self.recorder.instant_now(
                    src.0,
                    RUNTIME_WORKER,
                    EventKind::BatchFlush,
                    entries as u64,
                );
            }
            M::drain(&mut batch)
        };
        for (msg, wire_bytes) in drained {
            self.inner.send(src, dst, msg, wire_bytes)?;
        }
        Ok(())
    }
}

impl<M: Coalescible> crate::Transport<M> for CoalescingTransport<M> {
    fn num_places(&self) -> u16 {
        self.places
    }

    fn liveness(&self) -> &LivenessBoard {
        self.inner.liveness()
    }

    fn send(
        &self,
        src: PlaceId,
        dst: PlaceId,
        msg: M,
        wire_bytes: usize,
    ) -> Result<(), DeadPlaceError> {
        self.liveness().check(dst)?;
        let over = {
            let mut batch = self.buf(src, dst).lock();
            match msg.absorb(&mut batch) {
                Ok(()) => {
                    M::batch_bytes(&batch) >= self.config.max_bytes
                        || M::batch_entries(&batch) >= self.config.max_entries
                }
                Err(msg) => {
                    drop(batch);
                    // Unbatchable: flush the lane first so ordering
                    // against earlier batched traffic is preserved.
                    self.flush_one(src, dst)?;
                    return self.inner.send(src, dst, msg, wire_bytes);
                }
            }
        };
        if over {
            self.flush_one(src, dst)?;
        }
        Ok(())
    }

    fn try_recv(&self, at: PlaceId) -> Option<Envelope<M>> {
        self.inner.try_recv(at)
    }

    fn recv_timeout(&self, at: PlaceId, timeout: Duration) -> Option<Envelope<M>> {
        self.inner.recv_timeout(at, timeout)
    }

    fn flush(&self, at: PlaceId) {
        for d in 0..self.places {
            // Dead peers drop their lane's traffic; recovery recomputes.
            let _ = self.flush_one(at, PlaceId(d));
        }
        self.inner.flush(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::place::Topology;
    use crate::transport::{LocalTransport, Transport};

    /// Toy protocol: even numbers batch, odd numbers travel alone.
    #[derive(Debug, PartialEq)]
    enum Toy {
        Even(u64),
        Odd(u64),
        Batch(Vec<u64>),
    }

    #[derive(Default)]
    struct ToyBatch(Vec<u64>);

    impl Coalescible for Toy {
        type Batch = ToyBatch;

        fn absorb(self, batch: &mut ToyBatch) -> Result<(), Self> {
            match self {
                Toy::Even(n) => {
                    batch.0.push(n);
                    Ok(())
                }
                other => Err(other),
            }
        }

        fn batch_entries(batch: &ToyBatch) -> usize {
            batch.0.len()
        }

        fn batch_bytes(batch: &ToyBatch) -> usize {
            8 * batch.0.len()
        }

        fn drain(batch: &mut ToyBatch) -> Vec<(Self, usize)> {
            if batch.0.is_empty() {
                return Vec::new();
            }
            let items = std::mem::take(&mut batch.0);
            let bytes = 8 * items.len();
            vec![(Toy::Batch(items), bytes)]
        }
    }

    fn rig(places: u16, config: CoalesceConfig) -> (CoalescingTransport<Toy>, StatsBoard) {
        let stats = StatsBoard::new(places);
        let inner: Arc<dyn Transport<Toy>> = Arc::new(LocalTransport::new(
            Topology::flat(places),
            NetworkModel::free(),
            LivenessBoard::new(places),
            stats.clone(),
        ));
        let t = CoalescingTransport::new(inner, config, stats.clone(), Recorder::disabled());
        (t, stats)
    }

    #[test]
    fn buffers_until_byte_budget() {
        let (t, stats) = rig(2, CoalesceConfig::bytes(32));
        for n in 0..3u64 {
            t.send(PlaceId(0), PlaceId(1), Toy::Even(2 * n), 8).unwrap();
            assert!(t.try_recv(PlaceId(1)).is_none(), "buffered below budget");
        }
        // Fourth send reaches 32 priced bytes and flushes one batch.
        t.send(PlaceId(0), PlaceId(1), Toy::Even(6), 8).unwrap();
        match t.try_recv(PlaceId(1)).unwrap().msg {
            Toy::Batch(items) => assert_eq!(items, vec![0, 2, 4, 6]),
            other => panic!("expected a batch, got {other:?}"),
        }
        let snap = stats.snapshot();
        assert_eq!(snap.batches_sent, 1);
        assert_eq!(snap.batched_msgs, 4);
        // One inner send carried all four messages.
        assert_eq!(snap.messages_sent, 1);
    }

    #[test]
    fn entry_cap_flushes_regardless_of_bytes() {
        let (t, _stats) = rig(
            2,
            CoalesceConfig {
                max_bytes: usize::MAX,
                max_entries: 2,
            },
        );
        t.send(PlaceId(0), PlaceId(1), Toy::Even(0), 8).unwrap();
        assert!(t.try_recv(PlaceId(1)).is_none());
        t.send(PlaceId(0), PlaceId(1), Toy::Even(2), 8).unwrap();
        match t.try_recv(PlaceId(1)).unwrap().msg {
            Toy::Batch(items) => assert_eq!(items.len(), 2),
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn unbatchable_messages_flush_their_lane_first() {
        let (t, _stats) = rig(2, CoalesceConfig::bytes(1 << 20));
        t.send(PlaceId(0), PlaceId(1), Toy::Even(4), 8).unwrap();
        t.send(PlaceId(0), PlaceId(1), Toy::Odd(5), 8).unwrap();
        // The buffered batch must arrive before the pass-through message.
        match t.try_recv(PlaceId(1)).unwrap().msg {
            Toy::Batch(items) => assert_eq!(items, vec![4]),
            other => panic!("expected the flushed batch first, got {other:?}"),
        }
        assert_eq!(t.try_recv(PlaceId(1)).unwrap().msg, Toy::Odd(5));
    }

    #[test]
    fn idle_flush_drains_every_destination() {
        let (t, _stats) = rig(3, CoalesceConfig::bytes(1 << 20));
        t.send(PlaceId(0), PlaceId(1), Toy::Even(2), 8).unwrap();
        t.send(PlaceId(0), PlaceId(2), Toy::Even(4), 8).unwrap();
        assert!(t.try_recv(PlaceId(1)).is_none());
        t.flush(PlaceId(0));
        assert!(matches!(t.try_recv(PlaceId(1)).unwrap().msg, Toy::Batch(_)));
        assert!(matches!(t.try_recv(PlaceId(2)).unwrap().msg, Toy::Batch(_)));
    }

    #[test]
    fn dead_destination_drops_buffered_traffic() {
        let (t, _stats) = rig(2, CoalesceConfig::bytes(1 << 20));
        t.send(PlaceId(0), PlaceId(1), Toy::Even(2), 8).unwrap();
        t.liveness().kill(PlaceId(1));
        // New sends fail fast; the flush swallows the dead lane.
        assert!(t.send(PlaceId(0), PlaceId(1), Toy::Even(4), 8).is_err());
        t.flush(PlaceId(0));
        assert!(t.try_recv(PlaceId(1)).is_none());
    }

    #[test]
    fn flush_records_batch_events() {
        let stats = StatsBoard::new(2);
        let inner: Arc<dyn Transport<Toy>> = Arc::new(LocalTransport::new(
            Topology::flat(2),
            NetworkModel::free(),
            LivenessBoard::new(2),
            stats.clone(),
        ));
        let recorder = Recorder::new(2);
        let t = CoalescingTransport::new(
            inner,
            CoalesceConfig::bytes(1 << 20),
            stats,
            recorder.clone(),
        );
        t.send(PlaceId(0), PlaceId(1), Toy::Even(2), 8).unwrap();
        t.send(PlaceId(0), PlaceId(1), Toy::Even(4), 8).unwrap();
        t.flush(PlaceId(0));
        let trace = recorder.drain();
        let flushes: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::BatchFlush)
            .collect();
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].arg, 2, "batch occupancy at flush time");
    }
}

//! Per-place runtime counters.
//!
//! Every engine-visible effect — vertices computed, messages sent, bytes
//! moved, cache hits — is counted here with relaxed atomics (hot-path
//! friendly) and read out as a consistent-enough [`StatsSnapshot`] once a
//! run has quiesced. The figure harness derives its communication columns
//! from these counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::place::PlaceId;

/// Counters for a single place.
#[derive(Debug, Default)]
pub struct PlaceStats {
    /// Vertices computed (published) here — the same meaning on every
    /// backend.
    pub tasks_run: AtomicU64,
    /// Messages sent from this place to another place.
    pub messages_sent: AtomicU64,
    /// Payload bytes of those messages.
    pub bytes_sent: AtomicU64,
    /// Simulated network time accumulated by this place's sends, in ns.
    pub net_time_ns: AtomicU64,
    /// Remote-value cache hits (paper §VI-C cache list).
    pub cache_hits: AtomicU64,
    /// Remote-value cache misses that forced a pull round-trip.
    pub cache_misses: AtomicU64,
    /// Coalesced batches flushed to the transport from this place.
    pub batches_sent: AtomicU64,
    /// Individual protocol messages carried inside those batches.
    pub batched_msgs: AtomicU64,
    /// Pull requests issued by this place (cache misses that actually
    /// went on the wire — the dedup hub folds repeat waiters).
    pub pulls_sent: AtomicU64,
    /// Pull requests the dedup hub folded into an already-outstanding
    /// pull instead of re-issuing.
    pub pulls_deduped: AtomicU64,
    /// Eager value pushes sent by this place (push comms mode).
    pub pushes_sent: AtomicU64,
    /// Parked gathers satisfied by a pinned push instead of a pull
    /// round-trip.
    pub pull_roundtrips_avoided: AtomicU64,
}

impl PlaceStats {
    /// These counters in the order a socket place puts them on the
    /// wire, with `busy_ns` — the place's compute time, which is not a
    /// substrate counter — in seventh position.
    pub fn to_counters(&self, busy_ns: u64) -> [u64; STAT_COUNTERS] {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        [
            read(&self.tasks_run),
            read(&self.messages_sent),
            read(&self.bytes_sent),
            read(&self.net_time_ns),
            read(&self.cache_hits),
            read(&self.cache_misses),
            busy_ns,
            read(&self.batches_sent),
            read(&self.batched_msgs),
            read(&self.pulls_sent),
            read(&self.pulls_deduped),
            read(&self.pushes_sent),
            read(&self.pull_roundtrips_avoided),
        ]
    }

    /// Records one executed task.
    #[inline]
    pub fn on_task(&self) {
        self.on_tasks(1);
    }

    /// Records `n` executed tasks.
    #[inline]
    pub fn on_tasks(&self, n: u64) {
        self.tasks_run.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one outbound message of `bytes` costing `net_time`.
    #[inline]
    pub fn on_send(&self, bytes: usize, net_time: Duration) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.net_time_ns
            .fetch_add(net_time.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records a cache hit.
    #[inline]
    pub fn on_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache miss.
    #[inline]
    pub fn on_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one flushed coalescing batch carrying `entries` messages.
    #[inline]
    pub fn on_batch(&self, entries: usize) {
        self.batches_sent.fetch_add(1, Ordering::Relaxed);
        self.batched_msgs
            .fetch_add(entries as u64, Ordering::Relaxed);
    }

    /// Records one pull request put on the wire.
    #[inline]
    pub fn on_pull_sent(&self) {
        self.pulls_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a pull folded into an outstanding one by the dedup hub.
    #[inline]
    pub fn on_pull_deduped(&self) {
        self.pulls_deduped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one eager value push put on the wire.
    #[inline]
    pub fn on_push_sent(&self) {
        self.pushes_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a parked gather satisfied by a pinned push.
    #[inline]
    pub fn on_pull_roundtrip_avoided(&self) {
        self.pull_roundtrips_avoided.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared board of per-place counters.
#[derive(Clone)]
pub struct StatsBoard {
    places: Arc<[PlaceStats]>,
}

impl StatsBoard {
    /// Creates a board for `places` places.
    pub fn new(places: u16) -> Self {
        let v: Vec<PlaceStats> = (0..places).map(|_| PlaceStats::default()).collect();
        StatsBoard { places: v.into() }
    }

    /// The counters of one place.
    #[inline]
    pub fn place(&self, place: PlaceId) -> &PlaceStats {
        &self.places[place.index()]
    }

    /// Every place's counters summed, in [`PlaceStats::to_counters`]
    /// order (summing is how counter arrays merge).
    pub fn to_counters(&self) -> [u64; STAT_COUNTERS] {
        let mut sum = [0; STAT_COUNTERS];
        for place in self.places.iter() {
            for (total, counter) in sum.iter_mut().zip(place.to_counters(0)) {
                *total += counter;
            }
        }
        sum
    }

    /// Aggregates all places into a snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_counters(self.to_counters()).0
    }
}

/// Aggregated counters across all places.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total vertices computed.
    pub tasks_run: u64,
    /// Total inter-place messages.
    pub messages_sent: u64,
    /// Total payload bytes moved between places.
    pub bytes_sent: u64,
    /// Total simulated network time (sum over messages; not wall time).
    pub net_time: Duration,
    /// Remote-value cache hits.
    pub cache_hits: u64,
    /// Remote-value cache misses.
    pub cache_misses: u64,
    /// Coalesced batches flushed to the transport.
    pub batches_sent: u64,
    /// Individual protocol messages carried inside those batches.
    pub batched_msgs: u64,
    /// Pull requests issued (the request leg of pull round-trips).
    pub pulls_sent: u64,
    /// Pulls folded into an outstanding request by the dedup hub.
    pub pulls_deduped: u64,
    /// Eager value pushes sent (push comms mode).
    pub pushes_sent: u64,
    /// Parked gathers satisfied by a pinned push instead of a pull
    /// round-trip.
    pub pull_roundtrips_avoided: u64,
}

/// How many counters a place reports when an epoch ends: the twelve of
/// a [`StatsSnapshot`] plus its compute time.
pub const STAT_COUNTERS: usize = 13;

impl StatsSnapshot {
    /// Inverse of [`PlaceStats::to_counters`]: the snapshot and the busy
    /// nanoseconds.
    pub fn from_counters(c: [u64; STAT_COUNTERS]) -> (Self, u64) {
        let snapshot = StatsSnapshot {
            tasks_run: c[0],
            messages_sent: c[1],
            bytes_sent: c[2],
            net_time: Duration::from_nanos(c[3]),
            cache_hits: c[4],
            cache_misses: c[5],
            batches_sent: c[7],
            batched_msgs: c[8],
            pulls_sent: c[9],
            pulls_deduped: c[10],
            pushes_sent: c[11],
            pull_roundtrips_avoided: c[12],
        };
        (snapshot, c[6])
    }

    /// Cache hit rate in `[0, 1]`; `None` when the cache saw no traffic.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate() {
        let board = StatsBoard::new(2);
        board.place(PlaceId(0)).on_task();
        board.place(PlaceId(1)).on_task();
        board
            .place(PlaceId(1))
            .on_send(128, Duration::from_micros(5));
        let snap = board.snapshot();
        assert_eq!(snap.tasks_run, 2);
        assert_eq!(snap.messages_sent, 1);
        assert_eq!(snap.bytes_sent, 128);
        assert_eq!(snap.net_time, Duration::from_micros(5));
    }

    #[test]
    fn hit_rate() {
        let board = StatsBoard::new(1);
        assert_eq!(board.snapshot().cache_hit_rate(), None);
        board.place(PlaceId(0)).on_cache_hit();
        board.place(PlaceId(0)).on_cache_hit();
        board.place(PlaceId(0)).on_cache_miss();
        let rate = board.snapshot().cache_hit_rate().unwrap();
        assert!((rate - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn batch_counters_aggregate() {
        let board = StatsBoard::new(2);
        board.place(PlaceId(0)).on_batch(3);
        board.place(PlaceId(1)).on_batch(5);
        let snap = board.snapshot();
        assert_eq!(snap.batches_sent, 2);
        assert_eq!(snap.batched_msgs, 8);
    }

    #[test]
    fn clones_share_counters() {
        let a = StatsBoard::new(1);
        let b = a.clone();
        a.place(PlaceId(0)).on_task();
        assert_eq!(b.snapshot().tasks_run, 1);
    }
}

//! The [`Recorder`] handle engines carry, and the drained [`Trace`].
//!
//! A `Recorder` is a cheap clonable handle. Disabled (the default) it
//! holds no storage and every record call is a single branch on an
//! `Option` — the measured cost on the fig-10 simulator workload is
//! below the 2% budget documented in DESIGN.md. Enabled, it owns one
//! [`Ring`](crate::ring::Ring) per place and a monotonic anchor that
//! real engines stamp against; the simulator bypasses the anchor and
//! records its virtual clock through the same API, so both produce the
//! same schema.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{Event, EventKind};
use crate::ring::Ring;

/// Default per-place ring capacity (events) when none is given.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

struct Inner {
    rings: Vec<Ring>,
    anchor: Instant,
    echo: AtomicBool,
}

/// A clonable flight-recorder handle. See the module docs.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(inner) => f
                .debug_struct("Recorder")
                .field("places", &inner.rings.len())
                .finish(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A recorder that records nothing; every call is a no-op branch.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder with one [`DEFAULT_CAPACITY`]-event ring per
    /// place.
    pub fn new(places: usize) -> Recorder {
        Recorder::with_capacity(places, DEFAULT_CAPACITY)
    }

    /// An enabled recorder with `capacity` events of history per place.
    pub fn with_capacity(places: usize, capacity: usize) -> Recorder {
        let inner = Inner {
            rings: (0..places.max(1)).map(|_| Ring::new(capacity)).collect(),
            anchor: Instant::now(),
            echo: AtomicBool::new(false),
        };
        Recorder {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Whether this recorder actually records. Engines may use this to
    /// skip timestamping work entirely.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// When set, every recorded event is also printed to stderr as a
    /// compact one-liner — the successor of the old
    /// `DPX10_SOCKET_TRACE=1` eprintln tracing.
    pub fn set_echo(&self, on: bool) {
        if let Some(inner) = &self.inner {
            inner.echo.store(on, Ordering::Relaxed);
        }
    }

    /// Nanoseconds since this recorder was created (0 when disabled).
    /// Real engines use this as their event clock.
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.anchor.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Records a span `[start_ns, end_ns]` on `place`/`worker`.
    pub fn span(
        &self,
        place: u16,
        worker: u16,
        kind: EventKind,
        start_ns: u64,
        end_ns: u64,
        arg: u64,
    ) {
        self.record(Event {
            ts_ns: start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            place,
            worker,
            kind,
            arg,
        });
    }

    /// Records an instant at an explicit timestamp (the simulator's
    /// virtual clock, or a timestamp captured earlier).
    pub fn instant(&self, place: u16, worker: u16, kind: EventKind, ts_ns: u64, arg: u64) {
        self.record(Event {
            ts_ns,
            dur_ns: 0,
            place,
            worker,
            kind,
            arg,
        });
    }

    /// Records an instant stamped with [`now_ns`](Recorder::now_ns).
    pub fn instant_now(&self, place: u16, worker: u16, kind: EventKind, arg: u64) {
        if let Some(inner) = &self.inner {
            let ts = inner.anchor.elapsed().as_nanos() as u64;
            self.instant(place, worker, kind, ts, arg);
        }
    }

    fn record(&self, ev: Event) {
        let Some(inner) = &self.inner else { return };
        let Some(ring) = inner.rings.get(ev.place as usize) else {
            return; // out-of-range place: drop rather than misfile
        };
        ring.push(ev);
        if inner.echo.load(Ordering::Relaxed) {
            eprintln!(
                "[dpx10-obs] p{} w{} {} ts={}ns dur={}ns arg={}",
                ev.place,
                ev.worker,
                ev.kind.name(),
                ev.ts_ns,
                ev.dur_ns,
                ev.arg
            );
        }
    }

    /// Reads out everything recorded so far, merged across places and
    /// sorted by start time. Call at quiesce (end of run).
    pub fn drain(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in &inner.rings {
            let (evs, d) = ring.drain();
            events.extend(evs);
            dropped += d;
        }
        events.sort_by_key(|e| (e.ts_ns, e.place, e.worker, e.kind as u8));
        Trace { events, dropped }
    }
}

/// Everything a recorder captured: the surviving events plus how many
/// were lost to ring wrap-around.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Surviving events, sorted by start time.
    pub events: Vec<Event>,
    /// Events lost to wrap-around (the ring keeps the latest window).
    pub dropped: u64,
}

impl Trace {
    /// True when nothing was recorded and nothing dropped.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// True when every recorded event survived (exporters and oracles
    /// can reason about completeness).
    pub fn complete(&self) -> bool {
        self.dropped == 0
    }

    /// Number of events of `kind` in the trace.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// An FNV-1a digest of every drained event, in drain order, and of
    /// the drop count. Two simulated runs of one seed and configuration
    /// must agree on it: the chaos harness checks replays with it and
    /// the simulator's golden table pins it.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let words = self.events.iter().flat_map(|e| e.to_words());
        words.chain([self.dropped]).fold(FNV_OFFSET, |h, word| {
            word.to_le_bytes()
                .iter()
                .fold(h, |h, &byte| (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        r.instant_now(0, 0, EventKind::CacheHit, 0);
        r.span(0, 0, EventKind::VertexCompute, 0, 10, 0);
        assert_eq!(r.now_ns(), 0);
        assert!(r.drain().is_empty());
    }

    #[test]
    fn records_and_sorts_across_places() {
        let r = Recorder::with_capacity(2, 16);
        r.instant(1, 0, EventKind::CacheHit, 50, 0);
        r.span(0, 2, EventKind::VertexCompute, 10, 30, 7);
        let trace = r.drain();
        assert!(trace.complete());
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].ts_ns, 10);
        assert_eq!(trace.events[0].dur_ns, 20);
        assert_eq!(trace.events[1].place, 1);
        assert_eq!(trace.count(EventKind::VertexCompute), 1);
    }

    #[test]
    fn out_of_range_place_is_dropped_silently() {
        let r = Recorder::with_capacity(1, 16);
        r.instant(9, 0, EventKind::CacheHit, 0, 0);
        assert!(r.drain().is_empty());
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let send = Event {
            ts_ns: 0,
            dur_ns: 0,
            place: 0,
            worker: 0,
            kind: EventKind::MsgSend,
            arg: 8,
        };
        let trace = |events: &[(u64, u16)]| Trace {
            events: events
                .iter()
                .map(|&(ts_ns, place)| Event {
                    ts_ns,
                    place,
                    ..send
                })
                .collect(),
            dropped: 0,
        };
        let a = trace(&[(1, 0), (2, 1)]);
        assert_eq!(a.fingerprint(), trace(&[(1, 0), (2, 1)]).fingerprint());
        let c = trace(&[(2, 1), (1, 0)]);
        assert_ne!(a.fingerprint(), c.fingerprint(), "order must matter");
        let d = trace(&[(1, 0), (2, 2)]);
        assert_ne!(a.fingerprint(), d.fingerprint(), "content must matter");
        let e = Trace {
            dropped: 1,
            ..a.clone()
        };
        assert_ne!(a.fingerprint(), e.fingerprint(), "drops must matter");
    }

    #[test]
    fn clones_share_storage() {
        let r = Recorder::with_capacity(1, 16);
        let r2 = r.clone();
        r2.instant(0, 0, EventKind::Fault, 5, 1);
        assert_eq!(r.drain().events.len(), 1);
    }
}

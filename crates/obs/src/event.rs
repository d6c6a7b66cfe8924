//! The event model of the flight recorder.
//!
//! One [`Event`] is either a *span* (an interval with a duration —
//! vertex compute, a snapshot exchange, a recovery pass) or an
//! *instant* (a point — a ready-list pop, a cache hit, a frame hitting
//! the wire). Every event carries a place and a worker so exporters can
//! lay events out on per-place, per-worker tracks, plus one free `arg`
//! word whose meaning depends on the kind (bytes, epoch, packed vertex
//! id).
//!
//! Timestamps are nanoseconds on whatever clock the producer uses: the
//! real engines stamp against the recorder's monotonic anchor, the
//! simulator stamps its virtual clock directly — one schema for both,
//! so a simulated trace and a real trace load in the same tools.

/// What an [`Event`] describes. Spans ([`EventKind::is_span`]) carry a
/// duration; everything else is an instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A vertex compute occupying a worker (span; arg = packed vertex id).
    VertexCompute = 1,
    /// A ready-list pop that yielded work (instant; arg = local index).
    ReadyPop = 2,
    /// A remote dependency served from the FIFO cache (instant).
    CacheHit = 3,
    /// A remote dependency missing from the cache (instant; a pull
    /// follows).
    CacheMiss = 4,
    /// A pull request issued to a dependency's owner (instant; arg =
    /// packed vertex id). Pair with [`EventKind::PullFill`] of the same
    /// arg for the round-trip.
    PullIssue = 5,
    /// A pull reply filled parked vertices (instant; arg = packed
    /// vertex id).
    PullFill = 6,
    /// A message handed to a modelled transport (instant; arg = wire
    /// bytes).
    MsgSend = 7,
    /// A frame encoded and written to a real socket (instant; arg =
    /// framed bytes).
    FrameSend = 8,
    /// A frame read off a real socket (instant; arg = payload bytes).
    FrameRecv = 9,
    /// A slot snapshot built and exchanged for recovery or run end
    /// (span; arg = cells carried).
    Snapshot = 10,
    /// One recovery pass of the paper's §VI-D protocol (span; arg =
    /// the epoch that failed).
    Recovery = 11,
    /// An epoch began (instant; arg = epoch).
    EpochStart = 12,
    /// Control plane: a `Stop` was sent or obeyed (instant; arg = epoch).
    CtlStop = 13,
    /// Control plane: an `Abort` was sent or obeyed (instant; arg = epoch).
    CtlAbort = 14,
    /// Control plane: a `Resume` was sent or obeyed (instant; arg = the
    /// new epoch).
    CtlResume = 15,
    /// Control plane: a planned `Die` was fired or obeyed (instant; arg
    /// = the victim place, or the epoch when obeyed).
    CtlDie = 16,
    /// Control plane: the run-over `Done` release (instant).
    CtlDone = 17,
    /// A fault was detected and the epoch abandoned (instant; arg =
    /// epoch).
    Fault = 18,
    /// The progress watchdog declared a stall (instant; arg = finished
    /// count).
    Stalled = 19,
    /// A coalescing buffer flushed a batch to the transport (instant;
    /// arg = entries carried, i.e. the batch occupancy at flush time).
    BatchFlush = 20,
    /// Multi-job scheduler: a job's driver was admitted on this place
    /// (instant; arg = job id).
    JobAdmit = 21,
    /// Multi-job scheduler: a job's driver completed on this place
    /// (instant; arg = job id).
    JobDone = 22,
    /// Elastic mesh: a place joined at a planned epoch boundary, which
    /// stops the world from the boundary to the next epoch's start
    /// (span; arg = the joiner's place id).
    Join = 23,
    /// Elastic mesh: a place drained out at a planned epoch boundary,
    /// from the boundary to the next epoch's start (span; arg = the
    /// drained place id).
    Drain = 24,
}

impl EventKind {
    /// Every kind, for exporters and tests.
    pub const ALL: [EventKind; 24] = [
        EventKind::VertexCompute,
        EventKind::ReadyPop,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::PullIssue,
        EventKind::PullFill,
        EventKind::MsgSend,
        EventKind::FrameSend,
        EventKind::FrameRecv,
        EventKind::Snapshot,
        EventKind::Recovery,
        EventKind::EpochStart,
        EventKind::CtlStop,
        EventKind::CtlAbort,
        EventKind::CtlResume,
        EventKind::CtlDie,
        EventKind::CtlDone,
        EventKind::Fault,
        EventKind::Stalled,
        EventKind::BatchFlush,
        EventKind::JobAdmit,
        EventKind::JobDone,
        EventKind::Join,
        EventKind::Drain,
    ];

    /// Whether events of this kind carry a meaningful duration.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::VertexCompute
                | EventKind::Snapshot
                | EventKind::Recovery
                | EventKind::Join
                | EventKind::Drain
        )
    }

    /// The stable exporter name (also the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::VertexCompute => "vertex-compute",
            EventKind::ReadyPop => "ready-pop",
            EventKind::CacheHit => "cache-hit",
            EventKind::CacheMiss => "cache-miss",
            EventKind::PullIssue => "pull-issue",
            EventKind::PullFill => "pull-fill",
            EventKind::MsgSend => "msg-send",
            EventKind::FrameSend => "frame-send",
            EventKind::FrameRecv => "frame-recv",
            EventKind::Snapshot => "snapshot",
            EventKind::Recovery => "recovery",
            EventKind::EpochStart => "epoch-start",
            EventKind::CtlStop => "ctl-stop",
            EventKind::CtlAbort => "ctl-abort",
            EventKind::CtlResume => "ctl-resume",
            EventKind::CtlDie => "ctl-die",
            EventKind::CtlDone => "ctl-done",
            EventKind::Fault => "fault",
            EventKind::Stalled => "stalled",
            EventKind::BatchFlush => "batch-flush",
            EventKind::JobAdmit => "job-admit",
            EventKind::JobDone => "job-done",
            EventKind::Join => "join",
            EventKind::Drain => "drain",
        }
    }

    /// Decodes a packed kind byte; `None` for unknown values (torn or
    /// corrupt slots).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Self::ALL.iter().copied().find(|k| *k as u8 == v)
    }

    /// Looks a kind up by its exporter [`name`](EventKind::name).
    pub fn from_name(name: &str) -> Option<EventKind> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// The worker id used for events not attributable to a specific worker
/// thread (transport activity, control protocol, watchdogs). Exporters
/// show it as a dedicated "runtime" track per place.
pub const RUNTIME_WORKER: u16 = u16::MAX;

/// One recorded event. 32 bytes; packs to four `u64` ring-buffer words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Start time, nanoseconds on the producer's clock.
    pub ts_ns: u64,
    /// Duration in nanoseconds; zero for instants.
    pub dur_ns: u64,
    /// The place the event happened at.
    pub place: u16,
    /// The worker track within the place ([`RUNTIME_WORKER`] for
    /// runtime-level events).
    pub worker: u16,
    /// What happened.
    pub kind: EventKind,
    /// Kind-dependent payload (bytes, epoch, packed vertex id…).
    pub arg: u64,
}

impl Event {
    /// End time of the event (`ts_ns` for instants).
    pub fn end_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.dur_ns)
    }

    /// Packs the event into the ring buffer's four payload words.
    pub(crate) fn to_words(self) -> [u64; 4] {
        let meta =
            (self.kind as u64) | (u64::from(self.place) << 8) | (u64::from(self.worker) << 24);
        [self.ts_ns, self.dur_ns, meta, self.arg]
    }

    /// Unpacks four ring-buffer words; `None` if the kind byte is not a
    /// known kind (a torn slot read concurrently with a writer).
    pub(crate) fn from_words(w: [u64; 4]) -> Option<Event> {
        let kind = EventKind::from_u8((w[2] & 0xff) as u8)?;
        Some(Event {
            ts_ns: w[0],
            dur_ns: w[1],
            place: ((w[2] >> 8) & 0xffff) as u16,
            worker: ((w[2] >> 24) & 0xffff) as u16,
            kind,
            arg: w[3],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip() {
        let ev = Event {
            ts_ns: 123_456_789,
            dur_ns: 42,
            place: 513,
            worker: RUNTIME_WORKER,
            kind: EventKind::Snapshot,
            arg: u64::MAX,
        };
        assert_eq!(Event::from_words(ev.to_words()), Some(ev));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert_eq!(Event::from_words([0, 0, 0xff, 0]), None);
        assert_eq!(Event::from_words([0, 0, 0, 0]), None);
    }

    #[test]
    fn kind_names_are_unique_and_reversible() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn span_classification() {
        assert!(EventKind::VertexCompute.is_span());
        assert!(EventKind::Recovery.is_span());
        assert!(!EventKind::CacheHit.is_span());
    }
}

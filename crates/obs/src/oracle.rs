//! Trace-backed invariant checks used by the chaos harness.
//!
//! These run over raw [`Event`]s (before export). Both checks are only
//! meaningful on a *complete* trace (`Trace::complete()`); the harness
//! skips them when the ring wrapped, because a missing container span
//! could make well-nested children look orphaned.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

/// Spans of one track as `(start, end, label)`, by track.
type TrackSpans<L> = BTreeMap<(u16, u16), Vec<(u64, u64, L)>>;

/// The one span-nesting check, behind [`check_span_nesting`] and
/// [`chrome::check_nesting`](crate::chrome::check_nesting). `spans` are
/// `(track, start, end, label)`. Per track, sorted by start ascending
/// and, for equal starts, longest first (so the container precedes the
/// contained), a stack of open ends finds the first span that partially
/// overlaps an enclosing one; `describe(track, start, end,
/// enclosing_end, label)` words the error.
pub(crate) fn check_tracks<L>(
    spans: impl Iterator<Item = ((u16, u16), u64, u64, L)>,
    describe: impl Fn((u16, u16), u64, u64, u64, L) -> String,
) -> Result<(), String> {
    let mut tracks = TrackSpans::new();
    for (track, start, end, label) in spans {
        tracks.entry(track).or_default().push((start, end, label));
    }
    for (track, mut spans) in tracks {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<u64> = Vec::new();
        for (start, end, label) in spans {
            while stack.last().is_some_and(|&top| start >= top) {
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                if end > top {
                    return Err(describe(track, start, end, top, label));
                }
            }
            stack.push(end);
        }
    }
    Ok(())
}

/// Checks that spans nest properly per `(place, worker)` track: any two
/// spans on one track are disjoint or one contains the other. A partial
/// overlap means an engine attributed two overlapping computes to one
/// worker — a recording bug or a scheduling bug.
pub fn check_span_nesting(events: &[Event]) -> Result<(), String> {
    let spans = events
        .iter()
        .filter(|ev| ev.kind.is_span())
        .map(|ev| ((ev.place, ev.worker), ev.ts_ns, ev.end_ns(), ev.kind));
    check_tracks(spans, |(place, worker), start, end, top, kind| {
        format!(
            "place {place} worker {worker}: {} span [{start}ns, {end}ns] \
             partially overlaps an enclosing span ending at {top}ns",
            kind.name()
        )
    })
}

/// Checks that the number of recovery spans in the trace matches the
/// number of recoveries the engine reported. `reported` is
/// `RunReport::recoveries.len()`.
pub fn check_recovery_count(events: &[Event], reported: usize) -> Result<(), String> {
    let traced = events
        .iter()
        .filter(|e| e.kind == EventKind::Recovery)
        .count();
    if traced == reported {
        Ok(())
    } else {
        Err(format!(
            "trace has {traced} recovery span(s) but the engine reported {reported}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(place: u16, worker: u16, ts: u64, dur: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: dur,
            place,
            worker,
            kind: EventKind::VertexCompute,
            arg: 0,
        }
    }

    #[test]
    fn disjoint_and_nested_pass() {
        let events = vec![
            span(0, 0, 0, 10),
            span(0, 0, 20, 10),
            span(0, 1, 5, 100),
            span(0, 1, 10, 20), // nested inside the previous
            span(1, 0, 0, 1000),
        ];
        assert!(check_span_nesting(&events).is_ok());
    }

    #[test]
    fn partial_overlap_fails() {
        let events = vec![span(0, 3, 0, 100), span(0, 3, 50, 100)];
        let err = check_span_nesting(&events).unwrap_err();
        assert!(err.contains("place 0 worker 3"), "{err}");
    }

    #[test]
    fn recovery_count_matches() {
        let rec = Event {
            ts_ns: 0,
            dur_ns: 5,
            place: 0,
            worker: 0,
            kind: EventKind::Recovery,
            arg: 0,
        };
        assert!(check_recovery_count(&[rec], 1).is_ok());
        assert!(check_recovery_count(&[rec], 0).is_err());
        assert!(check_recovery_count(&[], 0).is_ok());
    }
}

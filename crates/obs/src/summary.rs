//! Human-readable renderings of a trace.
//!
//! The per-place phase summary aggregates a trace into one row per
//! `(place, kind)`: how many events of that kind happened there and how
//! much span time they cover. This is the `dpx10 trace summarize`
//! output and the EXPERIMENTS.md artifact format. The activity
//! [`timeline`] is `dpx10 run --timeline`'s.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::chrome::ChromeEvent;
use crate::event::EventKind;
use crate::recorder::Trace;

/// One aggregated row of the phase summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    /// Place the events happened at.
    pub place: u16,
    /// Event name (an [`EventKind::name`](crate::EventKind::name) for
    /// recorder-produced traces).
    pub name: String,
    /// Number of events.
    pub count: u64,
    /// Summed span duration in nanoseconds (0 for instants).
    pub total_ns: u64,
}

fn rows_from(iter: impl Iterator<Item = (u16, String, u64)>) -> Vec<PhaseRow> {
    let mut agg: BTreeMap<(u16, String), (u64, u64)> = BTreeMap::new();
    for (place, name, dur) in iter {
        let e = agg.entry((place, name)).or_insert((0, 0));
        e.0 += 1;
        e.1 += dur;
    }
    agg.into_iter()
        .map(|((place, name), (count, total_ns))| PhaseRow {
            place,
            name,
            count,
            total_ns,
        })
        .collect()
}

/// Aggregates a drained [`Trace`] into phase rows, sorted by place then
/// name.
pub fn rows(trace: &Trace) -> Vec<PhaseRow> {
    rows_from(
        trace
            .events
            .iter()
            .map(|e| (e.place, e.kind.name().to_string(), e.dur_ns)),
    )
}

/// Aggregates parsed Chrome events (metadata records excluded) into
/// phase rows.
pub fn rows_from_chrome(events: &[ChromeEvent]) -> Vec<PhaseRow> {
    rows_from(
        events
            .iter()
            .filter(|e| e.ph != "M")
            .map(|e| (e.pid, e.name.clone(), e.dur_ns)),
    )
}

fn fmt_ns(ns: u64) -> String {
    if ns == 0 {
        "-".to_string()
    } else if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// Renders phase rows as an aligned text table; `dropped` (if nonzero)
/// is reported on a trailing line.
pub fn render(rows: &[PhaseRow], dropped: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>5}  {:<16} {:>10} {:>12}\n",
        "place", "phase", "count", "total"
    ));
    let mut last_place = None;
    for row in rows {
        if last_place.is_some() && last_place != Some(row.place) {
            out.push('\n');
        }
        last_place = Some(row.place);
        out.push_str(&format!(
            "{:>5}  {:<16} {:>10} {:>12}\n",
            row.place,
            row.name,
            row.count,
            fmt_ns(row.total_ns)
        ));
    }
    if rows.is_empty() {
        out.push_str("(no events)\n");
    }
    if dropped > 0 {
        out.push_str(&format!(
            "\n{dropped} event(s) dropped (ring wrapped; keep the latest window)\n"
        ));
    }
    out
}

/// Renders an ASCII activity timeline of a trace: one row per place,
/// `buckets` time buckets wide, each cell as bright as the number of
/// vertex computes that ended in its bucket.
///
/// ```text
/// place   0 |@@%#=-:.    |
/// place   1 |  .:=+#%@%=.|
/// ```
pub fn timeline(trace: &Trace, buckets: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    assert!(buckets > 0);
    let finishes: Vec<(usize, u64)> = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::VertexCompute)
        .map(|e| (usize::from(e.place), e.end_ns()))
        .collect();
    let (Some(nplaces), Some(t_end)) = (
        finishes.iter().map(|&(p, _)| p + 1).max(),
        finishes.iter().map(|&(_, t)| t.max(1)).max(),
    ) else {
        return String::from("(no finish events recorded)\n");
    };
    let mut counts = vec![vec![0u64; buckets]; nplaces];
    for &(p, t) in &finishes {
        let b = (u128::from(t) * buckets as u128 / (u128::from(t_end) + 1)) as usize;
        counts[p][b.min(buckets - 1)] += 1;
    }
    let peak = counts.iter().flatten().copied().max().unwrap_or(1).max(1);
    let mut out = format!(
        "activity timeline ({} finishes over {:?}; peak {peak} per bucket)\n",
        finishes.len(),
        Duration::from_nanos(t_end),
    );
    for (p, row) in counts.iter().enumerate() {
        let cells: String = row
            .iter()
            .map(|&c| RAMP[(c * (RAMP.len() as u64 - 1)).div_ceil(peak) as usize] as char)
            .collect();
        out.push_str(&format!("place {p:>3} |{cells}|\n"));
    }
    if trace.dropped > 0 {
        out.push_str(&format!(
            "({} events dropped: the ring wrapped, so the timeline starts late)\n",
            trace.dropped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn aggregates_and_renders() {
        let trace = Trace {
            events: vec![
                Event {
                    ts_ns: 0,
                    dur_ns: 100,
                    place: 0,
                    worker: 0,
                    kind: EventKind::VertexCompute,
                    arg: 0,
                },
                Event {
                    ts_ns: 200,
                    dur_ns: 300,
                    place: 0,
                    worker: 1,
                    kind: EventKind::VertexCompute,
                    arg: 1,
                },
                Event {
                    ts_ns: 50,
                    dur_ns: 0,
                    place: 1,
                    worker: 0,
                    kind: EventKind::CacheHit,
                    arg: 0,
                },
            ],
            dropped: 3,
        };
        let r = rows(&trace);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].place, 0);
        assert_eq!(r[0].count, 2);
        assert_eq!(r[0].total_ns, 400);
        assert_eq!(r[1].name, "cache-hit");
        let text = render(&r, trace.dropped);
        assert!(text.contains("vertex-compute"));
        assert!(text.contains("3 event(s) dropped"));
    }

    #[test]
    fn timeline_renders_rows_per_place() {
        let r = crate::Recorder::with_capacity(2, 64);
        for (place, from) in [(0, 0), (1, 5)] {
            for k in from..10 {
                r.span(place, 0, EventKind::VertexCompute, k * 100, k * 100 + 50, 0);
            }
        }
        let s = timeline(&r.drain(), 10);
        assert!(s.starts_with("activity timeline (15 finishes"), "{s}");
        assert!(s.contains("place   0 |"));
        // Place 1 is idle early: its row starts blank.
        let row1 = s.lines().find(|l| l.starts_with("place   1")).unwrap();
        assert!(row1.contains("| "), "{row1}");
        assert!(!s.contains("dropped"), "{s}");
    }

    #[test]
    fn empty_timeline_is_graceful() {
        let s = timeline(&Trace::default(), 5);
        assert_eq!(s, "(no finish events recorded)\n");
    }

    #[test]
    fn wrapped_ring_prints_the_drop_line() {
        let r = crate::Recorder::with_capacity(1, 8);
        for k in 1..=10 {
            r.span(0, 0, EventKind::VertexCompute, k * 10, k * 10 + 5, 0);
        }
        let s = timeline(&r.drain(), 8);
        assert!(s.contains("(8 finishes"), "{s}");
        assert!(s.contains("(2 events dropped"), "{s}");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(0), "-");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.500s");
    }
}

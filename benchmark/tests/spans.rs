//! Benchmark-side spans: nesting, self time and the trace file.

use std::time::{Duration, Instant};

use dpxbench::spans::{self_times, Span, Spans};

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s".to_string(),
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_is_span_minus_direct_children() {
    // root 0..100; children 10..40 and 50..70; grandchild 15..25.
    let spans = [
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(15, 25, Some(1)),
        span(50, 70, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    // Self times of a tree add up to its root's duration.
    assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
}

#[test]
fn time_nests_children_under_the_open_span() {
    let mut spans = Spans::new("w", Instant::now());
    let (value, took) = spans.time("outer", |spans| {
        spans.time("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        7
    });
    assert_eq!(value, 7);
    let recorded = spans.spans();
    assert_eq!(recorded.len(), 2);
    assert_eq!(recorded[0].parent, None);
    assert_eq!(recorded[1].parent, Some(0));
    assert!(recorded[1].dur_ns() >= 2_000_000);
    assert!(recorded[0].dur_ns() >= recorded[1].dur_ns());
    assert_eq!(took.as_nanos() as u64, recorded[0].dur_ns());
}

#[test]
fn chrome_trace_loads_with_the_obs_parser() {
    let mut spans = Spans::new("swlag-\"quoted\"", Instant::now());
    spans.time("run", |spans| {
        spans.time("probe:dag.dependencies_ns", |_| ());
    });
    spans.time("native", |_| ());
    let json = spans.to_chrome_json();
    let events = dpx10_obs::chrome::parse(&json).expect("trace is valid trace_event JSON");
    assert_eq!(events.len(), 3);
    dpx10_obs::chrome::check_nesting(&events).expect("spans nest");
}

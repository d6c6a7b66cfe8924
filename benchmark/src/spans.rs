//! Benchmark-side spans: the benchmark's own stopwatch and trace.
//!
//! Every call into a layer is timed through [`Spans::time`], so the
//! number a metric reports and the span the trace shows are the same
//! measurement. Spans live in memory and are written as one Chrome
//! `trace_event` file when the workload ends. Nothing inside the crates
//! under test records into this; in-program spans are a later change.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One finished (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `run` or `probe:dag.dependencies_ns`.
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End on the same clock; equals `start_ns` while open.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one workload (single-threaded: only the benchmark's
/// driving thread records).
pub struct Spans {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `origin` (the workload child's
    /// process start, so the first span shows start-up cost too).
    pub fn new(workload: &str, origin: Instant) -> Spans {
        Spans {
            workload: workload.to_string(),
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration. Spans opened by `f` become children.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, Duration) {
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[idx].end_ns = end_ns;
        (out, Duration::from_nanos(end_ns - start_ns))
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON of the recorded spans: one complete
    /// (`"ph":"X"`) event each, with the parent index, the self time
    /// and the workload id as arguments.
    pub fn to_chrome_json(&self) -> String {
        let own = self_times(&self.spans);
        let mut out = String::from("{\"traceEvents\":[\n");
        for (idx, s) in self.spans.iter().enumerate() {
            if idx > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"dpxbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{idx},\"parent\":{parent},\
                 \"self_us\":{:.3},\"workload\":{}}}}}",
                json_string(&s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                own[idx] as f64 / 1e3,
                json_string(&self.workload),
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Self time of each span: its duration minus the part of it its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

//! Chrome `trace_event` JSON export and (for validation) import.
//!
//! The exporter writes the JSON Object Format (`{"traceEvents":[…]}`)
//! understood by `chrome://tracing` and Perfetto: one `"M"` metadata
//! record naming each place as a process, `"X"` complete events for
//! spans and `"i"` instants for everything else, with `pid` = place and
//! `tid` = worker. Timestamps are microseconds; nanosecond precision is
//! preserved by printing three decimals (`ns/1000 . ns%1000`), which is
//! exact, so a render → parse round-trip loses nothing.
//!
//! The importer is a small recursive-descent JSON parser — enough for
//! the CI smoke job and `dpx10 trace summarize` to validate a file
//! without external dependencies. It accepts both the object format and
//! a bare event array.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

use crate::event::EventKind;
use crate::recorder::Trace;

/// Formats nanoseconds as microseconds with exactly three decimals —
/// lossless for `u64` nanosecond inputs.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a drained [`Trace`] as Chrome `trace_event` JSON.
pub fn render(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    let places: BTreeSet<u16> = trace.events.iter().map(|e| e.place).collect();
    for p in &places {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{p},\"tid\":0,\
                 \"args\":{{\"name\":\"place {p}\"}}}}"
            ),
            &mut first,
        );
    }
    for ev in &trace.events {
        let name = escape(ev.kind.name());
        let line = if ev.kind.is_span() {
            format!(
                "{{\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"dpx10\",\
                 \"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"arg\":{}}}}}",
                ev.place,
                ev.worker,
                us(ev.ts_ns),
                us(ev.dur_ns),
                ev.arg
            )
        } else {
            format!(
                "{{\"ph\":\"i\",\"name\":\"{name}\",\"cat\":\"dpx10\",\"s\":\"t\",\
                 \"pid\":{},\"tid\":{},\"ts\":{},\"args\":{{\"arg\":{}}}}}",
                ev.place,
                ev.worker,
                us(ev.ts_ns),
                ev.arg
            )
        };
        push(line, &mut first);
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}}}}",
        trace.dropped
    );
    out
}

/// Renders and writes a trace to `path`.
pub fn write(path: &Path, trace: &Trace) -> std::io::Result<()> {
    std::fs::write(path, render(trace))
}

/// One event read back out of a Chrome-trace JSON file.
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    /// Event name (for recorder-produced files, an
    /// [`EventKind::name`]).
    pub name: String,
    /// Phase: `"X"`, `"i"`, `"M"`, ….
    pub ph: String,
    /// Start time in nanoseconds (`ts` µs × 1000, rounded).
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 when absent).
    pub dur_ns: u64,
    /// Process id (place).
    pub pid: u16,
    /// Thread id (worker).
    pub tid: u16,
}

impl ChromeEvent {
    /// The [`EventKind`] this event's name maps to, if any.
    pub fn kind(&self) -> Option<EventKind> {
        EventKind::from_name(&self.name)
    }
}

// ---- minimal JSON ----

#[derive(Clone, Debug, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') || b.is_ascii_digit())
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume the whole unescaped run in one slice —
                    // validating per character would rescan the rest of
                    // the input each time. `"` and `\` are ASCII, so a
                    // valid UTF-8 sequence never straddles the stop.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while self
                        .bytes
                        .get(end)
                        .is_some_and(|b| !matches!(b, b'"' | b'\\'))
                    {
                        end += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("bad utf-8"))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a Chrome-trace JSON document (object format or bare array)
/// into its events. Returns a human-readable error for malformed JSON
/// or events missing required fields.
pub fn parse(json: &str) -> Result<Vec<ChromeEvent>, String> {
    let mut p = Parser::new(json);
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    let events = match &root {
        Value::Arr(items) => items.as_slice(),
        Value::Obj(_) => match root.get("traceEvents") {
            Some(Value::Arr(items)) => items.as_slice(),
            _ => return Err("missing traceEvents array".to_string()),
        },
        _ => return Err("root must be an object or array".to_string()),
    };
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| -> Result<&Value, String> {
            ev.get(key)
                .ok_or_else(|| format!("event {i}: missing \"{key}\""))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: name not a string"))?
            .to_string();
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: ph not a string"))?
            .to_string();
        let num = |key: &str, required: bool| -> Result<f64, String> {
            match ev.get(key) {
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| format!("event {i}: {key} not a number")),
                None if required => Err(format!("event {i}: missing \"{key}\"")),
                None => Ok(0.0),
            }
        };
        let ts_us = num("ts", ph != "M")?;
        let dur_us = num("dur", false)?;
        out.push(ChromeEvent {
            name,
            ph,
            ts_ns: (ts_us * 1000.0).round() as u64,
            dur_ns: (dur_us * 1000.0).round() as u64,
            pid: num("pid", true)? as u16,
            tid: num("tid", true)? as u16,
        });
    }
    Ok(out)
}

/// Checks that the `"X"` complete spans of a parsed trace nest
/// properly: within each `(pid, tid)` track, any two spans are either
/// disjoint or one fully contains the other. Partial overlap means the
/// producer misattributed work (two computes on one worker at once) —
/// the trace-backed oracle treats that as a bug.
pub fn check_nesting(events: &[ChromeEvent]) -> Result<(), String> {
    let spans = events
        .iter()
        .filter(|ev| ev.ph == "X")
        .map(|ev| ((ev.pid, ev.tid), ev.ts_ns, ev.ts_ns + ev.dur_ns, ()));
    crate::oracle::check_tracks(spans, |(pid, tid), start, end, top, ()| {
        format!(
            "pid {pid} tid {tid}: span [{start}, {end}] partially overlaps \
             enclosing span ending at {top}"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    fn trace(events: Vec<Event>) -> Trace {
        Trace { events, dropped: 0 }
    }

    #[test]
    fn render_parse_round_trip() {
        let t = trace(vec![
            Event {
                ts_ns: 1_234,
                dur_ns: 567,
                place: 0,
                worker: 1,
                kind: EventKind::VertexCompute,
                arg: 99,
            },
            Event {
                ts_ns: 2_000,
                dur_ns: 0,
                place: 1,
                worker: 0,
                kind: EventKind::CacheMiss,
                arg: 0,
            },
        ]);
        let json = render(&t);
        let parsed = parse(&json).unwrap();
        // 2 metadata records (2 places) + 2 events.
        assert_eq!(parsed.len(), 4);
        let x = parsed.iter().find(|e| e.ph == "X").unwrap();
        assert_eq!(x.name, "vertex-compute");
        assert_eq!(x.ts_ns, 1_234);
        assert_eq!(x.dur_ns, 567);
        assert_eq!((x.pid, x.tid), (0, 1));
        let i = parsed.iter().find(|e| e.ph == "i").unwrap();
        assert_eq!(i.name, "cache-miss");
        assert_eq!(i.kind(), Some(EventKind::CacheMiss));
    }

    #[test]
    fn us_formatting_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"traceEvents\": 3}").is_err());
        assert!(parse("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
    }

    #[test]
    fn nesting_accepts_containment_rejects_overlap() {
        let span = |ts, dur, tid| ChromeEvent {
            name: "s".into(),
            ph: "X".into(),
            ts_ns: ts,
            dur_ns: dur,
            pid: 0,
            tid,
        };
        // [0,100] contains [10,20] and [30,40]; separate tid unaffected.
        assert!(check_nesting(&[
            span(0, 100, 0),
            span(10, 10, 0),
            span(30, 10, 0),
            span(50, 100, 1),
        ])
        .is_ok());
        // [0,100] and [50,150] partially overlap on one tid.
        assert!(check_nesting(&[span(0, 100, 0), span(50, 100, 0)]).is_err());
        // Same pair on different tids is fine.
        assert!(check_nesting(&[span(0, 100, 0), span(50, 100, 1)]).is_ok());
    }
}

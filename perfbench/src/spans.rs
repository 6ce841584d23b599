//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer's public functions runs inside
//! a span: a name, a start, an end and the span that was open when it began.
//! Spans stay in memory and are written out once the run ends, in the
//! Chrome trace-event format (open the file in Perfetto).  The program under
//! test gets no span from here; its own `Ctx` trace is read separately.

use sfcp_service::json::Value;
use std::collections::HashMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id within the run.
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// What was called.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.  Timings are taken whether or not it
/// records, so the timed and the traced run share one code path.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    next_id: u32,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and its wall
    /// time in milliseconds.  Spans `f` opens nest under this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.push(id, parent, name, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Time `f` inside a span named `name` that has no children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.span(name, |_| f())
    }

    /// Record a span measured elsewhere (another thread), as a child of the
    /// span open now.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.push(id, parent, name, start, end);
    }

    fn push(
        &mut self,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(SpanRec {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// The closed spans, in closing order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
#[must_use]
pub fn self_times_ns(spans: &[SpanRec]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// The spans as a Chrome trace-event document.  Each event carries its id,
/// parent and self time in `args`; `extra` members are appended at the top
/// level (the run's stamp and the program's own trace summary).
#[must_use]
pub fn to_chrome_json(spans: &[SpanRec], extra: Vec<(String, Value)>) -> String {
    let self_ns = self_times_ns(spans);
    let us = |ns: u64| Value::Float(ns as f64 / 1e3);
    let events = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or(Value::Null, |p| Value::Int(i64::from(p)));
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::Int(1)),
                ("tid".into(), Value::Int(1)),
                ("ts".into(), us(s.start_ns)),
                ("dur".into(), us(s.dur_ns())),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), Value::Int(i64::from(s.id))),
                        ("parent".into(), parent),
                        ("self_us".into(), us(self_ns[&s.id])),
                    ]),
                ),
            ])
        })
        .collect();
    let mut members = vec![("traceEvents".to_string(), Value::Array(events))];
    members.extend(extra);
    Value::Object(members).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // 0: [0, 100) with children [10, 30) and [20, 50) overlapping, and
        // [90, 120) running past the parent's end; 1's child 4 nests deeper.
        let spans = vec![
            rec(1, Some(0), 10, 30),
            rec(2, Some(0), 20, 50),
            rec(3, Some(0), 90, 120),
            rec(4, Some(1), 12, 18),
            rec(0, None, 0, 100),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[&0], 100 - 40 - 10);
        assert_eq!(t[&1], 20 - 6);
        assert_eq!(t[&2], 30);
        assert_eq!(t[&4], 6);
    }

    #[test]
    fn nested_recorder_spans_link_to_their_parent() {
        let mut r = Recorder::new(true);
        let ((), outer_ms) = r.span("outer", |r| {
            r.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.time("inner", || ());
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(outer.id)));
        assert!(outer_ms >= 2.0);
        let t = self_times_ns(spans);
        assert!(t[&outer.id] < outer.dur_ns());
        let doc = to_chrome_json(spans, Vec::new());
        let v = sfcp_service::json::parse(doc.as_bytes()).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut r = Recorder::new(false);
        let (v, ms) = r.time("x", || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(r.spans().is_empty());
    }
}

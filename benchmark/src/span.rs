//! Benchmark-side span recorder: the benchmark wraps its own calls into
//! the program (each `run_until` slice, each replay driver) in a span —
//! name, start, end, parent, workload — keeps them in memory, and writes
//! them as Chrome `trace_event` JSON when the run ends. Spans inside the
//! program itself are a later issue.

use std::time::Instant;

use crate::json::Value;

/// One finished (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.push(name, start_ns);
    }

    fn push(&mut self, name: &str, start_ns: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        self.pop(end_ns);
    }

    fn pop(&mut self, end_ns: u64) {
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` document: one complete (`"ph": "X"`) event per
    /// span, timestamps in microseconds, the workload as the process name
    /// and each span's parent index and self time under `args`.
    pub fn chrome_trace(&self) -> Value {
        let selfs = self_times(&self.spans);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj([
                    ("name", Value::Str(s.name.clone())),
                    ("cat", Value::Str(self.workload.clone())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("workload", Value::Str(self.workload.clone())),
                            ("self_us", Value::Num(selfs[i] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
        ])
    }

    /// `(name, total self ns, span count)` per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let selfs = self_times(&self.spans);
        let mut rows: Vec<(String, u64, usize)> = Vec::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += t;
                    r.2 += 1;
                }
                None => rows.push((s.name.clone(), t, 1)),
            }
        }
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Children of one parent never overlap here (the
/// recorder is a stack), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recorder from explicit times, bypassing the wall clock.
    fn scripted(script: &[(&str, u64, u64, usize)]) -> Recorder {
        // (name, start, end, depth) in start order.
        let mut r = Recorder::new("w");
        let mut ends: Vec<u64> = Vec::new();
        for &(name, start, end, depth) in script {
            while r.open.len() > depth {
                let e = ends.pop().unwrap();
                r.pop(e);
            }
            r.push(name, start);
            ends.push(end);
        }
        while let Some(e) = ends.pop() {
            r.pop(e);
        }
        r
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = scripted(&[
            ("run", 0, 100, 0),
            ("window", 10, 70, 1),
            ("slice", 10, 30, 2),
            ("slice", 30, 65, 2),
            ("replay", 70, 95, 1),
        ]);
        let spans = r.spans();
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[4].parent, Some(0));
        assert_eq!(self_times(spans), vec![15, 5, 20, 35, 25]);
        // Self times partition the root exactly.
        assert_eq!(self_times(spans).iter().sum::<u64>(), 100);
        let by_name = r.self_time_by_name();
        assert_eq!(by_name[0], ("slice".to_string(), 55, 2));
    }

    #[test]
    fn chrome_trace_lists_every_span_with_parent_and_workload() {
        let r = scripted(&[("run", 0, 2_000, 0), ("slice", 500, 1_500, 1)]);
        let doc = r.chrome_trace();
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let slice = &events[1];
        assert_eq!(slice.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(slice.get("ts").and_then(Value::as_f64), Some(0.5));
        assert_eq!(slice.get("dur").and_then(Value::as_f64), Some(1.0));
        let args = slice.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(args.get("workload").and_then(Value::as_str), Some("w"));
        assert_eq!(crate::json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn scope_nests_on_the_wall_clock() {
        let mut r = Recorder::new("w");
        r.scope("outer", |r| r.scope("inner", |_| ()));
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
    }
}

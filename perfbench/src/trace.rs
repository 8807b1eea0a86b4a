//! Spans around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`]. With
//! tracing off these only read the clock; with tracing on they also record
//! a [`Span`] (name, start, end, parent, request/inference id) in a
//! preallocated in-memory list that is written out when the run ends.
//! A span's self time is its duration minus the time its child spans
//! cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::json::Value as Json;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `compiler.infer_in`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request, inference or layer id the span belongs to.
    pub id: u64,
}

/// An open span: the token [`Tracer::end`] closes.
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Span recorder; a no-op apart from clock reads when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            // Sized so recording never reallocates inside a timed loop
            // of the default run length.
            spans: Vec::with_capacity(if on { 1 << 18 } else { 0 }),
            stack: Vec::with_capacity(if on { 64 } else { 0 }),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span (nested inside the innermost open one).
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let index = self.on.then(|| {
            let i = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                id,
            });
            self.stack.push(i);
            i
        });
        let start = Instant::now();
        if let Some(i) = index {
            self.spans[i].start_ns = self.ns_since_origin(start);
        }
        Open { index, start }
    }

    /// Closes a span, returning its duration in ns.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        let ns = end.duration_since(open.start).as_nanos() as u64;
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns_since_origin(end);
            let top = self.stack.pop();
            assert_eq!(top, Some(i), "spans must close innermost first");
        }
        ns
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.begin(name, id);
        let out = f();
        (out, self.end(open))
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"` complete events,
    /// microsecond timestamps) plus the per-name totals.
    pub fn to_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::UInt(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                            ),
                            ("id", Json::UInt(s.id)),
                        ]),
                    ),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::UInt(t.count)),
                        ("total_us", Json::Num(t.total_ns as f64 / 1e3)),
                        ("self_us", Json::Num(t.self_ns as f64 / 1e3)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("totals", Json::Obj(totals)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0);
        let (_, inner_ns) = t.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ns = t.end(outer);
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 1);
        assert!(inner_ns >= 2_000_000);
        let o = totals["outer"];
        assert!(o.total_ns >= totals["inner"].total_ns);
        assert_eq!(o.self_ns, o.total_ns - totals["inner"].total_ns);
        assert!(outer_ns >= o.total_ns / 2);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, _) = t.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}

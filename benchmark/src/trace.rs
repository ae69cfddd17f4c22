//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer.
//!
//! A span is `{name, start, end, parent, unit}`. Spans nest strictly (the
//! benchmark is single-threaded around its calls into the layers), so the
//! recorder is a stack. They stay in memory until the run ends and are then
//! written to `benchmark/out/<workload>.trace.json`. A span's *self time* is
//! its duration minus the part of it its child spans cover.
//!
//! Spans inside the program itself are the ROADMAP's observability-spine
//! item, a later change; nothing here reaches into the protocol crates.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`unit`, `run`, `history.build`, `probe.storage`, …).
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The measured unit the span belongs to, if any.
    pub unit: Option<u32>,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// The span recorder. While disabled (`--trace 0`, and every other measured
/// unit of a traced run, so the two can be compared) `enter`/`exit` do
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: Option<u32>,
}

/// The id handed out while the tracer is disabled.
const DISABLED: SpanId = SpanId(usize::MAX);

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new(), unit: None }
    }

    /// Turns recording on or off. Only legal between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggles between spans, not inside one");
        self.enabled = enabled;
    }

    /// Seconds since the tracer's origin (the process's entry into `main`).
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Tags spans entered from now on with a measured-unit index (or none).
    pub fn set_unit(&mut self, unit: Option<u32>) {
        self.unit = unit;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let now = self.origin.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span: spans nest strictly.
    pub fn exit(&mut self, id: SpanId) {
        if id == DISABLED {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0].end = self.origin.elapsed().as_secs_f64();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: each span's duration minus its children's,
/// summed over every span of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0.0) += own;
    }
    by_name
}

/// The trace file: one JSON object per span, one span per line.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \
             \"parent\": {}, \"unit\": {}}}{}\n",
            s.name,
            s.start,
            s.end,
            opt(s.parent.map(|p| p as u64)),
            opt(s.unit.map(u64::from)),
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

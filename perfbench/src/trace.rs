//! In-memory span recording around the benchmark's calls into each layer.
//!
//! Spans are recorded on the benchmark's own thread only: a span's parent
//! is whichever span was open when it began. Nothing is written until the
//! run ends. A disabled tracer reads no clock and stores nothing, so the
//! untraced run pays one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.session.certify`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to: one per compiled program or
    /// engine session.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a span must be ended"]
pub struct SpanId(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between spans (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`begin`](Self::begin); spans close in
    /// reverse order of opening.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations (ns).
    pub busy_ns: u64,
    /// Sum of their durations minus the part covered by their children
    /// (ns).
    pub self_ns: u64,
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (clipped to the window).
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Busy time, self time and count per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.busy_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // session [0,100) with children [10,30) and [20,50) (overlapping)
        // and a grandchild inside the first child.
        let spans = vec![
            span("session", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            span("wait", 20, 50, Some(0)),
            span("push", 12, 18, Some(1)),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["session"].busy_ns, 100);
        assert_eq!(t["session"].self_ns, 100 - 40);
        assert_eq!(t["submit"].self_ns, 20 - 6);
        assert_eq!(t["wait"].self_ns, 30);
        assert_eq!(t["push"].self_ns, 6);
    }

    #[test]
    fn coverage_is_clipped_to_the_window() {
        assert_eq!(covered_ns(10, 20, &[(0, 15), (18, 40)]), 7);
        assert_eq!(covered_ns(10, 20, &[]), 0);
        assert_eq!(covered_ns(10, 20, &[(12, 14), (12, 14)]), 2);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("outer", 1);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}

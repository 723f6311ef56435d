//! Driver-side spans around the calls into each layer.
//!
//! Spans are kept in memory and written as JSON lines when the run ends.
//! The driver is single-threaded, so the open spans form a stack and a
//! span's parent is whatever was open when it began.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Marks "no parent" in [`Span::parent`] and "tracing off" as a span id.
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `server.run_tick`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_SPAN`].
    pub parent: u32,
    /// The measured tick the span belongs to (the shared identifier of all
    /// spans of one driver iteration).
    pub tick: u64,
}

/// Time and call count of one span name, from [`self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Number of spans with this name.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// Recorder of driver spans. Disabled, every call is one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    tick: u64,
}

impl Tracer {
    /// A tracer that records while enabled.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tick: 0,
        }
    }

    /// Whether spans are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off. Must be called with no span open.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    /// Sets the tick identifier stamped on the following spans.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            tick: self.tick,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` returned by [`Tracer::begin`].
    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close in LIFO order");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let result = f();
        self.end(id);
        result
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"tick\": {}}}",
                s.name, s.start_ns, s.end_ns, s.tick
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over `spans`: a span's self time is its duration minus
/// the durations of its direct children (children of one parent never
/// overlap, because the driver is single-threaded).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let duration = s.end_ns - s.start_ns;
        let entry = totals.entry(s.name).or_default();
        entry.calls += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(children);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            tick: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("tick", 0, 100, NO_SPAN),
            span("fleet", 5, 25, 0),
            span("run_tick", 30, 90, 0),
            span("inner", 40, 50, 2),
            span("tick", 100, 130, NO_SPAN),
        ];
        let totals = self_times(&spans);
        assert_eq!(
            totals["tick"],
            NameTotals {
                calls: 2,
                total_ns: 130,
                self_ns: 50
            }
        );
        assert_eq!(totals["fleet"].self_ns, 20);
        assert_eq!(totals["run_tick"].self_ns, 50);
        assert_eq!(totals["inner"].self_ns, 10);
        // Self times partition the root spans' time.
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 130);
    }

    #[test]
    fn tracer_nests_and_disables() {
        let mut tracer = Tracer::new(true);
        tracer.set_tick(7);
        let outer = tracer.begin("outer");
        tracer.span("leaf", || std::hint::black_box(1 + 1));
        tracer.end(outer);
        tracer.set_enabled(false);
        assert_eq!(tracer.begin("ignored"), NO_SPAN);
        tracer.end(NO_SPAN);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_SPAN);
        assert_eq!(spans[1].tick, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}

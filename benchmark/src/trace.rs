//! In-memory spans around the calls into each layer.
//!
//! Every span is recorded from the benchmark's own files, around a call
//! into a public function of the layer it names; nothing inside the
//! simulator is instrumented. Spans are kept in memory and written once
//! when the benchmark ends. A disabled tracer records nothing: `begin`
//! and `end` reduce to one predictable branch, so untraced runs carry no
//! measurable cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open when
/// this one began; `cell` is the identifier all spans of one cell (or one
/// request) share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub cell: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer::new(false)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, cell: Option<u32>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and, defensively, any span opened after it that an
    /// early return left open).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON document.
    ///
    /// # Errors
    /// Filesystem failures.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        let lines: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"cell\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.cell.map_or("null".into(), |c| c.to_string()),
                )
            })
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover, summed over all spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_time = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p as usize] += s.duration_ns();
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_time) {
        *by_name.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    by_name
}

/// Total duration and count per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name = BTreeMap::new();
    for s in spans {
        let entry = by_name.entry(s.name).or_insert((0u64, 0u64));
        entry.0 += s.duration_ns();
        entry.1 += 1;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("cell", 10, 90, Some(0)),
            span("run", 20, 60, Some(1)),
            span("verify", 60, 85, Some(1)),
            span("cell", 90, 98, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["rep"], 100 - 80 - 8);
        assert_eq!(selfs["cell"], (80 - 40 - 25) + 8);
        assert_eq!(selfs["run"], 40);
        assert_eq!(selfs["verify"], 25);
        // Self times partition the root span exactly.
        assert_eq!(selfs.values().sum::<u64>(), 100);
        let totals = totals(&spans);
        assert_eq!(totals["cell"], (88, 2));
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let rep = t.begin("rep", None);
        let cell = t.begin("cell", Some(3));
        let run = t.begin("run", Some(3));
        t.end(run);
        t.end(cell);
        t.end(rep);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].cell, Some(3));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::disabled();
        let id = off.begin("rep", None);
        off.end(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn ending_an_outer_span_closes_forgotten_inner_ones() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", None);
        let _leaked = t.begin("inner", None);
        t.end(outer);
        let next = t.begin("next", None);
        t.end(next);
        assert_eq!(t.spans()[2].parent, None);
        assert!(t.spans()[1].end_ns <= t.spans()[2].start_ns);
    }
}

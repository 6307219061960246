//! In-memory wall-clock spans of a traced run, written once at exit as
//! Chrome-trace JSON (open in <https://ui.perfetto.dev>).
//!
//! Spans are recorded by the harness around its calls into each layer —
//! nothing inside the program is instrumented. The record type and the
//! exporter are the repo's own (`fidr::trace`); here `start_ns`/`end_ns`
//! are wall nanoseconds since the run began, not modelled time.

use fidr::trace::{chrome_trace_json, SpanRecord};
use std::path::Path;
use std::time::Instant;

/// The span sink of one traced run.
pub struct Spans {
    origin: Instant,
    records: Vec<SpanRecord>,
}

impl Spans {
    /// An empty sink with room for `capacity` spans; its clock starts
    /// now. The room is written once up front, so that recording a span
    /// inside a timed window never grows the vector or takes the page
    /// fault of a first touch (in this guest that is a host-side fault:
    /// untouched, it cost the traced round ~9 %).
    pub fn with_capacity(capacity: usize) -> Self {
        let origin = Instant::now();
        let mut records = Vec::with_capacity(capacity);
        records.resize_with(capacity, || SpanRecord {
            id: 0,
            parent: None,
            name: "",
            start_ns: 0,
            end_ns: 0,
            attrs: Vec::new(),
        });
        records.clear();
        Spans { origin, records }
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that encloses later ones (a round, an epoch, a
    /// replay); close it with [`Spans::end`]. Returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>) -> u64 {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened with [`Spans::begin`].
    pub fn end(&mut self, id: u64) {
        let now = self.since_origin(Instant::now());
        self.records[id as usize - 1].end_ns = now;
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.records.len() as u64 + 1;
        self.records.push(SpanRecord {
            id,
            parent,
            name,
            start_ns: self.since_origin(start),
            end_ns: self.since_origin(end),
            attrs: Vec::new(),
        });
        id
    }

    /// Every span so far, in begin order.
    #[cfg(test)]
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Writes the spans as Chrome-trace JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, chrome_trace_json(&self.records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidr::trace::validate_chrome_trace;

    #[test]
    fn spans_nest_and_export_as_a_valid_chrome_trace() {
        let mut spans = Spans::with_capacity(8);
        let round = spans.begin("round", None);
        let epoch = spans.begin("epoch", Some(round));
        let t0 = Instant::now();
        let op = spans.record("write", Some(epoch), t0, Instant::now());
        spans.end(epoch);
        spans.end(round);
        assert_eq!((round, epoch, op), (1, 2, 3));
        let r = spans.records();
        assert_eq!(r[2].parent, Some(epoch));
        assert_eq!(r[1].parent, Some(round));
        assert!(r[0].start_ns <= r[1].start_ns && r[1].end_ns <= r[0].end_ns);
        assert!(r[1].start_ns <= r[2].start_ns && r[2].end_ns <= r[1].end_ns);
        assert_eq!(validate_chrome_trace(&chrome_trace_json(r)), Ok(3));
    }
}

//! In-memory spans for the traced pass.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each layer (the setup closure, the visitor, a replayed `Sim::run`) and
//! kept in memory until the run ends, when [`Tracer::write_jsonl`] writes
//! them out. Every span carries the id of the unit (one executed schedule
//! or one sampled run) it belongs to; child spans name the unit span as
//! their parent.

use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Span around one whole unit, from the end of the previous unit to the
/// end of this unit's visitor call.
pub const UNIT: &str = "bench.unit";
/// Span around one call of the scenario-building setup closure.
pub const BUILD: &str = "problems.build";
/// Span around the output check inside the visitor.
pub const CHECK: &str = "core.check";
/// Span around a replay of the unit's journaled decision vector.
pub const RUN: &str = "sim.kernel.run";

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub unit: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin of an instant taken by the caller.
    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(&self, unit: u64, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            unit,
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log poisoned")
    }
}

/// Per-name sum and count of span durations.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(sum, n), s| (sum + s.duration_ns(), n + 1))
}

/// Writes one JSON object per line: a `header` line first (already a
/// JSON object), then every span.
pub fn write_jsonl(out: &mut impl Write, header: &str, spans: &[Span]) -> io::Result<()> {
    writeln!(out, "{header}")?;
    for s in spans {
        let parent = if s.name == UNIT {
            "null".to_string()
        } else {
            format!("\"{UNIT}\"")
        };
        writeln!(
            out,
            "{{\"unit\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.unit, s.name, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

//! Spans recorded by the benchmark's own driver around every call into a
//! layer of the system under test.
//!
//! Spans are kept in memory and written out when the run ends. All spans
//! of one round share its round number. A span's *self time* is its
//! duration minus the part of it that its child spans cover, so summing
//! self times over a round's spans gives back the round's duration with
//! nothing counted twice.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval, in nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer (module path and operation) the call went into.
    pub name: String,
    /// Round the call served.
    pub round: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// When the call started.
    pub start_ns: u64,
    /// When it returned.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder driven from a single thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from this moment.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, round: u64) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            round,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the driver.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &str, round: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, round);
        let out = f();
        self.exit(id);
        out
    }

    /// Splits the just-closed span `parent` into consecutive child spans
    /// of the given durations, starting where the parent starts. This is
    /// how a call that reports its own stage timings (the round engine's
    /// tail step) shows its stages in the trace.
    pub fn split(&mut self, parent: usize, stages: &[(&str, std::time::Duration)]) {
        let round = self.spans[parent].round;
        let mut at = self.spans[parent].start_ns;
        for (name, duration) in stages {
            let end_ns = at + duration.as_nanos() as u64;
            self.spans.push(Span {
                name: (*name).to_string(),
                round,
                parent: Some(parent),
                start_ns: at,
                end_ns,
            });
            at = end_ns;
        }
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of self time per span name, summed over all rounds.
    #[must_use]
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        self_seconds(&self.spans)
    }

    /// The trace as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name.clone(),
                    "round": s.round,
                    "parent": s.parent.map(|p| p as u64),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                })
            })
            .collect();
        json!({ "unit": "ns since trace start", "spans": spans })
    }
}

/// Seconds of self time per span name: each span's duration minus the
/// part of its interval that its direct children cover.
#[must_use]
pub fn self_seconds(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            covered[parent] += end.saturating_sub(start);
        }
    }
    let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let self_ns = span.duration_ns().saturating_sub(covered);
        *by_name.entry(span.name.clone()).or_default() += self_ns as f64 / 1e9;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("round", None, 0, 1_000_000_000),
            span("hop", Some(0), 100_000_000, 400_000_000),
            span("peel", Some(1), 100_000_000, 300_000_000),
            span("hop", Some(0), 500_000_000, 900_000_000),
        ];
        let by_name = self_seconds(&spans);
        assert!((by_name["round"] - 0.3).abs() < 1e-12);
        assert!((by_name["hop"] - 0.5).abs() < 1e-12, "0.1 s + 0.4 s");
        assert!((by_name["peel"] - 0.2).abs() < 1e-12);
        let total: f64 = by_name.values().sum();
        assert!((total - 1.0).abs() < 1e-12, "self times add up to the root");
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![
            span("parent", None, 100, 200),
            span("child", Some(0), 150, 300),
        ];
        let by_name = self_seconds(&spans);
        assert!((by_name["parent"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_splits() {
        let mut tracer = Tracer::new();
        let round = tracer.enter("round", 7);
        let tail = tracer.enter("tail", 7);
        tracer.exit(tail);
        tracer.split(
            tail,
            &[
                ("forward", std::time::Duration::from_nanos(0)),
                ("exchange", std::time::Duration::from_nanos(0)),
            ],
        );
        tracer.exit(round);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(round));
        assert_eq!(spans[2].parent, Some(tail));
        assert_eq!(spans[3].name, "exchange");
        assert!(spans.iter().all(|s| s.round == 7));
    }
}

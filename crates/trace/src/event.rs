//! Trace events and the serialized trace.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A completed unit of work.
///
/// `duration` is in **wall units** — the toolchain's simulated seconds,
/// a deterministic function of the workload — never host time. `cost`
/// is the unit's logical size: records produced for a sweep span,
/// Test-function executions for a bisect span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Which pipeline phase this span belongs to (see
    /// [`crate::names::phase`]).
    pub phase: String,
    /// What ran: a compilation label, a `test/compilation` pair, a
    /// workflow stage.
    pub label: String,
    /// Logical cost (records, executions, ...).
    pub cost: u64,
    /// Wall-unit (simulated-second) duration.
    pub duration: f64,
}

/// One line of a JSONL trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A completed span.
    Span(Span),
    /// A counter total (emitted once per counter at snapshot time).
    Counter {
        /// Counter name (see [`crate::names::counter`]).
        name: String,
        /// Final value.
        value: u64,
    },
}

/// A complete, canonically-ordered trace: all spans (sorted by phase,
/// label, cost, duration bits), then all counters (sorted by name).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The events, in canonical order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Build a trace from raw parts, imposing the canonical order.
    pub fn from_parts(mut spans: Vec<Span>, counters: BTreeMap<String, u64>) -> Self {
        spans.sort_by(|a, b| {
            a.phase
                .cmp(&b.phase)
                .then_with(|| a.label.cmp(&b.label))
                .then_with(|| a.cost.cmp(&b.cost))
                .then_with(|| a.duration.total_cmp(&b.duration))
        });
        let mut events: Vec<TraceEvent> = spans.into_iter().map(TraceEvent::Span).collect();
        events.extend(
            counters
                .into_iter()
                .map(|(name, value)| TraceEvent::Counter { name, value }),
        );
        Trace { events }
    }

    /// Serialize to JSONL: one compact JSON event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&serde_json::to_string(e).expect("trace events serialize"));
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL trace (blank lines are skipped).
    pub fn from_jsonl(s: &str) -> Result<Self, serde_json::Error> {
        let mut events = Vec::new();
        for line in s.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            events.push(serde_json::from_str::<TraceEvent>(line)?);
        }
        Ok(Trace { events })
    }

    /// All spans, in trace order.
    pub(crate) fn spans(&self) -> impl Iterator<Item = &Span> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            TraceEvent::Counter { .. } => None,
        })
    }

    /// Spans of one phase.
    pub fn spans_in(&self, phase: &str) -> Vec<&Span> {
        self.spans().filter(|s| s.phase == phase).collect()
    }

    /// Distinct phases, in trace (sorted) order.
    pub fn phases(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in self.spans() {
            if out.last().map(String::as_str) != Some(s.phase.as_str()) {
                out.push(s.phase.clone());
            }
        }
        out
    }

    /// All counters as a sorted map.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { name, value } => Some((name.clone(), *value)),
                TraceEvent::Span(_) => None,
            })
            .collect()
    }

    /// One counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Counter { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// The `top` spans of a phase with the largest wall-unit duration
    /// (ties broken by label so the cut is deterministic).
    pub fn slowest(&self, phase: &str, top: usize) -> Vec<&Span> {
        let mut spans = self.spans_in(phase);
        spans.sort_by(|a, b| {
            b.duration
                .total_cmp(&a.duration)
                .then_with(|| a.label.cmp(&b.label))
        });
        spans.truncate(top);
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: &str, label: &str, cost: u64, duration: f64) -> Span {
        Span {
            phase: phase.into(),
            label: label.into(),
            cost,
            duration,
        }
    }

    #[test]
    fn from_parts_imposes_canonical_order() {
        let spans = vec![
            span("sweep", "b", 1, 2.0),
            span("bisect.file", "z", 3, 1.0),
            span("sweep", "a", 1, 9.0),
            span("sweep", "a", 1, 3.0),
        ];
        let mut counters = BTreeMap::new();
        counters.insert("zz".to_string(), 1);
        counters.insert("aa".to_string(), 2);
        let t = Trace::from_parts(spans, counters);
        let labels: Vec<(&str, &str)> = t
            .spans()
            .map(|s| (s.phase.as_str(), s.label.as_str()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("bisect.file", "z"),
                ("sweep", "a"),
                ("sweep", "a"),
                ("sweep", "b")
            ]
        );
        // Duration tiebreak within equal (phase, label, cost).
        let a_spans = t.spans_in("sweep");
        assert_eq!(a_spans[0].duration, 3.0);
        // Counters come after spans, sorted by name.
        let names: Vec<String> = t.counters().keys().cloned().collect();
        assert_eq!(names, vec!["aa".to_string(), "zz".to_string()]);
    }

    #[test]
    fn jsonl_round_trips() {
        let t = Trace::from_parts(
            vec![span("sweep", "g++ -O2", 19, 1.25)],
            [("build.links".to_string(), 7u64)].into_iter().collect(),
        );
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.counter("build.links"), 7);
        assert_eq!(back.counter("missing"), 0);
    }

    #[test]
    fn jsonl_skips_blank_lines_and_reports_garbage() {
        let t = Trace::from_jsonl("\n\n").unwrap();
        assert!(t.events.is_empty());
        assert!(Trace::from_jsonl("not json\n").is_err());
    }

    #[test]
    fn queries_filter_phases_and_rank_slowest() {
        let t = Trace::from_parts(
            vec![
                span("sweep", "fast", 1, 0.5),
                span("sweep", "slow", 1, 5.0),
                span("sweep", "mid", 1, 2.0),
                span("bisect.file", "x", 10, 1.0),
            ],
            BTreeMap::new(),
        );
        assert_eq!(t.phases(), vec!["bisect.file", "sweep"]);
        assert_eq!(t.spans_in("sweep").len(), 3);
        let top: Vec<&str> = t
            .slowest("sweep", 2)
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(top, vec!["slow", "mid"]);
    }

    #[test]
    fn nan_durations_still_order_deterministically() {
        let t1 = Trace::from_parts(
            vec![span("p", "a", 1, f64::NAN), span("p", "a", 1, 1.0)],
            BTreeMap::new(),
        );
        let t2 = Trace::from_parts(
            vec![span("p", "a", 1, 1.0), span("p", "a", 1, f64::NAN)],
            BTreeMap::new(),
        );
        // total_cmp puts NaN after finite values, in both input orders.
        let d1: Vec<bool> = t1.spans().map(|s| s.duration.is_nan()).collect();
        let d2: Vec<bool> = t2.spans().map(|s| s.duration.is_nan()).collect();
        assert_eq!(d1, d2);
        assert_eq!(d1, vec![false, true]);
    }
}

//! The recording handle threaded through the pipeline.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{Span, Trace};
use crate::registry::{Counter, MetricsRegistry};

/// Span-buffer shards: workers append to the shard owned by the span's
/// label hash, so concurrent recording rarely contends.
const SPAN_SHARDS: usize = 8;

fn shard_of(label: &str) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in label.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % SPAN_SHARDS as u64) as usize
}

#[derive(Debug)]
struct SinkInner {
    spans: [Mutex<Vec<Span>>; SPAN_SHARDS],
    registry: Arc<MetricsRegistry>,
}

/// A cheap cloneable trace handle.
///
/// The default ([`TraceSink::disabled`]) records nothing and resolves
/// `Counter::detached` counters, so instrumented code never branches
/// on "is tracing on?". Clones share the same buffers and registry;
/// the handle is `Send + Sync` and safe to use from worker threads.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Arc<SinkInner>>);

impl TraceSink {
    /// The no-op sink (the default).
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// An enabled sink with its own fresh [`MetricsRegistry`].
    pub fn enabled() -> Self {
        TraceSink::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// An enabled sink recording counters into an existing registry
    /// (e.g. one already shared with a `BuildCtx`).
    pub(crate) fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        TraceSink(Some(Arc::new(SinkInner {
            spans: Default::default(),
            registry,
        })))
    }

    /// Is this sink recording?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The sink's registry (`None` when disabled). Hand this to
    /// subsystems with their own counters — the build cache — so their
    /// totals land in the same snapshot.
    pub fn registry(&self) -> Option<Arc<MetricsRegistry>> {
        self.0.as_ref().map(|i| i.registry.clone())
    }

    /// Resolve a named counter (`Counter::detached` when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.0 {
            Some(inner) => inner.registry.counter(name),
            None => Counter::detached(),
        }
    }

    /// Record a completed span. No-op when disabled.
    pub fn span(&self, phase: &str, label: impl Into<String>, cost: u64, duration: f64) {
        if let Some(inner) = &self.0 {
            let label = label.into();
            inner.spans[shard_of(&label)].lock().push(Span {
                phase: phase.to_string(),
                label,
                cost,
                duration,
            });
        }
    }

    /// Snapshot the recorded events as a canonically-ordered
    /// [`Trace`]. The sink keeps recording afterwards; snapshots are
    /// cumulative. A disabled sink snapshots to an empty trace.
    pub fn snapshot(&self) -> Trace {
        match &self.0 {
            None => Trace::default(),
            Some(inner) => {
                let mut spans = Vec::new();
                for shard in &inner.spans {
                    spans.extend(shard.lock().iter().cloned());
                }
                Trace::from_parts(spans, inner.registry.snapshot())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{counter, phase};

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.registry().is_none());
        sink.span(phase::SWEEP, "g++ -O2", 1, 1.0);
        sink.counter(counter::BUILD_LINKS).incr(5);
        assert!(sink.snapshot().events.is_empty());
    }

    #[test]
    fn enabled_sink_records_spans_and_counters() {
        let sink = TraceSink::enabled();
        sink.span(phase::SWEEP, "g++ -O2", 2, 0.5);
        sink.span(phase::SWEEP, "g++ -O0", 2, 1.5);
        sink.counter(counter::RUNNER_QUEUE_CLAIMED).incr(2);
        let t = sink.snapshot();
        assert_eq!(t.spans_in(phase::SWEEP).len(), 2);
        assert_eq!(t.counter(counter::RUNNER_QUEUE_CLAIMED), 2);
        // Sorted by label within the phase.
        assert_eq!(t.spans_in(phase::SWEEP)[0].label, "g++ -O0");
    }

    #[test]
    fn clones_share_state_and_snapshots_are_cumulative() {
        let sink = TraceSink::enabled();
        let other = sink.clone();
        other.span(phase::WORKFLOW, "sweep", 1, 0.0);
        assert_eq!(sink.snapshot().events.len(), 1);
        sink.span(phase::WORKFLOW, "bisect", 1, 0.0);
        assert_eq!(other.snapshot().events.len(), 2);
    }

    #[test]
    fn snapshot_is_schedule_independent() {
        // Record the same multiset of spans from racing threads twice;
        // the serialized traces must be byte-identical.
        let run = || {
            let sink = TraceSink::enabled();
            let mut handles = Vec::new();
            for worker in 0..4 {
                let sink = sink.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..50 {
                        sink.span(phase::SWEEP, format!("comp-{i}"), worker, i as f64);
                        sink.counter(counter::RUNNER_QUEUE_CLAIMED).incr(1);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            sink.snapshot().to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_registry_merges_external_counters() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter(counter::BUILD_OBJECTS_COMPILED).incr(9);
        let sink = TraceSink::with_registry(registry.clone());
        sink.counter(counter::BUILD_LINKS).incr(1);
        let t = sink.snapshot();
        assert_eq!(t.counter(counter::BUILD_OBJECTS_COMPILED), 9);
        assert_eq!(t.counter(counter::BUILD_LINKS), 1);
    }
}

//! Timing probes at the program's public seams.
//!
//! Every probe here wraps a public trait object the program already
//! accepts — a [`FlitTest`] handed to the matrix sweep, an
//! [`ExecBackend`] handed to the bisection stage, a [`WorkflowRunner`]
//! handed to the daemon — and forwards every call unchanged, adding
//! only a host-clock reading around it. Nothing inside the program is
//! instrumented, so wrapping must leave every report byte-identical
//! (the benchmark's tests pin that).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flit_bisect::ledger::QueryLedger;
use flit_core::test::{DriverTest, FlitTest, RunContext, TestResult};
use flit_exec::{AnswerEnvelope, ExecBackend, ExecError, QueryEnvelope};
use flit_program::engine::RunError;
use flit_serve::daemon::{JobOutcome, JobRequest, WorkflowRunner};

/// Call count and busy time at one seam, optionally keeping every
/// call's duration for percentiles.
#[derive(Debug, Default)]
pub struct Seam {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    samples: Option<Mutex<Vec<f64>>>,
}

impl Seam {
    /// A seam that also keeps per-call durations (seconds).
    pub fn sampled() -> Self {
        Seam {
            samples: Some(Mutex::new(Vec::new())),
            ..Seam::default()
        }
    }

    /// Run `f`, charging its host time to this seam.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        if let Some(samples) = &self.samples {
            samples
                .lock()
                .expect("a seam sample list is only pushed to")
                .push(elapsed.as_secs_f64());
        }
        out
    }

    /// Calls observed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed busy time over all calls (seconds; concurrent calls add).
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Per-call durations in seconds (empty for an unsampled seam).
    pub fn samples(&self) -> Vec<f64> {
        self.samples.as_ref().map_or_else(Vec::new, |s| {
            s.lock()
                .expect("a seam sample list is only pushed to")
                .clone()
        })
    }
}

/// A [`FlitTest`] that times `run_impl` — the engine executing one
/// test under one compiled executable — and forwards everything else.
pub struct TimedTest<'a> {
    /// The wrapped test.
    pub inner: &'a DriverTest,
    /// Where engine time is charged.
    pub engine: &'a Seam,
}

impl FlitTest for TimedTest<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn inputs_per_run(&self) -> usize {
        self.inner.inputs_per_run()
    }

    fn default_input(&self) -> Vec<f64> {
        self.inner.default_input()
    }

    fn run_impl(&self, input: &[f64], ctx: &RunContext) -> Result<(TestResult, f64), RunError> {
        self.engine.time(|| self.inner.run_impl(input, ctx))
    }

    fn compare(&self, baseline: &TestResult, other: &TestResult) -> f64 {
        self.inner.compare(baseline, other)
    }
}

/// An [`ExecBackend`] that times local fan-out and remote dispatch (the
/// wire round trip to a worker) and forwards everything else.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn ExecBackend>,
    /// `run_units` calls.
    pub run_units: Seam,
    /// `dispatch` calls, with per-call latencies.
    pub dispatch: Seam,
}

impl TimedBackend {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn ExecBackend>) -> Self {
        TimedBackend {
            inner,
            run_units: Seam::default(),
            dispatch: Seam::sampled(),
        }
    }
}

impl ExecBackend for TimedBackend {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn is_remote(&self) -> bool {
        self.inner.is_remote()
    }

    fn run_units(&self, units: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), ExecError> {
        self.run_units.time(|| self.inner.run_units(units, f))
    }

    fn dispatch(&self, query: &QueryEnvelope) -> Result<AnswerEnvelope, ExecError> {
        self.dispatch.time(|| self.inner.dispatch(query))
    }

    fn drain(&self) {
        self.inner.drain();
    }
}

/// The key a [`TimedRunner`] files a job's runner time under, so the
/// client that submitted it can subtract it from its latency.
pub fn job_key(tenant: &str, app: &str, max_bisections: Option<usize>) -> String {
    format!("{tenant}|{app}|{max_bisections:?}")
}

/// A [`WorkflowRunner`] that times each job inside the daemon (after
/// admission and queueing) and forwards everything else.
pub struct TimedRunner {
    inner: Arc<dyn WorkflowRunner>,
    /// Every `run` call.
    pub runs: Seam,
    /// Runner seconds of finished jobs not yet claimed by their client,
    /// keyed by [`job_key`] in completion order.
    finished: Mutex<HashMap<String, VecDeque<f64>>>,
}

impl TimedRunner {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn WorkflowRunner>) -> Self {
        TimedRunner {
            inner,
            runs: Seam::default(),
            finished: Mutex::new(HashMap::new()),
        }
    }

    /// Claim the runner time of a finished job with this key.
    pub fn claim(&self, key: &str) -> Option<f64> {
        self.finished
            .lock()
            .expect("the finished-job map is only pushed to and popped")
            .get_mut(key)
            .and_then(VecDeque::pop_front)
    }
}

impl WorkflowRunner for TimedRunner {
    fn fingerprint(&self, app: &str) -> Result<u64, String> {
        self.inner.fingerprint(app)
    }

    fn run(&self, req: &JobRequest, ledger: Arc<QueryLedger>) -> Result<JobOutcome, String> {
        let start = Instant::now();
        let out = self.runs.time(|| self.inner.run(req, ledger));
        let seconds = start.elapsed().as_secs_f64();
        self.finished
            .lock()
            .expect("the finished-job map is only pushed to and popped")
            .entry(job_key(&req.tenant, &req.app, req.max_bisections))
            .or_default()
            .push_back(seconds);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_exec::ThreadsBackend;

    #[test]
    fn seams_count_calls_and_keep_samples_only_when_asked() {
        let plain = Seam::default();
        assert_eq!(plain.time(|| 7), 7);
        plain.time(|| ());
        assert_eq!(plain.calls(), 2);
        assert!(plain.samples().is_empty());
        let sampled = Seam::sampled();
        sampled.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert_eq!(sampled.samples().len(), 1);
        assert!(sampled.samples()[0] >= 0.002);
        assert!(sampled.busy_s() >= 0.002);
    }

    #[test]
    fn timed_backend_forwards_fan_out_and_refusals() {
        let backend = TimedBackend::new(Arc::new(ThreadsBackend::new(2)));
        assert_eq!(backend.label(), "threads");
        assert_eq!(backend.workers(), 2);
        assert!(!backend.is_remote());
        let out = flit_exec::run_on(&backend, 5, |i| i * i).unwrap();
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
        assert_eq!(backend.run_units.calls(), 1);
        let query = QueryEnvelope {
            task_digest: "d".into(),
            task: String::new(),
            spec: String::new(),
        };
        assert!(backend.dispatch(&query).is_err(), "threads refuse dispatch");
        assert_eq!(backend.dispatch.calls(), 1);
    }
}

//! Pluggable execution backends.
//!
//! Every parallel fan-out in the workspace — the matrix runner, the
//! planner-driven bisect drivers, the perf bisect, the workflow — runs
//! on an [`ExecBackend`], a trait with two capabilities:
//!
//! - **fan-out** ([`ExecBackend::run_units`]): run `n` indexed unit
//!   closures across the backend's width. This is what the in-process
//!   [`ThreadsBackend`] serves directly, and what remote backends still
//!   serve locally (the *driver* loop always runs in the coordinator;
//!   only query evaluation moves).
//! - **dispatch** ([`ExecBackend::dispatch`]): ship one serialized
//!   [`QueryEnvelope`] to wherever the backend evaluates queries and
//!   block for its [`AnswerEnvelope`]. Backends that answer `true` from
//!   [`ExecBackend::is_remote`] support this; the `threads` backend
//!   rejects it with a structured [`ExecError::Backend`] because its
//!   queries never leave the process.
//!
//! The envelopes are deliberately opaque to this crate: `flit-bisect`
//! serializes its search task and query spec into strings, and the
//! backend's only contract is to move them and return the answer
//! payload unmodified. That keeps `flit-exec` free of any dependency
//! on the search layer.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use flit_trace::names::counter;
use flit_trace::sink::TraceSink;

/// Why a fan-out or a dispatch could not produce results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A job's closure panicked. The panic was caught on the worker —
    /// the process does not abort — and the *lowest* panicking job
    /// index is reported, which is the job a serial execution would
    /// have died on first, so the error is schedule-independent.
    WorkerPanicked {
        /// Index of the panicking job.
        job: usize,
        /// The panic payload, rendered to a string where possible.
        message: String,
    },
    /// An execution backend failed outside any single job's closure: a
    /// worker process kept dying past the retry budget, the wire
    /// protocol broke down, or a backend was asked for an operation it
    /// does not support (e.g. dispatching a query envelope to the
    /// in-process `threads` backend).
    Backend {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerPanicked { job, message } => {
                write!(f, "executor job {job} panicked: {message}")
            }
            ExecError::Backend { message } => {
                write!(f, "execution backend error: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Render a caught panic payload: `&str` and `String` payloads (the
/// overwhelmingly common cases) come through verbatim; anything else
/// becomes a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A serialized query, addressed to whatever evaluation plane the
/// backend owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryEnvelope {
    /// Stable digest of `task`; remote backends use it to register the
    /// (potentially large) task body at most once per worker.
    pub task_digest: String,
    /// The serialized search task: everything a worker needs to build
    /// and run mixed executables (program, compilations, driver,
    /// input). Opaque to the backend.
    pub task: String,
    /// The serialized query spec (which executable to build, whether to
    /// run or time it). Opaque to the backend.
    pub spec: String,
}

/// A serialized answer, returned verbatim from the evaluation plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerEnvelope {
    /// The serialized answer record (the checkpoint-journal answer
    /// schema doubles as the wire format). Opaque to the backend.
    pub payload: String,
}

/// A pluggable execution plane: local fan-out plus (for remote
/// backends) query dispatch.
pub trait ExecBackend: Send + Sync + fmt::Debug {
    /// Short stable name ("threads", "process") for reports and traces.
    fn label(&self) -> &str;

    /// The backend's worker width — what the parallel drivers use to
    /// size their speculative frontier waves.
    fn workers(&self) -> usize;

    /// Does this backend evaluate queries outside the coordinator
    /// process? When `true`, searches route query evaluation through
    /// [`ExecBackend::dispatch`] instead of building and running mixed
    /// executables in-process.
    fn is_remote(&self) -> bool {
        false
    }

    /// Run `f(0), f(1), …, f(units - 1)` across the backend's width.
    /// Unit closures communicate results through captured state (see
    /// [`run_on`] for the typed wrapper); panics surface as
    /// [`ExecError::WorkerPanicked`] with the lowest panicking index.
    fn run_units(&self, units: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), ExecError>;

    /// Ship one query envelope to the evaluation plane and block for
    /// its answer.
    fn dispatch(&self, query: &QueryEnvelope) -> Result<AnswerEnvelope, ExecError>;

    /// Gracefully wind the backend down: wait until no query is in
    /// flight, then release whatever execution resources it holds
    /// (worker subprocesses, pools). Long-lived owners — the
    /// `flit-serve` daemon — call this once all submissions have
    /// drained, before the backend is dropped; a backend with no
    /// long-lived resources (the in-process `threads` backend) has
    /// nothing to do. Dispatching after `drain` is allowed and simply
    /// re-acquires resources on demand.
    fn drain(&self) {}
}

/// Typed fan-out over any backend: run `f` for each index and collect
/// the results in index order. This is the bridge from the object-safe
/// [`ExecBackend::run_units`] (which cannot be generic) back to the
/// `Vec<T>` shape every call site wants.
pub fn run_on<T, F>(backend: &dyn ExecBackend, jobs: usize, f: F) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    backend.run_units(jobs, &|i| {
        *slots[i].lock() = Some(f(i));
    })?;
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.into_inner().ok_or_else(|| ExecError::Backend {
                message: format!("backend reported success but left job {i} unfilled"),
            })
        })
        .collect()
}

/// The in-process `threads` backend: a scoped-thread work queue over
/// unit indices. Queries are evaluated by the caller inside its unit
/// closures, so [`ExecBackend::dispatch`] is a structured error rather
/// than a capability.
///
/// The width is a cap, not a pool: each [`ExecBackend::run_units`]
/// call spawns up to `threads` scoped workers (never more than there
/// are units) that pull indices from an atomic queue, so a slow unit
/// never strands a static chunk on one worker. At width 1 the units
/// run inline on the caller's thread, with no spawn per call.
#[derive(Clone)]
pub struct ThreadsBackend {
    threads: usize,
    trace: TraceSink,
}

impl ThreadsBackend {
    /// A threads backend of the given width with tracing disabled. A
    /// width of `0` is a caller bug (there is no meaningful zero-worker
    /// backend) and clamps to serial width 1.
    pub fn new(threads: usize) -> Self {
        Self::with_trace(threads, TraceSink::disabled())
    }

    /// A threads backend recording `exec.jobs.*` counters into `trace`.
    /// Width `0` clamps to 1, as in [`ThreadsBackend::new`].
    pub fn with_trace(threads: usize, trace: TraceSink) -> Self {
        ThreadsBackend {
            threads: threads.max(1),
            trace,
        }
    }
}

impl fmt::Debug for ThreadsBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadsBackend")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ExecBackend for ThreadsBackend {
    fn label(&self) -> &str {
        "threads"
    }

    fn workers(&self) -> usize {
        self.threads
    }

    fn run_units(&self, units: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), ExecError> {
        let completed = self.trace.counter(counter::EXEC_JOBS_COMPLETED);
        let panicked = self.trace.counter(counter::EXEC_JOBS_PANICKED);
        self.trace
            .counter(counter::EXEC_JOBS_SUBMITTED)
            .incr(units as u64);
        // One unit under `catch_unwind`: `Some((index, message))` when
        // it panicked.
        let run = |i: usize| match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(()) => {
                completed.incr(1);
                None
            }
            Err(payload) => {
                panicked.incr(1);
                Some((i, panic_message(payload.as_ref())))
            }
        };
        let workers = self.threads.min(units);
        let lowest = if workers <= 1 {
            // Inline, in index order: the first panic is the lowest.
            (0..units).find_map(run)
        } else {
            let next = AtomicUsize::new(0);
            let lowest: Mutex<Option<(usize, String)>> = Mutex::new(None);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= units {
                            break;
                        }
                        if let Some(caught) = run(i) {
                            let mut lowest = lowest.lock();
                            if lowest.as_ref().is_none_or(|(job, _)| caught.0 < *job) {
                                *lowest = Some(caught);
                            }
                        }
                    });
                }
            });
            lowest.into_inner()
        };
        match lowest {
            Some((job, message)) => Err(ExecError::WorkerPanicked { job, message }),
            None => Ok(()),
        }
    }

    fn dispatch(&self, query: &QueryEnvelope) -> Result<AnswerEnvelope, ExecError> {
        Err(ExecError::Backend {
            message: format!(
                "the threads backend evaluates queries in-process; \
                 nothing to dispatch (query task {})",
                query.task_digest
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_on_collects_results_in_index_order_at_any_width() {
        for threads in [1, 2, 8, 64] {
            let backend = ThreadsBackend::new(threads);
            for jobs in [0, 1, 7, 17, 33] {
                let out = run_on(&backend, jobs, |i| i * i).unwrap();
                assert_eq!(
                    out,
                    (0..jobs).map(|i| i * i).collect::<Vec<_>>(),
                    "threads={threads} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn zero_width_clamps_to_one_worker() {
        // Width 0 is a caller bug, but it must degrade to a serial
        // backend — never a zero-worker deadlock or a panic.
        let backend = ThreadsBackend::new(0);
        assert_eq!(backend.workers(), 1);
        assert_eq!(run_on(&backend, 5, |i| i * 2).unwrap(), vec![0, 2, 4, 6, 8]);
        // And the degenerate product of both clamps: zero workers asked
        // to run zero jobs is an empty success.
        assert!(run_on(&backend, 0, |i| i).unwrap().is_empty());
        assert_eq!(
            ThreadsBackend::with_trace(0, TraceSink::enabled()).workers(),
            1
        );
    }

    #[test]
    fn panic_is_captured_as_the_lowest_job_index() {
        for threads in [1, 4] {
            let backend = ThreadsBackend::new(threads);
            let err = run_on(&backend, 8, |i| {
                if i % 3 == 2 {
                    panic!("job {i} exploded");
                }
                i
            })
            .unwrap_err();
            match err {
                ExecError::WorkerPanicked { job, message } => {
                    assert_eq!(job, 2, "lowest panicking job, threads={threads}");
                    assert!(message.contains("exploded"), "{message}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn threads_backend_reports_shape_and_rejects_dispatch() {
        let backend = ThreadsBackend::new(6);
        assert_eq!(backend.label(), "threads");
        assert_eq!(backend.workers(), 6);
        assert!(!backend.is_remote());
        let err = backend
            .dispatch(&QueryEnvelope {
                task_digest: "t0".into(),
                task: "{}".into(),
                spec: "{}".into(),
            })
            .unwrap_err();
        match err {
            ExecError::Backend { message } => {
                assert!(message.contains("in-process"), "{message}");
            }
            other => panic!("expected Backend, got {other:?}"),
        }
    }

    #[test]
    fn counters_account_for_every_job() {
        let sink = TraceSink::enabled();
        let backend = ThreadsBackend::with_trace(3, sink.clone());
        run_on(&backend, 10, |i| i).unwrap();
        let trace = sink.snapshot();
        assert_eq!(trace.counter(counter::EXEC_JOBS_SUBMITTED), 10);
        assert_eq!(trace.counter(counter::EXEC_JOBS_COMPLETED), 10);
        assert_eq!(trace.counter(counter::EXEC_JOBS_PANICKED), 0);
    }
}

//! The shared parallel executor extracted from the matrix runner.
//!
//! Two pieces, both deliberately small and schedule-independent:
//!
//! - [`executor::Executor`]: a scoped-thread work queue over job
//!   indices `0..n`. Each job's result lands in its own pre-allocated
//!   slot, so `run` returns results in job order regardless of thread
//!   count or interleaving. Worker panics are captured (not
//!   process-aborting) and surfaced as a structured
//!   [`executor::ExecError::WorkerPanicked`] naming the lowest
//!   panicking job index — the same job any serial execution would
//!   have reached first.
//! - [`memo::SingleFlight`]: a sharded concurrent memo table with
//!   single-flight semantics — the compute closure runs under the
//!   per-key cell lock, so two workers asking for the same key never
//!   both compute it. `flit-bisect` keys it on canonical item-set
//!   digests so concurrent searches share one Test oracle and never
//!   build the same mixed binary twice.

//! - [`backend::ExecBackend`]: the pluggable execution plane. The
//!   executor is re-homed behind it as [`backend::ThreadsBackend`];
//!   [`process::ProcessBackend`] farms query evaluation out to
//!   `flit worker` subprocesses over a CRC-framed stdin/stdout wire,
//!   with dead-worker detection and bounded requeue.

pub mod backend;
pub mod executor;
pub mod memo;
pub mod process;

pub use backend::{run_on, AnswerEnvelope, ExecBackend, QueryEnvelope, ThreadsBackend};
pub use executor::{ExecError, Executor};
pub use memo::SingleFlight;
pub use process::{serve_worker, ProcessBackend, MAX_WIRE_FRAME, WORKER_EXIT_AFTER_ENV};

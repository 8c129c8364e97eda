//! The shared execution plane: deterministic fan-out, single-flight
//! memoization and pluggable query evaluation.
//!
//! - [`backend::ExecBackend`]: the pluggable execution plane, with
//!   [`run_on`] as its one typed fan-out. [`backend::ThreadsBackend`]
//!   is the in-process scoped-thread work queue over job indices
//!   `0..n`: each job's result lands in its own pre-allocated slot, so
//!   results come back in job order regardless of width or
//!   interleaving. Worker panics are captured (not process-aborting)
//!   and surfaced as a structured [`ExecError::WorkerPanicked`] naming
//!   the lowest panicking job index — the same job any serial
//!   execution would have reached first. Width 1 runs inline.
//! - [`process::ProcessBackend`]: farms query evaluation out to
//!   `flit worker` subprocesses over a CRC-framed stdin/stdout wire,
//!   with dead-worker detection and bounded requeue.
//! - [`memo::SingleFlight`]: a sharded concurrent memo table with
//!   single-flight semantics — the compute closure runs under the
//!   per-key cell lock, so two workers asking for the same key never
//!   both compute it. It is the table of `flit-bisect`'s query ledger,
//!   keyed on canonical item-set digests, so concurrent searches share
//!   answers and never build the same mixed binary twice.

pub mod backend;
pub mod memo;
pub mod process;

pub use backend::{run_on, AnswerEnvelope, ExecBackend, ExecError, QueryEnvelope, ThreadsBackend};
pub use memo::SingleFlight;
pub use process::{serve_worker, ProcessBackend, MAX_WIRE_FRAME, WORKER_EXIT_AFTER_ENV};

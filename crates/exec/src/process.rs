//! The multi-process `process` backend: a coordinator-owned pool of
//! `flit worker` subprocesses evaluating queries over stdin/stdout.
//!
//! ## Wire protocol
//!
//! One CRC'd frame per line of at most [`MAX_WIRE_FRAME`] bytes in
//! either direction, through the [`flit_persist`] framed codec the
//! checkpoint journal uses: the journal record schema is the wire
//! format. Coordinator → worker messages are [`ToWorker`]
//! (`Task` registers a search task body once per worker, `Query` asks
//! for one evaluation); worker → coordinator messages are
//! [`FromWorker::Answer`], whose payload is a serialized
//! checkpoint-journal answer.
//!
//! ## Crash recovery
//!
//! Dispatch is strictly request/response per worker, so a worker's
//! in-flight set is at most one query. When a worker dies (EOF, broken
//! pipe, or a corrupt frame), the coordinator retires it, respawns on
//! demand, and retries the same query on a fresh worker — the requeue
//! path. Exactly-once *accounting* is not this layer's job: the
//! coordinator's single-flight query ledger admits one answer per
//! canonical query key no matter how many times the wire had to carry
//! it, so a retried query can never duplicate a ledger entry, and a
//! query is only marked answered after a payload actually arrived, so
//! none can be lost. Retries are bounded (kill-schedule length plus a
//! small budget) and exhaust into a structured
//! [`ExecError::Backend`].
//!
//! Deterministic kill schedules for tests: the `i`-th spawned worker
//! is told (via the `FLIT_WORKER_EXIT_AFTER` environment variable) to
//! exit cleanly right *before* answering its `n`-th query, losing an
//! in-flight query on purpose. Once the schedule is exhausted, fresh
//! workers are immortal, so recovery always terminates.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use serde::{Deserialize, Serialize};

use flit_persist::{read_framed, write_framed, CodecError};
use flit_trace::names::counter;
use flit_trace::sink::TraceSink;

use crate::backend::{AnswerEnvelope, ExecBackend, ExecError, QueryEnvelope, ThreadsBackend};

/// Environment variable holding a worker's scheduled exit point: the
/// worker exits right before sending its `n`-th answer.
pub const WORKER_EXIT_AFTER_ENV: &str = "FLIT_WORKER_EXIT_AFTER";

/// Largest frame either side of the worker pipe reads, newline
/// included (64 MiB). The largest real message is a `ToWorker::Task`:
/// framing the search task of every bundled app test (mfem's 19,
/// laghos, laghos-xsw, lulesh) gave at most 1,258,652 bytes (mfem
/// ex08: a 1,092,518-byte task body nested 8 deep), so the cap leaves
/// a ~50x margin.
pub const MAX_WIRE_FRAME: u64 = 64 * 1024 * 1024;

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ToWorker {
    /// Register a search task body under its digest. Sent at most once
    /// per (worker, task); queries reference the digest only.
    Task {
        /// Stable digest of `body`.
        digest: String,
        /// The serialized search task.
        body: String,
    },
    /// Evaluate one query against a registered task.
    Query {
        /// Coordinator-unique query id, echoed in the answer.
        id: u64,
        /// Digest of the task to evaluate against.
        digest: String,
        /// The serialized query spec.
        spec: String,
    },
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FromWorker {
    /// The answer to one query.
    Answer {
        /// The query id being answered.
        id: u64,
        /// The serialized answer record (checkpoint-journal answer
        /// schema).
        payload: String,
    },
}

/// The worker half of the protocol: serve framed [`ToWorker`] lines
/// from `input` until EOF, answering queries through `eval(digest,
/// task_body, spec) -> payload`. `exit_after` implements the kill
/// schedule: when `Some(n)`, the worker exits cleanly right before
/// sending its `n`-th answer (so that query is lost in flight and the
/// coordinator must requeue it).
///
/// Protocol errors (corrupt frames, queries against unregistered
/// tasks) are returned as `Err`; the coordinator observes the broken
/// pipe and treats the worker as dead.
pub fn serve_worker(
    mut input: impl BufRead,
    mut output: impl Write,
    exit_after: Option<u64>,
    mut eval: impl FnMut(&str, &str, &str) -> String,
) -> std::io::Result<()> {
    let invalid = |message| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let mut tasks: HashMap<String, String> = HashMap::new();
    let mut served: u64 = 0;
    while let Some(msg) = read_framed(&mut input, MAX_WIRE_FRAME).map_err(|e| match e {
        CodecError::Parse(e) => invalid(format!("bad message: {e}")),
        e => e.into(),
    })? {
        match msg {
            ToWorker::Task { digest, body } => {
                tasks.insert(digest, body);
            }
            ToWorker::Query { id, digest, spec } => {
                if exit_after.is_some_and(|n| served >= n) {
                    // Scheduled death: drop the in-flight query on the
                    // floor and exit cleanly.
                    return Ok(());
                }
                let body = tasks.get(&digest).ok_or_else(|| {
                    invalid(format!("query {id} references unregistered task {digest}"))
                })?;
                let payload = eval(&digest, body, &spec);
                write_framed(&mut output, &FromWorker::Answer { id, payload })?;
                served += 1;
            }
        }
    }
    Ok(())
}

struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Task digests this worker has already been sent.
    seen_tasks: HashSet<String>,
}

struct PoolState {
    idle: Vec<Worker>,
    /// Workers currently alive (idle + checked out).
    live: usize,
    /// Total workers ever spawned (indexes the kill schedule).
    spawned: usize,
}

/// The multi-process backend: a demand-spawned pool of worker
/// subprocesses, at most `workers` alive at a time.
pub struct ProcessBackend {
    /// Worker command line (`argv[0]` + args), e.g. `["flit", "worker"]`.
    cmd: Vec<String>,
    /// Local fan-out for the driver loop (the planner always runs in
    /// the coordinator; only query evaluation crosses the wire).
    local: ThreadsBackend,
    trace: TraceSink,
    state: Mutex<PoolState>,
    available: Condvar,
    next_query: AtomicU64,
    /// Scheduled exits for the first `kill_schedule.len()` spawns.
    kill_schedule: Vec<u64>,
}

impl ProcessBackend {
    /// A process backend spawning `cmd` workers, with tracing disabled.
    pub fn new(cmd: Vec<String>, workers: usize) -> Self {
        Self::with_trace(cmd, workers, TraceSink::disabled())
    }

    /// A process backend recording `exec.backend.*` and `exec.jobs.*`
    /// counters into `trace`. Width `0` clamps to 1, matching
    /// [`ThreadsBackend::new`].
    pub fn with_trace(cmd: Vec<String>, workers: usize, trace: TraceSink) -> Self {
        assert!(!cmd.is_empty(), "worker command must name a program");
        ProcessBackend {
            cmd,
            local: ThreadsBackend::with_trace(workers, trace.clone()),
            trace,
            state: Mutex::new(PoolState {
                idle: Vec::new(),
                live: 0,
                spawned: 0,
            }),
            available: Condvar::new(),
            next_query: AtomicU64::new(0),
            kill_schedule: Vec::new(),
        }
    }

    /// Install a deterministic kill schedule: the `i`-th spawned worker
    /// exits right before its `schedule[i]`-th answer. Spawns beyond
    /// the schedule are immortal, so recovery always terminates.
    pub fn with_kill_schedule(mut self, schedule: Vec<u64>) -> Self {
        self.kill_schedule = schedule;
        self
    }

    /// Retries a single query survives before the backend gives up:
    /// every scheduled kill could land on the same query, plus a small
    /// budget for real worker failures.
    fn retry_budget(&self) -> usize {
        self.kill_schedule.len() + 3
    }

    /// Lock the pool state, recovering a poisoned guard.
    ///
    /// A coordinator thread that panics while holding this lock (the
    /// local fan-out catches the unwind, but the guard is already dropped
    /// poisoned) must not cascade into an abort for every other
    /// in-flight dispatch. Recovery is sound here because every pool
    /// mutation is requeue-idempotent: `idle`/`live`/`spawned` are
    /// adjusted in single steps and a worker observed in any
    /// intermediate state is simply retired and respawned by the
    /// normal crash-recovery path.
    fn pool(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Test hook: poison the pool lock by panicking a thread that holds
    /// it, simulating a coordinator panic mid-dispatch.
    #[doc(hidden)]
    pub fn poison_pool_for_tests(&self) {
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = self.pool();
                    panic!("injected pool poison");
                })
                .join()
        });
        assert!(result.is_err(), "the injected panic must poison the lock");
        assert!(self.state.is_poisoned(), "lock must now be poisoned");
    }

    fn spawn_worker(&self, index: usize) -> Result<Worker, String> {
        let mut command = Command::new(&self.cmd[0]);
        command
            .args(&self.cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(n) = self.kill_schedule.get(index) {
            command.env(WORKER_EXIT_AFTER_ENV, n.to_string());
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("failed to spawn worker `{}`: {e}", self.cmd[0]))?;
        let stdin = child.stdin.take().expect("worker stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("worker stdout was piped"));
        self.trace
            .counter(counter::EXEC_BACKEND_WORKER_SPAWNS)
            .incr(1);
        Ok(Worker {
            child,
            stdin,
            stdout,
            seen_tasks: HashSet::new(),
        })
    }

    /// Take an idle worker, spawning one if the pool is under width;
    /// blocks while the pool is saturated.
    fn checkout(&self) -> Result<Worker, String> {
        let mut state = self.pool();
        loop {
            if let Some(worker) = state.idle.pop() {
                return Ok(worker);
            }
            if state.live < self.local.workers() {
                state.live += 1;
                let index = state.spawned;
                state.spawned += 1;
                drop(state);
                return self.spawn_worker(index).inspect_err(|_| {
                    let mut state = self.pool();
                    state.live -= 1;
                    self.available.notify_one();
                });
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn checkin(&self, worker: Worker) {
        let mut state = self.pool();
        state.idle.push(worker);
        self.available.notify_one();
    }

    /// A worker died mid-exchange: reap it and free its pool slot.
    fn retire(&self, mut worker: Worker) {
        self.trace
            .counter(counter::EXEC_BACKEND_WORKER_DEATHS)
            .incr(1);
        let _ = worker.child.kill();
        let _ = worker.child.wait();
        let mut state = self.pool();
        state.live -= 1;
        self.available.notify_one();
    }

    /// One request/response exchange on one worker. Any error means
    /// the worker is unusable and the query is still unanswered.
    fn exchange(&self, worker: &mut Worker, query: &QueryEnvelope) -> Result<String, String> {
        if !worker.seen_tasks.contains(&query.task_digest) {
            let task = ToWorker::Task {
                digest: query.task_digest.clone(),
                body: query.task.clone(),
            };
            write_framed(&mut worker.stdin, &task)
                .map_err(|e| format!("worker rejected task registration: {e}"))?;
            worker.seen_tasks.insert(query.task_digest.clone());
        }
        let id = self.next_query.fetch_add(1, Ordering::Relaxed);
        let msg = ToWorker::Query {
            id,
            digest: query.task_digest.clone(),
            spec: query.spec.clone(),
        };
        write_framed(&mut worker.stdin, &msg)
            .map_err(|e| format!("worker rejected query {id}: {e}"))?;

        let answer = read_framed(&mut worker.stdout, MAX_WIRE_FRAME).map_err(|e| match e {
            CodecError::Io(e) => format!("reading answer to query {id} failed: {e}"),
            CodecError::Frame(e) => format!("corrupt answer frame for query {id}: {e}"),
            e => format!("unparseable answer for query {id}: {e}"),
        })?;
        let Some(FromWorker::Answer { id: got, payload }) = answer else {
            return Err(format!("worker died with query {id} in flight"));
        };
        if got != id {
            return Err(format!("answer id {got} does not match query id {id}"));
        }
        Ok(payload)
    }
}

impl ExecBackend for ProcessBackend {
    fn label(&self) -> &str {
        "process"
    }

    fn workers(&self) -> usize {
        self.local.workers()
    }

    fn is_remote(&self) -> bool {
        true
    }

    fn run_units(&self, units: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), ExecError> {
        self.local.run_units(units, f)
    }

    /// Graceful drain: wait until every checked-out worker has been
    /// returned (or retired), then reap the idle pool. The backend
    /// stays usable — a later dispatch respawns workers on demand.
    fn drain(&self) {
        let mut state = self.pool();
        while state.idle.len() < state.live {
            state = self
                .available
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let idle: Vec<Worker> = state.idle.drain(..).collect();
        state.live -= idle.len();
        for mut worker in idle {
            drop(worker.stdin);
            let _ = worker.child.kill();
            let _ = worker.child.wait();
        }
    }

    fn dispatch(&self, query: &QueryEnvelope) -> Result<AnswerEnvelope, ExecError> {
        self.trace.counter(counter::EXEC_BACKEND_DISPATCHED).incr(1);
        let mut attempts = 0usize;
        let mut last_error;
        loop {
            let mut worker = self
                .checkout()
                .map_err(|message| ExecError::Backend { message })?;
            match self.exchange(&mut worker, query) {
                Ok(payload) => {
                    self.checkin(worker);
                    return Ok(AnswerEnvelope { payload });
                }
                Err(e) => {
                    self.retire(worker);
                    last_error = e;
                }
            }
            attempts += 1;
            if attempts > self.retry_budget() {
                return Err(ExecError::Backend {
                    message: format!(
                        "query failed on {attempts} workers; giving up (last: {last_error})"
                    ),
                });
            }
            self.trace.counter(counter::EXEC_BACKEND_REQUEUED).incr(1);
        }
    }
}

impl Drop for ProcessBackend {
    fn drop(&mut self) {
        let mut state = self.pool();
        for mut worker in state.idle.drain(..) {
            // Closing stdin asks the worker to exit; kill covers a
            // worker stuck mid-query.
            drop(worker.stdin);
            let _ = worker.child.kill();
            let _ = worker.child.wait();
        }
    }
}

impl std::fmt::Debug for ProcessBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessBackend")
            .field("cmd", &self.cmd)
            .field("workers", &self.local.workers())
            .field("kill_schedule", &self.kill_schedule)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_persist::{decode_framed, encode_framed};

    #[test]
    fn protocol_messages_round_trip_framed() {
        let msgs = [
            ToWorker::Task {
                digest: "d0".into(),
                body: "{\"program\":\"ex1\"}".into(),
            },
            ToWorker::Query {
                id: 7,
                digest: "d0".into(),
                spec: "{\"Run\":{}}".into(),
            },
        ];
        for msg in msgs {
            let line = encode_framed(&msg);
            assert_eq!(decode_framed::<ToWorker>(&line).unwrap(), msg);
        }
        let ans = FromWorker::Answer {
            id: 7,
            payload: "{\"Crash\":{\"message\":\"segv\"}}".into(),
        };
        let line = encode_framed(&ans);
        assert_eq!(decode_framed::<FromWorker>(&line).unwrap(), ans);
    }

    #[test]
    fn serve_worker_registers_tasks_and_answers_queries() {
        let send = |msgs: &[ToWorker]| -> String {
            msgs.iter().map(|m| encode_framed(m) + "\n").collect()
        };
        let input = send(&[
            ToWorker::Task {
                digest: "t".into(),
                body: "BODY".into(),
            },
            ToWorker::Query {
                id: 0,
                digest: "t".into(),
                spec: "S0".into(),
            },
            ToWorker::Query {
                id: 1,
                digest: "t".into(),
                spec: "S1".into(),
            },
        ]);
        let mut out = Vec::new();
        serve_worker(input.as_bytes(), &mut out, None, |digest, body, spec| {
            format!("{digest}/{body}/{spec}")
        })
        .unwrap();
        let answers: Vec<FromWorker> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| decode_framed(l).unwrap())
            .collect();
        assert_eq!(
            answers,
            vec![
                FromWorker::Answer {
                    id: 0,
                    payload: "t/BODY/S0".into()
                },
                FromWorker::Answer {
                    id: 1,
                    payload: "t/BODY/S1".into()
                },
            ]
        );
    }

    #[test]
    fn serve_worker_honors_its_scheduled_exit() {
        let send = |msgs: &[ToWorker]| -> String {
            msgs.iter().map(|m| encode_framed(m) + "\n").collect()
        };
        let input = send(&[
            ToWorker::Task {
                digest: "t".into(),
                body: "B".into(),
            },
            ToWorker::Query {
                id: 0,
                digest: "t".into(),
                spec: "S0".into(),
            },
            ToWorker::Query {
                id: 1,
                digest: "t".into(),
                spec: "S1".into(),
            },
        ]);
        let mut out = Vec::new();
        // Exit before the second answer: exactly one answer emitted,
        // query 1 lost in flight.
        serve_worker(input.as_bytes(), &mut out, Some(1), |_, _, spec| {
            spec.to_string()
        })
        .unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 1);
        // Exit before the first answer: nothing emitted at all.
        let mut out = Vec::new();
        serve_worker(input.as_bytes(), &mut out, Some(0), |_, _, spec| {
            spec.to_string()
        })
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn serve_worker_rejects_unregistered_tasks_and_bad_frames() {
        let query = encode_framed(&ToWorker::Query {
            id: 0,
            digest: "nope".into(),
            spec: "S".into(),
        }) + "\n";
        let mut out = Vec::new();
        let err =
            serve_worker(query.as_bytes(), &mut out, None, |_, _, s| s.to_string()).unwrap_err();
        assert!(err.to_string().contains("unregistered"), "{err}");
        let mut out = Vec::new();
        let err = serve_worker(
            "this is not a frame\n".as_bytes(),
            &mut out,
            None,
            |_, _, s| s.to_string(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("bad frame"), "{err}");
    }

    #[test]
    fn a_poisoned_pool_lock_is_recovered_not_cascaded() {
        // A coordinator thread that panics while holding the pool lock
        // poisons it. Before the fix, every subsequent dispatch (any
        // other tenant's queries) panicked in `checkout` and aborted
        // the run; now the guard is recovered and dispatch proceeds to
        // its normal structured-error path.
        let backend = ProcessBackend::new(vec!["false".into()], 2);
        backend.poison_pool_for_tests();
        let err = backend
            .dispatch(&QueryEnvelope {
                task_digest: "t".into(),
                task: "{}".into(),
                spec: "{}".into(),
            })
            .unwrap_err();
        match err {
            ExecError::Backend { message } => {
                assert!(message.contains("giving up"), "{message}");
            }
            other => panic!("expected Backend, got {other:?}"),
        }
        // Checkin/retire/drain paths also survive the poisoned lock.
        backend.drain();
    }

    #[test]
    fn drain_reaps_idle_workers_and_leaves_the_backend_usable() {
        // `sleep` ignores stdin, so every spawned worker is immortal
        // until killed; checkout/checkin park one in the idle pool.
        let backend = ProcessBackend::new(vec!["sleep".into(), "30".into()], 2);
        let worker = backend.checkout().expect("spawn succeeds");
        let pid = worker.child.id();
        backend.checkin(worker);
        {
            let state = backend.pool();
            assert_eq!((state.idle.len(), state.live), (1, 1));
        }
        backend.drain();
        {
            let state = backend.pool();
            assert_eq!((state.idle.len(), state.live), (0, 0));
        }
        // The worker process is gone (kill+wait happened), and the
        // backend can still spawn fresh workers afterwards.
        let again = backend.checkout().expect("respawn after drain");
        assert_ne!(again.child.id(), pid);
        backend.checkin(again);
        backend.drain();
    }

    #[test]
    fn dispatch_exhausts_its_retry_budget_into_a_structured_error() {
        // `false` exits immediately: every exchange sees EOF. The
        // backend must retire/respawn up to its budget and then give
        // up with ExecError::Backend, not hang or panic.
        let backend = ProcessBackend::new(vec!["false".into()], 2);
        let err = backend
            .dispatch(&QueryEnvelope {
                task_digest: "t".into(),
                task: "{}".into(),
                spec: "{}".into(),
            })
            .unwrap_err();
        match err {
            ExecError::Backend { message } => {
                assert!(message.contains("giving up"), "{message}");
            }
            other => panic!("expected Backend, got {other:?}"),
        }
    }
}

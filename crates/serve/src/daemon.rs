//! The daemon: accept loop, runner pool, tenant journals, fleet
//! ledger.
//!
//! One [`std::net::TcpListener`] accept loop hands each connection to
//! its own thread; `Submit` requests pass admission control, enter the
//! deterministic `FairQueue`, and are executed by a fixed pool of
//! runner threads. Each job gets a *tenant* [`QueryLedger`] — journaled
//! at [`flit_persist::tenant_journal_path`] so a killed daemon resumes
//! every tenant from disk — chained upstream to a *fleet* ledger per
//! application fingerprint, so identical queries submitted by
//! different tenants execute once fleet-wide and surface as
//! `exec.queries.shared_hits` on the daemon's trace sink.
//!
//! `Shutdown` is a graceful drain: new submissions are refused, queued
//! and in-flight jobs finish, the shared [`ExecBackend`] is drained,
//! the trace snapshot (if requested) is exported atomically, and only
//! then is the acknowledgement sent.

use std::collections::{BTreeMap, HashMap};
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use flit_bisect::journal::JournalWriter;
use flit_bisect::ledger::QueryLedger;
use flit_exec::ExecBackend;
use flit_persist::{read_framed, tenant_journal_path, write_framed, CodecError};
use flit_report::stats::t_confidence_interval;
use flit_trace::names::{counter as counter_names, phase};
use flit_trace::registry::Counter;
use flit_trace::sink::TraceSink;

use crate::protocol::{
    FleetStats, LatencySummary, Request, Response, StatusReport, MAX_REQUEST_FRAME,
    PROTOCOL_VERSION, REQUEST_DEADLINE,
};
use crate::sched::FairQueue;

/// One workflow submission, as the runner sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The submitting tenant (raw id; the daemon sanitizes it before
    /// it touches the filesystem).
    pub tenant: String,
    /// The bundled application name.
    pub app: String,
    /// Cap on bisections (`None` = all).
    pub max_bisections: Option<usize>,
    /// Worker threads for the workflow's bisection stage.
    pub jobs: Option<usize>,
}

/// A completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The rendered report — byte-identical to the serial CLI run.
    pub body: String,
    /// The job's simulated seconds (the submit endpoint's latency
    /// unit).
    pub simulated_seconds: f64,
}

/// What the daemon knows how to execute. The CLI implements this with
/// its bundled applications and the shared report renderer; the crate
/// itself stays ignorant of the workflow (and the dependency graph
/// stays acyclic).
pub trait WorkflowRunner: Send + Sync {
    /// The structural fingerprint of `app`'s program — keys the
    /// per-tenant journal file and the fleet ledger. `Err` for an
    /// unknown application.
    fn fingerprint(&self, app: &str) -> Result<u64, String>;

    /// Run one workflow against the (journal-attached, fleet-chained)
    /// tenant ledger and render its report.
    fn run(&self, req: &JobRequest, ledger: Arc<QueryLedger>) -> Result<JobOutcome, String>;
}

/// Daemon configuration.
pub struct ServeConfig {
    /// Root of the daemon's persistent state; tenant journals live
    /// under `<state_dir>/tenants/...`.
    pub state_dir: PathBuf,
    /// Runner threads: how many submissions execute concurrently.
    pub max_inflight: usize,
    /// Admission cap: queued + running submissions beyond this are
    /// refused with a structured error (never queued unboundedly).
    pub max_pending: usize,
    /// The daemon's trace sink. Fleet ledgers record their
    /// `exec.queries.*` counters here, and the `serve.*` counters and
    /// per-job spans land here — this is what the Fleet table renders.
    pub trace: TraceSink,
    /// The shared execution backend to drain at shutdown, if the
    /// runner uses one (e.g. the process backend's worker pool).
    pub backend: Option<Arc<dyn ExecBackend>>,
    /// Where to export the trace snapshot (JSONL, written atomically)
    /// during the shutdown drain.
    pub trace_export: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: PathBuf::from("flit-serve-state"),
            max_inflight: 2,
            max_pending: 64,
            trace: TraceSink::enabled(),
            backend: None,
            trace_export: None,
        }
    }
}

/// Lifetime totals, returned to the caller of [`serve`] after the
/// drain completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Submissions accepted.
    pub submissions: u64,
    /// Submissions that produced a response.
    pub completed: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Distinct tenants seen.
    pub tenants: usize,
}

struct Job {
    req: JobRequest,
    reply: mpsc::Sender<Result<JobOutcome, String>>,
}

#[derive(Default)]
struct Sched {
    queue: FairQueue<Job>,
    running: usize,
    draining: bool,
    stop_workers: bool,
}

struct Inner {
    cfg: ServeConfig,
    local_addr: std::net::SocketAddr,
    runner: Arc<dyn WorkflowRunner>,
    sched: Mutex<Sched>,
    work_ready: Condvar,
    idle: Condvar,
    /// Fleet ledger per application fingerprint. Created lazily on the
    /// daemon's trace sink, so its physical counters are the fleet
    /// counters.
    ledgers: Mutex<HashMap<u64, Arc<QueryLedger>>>,
    /// Tenant id → stable nonzero fleet origin. Distinct per tenant,
    /// so the fleet ledger's `shared_hits` counts exactly the
    /// cross-tenant deduplication.
    origins: Mutex<BTreeMap<String, u64>>,
    latencies: Mutex<Vec<f64>>,
    submissions: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    stop_accepting: AtomicBool,
    c_submissions: Counter,
    c_completed: Counter,
    c_rejected: Counter,
    c_tenants: Counter,
    c_status: Counter,
}

impl Inner {
    fn new(
        cfg: ServeConfig,
        local_addr: std::net::SocketAddr,
        runner: Arc<dyn WorkflowRunner>,
    ) -> Self {
        let trace = cfg.trace.clone();
        Inner {
            local_addr,
            runner,
            sched: Mutex::new(Sched::default()),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            ledgers: Mutex::new(HashMap::new()),
            origins: Mutex::new(BTreeMap::new()),
            latencies: Mutex::new(Vec::new()),
            submissions: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            stop_accepting: AtomicBool::new(false),
            c_submissions: trace.counter(counter_names::SERVE_SUBMISSIONS),
            c_completed: trace.counter(counter_names::SERVE_COMPLETED),
            c_rejected: trace.counter(counter_names::SERVE_REJECTED),
            c_tenants: trace.counter(counter_names::SERVE_TENANTS),
            c_status: trace.counter(counter_names::SERVE_STATUS_REQUESTS),
            cfg,
        }
    }

    /// Poisoned-lock recovery mirrors the process backend's pool: all
    /// guarded state is requeue-idempotent, so a panicking holder must
    /// not cascade into every other tenant's thread.
    fn sched(&self) -> std::sync::MutexGuard<'_, Sched> {
        self.sched
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The stable fleet origin for `tenant`, assigning the next free
    /// one (1-based; 0 is the ledger's replay tag) on first sight.
    fn origin_for(&self, tenant: &str) -> u64 {
        let mut origins = self
            .origins
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(origin) = origins.get(tenant) {
            return *origin;
        }
        let origin = origins.len() as u64 + 1;
        origins.insert(tenant.to_string(), origin);
        self.c_tenants.incr(1);
        origin
    }

    fn fleet_ledger(&self, fingerprint: u64) -> Arc<QueryLedger> {
        let mut ledgers = self
            .ledgers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ledgers
            .entry(fingerprint)
            .or_insert_with(|| QueryLedger::new(fingerprint, &self.cfg.trace))
            .clone()
    }

    fn fleet_stats(&self) -> FleetStats {
        let ledgers = self
            .ledgers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut fleet = FleetStats::default();
        for ledger in ledgers.values() {
            let s = ledger.stats();
            fleet.executed += s.executed;
            fleet.memoized += s.memoized;
            fleet.shared_hits += s.shared_hits;
        }
        fleet
    }

    fn latency_summary(&self) -> Option<LatencySummary> {
        let xs = self
            .latencies
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let ci = t_confidence_interval(&xs, 0.95)?;
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let p95 = sorted[((sorted.len() as f64 * 0.95).ceil() as usize).max(1) - 1];
        Some(LatencySummary {
            n: xs.len() as u64,
            mean: xs.iter().sum::<f64>() / xs.len() as f64,
            ci_lo: ci.lo,
            ci_hi: ci.hi,
            level: ci.level,
            p95,
        })
    }

    fn status(&self) -> StatusReport {
        StatusReport {
            version: PROTOCOL_VERSION,
            tenants: self
                .origins
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .keys()
                .cloned()
                .collect(),
            submissions: self.submissions.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            fleet: self.fleet_stats(),
            latency: self.latency_summary(),
        }
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            submissions: self.submissions.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            tenants: self
                .origins
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len(),
        }
    }

    /// Execute one job: resolve the app, wire the tenant ledger
    /// (journal on disk, fleet upstream), and run.
    fn run_job(&self, req: &JobRequest) -> Result<JobOutcome, String> {
        let fingerprint = self.runner.fingerprint(&req.app)?;
        let fleet = self.fleet_ledger(fingerprint);
        let origin = self.origin_for(&req.tenant);
        let path = tenant_journal_path(&self.cfg.state_dir, &req.tenant, fingerprint);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create tenant state dir {}: {e}", dir.display()))?;
        }
        let ledger = QueryLedger::new(fingerprint, &TraceSink::disabled());
        if let Some(backend) = &self.cfg.backend {
            ledger.set_backend_label(backend.label());
        }
        if path.exists() {
            let (writer, records) = JournalWriter::resume(&path, fingerprint)
                .map_err(|e| format!("tenant journal is unusable: {e}"))?;
            ledger.preload(&records);
            ledger.attach_journal(writer);
        } else {
            let writer = JournalWriter::create(&path, fingerprint)
                .map_err(|e| format!("cannot create tenant journal {}: {e}", path.display()))?;
            ledger.attach_journal(writer);
        }
        ledger.set_upstream(fleet, origin);
        let outcome = self.runner.run(req, ledger.clone())?;
        if let Some(e) = ledger.journal_error() {
            return Err(format!("workflow succeeded but checkpointing failed: {e}"));
        }
        self.cfg.trace.span(
            phase::SERVE,
            format!("{}/{}", req.tenant, req.app),
            1,
            outcome.simulated_seconds,
        );
        self.latencies
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(outcome.simulated_seconds);
        Ok(outcome)
    }

    /// Runner-thread loop: pop under the fair rotation, execute,
    /// reply. Exits when told to stop *and* the queue is dry.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut sched = self.sched();
                loop {
                    if let Some((_tenant, job)) = sched.queue.pop() {
                        sched.running += 1;
                        break job;
                    }
                    if sched.stop_workers {
                        return;
                    }
                    sched = self
                        .work_ready
                        .wait(sched)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let result = self.run_job(&job.req);
            self.completed.fetch_add(1, Ordering::Relaxed);
            self.c_completed.incr(1);
            // A receiver that hung up (client disconnected mid-job)
            // must not kill the worker; the work is journaled anyway.
            let _ = job.reply.send(result);
            let mut sched = self.sched();
            sched.running -= 1;
            drop(sched);
            self.idle.notify_all();
        }
    }

    fn handle_submit(&self, req: JobRequest) -> Result<JobOutcome, String> {
        let (tx, rx) = mpsc::channel();
        {
            let mut sched = self.sched();
            if sched.draining {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.c_rejected.incr(1);
                return Err("daemon is draining; submission refused".to_string());
            }
            if sched.queue.len() + sched.running >= self.cfg.max_pending {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.c_rejected.incr(1);
                return Err(format!(
                    "admission control: {} submissions pending (cap {})",
                    sched.queue.len() + sched.running,
                    self.cfg.max_pending
                ));
            }
            self.submissions.fetch_add(1, Ordering::Relaxed);
            self.c_submissions.incr(1);
            // Assign the tenant's fleet origin at admission so the
            // status endpoint counts tenants even while jobs queue.
            self.origin_for(&req.tenant);
            let tenant = req.tenant.clone();
            sched.queue.push(&tenant, Job { req, reply: tx });
        }
        self.work_ready.notify_all();
        match rx.recv() {
            Ok(result) => result,
            Err(_) => Err("daemon stopped before the job ran".to_string()),
        }
    }

    /// Drain: refuse new work, wait for the queue and the in-flight
    /// jobs, wind the backend down, export the trace.
    fn drain(&self) {
        let mut sched = self.sched();
        sched.draining = true;
        while !sched.queue.is_empty() || sched.running > 0 {
            sched = self
                .idle
                .wait(sched)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        sched.stop_workers = true;
        drop(sched);
        self.work_ready.notify_all();
        if let Some(backend) = &self.cfg.backend {
            backend.drain();
        }
        if let Some(path) = &self.cfg.trace_export {
            let jsonl = self.cfg.trace.snapshot().to_jsonl();
            if let Err(e) = flit_persist::write_atomic(path, jsonl.as_bytes()) {
                eprintln!("flit-serve: trace export to {} failed: {e}", path.display());
            }
        }
    }

    fn handle_connection(&self, stream: TcpStream) {
        let reply = |response: &Response| {
            let _ = write_framed(&stream, response);
        };
        let refuse = |message: String| reply(&Response::Error { message });
        let within_deadline = DeadlineReader {
            stream: &stream,
            deadline: Instant::now() + REQUEST_DEADLINE,
        };
        let request: Request = match read_framed(BufReader::new(within_deadline), MAX_REQUEST_FRAME)
        {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(CodecError::Io(e)) if matches!(e.kind(), WouldBlock | TimedOut) => {
                let secs = REQUEST_DEADLINE.as_secs();
                return refuse(format!("no request within {secs} s"));
            }
            Err(e) => return refuse(format!("unreadable request: {e}")),
        };
        if request.version() != PROTOCOL_VERSION {
            return refuse(format!(
                "protocol version mismatch: client speaks {}, daemon speaks {}",
                request.version(),
                PROTOCOL_VERSION
            ));
        }
        let response = match request {
            Request::Submit {
                tenant,
                app,
                max_bisections,
                jobs,
                ..
            } => {
                let outcome = self.handle_submit(JobRequest {
                    tenant: tenant.clone(),
                    app,
                    max_bisections,
                    jobs,
                });
                match outcome {
                    Ok(outcome) => Response::Report {
                        tenant,
                        body: outcome.body,
                        simulated_seconds: outcome.simulated_seconds,
                    },
                    Err(message) => Response::Error { message },
                }
            }
            Request::Status { .. } => {
                self.c_status.incr(1);
                Response::Status(self.status())
            }
            Request::Shutdown { .. } => {
                self.drain();
                self.stop_accepting.store(true, Ordering::SeqCst);
                reply(&Response::ShutdownAck {
                    completed: self.completed.load(Ordering::Relaxed),
                });
                // The acceptor only rechecks the stop flag when a
                // connection arrives; hand it one.
                wake_acceptor(self.local_addr);
                return;
            }
        };
        reply(&response);
    }
}

/// Run the daemon on `listener` until a `Shutdown` request drains it.
/// Blocks; returns the lifetime summary after the drain completes.
pub fn serve(
    listener: TcpListener,
    runner: Arc<dyn WorkflowRunner>,
    cfg: ServeConfig,
) -> std::io::Result<ServeSummary> {
    let local_addr = listener.local_addr()?;
    let max_inflight = cfg.max_inflight.max(1);
    let inner = Inner::new(cfg, local_addr, runner);
    std::thread::scope(|scope| {
        for _ in 0..max_inflight {
            scope.spawn(|| inner.worker_loop());
        }
        for stream in listener.incoming() {
            if inner.stop_accepting.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    scope.spawn(|| inner.handle_connection(stream));
                }
                Err(e) => {
                    eprintln!("flit-serve: accept failed: {e}");
                }
            }
        }
        // Reached only if the acceptor stopped without a drain (e.g. a
        // listener error): make sure the workers can exit.
        let mut sched = inner.sched();
        sched.stop_workers = true;
        drop(sched);
        inner.work_ready.notify_all();
    });
    Ok(inner.summary())
}

/// Wake an acceptor blocked in `accept` by handing it a throwaway
/// connection. The shutdown path calls this itself after setting the
/// stop flag; it is public for harnesses that stop a daemon by other
/// means.
pub(crate) fn wake_acceptor(addr: std::net::SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// A request reader bounded by one deadline for the whole request, not
/// per read: each read re-arms the socket timeout to the time left, so
/// a client trickling bytes cannot hold its connection thread past it.
struct DeadlineReader<'s> {
    stream: &'s TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(TimedOut.into());
        }
        let mut stream = self.stream;
        stream.set_read_timeout(Some(left))?;
        stream.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A runner that "renders" by echoing the request — enough to
    /// exercise scheduling, journaling, dedup, and drain end-to-end
    /// without the workflow stack.
    struct EchoRunner;

    impl WorkflowRunner for EchoRunner {
        fn fingerprint(&self, app: &str) -> Result<u64, String> {
            match app {
                "echo" => Ok(0xfeed),
                other => Err(format!("unknown application `{other}`")),
            }
        }

        fn run(&self, req: &JobRequest, ledger: Arc<QueryLedger>) -> Result<JobOutcome, String> {
            use flit_bisect::ledger::LedgerHandle;
            // Two queries: one identical across all tenants (the dedup
            // probe), one tenant-specific.
            let handle = LedgerHandle::new(ledger, 1, format!("{}/echo", req.tenant));
            let (shared, _) = handle
                .eval_score("file/echo/shared", || Ok((42.0, 1.0)))
                .map_err(|e| e.to_string())?;
            let key = format!("file/echo/{}", req.tenant);
            let (own, _) = handle
                .eval_score(&key, || Ok((7.0, 0.5)))
                .map_err(|e| e.to_string())?;
            Ok(JobOutcome {
                body: format!("echo {} shared={shared} own={own}\n", req.tenant),
                simulated_seconds: 1.5,
            })
        }
    }

    fn start_daemon(
        state_dir: &std::path::Path,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<ServeSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = ServeConfig {
            state_dir: state_dir.to_path_buf(),
            max_inflight: 2,
            ..ServeConfig::default()
        };
        let handle =
            std::thread::spawn(move || serve(listener, Arc::new(EchoRunner), cfg).unwrap());
        (addr, handle)
    }

    fn shutdown_and_join(
        addr: std::net::SocketAddr,
        handle: std::thread::JoinHandle<ServeSummary>,
    ) -> ServeSummary {
        match crate::protocol::shutdown(addr).unwrap() {
            Response::ShutdownAck { .. } => {}
            other => panic!("expected ShutdownAck, got {other:?}"),
        }
        handle.join().unwrap()
    }

    #[test]
    fn submissions_dedupe_across_tenants_and_status_reports_it() {
        let dir = std::env::temp_dir().join(format!("flit-serve-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start_daemon(&dir);

        let threads: Vec<_> = ["team-a", "team-b", "team-c"]
            .into_iter()
            .map(|tenant| {
                std::thread::spawn(move || {
                    crate::protocol::submit(addr, tenant, "echo", None, None).unwrap()
                })
            })
            .collect();
        for t in threads {
            match t.join().unwrap() {
                Response::Report { body, .. } => assert!(body.contains("shared=42"), "{body}"),
                other => panic!("expected Report, got {other:?}"),
            }
        }

        let status = match crate::protocol::status(addr).unwrap() {
            Response::Status(s) => s,
            other => panic!("expected Status, got {other:?}"),
        };
        assert_eq!(status.tenants, ["team-a", "team-b", "team-c"]);
        assert_eq!(status.submissions, 3);
        assert_eq!(status.completed, 3);
        // The shared query executed once; the other two tenants hit it
        // fleet-wide. Tenant-specific queries never count as shared.
        assert_eq!(status.fleet.executed, 1 + 3);
        assert_eq!(status.fleet.shared_hits, 2);
        let latency = status.latency.expect("3 completed jobs have latency");
        assert_eq!(latency.n, 3);
        assert!((latency.mean - 1.5).abs() < 1e-12);
        assert!((latency.p95 - 1.5).abs() < 1e-12);
        assert!(latency.ci_lo <= latency.mean && latency.mean <= latency.ci_hi);

        let summary = shutdown_and_join(addr, handle);
        assert_eq!(summary.submissions, 3);
        assert_eq!(summary.tenants, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_tenant_journals_without_touching_the_fleet() {
        let dir = std::env::temp_dir().join(format!("flit-serve-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start_daemon(&dir);
        let first = match crate::protocol::submit(addr, "team-a", "echo", None, None).unwrap() {
            Response::Report { body, .. } => body,
            other => panic!("expected Report, got {other:?}"),
        };
        shutdown_and_join(addr, handle);

        // "Restart": a fresh daemon over the same state dir. The
        // tenant's journal replays, so the fleet ledger never executes.
        let (addr, handle) = start_daemon(&dir);
        let again = match crate::protocol::submit(addr, "team-a", "echo", None, None).unwrap() {
            Response::Report { body, .. } => body,
            other => panic!("expected Report, got {other:?}"),
        };
        assert_eq!(again, first, "resumed report must be byte-identical");
        let status = match crate::protocol::status(addr).unwrap() {
            Response::Status(s) => s,
            other => panic!("expected Status, got {other:?}"),
        };
        assert_eq!(
            status.fleet.executed, 0,
            "replayed answers must not re-execute fleet-wide"
        );
        shutdown_and_join(addr, handle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_unknown_app_and_draining_are_structured_errors() {
        let dir = std::env::temp_dir().join(format!("flit-serve-errors-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start_daemon(&dir);

        let bad = crate::protocol::roundtrip(
            addr,
            &Request::Status {
                version: PROTOCOL_VERSION + 1,
            },
        )
        .unwrap();
        match bad {
            Response::Error { message } => {
                assert!(message.contains("version mismatch"), "{message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }

        match crate::protocol::submit(addr, "team-a", "no-such-app", None, None).unwrap() {
            Response::Error { message } => {
                assert!(message.contains("unknown application"), "{message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }

        let summary = shutdown_and_join(addr, handle);
        assert_eq!(summary.rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

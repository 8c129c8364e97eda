//! `fleet-process`: an in-process `flit-serve` daemon on the process
//! backend, loaded by closed-loop clients submitting for four tenants.
//!
//! Each pass starts a fresh daemon (set-up: codebase construction,
//! bind, worker-pool warm-up), has [`CLIENTS`] clients submit one
//! seeded [`batch`] round by round — each client sends its next
//! submission only after its previous reply — and drains the daemon. Every reply is checked
//! byte-for-byte against an in-process `run_workflow` of the same
//! request, computed after the measurement window.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use flit_bisect::hierarchy::HierarchicalConfig;
use flit_bisect::ledger::QueryLedger;
use flit_cli::resolve_app;
use flit_core::workflow::{render_workflow_report, run_workflow, WorkflowConfig};
use flit_exec::{ExecBackend, ProcessBackend};
use flit_program::generate::SplitMix;
use flit_serve::daemon::{serve, JobOutcome, JobRequest, ServeConfig, WorkflowRunner};
use flit_serve::protocol::{shutdown, submit, Response};
use flit_trace::names::counter;
use flit_trace::sink::TraceSink;

use crate::probe::{job_key, TimedBackend, TimedRunner};
use crate::stats::{hit_ratio, median, tail, Checks};
use crate::{codebase, fresh_dir, sys, timed, RunArgs, Samples};

/// Worker subprocesses in the process backend's pool.
const WORKERS: usize = 2;
/// Daemon runner threads (`max_inflight`).
const MAX_INFLIGHT: usize = 2;
/// Warm-up rounds allowed before giving up on spawning every worker.
const WARM_UP_ROUNDS: usize = 20;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// The tenants of `serve_bench`, the repository's fleet benchmark.
const TENANTS: [&str; 4] = ["team-a", "team-b", "team-c", "team-d"];
/// The bundled applications: `serve_bench`'s two (laghos, mfem)
/// extended to all four.
const APPS: [&str; 4] = ["mfem", "laghos", "laghos-xsw", "lulesh"];
/// Bisection cap of every submission, as in `serve_bench`.
const MAX_BISECTIONS: usize = 2;
/// Rounds per batch, as in `serve_bench`: each round every tenant
/// submits every application once.
const ROUNDS: usize = 2;
/// Submissions per round.
const ROUND: usize = TENANTS.len() * APPS.len();
/// Untraced passes pooled into one tail sample: 3 batches of 32
/// submissions, so `op_tail_ms` is p89.58 of 96 submissions on every
/// run however many passes fit the window.
pub const TAIL_PASSES: usize = 3;

/// One submission: tenant, app, bisection cap.
pub type Request = (&'static str, &'static str, usize);

/// The seeded batch one pass submits: `serve_bench`'s traffic — every
/// tenant submits every application with the same bisection cap, in
/// two rounds — over the four bundled applications, 32 submissions.
///
/// Per application, the first submission of round one executes new
/// work, the other tenants' submissions share it through the fleet
/// ledger, and every round-two submission replays its tenant's own
/// journal; so the amount of each kind of work is the same on every
/// seed. The seed decides the order within each round, and with it
/// which tenant does the new work. As in `serve_bench` a round starts
/// once the previous one is answered. Within a round the MFEM
/// submissions (a full 245-compilation sweep each, the longest) go
/// last: the short submissions then run beside each other rather than
/// beside whichever MFEM sweep happens to overlap them, and the last
/// two MFEM submissions start and end together, so neither client
/// idles long at the round's end.
pub fn batch(seed: u64) -> Vec<Request> {
    let mut rng = SplitMix::new(seed ^ 0x666c_6565_7462_6e63);
    let mut out = Vec::new();
    for _ in 0..ROUNDS {
        let mut round: Vec<Request> = TENANTS
            .iter()
            .flat_map(|&tenant| APPS.iter().map(move |&app| (tenant, app, MAX_BISECTIONS)))
            .collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i as u64 + 1) as usize);
        }
        round.sort_by_key(|&(_, app, _)| app == "mfem");
        out.extend(round);
    }
    out
}

/// The report-header note the CLI prints for this backend choice.
fn note() -> String {
    format!(" | process backend ({WORKERS} workers)")
}

/// The daemon-side runner: the `flit serve --backend process` runner,
/// rebuilt from public items (resolve the bundled app per job, run the
/// workflow against the tenant ledger, render through the shared
/// renderer).
struct BenchRunner {
    backend: Arc<dyn ExecBackend>,
}

impl WorkflowRunner for BenchRunner {
    fn fingerprint(&self, app: &str) -> Result<u64, String> {
        resolve_app(app)
            .map(|a| a.program.fingerprint())
            .ok_or_else(|| format!("unknown application `{app}`"))
    }

    fn run(&self, req: &JobRequest, ledger: Arc<QueryLedger>) -> Result<JobOutcome, String> {
        let cb = codebase(&req.app)?;
        let cfg = WorkflowConfig {
            max_bisections: req.max_bisections.unwrap_or(usize::MAX),
            jobs: req.jobs.unwrap_or(1),
            ledger: Some(ledger),
            bisect: HierarchicalConfig::all().with_backend(self.backend.clone()),
            ..WorkflowConfig::default()
        };
        let report = run_workflow(&cb.app.program, &cb.app.tests, &cb.comps, &cfg)
            .map_err(|e| e.to_string())?;
        Ok(JobOutcome {
            body: render_workflow_report(cb.app.name, &note(), &report),
            simulated_seconds: report.db.rows.iter().filter_map(|r| r.seconds).sum(),
        })
    }
}

/// The reference for one request: the same workflow run in-process on
/// the threads plane with a private ledger.
struct Reference {
    body: String,
    bisections: u64,
    executions: u64,
}

fn reference(app: &str, k: usize) -> Result<Reference, String> {
    let cb = codebase(app)?;
    let cfg = WorkflowConfig {
        max_bisections: k,
        ..WorkflowConfig::default()
    };
    let report = run_workflow(&cb.app.program, &cb.app.tests, &cb.comps, &cfg)
        .map_err(|e| format!("reference {app}/{k} failed: {e}"))?;
    Ok(Reference {
        body: render_workflow_report(cb.app.name, &note(), &report),
        bisections: report.bisections.len() as u64,
        executions: report
            .bisections
            .iter()
            .map(|b| b.result.executions as u64)
            .sum(),
    })
}

/// Spawn the whole worker pool: run [`WORKERS`] small searches
/// concurrently through it, in rounds, until the backend has spawned
/// every worker (a round whose searches do not overlap spawns only
/// one).
fn warm_up(backend: &Arc<dyn ExecBackend>, trace: &TraceSink) -> Result<(), String> {
    let cb = codebase("laghos")?;
    let spawns = trace.counter(counter::EXEC_BACKEND_WORKER_SPAWNS);
    for _ in 0..WARM_UP_ROUNDS {
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..WORKERS)
                .map(|_| {
                    scope.spawn(|| {
                        let cfg = WorkflowConfig {
                            max_bisections: 1,
                            bisect: HierarchicalConfig::all().with_backend(backend.clone()),
                            ..WorkflowConfig::default()
                        };
                        run_workflow(&cb.app.program, &cb.app.tests, &cb.comps, &cfg)
                            .map(|_| ())
                            .map_err(|e| format!("worker warm-up failed: {e}"))
                    })
                })
                .collect();
            runs.into_iter()
                .try_for_each(|r| r.join().expect("warm-up threads return errors, not panics"))
        })?;
        if spawns.get() >= WORKERS as u64 {
            return Ok(());
        }
    }
    Err(format!(
        "worker warm-up spawned {} of {WORKERS} workers in {WARM_UP_ROUNDS} rounds",
        spawns.get()
    ))
}

/// Journal records the daemon left under `state_dir`.
fn journal_records(state_dir: &Path) -> u64 {
    let Ok(tenants) = std::fs::read_dir(state_dir.join("tenants")) else {
        return 0;
    };
    tenants
        .flatten()
        .filter_map(|t| std::fs::read_dir(t.path()).ok())
        .flat_map(|files| files.flatten())
        .filter_map(|f| std::fs::read_to_string(f.path()).ok())
        .map(|text| text.lines().count() as u64)
        .sum()
}

/// One reply: which batch item, the daemon's answer, client latency (s).
type Reply = (usize, Result<Response, String>, f64);

/// Run one pass — fresh daemon, closed-loop batch, drain — recording
/// its set-up, wall time and (when `traced`) per-layer readings into
/// `s`. Returns the replies for checking.
fn pass(
    args: &RunArgs,
    i: usize,
    requests: &[Request],
    traced: bool,
    s: &mut Samples,
) -> Result<Vec<Reply>, String> {
    let state_dir = fresh_dir(&args.work_dir, &format!("pass-{i}"))?;

    // Set-up: codebases, bind, worker-pool warm-up.
    let setup_start = std::time::Instant::now();
    let (built, codebase_s) = timed(|| APPS.iter().try_for_each(|app| codebase(app).map(|_| ())));
    built?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the listen address: {e}"))?;
    let trace = TraceSink::enabled();
    let worker_cmd = vec![
        args.worker_exe.to_string_lossy().into_owned(),
        "worker".to_string(),
    ];
    let process: Arc<dyn ExecBackend> = Arc::new(ProcessBackend::with_trace(
        worker_cmd,
        WORKERS,
        trace.clone(),
    ));
    warm_up(&process, &trace)?;
    let backend_probe = traced.then(|| Arc::new(TimedBackend::new(process.clone())));
    let backend: Arc<dyn ExecBackend> = match &backend_probe {
        Some(probe) => probe.clone(),
        None => process,
    };
    let inner: Arc<dyn WorkflowRunner> = Arc::new(BenchRunner {
        backend: backend.clone(),
    });
    let runner_probe = traced.then(|| Arc::new(TimedRunner::new(inner.clone())));
    let runner: Arc<dyn WorkflowRunner> = match &runner_probe {
        Some(probe) => probe.clone(),
        None => inner,
    };
    s.setup_s.push(setup_start.elapsed().as_secs_f64());

    let before = trace.snapshot().counters();
    let written_before = sys::storage_bytes_written();
    let cfg = ServeConfig {
        state_dir: state_dir.clone(),
        max_inflight: MAX_INFLIGHT,
        trace: trace.clone(),
        backend: Some(backend),
        ..ServeConfig::default()
    };
    let (ack, summary, wall_s, replies) = std::thread::scope(|scope| {
        let daemon = scope.spawn(move || serve(listener, runner, cfg));
        let replies: Mutex<Vec<Reply>> = Mutex::new(Vec::new());
        let ((), wall_s) = timed(|| {
            // Round by round, as `serve_bench` submits: the next round
            // starts once every submission of this one is answered.
            for (r, round) in requests.chunks(ROUND).enumerate() {
                let next = AtomicUsize::new(0);
                std::thread::scope(|clients| {
                    for _ in 0..CLIENTS {
                        clients.spawn(|| loop {
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(tenant, app, k)) = round.get(j) else {
                                break;
                            };
                            let (reply, secs) = timed(|| submit(addr, tenant, app, Some(k), None));
                            replies.lock().expect("clients only push replies").push((
                                r * ROUND + j,
                                reply.map_err(|e| e.to_string()),
                                secs,
                            ));
                        });
                    }
                });
            }
        });
        let ack = shutdown(addr);
        let summary = daemon
            .join()
            .expect("the daemon returns errors, not panics");
        (
            ack,
            summary,
            wall_s,
            replies.into_inner().expect("clients only push replies"),
        )
    });
    let bytes_written = sys::storage_bytes_written().saturating_sub(written_before);
    let summary = summary.map_err(|e| format!("daemon failed: {e}"))?;
    // The drain is an operation of its own: acknowledged, with every
    // submission answered and none rejected.
    let mut drain = Checks::default();
    drain.check(matches!(ack, Ok(Response::ShutdownAck { .. })), || {
        format!("pass {i}: shutdown not acknowledged: {ack:?}")
    });
    drain.check(summary.rejected == 0, || {
        format!("pass {i}: {} submissions rejected", summary.rejected)
    });
    drain.check(
        replies.len() == requests.len() && summary.completed == requests.len() as u64,
        || {
            format!(
                "pass {i}: {} replies and {} completions for {} submissions",
                replies.len(),
                summary.completed,
                requests.len()
            )
        },
    );
    s.tally.record(drain);

    if let (Some(backend), Some(runner)) = (backend_probe, runner_probe) {
        let after = trace.snapshot().counters();
        let delta = |name: &str| {
            (after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)) as f64
        };
        s.traced_pass_s.push(wall_s);
        s.layer("apps.codebase_s", codebase_s);
        let dispatch_us: Vec<f64> = backend.dispatch.samples().iter().map(|t| t * 1e6).collect();
        s.layer("exec.dispatch_calls", backend.dispatch.calls() as f64);
        s.layer("exec.dispatch_busy_s", backend.dispatch.busy_s());
        s.layer("exec.dispatch_p50_us", median(&dispatch_us).unwrap_or(0.0));
        s.layer(
            "exec.dispatch_tail_us",
            tail(&dispatch_us).map_or(0.0, |t| t.value),
        );
        s.layer("exec.run_units_calls", backend.run_units.calls() as f64);
        s.layer("exec.run_units_s", backend.run_units.busy_s());
        s.layer(
            "exec.backend.worker_spawns",
            delta(counter::EXEC_BACKEND_WORKER_SPAWNS),
        );
        s.layer(
            "exec.backend.worker_deaths",
            delta(counter::EXEC_BACKEND_WORKER_DEATHS),
        );
        s.layer(
            "exec.backend.requeued",
            delta(counter::EXEC_BACKEND_REQUEUED),
        );
        let executed = delta(counter::EXEC_QUERIES_EXECUTED);
        let shared = delta(counter::EXEC_QUERIES_SHARED_HITS);
        let memoized = delta(counter::EXEC_QUERIES_MEMOIZED);
        s.layer("ledger.queries_executed", executed);
        s.layer("ledger.shared_hits", shared);
        s.layer(
            "ledger.dedup_ratio",
            hit_ratio((shared + memoized) as u64, executed as u64),
        );
        s.layer(
            "journal.records_appended",
            journal_records(&state_dir) as f64,
        );
        s.layer("journal.bytes_written", bytes_written as f64);
        s.layer("serve.runner_s", runner.runs.busy_s());
        let waits: Vec<f64> = replies
            .iter()
            .filter_map(|(j, _, secs)| {
                let (tenant, app, k) = requests[*j];
                runner
                    .claim(&job_key(tenant, app, Some(k)))
                    .map(|r| secs - r)
            })
            .collect();
        s.layer(
            "serve.queue_wait_p50_ms",
            median(&waits).unwrap_or(0.0) * 1e3,
        );
        s.layer("serve.submissions", summary.submissions as f64);
        s.layer("serve.completed", summary.completed as f64);
        s.layer("serve.rejected", summary.rejected as f64);
    } else {
        s.pass_s.push(wall_s);
        s.op_s
            .push(replies.iter().map(|(_, _, secs)| *secs).collect());
        s.ops += replies.len() as u64;
        s.bisect_time_s += wall_s;
    }
    std::fs::remove_dir_all(&state_dir)
        .map_err(|e| format!("cannot remove {}: {e}", state_dir.display()))?;
    Ok(replies)
}

/// Check every reply against its reference; untraced replies also
/// count their searches and logical executions.
fn check_replies(
    s: &mut Samples,
    requests: &[Request],
    replies: Vec<(Reply, bool)>,
) -> Result<(), String> {
    let mut refs: BTreeMap<(&str, usize), Reference> = BTreeMap::new();
    let mut by_app: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ((j, reply, secs), traced) in replies {
        let (tenant, app, k) = requests[j];
        let r = match refs.entry((app, k)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(reference(app, k)?),
        };
        let ok = match &reply {
            Ok(Response::Report { body, .. }) => body == &r.body,
            _ => false,
        };
        s.tally.check(ok, || match &reply {
            Ok(Response::Report { .. }) => {
                format!("{tenant}/{app}/{k}: reply differs from the in-process report")
            }
            other => format!("{tenant}/{app}/{k}: {other:?}"),
        });
        if ok && !traced {
            s.bisections += r.bisections;
            s.executions += r.executions;
            by_app.entry(app).or_default().push(secs);
        }
    }
    for (app, secs) in by_app {
        s.notes.push(format!(
            "{app}: submit p50 {:.1} ms over {} submissions",
            median(&secs).unwrap_or(0.0) * 1e3,
            secs.len()
        ));
    }
    Ok(())
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Result<Samples, String> {
    let requests = batch(args.seed);
    let mut s = Samples {
        tail_passes: TAIL_PASSES,
        ..Samples::default()
    };
    let mut replies = Vec::new();
    s.run_passes(args.seconds, args.trace, |s, i, traced| {
        let pass_replies = pass(args, i, &requests, traced, s)?;
        replies.extend(pass_replies.into_iter().map(|r| (r, traced)));
        Ok(())
    })?;
    check_replies(&mut s, &requests, replies)?;
    Ok(s)
}

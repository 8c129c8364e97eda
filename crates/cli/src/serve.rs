//! The CLI side of `flit serve`: the daemon entry point and the
//! [`WorkflowRunner`] that executes submissions with the bundled
//! applications.
//!
//! The daemon crate (`flit-serve`) is deliberately ignorant of the
//! workflow stack; this module closes the loop by implementing its
//! runner trait with [`run_workflow`] and the shared
//! [`render_workflow_report`] renderer — which is what makes a daemon
//! submission byte-identical to a serial `flit workflow` run.

use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

use flit_bisect::ledger::QueryLedger;
use flit_core::workflow::{render_workflow_report, run_workflow, LintMode, WorkflowConfig};
use flit_exec::ExecBackend;
use flit_serve::daemon::{serve, JobOutcome, JobRequest, ServeConfig, WorkflowRunner};
use flit_trace::sink::TraceSink;

use crate::args::{ListenArgs, ParseError};
use crate::commands::{get_app, matrix_for};

/// The daemon-side workflow executor: resolves bundled applications
/// and runs each submission against the tenant ledger the daemon
/// prepared (journal attached, fleet upstream chained).
pub struct CliRunner {
    /// The shared execution backend for the bisection stage, if the
    /// daemon was started with `--backend process`.
    backend: Option<Arc<dyn ExecBackend>>,
    /// Report-header note matching the serial CLI's for the same
    /// backend choice (empty for threads).
    note: String,
}

impl CliRunner {
    /// A runner using the in-process `threads` backend — how
    /// benchmarks and harnesses embed the daemon without a socket-side
    /// CLI.
    pub fn threads() -> Self {
        CliRunner {
            backend: None,
            note: String::new(),
        }
    }
}

impl WorkflowRunner for CliRunner {
    fn fingerprint(&self, app: &str) -> Result<u64, String> {
        Ok(get_app(app)
            .map_err(|e| e.to_string())?
            .program
            .fingerprint())
    }

    fn run(&self, req: &JobRequest, ledger: Arc<QueryLedger>) -> Result<JobOutcome, String> {
        let app = get_app(&req.app).map_err(|e| e.to_string())?;
        let comps = matrix_for(&app, None).map_err(|e| e.to_string())?;
        let mut cfg = WorkflowConfig {
            max_bisections: req.max_bisections.unwrap_or(usize::MAX),
            jobs: req.jobs.unwrap_or(1),
            trace: TraceSink::disabled(),
            lint: LintMode::Off,
            ledger: Some(ledger),
            ..Default::default()
        };
        if let Some(backend) = &self.backend {
            cfg.bisect = cfg.bisect.clone().with_backend(backend.clone());
        }
        let report =
            run_workflow(&app.program, &app.tests, &comps, &cfg).map_err(|e| e.to_string())?;
        // The submit endpoint's latency unit: the submission's total
        // simulated wall-clock, which is deterministic — so the
        // latency targets published in EXPERIMENTS.md are stable.
        let simulated_seconds = report.db.rows.iter().filter_map(|r| r.seconds).sum();
        Ok(JobOutcome {
            body: render_workflow_report(app.name, &self.note, &report),
            simulated_seconds,
        })
    }
}

/// Run the daemon: bind, advertise the address, and serve until a
/// `Shutdown` request drains it. Blocks for the daemon's lifetime and
/// returns the drain summary as the command report.
pub(crate) fn run_serve(args: &ListenArgs) -> Result<String, ParseError> {
    let listener = TcpListener::bind(&args.addr)
        .map_err(|e| ParseError(format!("cannot listen on `{}`: {e}", args.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ParseError(format!("cannot resolve the listen address: {e}")))?;
    let state_dir = PathBuf::from(args.state_dir.as_deref().unwrap_or("flit-serve-state"));
    std::fs::create_dir_all(&state_dir).map_err(|e| {
        ParseError(format!(
            "cannot create state dir {}: {e}",
            state_dir.display()
        ))
    })?;
    // Advertise the bound address (port 0 resolves to an ephemeral
    // one) so scripts can `--connect $(cat <state>/serve.addr)`.
    flit_persist::write_atomic(state_dir.join("serve.addr"), addr.to_string().as_bytes())
        .map_err(|e| ParseError(format!("cannot write serve.addr: {e}")))?;

    let trace = TraceSink::enabled();
    let backend = args.exec.remote(&trace)?;

    // Scripts read `serve.addr`; a closed stdout is no reason to stop.
    match writeln!(std::io::stdout().lock(), "flit-serve listening on {addr}") {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            return Err(ParseError(format!("cannot announce the address: {e}")));
        }
        _ => {}
    }
    let cfg = ServeConfig {
        state_dir,
        max_inflight: args.max_inflight.unwrap_or(2).max(1),
        trace,
        backend: backend.clone(),
        trace_export: args.trace.as_ref().map(PathBuf::from),
        ..ServeConfig::default()
    };
    let runner = Arc::new(CliRunner {
        backend,
        note: args.exec.note(),
    });
    let summary =
        serve(listener, runner, cfg).map_err(|e| ParseError(format!("daemon failed: {e}")))?;
    Ok(format!(
        "flit-serve drained: {} submissions accepted ({} completed, {} rejected) \
         from {} tenant(s)\n",
        summary.submissions, summary.completed, summary.rejected, summary.tenants
    ))
}

//! The two MFEM workloads: the CLI-default Figure-1 workflow
//! (`mfem-workflow`) and the same rows checkpointed to a journal and
//! resumed from it (`mfem-journaled`).

use std::path::Path;
use std::sync::Arc;

use flit_bisect::hierarchy::HierarchicalConfig;
use flit_bisect::journal::{load_journal, JournalWriter};
use flit_bisect::ledger::QueryLedger;
use flit_core::analysis::{category_bars, fastest_is_reproducible_count, CategoryBars};
use flit_core::runner::run_matrix_in;
use flit_core::test::{DriverTest, FlitTest};
use flit_core::workflow::{
    bisect_variable_rows, determinism_check, render_workflow_report, run_workflow, WorkflowConfig,
    WorkflowReport,
};
use flit_exec::ThreadsBackend;
use flit_mfem::codebase::{stats_of, TABLE3};
use flit_mfem::files::sensitive_functions;
use flit_toolchain::cache::BuildCtx;
use flit_trace::names::counter;
use flit_trace::sink::TraceSink;

use crate::probe::{Seam, TimedBackend, TimedTest};
use crate::stats::{hit_ratio, ratio, Checks};
use crate::{codebase, fresh_dir, sys, timed, Codebase, RunArgs, Samples};

/// Variable rows bisected per workflow (the first rows of the sweep, in
/// database order). Both MFEM workloads use the same count, so the
/// journal's cost shows at its real ratio to the unjournaled run.
pub const ROWS: usize = 60;

/// Codebase constructions timed before each pass for `setup_s`.
const SETUPS: usize = 3;

/// One workflow run split into its stages, with host times.
pub struct Staged {
    /// The report, assembled exactly as `run_workflow` assembles it.
    pub report: WorkflowReport,
    /// `determinism_check` (s).
    pub determinism_s: f64,
    /// `run_matrix_in` (s).
    pub sweep_s: f64,
    /// Engine time inside the sweep: summed `run_impl` time divided by
    /// the sweep's thread count, i.e. its wall-clock share (s).
    pub sweep_engine_s: f64,
    /// Figure-5 bars and the reproducible-fastest count (s).
    pub analysis_s: f64,
    /// `bisect_variable_rows` (s).
    pub bisect_s: f64,
    /// Releasing the workflow's build cache once the report is built,
    /// which `run_workflow` also does before it returns (s).
    pub cache_drop_s: f64,
}

/// Run the workflow stage by stage through the public calls
/// `run_workflow` itself makes — `determinism_check`, `run_matrix_in`,
/// the analysis, `bisect_variable_rows` — timing each. With `probe`
/// the sweep's tests are wrapped in [`TimedTest`] for the engine time;
/// without it they are handed over as they are and `sweep_engine_s` is
/// zero. The trace sink propagates exactly as in `run_workflow`, so the
/// report is byte-identical to it.
pub fn staged_workflow(cb: &Codebase, cfg: &WorkflowConfig, probe: bool) -> Result<Staged, String> {
    let (program, tests) = (&cb.app.program, &cb.app.tests);
    let mut runner_cfg = cfg.runner.clone();
    if cfg.trace.is_enabled() && !runner_cfg.trace.is_enabled() {
        runner_cfg.trace = cfg.trace.clone();
    }
    let test_refs: Vec<&DriverTest> = tests.iter().collect();
    let (deterministic, determinism_s) =
        timed(|| determinism_check(program, &test_refs, &runner_cfg.baseline, 2));

    let ctx = match runner_cfg.trace.registry() {
        Some(reg) if runner_cfg.cache => BuildCtx::cached_in(&reg),
        Some(reg) => BuildCtx::counting_in(&reg),
        None if runner_cfg.cache => BuildCtx::cached(),
        None => BuildCtx::counting(),
    };
    let engine = Seam::default();
    let timed_tests: Vec<TimedTest> = tests
        .iter()
        .map(|inner| TimedTest {
            inner,
            engine: &engine,
        })
        .collect();
    let dyn_tests: Vec<&dyn FlitTest> = if probe {
        timed_tests.iter().map(|t| t as &dyn FlitTest).collect()
    } else {
        tests.iter().map(|t| t as &dyn FlitTest).collect()
    };
    let (db, sweep_s) = timed(|| run_matrix_in(program, &dyn_tests, &cb.comps, &runner_cfg, &ctx));
    let mut db = db.map_err(|e| format!("sweep failed: {e}"))?;
    let width = runner_cfg.threads.max(1).min(cb.comps.len().max(1));

    let ((bars, reproducible_fastest), analysis_s) = timed(|| {
        let bars: Vec<CategoryBars> = db.tests().iter().map(|t| category_bars(&db, t)).collect();
        (bars, fastest_is_reproducible_count(&db))
    });

    let (bisections, bisect_s) = timed(|| bisect_variable_rows(program, tests, &db, cfg, &ctx));
    let bisections = bisections.map_err(|e| format!("bisection stage failed: {e}"))?;
    db.build_stats = ctx.stats();
    let ((), cache_drop_s) = timed(|| drop(ctx));
    Ok(Staged {
        report: WorkflowReport {
            deterministic,
            db,
            bars,
            reproducible_fastest,
            bisections,
        },
        determinism_s,
        sweep_s,
        sweep_engine_s: engine.busy_s() / width as f64,
        analysis_s,
        bisect_s,
        cache_drop_s,
    })
}

/// The untraced configuration: the `flit workflow mfem` defaults with
/// the bisection cap.
pub fn plain_config() -> WorkflowConfig {
    WorkflowConfig {
        max_bisections: ROWS,
        ..WorkflowConfig::default()
    }
}

/// The traced configuration: tracing on, and a [`TimedBackend`] around
/// the serial threads plane handed to every search.
pub fn traced_config(trace: &TraceSink, backend: &Arc<TimedBackend>) -> WorkflowConfig {
    WorkflowConfig {
        max_bisections: ROWS,
        trace: trace.clone(),
        bisect: HierarchicalConfig::all().with_backend(backend.clone()),
        ..WorkflowConfig::default()
    }
}

/// A timing-probe backend around the serial in-process plane.
pub fn threads_probe() -> Arc<TimedBackend> {
    Arc::new(TimedBackend::new(Arc::new(ThreadsBackend::new(1))))
}

/// The probes one traced workflow runs under: an enabled trace sink
/// and a [`TimedBackend`] around the serial threads plane.
struct Probe {
    trace: TraceSink,
    backend: Arc<TimedBackend>,
}

impl Probe {
    fn new() -> Self {
        Probe {
            trace: TraceSink::enabled(),
            backend: threads_probe(),
        }
    }
}

/// The configuration for one workflow: traced under `probe`, the
/// untraced CLI defaults without one.
fn config(probe: Option<&Probe>) -> WorkflowConfig {
    probe.map_or_else(plain_config, |p| traced_config(&p.trace, &p.backend))
}

/// The trace sink a ledger reports to: the probe's, or a disabled one.
fn sink(probe: Option<&Probe>) -> TraceSink {
    probe.map_or_else(TraceSink::disabled, |p| p.trace.clone())
}

/// The workflow gate: deterministic, `ROWS` searches, every search
/// verified complete and blaming only MFEM's sensitive functions.
/// Returns the searches' logical executions.
fn check_report(report: &WorkflowReport, op: &mut Checks) -> u64 {
    op.check(report.deterministic, || {
        "determinism pre-check failed".to_string()
    });
    op.check(report.bisections.len() == ROWS, || {
        format!("{} searches run, expected {ROWS}", report.bisections.len())
    });
    let sensitive = sensitive_functions();
    for b in &report.bisections {
        let pair = format!("{}/{}", b.test, b.compilation.label());
        op.check(b.result.verified_complete(), || {
            format!("{pair}: search ended {:?}", b.result.outcome)
        });
        for s in &b.result.symbols {
            op.check(sensitive.contains(&s.symbol.as_str()), || {
                format!("{pair}: blamed `{}`, not a sensitive function", s.symbol)
            });
        }
    }
    report
        .bisections
        .iter()
        .map(|b| b.result.executions as u64)
        .sum()
}

/// Construct the MFEM codebase `SETUPS` times, timing each, and gate
/// its statistics on Table 3 as part of the pass's operation `op`.
/// Called before every pass, so the set-up samples spread over the
/// whole window like the passes do.
fn setup(s: &mut Samples, trace: bool, op: &mut Checks) -> Result<Codebase, String> {
    let mut last = None;
    for _ in 0..SETUPS {
        let (cb, secs) = timed(|| codebase("mfem"));
        s.setup_s.push(secs);
        if trace {
            s.layer("apps.codebase_s", secs);
        }
        last = Some(cb?);
    }
    let cb = last.expect("at least one set-up ran");
    let stats = stats_of(&cb.app.program);
    op.check(stats == TABLE3, || {
        format!("codebase stats {stats:?} differ from Table 3 {TABLE3:?}")
    });
    Ok(cb)
}

/// The reference every pass's report must match byte for byte: one
/// `run_workflow` with the untraced configuration, rendered. Made after
/// the measurement window.
fn reference_report() -> Result<String, String> {
    let cb = codebase("mfem")?;
    let report = run_workflow(&cb.app.program, &cb.app.tests, &cb.comps, &plain_config())
        .map_err(|e| format!("reference run_workflow failed: {e}"))?;
    Ok(render_workflow_report("mfem", "", &report))
}

/// Close the operations whose reports waited for the reference: each
/// fails unless its rendered report equals the reference.
fn settle(s: &mut Samples, pending: Vec<(Checks, String)>) -> Result<(), String> {
    let reference = reference_report()?;
    for (mut op, text) in pending {
        op.check(text == reference, || {
            "report differs from the run_workflow reference".to_string()
        });
        s.tally.record(op);
    }
    Ok(())
}

/// Record the per-layer readings of one traced staged run.
fn record_layers(s: &mut Samples, staged: &Staged, probe: &Probe) {
    let counters = probe.trace.snapshot().counters();
    let c = |name: &str| counters.get(name).copied().unwrap_or(0);
    let rows = staged.report.db.rows.len() as f64;
    s.layer("core.determinism_s", staged.determinism_s);
    s.layer("core.sweep_s", staged.sweep_s);
    s.layer("core.sweep_rows", rows);
    s.layer("core.sweep_rows_per_s", ratio(rows, staged.sweep_s));
    s.layer("core.sweep_engine_s", staged.sweep_engine_s);
    s.layer("core.sweep_build_s", staged.sweep_s - staged.sweep_engine_s);
    s.layer("core.analysis_s", staged.analysis_s);
    s.layer("core.bisect_stage_s", staged.bisect_s);
    s.layer("core.bisections", staged.report.bisections.len() as f64);
    let build = &staged.report.db.build_stats;
    s.layer(
        "toolchain.objects_requested",
        build.object_requests() as f64,
    );
    s.layer("toolchain.objects_compiled", build.objects_compiled as f64);
    s.layer(
        "toolchain.object_hit_ratio",
        hit_ratio(build.object_cache_hits, build.objects_compiled),
    );
    s.layer("toolchain.links_requested", build.link_requests() as f64);
    s.layer("toolchain.links_performed", build.links as f64);
    s.layer(
        "toolchain.link_hit_ratio",
        hit_ratio(build.link_memo_hits, build.links),
    );
    s.layer("toolchain.cache_drop_s", staged.cache_drop_s);
    s.layer(
        "bisect.executions.reference",
        c(counter::BISECT_REFERENCE_RUNS) as f64,
    );
    s.layer(
        "bisect.executions.file",
        c(counter::BISECT_FILE_RUNS) as f64,
    );
    s.layer(
        "bisect.executions.probe",
        c(counter::BISECT_PROBE_RUNS) as f64,
    );
    s.layer(
        "bisect.executions.symbol",
        c(counter::BISECT_SYMBOL_RUNS) as f64,
    );
    let executed = c(counter::EXEC_QUERIES_EXECUTED);
    let shared = c(counter::EXEC_QUERIES_SHARED_HITS);
    let memoized = c(counter::EXEC_QUERIES_MEMOIZED);
    s.layer("ledger.queries_executed", executed as f64);
    s.layer("ledger.shared_hits", shared as f64);
    s.layer("ledger.dedup_ratio", hit_ratio(shared + memoized, executed));
    let backend = &probe.backend;
    s.layer("exec.dispatch_calls", backend.dispatch.calls() as f64);
    s.layer("exec.dispatch_busy_s", backend.dispatch.busy_s());
    s.layer("exec.run_units_calls", backend.run_units.calls() as f64);
    s.layer("exec.run_units_s", backend.run_units.busy_s());
}

/// `mfem-workflow`: the `flit workflow mfem` defaults — determinism
/// check, 245 compilations × 19 tests on the runner's default width,
/// then the first [`ROWS`] variable rows bisected serially on the
/// threads plane with no journal — run as the staged calls
/// `run_workflow` makes, so the bisect stage has its own time. One
/// pass is one workflow, one operation.
pub fn workflow(args: &RunArgs) -> Result<Samples, String> {
    let mut s = Samples::default();
    let mut pending = Vec::new();
    s.run_passes(args.seconds, args.trace, |s, _, traced| {
        let mut op = Checks::default();
        let cb = setup(s, args.trace, &mut op)?;
        let probe = traced.then(Probe::new);
        let (staged, secs) = timed(|| staged_workflow(&cb, &config(probe.as_ref()), traced));
        let staged = match staged {
            Ok(staged) => staged,
            Err(e) => {
                op.fail(e);
                s.tally.record(op);
                return Ok(());
            }
        };
        let executions = check_report(&staged.report, &mut op);
        if let Some(probe) = &probe {
            s.traced_pass_s.push(secs);
            record_layers(s, &staged, probe);
        } else {
            s.pass_s.push(secs);
            s.op_s.push(vec![secs]);
            s.ops += 1;
            s.bisections += staged.report.bisections.len() as u64;
            s.bisect_time_s += staged.bisect_s;
            s.executions += executions;
        }
        pending.push((op, render_workflow_report("mfem", "", &staged.report)));
        Ok(())
    })?;
    settle(&mut s, pending)?;
    Ok(s)
}

/// A ledger checkpointing to a fresh journal at `path`.
fn checkpointing_ledger(
    path: &Path,
    fp: u64,
    trace: &TraceSink,
) -> Result<Arc<QueryLedger>, String> {
    let writer = JournalWriter::create(path, fp)
        .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
    let ledger = QueryLedger::new(fp, trace);
    ledger.attach_journal(writer);
    Ok(ledger)
}

/// One checkpoint-and-resume cycle and its host times.
struct Cycle {
    /// The checkpointed run, its time (s), ledger and probes.
    ck: Staged,
    ck_s: f64,
    ck_ledger: Arc<QueryLedger>,
    ck_probe: Option<Probe>,
    /// Bytes sent to storage during the checkpointed run.
    bytes_written: u64,
    /// Records `load_journal` returned, and its time (s).
    records: usize,
    load_s: f64,
    /// `preload` of those records into the fresh ledger (s).
    preload_s: f64,
    /// The resumed run and its ledger (traced under probes of its own).
    rs: Staged,
    rs_ledger: Arc<QueryLedger>,
    /// The whole resume: load, preload and the resumed run (s).
    resume_s: f64,
}

/// Run the rows with a checkpoint journal at `path`, then resume from
/// it (`load_journal` + `preload` into a fresh ledger) — traced, each
/// half under its own probes, or untraced.
fn cycle(cb: &Codebase, path: &Path, traced: bool) -> Result<Cycle, String> {
    let fp = cb.app.program.fingerprint();
    let ck_probe = traced.then(Probe::new);
    let ck_ledger = checkpointing_ledger(path, fp, &sink(ck_probe.as_ref()))?;
    let ck_cfg = WorkflowConfig {
        ledger: Some(ck_ledger.clone()),
        ..config(ck_probe.as_ref())
    };
    let written_before = sys::storage_bytes_written();
    let (ck, ck_s) = timed(|| staged_workflow(cb, &ck_cfg, traced));
    let bytes_written = sys::storage_bytes_written().saturating_sub(written_before);
    let ck = ck.map_err(|e| format!("checkpointed run: {e}"))?;

    let rs_probe = traced.then(Probe::new);
    let (resumed, resume_s) = timed(|| -> Result<_, String> {
        let (records, load_s) = timed(|| load_journal(path, fp));
        let records = records.map_err(|e| format!("load_journal: {e}"))?;
        let rs_ledger = QueryLedger::new(fp, &sink(rs_probe.as_ref()));
        let ((), preload_s) = timed(|| rs_ledger.preload(&records));
        let rs_cfg = WorkflowConfig {
            ledger: Some(rs_ledger.clone()),
            ..config(rs_probe.as_ref())
        };
        let rs = staged_workflow(cb, &rs_cfg, traced).map_err(|e| format!("resumed run: {e}"))?;
        Ok((records.len(), load_s, preload_s, rs, rs_ledger))
    });
    let (records, load_s, preload_s, rs, rs_ledger) = resumed?;
    Ok(Cycle {
        ck,
        ck_s,
        ck_ledger,
        ck_probe,
        bytes_written,
        records,
        load_s,
        preload_s,
        rs,
        rs_ledger,
        resume_s,
    })
}

/// The durability gate: the journal took every answer without error,
/// the resumed report is byte-identical to the checkpointed one, and
/// the resume executed nothing live.
fn check_resume(c: &Cycle, op: &mut Checks) {
    op.check(c.ck_ledger.journal_error().is_none(), || {
        format!("journal append failed: {:?}", c.ck_ledger.journal_error())
    });
    let appended = c.ck_ledger.stats().appended;
    op.check(c.records as u64 == appended, || {
        format!(
            "journal holds {} records, ledger appended {appended}",
            c.records
        )
    });
    op.check(
        render_workflow_report("mfem", "", &c.ck.report)
            == render_workflow_report("mfem", "", &c.rs.report),
        || "resumed report differs from the checkpointed one".to_string(),
    );
    let live = c.rs_ledger.stats().executed;
    op.check(live == 0, || format!("resume executed {live} live queries"));
}

/// `mfem-journaled`: the `mfem-workflow` rows run with a checkpoint
/// journal attached to the workflow ledger, then resumed from that
/// journal into a fresh ledger. One pass is the checkpoint-and-resume
/// cycle, one operation.
pub fn journaled(args: &RunArgs) -> Result<Samples, String> {
    let mut s = Samples::default();
    let mut pending = Vec::new();
    s.run_passes(args.seconds, args.trace, |s, i, traced| {
        let mut op = Checks::default();
        let cb = setup(s, args.trace, &mut op)?;
        let dir = fresh_dir(&args.work_dir, &format!("pass-{i}"))?;
        let path = dir.join("journal.jsonl");
        match cycle(&cb, &path, traced) {
            Ok(c) => {
                let executions = check_report(&c.ck.report, &mut op);
                check_report(&c.rs.report, &mut op);
                check_resume(&c, &mut op);
                let pass_s = c.ck_s + c.resume_s;
                if let Some(probe) = &c.ck_probe {
                    s.traced_pass_s.push(pass_s);
                    record_layers(s, &c.ck, probe);
                    s.layer(
                        "journal.records_appended",
                        c.ck_ledger.stats().appended as f64,
                    );
                    s.layer("journal.bytes_written", c.bytes_written as f64);
                    s.layer("journal.checkpoint_s", c.ck.bisect_s);
                    s.layer("journal.resume_s", c.resume_s);
                    s.layer("journal.load_s", c.load_s);
                    s.layer(
                        "journal.records_replayed",
                        c.rs_ledger.stats().replayed as f64,
                    );
                    s.layer("journal.replay_s", c.preload_s + c.rs.bisect_s);
                } else {
                    s.pass_s.push(pass_s);
                    s.op_s.push(vec![pass_s]);
                    s.ops += 1;
                    s.bisections +=
                        (c.ck.report.bisections.len() + c.rs.report.bisections.len()) as u64;
                    s.bisect_time_s += c.ck.bisect_s + c.rs.bisect_s;
                    s.executions += 2 * executions;
                }
                pending.push((op, render_workflow_report("mfem", "", &c.ck.report)));
            }
            Err(e) => {
                op.fail(format!("checkpoint/resume cycle failed: {e}"));
                s.tally.record(op);
            }
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))
    })?;
    settle(&mut s, pending)?;
    Ok(s)
}

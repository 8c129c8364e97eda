//! The multi-level workflow of Figure 1.
//!
//! ```text
//! User code → deterministic? → create FLiT tests → run FLiT tests
//!   → reproducibility & performance analysis
//!   → fastest reproducible sufficient? → done
//!   → else FLiT Bisect → library/source/function blame → debug
//! ```
//!
//! [`run_workflow`] drives all three levels for one application: the
//! determinism pre-check, the matrix sweep with analysis, and the
//! hierarchical bisection of every variability-inducing compilation.

use std::sync::Arc;

use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig, HierarchicalResult};
use flit_bisect::ledger::{LedgerHandle, QueryLedger};
use flit_exec::{run_on, ExecError, ThreadsBackend};
use flit_program::build::Build;
use flit_program::model::{Driver, SimProgram};
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::Compilation;
use flit_trace::names::{counter as counter_names, phase};
use flit_trace::sink::TraceSink;

use crate::analysis::{category_bars, fastest_is_reproducible_count, CategoryBars};
use crate::db::ResultsDb;
use crate::metrics::l2_compare;
use crate::runner::{build_ctx_for, run_matrix_in, RunnerConfig, RunnerError};
use crate::test::{DriverTest, FlitTest};

/// How the static prescreen (`flit_bisect::prescreen`) participates in
/// the bisection stage; [`LintMode::Prune`] runs every search under the
/// certified prune.
pub use flit_bisect::LintMode;

/// Why a workflow could not produce a report.
///
/// The daemon use case (`flit-serve`) is why this is structured: a
/// long-lived process runs many tenants' workflows, and any failure
/// must come back as an error *response* for that one tenant, never a
/// panic that takes the process (and every other tenant) down.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// The matrix sweep (or its baseline) failed.
    Runner(RunnerError),
    /// A results-database row names a test that is not in the current
    /// suite. This happens when resumed state drifts from the code —
    /// e.g. a test was renamed between checkpoint and resume — and
    /// used to be an `expect` panic inside the bisection fan-out.
    RowMismatch {
        /// The test name the database row carries.
        test: String,
    },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::Runner(e) => write!(f, "{e}"),
            WorkflowError::RowMismatch { test } => write!(
                f,
                "results row names test `{test}`, which is not in the current suite \
                 (did the suite change between checkpoint and resume?)"
            ),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<RunnerError> for WorkflowError {
    fn from(e: RunnerError) -> Self {
        WorkflowError::Runner(e)
    }
}

/// One bisected compilation in the workflow report.
#[derive(Debug)]
pub struct BisectedCompilation {
    /// The test that showed variability.
    pub test: String,
    /// The variability-inducing compilation.
    pub compilation: Compilation,
    /// The hierarchical search result.
    pub result: HierarchicalResult,
}

/// The complete workflow output.
#[derive(Debug)]
pub struct WorkflowReport {
    /// Did the determinism pre-check pass for every test?
    pub deterministic: bool,
    /// The matrix sweep results.
    pub db: ResultsDb,
    /// Per-test Figure-5 bars.
    pub bars: Vec<CategoryBars>,
    /// `(tests whose fastest compilation is reproducible, total tests)`.
    pub reproducible_fastest: (usize, usize),
    /// Bisection results for the variable compilations (bounded by
    /// `max_bisections`).
    pub bisections: Vec<BisectedCompilation>,
}

/// Render a [`WorkflowReport`] as the canonical `flit workflow` text
/// report (Figure 1): the determinism pre-check, sweep and analysis
/// summaries, and the blamed-function ranking.
///
/// Both the CLI and the `flit-serve` daemon render through this one
/// function, so a workflow submitted to the daemon is byte-identical
/// to a serial `flit workflow` run — the invariant the serve test
/// suite pins. `note` is appended to the header line (the CLI uses it
/// for the backend annotation); pass `""` for none. The counters in
/// `report` are logical (they count query *answers*, not executions),
/// so replayed or deduplicated runs render identically too.
pub fn render_workflow_report(name: &str, note: &str, report: &WorkflowReport) -> String {
    let mut out = format!("flit workflow {name}{note} (Figure 1)\n\n");
    out.push_str(&format!(
        "[1] determinism pre-check: {}\n",
        if report.deterministic {
            "passed (bitwise run-to-run)"
        } else {
            "FAILED — determinize first (e.g. record/replay, race fixing)"
        }
    ));
    let variable = report.db.rows.iter().filter(|r| r.is_variable()).count();
    out.push_str(&format!(
        "[2] matrix sweep: {} runs, {} variable\n",
        report.db.rows.len(),
        variable
    ));
    let (wins, total) = report.reproducible_fastest;
    out.push_str(&format!(
        "[2] analysis: fastest compilation is bitwise-reproducible for {wins}/{total} tests\n"
    ));
    out.push_str(&format!(
        "[3] bisect: {} searches run\n",
        report.bisections.len()
    ));
    let mut blame: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut link_step = 0usize;
    let mut crashed = 0usize;
    for b in &report.bisections {
        use flit_bisect::hierarchy::SearchOutcome as SO;
        match &b.result.outcome {
            SO::Crashed(_) => crashed += 1,
            SO::LinkStepOnly => link_step += 1,
            _ => {
                for s in &b.result.symbols {
                    *blame.entry(s.symbol.clone()).or_default() += 1;
                }
            }
        }
    }
    out.push_str("    blamed functions (by number of compilations):\n");
    let mut ranked: Vec<(String, usize)> = blame.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (symbol, n) in ranked {
        out.push_str(&format!("      {symbol:<32} {n}\n"));
    }
    if link_step > 0 {
        out.push_str(&format!(
            "    link-step variability (no file blame): {link_step}\n"
        ));
    }
    if crashed > 0 {
        out.push_str(&format!("    crashed mixed executables: {crashed}\n"));
    }
    out
}

/// Workflow options.
#[derive(Debug, Clone)]
pub struct WorkflowConfig {
    /// Runner options.
    pub runner: RunnerConfig,
    /// Hierarchical-search options.
    pub bisect: HierarchicalConfig,
    /// Static-prescreen participation in the bisection stage.
    pub lint: LintMode,
    /// Cap on how many (test, compilation) variabilities to bisect
    /// (`usize::MAX` for all — the paper bisected all 1,086).
    pub max_bisections: usize,
    /// Worker threads for the bisection stage (1 = sequential). The
    /// searches are independent, so they fan out on one shared
    /// executor; results are collected in row order, so the report is
    /// identical at any width.
    pub jobs: usize,
    /// Trace sink covering the whole workflow. When enabled it is
    /// propagated to the runner and bisect configs (unless those carry
    /// their own enabled sink), and the shared build context's counters
    /// land in its registry.
    pub trace: TraceSink,
    /// Workflow-wide query ledger for the bisection stage. `None` (the
    /// default) creates a fresh private ledger per workflow; pass a
    /// pre-built one to preload checkpoint-journal answers or attach a
    /// journal writer (`flit workflow --checkpoint/--resume`). Every
    /// search is handed a distinct-origin handle onto the same table,
    /// so identical queries issued by different rows execute once.
    pub ledger: Option<Arc<QueryLedger>>,
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        WorkflowConfig {
            runner: RunnerConfig::default(),
            bisect: HierarchicalConfig::all(),
            lint: LintMode::Off,
            max_bisections: usize::MAX,
            jobs: 1,
            trace: TraceSink::disabled(),
            ledger: None,
        }
    }
}

/// Determinism pre-check (Figure 1's first decision): run each test
/// twice under the baseline and require bitwise-equal results. "FLiT
/// requires deterministic executions … on a given platform and input,
/// we must be able to rerun an application and obtain the same
/// results."
pub fn determinism_check(
    program: &SimProgram,
    tests: &[&DriverTest],
    baseline: &Compilation,
    repetitions: usize,
) -> bool {
    let build = Build::new(program, baseline.clone());
    let Ok(exe) = build.executable() else {
        return false;
    };
    let ctx = crate::test::RunContext { program, exe: &exe };
    for t in tests {
        let input = t.default_input();
        let chunks = crate::test::split_input(&input, t.inputs_per_run());
        for chunk in &chunks {
            let Ok((first, _)) = t.run_impl(chunk, &ctx) else {
                return false;
            };
            for _ in 1..repetitions.max(2) {
                match t.run_impl(chunk, &ctx) {
                    Ok((r, _)) if r.bitwise_eq(&first) => {}
                    _ => return false,
                }
            }
        }
    }
    true
}

/// Run the full Figure-1 workflow.
///
/// One build context is shared between the matrix sweep and every
/// bisection, so the searches reuse the sweep's baseline objects and
/// each other's mixed links. The report's `db.build_stats` covers the
/// whole workflow.
pub fn run_workflow(
    program: &SimProgram,
    tests: &[DriverTest],
    compilations: &[Compilation],
    cfg: &WorkflowConfig,
) -> Result<WorkflowReport, WorkflowError> {
    // Propagate the workflow sink downward unless a sub-config already
    // carries its own enabled sink.
    let mut runner_cfg = cfg.runner.clone();
    if cfg.trace.is_enabled() && !runner_cfg.trace.is_enabled() {
        runner_cfg.trace = cfg.trace.clone();
    }
    let trace = &cfg.trace;

    let test_refs: Vec<&DriverTest> = tests.iter().collect();
    let deterministic = determinism_check(program, &test_refs, &runner_cfg.baseline, 2);
    trace.span(
        phase::WORKFLOW,
        "determinism_check",
        tests.len() as u64,
        0.0,
    );

    // The shared build context's counters live in the trace registry
    // when tracing, so `db.build_stats` and the trace snapshot report
    // the same numbers.
    let ctx = build_ctx_for(&runner_cfg);
    let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
    let mut db = run_matrix_in(program, &dyn_tests, compilations, &runner_cfg, &ctx)
        .map_err(WorkflowError::Runner)?;
    trace.span(
        phase::WORKFLOW,
        "sweep",
        db.rows.len() as u64,
        db.rows.iter().filter_map(|r| r.seconds).sum(),
    );

    let bars: Vec<CategoryBars> = db.tests().iter().map(|t| category_bars(&db, t)).collect();
    let reproducible_fastest = fastest_is_reproducible_count(&db);
    trace.span(phase::WORKFLOW, "analysis", bars.len() as u64, 0.0);

    let bisections = bisect_variable_rows(program, tests, &db, cfg, &ctx)?;
    db.build_stats = ctx.stats();

    Ok(WorkflowReport {
        deterministic,
        db,
        bars,
        reproducible_fastest,
        bisections,
    })
}

/// Level 3 of the workflow as a standalone, resumable stage: bisect
/// every variable `(test, compilation)` row of `db` (bounded by
/// `cfg.max_bisections`) against the suite in `tests`.
///
/// This is public so a job owner holding persisted state — the
/// `flit-serve` daemon resuming a tenant's workflow, or anything else
/// that kept a [`ResultsDb`] across runs — can re-enter the bisection
/// stage directly. Because the database may be older than the code, a
/// row whose test name is no longer in the suite is a structured
/// [`WorkflowError::RowMismatch`] naming the offending test, not a
/// panic.
pub fn bisect_variable_rows(
    program: &SimProgram,
    tests: &[DriverTest],
    db: &ResultsDb,
    cfg: &WorkflowConfig,
    ctx: &BuildCtx,
) -> Result<Vec<BisectedCompilation>, WorkflowError> {
    let trace = &cfg.trace;
    let variable_rows = db.rows.iter().filter(|r| r.is_variable()).count();
    trace
        .counter(counter_names::WORKFLOW_VARIABLE_ROWS)
        .incr(variable_rows as u64);
    let launched = trace.counter(counter_names::WORKFLOW_BISECTIONS);
    let mut bisect_cfg = cfg.bisect.clone().with_ctx(ctx.clone());
    if cfg.trace.is_enabled() && !bisect_cfg.trace.is_enabled() {
        bisect_cfg = bisect_cfg.with_trace(cfg.trace.clone());
    }
    // All searches run on one shared executor (jobs = 1 is the serial
    // special case); each job is a whole serial search, the shared
    // `ctx` deduplicates build work across them, and collection in row
    // order keeps the report schedule-independent.
    let rows: Vec<_> = db
        .rows
        .iter()
        .filter(|r| r.is_variable())
        .take(cfg.max_bisections)
        .collect();
    // One query ledger spans every search the workflow spawns: the
    // reference run and any identical file-level queries issued by
    // different rows execute once (`exec.queries.shared_hits`).
    let ledger = cfg
        .ledger
        .clone()
        .unwrap_or_else(|| QueryLedger::new(program.fingerprint(), trace));
    let backend = ThreadsBackend::with_trace(cfg.jobs, trace.clone());
    let serial = ThreadsBackend::new(1);
    let results = run_on(&backend, rows.len(), |i| {
        let row = rows[i];
        // A database resumed from disk can drift from the suite (a test
        // renamed between checkpoint and resume): report the row, don't
        // panic the fan-out.
        let Some(test) = tests.iter().find(|t| t.name() == row.test) else {
            return Err(WorkflowError::RowMismatch {
                test: row.test.clone(),
            });
        };
        launched.incr(1);
        let driver: &Driver = test.driver();
        let baseline = Build::new(program, cfg.runner.baseline.clone());
        let variable = Build::tagged(program, row.compilation.clone(), 1);
        let input = test.default_input();
        let handle = LedgerHandle::new(
            ledger.clone(),
            i as u64 + 1,
            format!("{}/{}", row.test, row.compilation.label()),
        );
        let mut row_cfg = bisect_cfg.clone();
        if let Some(p) =
            flit_bisect::prescreen_for(cfg.lint, &baseline, &variable, driver, &bisect_cfg)
        {
            row_cfg.prescreen = Some(p);
        }
        Ok(bisect_hierarchical(
            &baseline,
            &variable,
            driver,
            &input[..test.inputs_per_run().min(input.len())],
            &l2_compare,
            &row_cfg.with_ledger(handle),
            &serial,
        ))
    })
    .map_err(|e| match e {
        ExecError::WorkerPanicked { job, message } => {
            WorkflowError::Runner(RunnerError::WorkerPanicked {
                compilation: rows[job].compilation.label(),
                message,
            })
        }
        ExecError::Backend { message } => WorkflowError::Runner(RunnerError::Backend { message }),
    })?;
    // Mismatches are collected, not raced: the lowest row index wins,
    // so the error is schedule-independent like everything else here.
    let results: Vec<HierarchicalResult> = results.into_iter().collect::<Result<_, _>>()?;
    let bisections: Vec<BisectedCompilation> = rows
        .iter()
        .zip(results)
        .map(|(row, result)| BisectedCompilation {
            test: row.test.clone(),
            compilation: row.compilation.clone(),
            result,
        })
        .collect();
    trace.span(
        phase::WORKFLOW,
        "bisect",
        bisections.iter().map(|b| b.result.executions as u64).sum(),
        0.0,
    );
    Ok(bisections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_bisect::hierarchy::SearchOutcome;
    use flit_program::kernel::Kernel;
    use flit_program::model::{Function, SourceFile};
    use flit_toolchain::compiler::{CompilerKind, OptLevel};
    use flit_toolchain::flags::Switch;

    fn program() -> SimProgram {
        SimProgram::new(
            "wf-test",
            vec![
                SourceFile::new(
                    "kern.cpp",
                    vec![
                        Function::exported("kern_dot", Kernel::DotMix { stride: 2 }),
                        Function::exported("kern_aux", Kernel::Benign { flavor: 1 }),
                    ],
                ),
                SourceFile::new(
                    "util.cpp",
                    vec![Function::exported(
                        "util_copy",
                        Kernel::Benign { flavor: 2 },
                    )],
                ),
            ],
        )
    }

    fn suite() -> Vec<DriverTest> {
        vec![DriverTest::new(
            Driver::new(
                "ex1",
                vec!["kern_dot".into(), "kern_aux".into(), "util_copy".into()],
                2,
                48,
            ),
            1,
            vec![0.5],
        )]
    }

    #[test]
    fn full_workflow_runs_and_bisects() {
        let p = program();
        let tests = suite();
        let comps = vec![
            Compilation::baseline(),
            Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![]),
            Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::Avx2Fma]),
        ];
        let report =
            run_workflow(&p, &tests, &comps, &WorkflowConfig::default()).expect("workflow runs");
        assert!(report.deterministic);
        assert_eq!(report.db.rows.len(), 3);
        // Exactly one variable compilation → one bisection, which blames
        // kern.cpp / kern_dot.
        assert_eq!(report.bisections.len(), 1);
        let b = &report.bisections[0];
        assert_eq!(b.compilation.label(), "g++ -O2 -mavx2 -mfma");
        assert_eq!(b.result.outcome, SearchOutcome::Completed);
        assert_eq!(b.result.files.len(), 1);
        assert_eq!(b.result.files[0].file_name, "kern.cpp");
        assert_eq!(b.result.symbols.len(), 1);
        assert_eq!(b.result.symbols[0].symbol, "kern_dot");
        // Figure-5 style summary exists.
        assert_eq!(report.bars.len(), 1);
        assert_eq!(report.reproducible_fastest.1, 1);
    }

    #[test]
    fn workflow_bisections_are_identical_at_any_job_count() {
        let p = program();
        let tests = suite();
        let comps = vec![
            Compilation::baseline(),
            Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::Avx2Fma]),
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]),
        ];
        let serial =
            run_workflow(&p, &tests, &comps, &WorkflowConfig::default()).expect("workflow runs");
        let wide = run_workflow(
            &p,
            &tests,
            &comps,
            &WorkflowConfig {
                jobs: 8,
                ..WorkflowConfig::default()
            },
        )
        .expect("workflow runs");
        assert_eq!(wide.bisections.len(), serial.bisections.len());
        for (w, s) in wide.bisections.iter().zip(&serial.bisections) {
            assert_eq!(w.test, s.test);
            assert_eq!(w.compilation, s.compilation);
            assert_eq!(w.result, s.result);
        }
    }

    #[test]
    fn stale_db_row_is_a_structured_row_mismatch_not_a_panic() {
        // A journal checkpointed before a suite rename carries rows
        // naming the old test. Resuming must hand the owner (a daemon
        // tenant) a structured error naming the row, not panic.
        let p = program();
        let tests = suite();
        let comp = Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::Avx2Fma]);
        let db = ResultsDb {
            app: p.name.clone(),
            rows: vec![crate::db::RunRecord {
                test: "ex1_renamed_away".into(),
                compilation: comp.clone(),
                label: comp.label(),
                seconds: Some(1.0),
                comparison: 0.25,
                bitwise_equal: false,
                baseline_norm: 1.0,
                crashed: false,
            }],
            build_stats: Default::default(),
        };
        let ctx = BuildCtx::counting();
        let err = bisect_variable_rows(&p, &tests, &db, &WorkflowConfig::default(), &ctx)
            .expect_err("a row naming an unknown test must be rejected");
        assert_eq!(
            err,
            WorkflowError::RowMismatch {
                test: "ex1_renamed_away".into()
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("ex1_renamed_away"), "{msg}");
        assert!(msg.contains("not in the current suite"), "{msg}");
    }

    #[test]
    fn determinism_check_accepts_pure_programs() {
        let p = program();
        let tests = suite();
        let refs: Vec<&DriverTest> = tests.iter().collect();
        assert!(determinism_check(&p, &refs, &Compilation::baseline(), 5));
    }
}

//! Command implementations. Every command returns its report as a
//! `String` (so it can be tested) and the binary prints it.

use std::sync::Arc;

use flit_bisect::hierarchy::{bisect_hierarchical, HierarchicalConfig, SearchOutcome};
use flit_bisect::journal::JournalWriter;
use flit_bisect::ledger::{LedgerHandle, QueryLedger};
use flit_bisect::LintMode;
use flit_core::analysis::{
    category_bars, compiler_summary, fastest_is_reproducible_count, variability_summary,
};
use flit_core::db::ResultsDb;
use flit_core::metrics::l2_compare;
use flit_core::runner::{run_matrix, RunnerConfig};
use flit_core::test::{DriverTest, FlitTest};
use flit_inject::study::{run_study, StudyConfig};
use flit_program::build::Build;
use flit_report::table::{fmt_f64, Align, Table};
use flit_report::trace_view::render_trace;
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::{compilation_matrix, Compilation};
use flit_toolchain::compiler::CompilerKind;
use flit_trace::event::Trace;
use flit_trace::sink::TraceSink;

use crate::apps::{app_names, resolve_app, BundledApp};
use crate::args::{
    parse_compilation, AnalyzeArgs, BisectArgs, Cli, Command, ExecArgs, FuzzArgs, InjectArgs,
    LintArgs, PairArgs, ParseError, PerfArgs, RunArgs, ServeArgs, SubmitArgs, TraceArgs,
    WorkflowArgs, USAGE,
};

/// Execute a parsed command line.
pub fn execute(cli: &Cli) -> Result<String, ParseError> {
    match &cli.command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Apps => Ok(cmd_apps()),
        Command::Run(args) => cmd_run(args),
        Command::Analyze(args) => cmd_analyze(args),
        Command::Bisect(args) => cmd_bisect(args),
        Command::Bound(args) => cmd_bound(args),
        Command::Perf(args) => cmd_perf(args),
        Command::Lint(args) => cmd_lint(args),
        Command::Inject(args) => cmd_inject(args),
        Command::Workflow(args) => cmd_workflow(args),
        Command::Fuzz(args) => cmd_fuzz(args),
        Command::Trace(args) => cmd_trace(args),
        Command::Serve(args) => cmd_serve(args),
        Command::Submit(args) => cmd_submit(args),
        Command::Worker => Err(ParseError(
            "`flit worker` serves a coordinator over stdin/stdout; it is spawned by \
             `--backend process`, not run for a report"
                .into(),
        )),
    }
}

pub(crate) fn get_app(name: &str) -> Result<BundledApp, ParseError> {
    resolve_app(name).ok_or_else(|| {
        ParseError(format!(
            "unknown application `{name}` (available: {})",
            app_names().join(", ")
        ))
    })
}

pub(crate) fn matrix_for(
    app: &BundledApp,
    compiler: Option<&str>,
) -> Result<Vec<Compilation>, ParseError> {
    let compilers: Vec<CompilerKind> = match compiler {
        None => {
            if app.name.starts_with("laghos") {
                vec![CompilerKind::Gcc, CompilerKind::Xlc]
            } else {
                CompilerKind::MFEM_STUDY.to_vec()
            }
        }
        Some("gcc") | Some("g++") => vec![CompilerKind::Gcc],
        Some("clang") | Some("clang++") => vec![CompilerKind::Clang],
        Some("icpc") | Some("intel") => vec![CompilerKind::Icpc],
        Some("xlc") | Some("xlc++") => vec![CompilerKind::Xlc],
        Some(other) => {
            return Err(ParseError(format!(
                "unknown compiler `{other}` (gcc, clang, icpc, xlc)"
            )))
        }
    };
    Ok(compilers.into_iter().flat_map(compilation_matrix).collect())
}

/// The app's test named `name` (default: its first test).
fn find_test<'a>(app: &'a BundledApp, name: Option<&str>) -> Result<&'a DriverTest, ParseError> {
    match name {
        Some(name) => app
            .tests
            .iter()
            .find(|t| t.name() == name)
            .ok_or_else(|| ParseError(format!("unknown test `{name}` for {}", app.name))),
        None => Ok(&app.tests[0]),
    }
}

/// The two compilations of `--pair`, which must differ.
fn pair_compilations(base: &str, candidate: &str) -> Result<[Compilation; 2], ParseError> {
    let pair = [parse_compilation(base)?, parse_compilation(candidate)?];
    if pair[0] == pair[1] {
        return Err(ParseError("--pair needs two distinct compilations".into()));
    }
    Ok(pair)
}

fn sink(enabled: bool) -> TraceSink {
    if enabled {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    }
}

/// Write `trace` to `path` as JSONL and return the report line naming
/// it. Atomic tmp-file + rename: a reader (or a crash mid-write) can
/// never observe a partially written trace export.
fn export_trace(trace: &TraceSink, path: &str) -> Result<String, ParseError> {
    let jsonl = trace.snapshot().to_jsonl();
    flit_persist::write_atomic(std::path::Path::new(path), jsonl.as_bytes())
        .map_err(|e| ParseError(format!("cannot write trace `{path}`: {e}")))?;
    Ok(format!(
        "trace: {} events written to {path} (render with `flit trace {path}`)\n",
        jsonl.lines().count()
    ))
}

/// The compilation matrix sweep of `flit run` and `flit analyze`: the
/// number of compilations and the results database.
fn sweep(app: &BundledApp, compiler: Option<&str>) -> Result<(usize, ResultsDb), ParseError> {
    let comps = matrix_for(app, compiler)?;
    let tests: Vec<&dyn FlitTest> = app.tests.iter().map(|t| t as &dyn FlitTest).collect();
    let db = run_matrix(&app.program, &tests, &comps, &RunnerConfig::default())
        .map_err(|e| ParseError(format!("runner failed: {e}")))?;
    Ok((comps.len(), db))
}

fn cmd_apps() -> String {
    let mut out = String::from("bundled applications:\n");
    for name in app_names() {
        let app = resolve_app(name).expect("listed apps resolve");
        out.push_str(&format!(
            "  {:<12} {} ({} files, {} functions, {} tests)\n",
            app.name,
            app.description,
            app.program.files.len(),
            app.program.total_functions(),
            app.tests.len(),
        ));
    }
    out
}

fn cmd_run(args: &RunArgs) -> Result<String, ParseError> {
    let app = get_app(&args.app)?;
    let (compilations, db) = sweep(&app, args.compiler.as_deref())?;
    if args.json {
        return Ok(db.to_json());
    }
    let mut table = Table::new(&["test", "variable / total", "worst comparison"])
        .with_aligns(&[Align::Left, Align::Right, Align::Right])
        .with_title(format!(
            "flit run {}: {compilations} compilations x {} tests",
            app.name,
            app.tests.len()
        ));
    for test in db.tests() {
        let rows = db.for_test(&test);
        let variable = rows.iter().filter(|r| r.is_variable()).count();
        let worst = rows
            .iter()
            .map(|r| r.comparison)
            .filter(|c| c.is_finite())
            .fold(0.0f64, f64::max);
        table.row(&[
            test.clone(),
            format!("{variable} / {}", rows.len()),
            fmt_f64(worst, 2),
        ]);
    }
    Ok(table.render())
}

fn cmd_analyze(args: &AnalyzeArgs) -> Result<String, ParseError> {
    let app = get_app(&args.app)?;
    let (_, db) = sweep(&app, None)?;

    let mut out = String::new();
    let mut table = Table::new(&["compiler", "variable runs", "best average flags", "speedup"])
        .with_title(format!("flit analyze {}", app.name))
        .with_aligns(&[Align::Left, Align::Right, Align::Left, Align::Right]);
    for compiler in db
        .compilations()
        .iter()
        .map(|c| c.compiler)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let s = compiler_summary(&db, compiler);
        table.row(&[
            compiler.to_string(),
            format!("{}/{}", s.variable_runs, s.total_runs),
            s.best_flags,
            fmt_f64(s.best_avg_speedup, 3),
        ]);
    }
    out.push_str(&table.render());

    let (wins, total) = fastest_is_reproducible_count(&db);
    out.push_str(&format!(
        "\n{wins} of {total} tests have their fastest compilation among the bitwise-equal ones\n\n"
    ));
    for test in db.tests() {
        let v = variability_summary(&db, &test);
        let bars = category_bars(&db, &test);
        let fastest = bars.fastest_variable.map_or_else(
            || "no variable compilations".into(),
            |p| format!("fastest variable {:.3} ({})", p.speedup, p.label),
        );
        out.push_str(&format!(
            "  {test}: {}/{} variable, rel err [{:.1e}, {:.1e}], {fastest}\n",
            v.variable_compilations, v.total_compilations, v.min_rel_err, v.max_rel_err
        ));
    }

    let b = &db.build_stats;
    out.push_str(&format!(
        "\nbuild cache: {} objects compiled ({} cache hits), {} links ({} memo hits)\n",
        b.objects_compiled, b.object_cache_hits, b.links, b.link_memo_hits
    ));
    Ok(out)
}

fn cmd_lint(args: &LintArgs) -> Result<String, ParseError> {
    let app = get_app(&args.app)?;
    let comp = parse_compilation(&args.compilation)?;
    let test = find_test(&app, args.test.as_deref())?;
    let certs = flit_absint::certify_pair(
        &app.program,
        &app.program,
        test.driver(),
        &Compilation::baseline(),
        &comp,
        CompilerKind::Gcc,
    );
    let title = format!(
        "{} | test {} | {} vs {}",
        app.name,
        test.name(),
        Compilation::baseline().label(),
        comp.label()
    );
    Ok(crate::render::render_lint(
        &title,
        &app.program,
        test.driver(),
        &certs,
    ))
}

/// Build the query ledger behind `--checkpoint` / `--resume`:
/// `--checkpoint` starts a fresh journal, `--resume` replays an existing
/// one (validating its program fingerprint) and keeps appending to it,
/// labelling each new answer with the backend `exec` selects.
fn ledger_for(
    fingerprint: u64,
    trace: &TraceSink,
    checkpoint: Option<&str>,
    resume: Option<&str>,
    exec: &ExecArgs,
) -> Result<Option<Arc<QueryLedger>>, ParseError> {
    if checkpoint.is_some() && resume.is_some() {
        return Err(ParseError(
            "pass --checkpoint to start a new journal or --resume to continue one, not both".into(),
        ));
    }
    let ledger = QueryLedger::new(fingerprint, trace);
    if let Some(path) = resume {
        let (writer, records) = JournalWriter::resume(std::path::Path::new(path), fingerprint)
            .map_err(|e| ParseError(format!("cannot resume checkpoint journal: {e}")))?;
        ledger.preload(&records);
        ledger.attach_journal(writer);
    } else if let Some(path) = checkpoint {
        let writer = JournalWriter::create(std::path::Path::new(path), fingerprint)
            .map_err(|e| ParseError(format!("cannot create checkpoint journal: {e}")))?;
        ledger.attach_journal(writer);
    } else {
        return Ok(None);
    }
    ledger.set_backend_label(exec.ledger_label());
    Ok(Some(ledger))
}

/// The journal/dedup footer shared by `flit bisect` and `flit workflow`.
fn ledger_footer(ledger: &QueryLedger) -> String {
    let s = ledger.stats();
    let mut out = format!(
        "journal: {} executed, {} replayed ({} served), {} shared hits, {} appended\n",
        s.executed, s.replayed, s.replay_served, s.shared_hits, s.appended
    );
    if let Some(err) = ledger.journal_error() {
        out.push_str(&format!("WARNING: {err}\n"));
    }
    out
}

fn cmd_bisect(args: &BisectArgs) -> Result<String, ParseError> {
    let app = get_app(&args.app)?;
    let comp = parse_compilation(&args.compilation)?;
    let test = find_test(&app, args.test.as_deref())?;
    let baseline = Build::new(&app.program, Compilation::baseline());
    let variable = Build::tagged(&app.program, comp.clone(), 1);
    let mut cfg = HierarchicalConfig {
        k: args.biggest,
        ctx: BuildCtx::cached(),
        ..HierarchicalConfig::all()
    };
    cfg.prescreen =
        flit_bisect::prescreen_for(args.lint, &baseline, &variable, test.driver(), &cfg);
    // Test hook (like FLIT_WORKER_EXIT_AFTER): forge a dishonest
    // Invariant certificate for the named file so the integration suite
    // can prove the residual audit fails the process.
    if let (Some(certs), Ok(name)) = (
        cfg.prescreen.as_mut().and_then(|p| p.certificates.as_mut()),
        std::env::var("FLIT_FORGE_INVARIANT"),
    ) {
        if let Some(fid) = app.program.files.iter().position(|f| f.name == name) {
            certs.files[fid] = flit_absint::Certificate::Invariant;
        }
    }
    let ledger = ledger_for(
        app.program.fingerprint(),
        &cfg.trace,
        args.checkpoint.as_deref(),
        args.resume.as_deref(),
        &args.exec,
    )?;
    if let Some(ledger) = &ledger {
        cfg.ledger = Some(LedgerHandle::new(
            ledger.clone(),
            1,
            format!("{}/{}", test.name(), comp.label()),
        ));
    }
    let input = test.default_input();
    let input = &input[..test.inputs_per_run().min(input.len())];
    // One search engine at every width: `--jobs 1` is the serial walk,
    // and `--backend process` additionally evaluates every query in
    // worker subprocesses; the result is byte-identical either way.
    cfg.backend = args.exec.remote(&cfg.trace)?;
    let exec = args.exec.executor(cfg.backend.clone());
    let res = bisect_hierarchical(
        &baseline,
        &variable,
        test.driver(),
        input,
        &l2_compare,
        &cfg,
        &*exec,
    );

    let lint_note = match args.lint {
        LintMode::Prune => " | certified prune",
        LintMode::Seed => " | lint seed",
        LintMode::Off => "",
    };
    let mut out = format!(
        "flit bisect {}: test {} | baseline {} | variable {}{}{lint_note}\n\n",
        app.name,
        test.name(),
        Compilation::baseline().label(),
        comp.label(),
        args.exec.search_note()
    );
    match res.outcome {
        SearchOutcome::Crashed(ref why) => {
            out.push_str(&format!(
                "search ABORTED: mixed executable crashed ({why})\n"
            ));
        }
        SearchOutcome::LinkStepOnly => {
            out.push_str("no file blame: the variability is introduced by the link step itself\n");
        }
        _ => {
            out.push_str(&format!("files  ({}):\n", res.files.len()));
            for f in &res.files {
                out.push_str(&format!("  {:<28} Test = {:.3e}\n", f.file_name, f.value));
            }
            out.push_str(&format!("symbols ({}):\n", res.symbols.len()));
            for s in &res.symbols {
                out.push_str(&format!("  {:<28} Test = {:.3e}\n", s.symbol, s.value));
            }
            for fid in &res.file_level_only {
                out.push_str(&format!(
                    "  (file-level only: {} — variability does not survive -fPIC)\n",
                    app.program.files[*fid].name
                ));
            }
        }
    }
    out.push_str(&format!("\nprogram executions: {}\n", res.executions));
    if !res.violations.is_empty() {
        out.push_str("WARNING: assumption violations (possible false negatives):\n");
        for v in &res.violations {
            out.push_str(&format!("  {v}\n"));
        }
    }
    if let Some(ledger) = &ledger {
        out.push_str(&ledger_footer(ledger));
    }
    if res.certificate_violations().next().is_some() {
        // A certificate lied: fail the process (the report, violations
        // included, goes to stderr). The search's own assumption
        // violations are reported above, as in an unpruned run.
        return Err(ParseError(out));
    }
    Ok(out)
}

fn cmd_bound(args: &PairArgs) -> Result<String, ParseError> {
    let app = get_app(&args.app)?;
    let [base_comp, cand_comp] = pair_compilations(&args.base, &args.candidate)?;
    let test = find_test(&app, args.test.as_deref())?;
    let trace = sink(args.trace.is_some());
    // Certify against the bisection model: mixed binaries linked by the
    // baseline-side driver (gcc), the same contract `flit bisect` uses.
    let certs = flit_absint::certify_pair(
        &app.program,
        &app.program,
        test.driver(),
        &base_comp,
        &cand_comp,
        CompilerKind::Gcc,
    );
    flit_bisect::record_certificates(&trace, &certs);

    let mut out = format!(
        "flit bound {}: test {} | {} vs {} | link driver g++\n\n",
        app.name,
        test.name(),
        base_comp.label(),
        cand_comp.label()
    );
    out.push_str(&crate::render::render_certificates(&app.program, &certs));
    if let Some(path) = &args.trace {
        out.push_str(&format!("\n{}", export_trace(&trace, path)?));
    }
    Ok(out)
}

fn cmd_perf(args: &PerfArgs) -> Result<String, ParseError> {
    use flit_bisect::perf::{perf_bisect, PerfConfig, PerfOutcome};
    use flit_report::speedup::SpeedupReport;
    use flit_report::stats::Verdict;
    let pair = &args.pair;
    let app = get_app(&pair.app)?;
    let [base_comp, cand_comp] = pair_compilations(&pair.base, &pair.candidate)?;
    if let Some(n) = args.samples.filter(|n| *n < 2) {
        return Err(ParseError(format!(
            "--samples needs at least 2 (a variance estimate), got {n}"
        )));
    }
    let test = find_test(&app, pair.test.as_deref())?;
    let baseline = Build::new(&app.program, base_comp.clone());
    let cand_build = Build::tagged(&app.program, cand_comp.clone(), 1);
    let mut cfg = PerfConfig::new()
        .with_ctx(BuildCtx::cached())
        .with_trace(sink(pair.trace.is_some()));
    cfg.samples = args.samples.map_or(cfg.samples, |n| n as u32);
    cfg.alpha = args.alpha.unwrap_or(cfg.alpha);
    cfg.seed = args.seed.unwrap_or(cfg.seed);
    let input = test.default_input();
    let input = &input[..test.inputs_per_run().min(input.len())];
    cfg.backend = args.exec.remote(&cfg.trace)?;
    let exec = args.exec.executor(cfg.backend.clone());
    let res = perf_bisect(&baseline, &cand_build, test.driver(), input, &cfg, &*exec);

    let mut out = format!(
        "flit perf {}: test {} | baseline {} | candidate {} | {} samples @ alpha={}{}\n\n",
        app.name,
        test.name(),
        base_comp.label(),
        cand_comp.label(),
        cfg.samples,
        cfg.alpha,
        args.exec.search_note()
    );
    if let Some(overall) = &res.overall {
        out.push_str(&format!("overall: {}\n", overall.render()));
    }
    match res.outcome {
        PerfOutcome::Crashed(ref why) => {
            out.push_str(&format!(
                "search ABORTED: timed executable failed ({why})\n"
            ));
        }
        PerfOutcome::NoRegression => {
            out.push_str(
                match res.overall.as_ref().map(SpeedupReport::verdict) {
                    Some(Verdict::Faster) => {
                        "no regression: the candidate is statistically FASTER — nothing to bisect\n"
                    }
                    _ => "no regression: the pair is statistically indistinguishable at this alpha — nothing to bisect\n",
                },
            );
        }
        PerfOutcome::LinkStepOnly => {
            out.push_str("no file blame: the slowdown is introduced by the link step itself\n");
        }
        _ => {
            out.push_str(&format!("files  ({}):\n", res.files.len()));
            for f in &res.files {
                out.push_str(&format!("  {:<28} {}\n", f.file_name, f.report.render()));
            }
            out.push_str(&format!("symbols ({}):\n", res.symbols.len()));
            for s in &res.symbols {
                out.push_str(&format!("  {:<28} {}\n", s.symbol, s.report.render()));
            }
            for fid in &res.file_level_only {
                out.push_str(&format!(
                    "  (file-level only: {} — the slowdown does not survive -fPIC interposition)\n",
                    app.program.files[*fid].name
                ));
            }
        }
    }
    out.push_str(&format!(
        "\ntimed executions: {} (x{} samples each)\n",
        res.executions, cfg.samples
    ));
    if !res.violations.is_empty() {
        out.push_str("WARNING: assumption violations (possible false negatives):\n");
        for v in &res.violations {
            out.push_str(&format!("  {v}\n"));
        }
    }
    if let Some(path) = &pair.trace {
        out.push_str(&export_trace(&cfg.trace, path)?);
    }
    Ok(out)
}

fn cmd_inject(args: &InjectArgs) -> Result<String, ParseError> {
    let app = get_app(&args.app)?;
    let sites = flit_inject::enumerate_sites(&app.program);
    if sites.is_empty() {
        return Err(ParseError(format!(
            "{} has no injectable FP instruction sites (try `lulesh`)",
            app.name
        )));
    }
    let test = &app.tests[0];
    let cfg = StudyConfig {
        compilation: Compilation::perf_reference(),
        driver: test.driver().clone(),
        input: test.default_input(),
        seed: 42,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    };
    let (records, summary) = run_study(&app.program, &cfg);
    let mut out = format!(
        "flit inject {}: {} sites, {} injections\n",
        app.name,
        sites.len(),
        summary.total
    );
    if let Some(n) = args.limit {
        out.push_str(&format!("records of the first {n} sites:\n"));
        for r in records.iter().take(n * 4) {
            out.push_str(&format!(
                "  {}#{} {:?} eps={:.3} -> {:?} ({} runs)\n",
                r.site.symbol, r.site.site, r.op, r.eps, r.classification, r.runs
            ));
        }
    }
    out.push_str(&format!(
        "exact {} | indirect {} | wrong {} | missed {} | not measurable {}\n",
        summary.exact, summary.indirect, summary.wrong, summary.missed, summary.not_measurable
    ));
    out.push_str(&format!(
        "precision {:.3}, recall {:.3}, avg runs {:.1}\n",
        summary.precision(),
        summary.recall(),
        summary.avg_runs
    ));
    Ok(out)
}

fn cmd_workflow(args: &WorkflowArgs) -> Result<String, ParseError> {
    use flit_core::workflow::{render_workflow_report, run_workflow, WorkflowConfig};
    let app = get_app(&args.app)?;
    let comps = matrix_for(&app, None)?;
    let trace = sink(args.trace.is_some() || args.checkpoint.is_some() || args.resume.is_some());
    let ledger = ledger_for(
        app.program.fingerprint(),
        &trace,
        args.checkpoint.as_deref(),
        args.resume.as_deref(),
        &args.exec,
    )?;
    let mut cfg = WorkflowConfig {
        max_bisections: args.max_bisections.unwrap_or(usize::MAX),
        jobs: args.exec.threads(),
        trace,
        lint: args.lint,
        ledger: ledger.clone(),
        ..Default::default()
    };
    // `--backend process` evaluates the bisection stage's Test queries
    // in worker subprocesses; the workflow's own row fan-out stays on
    // threads (the planner always runs in the coordinator).
    cfg.bisect.backend = args.exec.remote(&cfg.trace)?;
    let report = run_workflow(&app.program, &app.tests, &comps, &cfg)
        .map_err(|e| ParseError(format!("workflow failed: {e}")))?;

    let mut out = render_workflow_report(app.name, &args.exec.note(), &report);
    if let Some(path) = &args.trace {
        out.push_str(&export_trace(&cfg.trace, path)?);
    }
    if let Some(ledger) = &ledger {
        out.push_str(&ledger_footer(ledger));
    }
    Ok(out)
}

fn cmd_fuzz(args: &FuzzArgs) -> Result<String, ParseError> {
    let cfg = flit_fuzz::CampaignConfig {
        start: args.seeds.0,
        end: args.seeds.1,
        budget_secs: args.budget_secs,
        jobs: args.exec.jobs.unwrap_or(8),
        shrink: args.shrink,
        process_cmd: args.exec.worker_cmd()?,
        ..flit_fuzz::CampaignConfig::default()
    };
    let trace = TraceSink::enabled();
    let result = flit_fuzz::run_campaign(&cfg, &trace);
    let mut out = flit_fuzz::render_report(&cfg, &result);
    if let Some(path) = &args.trace {
        out.push_str(&format!("\n{}", export_trace(&trace, path)?));
    }
    if result.clean() {
        Ok(out)
    } else {
        // A divergence is a pipeline bug: fail the process so CI trips.
        Err(ParseError(out))
    }
}

/// Map a daemon exchange onto the command result: transport failures
/// and the daemon's structured `Error` responses both become
/// `ParseError`s — never a panic, never a silent empty report.
fn daemon_response(
    what: &str,
    addr: &str,
    result: std::io::Result<flit_serve::protocol::Response>,
) -> Result<flit_serve::protocol::Response, ParseError> {
    match result {
        Ok(flit_serve::protocol::Response::Error { message }) => {
            Err(ParseError(format!("daemon refused {what}: {message}")))
        }
        Ok(response) => Ok(response),
        Err(e) => Err(ParseError(format!(
            "cannot reach a flit-serve daemon at `{addr}`: {e}"
        ))),
    }
}

fn cmd_submit(args: &SubmitArgs) -> Result<String, ParseError> {
    let response = daemon_response(
        "the submission",
        &args.connect,
        flit_serve::protocol::submit(
            &args.connect,
            &args.tenant,
            &args.app,
            args.max_bisections,
            args.jobs,
        ),
    )?;
    match response {
        flit_serve::protocol::Response::Report { body, .. } => Ok(body),
        other => Err(ParseError(format!(
            "unexpected daemon response to a submission: {other:?}"
        ))),
    }
}

fn cmd_serve(args: &ServeArgs) -> Result<String, ParseError> {
    match args {
        ServeArgs::Listen(listen) => crate::serve::run_serve(listen),
        ServeArgs::Status { connect } => daemon_status(connect),
        ServeArgs::Shutdown { connect } => daemon_shutdown(connect),
    }
}

fn daemon_status(connect: &str) -> Result<String, ParseError> {
    let response = daemon_response(
        "the status request",
        connect,
        flit_serve::protocol::status(connect),
    )?;
    let flit_serve::protocol::Response::Status(s) = response else {
        return Err(ParseError(format!(
            "unexpected daemon response to a status request: {response:?}"
        )));
    };
    let mut out = format!("flit-serve status ({connect})\n\n");
    out.push_str(&format!("protocol version: {}\n", s.version));
    out.push_str(&format!(
        "tenants ({}): {}\n",
        s.tenants.len(),
        if s.tenants.is_empty() {
            "-".to_string()
        } else {
            s.tenants.join(", ")
        }
    ));
    out.push_str(&format!(
        "submissions: {} accepted, {} completed, {} rejected\n",
        s.submissions, s.completed, s.rejected
    ));
    out.push_str(&format!(
        "fleet queries: {} executed, {} memoized, {} shared hits\n",
        s.fleet.executed, s.fleet.memoized, s.fleet.shared_hits
    ));
    match s.latency {
        Some(l) => out.push_str(&format!(
            "submit latency (simulated s): n={} mean={} ci{:.0}=[{}, {}] p95={}\n",
            l.n,
            fmt_f64(l.mean, 3),
            l.level * 100.0,
            fmt_f64(l.ci_lo, 3),
            fmt_f64(l.ci_hi, 3),
            fmt_f64(l.p95, 3)
        )),
        None => out.push_str("submit latency: no completed submissions yet\n"),
    }
    Ok(out)
}

fn daemon_shutdown(connect: &str) -> Result<String, ParseError> {
    let response = daemon_response(
        "the shutdown request",
        connect,
        flit_serve::protocol::shutdown(connect),
    )?;
    match response {
        flit_serve::protocol::Response::ShutdownAck { completed } => Ok(format!(
            "daemon at {connect} drained and stopped ({completed} submissions completed)\n"
        )),
        other => Err(ParseError(format!(
            "unexpected daemon response to a shutdown request: {other:?}"
        ))),
    }
}

fn cmd_trace(args: &TraceArgs) -> Result<String, ParseError> {
    let file = &args.file;
    let text = std::fs::read_to_string(file)
        .map_err(|e| ParseError(format!("cannot read trace `{file}`: {e}")))?;
    let trace =
        Trace::from_jsonl(&text).map_err(|e| ParseError(format!("bad trace `{file}`: {e}")))?;
    let report = render_trace(&trace, args.top);
    Ok(format!("flit trace {file}\n\n{report}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_cli(args: &[&str]) -> Result<String, ParseError> {
        let v: Vec<String> = args.iter().map(ToString::to_string).collect();
        execute(&parse(&v)?)
    }

    #[test]
    fn apps_lists_everything() {
        let out = run_cli(&["apps"]).unwrap();
        for name in app_names() {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn run_laghos_gcc_only() {
        let out = run_cli(&["run", "laghos", "--compiler", "gcc"]).unwrap();
        assert!(out.contains("laghos"));
        assert!(out.contains("68 compilations"));
    }

    #[test]
    fn run_json_emits_database() {
        let out = run_cli(&["run", "laghos", "--compiler", "xlc", "--json"]).unwrap();
        let db = flit_core::db::ResultsDb::from_json(&out).expect("valid JSON db");
        assert_eq!(db.app, "laghos");
        assert_eq!(db.rows.len(), 24); // 6 combos x 4 levels x 1 test
    }

    #[test]
    fn bisect_mfem_example13_blames_the_rank1_update() {
        let out = run_cli(&[
            "bisect",
            "mfem",
            "--test",
            "ex13",
            "--compilation",
            "g++ -O3 -mavx2 -mfma",
        ])
        .unwrap();
        assert!(out.contains("DenseMatrix_AddMultAAt"), "{out}");
        assert!(out.contains("linalg/densemat.cpp"));
    }

    #[test]
    fn bisect_with_jobs_reports_the_same_findings() {
        let args = [
            "bisect",
            "mfem",
            "--test",
            "ex13",
            "--compilation",
            "g++ -O3 -mavx2 -mfma",
        ];
        let serial = run_cli(&args).unwrap();
        let mut with_jobs = args.to_vec();
        with_jobs.extend(["--jobs", "8"]);
        let parallel = run_cli(&with_jobs).unwrap();
        // Identical reports modulo the header's jobs note.
        assert_eq!(
            parallel.replace(" | 8 jobs", ""),
            serial,
            "--jobs must not change the findings"
        );
    }

    #[test]
    fn certified_prune_matches_the_unpruned_findings_with_fewer_executions() {
        let args = [
            "bisect",
            "mfem",
            "--test",
            "ex13",
            "--compilation",
            "g++ -O3 -mavx2 -mfma",
        ];
        let plain = run_cli(&args).unwrap();
        let mut pruned_args = args.to_vec();
        pruned_args.extend(["--prune", "certified"]);
        let pruned = run_cli(&pruned_args).unwrap();
        assert!(pruned.contains(" | certified prune"), "{pruned}");
        let executions = |report: &str| -> u64 {
            report
                .lines()
                .find_map(|l| l.strip_prefix("program executions: "))
                .expect("executions line")
                .parse()
                .unwrap()
        };
        let strip = |report: &str| -> String {
            report
                .replace(" | certified prune", "")
                .lines()
                .filter(|l| !l.starts_with("program executions: "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        // Same findings, strictly cheaper.
        assert_eq!(strip(&pruned), strip(&plain));
        assert!(
            executions(&pruned) < executions(&plain),
            "certified prune must reduce executions: {} vs {}",
            executions(&pruned),
            executions(&plain)
        );
        // Parallel certified prune is byte-identical to serial.
        let mut jobs_args = pruned_args.clone();
        jobs_args.extend(["--jobs", "8"]);
        let parallel = run_cli(&jobs_args).unwrap();
        assert_eq!(parallel.replace(" | 8 jobs", ""), pruned);
    }

    /// The certified audit blames only the prune: on this laghos pair
    /// the search's own unique-error assumption fails (Test(all) =
    /// Test(kept) != Test(found)), which the pruned run reports exactly
    /// like the unpruned one, without failing the process.
    #[test]
    fn certified_prune_does_not_blame_certificates_for_search_violations() {
        let args = ["bisect", "laghos", "--compilation", "g++ -O2 -mavx2 -mfma"];
        let plain = run_cli(&args).unwrap();
        assert!(
            plain.contains("unique-error assumption violated"),
            "{plain}"
        );
        let mut pruned_args = args.to_vec();
        pruned_args.extend(["--prune", "certified"]);
        let pruned = run_cli(&pruned_args).unwrap();
        assert!(!pruned.contains("certified-prune audit failed"), "{pruned}");
        let body = |report: &str| -> Vec<String> {
            report
                .lines()
                .skip(1)
                .filter(|l| !l.starts_with("program executions: "))
                .map(ToString::to_string)
                .collect()
        };
        assert_eq!(body(&pruned), body(&plain));
    }

    /// Workflow `--lint prune` is the certified prune: every bisected
    /// row reports exactly what the unpruned row does.
    #[test]
    fn certified_workflow_prune_matches_every_unpruned_row() {
        use flit_core::workflow::{bisect_variable_rows, WorkflowConfig};
        for (name, rows) in [("laghos", usize::MAX), ("mfem", 60), ("lulesh", usize::MAX)] {
            let app = get_app(name).unwrap();
            let comps = matrix_for(&app, None).unwrap();
            let tests: Vec<&dyn FlitTest> = app.tests.iter().map(|t| t as &dyn FlitTest).collect();
            let db = run_matrix(&app.program, &tests, &comps, &RunnerConfig::default()).unwrap();
            let bisect = |lint: LintMode| {
                let cfg = WorkflowConfig {
                    max_bisections: rows,
                    lint,
                    ..WorkflowConfig::default()
                };
                bisect_variable_rows(&app.program, &app.tests, &db, &cfg, &BuildCtx::cached())
                    .unwrap()
            };
            let (off, pruned) = (bisect(LintMode::Off), bisect(LintMode::Prune));
            assert_eq!(off.len(), pruned.len());
            assert!(!off.is_empty());
            for (a, b) in off.iter().zip(&pruned) {
                let row = format!("{name} {}/{}", a.test, a.compilation.label());
                assert_eq!(b.result.files, a.result.files, "{row}");
                assert_eq!(b.result.symbols, a.result.symbols, "{row}");
                assert_eq!(b.result.file_level_only, a.result.file_level_only, "{row}");
                assert_eq!(b.result.outcome, a.result.outcome, "{row}");
                assert_eq!(b.result.violations, a.result.violations, "{row}");
            }
        }
    }

    #[test]
    fn bound_renders_certificates_for_a_pair() {
        let out = run_cli(&[
            "bound",
            "mfem",
            "--pair",
            "g++ -O2",
            "g++ -O3 -mavx2 -mfma -funsafe-math-optimizations",
        ])
        .unwrap();
        assert!(out.contains("whole pair: bounded"), "{out}");
        assert!(out.contains("Certified bounds — files"), "{out}");
        assert!(out.contains("Certified bounds — symbols"), "{out}");
        assert!(out.contains("linalg/vector.cpp"), "{out}");
        // Identical compilations have nothing to certify.
        let err = run_cli(&["bound", "mfem", "--pair", "g++ -O2", "g++ -O2"]).unwrap_err();
        assert!(err.0.contains("distinct"), "{}", err.0);
    }

    #[test]
    fn bound_writes_a_trace_with_absint_counters() {
        let path = std::env::temp_dir().join("flit-cli-bound-trace.jsonl");
        std::fs::remove_file(&path).ok();
        let path_s = path.to_string_lossy().to_string();
        let out = run_cli(&[
            "bound",
            "laghos",
            "--pair",
            "g++ -O2",
            "g++ -O3 -mavx2 -mfma -funsafe-math-optimizations",
            "--trace",
            &path_s,
        ])
        .unwrap();
        assert!(out.contains("trace:"), "{out}");
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert!(jsonl.contains("absint.certified"), "{jsonl}");
        let rendered = run_cli(&["trace", &path_s]).unwrap();
        assert!(rendered.contains("Certified bounds (absint)"), "{rendered}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpointed_bisect_resumes_with_zero_live_executions() {
        let path = std::env::temp_dir().join("flit-cli-bisect-journal.jsonl");
        std::fs::remove_file(&path).ok();
        let path_s = path.to_string_lossy().to_string();
        let args = [
            "bisect",
            "mfem",
            "--test",
            "ex13",
            "--compilation",
            "g++ -O3 -mavx2 -mfma",
        ];
        let plain = run_cli(&args).unwrap();
        let mut ck = args.to_vec();
        ck.extend(["--checkpoint", &path_s]);
        let first = run_cli(&ck).unwrap();
        // The journal footer is additive: the findings are unchanged.
        assert!(first.starts_with(&plain), "{first}");
        assert!(first.contains("journal:"), "{first}");
        let mut rs = args.to_vec();
        rs.extend(["--resume", &path_s]);
        let resumed = run_cli(&rs).unwrap();
        // Every answer replays from the journal; nothing runs live.
        assert!(resumed.starts_with(&plain), "{resumed}");
        assert!(resumed.contains("journal: 0 executed"), "{resumed}");
        let mut both = ck.clone();
        both.extend(["--resume", &path_s]);
        assert!(
            run_cli(&both).is_err(),
            "--checkpoint + --resume must error"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpointed_workflow_resumes_with_zero_live_executions() {
        let path = std::env::temp_dir().join("flit-cli-workflow-journal.jsonl");
        std::fs::remove_file(&path).ok();
        let path_s = path.to_string_lossy().to_string();
        let base = ["workflow", "laghos", "--max-bisections", "3"];
        let plain = run_cli(&base).unwrap();
        let mut ck = base.to_vec();
        ck.extend(["--checkpoint", &path_s]);
        let first = run_cli(&ck).unwrap();
        assert!(first.starts_with(&plain), "{first}");
        let mut rs = base.to_vec();
        rs.extend(["--resume", &path_s]);
        let resumed = run_cli(&rs).unwrap();
        assert!(resumed.starts_with(&plain), "{resumed}");
        assert!(resumed.contains("journal: 0 executed"), "{resumed}");
        // Resuming under a different program is a structured error.
        let err = run_cli(&["workflow", "mfem", "--resume", &path_s]).unwrap_err();
        assert!(err.0.contains("fingerprint"), "{}", err.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn perf_mfem_blames_the_transcendental_kernel_exactly() {
        let out = run_cli(&[
            "perf",
            "mfem",
            "--test",
            "ex09",
            "--pair",
            "icpc -O2",
            "icpc -O2 -fimf-precision=high",
        ])
        .unwrap();
        // `-fimf-precision=high` slows exactly one kernel class
        // (Transcendental); the planted blame is the single vendor-math
        // kernel reached by the compute-dominated ex09.
        assert!(out.contains("files  (1):"), "{out}");
        assert!(out.contains("fem/coefficient.cpp"), "{out}");
        assert!(out.contains("symbols (1):"), "{out}");
        assert!(out.contains("SineCoefficient_Eval"), "{out}");
        assert!(out.contains("overall:"), "{out}");
        // Every speedup claim carries a confidence interval and a
        // verdict — no bare point estimates in the perf path.
        let claims: Vec<&str> = out.lines().filter(|l| l.contains("x  CI [")).collect();
        assert!(claims.len() >= 3, "{out}");
        for line in claims {
            assert!(
                line.contains("Slower") || line.contains("Faster") || line.contains("Inconclusive"),
                "claim without a verdict: {line}"
            );
            assert!(line.contains("@95%"), "claim without a CI level: {line}");
        }
    }

    #[test]
    fn perf_with_jobs_is_byte_identical() {
        let args = [
            "perf",
            "mfem",
            "--test",
            "ex09",
            "--pair",
            "icpc -O2",
            "icpc -O2 -fimf-precision=high",
        ];
        let serial = run_cli(&args).unwrap();
        let mut with_jobs = args.to_vec();
        with_jobs.extend(["--jobs", "8"]);
        let parallel = run_cli(&with_jobs).unwrap();
        assert_eq!(
            parallel.replace(" | 8 jobs", ""),
            serial,
            "--jobs must not change the perf findings"
        );
    }

    /// `g++ -O0` draws wider timing noise than `g++ -O3`, so the exact
    /// unique-error check trips on noise alone, once at the file level
    /// and once at the symbol level. Each trip costs two extra timings
    /// (`Test(all)`, `Test(found)`), and the Welch test between them
    /// drops the violation as explained: 59 planner timings + 4, and no
    /// warning.
    #[test]
    fn perf_welch_reverification_drops_noise_violations() {
        let out = run_cli(&["perf", "mfem", "--pair", "g++ -O3", "g++ -O0"]).unwrap();
        assert!(out.contains("files  (4):"), "{out}");
        assert!(out.contains("symbols (5):"), "{out}");
        assert!(
            out.contains("timed executions: 63 (x8 samples each)"),
            "{out}"
        );
        assert!(!out.contains("WARNING"), "{out}");
    }

    /// A mixed-ABI file-level timing aborts the search honestly: the
    /// overall claim stands, the crash is named, and the two reference
    /// timings plus the 25 file-level timings before the crash are
    /// counted — identically at any `--jobs` width.
    #[test]
    fn perf_crashed_search_reports_the_abort_and_its_executions() {
        let args = [
            "perf", "mfem", "--test", "ex08", "--pair", "g++ -O3", "icpc -O0",
        ];
        let serial = run_cli(&args).unwrap();
        assert!(serial.contains("overall: "), "{serial}");
        assert!(
            serial.contains(
                "search ABORTED: timed executable failed (mixed-ABI executable, test `ex08`)\n"
            ),
            "{serial}"
        );
        assert!(
            serial.contains("timed executions: 27 (x8 samples each)"),
            "{serial}"
        );
        let mut with_jobs = args.to_vec();
        with_jobs.extend(["--jobs", "4"]);
        let parallel = run_cli(&with_jobs).unwrap();
        let body = |s: &str| s.split_once('\n').map(|(_, rest)| rest.to_string());
        assert_eq!(body(&parallel), body(&serial));
    }

    #[test]
    fn perf_faster_candidate_is_an_honest_no_regression() {
        // Swapping the pair turns the regression into a speedup: the
        // gate reports FASTER instead of inventing blame.
        let out = run_cli(&[
            "perf",
            "mfem",
            "--test",
            "ex09",
            "--pair",
            "icpc -O2 -fimf-precision=high",
            "icpc -O2",
        ])
        .unwrap();
        assert!(out.contains("no regression"), "{out}");
        assert!(out.contains("FASTER"), "{out}");
        assert!(out.contains("x  CI ["), "{out}");
    }

    #[test]
    fn perf_trace_renders_the_performance_bisect_table() {
        let path = std::env::temp_dir().join("flit-cli-perf-trace.jsonl");
        std::fs::remove_file(&path).ok();
        let path_s = path.to_string_lossy().to_string();
        run_cli(&[
            "perf",
            "mfem",
            "--test",
            "ex09",
            "--pair",
            "icpc -O2",
            "icpc -O2 -fimf-precision=high",
            "--trace",
            &path_s,
        ])
        .unwrap();
        let rendered = run_cli(&["trace", &path_s]).unwrap();
        assert!(rendered.contains("Performance bisect"), "{rendered}");
        assert!(rendered.contains("verdicts: slower"), "{rendered}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_mfem_predicts_the_blamed_kernel() {
        let out = run_cli(&[
            "lint",
            "mfem",
            "--test",
            "ex13",
            "--compilation",
            "g++ -O3 -mavx2 -mfma",
        ])
        .unwrap();
        assert!(out.contains("Certified bounds — files"), "{out}");
        assert!(out.contains("linalg/densemat.cpp"), "{out}");
        assert!(out.contains("DenseMatrix_AddMultAAt"), "{out}");
        // The report is `flit bound`'s tables for the same pair.
        let bound = run_cli(&[
            "bound",
            "mfem",
            "--test",
            "ex13",
            "--pair",
            "g++ -O0",
            "g++ -O3 -mavx2 -mfma",
        ])
        .unwrap();
        let tables = bound.split_once("\n\n").unwrap().1;
        assert!(out.contains(tables), "{out}");
        assert!(!out.contains("mixed-ABI"), "{out}");
    }

    #[test]
    fn lint_defaults_are_usable_end_to_end() {
        let out = run_cli(&["lint", "mfem"]).unwrap();
        assert!(out.contains("Certified bounds — symbols"), "{out}");
    }

    #[test]
    fn lint_warns_about_a_mixed_abi_pair() {
        let out = run_cli(&[
            "lint",
            "mfem",
            "--test",
            "ex13",
            "--compilation",
            "icpc -O2",
        ])
        .unwrap();
        assert!(out.contains("mixed-ABI link predicted to CRASH"), "{out}");
    }

    #[test]
    fn lint_seeded_bisect_reports_identical_findings() {
        let args = [
            "bisect",
            "mfem",
            "--test",
            "ex13",
            "--compilation",
            "g++ -O3 -mavx2 -mfma",
        ];
        let plain = run_cli(&args).unwrap();
        let mut seeded_args = args.to_vec();
        seeded_args.push("--lint-seed");
        let seeded = run_cli(&seeded_args).unwrap();
        assert_eq!(
            seeded.replace(" | lint seed", ""),
            plain,
            "--lint-seed must not change the report"
        );
    }

    #[test]
    fn bisect_biggest_limits_the_find() {
        let out = run_cli(&[
            "bisect",
            "mfem",
            "--test",
            "ex08",
            "--compilation",
            "g++ -O3 -funsafe-math-optimizations",
            "--biggest",
            "1",
        ])
        .unwrap();
        assert!(out.contains("symbols (1)"), "{out}");
    }

    #[test]
    fn workflow_laghos_names_the_viscosity_gate() {
        let out = run_cli(&["workflow", "laghos", "--max-bisections", "6"]).unwrap();
        assert!(out.contains("determinism pre-check: passed"), "{out}");
        assert!(out.contains("QUpdate_Viscosity"), "{out}");
    }

    #[test]
    fn fuzz_campaign_runs_clean_and_traces() {
        let path = std::env::temp_dir().join("flit-cli-fuzz-test.jsonl");
        let path_s = path.to_string_lossy().to_string();
        let out = run_cli(&["fuzz", "--seeds", "0..3", "--jobs", "2", "--trace", &path_s]).unwrap();
        assert!(out.contains("no divergences"), "{out}");
        assert!(out.contains("events written"), "{out}");
        let rendered = run_cli(&["trace", &path_s]).unwrap();
        assert!(rendered.contains("Fuzz campaign"), "{rendered}");
        assert!(rendered.contains("seeds run"), "{rendered}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn workflow_trace_round_trips_through_flit_trace() {
        let path = std::env::temp_dir().join("flit-cli-trace-test.jsonl");
        let path_s = path.to_string_lossy().to_string();
        let out = run_cli(&[
            "workflow",
            "laghos",
            "--max-bisections",
            "2",
            "--trace",
            &path_s,
        ])
        .unwrap();
        assert!(out.contains("events written"), "{out}");
        let rendered = run_cli(&["trace", &path_s, "--top", "3"]).unwrap();
        assert!(rendered.contains("Trace summary by phase"), "{rendered}");
        assert!(rendered.contains("sweep"), "{rendered}");
        assert!(
            rendered.contains("Bisect executions by level"),
            "{rendered}"
        );
        assert!(rendered.contains("Build-cache hit rates"), "{rendered}");
        assert!(
            !rendered.contains("Certified bounds (absint)"),
            "certificate section must be absent without --lint: {rendered}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_seeded_workflow_trace_shows_certificate_counters() {
        let path = std::env::temp_dir().join("flit-cli-lint-trace-test.jsonl");
        let path_s = path.to_string_lossy().to_string();
        run_cli(&[
            "workflow",
            "laghos",
            "--max-bisections",
            "2",
            "--lint",
            "seed",
            "--trace",
            &path_s,
        ])
        .unwrap();
        let rendered = run_cli(&["trace", &path_s, "--top", "3"]).unwrap();
        assert!(
            rendered.contains("Certified bounds (absint)"),
            "absint.* counters must surface in flit trace: {rendered}"
        );
        assert!(rendered.contains("certified invariant"), "{rendered}");
        assert!(rendered.contains("speculations skipped"), "{rendered}");
        std::fs::remove_file(&path).ok();
        assert!(run_cli(&["workflow", "laghos", "--lint", "turbo"]).is_err());
    }

    #[test]
    fn trace_command_reports_missing_and_bad_files() {
        assert!(run_cli(&["trace", "/nonexistent/x.jsonl"])
            .unwrap_err()
            .0
            .contains("cannot read trace"));
        let path = std::env::temp_dir().join("flit-cli-bad-trace.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        let err = run_cli(&["trace", &path.to_string_lossy()]).unwrap_err();
        assert!(err.0.contains("bad trace"), "{}", err.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_helpful() {
        assert!(run_cli(&["run", "doom"])
            .unwrap_err()
            .0
            .contains("unknown application"));
        assert!(run_cli(&["bisect", "mfem", "--compilation", "tcc -O9"])
            .unwrap_err()
            .0
            .contains("unknown compilation"));
        assert!(run_cli(&["inject", "mfem"])
            .unwrap_err()
            .0
            .contains("no injectable"));
    }
}

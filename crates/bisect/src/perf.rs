//! Performance bisect: root-cause *which file/symbol makes a
//! compilation slower*, with statistical regression gates.
//!
//! The variability hierarchy (§2.3) asks "which file changes the
//! *answer*"; this module asks "which file changes the *runtime*" — the
//! paper's §4 performance/reproducibility tradeoff turned into a
//! search. The Test function times a mixed binary under the seeded
//! noise model ([`flit_toolchain::perf`]) and compares it against the
//! baseline timing with Welch's t-test: the planner only blames a set
//! once the slowdown is statistically significant at the configured α.
//! Every speedup claim the result carries is a full
//! [`SpeedupReport`] — point estimate, confidence interval, verdict —
//! never a bare ratio.
//!
//! Timing runs draw `samples` seeded repetitions per binary
//! ([`TimingProfile::samples`]); the noise draws are common-mode across
//! compilations (machine-wide jitter), so two binaries that differ only
//! in untouched files produce bitwise-identical sample vectors and the
//! planner's exact `Test(all) == Test(found)` verification holds. When
//! the two compilations disagree on noise *width* (different opt
//! levels), an apparent unique-error violation is re-verified with a
//! second Welch test between the two mixed binaries and dropped when
//! they are statistically indistinguishable — the found set explains
//! the regression.

use std::sync::Arc;

use flit_program::build::Build;
use flit_program::model::{Driver, SimProgram, Visibility};
use flit_report::speedup::SpeedupReport;
use flit_report::stats::{welch_test, Verdict};
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;
use flit_toolchain::perf::speed_factor;
use flit_trace::names::{counter as counter_names, phase};
use flit_trace::sink::TraceSink;

use flit_exec::{ExecBackend, ExecError};

use crate::algo::AssumptionViolation;
use crate::ledger::{LedgerHandle, SearchKeys};
use crate::parallel::{drive_plans, emit_query_spans, SharedOracle};
use crate::planner::{BisectPlan, PlanFailure, PlanOutcome, SearchMode};
use crate::test_fn::TestError;
use crate::wire::{ExeRecipe, LocalPlane, QueryPlane, RemotePlane};

/// Configuration of a performance bisect.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// The compiler driving the mixed links (same convention as the
    /// variability hierarchy).
    pub link_driver: CompilerKind,
    /// Timing repetitions per binary. More samples narrow the
    /// confidence intervals and sharpen the verdicts.
    pub samples: u32,
    /// Significance level of every Welch test and the complement of
    /// every confidence level (α = 0.05 ⇒ 95% CIs).
    pub alpha: f64,
    /// Noise seed: all timing samples are byte-deterministic given it.
    pub seed: u64,
    /// Build context the search compiles and links through.
    pub ctx: BuildCtx,
    /// Trace sink for `perf.*` spans and counters.
    pub trace: TraceSink,
    /// Optional workflow-wide query ledger (see the variability
    /// hierarchy); perf queries live under distinct `perf*/` keys.
    pub ledger: Option<LedgerHandle>,
    /// Optional execution backend deciding *where* timing queries
    /// evaluate (see `HierarchicalConfig::backend`): `None` or a local
    /// backend times in-process; a remote backend ships each query to a
    /// worker subprocess. Sample vectors are seeded and byte-exact on
    /// the wire, so reports and verdicts are identical either way.
    pub backend: Option<Arc<dyn ExecBackend>>,
}

impl PerfConfig {
    /// Default protocol: 8 samples, α = 0.05, seed 42, GNU-driven link.
    pub fn new() -> Self {
        PerfConfig {
            link_driver: CompilerKind::Gcc,
            samples: 8,
            alpha: 0.05,
            seed: 42,
            ctx: BuildCtx::uncached(),
            trace: TraceSink::disabled(),
            ledger: None,
            backend: None,
        }
    }

    /// Set the timing repetitions per binary.
    pub fn with_samples(mut self, samples: u32) -> Self {
        self.samples = samples;
        self
    }

    /// Set the significance level.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Set the noise seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run this search through the given build context.
    pub fn with_ctx(mut self, ctx: BuildCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Record this search's spans and counters into `trace`.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Answer this search's timing queries through a shared ledger.
    pub fn with_ledger(mut self, ledger: LedgerHandle) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Evaluate this search's timing queries through an execution
    /// backend (see [`PerfConfig::backend`]).
    pub fn with_backend(mut self, backend: Arc<dyn ExecBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The query plane this configuration times through.
    fn plane<'a>(
        &'a self,
        baseline: &'a Build<'a>,
        candidate: &'a Build<'a>,
        driver: &'a Driver,
        input: &'a [f64],
    ) -> Box<dyn QueryPlane + 'a> {
        match &self.backend {
            Some(b) if b.is_remote() => Box::new(RemotePlane::new(
                b.clone(),
                baseline,
                candidate,
                driver,
                input,
                self.link_driver,
            )),
            _ => Box::new(LocalPlane {
                baseline,
                variable: candidate,
                driver,
                input,
                link_driver: self.link_driver,
                ctx: &self.ctx,
            }),
        }
    }
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig::new()
    }
}

/// A file blamed for the slowdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfFileFinding {
    /// Index in the program's file list.
    pub file_id: usize,
    /// File name.
    pub file_name: String,
    /// The planner's blamed effect: how much slower the binary with
    /// only this file from the candidate runs, as
    /// `mean(mixed)/mean(base) − 1` (0 when not significant).
    pub effect: f64,
    /// Full statistical claim of the singleton comparison.
    pub report: SpeedupReport,
}

/// A symbol blamed for the slowdown within a found file.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSymbolFinding {
    /// The function's symbol name.
    pub symbol: String,
    /// The file defining it.
    pub file_id: usize,
    /// The planner's blamed effect at symbol granularity.
    pub effect: f64,
    /// Full statistical claim of the singleton comparison against the
    /// `-fPIC`-overhead reference (the empty-set symbol-mixed binary),
    /// so the pic speed penalty cancels instead of being misblamed.
    pub report: SpeedupReport,
}

/// How the performance bisect ended.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfOutcome {
    /// The candidate is statistically slower and both levels completed.
    Completed,
    /// The overall Welch test did not conclude "slower": either the
    /// candidate is faster or the pair is statistically
    /// indistinguishable at α. Nothing to bisect.
    NoRegression,
    /// The candidate is slower but the mixed link reproduces none of
    /// it: the regression lives in the link step itself.
    LinkStepOnly,
    /// A build or run failed.
    Crashed(String),
    /// A dynamic-verification assertion failed *and* survived the Welch
    /// re-verification; results may be incomplete.
    AssumptionViolated,
}

/// Result of [`perf_bisect`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBisectResult {
    /// How the search ended.
    pub outcome: PerfOutcome,
    /// The headline claim: the candidate's own binary vs the baseline's
    /// (absent only when a reference build/run failed).
    pub overall: Option<SpeedupReport>,
    /// Slowdown-inducing files.
    pub files: Vec<PerfFileFinding>,
    /// Slowdown-inducing symbols across all searched files.
    pub symbols: Vec<PerfSymbolFinding>,
    /// Files whose slowdown exported-symbol interposition cannot
    /// reproduce (file-level blame only).
    pub file_level_only: Vec<usize>,
    /// Total timed program executions (each drawing `samples` samples).
    pub executions: usize,
    /// Violations that survived the Welch re-verification.
    pub violations: Vec<String>,
}

impl PerfBisectResult {
    /// Did the search complete with full dynamic verification?
    pub fn verified_complete(&self) -> bool {
        self.outcome == PerfOutcome::Completed && self.violations.is_empty()
    }
}

/// Files the deterministic speed model predicts slower under `cand`
/// than under `base`: ground truth for validating [`perf_bisect`]
/// (assumes the driver exercises every function, as the study drivers
/// do).
pub fn predicted_slow_files(
    program: &SimProgram,
    base: &Compilation,
    cand: &Compilation,
) -> Vec<usize> {
    (0..program.files.len())
        .filter(|&fid| {
            program.files[fid]
                .functions
                .iter()
                .any(|f| speed_factor(cand, f.class()) < speed_factor(base, f.class()))
        })
        .collect()
}

/// Exported symbols of `file_id` the speed model predicts slower under
/// `cand`: symbol-level ground truth.
pub fn predicted_slow_symbols(
    program: &SimProgram,
    base: &Compilation,
    cand: &Compilation,
    file_id: usize,
) -> Vec<String> {
    program.files[file_id]
        .functions
        .iter()
        .filter(|f| f.visibility == Visibility::Exported)
        .filter(|f| speed_factor(cand, f.class()) < speed_factor(base, f.class()))
        .map(|f| f.name.clone())
        .collect()
}

/// Run the performance bisect: confirm the candidate is statistically
/// slower than the baseline, then search files — and symbols within
/// found files — for where the slowdown lives. Independent Test queries
/// fan out on `backend`; the entire result (findings, reports,
/// execution counts, `perf.*` counters and spans) is byte-identical at
/// any worker count because answers fold in the serial planner order —
/// and identical again under a remote backend, because the seeded
/// sample vectors cross the wire bit-exactly.
pub fn perf_bisect(
    baseline: &Build,
    candidate: &Build,
    driver: &Driver,
    input: &[f64],
    cfg: &PerfConfig,
    backend: &dyn ExecBackend,
) -> PerfBisectResult {
    let mut executions = 0usize;
    let mut violations: Vec<String> = Vec::new();

    let search = format!("{}/{}", driver.name, candidate.compilation.label());
    let candidate_label = candidate.compilation.label();
    let keys = cfg.ledger.as_ref().map(|_| {
        SearchKeys::new(
            baseline.program.fingerprint(),
            candidate.program.fingerprint(),
            &driver.name,
            input,
            &baseline.compilation.label(),
            &format!("{:?}", cfg.link_driver),
        )
    });
    let reference_runs = cfg.trace.counter(counter_names::PERF_REFERENCE_RUNS);
    let samples_drawn = cfg.trace.counter(counter_names::PERF_SAMPLES_DRAWN);
    let count_verdict = |v: Verdict| {
        let name = match v {
            Verdict::Faster => counter_names::PERF_VERDICTS_FASTER,
            Verdict::Slower => counter_names::PERF_VERDICTS_SLOWER,
            Verdict::Inconclusive => counter_names::PERF_VERDICTS_INCONCLUSIVE,
        };
        cfg.trace.counter(name).incr(1);
    };

    let crashed = |message: String,
                   overall: Option<SpeedupReport>,
                   files: Vec<PerfFileFinding>,
                   symbols: Vec<PerfSymbolFinding>,
                   file_level_only: Vec<usize>,
                   executions: usize,
                   violations: Vec<String>| PerfBisectResult {
        outcome: PerfOutcome::Crashed(message),
        overall,
        files,
        symbols,
        file_level_only,
        executions,
        violations,
    };

    let plane = cfg.plane(baseline, candidate, driver, input);

    // ---- Timing references: the two real binaries ----
    // Baseline samples go through the ledger (variable-independent, so
    // every candidate compared against this baseline shares them).
    let base_reference = {
        let compute = || -> Result<(Vec<f64>, f64), TestError> {
            let s = plane.time_recipe(&ExeRecipe::Baseline, cfg.seed, cfg.samples)?;
            let total = s.iter().sum();
            Ok((s, total))
        };
        match (&cfg.ledger, &keys) {
            (Some(ledger), Some(keys)) => ledger.eval_output(
                &keys.perf_reference(cfg.samples, cfg.alpha, cfg.seed),
                compute,
            ),
            _ => compute(),
        }
    };
    let base_samples = match base_reference {
        Ok((s, _)) => {
            executions += 1;
            reference_runs.incr(1);
            samples_drawn.incr(cfg.samples as u64);
            s
        }
        Err(TestError::Link(e)) => {
            return crashed(
                format!("baseline link failed: {e}"),
                None,
                vec![],
                vec![],
                vec![],
                executions,
                violations,
            )
        }
        Err(TestError::Crash(e)) => {
            executions += 1;
            reference_runs.incr(1);
            samples_drawn.incr(cfg.samples as u64);
            return crashed(
                format!("baseline run failed: {e}"),
                None,
                vec![],
                vec![],
                vec![],
                executions,
                violations,
            );
        }
    };

    let cand_samples = {
        let compute = || -> Result<Vec<f64>, TestError> {
            plane.time_recipe(&ExeRecipe::Candidate, cfg.seed, cfg.samples)
        };
        match compute() {
            Ok(s) => {
                executions += 1;
                reference_runs.incr(1);
                samples_drawn.incr(cfg.samples as u64);
                s
            }
            Err(e) => {
                if matches!(e, TestError::Crash(_)) {
                    executions += 1;
                    reference_runs.incr(1);
                    samples_drawn.incr(cfg.samples as u64);
                }
                return crashed(
                    format!("candidate reference failed: {}", e.into_crash_message()),
                    None,
                    vec![],
                    vec![],
                    vec![],
                    executions,
                    violations,
                );
            }
        }
    };

    // ---- The overall gate: is the candidate slower at all? ----
    let Some(overall) = SpeedupReport::compare(&cand_samples, &base_samples, cfg.alpha) else {
        return crashed(
            "degenerate timing samples (need samples >= 1 and positive runtimes)".into(),
            None,
            vec![],
            vec![],
            vec![],
            executions,
            violations,
        );
    };
    count_verdict(overall.verdict());
    if overall.verdict() != Verdict::Slower {
        return PerfBisectResult {
            outcome: PerfOutcome::NoRegression,
            overall: Some(overall),
            files: vec![],
            symbols: vec![],
            file_level_only: vec![],
            executions,
            violations,
        };
    }

    // ---- File-level search ----
    // Raw sample vectors of a file-mixed binary (shared by the oracle,
    // the finding reports, and the violation re-verification).
    let file_samples = |items: &[usize]| -> Result<Vec<f64>, TestError> {
        let recipe = ExeRecipe::FileMixed {
            items: items.to_vec(),
        };
        plane.time_recipe(&recipe, cfg.seed, cfg.samples)
    };
    let file_raw = |items: &[usize]| -> Result<(f64, f64), TestError> {
        let s = file_samples(items)?;
        let rep = SpeedupReport::compare(&s, &base_samples, cfg.alpha)
            .ok_or_else(|| TestError::Crash("degenerate timing samples".into()))?;
        Ok((rep.slowdown_effect(), s.iter().sum()))
    };
    let file_oracle = match (&cfg.ledger, &keys) {
        (Some(ledger), Some(keys)) => {
            let k = keys.clone();
            let label = candidate_label.clone();
            let (n, a, seed) = (cfg.samples, cfg.alpha, cfg.seed);
            SharedOracle::with_ledger(file_raw, &cfg.trace, ledger.clone(), move |items| {
                k.perf_file_query(&label, items, n, a, seed)
            })
        }
        _ => SharedOracle::new(file_raw, &cfg.trace),
    };
    let file_ids: Vec<usize> = (0..baseline.program.files.len()).collect();
    let file_label = format!("{search}/perf-file");
    let mut file_plans = [BisectPlan::new(&file_ids, SearchMode::All)];
    let file_result = match drive_plans(
        &mut file_plans,
        &[&file_oracle],
        backend,
        &cfg.trace,
        &file_label,
    ) {
        Err(ExecError::WorkerPanicked { message, .. }) => {
            return crashed(
                format!("perf bisect worker panicked: {message}"),
                Some(overall),
                vec![],
                vec![],
                vec![],
                executions,
                violations,
            )
        }
        Err(ExecError::Backend { message }) => {
            return crashed(
                format!("perf bisect backend failed: {message}"),
                Some(overall),
                vec![],
                vec![],
                vec![],
                executions,
                violations,
            )
        }
        Ok(mut results) => results.pop().expect("one file-level plan"),
    };
    let (mut file_execs, file_secs) = match &file_result {
        Ok(p) => (p.outcome.executions, p.seconds),
        Err(f) => (f.executions, f.seconds),
    };
    let file_outcome: PlanOutcome<usize> = match file_result {
        Ok(p) => p,
        Err(PlanFailure { error, .. }) => {
            executions += file_execs;
            cfg.trace
                .counter(counter_names::PERF_FILE_RUNS)
                .incr(file_execs as u64);
            samples_drawn.incr(file_execs as u64 * cfg.samples as u64);
            cfg.trace.span(
                phase::PERF_FILE,
                search.clone(),
                file_execs as u64,
                file_secs,
            );
            return crashed(
                error.into_crash_message(),
                Some(overall),
                vec![],
                vec![],
                vec![],
                executions,
                violations,
            );
        }
    };

    // Welch re-verification of unique-error violations: when the two
    // compilations disagree on noise width (different opt levels) the
    // exact-equality check can trip on noise alone; the violation is
    // real only if the all-candidate and found-only mixed binaries are
    // statistically distinguishable.
    let mut found_ids: Vec<usize> = file_outcome.outcome.found.iter().map(|(i, _)| *i).collect();
    found_ids.sort_unstable();
    let mut reverified: Option<bool> = None; // Some(true) = explained, drop.
    for v in &file_outcome.outcome.violations {
        let explained = match v {
            AssumptionViolation::UniqueError { .. } => {
                if reverified.is_none() {
                    file_execs += 2;
                    let drop = match (file_samples(&file_ids), file_samples(&found_ids)) {
                        (Ok(all_s), Ok(found_s)) => {
                            matches!(welch_test(&all_s, &found_s, cfg.alpha),
                                     Some(w) if w.verdict == Verdict::Inconclusive)
                        }
                        _ => false,
                    };
                    reverified = Some(drop);
                }
                reverified == Some(true)
            }
            AssumptionViolation::SingletonBlame { .. } => false,
        };
        if !explained {
            violations.push(v.describe(|id| baseline.program.files[*id].name.clone()));
        }
    }
    executions += file_execs;
    cfg.trace
        .counter(counter_names::PERF_FILE_RUNS)
        .incr(file_execs as u64);
    samples_drawn.incr(file_execs as u64 * cfg.samples as u64);
    cfg.trace.span(
        phase::PERF_FILE,
        search.clone(),
        file_execs as u64,
        file_secs,
    );
    emit_query_spans(&cfg.trace, &file_label, &file_outcome);

    // Attach the full statistical claim to every found file. These are
    // re-derivations of singleton queries the planner already executed,
    // so they add no executions.
    let mut files: Vec<PerfFileFinding> = Vec::new();
    for (id, effect) in &file_outcome.outcome.found {
        let Some(report) = file_samples(&[*id])
            .ok()
            .and_then(|s| SpeedupReport::compare(&s, &base_samples, cfg.alpha))
        else {
            return crashed(
                format!(
                    "singleton timing of `{}` failed",
                    baseline.program.files[*id].name
                ),
                Some(overall),
                files,
                vec![],
                vec![],
                executions,
                violations,
            );
        };
        count_verdict(report.verdict());
        files.push(PerfFileFinding {
            file_id: *id,
            file_name: baseline.program.files[*id].name.clone(),
            effect: *effect,
            report,
        });
    }

    if files.is_empty() {
        let outcome = if violations.is_empty() {
            PerfOutcome::LinkStepOnly
        } else {
            PerfOutcome::AssumptionViolated
        };
        return PerfBisectResult {
            outcome,
            overall: Some(overall),
            files,
            symbols: vec![],
            file_level_only: vec![],
            executions,
            violations,
        };
    }

    // ---- Symbol-level search per found file ----
    // Each candidate file first gets a pic-overhead reference: the
    // empty-set symbol-mixed binary (target file compiled `-fPIC` under
    // the *baseline* build). Comparing symbol sets against it cancels
    // the pic speed penalty instead of blaming it on the symbols.
    struct Candidate {
        fid: usize,
        syms: Vec<String>,
        symref: Vec<f64>,
    }
    let sym_samples = |fid: usize, items: &[String]| -> Result<Vec<f64>, TestError> {
        let recipe = ExeRecipe::SymbolMixed {
            file: fid,
            items: items.to_vec(),
        };
        plane.time_recipe(&recipe, cfg.seed, cfg.samples)
    };
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut file_level_only: Vec<usize> = Vec::new();
    for finding in &files {
        let fid = finding.file_id;
        let syms = baseline.program.exported_symbols_of_file(fid);
        if syms.is_empty() {
            file_level_only.push(fid);
            continue;
        }
        let symref = match sym_samples(fid, &[]) {
            Ok(s) => {
                executions += 1;
                reference_runs.incr(1);
                samples_drawn.incr(cfg.samples as u64);
                s
            }
            Err(e) => {
                if matches!(e, TestError::Crash(_)) {
                    executions += 1;
                    reference_runs.incr(1);
                    samples_drawn.incr(cfg.samples as u64);
                }
                return crashed(
                    format!("pic reference failed: {}", e.into_crash_message()),
                    Some(overall),
                    files,
                    vec![],
                    file_level_only,
                    executions,
                    violations,
                );
            }
        };
        candidates.push(Candidate { fid, syms, symref });
    }

    let sym_oracles: Vec<SharedOracle<'_, String>> = candidates
        .iter()
        .map(|c| {
            let fid = c.fid;
            let symref = &c.symref;
            let raw = move |items: &[String]| -> Result<(f64, f64), TestError> {
                let s = sym_samples(fid, items)?;
                let rep = SpeedupReport::compare(&s, symref, cfg.alpha)
                    .ok_or_else(|| TestError::Crash("degenerate timing samples".into()))?;
                Ok((rep.slowdown_effect(), s.iter().sum()))
            };
            match (&cfg.ledger, &keys) {
                (Some(ledger), Some(keys)) => {
                    let k = keys.clone();
                    let label = candidate_label.clone();
                    let (n, a, seed) = (cfg.samples, cfg.alpha, cfg.seed);
                    SharedOracle::with_ledger(raw, &cfg.trace, ledger.clone(), move |items| {
                        k.perf_symbol_query(&label, fid, items, n, a, seed)
                    })
                }
                _ => SharedOracle::new(raw, &cfg.trace),
            }
        })
        .collect();
    let mut sym_plans: Vec<BisectPlan<String>> = candidates
        .iter()
        .map(|c| BisectPlan::new(&c.syms, SearchMode::All))
        .collect();
    let oracle_refs: Vec<&SharedOracle<'_, String>> = sym_oracles.iter().collect();
    let sym_driven = drive_plans(
        &mut sym_plans,
        &oracle_refs,
        backend,
        &cfg.trace,
        &format!("{search}/perf-symbol"),
    );
    let sym_results = match sym_driven {
        Ok(r) => r,
        Err(ExecError::WorkerPanicked { message, .. }) => {
            return crashed(
                format!("perf bisect worker panicked: {message}"),
                Some(overall),
                files,
                vec![],
                file_level_only,
                executions,
                violations,
            )
        }
        Err(ExecError::Backend { message }) => {
            return crashed(
                format!("perf bisect backend failed: {message}"),
                Some(overall),
                files,
                vec![],
                file_level_only,
                executions,
                violations,
            )
        }
    };

    // Fold per candidate file, in file order.
    let mut symbols: Vec<PerfSymbolFinding> = Vec::new();
    for (c, sym_result) in candidates.iter().zip(sym_results) {
        let fid = c.fid;
        let (mut sym_execs, sym_secs) = match &sym_result {
            Ok(p) => (p.outcome.executions, p.seconds),
            Err(f) => (f.executions, f.seconds),
        };
        let sym_label = format!("{search}/{}", baseline.program.files[fid].name);
        let outcome = match sym_result {
            Ok(p) => p,
            Err(PlanFailure { error, .. }) => {
                executions += sym_execs;
                cfg.trace
                    .counter(counter_names::PERF_SYMBOL_RUNS)
                    .incr(sym_execs as u64);
                samples_drawn.incr(sym_execs as u64 * cfg.samples as u64);
                cfg.trace
                    .span(phase::PERF_SYMBOL, sym_label, sym_execs as u64, sym_secs);
                return crashed(
                    error.into_crash_message(),
                    Some(overall),
                    files,
                    symbols,
                    file_level_only,
                    executions,
                    violations,
                );
            }
        };
        // Symbol-level Welch re-verification, mirroring the file level.
        let mut found_syms: Vec<String> = outcome
            .outcome
            .found
            .iter()
            .map(|(s, _)| s.clone())
            .collect();
        found_syms.sort();
        let mut reverified: Option<bool> = None;
        for v in &outcome.outcome.violations {
            let explained = match v {
                AssumptionViolation::UniqueError { .. } => {
                    if reverified.is_none() {
                        sym_execs += 2;
                        let drop = match (sym_samples(fid, &c.syms), sym_samples(fid, &found_syms))
                        {
                            (Ok(all_s), Ok(found_s)) => {
                                matches!(welch_test(&all_s, &found_s, cfg.alpha),
                                         Some(w) if w.verdict == Verdict::Inconclusive)
                            }
                            _ => false,
                        };
                        reverified = Some(drop);
                    }
                    reverified == Some(true)
                }
                AssumptionViolation::SingletonBlame { .. } => false,
            };
            if !explained {
                violations.push(v.describe(Clone::clone));
            }
        }
        executions += sym_execs;
        cfg.trace
            .counter(counter_names::PERF_SYMBOL_RUNS)
            .incr(sym_execs as u64);
        samples_drawn.incr(sym_execs as u64 * cfg.samples as u64);
        cfg.trace.span(
            phase::PERF_SYMBOL,
            sym_label.clone(),
            sym_execs as u64,
            sym_secs,
        );
        emit_query_spans(&cfg.trace, &sym_label, &outcome);
        if outcome.outcome.found.is_empty() {
            file_level_only.push(fid);
        }
        for (symbol, effect) in outcome.outcome.found {
            let Some(report) = sym_samples(fid, std::slice::from_ref(&symbol))
                .ok()
                .and_then(|s| SpeedupReport::compare(&s, &c.symref, cfg.alpha))
            else {
                return crashed(
                    format!("singleton timing of `{symbol}` failed"),
                    Some(overall),
                    files,
                    symbols,
                    file_level_only,
                    executions,
                    violations,
                );
            };
            count_verdict(report.verdict());
            symbols.push(PerfSymbolFinding {
                symbol,
                file_id: fid,
                effect,
                report,
            });
        }
    }

    let outcome = if violations.is_empty() {
        PerfOutcome::Completed
    } else {
        PerfOutcome::AssumptionViolated
    };
    PerfBisectResult {
        outcome,
        overall: Some(overall),
        files,
        symbols,
        file_level_only,
        executions,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::QueryLedger;
    use flit_program::kernel::Kernel;
    use flit_program::model::{Function, SourceFile};
    use flit_toolchain::compiler::OptLevel;
    use flit_toolchain::flags::Switch;

    /// Table-2-shaped workload with a planted slow spot: `-prec-div`
    /// slows DivHeavy code only, and only `math/divide.cpp:div_scan`
    /// is DivHeavy.
    fn program() -> SimProgram {
        SimProgram::new(
            "perf-test",
            vec![
                SourceFile::new(
                    "util/io.cpp",
                    vec![
                        Function::exported("io_read", Kernel::Benign { flavor: 0 }),
                        Function::exported("io_write", Kernel::Benign { flavor: 1 }),
                    ],
                ),
                SourceFile::new(
                    "math/divide.cpp",
                    vec![
                        Function::exported("div_scan", Kernel::DivScan),
                        Function::exported("div_aux", Kernel::Benign { flavor: 2 }),
                    ],
                ),
                SourceFile::new(
                    "linalg/dot.cpp",
                    vec![Function::exported("dot_mix", Kernel::DotMix { stride: 3 })],
                ),
            ],
        )
    }

    fn driver() -> Driver {
        Driver::new(
            "perf",
            vec![
                "io_read".into(),
                "div_scan".into(),
                "div_aux".into(),
                "dot_mix".into(),
                "io_write".into(),
            ],
            2,
            64,
        )
    }

    fn base_comp() -> Compilation {
        Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![])
    }

    fn slow_comp() -> Compilation {
        Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::PrecDiv])
    }

    #[test]
    fn finds_the_planted_slow_file_and_symbol_exactly() {
        let p = program();
        let base = Build::new(&p, base_comp());
        let cand = Build::tagged(&p, slow_comp(), 1);
        let res = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5, 0.25],
            &PerfConfig::new(),
            &flit_exec::ThreadsBackend::new(1),
        );
        assert_eq!(res.outcome, PerfOutcome::Completed, "{:?}", res.violations);
        assert!(res.verified_complete());

        // Ground truth from the deterministic speed model.
        let truth = predicted_slow_files(&p, &base_comp(), &slow_comp());
        let found: Vec<usize> = res.files.iter().map(|f| f.file_id).collect();
        assert_eq!(found, truth, "blamed files must match the speed model");
        assert_eq!(res.files[0].file_name, "math/divide.cpp");

        let sym_truth = predicted_slow_symbols(&p, &base_comp(), &slow_comp(), truth[0]);
        let found_syms: Vec<&str> = res.symbols.iter().map(|s| s.symbol.as_str()).collect();
        assert_eq!(found_syms, sym_truth);
        assert_eq!(found_syms, vec!["div_scan"]);

        // Every claim is statistical: overall + each finding carries a
        // CI at the configured level and a Slower verdict.
        let overall = res.overall.expect("overall claim");
        assert_eq!(overall.verdict(), Verdict::Slower);
        assert!(overall.ratio < 1.0);
        for f in &res.files {
            assert_eq!(f.report.verdict(), Verdict::Slower);
            assert!((f.report.ci.level - 0.95).abs() < 1e-12);
            assert!(f.effect > 0.0);
        }
        for s in &res.symbols {
            assert_eq!(s.report.verdict(), Verdict::Slower);
            assert!(s.report.ci.hi < 1.0, "whole CI below 1: {:?}", s.report.ci);
        }
    }

    #[test]
    fn statistically_identical_pair_is_no_regression() {
        let p = program();
        let base = Build::new(&p, base_comp());
        let cand = Build::tagged(&p, base_comp(), 1);
        let res = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5],
            &PerfConfig::new(),
            &flit_exec::ThreadsBackend::new(1),
        );
        assert_eq!(res.outcome, PerfOutcome::NoRegression);
        assert!(res.files.is_empty());
        let overall = res.overall.expect("overall claim");
        assert_eq!(overall.verdict(), Verdict::Inconclusive);
        // Only the two reference timings ran.
        assert_eq!(res.executions, 2);
    }

    #[test]
    fn faster_candidate_is_no_regression_with_faster_verdict() {
        let p = program();
        let base = Build::new(&p, base_comp());
        let cand = Build::tagged(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::NoPrecDiv]),
            1,
        );
        let res = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5],
            &PerfConfig::new(),
            &flit_exec::ThreadsBackend::new(1),
        );
        assert_eq!(res.outcome, PerfOutcome::NoRegression);
        assert_eq!(res.overall.unwrap().verdict(), Verdict::Faster);
    }

    #[test]
    fn result_is_byte_identical_at_any_job_count() {
        let p = program();
        let base = Build::new(&p, base_comp());
        let cand = Build::tagged(&p, slow_comp(), 1);
        let perf_counters = |trace: &TraceSink| -> Vec<(String, u64)> {
            trace
                .registry()
                .expect("enabled")
                .snapshot()
                .into_iter()
                .filter(|(name, _)| name.starts_with("perf."))
                .collect()
        };
        let t1 = TraceSink::enabled();
        let serial = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5, 0.25],
            &PerfConfig::new().with_trace(t1.clone()),
            &flit_exec::ThreadsBackend::new(1),
        );
        for jobs in [2, 8] {
            let tn = TraceSink::enabled();
            let par = perf_bisect(
                &base,
                &cand,
                &driver(),
                &[0.5, 0.25],
                &PerfConfig::new().with_trace(tn.clone()),
                &flit_exec::ThreadsBackend::new(jobs),
            );
            assert_eq!(par, serial, "jobs={jobs}");
            assert_eq!(perf_counters(&tn), perf_counters(&t1), "jobs={jobs}");
        }
    }

    #[test]
    fn sample_count_and_seed_are_part_of_the_protocol() {
        let p = program();
        let base = Build::new(&p, base_comp());
        let cand = Build::tagged(&p, slow_comp(), 1);
        let exec = flit_exec::ThreadsBackend::new(1);
        let a = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5],
            &PerfConfig::new().with_samples(16).with_seed(7),
            &exec,
        );
        let b = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5],
            &PerfConfig::new().with_samples(16).with_seed(7),
            &exec,
        );
        // Same protocol: bitwise-identical result.
        assert_eq!(a, b);
        // Different seed: same findings (the effect is real), different
        // sample statistics.
        let c = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5],
            &PerfConfig::new().with_samples(16).with_seed(8),
            &exec,
        );
        let ids = |r: &PerfBisectResult| r.files.iter().map(|f| f.file_id).collect::<Vec<_>>();
        assert_eq!(ids(&c), ids(&a));
        assert_ne!(
            c.overall.as_ref().unwrap().ratio,
            a.overall.as_ref().unwrap().ratio
        );
    }

    #[test]
    fn ledger_replays_preserve_findings_and_skip_recomputation() {
        let p = program();
        let base = Build::new(&p, base_comp());
        let cand = Build::tagged(&p, slow_comp(), 1);
        let exec = flit_exec::ThreadsBackend::new(2);
        let plain = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5, 0.25],
            &PerfConfig::new(),
            &exec,
        );
        let trace = TraceSink::enabled();
        let ledger = QueryLedger::new(p.fingerprint(), &trace);
        let handle = LedgerHandle::new(ledger.clone(), 1, "perf/pair");
        let first = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5, 0.25],
            &PerfConfig::new().with_ledger(handle.clone()),
            &exec,
        );
        assert_eq!(first, plain, "ledger must not change observables");
        let executed_once = ledger.stats().executed;
        let again = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5, 0.25],
            &PerfConfig::new().with_ledger(handle),
            &exec,
        );
        assert_eq!(again, plain);
        // The rerun answers its plan queries from the ledger.
        assert_eq!(ledger.stats().executed, executed_once);
    }
}

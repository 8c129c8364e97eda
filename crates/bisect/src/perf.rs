//! Performance bisect: root-cause *which file/symbol makes a
//! compilation slower*, with statistical regression gates.
//!
//! The variability hierarchy (§2.3) asks "which file changes the
//! *answer*"; this module asks "which file changes the *runtime*" — the
//! paper's §4 performance/reproducibility tradeoff turned into a
//! search. It runs the same File→Symbol walk ([`crate::hierarchy`])
//! with a timing metric: a query times a mixed binary under the seeded
//! noise model ([`flit_toolchain::perf`]) and scores it with Welch's
//! t-test against a reference timing, so a set is blamed only once its
//! slowdown is significant at the configured α. Every speedup claim the
//! result carries is a full [`SpeedupReport`] — point estimate,
//! confidence interval, verdict — never a bare ratio.
//!
//! The noise draws are common-mode across compilations (machine-wide
//! jitter), so binaries that differ only in untouched files time
//! bitwise-identically and the planner's exact `Test(all) ==
//! Test(found)` check holds. When the compilations disagree on noise
//! *width* (different opt levels), an apparent unique-error violation
//! is re-verified with a Welch test between the two binaries and
//! dropped when they are statistically indistinguishable.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use flit_program::build::Build;
use flit_program::model::Driver;
use flit_report::speedup::SpeedupReport;
use flit_report::stats::{welch_test, Verdict};
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compiler::CompilerKind;
use flit_trace::names::{counter as counter_names, phase};
use flit_trace::sink::TraceSink;

use flit_exec::ExecBackend;

use crate::hierarchy::{
    walk, Gate, HierarchicalConfig, Ledgered, Names, SearchOutcome, TestMetric,
};
use crate::ledger::{LedgerHandle, SearchKeys};
use crate::test_fn::TestError;
use crate::wire::{ExeRecipe, QueryPlane};

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
    /// Optional workflow-wide query ledger (see
    /// `HierarchicalConfig::ledger`: without one the search answers
    /// through a private ledger); perf queries live under distinct
    /// `perf*/` keys.
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

/// The timing metric: a query scores the Welch-gated slowdown effect of
/// its timing samples against the reference samples.
struct Timing<'a> {
    plane: &'a dyn QueryPlane,
    cfg: &'a PerfConfig,
    /// The baseline samples and the overall claim, once admitted.
    admitted: OnceLock<(Vec<f64>, SpeedupReport)>,
    /// The pic-overhead reference of each symbol-searched file.
    pic_refs: Mutex<BTreeMap<usize, Vec<f64>>>,
}

impl TestMetric for Timing<'_> {
    const NAMES: Names = Names {
        search: "perf bisect",
        reference_runs: counter_names::PERF_REFERENCE_RUNS,
        file_runs: counter_names::PERF_FILE_RUNS,
        gate_runs: counter_names::PERF_REFERENCE_RUNS,
        symbol_runs: counter_names::PERF_SYMBOL_RUNS,
        file_phase: phase::PERF_FILE,
        symbol_phase: phase::PERF_SYMBOL,
        file_drive: "perf-file",
        symbol_drive: "perf-symbol",
    };

    fn run(&self, recipe: &ExeRecipe) -> Result<(Vec<f64>, f64), TestError> {
        let c = self.cfg;
        let samples = self.plane.time_recipe(recipe, c.seed, c.samples)?;
        let total = samples.iter().sum();
        Ok((samples, total))
    }

    fn score(&self, out: &[f64], reference: &[f64]) -> Result<f64, TestError> {
        SpeedupReport::compare(out, reference, self.cfg.alpha)
            .map(|report| report.slowdown_effect())
            .ok_or_else(|| TestError::Crash("degenerate timing samples".into()))
    }

    fn reference_key(&self, keys: &SearchKeys) -> String {
        let c = self.cfg;
        keys.perf_reference(c.samples, c.alpha, c.seed)
    }

    fn file_key(&self, keys: &SearchKeys, label: &str, items: &[usize]) -> String {
        let c = self.cfg;
        keys.perf_file_query(label, items, c.samples, c.alpha, c.seed)
    }

    fn symbol_key(&self, keys: &SearchKeys, label: &str, file: usize, items: &[String]) -> String {
        let c = self.cfg;
        keys.perf_symbol_query(label, file, items, c.samples, c.alpha, c.seed)
    }

    /// Time the candidate's own binary (not ledgered) and go on only if
    /// the overall Welch test says it is slower.
    fn admit(&self, reference: &[f64]) -> (usize, Result<(), Option<String>>) {
        let candidate = match self.run(&ExeRecipe::Candidate) {
            Ok((samples, _)) => samples,
            Err(e) => {
                let runs = usize::from(matches!(e, TestError::Crash(_)));
                let why = format!("candidate reference failed: {}", e.into_crash_message());
                return (runs, Err(Some(why)));
            }
        };
        let Some(overall) = SpeedupReport::compare(&candidate, reference, self.cfg.alpha) else {
            let why = "degenerate timing samples (need samples >= 1 and positive runtimes)";
            return (1, Err(Some(why.into())));
        };
        count_verdict(&self.cfg.trace, overall.verdict());
        let slower = overall.verdict() == Verdict::Slower;
        let _ = self.admitted.set((reference.to_vec(), overall));
        (1, if slower { Ok(()) } else { Err(None) })
    }

    /// A file with exported symbols gets a pic-overhead reference: the
    /// empty-set symbol-mixed binary (the target file compiled `-fPIC`
    /// under the *baseline* build). Symbol queries compare against it,
    /// so the pic speed penalty cancels instead of being blamed.
    fn gate<'r>(
        &self,
        _: &Ledgered,
        _: &str,
        file: usize,
        symbols: &[String],
        _: &'r [f64],
    ) -> Result<Gate<'r>, TestError> {
        if symbols.is_empty() {
            return Ok(Gate::Skipped);
        }
        let items = vec![];
        let (samples, _) = self.run(&ExeRecipe::SymbolMixed { file, items })?;
        self.pic_refs.lock().insert(file, samples.clone());
        Ok(Gate::Open(Cow::Owned(samples)))
    }

    fn gate_failure(&self, e: TestError) -> String {
        format!("pic reference failed: {}", e.into_crash_message())
    }

    /// The violation stands only if the two binaries are statistically
    /// distinguishable.
    fn explains(&self, all: &ExeRecipe, found: &ExeRecipe) -> Option<bool> {
        let (Ok((all, _)), Ok((found, _))) = (self.run(all), self.run(found)) else {
            return Some(false);
        };
        let welch = welch_test(&all, &found, self.cfg.alpha);
        Some(welch.is_some_and(|w| w.verdict == Verdict::Inconclusive))
    }
}

fn count_verdict(trace: &TraceSink, verdict: Verdict) {
    let name = match verdict {
        Verdict::Faster => counter_names::PERF_VERDICTS_FASTER,
        Verdict::Slower => counter_names::PERF_VERDICTS_SLOWER,
        Verdict::Inconclusive => counter_names::PERF_VERDICTS_INCONCLUSIVE,
    };
    trace.counter(name).incr(1);
}

/// Run the performance bisect: confirm the candidate is statistically
/// slower than the baseline, then search files — and symbols within
/// found files — for where the slowdown lives. This is the `BisectAll`
/// walk of [`bisect_hierarchical`](crate::hierarchy::bisect_hierarchical)
/// under the timing metric. Independent Test queries fan out on
/// `backend`; the entire result (findings, reports, execution counts,
/// `perf.*` counters and spans) is byte-identical at any worker count
/// because answers fold in the serial planner order — and identical
/// again under a remote backend, because the seeded sample vectors
/// cross the wire bit-exactly.
pub fn perf_bisect(
    baseline: &Build,
    candidate: &Build,
    driver: &Driver,
    input: &[f64],
    cfg: &PerfConfig,
    backend: &dyn ExecBackend,
) -> PerfBisectResult {
    let walk_cfg = HierarchicalConfig {
        link_driver: cfg.link_driver,
        ctx: cfg.ctx.clone(),
        trace: cfg.trace.clone(),
        ledger: cfg.ledger.clone(),
        backend: cfg.backend.clone(),
        ..HierarchicalConfig::all()
    };
    let plane = walk_cfg.plane(baseline, candidate, driver, input);
    let metric = Timing {
        plane: &*plane,
        cfg,
        admitted: OnceLock::new(),
        pic_refs: Mutex::default(),
    };
    let res = walk(
        &metric, baseline, candidate, driver, input, &walk_cfg, backend,
    );

    // Every booked execution drew `samples` samples.
    cfg.trace
        .counter(counter_names::PERF_SAMPLES_DRAWN)
        .incr(res.executions as u64 * u64::from(cfg.samples));
    let admitted = metric.admitted.get();
    let base = admitted.map_or(&[][..], |(base, _)| base);
    let overall = admitted.map(|(_, overall)| overall.clone());
    let verdict = overall.as_ref().map(SpeedupReport::verdict);
    let mut out = PerfBisectResult {
        outcome: match res.outcome {
            SearchOutcome::Crashed(why) => PerfOutcome::Crashed(why),
            _ if verdict.is_some_and(|v| v != Verdict::Slower) => PerfOutcome::NoRegression,
            SearchOutcome::Completed => PerfOutcome::Completed,
            SearchOutcome::LinkStepOnly => PerfOutcome::LinkStepOnly,
            SearchOutcome::AssumptionViolated => PerfOutcome::AssumptionViolated,
        },
        overall,
        files: vec![],
        symbols: vec![],
        file_level_only: res.file_level_only,
        executions: res.executions,
        violations: res.violations,
    };
    // Attach the full statistical claim to every finding by re-timing
    // its singleton. The planner already ran each one, so this books no
    // executions.
    let claim = |recipe: ExeRecipe, reference: &[f64]| {
        let (samples, _) = metric.run(&recipe).ok()?;
        let report = SpeedupReport::compare(&samples, reference, cfg.alpha)?;
        count_verdict(&cfg.trace, report.verdict());
        Some(report)
    };
    let failed = |name: &str| PerfOutcome::Crashed(format!("singleton timing of `{name}` failed"));
    for f in res.files {
        let items = vec![f.file_id];
        let Some(report) = claim(ExeRecipe::FileMixed { items }, base) else {
            out.outcome = failed(&f.file_name);
            return out;
        };
        out.files.push(PerfFileFinding {
            file_id: f.file_id,
            file_name: f.file_name,
            effect: f.value,
            report,
        });
    }
    let pic_refs = metric.pic_refs.lock();
    for s in res.symbols {
        let (file, items) = (s.file_id, vec![s.symbol.clone()]);
        let Some(report) = claim(ExeRecipe::SymbolMixed { file, items }, &pic_refs[&file]) else {
            out.outcome = failed(&s.symbol);
            return out;
        };
        out.symbols.push(PerfSymbolFinding {
            symbol: s.symbol,
            file_id: s.file_id,
            effect: s.value,
            report,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::QueryLedger;
    use flit_program::kernel::Kernel;
    use flit_program::model::{Function, SimProgram, SourceFile, Visibility};
    use flit_toolchain::compilation::Compilation;
    use flit_toolchain::compiler::OptLevel;
    use flit_toolchain::flags::Switch;
    use flit_toolchain::perf::speed_factor;

    /// Files the deterministic speed model predicts slower under `cand`
    /// than under `base`: ground truth for validating `perf_bisect`
    /// (assumes the driver exercises every function, as the study drivers
    /// do).
    fn predicted_slow_files(
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
    fn predicted_slow_symbols(
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
        assert_eq!(res.outcome, PerfOutcome::Completed);
        assert!(res.violations.is_empty());

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
            &PerfConfig {
                samples: 16,
                seed: 7,
                ..PerfConfig::new()
            },
            &exec,
        );
        let b = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5],
            &PerfConfig {
                samples: 16,
                seed: 7,
                ..PerfConfig::new()
            },
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
            &PerfConfig {
                samples: 16,
                seed: 8,
                ..PerfConfig::new()
            },
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
        let plain_trace = TraceSink::enabled();
        let plain = perf_bisect(
            &base,
            &cand,
            &driver(),
            &[0.5, 0.25],
            &PerfConfig::new().with_trace(plain_trace.clone()),
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
            &PerfConfig::new()
                .with_trace(trace.clone())
                .with_ledger(handle.clone()),
            &exec,
        );
        assert_eq!(first, plain, "ledger must not change observables");
        // A search without a caller ledger answers through a private
        // one: its trace is the fresh-ledger trace, byte for byte.
        assert_eq!(
            trace.snapshot().to_jsonl(),
            plain_trace.snapshot().to_jsonl()
        );
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

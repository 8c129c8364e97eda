//! The dual-level File → Symbol search (§2.3).
//!
//! "We perform this Bisect algorithm on a dual-level hierarchy, first by
//! searching for the files where the compiler caused variability, and
//! then searching the functions within each found file."
//!
//! File Bisect's Test function links objects from the two compilations
//! per Figure 3 (left); Symbol Bisect recompiles the found file with
//! `-fPIC` — verifying variability survives the recompile — and links
//! two complementarily-weakened copies per Figure 3 (right). If `-fPIC`
//! removes the variability, "the search cannot go deeper; we must be
//! content with reporting the file containing the variability."
//!
//! Algorithm 1 is written over an arbitrary Test function (§2.2), so one
//! walk serves every Test metric: [`bisect_hierarchical`] runs it with
//! the user's `compare` ("which file changes the *answer*"), and
//! [`crate::perf`] with a timing metric ("which file changes the
//! *runtime*"). A metric supplies only what differs — its reference,
//! the per-file gate before a symbol plan, re-verification of a
//! unique-error violation, and its names; plans, oracles, ledger
//! routing, fold order, spans and crash bookkeeping exist once.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use flit_program::build::Build;
use flit_program::model::Driver;
use flit_toolchain::cache::BuildCtx;
use flit_toolchain::compiler::CompilerKind;
use flit_trace::names::{counter as counter_names, phase};
use flit_trace::sink::TraceSink;

use flit_exec::{run_on, ExecBackend, ExecError};

use crate::algo::{AssumptionViolation, BisectOutcome};
use crate::ledger::{LedgerHandle, QueryLedger, SearchKeys};
use crate::parallel::{drive_plans, emit_query_spans, SharedOracle, SpeculationScore};
use crate::planner::{Answer, BisectPlan, SearchMode};
use crate::test_fn::TestError;
use crate::wire::{ExeRecipe, LocalPlane, QueryPlane, RemotePlane};

/// A static prescreen of the hierarchical search space (built by
/// [`prescreen_for`](crate::prescreen_for) from `flit-absint`
/// certificates, consumed here):
/// speculation scores per file and per exported symbol, plus — for a
/// pruning search — the certified divergence bounds themselves.
///
/// Scores `> 0.0` mean "may vary"; missing entries mean "certified
/// invariant" (or, for a mixed-ABI pair, "nothing to rank"). The scores
/// seed the parallel drivers' speculative frontiers in descending score
/// order — answers only enter a plan through its answer table, so seeding never changes
/// found sets, traces, violations, or execution counts. A prescreen
/// prunes exactly when it carries [`certificates`]: the search space
/// then drops the `Invariant`-certified items, under a residual audit
/// that reports a dishonest certificate as a violation.
///
/// [`certificates`]: Prescreen::certificates
#[derive(Debug, Clone, Default)]
pub struct Prescreen {
    /// `file_id` → predicted-sensitivity score.
    pub file_priority: BTreeMap<usize, f64>,
    /// Exported symbol → predicted-sensitivity score.
    pub symbol_priority: BTreeMap<String, f64>,
    /// Certified divergence bounds from `flit-absint` backing a
    /// pruning search (`--prune certified`, `--lint prune`). When
    /// present the search space drops `Invariant`-certified items, a
    /// single residual audit per pruned level compares `Test(all)`
    /// with `Test(kept)` (the search's own first query), and every
    /// file-level finding is cross-checked against its certificate — a
    /// dishonest certificate surfaces as a structured violation, never
    /// as a silently dropped item. Certificates must have been computed
    /// for the same `(baseline, variable, link_driver)` the search
    /// uses.
    pub certificates: Option<flit_absint::PairCertificates>,
}

impl Prescreen {
    /// Score for a file (`0.0` = predicted invariant).
    pub(crate) fn file_score(&self, file_id: usize) -> f64 {
        self.file_priority.get(&file_id).copied().unwrap_or(0.0)
    }

    /// Score for a symbol (`0.0` = predicted invariant).
    pub(crate) fn symbol_score(&self, symbol: &str) -> f64 {
        self.symbol_priority.get(symbol).copied().unwrap_or(0.0)
    }
}

/// Prefixes of the violations that blame a certificate rather than the
/// search's own assumptions.
const CERTIFIED_AUDIT_FAILED: &str = "certified-prune audit failed";
const CERTIFIED_BOUND_VIOLATED: &str = "certified bound violated";

fn certified_audit_violation(level: &str, full: f64, kept: f64) -> String {
    format!(
        "{CERTIFIED_AUDIT_FAILED} at {level} level: Test(all)={full} != \
         Test(kept)={kept} (a certificate wrongly claimed Invariant for a \
         variability-inducing element)"
    )
}

fn certified_bound_violation(file: &str, cert: &flit_absint::Certificate, value: f64) -> String {
    format!(
        "{CERTIFIED_BOUND_VIOLATED} for file {file}: certificate {cert:?} \
         contradicted by Test = {value:e} (unsound certificate)"
    )
}

/// Zero-execution certificate cross-check: every file-level finding's
/// singleton Test value must respect its certified bound. (The symbol
/// level compares against a non-`-fPIC` reference, which is outside the
/// symbol certificates' model — symbol dishonesty is caught by the
/// residual audit instead.)
fn check_certified_bounds(
    certs: &flit_absint::PairCertificates,
    files: &[FileFinding],
    violations: &mut Vec<String>,
) {
    for f in files {
        let cert = certs.file(f.file_id);
        if cert.contradicted_by(f.value) {
            violations.push(certified_bound_violation(&f.file_name, &cert, f.value));
        }
    }
}

/// Configuration for a hierarchical search.
#[derive(Debug, Clone)]
pub struct HierarchicalConfig {
    /// The compiler driving the mixed links (FLiT uses a consistent
    /// driver and a common C++ standard library — §2.3).
    pub link_driver: CompilerKind,
    /// `Some(k)` runs `BisectBiggest` at both levels; `None` runs the
    /// verifying `BisectAll`.
    pub k: Option<usize>,
    /// Build context the search compiles and links through. The default
    /// ([`BuildCtx::uncached`]) rebuilds everything; pass a
    /// [`BuildCtx::cached`] handle to share objects and memoized links
    /// within — and across — searches.
    pub ctx: BuildCtx,
    /// Trace sink for per-level spans and execution counters (the
    /// paper's Tables 2/4 "number of runs"). Disabled by default.
    pub trace: TraceSink,
    /// Optional static prescreen from
    /// [`prescreen_for`](crate::prescreen_for): seeds speculative
    /// frontiers in predicted-sensitivity order and, when it carries
    /// certificates, removes `Invariant`-certified items from the search
    /// space under a residual audit.
    pub prescreen: Option<Prescreen>,
    /// Optional handle on a workflow-wide [`QueryLedger`]. Every Test
    /// query (reference run, file level, probes, symbol level) is
    /// answered through a ledger's single-flight table: this one —
    /// shared with the other searches handed it, and journaled when it
    /// carries a checkpoint journal — or, when `None`, a private ledger
    /// made for this one search on [`HierarchicalConfig::trace`]. All
    /// per-search observables (found sets, execution counts, seconds,
    /// `bisect.*` counters and spans) are byte-identical either way.
    /// Sharing is sound only when every search handed the same ledger
    /// uses the same pure `compare` metric, and when programs with equal
    /// fingerprints have equal bodies: [`SimProgram::fingerprint`] leaves
    /// function bodies out, so a clean tree and its fault-injected
    /// copies must never share a ledger.
    ///
    /// [`QueryLedger`]: crate::ledger::QueryLedger
    /// [`SimProgram::fingerprint`]: flit_program::model::SimProgram::fingerprint
    pub ledger: Option<LedgerHandle>,
    /// Optional execution backend deciding *where* Test queries
    /// evaluate. `None` (and any backend whose
    /// [`ExecBackend::is_remote`] is false) evaluates in-process via a
    /// `LocalPlane`; a remote backend (the `process` coordinator)
    /// ships every query through [`ExecBackend::dispatch`] via a
    /// `RemotePlane`. Found sets, execution counts, `bisect.*`
    /// counters/spans, and ledger accounting are byte-identical either
    /// way; only the `build.*` counters move into the workers.
    pub backend: Option<Arc<dyn ExecBackend>>,
}

impl HierarchicalConfig {
    /// BisectAll through a GNU-driven link.
    pub fn all() -> Self {
        HierarchicalConfig {
            link_driver: CompilerKind::Gcc,
            k: None,
            ctx: BuildCtx::uncached(),
            trace: TraceSink::disabled(),
            prescreen: None,
            ledger: None,
            backend: None,
        }
    }

    /// BisectBiggest(k) through a GNU-driven link.
    pub fn biggest(k: usize) -> Self {
        HierarchicalConfig {
            k: Some(k),
            ..HierarchicalConfig::all()
        }
    }

    /// Run this search through the given build context.
    pub fn with_ctx(mut self, ctx: BuildCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Record this search's spans and execution counters into `trace`.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Attach a static prescreen (see [`Prescreen`]).
    pub fn with_prescreen(mut self, prescreen: Prescreen) -> Self {
        self.prescreen = Some(prescreen);
        self
    }

    /// Answer this search's Test queries through a shared query ledger
    /// (see [`HierarchicalConfig::ledger`]).
    pub fn with_ledger(mut self, ledger: LedgerHandle) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Evaluate this search's Test queries through an execution
    /// backend (see [`HierarchicalConfig::backend`]).
    pub fn with_backend(mut self, backend: Arc<dyn ExecBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The query plane this configuration evaluates through.
    pub(crate) fn plane<'a>(
        &'a self,
        baseline: &'a Build<'a>,
        variable: &'a Build<'a>,
        driver: &'a Driver,
        input: &'a [f64],
    ) -> Box<dyn QueryPlane + 'a> {
        match &self.backend {
            Some(b) if b.is_remote() => Box::new(RemotePlane::new(
                b.clone(),
                baseline,
                variable,
                driver,
                input,
                self.link_driver,
            )),
            _ => Box::new(LocalPlane {
                baseline,
                variable,
                driver,
                input,
                link_driver: self.link_driver,
                ctx: &self.ctx,
            }),
        }
    }
}

/// The canonical ledger keys of one search task (see [`SearchKeys`]).
fn search_keys(
    baseline: &Build,
    variable: &Build,
    driver: &Driver,
    input: &[f64],
    cfg: &HierarchicalConfig,
) -> SearchKeys {
    SearchKeys::new(
        baseline.program.fingerprint(),
        variable.program.fingerprint(),
        &driver.name,
        input,
        &baseline.compilation.label(),
        &format!("{:?}", cfg.link_driver),
    )
}

/// A file-level finding.
#[derive(Debug, Clone, PartialEq)]
pub struct FileFinding {
    /// Index in the program's file list.
    pub file_id: usize,
    /// File name.
    pub file_name: String,
    /// Singleton Test value of this file.
    pub value: f64,
}

/// A symbol-level finding.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolFinding {
    /// The function's symbol name.
    pub symbol: String,
    /// The file defining it.
    pub file_id: usize,
    /// Singleton Test value of this symbol.
    pub value: f64,
}

/// How the search ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchOutcome {
    /// Both levels completed.
    Completed,
    /// The whole variable file set tested clean through the bisection
    /// link: the original variability came from the *link step* itself
    /// (the Intel vendor-math substitution on MFEM examples 4, 5, 9, 10
    /// and 15).
    LinkStepOnly,
    /// A mixed executable crashed (Table 2's File Bisect failures).
    Crashed(String),
    /// A dynamic-verification assertion failed; results may be
    /// incomplete (the user is notified, §2.4).
    AssumptionViolated,
}

/// Result of [`bisect_hierarchical`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalResult {
    /// How the search ended.
    pub outcome: SearchOutcome,
    /// Variability-inducing files.
    pub files: Vec<FileFinding>,
    /// Variability-inducing symbols across all searched files.
    pub symbols: Vec<SymbolFinding>,
    /// Files whose variability disappeared under the `-fPIC` probe
    /// (file-level blame only).
    pub file_level_only: Vec<usize>,
    /// Total program executions (file level + probes + symbol level,
    /// including the baseline reference run).
    pub executions: usize,
    /// Assumption violations from the verifying searches.
    pub violations: Vec<String>,
}

impl HierarchicalResult {
    /// Did the search complete with full dynamic verification?
    pub fn verified_complete(&self) -> bool {
        self.outcome == SearchOutcome::Completed && self.violations.is_empty()
    }

    /// The violations that blame a certificate — a failed residual
    /// audit or a contradicted bound — as opposed to the search's own
    /// assumption violations, which an unpruned search reports too.
    pub fn certificate_violations(&self) -> impl Iterator<Item = &String> {
        self.violations.iter().filter(|v| {
            v.starts_with(CERTIFIED_AUDIT_FAILED) || v.starts_with(CERTIFIED_BOUND_VIOLATED)
        })
    }

    /// Library-level blame (the coarsest level of Figure 1's "Library,
    /// Source, and Function Blame"): found files grouped by their
    /// top-level directory, each with the summed Test magnitude.
    pub fn library_blame(&self) -> Vec<(String, f64)> {
        let mut groups: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
        for f in &self.files {
            let lib = f
                .file_name
                .split('/')
                .next()
                .unwrap_or(&f.file_name)
                .to_string();
            *groups.entry(lib).or_default() += f.value;
        }
        let mut v: Vec<(String, f64)> = groups.into_iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }
}

impl HierarchicalResult {
    /// End the search early with `outcome = Crashed(message)`, keeping
    /// everything accumulated so far.
    fn crashed(mut self, message: String) -> Self {
        self.outcome = SearchOutcome::Crashed(message);
        self
    }
}

/// The residual audit guarding a certified-pruned level: the kept
/// space must reproduce the *unpruned* space's Test value (`all`,
/// canonical), or a certificate hid a real culprit. Comparing with
/// `Test(kept)` rather than `Test(found)` blames only the prune, never
/// a failure of the search's own unique-error assumption (which the
/// search reports separately). Every leg is booked into the level's
/// `(executions, seconds)` tally whether or not the oracle serves it
/// from memory.
fn certified_audit<I>(
    level: &str,
    oracle: &SharedOracle<'_, I>,
    all: &[I],
    kept: &[I],
    outcome: &BisectOutcome<I>,
    trace: &TraceSink,
    tally: &mut (usize, f64),
) -> Result<Option<String>, TestError> {
    let mut eval = |items: &[I]| {
        tally.0 += 1;
        let answer = oracle.eval(items);
        if let Ok((_, seconds)) = &answer {
            tally.1 += *seconds;
        }
        answer.map(|(value, _)| value)
    };
    trace.counter(counter_names::ABSINT_PRUNE_AUDITS).incr(1);
    let full = eval(all);
    // `BisectAll`'s first query is `Test(kept)`; `BisectBiggest` keeps
    // no trace, so it gets one booked fallback query.
    let kept_v = match outcome.trace.first() {
        Some(row) => Ok(row.value),
        None => eval(kept),
    };
    let (full, kept_v) = (full?, kept_v?);
    let agree = full == kept_v || (full.is_nan() && kept_v.is_nan());
    Ok((!agree).then(|| certified_audit_violation(level, full, kept_v)))
}

/// A search's ledger handle with its canonical keys.
pub(crate) type Ledgered = (LedgerHandle, SearchKeys);

/// One level's oracle: answers route through the search's ledger under
/// the key `key` digests.
fn level_oracle<'f, I>(
    raw: impl Fn(&[I]) -> Answer + Sync + 'f,
    (handle, keys): &Ledgered,
    key: impl Fn(&SearchKeys, &[I]) -> String + Sync + 'f,
) -> SharedOracle<'f, I> {
    let keys = keys.clone();
    SharedOracle::new(raw, handle.clone(), move |items| key(&keys, items))
}

/// The crash reason of a search whose backend failed: a panicking Test
/// or an exhausted retry budget.
fn exec_crash_message(search: &str, e: ExecError) -> String {
    match e {
        ExecError::WorkerPanicked { message, .. } => format!("{search} worker panicked: {message}"),
        ExecError::Backend { message } => format!("{search} backend failed: {message}"),
    }
}

/// What a metric's walk is recorded as: its name in backend crash
/// messages, its run counters, the span phases of its two levels, and
/// the label suffixes of their drives.
pub(crate) struct Names {
    pub search: &'static str,
    pub reference_runs: &'static str,
    pub file_runs: &'static str,
    pub gate_runs: &'static str,
    pub symbol_runs: &'static str,
    pub file_phase: &'static str,
    pub symbol_phase: &'static str,
    pub file_drive: &'static str,
    pub symbol_drive: &'static str,
}

/// A metric's gate on a found file: skipped (not run) or closed, the file
/// stays file-level-only; open, it carries its symbol queries' reference.
pub(crate) enum Gate<'r> {
    Skipped,
    Closed,
    Open(Cow<'r, [f64]>),
}

/// The Test metric of the File→Symbol walk: a query runs one executable
/// and scores its output against a reference (0 = no effect). The other
/// items are the steps where metrics differ; their defaults are the
/// variability search's.
pub(crate) trait TestMetric: Sync {
    /// The names this metric's walk is recorded under.
    const NAMES: Names = Names {
        search: "bisect",
        reference_runs: counter_names::BISECT_REFERENCE_RUNS,
        file_runs: counter_names::BISECT_FILE_RUNS,
        gate_runs: counter_names::BISECT_PROBE_RUNS,
        symbol_runs: counter_names::BISECT_SYMBOL_RUNS,
        file_phase: phase::BISECT_FILE,
        symbol_phase: phase::BISECT_SYMBOL,
        file_drive: "file",
        symbol_drive: "symbol",
    };

    /// Run one executable: its output (or timing samples) and seconds.
    fn run(&self, recipe: &ExeRecipe) -> Result<(Vec<f64>, f64), TestError>;

    /// Score a run's output against a reference.
    fn score(&self, out: &[f64], reference: &[f64]) -> Result<f64, TestError>;

    /// One Test query: run `recipe` and score it against `reference`.
    fn query(&self, recipe: &ExeRecipe, reference: &[f64]) -> Result<(f64, f64), TestError> {
        let (out, seconds) = self.run(recipe)?;
        Ok((self.score(&out, reference)?, seconds))
    }

    /// Ledger keys of the reference run, a file-level query, and a
    /// symbol-level query within `file`.
    fn reference_key(&self, keys: &SearchKeys) -> String {
        keys.reference()
    }

    fn file_key(&self, keys: &SearchKeys, label: &str, items: &[usize]) -> String {
        keys.file_query(label, items)
    }

    fn symbol_key(&self, keys: &SearchKeys, label: &str, file: usize, items: &[String]) -> String {
        keys.symbol_query(label, file, items)
    }

    /// The step after the baseline `reference`: its booked runs, and
    /// whether the search goes on (`Err(Some(why))` crashes it,
    /// `Err(None)` ends it with nothing to search).
    fn admit(&self, _reference: &[f64]) -> (usize, Result<(), Option<String>>) {
        (0, Ok(()))
    }

    /// The gate before the symbol plan of found `file` (which exports
    /// `symbols`): by default the `-fPIC` probe of §2.3.
    fn gate<'r>(
        &self,
        (handle, keys): &Ledgered,
        variable: &str,
        file: usize,
        _symbols: &[String],
        reference: &'r [f64],
    ) -> Result<Gate<'r>, TestError> {
        let (value, _) = handle.eval_score(&keys.probe(variable, file), || {
            self.query(&ExeRecipe::PicProbe { file }, reference)
        })?;
        if value == 0.0 {
            return Ok(Gate::Closed);
        }
        Ok(Gate::Open(Cow::Borrowed(reference)))
    }

    /// The crash message of a failed gate.
    fn gate_failure(&self, e: TestError) -> String {
        match e {
            TestError::Link(e) => format!("pic probe link: {e}"),
            TestError::Crash(s) => s,
        }
    }

    /// Re-verify a level's unique-error violation by running its `all` and
    /// `found` executables (`Some(_)` books both): `Some(true)` drops it.
    fn explains(&self, _all: &ExeRecipe, _found: &ExeRecipe) -> Option<bool> {
        None
    }
}

/// The variability metric: outputs run on a query plane, scored by the
/// user's `compare` against the baseline output.
struct Compare<'a>(
    &'a dyn QueryPlane,
    &'a (dyn Fn(&[f64], &[f64]) -> f64 + Sync),
);

impl TestMetric for Compare<'_> {
    fn run(&self, recipe: &ExeRecipe) -> Result<(Vec<f64>, f64), TestError> {
        self.0.run_recipe(recipe)
    }

    fn score(&self, out: &[f64], reference: &[f64]) -> Result<f64, TestError> {
        Ok((self.1)(reference, out))
    }
}

/// A level's violations as messages, minus a unique-error violation the
/// metric explains away by re-verifying it on the searched space
/// `kept`. The re-verification's runs go into the level's `tally`.
fn unexplained<I: Clone + Ord>(
    metric: &impl TestMetric,
    outcome: &BisectOutcome<I>,
    kept: &[I],
    recipe: impl Fn(Vec<I>) -> ExeRecipe,
    name: impl Fn(&I) -> String,
    tally: &mut (usize, f64),
) -> Vec<String> {
    let unique = |v: &AssumptionViolation<I>| matches!(v, AssumptionViolation::UniqueError { .. });
    let explained = outcome.violations.iter().any(unique) && {
        let mut found: Vec<I> = outcome.found.iter().map(|(i, _)| i.clone()).collect();
        found.sort();
        let verdict = metric.explains(&recipe(kept.to_vec()), &recipe(found));
        tally.0 += if verdict.is_some() { 2 } else { 0 };
        verdict == Some(true)
    };
    outcome
        .violations
        .iter()
        .filter(|v| !(explained && unique(v)))
        .map(|v| v.describe(&name))
        .collect()
}

/// Run the full hierarchical search.
///
/// * `baseline` / `variable` — the two builds (identical program
///   structure; different compilations and/or different bodies, as in
///   the injection study).
/// * `driver` — the test driver (entry points and input scheme).
/// * `input` — the FLiT test input vector.
/// * `compare` — the user's comparison metric
///   (`||baseline − actual||₂` in the MFEM study). `Sync` because
///   queries may evaluate on any worker.
/// * `exec` — the backend independent Test queries fan out on.
///   `ThreadsBackend::new(1)` is the serial search: every query runs
///   inline, exactly the ones Algorithm 1 asks for, with no speculation.
///
/// Each stage is *decided* by the planner and *folded* in the serial
/// order: the file-level search runs as a frontier-driven plan (both
/// halves of every split, plus speculation up to the backend width,
/// evaluated through a [`SharedOracle`] over the search's ledger); the
/// `-fPIC` probes of all found files run as one wave; the per-file
/// symbol searches run as *joint* plans sharing the backend. The result —
/// outcome, findings, execution counts, violations, and the `bisect.*`
/// spans/counters — is byte-identical at any worker count; only the
/// `exec.*` scheduling telemetry depends on the width. With a remote
/// [`HierarchicalConfig::backend`] each query evaluates in a worker
/// subprocess via `RemotePlane`.
///
/// A panicking Test surfaces as [`SearchOutcome::Crashed`], as does a
/// backend whose retry budget is exhausted.
pub fn bisect_hierarchical(
    baseline: &Build,
    variable: &Build,
    driver: &Driver,
    input: &[f64],
    compare: &(dyn Fn(&[f64], &[f64]) -> f64 + Sync),
    cfg: &HierarchicalConfig,
    exec: &dyn ExecBackend,
) -> HierarchicalResult {
    let plane = cfg.plane(baseline, variable, driver, input);
    let metric = Compare(&*plane, compare);
    walk(&metric, baseline, variable, driver, input, cfg, exec)
}

/// The File→Symbol walk of [`bisect_hierarchical`] under any Test
/// metric: reference, file level, one wave of per-file gates, joint
/// symbol plans, and the fold in file order.
pub(crate) fn walk<M: TestMetric>(
    metric: &M,
    baseline: &Build,
    variable: &Build,
    driver: &Driver,
    input: &[f64],
    cfg: &HierarchicalConfig,
    exec: &dyn ExecBackend,
) -> HierarchicalResult {
    let names = &M::NAMES;
    let mut res = HierarchicalResult {
        outcome: SearchOutcome::Completed,
        files: vec![],
        symbols: vec![],
        file_level_only: vec![],
        executions: 0,
        violations: vec![],
    };
    // One search = one file-level span plus one symbol-level span per
    // searched file, labelled by the (driver, variable compilation)
    // pair that identifies the search.
    let search = format!("{}/{}", driver.name, variable.compilation.label());
    let variable_label = variable.compilation.label();
    let handle = cfg.ledger.clone().unwrap_or_else(|| {
        let private = QueryLedger::new(baseline.program.fingerprint(), &cfg.trace);
        LedgerHandle::new(private, 1, search.clone())
    });
    let ledger: Ledgered = (handle, search_keys(baseline, variable, driver, input, cfg));
    // Every search reports its gate counter, even one that ends early.
    cfg.trace.counter(names.gate_runs);
    let book = |res: &mut HierarchicalResult, counter: &str, runs: usize| {
        res.executions += runs;
        cfg.trace.counter(counter).incr(runs as u64);
    };

    // Reference run under the trusted baseline build. The answer (the
    // full output vector) may be served by another search or a journal
    // replay; the accounting is identical either way, and a failed
    // baseline *link* is not an execution.
    let (handle, keys) = &ledger;
    let reference = handle.eval_output(&metric.reference_key(keys), || {
        metric.run(&ExeRecipe::Baseline)
    });
    if !matches!(reference, Err(TestError::Link(_))) {
        book(&mut res, names.reference_runs, 1);
    }
    let base_out = match reference {
        Ok((out, _)) => out,
        Err(TestError::Link(e)) => return res.crashed(format!("baseline link failed: {e}")),
        Err(TestError::Crash(e)) => return res.crashed(format!("baseline run failed: {e}")),
    };
    let (runs, admitted) = metric.admit(&base_out);
    book(&mut res, names.reference_runs, runs);
    match admitted {
        Ok(()) => {}
        Err(Some(why)) => return res.crashed(why),
        Err(None) => return res,
    }
    let mode = match cfg.k {
        None => SearchMode::All,
        Some(k) => SearchMode::Biggest(k),
    };

    // ---- File Bisect ----
    let certs = cfg.prescreen.as_ref().and_then(|p| p.certificates.as_ref());
    let all_file_ids: Vec<usize> = (0..baseline.program.files.len()).collect();
    let file_ids: Vec<usize> = match certs {
        Some(c) => {
            let kept: Vec<usize> = all_file_ids
                .iter()
                .copied()
                .filter(|id| !c.file(*id).prunable())
                .collect();
            cfg.trace
                .counter(counter_names::ABSINT_PRUNED_FILES)
                .incr((all_file_ids.len() - kept.len()) as u64);
            kept
        }
        None => all_file_ids.clone(),
    };
    let file_raw = |items: &[usize]| {
        let items = items.to_vec();
        metric.query(&ExeRecipe::FileMixed { items }, &base_out)
    };
    let file_oracle = level_oracle(file_raw, &ledger, |keys, items| {
        metric.file_key(keys, &variable_label, items)
    });
    let file_score = |items: &[usize]| -> f64 {
        let p = cfg.prescreen.as_ref().expect("seed implies a prescreen");
        items.iter().map(|i| p.file_score(*i)).fold(0.0, f64::max)
    };
    let file_seed: Option<SpeculationScore<'_, usize>> = cfg
        .prescreen
        .as_ref()
        .map(|_| &file_score as SpeculationScore<'_, usize>);
    let file_label = format!("{search}/{}", names.file_drive);
    let file_result = match drive_plans(
        &mut [BisectPlan::new(&file_ids, mode)],
        &[&file_oracle],
        exec,
        &cfg.trace,
        &file_label,
        file_seed,
    ) {
        Ok(mut results) => results.pop().expect("one file-level plan"),
        Err(e) => return res.crashed(exec_crash_message(names.search, e)),
    };
    // Counters and the level span cover the executions the serial
    // algorithm performs — on failures too — never the speculation.
    let mut tally = match &file_result {
        Ok(p) => (p.outcome.executions, p.seconds),
        Err(f) => (f.executions, f.seconds),
    };
    let guard = match &file_result {
        Ok(plan) if file_ids.len() < all_file_ids.len() => certified_audit(
            "file",
            &file_oracle,
            &all_file_ids,
            &file_ids,
            &plan.outcome,
            &cfg.trace,
            &mut tally,
        ),
        _ => Ok(None),
    };
    let file_name = |id: &usize| baseline.program.files[*id].name.clone();
    let violations = match &file_result {
        Ok(plan) => unexplained(
            metric,
            &plan.outcome,
            &file_ids,
            |items| ExeRecipe::FileMixed { items },
            file_name,
            &mut tally,
        ),
        Err(_) => vec![],
    };
    book(&mut res, names.file_runs, tally.0);
    cfg.trace
        .span(names.file_phase, search.clone(), tally.0 as u64, tally.1);
    let (file_plan, guard_violation) = match (file_result, guard) {
        (Ok(plan), Ok(violation)) => (plan, violation),
        (Err(failure), _) => return res.crashed(failure.error.into_crash_message()),
        (_, Err(e)) => return res.crashed(e.into_crash_message()),
    };
    emit_query_spans(&cfg.trace, &file_label, &file_plan);
    res.violations.extend(violations);
    res.violations.extend(guard_violation);
    res.files = file_plan
        .outcome
        .found
        .iter()
        .map(|(id, value)| FileFinding {
            file_id: *id,
            file_name: file_name(id),
            value: *value,
        })
        .collect();
    if let Some(c) = certs {
        check_certified_bounds(c, &res.files, &mut res.violations);
    }

    if res.files.is_empty() {
        // Nothing found and nothing flagged: the mixed link cannot
        // reproduce the variability — link-step blame.
        res.outcome = if res.violations.is_empty() {
            SearchOutcome::LinkStepOnly
        } else {
            SearchOutcome::AssumptionViolated
        };
        return res;
    }

    // ---- Gates (the `-fPIC` probes of the variability search): one
    // wave over all found files.
    let gates = match run_on(exec, res.files.len(), |i| {
        let fid = res.files[i].file_id;
        let symbols = baseline.program.exported_symbols_of_file(fid);
        metric.gate(&ledger, &variable_label, fid, &symbols, &base_out)
    }) {
        Ok(gates) => gates,
        Err(e) => return res.crashed(exec_crash_message(names.search, e)),
    };

    // ---- Symbol Bisect: joint plans for every candidate file ----
    // Candidates are chosen optimistically (gate open, exported symbols
    // present); whether a candidate's result is *consumed* is decided
    // by the fold below, which replicates the serial walk. The walk
    // ends at the first failed gate, so no file after it is a
    // candidate.
    struct Candidate<'r> {
        fid: usize,
        all: Vec<String>,
        kept: Vec<String>,
        reference: Cow<'r, [f64]>,
    }
    let candidates: Vec<Candidate<'_>> = res
        .files
        .iter()
        .zip(&gates)
        .take_while(|(_, gate)| gate.is_ok())
        .filter_map(|(finding, gate)| {
            let Ok(Gate::Open(reference)) = gate else {
                return None;
            };
            let all = baseline.program.exported_symbols_of_file(finding.file_id);
            // Under pruning the plan searches only the kept symbols. A
            // fully-pruned file still gets a plan so the fold has a
            // result to consume.
            let kept = match certs {
                Some(c) => all
                    .iter()
                    .filter(|s| !c.symbol(s).prunable())
                    .cloned()
                    .collect(),
                None => all.clone(),
            };
            (!all.is_empty()).then(|| Candidate {
                fid: finding.file_id,
                all,
                kept,
                reference: reference.clone(),
            })
        })
        .collect();
    let variable_label = &variable_label;
    let sym_oracles: Vec<SharedOracle<'_, String>> = candidates
        .iter()
        .map(|c| {
            let (fid, reference) = (c.fid, &c.reference);
            let raw = move |items: &[String]| {
                let (file, items) = (fid, items.to_vec());
                metric.query(&ExeRecipe::SymbolMixed { file, items }, reference)
            };
            level_oracle(raw, &ledger, move |keys, items| {
                metric.symbol_key(keys, variable_label, fid, items)
            })
        })
        .collect();
    let mut sym_plans: Vec<BisectPlan<String>> = candidates
        .iter()
        .map(|c| BisectPlan::new(&c.kept, mode))
        .collect();
    let oracle_refs: Vec<&SharedOracle<'_, String>> = sym_oracles.iter().collect();
    let sym_score = |items: &[String]| -> f64 {
        let p = cfg.prescreen.as_ref().expect("seed implies a prescreen");
        items.iter().map(|s| p.symbol_score(s)).fold(0.0, f64::max)
    };
    let sym_seed: Option<SpeculationScore<'_, String>> = cfg
        .prescreen
        .as_ref()
        .map(|_| &sym_score as SpeculationScore<'_, String>);
    let sym_results = match drive_plans(
        &mut sym_plans,
        &oracle_refs,
        exec,
        &cfg.trace,
        &format!("{search}/{}", names.symbol_drive),
        sym_seed,
    ) {
        Ok(results) => results,
        Err(e) => return res.crashed(exec_crash_message(names.search, e)),
    };

    // ---- Fold in file order: replicate the serial walk byte-for-byte,
    // discarding any speculative results the serial path never reaches.
    // Candidates are in file order, so each file's plan (if any) is the
    // next one.
    let mut searched = candidates
        .iter()
        .zip(&sym_oracles)
        .zip(sym_results)
        .peekable();
    for (i, gate) in gates.into_iter().enumerate() {
        let fid = res.files[i].file_id;
        // A skipped gate, or a failed gate *link*, is not an execution.
        if !matches!(gate, Ok(Gate::Skipped) | Err(TestError::Link(_))) {
            book(&mut res, names.gate_runs, 1);
        }
        if let Err(e) = gate {
            return res.crashed(metric.gate_failure(e));
        }
        let Some(((c, oracle), sym_result)) = searched.next_if(|((c, _), _)| c.fid == fid) else {
            // Gate not open, or no exported symbols to interpose.
            res.file_level_only.push(fid);
            continue;
        };
        if certs.is_some() {
            cfg.trace
                .counter(counter_names::ABSINT_PRUNED_SYMBOLS)
                .incr((c.all.len() - c.kept.len()) as u64);
        }
        let mut tally = match &sym_result {
            Ok(p) => (p.outcome.executions, p.seconds),
            Err(f) => (f.executions, f.seconds),
        };
        let guard = match &sym_result {
            // `all` is sorted, i.e. canonical.
            Ok(plan) if c.kept.len() < c.all.len() => certified_audit(
                "symbol",
                oracle,
                &c.all,
                &c.kept,
                &plan.outcome,
                &cfg.trace,
                &mut tally,
            ),
            _ => Ok(None),
        };
        let violations = match &sym_result {
            Ok(plan) => unexplained(
                metric,
                &plan.outcome,
                &c.kept,
                |items| ExeRecipe::SymbolMixed { file: fid, items },
                Clone::clone,
                &mut tally,
            ),
            Err(_) => vec![],
        };
        book(&mut res, names.symbol_runs, tally.0);
        let sym_label = format!("{search}/{}", baseline.program.files[fid].name);
        cfg.trace.span(
            names.symbol_phase,
            sym_label.clone(),
            tally.0 as u64,
            tally.1,
        );
        let (plan, guard_violation) = match (sym_result, guard) {
            (Ok(plan), Ok(violation)) => (plan, violation),
            (Err(failure), _) => return res.crashed(failure.error.into_crash_message()),
            (_, Err(e)) => return res.crashed(e.into_crash_message()),
        };
        emit_query_spans(&cfg.trace, &sym_label, &plan);
        res.violations.extend(violations);
        res.violations.extend(guard_violation);
        if plan.outcome.found.is_empty() {
            // Exported-symbol interposition cannot reproduce it
            // (e.g. variability lives in statics/inlined code).
            res.file_level_only.push(fid);
        }
        res.symbols.extend(
            plan.outcome
                .found
                .into_iter()
                .map(|(symbol, value)| SymbolFinding {
                    symbol,
                    file_id: fid,
                    value,
                }),
        );
    }

    res.outcome = if res.violations.is_empty() {
        SearchOutcome::Completed
    } else {
        SearchOutcome::AssumptionViolated
    };
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_fpsim::ulp::l2_diff;
    use flit_program::kernel::Kernel;
    use flit_program::model::{Function, SimProgram, SourceFile};
    use flit_toolchain::compilation::Compilation;
    use flit_toolchain::compiler::OptLevel;
    use flit_toolchain::flags::Switch;

    /// A program with known blame structure: files 1 and 3 contain
    /// env-sensitive functions, the rest are benign.
    fn program() -> SimProgram {
        SimProgram::new(
            "hier-test",
            vec![
                SourceFile::new(
                    "io.cpp",
                    vec![
                        Function::exported("io_read", Kernel::Benign { flavor: 0 }),
                        Function::exported("io_write", Kernel::Benign { flavor: 1 }),
                    ],
                ),
                SourceFile::new(
                    "assemble.cpp",
                    vec![
                        Function::exported("assemble_mass", Kernel::DotMix { stride: 3 }),
                        Function::exported("assemble_aux", Kernel::Benign { flavor: 2 }),
                    ],
                ),
                SourceFile::new(
                    "mesh.cpp",
                    vec![Function::exported(
                        "mesh_permute",
                        Kernel::Benign { flavor: 3 },
                    )],
                ),
                SourceFile::new(
                    "solver.cpp",
                    vec![
                        Function::exported("solver_norm", Kernel::NormScale),
                        Function::exported("solver_post", Kernel::Benign { flavor: 4 }),
                    ],
                ),
            ],
        )
    }

    fn driver() -> Driver {
        Driver::new(
            "hier",
            vec![
                "io_read".into(),
                "assemble_mass".into(),
                "assemble_aux".into(),
                "mesh_permute".into(),
                "solver_norm".into(),
                "solver_post".into(),
                "io_write".into(),
            ],
            2,
            64,
        )
    }

    fn l2_compare(a: &[f64], b: &[f64]) -> f64 {
        l2_diff(a, b)
    }

    fn unsafe_variable() -> Compilation {
        Compilation::new(
            flit_toolchain::compiler::CompilerKind::Gcc,
            OptLevel::O3,
            vec![Switch::Avx2FmaUnsafe],
        )
    }

    /// Search the fixture against `variable` on a threads backend of
    /// width `jobs` (1 = the serial search).
    fn search(
        p: &SimProgram,
        variable: Compilation,
        input: &[f64],
        cfg: &HierarchicalConfig,
        jobs: usize,
    ) -> HierarchicalResult {
        let base = Build::new(p, Compilation::baseline());
        let var = Build::tagged(p, variable, 1);
        bisect_hierarchical(
            &base,
            &var,
            &driver(),
            input,
            &l2_compare,
            cfg,
            &flit_exec::ThreadsBackend::new(jobs),
        )
    }

    #[test]
    fn finds_both_files_and_their_symbols() {
        let p = program();
        let res = search(
            &p,
            unsafe_variable(),
            &[0.5, 0.25],
            &HierarchicalConfig::all(),
            1,
        );
        assert_eq!(
            res.outcome,
            SearchOutcome::Completed,
            "{:?}",
            res.violations
        );
        let mut file_ids: Vec<usize> = res.files.iter().map(|f| f.file_id).collect();
        file_ids.sort();
        assert_eq!(file_ids, vec![1, 3], "blamed files");
        let mut syms: Vec<&str> = res.symbols.iter().map(|s| s.symbol.as_str()).collect();
        syms.sort();
        assert_eq!(syms, vec!["assemble_mass", "solver_norm"]);
        assert!(res.verified_complete());
        // O(k log N) scale: a handful of file tests + per-file symbol
        // searches; far below exhaustive.
        assert!(res.executions < 40, "executions = {}", res.executions);
    }

    #[test]
    fn biggest_k1_finds_the_dominant_file_only() {
        let p = program();
        let res = search(
            &p,
            unsafe_variable(),
            &[0.5, 0.25],
            &HierarchicalConfig::biggest(1),
            1,
        );
        assert_eq!(res.outcome, SearchOutcome::Completed);
        assert_eq!(res.files.len(), 1);
        assert!(res.symbols.len() <= 1);
    }

    #[test]
    fn clean_compilation_is_link_step_only_shape() {
        // Baseline vs plain -O3 (value-safe): nothing to find; the
        // search reports that the mixed link shows no variability.
        let p = program();
        let clean = Compilation::new(
            flit_toolchain::compiler::CompilerKind::Gcc,
            OptLevel::O3,
            vec![],
        );
        let res = search(&p, clean, &[0.5], &HierarchicalConfig::all(), 1);
        assert_eq!(res.outcome, SearchOutcome::LinkStepOnly);
        assert!(res.files.is_empty());
    }

    #[test]
    fn extended_precision_blame_stops_at_file_level() {
        // x87 extended-precision variability washes out under the -fPIC
        // probe: the file is reported, no symbols.
        let p = program();
        let x87 = Compilation::new(
            flit_toolchain::compiler::CompilerKind::Gcc,
            OptLevel::O2,
            vec![Switch::FpMath387],
        );
        let res = search(&p, x87, &[0.5], &HierarchicalConfig::all(), 1);
        assert_eq!(res.outcome, SearchOutcome::Completed);
        assert!(!res.files.is_empty());
        assert!(res.symbols.is_empty(), "symbols: {:?}", res.symbols);
        assert_eq!(
            res.file_level_only.len(),
            res.files.len(),
            "every found file should be file-level-only under x87 blame"
        );
    }

    #[test]
    fn cached_search_matches_uncached_and_reuses_builds() {
        let p = program();
        let input = &[0.5, 0.25];
        let plain = search(&p, unsafe_variable(), input, &HierarchicalConfig::all(), 1);
        let ctx = BuildCtx::cached();
        let cfg = HierarchicalConfig::all().with_ctx(ctx.clone());
        let cached = search(&p, unsafe_variable(), input, &cfg, 1);
        assert_eq!(cached.outcome, plain.outcome);
        assert_eq!(cached.files, plain.files);
        assert_eq!(cached.symbols, plain.symbols);
        assert_eq!(cached.executions, plain.executions);
        let first = ctx.stats();
        assert!(first.object_cache_hits > 0, "{first:?}");

        // A repeated search through the same context is served almost
        // entirely from the link memo.
        let again = search(&p, unsafe_variable(), input, &cfg, 1);
        assert_eq!(again.files, plain.files);
        let second = ctx.stats();
        assert_eq!(
            second.links, first.links,
            "rerun must not perform any new link"
        );
        assert!(second.link_memo_hits > first.link_memo_hits);
    }

    #[test]
    fn executions_are_counted_and_deterministic() {
        let p = program();
        let cfg = HierarchicalConfig::all();
        let r1 = search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, 1);
        let r2 = search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, 1);
        assert_eq!(r1.executions, r2.executions);
        assert_eq!(r1.files, r2.files);
        assert_eq!(r1.symbols, r2.symbols);
    }

    /// The search must be indistinguishable in its entire result struct
    /// at any worker count.
    #[test]
    fn result_is_identical_at_every_width() {
        let p = program();
        for cfg in [HierarchicalConfig::all(), HierarchicalConfig::biggest(1)] {
            let serial = search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, 1);
            for jobs in [2, 8] {
                let par = search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, jobs);
                assert_eq!(par, serial, "jobs={jobs} k={:?}", cfg.k);
            }
        }
    }

    #[test]
    fn degenerate_shapes_are_identical_at_every_width() {
        let p = program();
        let cfg = HierarchicalConfig::all();
        // Clean compilation: LinkStepOnly, no files.
        let clean = Compilation::new(
            flit_toolchain::compiler::CompilerKind::Gcc,
            OptLevel::O3,
            vec![],
        );
        let serial = search(&p, clean.clone(), &[0.5], &cfg, 1);
        assert_eq!(serial.outcome, SearchOutcome::LinkStepOnly);
        assert_eq!(search(&p, clean, &[0.5], &cfg, 8), serial);

        // x87 blame: found files wash out under the -fPIC probe, so the
        // probe/file-level-only fold must agree too.
        let x87 = Compilation::new(
            flit_toolchain::compiler::CompilerKind::Gcc,
            OptLevel::O2,
            vec![Switch::FpMath387],
        );
        let serial = search(&p, x87.clone(), &[0.5], &cfg, 1);
        assert!(!serial.files.is_empty());
        assert_eq!(search(&p, x87, &[0.5], &cfg, 8), serial);
    }

    /// The `bisect.*` counters and level spans — the accounting the
    /// paper reports — must also match exactly at any width; only
    /// `exec.*` scheduling telemetry may differ.
    #[test]
    fn bisect_counters_are_identical_at_every_width() {
        let p = program();
        let counters = |trace: &flit_trace::TraceSink| -> Vec<(String, u64)> {
            trace
                .registry()
                .expect("enabled")
                .snapshot()
                .into_iter()
                .filter(|(name, _)| name.starts_with("bisect."))
                .collect()
        };
        let run = |jobs: usize| {
            let trace = flit_trace::TraceSink::enabled();
            let cfg = HierarchicalConfig::all().with_trace(trace.clone());
            (
                search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, jobs),
                trace,
            )
        };
        let (serial, serial_trace) = run(1);
        let (par, par_trace) = run(4);
        assert_eq!(par, serial);
        assert_eq!(counters(&par_trace), counters(&serial_trace));
        // Every width records its scheduling waves.
        for trace in [&serial_trace, &par_trace] {
            let waves = trace.snapshot().counter("exec.waves");
            assert!(waves > 0, "the search should record its waves");
        }
    }

    /// Honest certificates for the fixture pair, wrapped in a pruning
    /// prescreen — exactly what `flit bisect --prune certified` builds.
    fn certified_prescreen(p: &SimProgram, var: &Compilation) -> Prescreen {
        let certs = flit_absint::certify_pair(
            p,
            p,
            &driver(),
            &Compilation::baseline(),
            var,
            flit_toolchain::compiler::CompilerKind::Gcc,
        );
        Prescreen {
            certificates: Some(certs),
            ..Prescreen::default()
        }
    }

    /// Soundness of the certified prune: the found sets are byte-
    /// identical to the unpruned search — at every width — while the
    /// search spends strictly fewer executions.
    #[test]
    fn certified_prune_is_byte_identical_and_strictly_cheaper() {
        let p = program();
        let input = &[0.5, 0.25];
        let unpruned = search(&p, unsafe_variable(), input, &HierarchicalConfig::all(), 1);
        let cfg =
            HierarchicalConfig::all().with_prescreen(certified_prescreen(&p, &unsafe_variable()));
        let pruned = search(&p, unsafe_variable(), input, &cfg, 1);
        assert_eq!(
            pruned.outcome,
            SearchOutcome::Completed,
            "{:?}",
            pruned.violations
        );
        assert!(pruned.violations.is_empty(), "{:?}", pruned.violations);
        assert_eq!(pruned.files, unpruned.files, "found files must not change");
        assert_eq!(
            pruned.symbols, unpruned.symbols,
            "found symbols must not change"
        );
        assert_eq!(pruned.file_level_only, unpruned.file_level_only);
        assert!(
            pruned.executions < unpruned.executions,
            "certified prune must be a strict reduction: {} vs {}",
            pruned.executions,
            unpruned.executions
        );
        let par = search(&p, unsafe_variable(), input, &cfg, 8);
        assert_eq!(par, pruned, "jobs=8");
    }

    /// A certificate that wrongly claims `Invariant` for a real culprit
    /// must surface as a structured assumption violation (the residual
    /// audit), never as a silently dropped item.
    #[test]
    fn dishonest_invariant_certificate_fails_loudly() {
        let p = program();
        let mut screen = certified_prescreen(&p, &unsafe_variable());
        // File 1 (assemble.cpp) genuinely diverges under this pair;
        // forge an Invariant certificate for it.
        screen.certificates.as_mut().unwrap().files[1] = flit_absint::Certificate::Invariant;
        let cfg = HierarchicalConfig::all().with_prescreen(screen);
        let res = search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, 1);
        assert_eq!(res.outcome, SearchOutcome::AssumptionViolated);
        assert!(
            res.violations
                .iter()
                .any(|v| v.contains("certified-prune audit failed at file level")),
            "expected a loud audit failure, got {:?}",
            res.violations
        );
        let par = search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, 8);
        assert_eq!(par, res, "jobs=8");
    }

    /// A dishonest `Invariant` on a culprit *symbol* is caught by the
    /// symbol-level residual audit of its file.
    #[test]
    fn dishonest_symbol_certificate_fails_loudly() {
        let p = program();
        let mut screen = certified_prescreen(&p, &unsafe_variable());
        screen
            .certificates
            .as_mut()
            .unwrap()
            .symbols
            .insert("solver_norm".into(), flit_absint::Certificate::Invariant);
        let cfg = HierarchicalConfig::all().with_prescreen(screen);
        let res = search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, 1);
        assert_eq!(res.outcome, SearchOutcome::AssumptionViolated);
        assert!(
            res.violations
                .iter()
                .any(|v| v.contains("certified-prune audit failed at symbol level")),
            "expected a loud audit failure, got {:?}",
            res.violations
        );
        assert_eq!(search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, 8), res);
    }

    /// A finite bound contradicted by the observed file divergence is
    /// caught by the zero-execution cross-check of the found set.
    #[test]
    fn contradicted_bound_certificate_fails_loudly() {
        let p = program();
        let mut screen = certified_prescreen(&p, &unsafe_variable());
        // Vastly too tight: the observed divergence of file 1 is many
        // orders of magnitude above this.
        screen.certificates.as_mut().unwrap().files[1] = flit_absint::Certificate::Bounded(1e-300);
        let cfg = HierarchicalConfig::all().with_prescreen(screen);
        let res = search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, 1);
        assert_eq!(res.outcome, SearchOutcome::AssumptionViolated);
        assert!(
            res.violations
                .iter()
                .any(|v| v.contains("certified bound violated for file assemble.cpp")),
            "expected a bound violation, got {:?}",
            res.violations
        );
        // The finding itself is still reported — loud, not lossy.
        assert!(res.files.iter().any(|f| f.file_id == 1));
        assert_eq!(search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, 8), res);
    }

    /// An all-Invariant pair (value-safe flags only) prunes the whole
    /// space and still reports the unpruned `LinkStepOnly` shape.
    #[test]
    fn certified_prune_handles_a_fully_invariant_pair() {
        let p = program();
        let clean = Compilation::new(
            flit_toolchain::compiler::CompilerKind::Gcc,
            OptLevel::O3,
            vec![],
        );
        let unpruned = search(&p, clean.clone(), &[0.5], &HierarchicalConfig::all(), 1);
        assert_eq!(unpruned.outcome, SearchOutcome::LinkStepOnly);
        let cfg = HierarchicalConfig::all().with_prescreen(certified_prescreen(&p, &clean));
        let pruned = search(&p, clean.clone(), &[0.5], &cfg, 1);
        assert_eq!(pruned.outcome, SearchOutcome::LinkStepOnly);
        assert!(pruned.violations.is_empty(), "{:?}", pruned.violations);
        assert!(pruned.executions <= unpruned.executions);
        assert_eq!(search(&p, clean, &[0.5], &cfg, 8), pruned);
    }

    /// The `absint.*` accounting: pruned-item and audit counters are
    /// emitted identically at every width.
    #[test]
    fn certified_prune_emits_absint_counters_identically() {
        let p = program();
        let screen = certified_prescreen(&p, &unsafe_variable());
        // `lint.speculation.skipped` is planner scheduling telemetry
        // (like `exec.*`); parity is over `absint.*`.
        let snap = |trace: &flit_trace::TraceSink| -> Vec<(String, u64)> {
            trace
                .registry()
                .expect("enabled")
                .snapshot()
                .into_iter()
                .filter(|(name, _)| name.starts_with("absint."))
                .collect()
        };
        let run = |jobs: usize| {
            let trace = flit_trace::TraceSink::enabled();
            let cfg = HierarchicalConfig::all()
                .with_prescreen(screen.clone())
                .with_trace(trace.clone());
            (
                search(&p, unsafe_variable(), &[0.5, 0.25], &cfg, jobs),
                trace,
            )
        };
        let (serial, serial_trace) = run(1);
        assert_eq!(serial.outcome, SearchOutcome::Completed);
        let counters: std::collections::BTreeMap<String, u64> =
            snap(&serial_trace).into_iter().collect();
        // Files 0 and 2 are certified Invariant and pruned.
        assert_eq!(counters.get("absint.pruned.files"), Some(&2));
        // One file-level audit plus one per symbol-searched file.
        assert!(counters.get("absint.prune.audits").copied().unwrap_or(0) >= 1);

        let (par, par_trace) = run(4);
        assert_eq!(par, serial);
        assert_eq!(snap(&par_trace), snap(&serial_trace));
    }
}

//! Pair prediction: intersect the program analysis with the FpEnv
//! difference of a `(baseline, variable)` compilation pair to rank the
//! files and symbols Bisect is expected to blame — before running
//! anything.
//!
//! The model mirrors the dynamic search exactly:
//!
//! * **File level** uses the *non-PIC* closure intersected with the env
//!   diff of both compilations linked by the bisection's link driver
//!   (mathlib cancels — the link step is shared, which is precisely why
//!   File Bisect reports [`LinkStepOnly`] for vendor-math variability).
//! * **Symbol level** uses the `-fPIC` closure intersected with the
//!   PIC-washed env diff ([`diff_pic`]): symbol search recompiles
//!   everything with `-fPIC`, which disables both x87 extended
//!   precision and cross-object inlining.
//! * **Injections** (the §3.5 study) are carried as a "body differs"
//!   flag propagated through the same binding edges.
//! * **ABI crashes** reuse [`flit_toolchain::mixed_abi_hazard`] — the
//!   exact predicate the simulated linker applies to a mixed link.
//!
//! [`LinkStepOnly`]: flit_bisect::hierarchy::SearchOutcome::LinkStepOnly
//! [`diff_pic`]: crate::sensitivity::diff_pic

use std::collections::BTreeSet;

use flit_bisect::hierarchy::{HierarchicalConfig, Prescreen};
use flit_program::build::Build;
use flit_program::model::Driver;
use flit_toolchain::compiler::CompilerKind;
use flit_toolchain::mixed_abi_hazard;
use flit_trace::names::{counter, phase};
use flit_trace::TraceSink;

use crate::analyze::{analyze_program, reachable};
use crate::sensitivity::{diff, diff_pic, Hazard, SensitivitySet};

/// Score bonus for a function whose *body* differs between the two
/// source trees (an injection): a guaranteed behavioral difference
/// outranks any env-sensitivity evidence (at most 7 features).
const INJECTED_BONUS: f64 = 8.0;

/// A file predicted to be blamed by File Bisect.
#[derive(Debug, Clone, PartialEq)]
pub struct FilePrediction {
    /// Index in the program's file list.
    pub file_id: usize,
    /// File name.
    pub file_name: String,
    /// Which env-diff features some reachable function in the file is
    /// (transitively) sensitive to.
    pub relevant: SensitivitySet,
    /// True when a reachable function in the file has a differing body
    /// (injection) under the non-PIC binding rule.
    pub injected: bool,
    /// Ranking score (higher = more likely variable).
    pub score: f64,
}

/// A symbol predicted to be blamed by Symbol Bisect.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolPrediction {
    /// The function's symbol name.
    pub symbol: String,
    /// The file defining it.
    pub file_id: usize,
    /// Which PIC-washed env-diff features the symbol's `-fPIC` closure
    /// is sensitive to.
    pub relevant: SensitivitySet,
    /// True when the symbol's `-fPIC` closure contains a differing body.
    pub injected: bool,
    /// Ranking score (higher = more likely variable).
    pub score: f64,
}

/// The full static prediction for one `(baseline, variable)` pair.
#[derive(Debug, Clone)]
pub struct PairPrediction {
    /// FpEnv features differing between the two compilations, both
    /// linked by the bisection's link driver.
    pub env_diff: SensitivitySet,
    /// The same diff under `-fPIC` (extended precision washed out).
    pub env_diff_pic: SensitivitySet,
    /// FpEnv features differing when each side is linked by its *own*
    /// compiler — the sweep configuration. Features here but not in
    /// [`env_diff`](Self::env_diff) (mathlib, chiefly) are link-step
    /// variability: Bisect will report [`LinkStepOnly`] rather than
    /// blame a file.
    ///
    /// [`LinkStepOnly`]: flit_bisect::hierarchy::SearchOutcome::LinkStepOnly
    pub sweep_diff: SensitivitySet,
    /// True when mixing these two compilers under this link driver
    /// crashes at link time (the Table-2 GCC/Clang × Intel failures).
    pub abi_hazard: bool,
    /// Predicted-variable files, ranked by descending score.
    pub files: Vec<FilePrediction>,
    /// Predicted-variable symbols, ranked by descending score.
    pub symbols: Vec<SymbolPrediction>,
    /// Functions the analyzer visited.
    pub functions_analyzed: usize,
    /// Hazard lints on *reachable* functions: `(symbol, hazard)`.
    pub hazards: Vec<(String, Hazard)>,
}

impl PairPrediction {
    /// Is this file in the predicted set?
    pub fn file_predicted(&self, file_id: usize) -> bool {
        self.files.iter().any(|f| f.file_id == file_id)
    }

    /// Is this symbol in the predicted set?
    pub fn symbol_predicted(&self, symbol: &str) -> bool {
        self.symbols.iter().any(|s| s.symbol == symbol)
    }

    /// Convert into a seeding Bisect prescreen: it only *orders*
    /// speculation, so results are byte-identical to an unseeded run.
    pub fn prescreen(&self) -> Prescreen {
        let mut p = Prescreen::default();
        for f in &self.files {
            p.file_priority.insert(f.file_id, f.score);
        }
        for s in &self.symbols {
            p.symbol_priority.insert(s.symbol.clone(), s.score);
        }
        p
    }

    /// Re-rank the predicted sets with certified divergence bounds from
    /// `flit-absint`, replacing the feature-count ordering:
    ///
    /// * `Invariant` items leave the predicted sets entirely — the
    ///   certificate *proves* Bisect cannot blame them;
    /// * `Bounded(ε)` items score their certified bound, so items with
    ///   more room to diverge are speculated first;
    /// * `Unknown` items rank above every finite bound (the analysis
    ///   reserves judgement, so the search should look there early).
    ///
    /// Injection evidence keeps its bonus on top of the bound score.
    /// Only items the feature model already predicted are re-ranked;
    /// the certified *keep/drop* decision in a pruning search comes
    /// from the certificates themselves, not from these scores.
    pub fn rescore_with_certificates(&mut self, certs: &flit_absint::PairCertificates) {
        fn bound_score(cert: flit_absint::Certificate, injected: bool) -> Option<f64> {
            let base = match cert {
                flit_absint::Certificate::Invariant => return None,
                flit_absint::Certificate::Bounded(e) => e,
                // Finite so the injected bonus still discriminates.
                flit_absint::Certificate::Unknown => f64::MAX / 2.0,
            };
            Some(if injected {
                base + INJECTED_BONUS
            } else {
                base
            })
        }
        self.files
            .retain_mut(|f| match bound_score(certs.file(f.file_id), f.injected) {
                Some(score) => {
                    f.score = score;
                    true
                }
                None => false,
            });
        self.files.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.file_id.cmp(&b.file_id))
        });
        self.symbols
            .retain_mut(|s| match bound_score(certs.symbol(&s.symbol), s.injected) {
                Some(score) => {
                    s.score = score;
                    true
                }
                None => false,
            });
        self.symbols.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.symbol.cmp(&b.symbol))
        });
    }

    /// A certificate-backed pruning prescreen: bound-magnitude scores
    /// order speculation and the certificates themselves decide what
    /// the search may drop.
    pub fn certified_prescreen(&mut self, certs: flit_absint::PairCertificates) -> Prescreen {
        self.rescore_with_certificates(&certs);
        Prescreen {
            certificates: Some(certs),
            ..self.prescreen()
        }
    }

    /// Record this prediction's counters and a span into `trace`.
    pub fn record(&self, trace: &TraceSink, label: impl Into<String>) {
        trace
            .counter(counter::LINT_FUNCTIONS_ANALYZED)
            .incr(self.functions_analyzed as u64);
        trace
            .counter(counter::LINT_PREDICTED_FILES)
            .incr(self.files.len() as u64);
        trace
            .counter(counter::LINT_PREDICTED_SYMBOLS)
            .incr(self.symbols.len() as u64);
        trace
            .counter(counter::LINT_HAZARDS)
            .incr(self.hazards.len() as u64);
        trace.span(phase::LINT, label, self.functions_analyzed as u64, 0.0);
    }
}

/// How the static prescreen participates in a hierarchical search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// No static analysis.
    #[default]
    Off,
    /// Predict the pair, record the prediction in the trace (`lint.*`),
    /// and *seed* the search's speculative frontier with it. Seeding
    /// only orders speculation, so findings, traces and execution
    /// counts match an unseeded search. A width-1 search (every
    /// workflow search) speculates nothing and executes exactly what
    /// the unseeded one does; a wider search
    /// (`flit bisect --jobs N --lint-seed`) wastes fewer speculative
    /// executions.
    Seed,
    /// Seed, and *prune*: certify the pair with `flit-absint` and drop
    /// the `Invariant`-certified files and symbols from the search
    /// space. Sound by construction — an `Invariant` certificate proves
    /// its item cannot move the Test value — and guarded by one
    /// residual audit query per pruned level, which reports a dishonest
    /// certificate as a violation. Found sets match the unpruned
    /// search.
    Prune,
}

/// The prescreen a search of `(baseline, variable)` under `cfg` runs
/// with in `mode` (`None` for [`LintMode::Off`]). Predicts the pair
/// under the search's own link driver and records the prediction into
/// `cfg.trace`; when pruning, also certifies the pair with that link
/// driver, records `absint.certified.*`, and attaches the certificates.
pub fn prescreen_for(
    mode: LintMode,
    baseline: &Build<'_>,
    variable: &Build<'_>,
    driver: &Driver,
    cfg: &HierarchicalConfig,
) -> Option<Prescreen> {
    if mode == LintMode::Off {
        return None;
    }
    let mut pred = predict_pair(baseline, variable, Some(driver), cfg.link_driver);
    let label = format!("{}/{}", driver.name, variable.compilation.label());
    pred.record(&cfg.trace, label);
    if mode == LintMode::Seed {
        return Some(pred.prescreen());
    }
    let certs = flit_absint::certify_pair(
        baseline.program,
        variable.program,
        driver,
        &baseline.compilation,
        &variable.compilation,
        cfg.link_driver,
    );
    record_certificates(&cfg.trace, &certs);
    Some(pred.certified_prescreen(certs))
}

/// Record the `absint.certified.*` counters for one pair's certificates.
pub fn record_certificates(trace: &TraceSink, certs: &flit_absint::PairCertificates) {
    let (inv, bnd, unk) = certs.counts();
    trace.counter(counter::ABSINT_CERTIFIED_INVARIANT).incr(inv);
    trace.counter(counter::ABSINT_CERTIFIED_BOUNDED).incr(bnd);
    trace.counter(counter::ABSINT_CERTIFIED_UNKNOWN).incr(unk);
}

/// Predict what Bisect will find for a `(baseline, variable)` pair.
///
/// `driver` scopes the analysis to functions reachable from the test's
/// entry points (pass `None` to consider every function reachable).
/// `link_driver` is the compiler that links the bisection's mixed
/// executables — [`bisect_hierarchical`] links with the baseline
/// compiler, so pass `baseline.compilation.compiler` to model it.
///
/// [`bisect_hierarchical`]: flit_bisect::hierarchy::bisect_hierarchical
pub fn predict_pair(
    baseline: &Build<'_>,
    variable: &Build<'_>,
    driver: Option<&Driver>,
    link_driver: CompilerKind,
) -> PairPrediction {
    let lint = analyze_program(baseline.program);

    let base_env = baseline.compilation.fp_env_linked(link_driver);
    let var_env = variable.compilation.fp_env_linked(link_driver);
    let env_diff = diff(&base_env, &var_env);
    let env_diff_pic = diff_pic(&base_env, &var_env);
    let sweep_diff = diff(
        &baseline
            .compilation
            .fp_env_linked(baseline.compilation.compiler),
        &variable
            .compilation
            .fp_env_linked(variable.compilation.compiler),
    );

    // "Body differs" seed: the two trees are structurally identical (a
    // Bisect precondition), so functions pair up positionally; only the
    // injection pass may have rewritten a body.
    let body_differs: BTreeSet<&str> = lint
        .functions
        .iter()
        .filter(|f| {
            let a = &baseline.program.files[f.file_id].functions[f.func_idx];
            match variable
                .program
                .files
                .get(f.file_id)
                .and_then(|file| file.functions.get(f.func_idx))
            {
                Some(b) => a.injection != b.injection,
                None => true,
            }
        })
        .map(|f| f.symbol.as_str())
        .collect();
    let injected = lint.propagate_flag(false, |f| body_differs.contains(f.symbol.as_str()));
    let injected_pic = lint.propagate_flag(true, |f| body_differs.contains(f.symbol.as_str()));

    let live: Option<BTreeSet<String>> = driver.map(|d| reachable(baseline.program, &d.entries));
    let is_live = |symbol: &str| live.as_ref().is_none_or(|set| set.contains(symbol));

    // File ranking: a file is predicted when any reachable function in
    // it can observe the env diff through its non-PIC closure, or
    // carries a differing body.
    let mut files: Vec<FilePrediction> = Vec::new();
    for (file_id, file) in baseline.program.files.iter().enumerate() {
        let mut relevant = SensitivitySet::EMPTY;
        let mut file_injected = false;
        let mut score = 0.0;
        for (i, f) in lint.functions.iter().enumerate() {
            if f.file_id != file_id || !is_live(&f.symbol) {
                continue;
            }
            let hit = f.effective.intersect(env_diff);
            relevant = relevant.union(hit);
            score += hit.len() as f64;
            if injected[i] {
                file_injected = true;
                score += INJECTED_BONUS;
            }
        }
        if score > 0.0 {
            files.push(FilePrediction {
                file_id,
                file_name: file.name.clone(),
                relevant,
                injected: file_injected,
                score,
            });
        }
    }
    files.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.file_id.cmp(&b.file_id))
    });

    // Symbol ranking: exported, reachable, and either sensitive through
    // the -fPIC closure or carrying a differing body under -fPIC
    // binding.
    let mut symbols: Vec<SymbolPrediction> = Vec::new();
    for (i, f) in lint.functions.iter().enumerate() {
        if !f.exported || !is_live(&f.symbol) {
            continue;
        }
        let relevant = f.effective_pic.intersect(env_diff_pic);
        let mut score = relevant.len() as f64;
        if injected_pic[i] {
            score += INJECTED_BONUS;
        }
        if score > 0.0 {
            symbols.push(SymbolPrediction {
                symbol: f.symbol.clone(),
                file_id: f.file_id,
                relevant,
                injected: injected_pic[i],
                score,
            });
        }
    }
    symbols.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.symbol.cmp(&b.symbol))
    });

    let hazards: Vec<(String, Hazard)> = lint
        .functions
        .iter()
        .filter(|f| is_live(&f.symbol))
        .flat_map(|f| f.hazards.iter().map(|h| (f.symbol.clone(), *h)))
        .collect();

    PairPrediction {
        env_diff,
        env_diff_pic,
        sweep_diff,
        abi_hazard: mixed_abi_hazard(
            &[baseline.compilation.compiler, variable.compilation.compiler],
            link_driver,
        ),
        files,
        symbols,
        functions_analyzed: lint.len(),
        hazards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::Feature;
    use flit_program::kernel::Kernel;
    use flit_program::model::{Function, SimProgram, SourceFile};
    use flit_toolchain::compilation::Compilation;
    use flit_toolchain::compiler::OptLevel;
    use flit_toolchain::flags::Switch;

    fn program() -> SimProgram {
        SimProgram::new(
            "predict-test",
            vec![
                SourceFile::new(
                    "hot.cpp",
                    vec![Function::exported("dot", Kernel::DotMix { stride: 3 })],
                ),
                SourceFile::new(
                    "cold.cpp",
                    vec![Function::exported("idle", Kernel::Benign { flavor: 0 })],
                ),
                SourceFile::new(
                    "trig.cpp",
                    vec![Function::exported("trig", Kernel::TranscMap { freq: 2.0 })],
                ),
            ],
        )
    }

    fn o0() -> Compilation {
        Compilation::new(CompilerKind::Gcc, OptLevel::O0, vec![])
    }

    fn fast() -> Compilation {
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe])
    }

    #[test]
    fn ranks_the_sensitive_file_and_symbol_only() {
        let p = program();
        let baseline = Build::new(&p, o0());
        let variable = Build::new(&p, fast());
        let pred = predict_pair(&baseline, &variable, None, CompilerKind::Gcc);
        assert!(!pred.env_diff.is_empty());
        assert!(pred.file_predicted(0), "{:?}", pred.files);
        assert!(!pred.file_predicted(1), "Benign must not be predicted");
        assert!(pred.symbol_predicted("dot"));
        assert!(!pred.symbol_predicted("idle"));
        assert!(!pred.abi_hazard);
    }

    #[test]
    fn same_compilation_predicts_nothing_without_injection() {
        let p = program();
        let a = Build::new(&p, fast());
        let b = Build::tagged(&p, fast(), 1);
        let pred = predict_pair(&a, &b, None, CompilerKind::Gcc);
        assert!(pred.env_diff.is_empty());
        assert!(pred.files.is_empty() && pred.symbols.is_empty());
    }

    #[test]
    fn reachability_scopes_predictions() {
        let p = program();
        let baseline = Build::new(&p, o0());
        let variable = Build::new(&p, fast());
        let driver = Driver::new("d", vec!["idle".into()], 1, 8);
        let pred = predict_pair(&baseline, &variable, Some(&driver), CompilerKind::Gcc);
        assert!(pred.files.is_empty(), "only the benign file is live");
    }

    #[test]
    fn mathlib_is_link_step_only() {
        let p = program();
        let icc = Compilation::new(CompilerKind::Icpc, OptLevel::O2, vec![]);
        let baseline = Build::new(&p, o0());
        let variable = Build::new(&p, icc);
        // Bisect links everything with the baseline driver: mathlib
        // cancels out of env_diff but shows in the sweep diff.
        let pred = predict_pair(&baseline, &variable, None, CompilerKind::Gcc);
        assert!(!pred.env_diff.contains(Feature::Mathlib));
        assert!(pred.sweep_diff.contains(Feature::Mathlib));
        assert!(pred.abi_hazard, "gcc objects + icpc objects crash");
    }

    #[test]
    fn certificates_rescore_and_drop_invariant_items() {
        let p = program();
        let baseline = Build::new(&p, o0());
        let variable = Build::new(&p, fast());
        let mut pred = predict_pair(&baseline, &variable, None, CompilerKind::Gcc);
        // The feature model predicts hot.cpp and trig.cpp (reduction +
        // mathlib-adjacent features under this diff).
        assert!(pred.file_predicted(0));
        let driver = Driver::new("d", vec!["dot".into(), "idle".into(), "trig".into()], 1, 32);
        let certs = flit_absint::certify_pair(&p, &p, &driver, &o0(), &fast(), CompilerKind::Gcc);
        pred.rescore_with_certificates(&certs);
        // Invariant-certified items leave the predicted sets...
        for f in &pred.files {
            assert!(
                !certs.file(f.file_id).prunable(),
                "invariant file {} survived rescoring",
                f.file_name
            );
        }
        for s in &pred.symbols {
            assert!(!certs.symbol(&s.symbol).prunable());
        }
        // ...and the survivors carry their certified bound as score.
        let hot = pred
            .files
            .iter()
            .find(|f| f.file_id == 0)
            .expect("hot.cpp kept");
        match certs.file(0) {
            flit_absint::Certificate::Bounded(e) => assert_eq!(hot.score, e),
            other => panic!("expected a bounded hot.cpp certificate, got {other:?}"),
        }
    }

    #[test]
    fn certified_prescreen_attaches_certificates_and_bound_scores() {
        let p = program();
        let baseline = Build::new(&p, o0());
        let variable = Build::new(&p, fast());
        let mut pred = predict_pair(&baseline, &variable, None, CompilerKind::Gcc);
        let driver = Driver::new("d", vec!["dot".into(), "idle".into(), "trig".into()], 1, 32);
        let certs = flit_absint::certify_pair(&p, &p, &driver, &o0(), &fast(), CompilerKind::Gcc);
        let screen = pred.certified_prescreen(certs);
        let certs = screen.certificates.as_ref().expect("certificates attached");
        assert_eq!(screen.file_score(0), certs.file(0).score());
        // Scores on invariant-certified items are gone (0.0 default).
        assert_eq!(screen.file_score(1), 0.0);
    }

    #[test]
    fn prescreen_carries_scores_and_no_certificates() {
        let p = program();
        let baseline = Build::new(&p, o0());
        let variable = Build::new(&p, fast());
        let pred = predict_pair(&baseline, &variable, None, CompilerKind::Gcc);
        let screen = pred.prescreen();
        assert!(screen.certificates.is_none());
        assert!(screen.file_score(0) > 0.0);
        assert_eq!(screen.file_score(1), 0.0);
        assert!(screen.symbol_score("dot") > 0.0);
        assert_eq!(screen.symbol_score("idle"), 0.0);
    }
}

//! Audit: compare the static prediction against dynamic ground truth —
//! a completed hierarchical bisection (Table 2) or an injection study
//! (Table 5) — and report precision/recall of the prescreen.
//!
//! Soundness means **recall = 1.0**: everything Bisect dynamically
//! blamed must have been statically predicted (otherwise the seed would
//! skip speculating on real variability). Precision is reported honestly but is *expected*
//! to be below 1.0 — the static model cannot know that a numerically
//! sensitive kernel happens to cancel to the same bits on a particular
//! input.

use std::collections::BTreeSet;

use flit_bisect::hierarchy::HierarchicalResult;
use flit_inject::sites::apply_injection;
use flit_inject::study::{Classification, InjectionRecord, StudyConfig};
use flit_program::build::Build;
use flit_program::model::SimProgram;
use flit_program::sites::Injection;

use crate::predict::{predict_pair, PairPrediction};

/// Prediction-vs-ground-truth comparison at one granularity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelAudit {
    /// What the dynamic search actually blamed.
    pub found: Vec<String>,
    /// What the static pass predicted (for symbol audits, restricted to
    /// files the dynamic search descended into — symbols in unfound
    /// files were never dynamically tested, so counting them either way
    /// would be dishonest).
    pub predicted: Vec<String>,
    /// `|found ∩ predicted|`.
    pub hits: usize,
    /// Found but not predicted — each entry is a recall failure.
    pub missed: Vec<String>,
}

impl LevelAudit {
    fn compare(found: BTreeSet<String>, predicted: BTreeSet<String>) -> Self {
        let hits = found.intersection(&predicted).count();
        let missed = found.difference(&predicted).cloned().collect();
        LevelAudit {
            found: found.into_iter().collect(),
            predicted: predicted.into_iter().collect(),
            hits,
            missed,
        }
    }

    /// Fraction of dynamic findings that were predicted (1.0 when the
    /// search found nothing).
    pub fn recall(&self) -> f64 {
        if self.found.is_empty() {
            1.0
        } else {
            self.hits as f64 / self.found.len() as f64
        }
    }

    /// Fraction of predictions confirmed dynamically (1.0 when nothing
    /// was predicted).
    pub fn precision(&self) -> f64 {
        if self.predicted.is_empty() {
            1.0
        } else {
            self.hits as f64 / self.predicted.len() as f64
        }
    }

    /// Recall is 1.0: no dynamic finding escaped the static model.
    pub fn sound(&self) -> bool {
        self.missed.is_empty()
    }
}

/// Audit of one hierarchical bisection.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyAudit {
    /// File-level comparison (by file name).
    pub files: LevelAudit,
    /// Symbol-level comparison.
    pub symbols: LevelAudit,
}

impl HierarchyAudit {
    /// Sound at both levels.
    pub fn sound(&self) -> bool {
        self.files.sound() && self.symbols.sound()
    }
}

/// Compare a prediction against a completed hierarchical bisection of
/// the same pair.
pub fn audit_hierarchy(pred: &PairPrediction, result: &HierarchicalResult) -> HierarchyAudit {
    let found_files: BTreeSet<String> = result.files.iter().map(|f| f.file_name.clone()).collect();
    let predicted_files: BTreeSet<String> =
        pred.files.iter().map(|f| f.file_name.clone()).collect();

    let found_fids: BTreeSet<usize> = result.files.iter().map(|f| f.file_id).collect();
    let found_symbols: BTreeSet<String> = result.symbols.iter().map(|s| s.symbol.clone()).collect();
    let predicted_symbols: BTreeSet<String> = pred
        .symbols
        .iter()
        .filter(|s| found_fids.contains(&s.file_id))
        .map(|s| s.symbol.clone())
        .collect();

    HierarchyAudit {
        files: LevelAudit::compare(found_files, predicted_files),
        symbols: LevelAudit::compare(found_symbols, predicted_symbols),
    }
}

/// Aggregated audit of an injection study (Table 5): for every
/// measurable injection, re-derive the static prediction for the
/// `(clean, injected)` pair and compare against what Bisect reported.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InjectionAudit {
    /// Measurable injections audited.
    pub measurable: usize,
    /// Records whose every reported symbol was predicted.
    pub covered: usize,
    /// Σ `|reported ∩ predicted|` over measurable records.
    pub reported_hits: usize,
    /// Σ `|reported|`.
    pub reported_total: usize,
    /// Σ `|predicted|`.
    pub predicted_total: usize,
}

impl InjectionAudit {
    /// Fraction of reported symbols that were predicted.
    pub fn recall(&self) -> f64 {
        if self.reported_total == 0 {
            1.0
        } else {
            self.reported_hits as f64 / self.reported_total as f64
        }
    }

    /// Fraction of predicted symbols that Bisect reported.
    pub fn precision(&self) -> f64 {
        if self.predicted_total == 0 {
            1.0
        } else {
            self.reported_hits as f64 / self.predicted_total as f64
        }
    }

    /// Every measurable record fully covered (recall = 1.0).
    pub fn sound(&self) -> bool {
        self.covered == self.measurable
    }
}

/// Audit an injection study's records against the static model. Both
/// builds use the study's (identical) compilation, so the env diff is
/// empty and the prediction is driven purely by the propagated
/// "body differs" flag — exactly the inlining-inheritance model the
/// paper's §3.5 indirect-find discussion describes.
pub fn audit_injection(
    program: &SimProgram,
    cfg: &StudyConfig,
    records: &[InjectionRecord],
) -> InjectionAudit {
    let mut audit = InjectionAudit::default();
    for r in records {
        if r.classification == Classification::NotMeasurable {
            continue;
        }
        audit.measurable += 1;
        let injection = Injection {
            site: r.site.site,
            op: r.op,
            eps: r.eps,
        };
        let injected = apply_injection(program, &r.site, injection);
        let clean_build = Build::new(program, cfg.compilation.clone());
        let injected_build = Build::tagged(&injected, cfg.compilation.clone(), 1);
        let pred = predict_pair(
            &clean_build,
            &injected_build,
            Some(&cfg.driver),
            cfg.compilation.compiler,
        );
        let predicted: BTreeSet<&str> = pred.symbols.iter().map(|s| s.symbol.as_str()).collect();
        let hits = r
            .reported
            .iter()
            .filter(|s| predicted.contains(s.as_str()))
            .count();
        audit.reported_hits += hits;
        audit.reported_total += r.reported.len();
        audit.predicted_total += predicted.len();
        if hits == r.reported.len() {
            audit.covered += 1;
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_bisect::hierarchy::{FileFinding, SearchOutcome, SymbolFinding};
    use flit_program::kernel::Kernel;
    use flit_program::model::{Driver, Function, SourceFile};
    use flit_toolchain::compilation::Compilation;
    use flit_toolchain::compiler::{CompilerKind, OptLevel};
    use flit_toolchain::flags::Switch;

    fn program() -> SimProgram {
        SimProgram::new(
            "audit-test",
            vec![
                SourceFile::new(
                    "hot.cpp",
                    vec![Function::exported("dot", Kernel::DotMix { stride: 3 })],
                ),
                SourceFile::new(
                    "cold.cpp",
                    vec![Function::exported("idle", Kernel::Benign { flavor: 0 })],
                ),
            ],
        )
    }

    fn result(files: Vec<(usize, &str)>, symbols: Vec<(&str, usize)>) -> HierarchicalResult {
        HierarchicalResult {
            outcome: SearchOutcome::Completed,
            files: files
                .into_iter()
                .map(|(file_id, name)| FileFinding {
                    file_id,
                    file_name: name.into(),
                    value: 1.0,
                })
                .collect(),
            symbols: symbols
                .into_iter()
                .map(|(symbol, file_id)| SymbolFinding {
                    symbol: symbol.into(),
                    file_id,
                    value: 1.0,
                })
                .collect(),
            file_level_only: vec![],
            executions: 10,
            violations: vec![],
        }
    }

    fn prediction() -> PairPrediction {
        let p = program();
        let baseline = Build::new(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O0, vec![]),
        );
        let variable = Build::new(
            &p,
            Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]),
        );
        predict_pair(&baseline, &variable, None, CompilerKind::Gcc)
    }

    #[test]
    fn perfect_agreement_scores_one() {
        let audit = audit_hierarchy(
            &prediction(),
            &result(vec![(0, "hot.cpp")], vec![("dot", 0)]),
        );
        assert!(audit.sound());
        assert_eq!(audit.files.recall(), 1.0);
        assert_eq!(audit.files.precision(), 1.0);
        assert_eq!(audit.symbols.recall(), 1.0);
        assert_eq!(audit.symbols.precision(), 1.0);
    }

    #[test]
    fn unpredicted_finding_breaks_recall() {
        let audit = audit_hierarchy(
            &prediction(),
            &result(vec![(0, "hot.cpp"), (1, "cold.cpp")], vec![]),
        );
        assert!(!audit.sound());
        assert_eq!(audit.files.missed, vec!["cold.cpp".to_string()]);
        assert!(audit.files.recall() < 1.0);
    }

    #[test]
    fn unconfirmed_prediction_costs_precision_not_recall() {
        // Search found nothing: the predicted file is a (tolerated)
        // false positive; symbol predictions are outside the searched
        // set and do not count against precision.
        let audit = audit_hierarchy(&prediction(), &result(vec![], vec![]));
        assert!(audit.sound());
        assert_eq!(audit.files.recall(), 1.0);
        assert_eq!(audit.files.precision(), 0.0);
        assert_eq!(audit.symbols.precision(), 1.0);
    }

    #[test]
    fn injection_audit_covers_a_small_study() {
        use flit_fpsim::env::FpEnv;
        use flit_inject::study::run_study;
        use flit_program::kernel::KernelImpl;
        use flit_program::sites::SiteCtx;
        use flit_toolchain::perf::KernelClass;
        use std::sync::Arc;

        // Injection sites only exist on Custom kernels: a tiny 3-site
        // body shared by an exported entry and a static helper behind a
        // benign exported caller (exact + indirect finds).
        struct Tiny;
        impl KernelImpl for Tiny {
            fn name(&self) -> &str {
                "tiny"
            }
            fn eval(&self, state: &mut [f64], env: &FpEnv, inj: Option<Injection>) {
                let mut ctx = SiteCtx::new(env, inj);
                ctx.begin_body(3);
                for x in state.iter_mut() {
                    ctx.next_iteration();
                    let a = ctx.mul(*x, 0.681);
                    let b = ctx.add(a, 0.209);
                    *x = ctx.div(b, 1.43);
                }
                ctx.end_body();
            }
            fn fp_sites(&self) -> usize {
                3
            }
            fn work(&self) -> f64 {
                3.0
            }
            fn class(&self) -> KernelClass {
                KernelClass::Stencil
            }
        }

        let p = SimProgram::new(
            "inject-audit",
            vec![SourceFile::new(
                "solve.cpp",
                vec![
                    Function::exported("entry", Kernel::Custom(Arc::new(Tiny))),
                    Function::local("helper", Kernel::Custom(Arc::new(Tiny))),
                    Function::exported("outer", Kernel::Benign { flavor: 1 })
                        .with_calls(vec!["helper".into()]),
                ],
            )],
        );
        let cfg = StudyConfig {
            compilation: Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![]),
            driver: Driver::new("audit", vec!["entry".into(), "outer".into()], 2, 16),
            input: vec![0.4],
            seed: 11,
            threads: 1,
        };
        let (records, _) = run_study(&p, &cfg);
        let audit = audit_injection(&p, &cfg, &records);
        assert!(audit.measurable > 0, "some injections must measure");
        assert!(audit.sound(), "missed: {:?}", audit);
        assert_eq!(audit.recall(), 1.0);
        assert!(audit.precision() > 0.0);
    }
}

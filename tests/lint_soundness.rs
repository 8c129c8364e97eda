//! Soundness contract of the static prescreen (`flit-lint`), end to
//! end: the per-kernel sensitivity model is differentially sound, the
//! analyzer is total over generated synthetic codebases, and on the
//! paper's Table-2 MFEM fixture a lint-seeded search reproduces the
//! unseeded findings byte-for-byte while spending strictly fewer Test
//! executions at width 8, and a certified-pruned search reproduces the
//! findings with fewer executions.

use proptest::prelude::*;

use flit::lint::sensitivity::{env_with, kernel_sensitivity};
use flit::lint::{prescreen_for, LintMode};
use flit::prelude::*;
use flit::program::generate::{filler_files, FillerSpec};
use flit::trace::names::counter;

/// One representative of every non-custom kernel variant.
fn kernel_zoo() -> Vec<Kernel> {
    vec![
        Kernel::DotMix { stride: 3 },
        Kernel::DotMixReproducible { stride: 3 },
        Kernel::MatVecMix { n: 6 },
        Kernel::Rank1Mix { n: 4, alpha: 0.7 },
        Kernel::CgSolve {
            n: 8,
            tol: 1e-10,
            cond: 1e6,
        },
        Kernel::HeatSmooth { steps: 4, r: 0.2 },
        Kernel::ChaoticAmplify {
            lambda: 3.7,
            steps: 24,
        },
        Kernel::TranscMap { freq: 3.0 },
        Kernel::PolyHorner { degree: 9 },
        Kernel::DivScan,
        Kernel::NormScale,
        Kernel::Benign { flavor: 2 },
        Kernel::UbSwap,
        Kernel::ZeroGate { boost: 1.5 },
        Kernel::AmplifyExact {
            lambda: 0.9,
            steps: 8,
        },
    ]
}

fn sample_state(len: usize, salt: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let x = ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f64;
            0.05 + 0.9 * (x / 1000.0)
        })
        .collect()
}

/// Differential soundness of the abstract interpretation: whenever a
/// kernel's output changes bitwise under a single-feature environment
/// flip, the model must claim that feature. (The converse — claimed
/// but unobserved on this one state — is allowed: the model is a
/// *may*-analysis.)
#[test]
fn kernel_sensitivity_is_differentially_sound() {
    let strict = FpEnv::strict();
    let mut observed_diffs = 0usize;
    for kernel in kernel_zoo() {
        let claimed = kernel_sensitivity(&kernel);
        for feature in SensitivitySet::FULL.iter() {
            let flipped = env_with(feature);
            for salt in [1u64, 17, 4242] {
                let mut a = sample_state(32, salt);
                let mut b = a.clone();
                kernel.eval(&mut a, &strict, None);
                kernel.eval(&mut b, &flipped, None);
                let differs = a.iter().zip(&b).any(|(x, y)| x.to_bits() != y.to_bits());
                if differs {
                    observed_diffs += 1;
                    assert!(
                        claimed.contains(feature),
                        "{kernel:?} differs under {feature:?} but the model does not claim it"
                    );
                }
            }
        }
    }
    // The test must have teeth: plenty of flips actually fire.
    assert!(
        observed_diffs > 20,
        "only {observed_diffs} differential observations — states too tame?"
    );
}

/// Exact-by-construction kernels really are: no single-feature flip
/// may ever move them (this is the precision half for the kernels the
/// prescreen prunes).
#[test]
fn invariant_kernels_never_move() {
    let strict = FpEnv::strict();
    for kernel in [
        Kernel::Benign { flavor: 0 },
        Kernel::Benign { flavor: 5 },
        Kernel::DotMixReproducible { stride: 5 },
        Kernel::AmplifyExact {
            lambda: 0.9,
            steps: 12,
        },
    ] {
        assert!(
            kernel_sensitivity(&kernel).is_empty(),
            "{kernel:?} should model as invariant"
        );
        for feature in SensitivitySet::FULL.iter() {
            let mut a = sample_state(24, 7);
            let mut b = a.clone();
            kernel.eval(&mut a, &strict, None);
            kernel.eval(&mut b, &env_with(feature), None);
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{kernel:?} moved under {feature:?}"
            );
        }
    }
}

fn mfem_pair() -> (
    flit::program::model::SimProgram,
    Compilation,
    Compilation,
    Driver,
) {
    let program = flit::mfem::mfem_program();
    let baseline = Compilation::baseline();
    let variable = Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]);
    let driver = flit::mfem::examples::example_driver(13, 1);
    (program, baseline, variable, driver)
}

const INPUT: &[f64] = &[0.35, 0.62];

/// The Table-2 MFEM fixture: a lint-seeded parallel search is
/// byte-identical to the unseeded serial search at widths 1 and 8,
/// and at width 8 it spends strictly fewer Test executions (the
/// speculation filter is the entire point of seeding).
#[test]
fn mfem_seeded_search_is_identical_and_cheaper() {
    let (program, base_c, var_c, driver) = mfem_pair();
    let baseline = Build::new(&program, base_c);
    let variable = Build::tagged(&program, var_c, 1);
    let pred = predict_pair(&baseline, &variable, Some(&driver), CompilerKind::Gcc);

    let serial = bisect_hierarchical(
        &baseline,
        &variable,
        &driver,
        INPUT,
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    assert!(!serial.files.is_empty(), "fixture must find variability");

    for jobs in [1usize, 8] {
        let run = |prescreen: Option<Prescreen>| {
            let trace = TraceSink::enabled();
            let mut cfg = HierarchicalConfig::all().with_trace(trace.clone());
            if let Some(p) = prescreen {
                cfg = cfg.with_prescreen(p);
            }
            let result = bisect_hierarchical(
                &baseline,
                &variable,
                &driver,
                INPUT,
                &l2_compare,
                &cfg,
                &ThreadsBackend::new(jobs),
            );
            (result, trace.snapshot())
        };
        let (plain, plain_trace) = run(None);
        let (seeded, seeded_trace) = run(Some(pred.prescreen()));

        assert_eq!(plain, serial, "unseeded parallel vs serial, jobs={jobs}");
        assert_eq!(seeded, serial, "seeded parallel vs serial, jobs={jobs}");

        let plain_exec = plain_trace.counter(counter::EXEC_QUERIES_EXECUTED);
        let seeded_exec = seeded_trace.counter(counter::EXEC_QUERIES_EXECUTED);
        assert!(
            seeded_exec <= plain_exec,
            "seeding may never cost executions: {seeded_exec} > {plain_exec} at jobs={jobs}"
        );
        if jobs == 8 {
            assert!(
                seeded_exec < plain_exec,
                "seeding must strictly reduce executions at jobs=8 \
                 ({seeded_exec} vs {plain_exec})"
            );
            assert!(
                seeded_trace.counter(counter::LINT_SPECULATION_SKIPPED) > 0,
                "the speculation filter should have skipped something"
            );
        }
    }
}

/// The certified prune reproduces the same blame sets with zero
/// violations (the residual audit passes) and strictly fewer
/// executions, on both the serial and the parallel path.
#[test]
fn mfem_pruned_search_matches_and_verifies() {
    let (program, base_c, var_c, driver) = mfem_pair();
    let baseline = Build::new(&program, base_c);
    let variable = Build::tagged(&program, var_c, 1);

    let plain = bisect_hierarchical(
        &baseline,
        &variable,
        &driver,
        INPUT,
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    let cfg = HierarchicalConfig::all();
    let screen = prescreen_for(LintMode::Prune, &baseline, &variable, &driver, &cfg)
        .expect("pruning builds a prescreen");
    assert!(
        screen.certificates.is_some(),
        "a pruning prescreen is certified"
    );
    let cfg = cfg.with_prescreen(screen);
    let pruned = bisect_hierarchical(
        &baseline,
        &variable,
        &driver,
        INPUT,
        &l2_compare,
        &cfg,
        &ThreadsBackend::new(1),
    );
    let pruned_par = bisect_hierarchical(
        &baseline,
        &variable,
        &driver,
        INPUT,
        &l2_compare,
        &cfg,
        &ThreadsBackend::new(8),
    );

    for (label, r) in [("serial", &pruned), ("parallel", &pruned_par)] {
        assert_eq!(r.files, plain.files, "{label} pruned file findings");
        assert_eq!(r.symbols, plain.symbols, "{label} pruned symbol findings");
        assert_eq!(r.outcome, plain.outcome, "{label} pruned outcome");
        assert!(
            r.violations.is_empty(),
            "{label} residual audit should pass: {:?}",
            r.violations
        );
        assert!(
            r.executions < plain.executions,
            "{label} certified prune must be cheaper: {} vs {}",
            r.executions,
            plain.executions
        );
    }
}

/// A dishonest prescreen (every file and symbol forged `Invariant`, so
/// everything is pruned) is caught by the residual audit, not silently
/// believed.
#[test]
fn dishonest_prune_is_caught_by_the_guard() {
    let (program, base_c, var_c, driver) = mfem_pair();
    let baseline = Build::new(&program, base_c);
    let variable = Build::tagged(&program, var_c, 1);
    let cfg = HierarchicalConfig::all();
    let mut lie = prescreen_for(LintMode::Prune, &baseline, &variable, &driver, &cfg)
        .expect("pruning builds a prescreen");
    let certs = lie.certificates.as_mut().expect("certified");
    certs
        .files
        .iter_mut()
        .chain(certs.symbols.values_mut())
        .for_each(|c| *c = flit_absint::Certificate::Invariant);
    let cfg = cfg.with_prescreen(lie);
    let result = bisect_hierarchical(
        &baseline,
        &variable,
        &driver,
        INPUT,
        &l2_compare,
        &cfg,
        &ThreadsBackend::new(1),
    );
    assert!(
        result
            .certificate_violations()
            .any(|v| v.contains("certified-prune audit failed at file level")),
        "expected a residual-audit violation, got {:?}",
        result.violations
    );
}

/// The audit on the Table-2 fixture: static recall must be 1.0 at both
/// levels (everything the dynamic search blames was predicted), with
/// honestly-reported precision.
#[test]
fn mfem_audit_recall_is_total() {
    let (program, base_c, var_c, driver) = mfem_pair();
    let baseline = Build::new(&program, base_c);
    let variable = Build::tagged(&program, var_c, 1);
    let pred = predict_pair(&baseline, &variable, Some(&driver), CompilerKind::Gcc);
    let result = bisect_hierarchical(
        &baseline,
        &variable,
        &driver,
        INPUT,
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    let audit = audit_hierarchy(&pred, &result);
    assert!(audit.sound(), "missed blames: {audit:?}");
    assert_eq!(audit.files.recall(), 1.0);
    assert_eq!(audit.symbols.recall(), 1.0);
    assert!(audit.files.precision() > 0.0 && audit.files.precision() <= 1.0);
    assert!(audit.symbols.precision() > 0.0 && audit.symbols.precision() <= 1.0);
    assert!(!audit.files.found.is_empty(), "fixture must blame files");
}

/// Splice a uniquely-named sensitive exported function into one of the
/// generated filler files.
fn splice(
    files: &mut [flit::program::model::SourceFile],
    idx: usize,
    name: &str,
    kernel: Kernel,
) -> usize {
    let fid = idx % files.len();
    files[fid]
        .functions
        .push(flit::program::model::Function::exported(name, kernel));
    fid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The analyzer is total over `flit_program::generate` synthetic
    /// codebases — never panics, covers every function — and recall is
    /// 1.0 by construction: filler is `Benign` (statically invariant,
    /// nothing predicted), while spliced sensitive kernels are always
    /// predicted at both file and symbol level for an env diff that
    /// touches their sensitivity set.
    #[test]
    fn analyzer_is_total_and_recalls_spliced_kernels(
        nfiles in 2usize..7,
        funcs in 1usize..9,
        statics in 0u32..800,
        seed in any::<u64>(),
        hot_at in prop::collection::vec(0usize..64, 1..4),
    ) {
        let spec = FillerSpec {
            files: nfiles,
            funcs_per_file: funcs,
            static_per_mille: statics,
            sloc_per_func: 12,
            seed,
            prefix: "gen".into(),
        };
        let mut files = filler_files(&spec);
        let total_filler: usize = files.iter().map(|f| f.functions.len()).sum();

        // Filler-only program: statically invariant by construction.
        let quiet = SimProgram::new("synthetic", files.clone());
        let quiet_lint = flit::lint::analyze_program(&quiet);
        prop_assert_eq!(quiet_lint.len(), total_filler);
        prop_assert_eq!(quiet_lint.hazard_count(), 0);

        let base_c = Compilation::baseline();
        let var_c = Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]);
        {
            let baseline = Build::new(&quiet, base_c.clone());
            let variable = Build::tagged(&quiet, var_c.clone(), 1);
            let pred = predict_pair(&baseline, &variable, None, CompilerKind::Gcc);
            prop_assert!(pred.files.is_empty(), "benign filler predicted: {:?}", pred.files);
            prop_assert!(pred.symbols.is_empty());
            prop_assert_eq!(pred.functions_analyzed, total_filler);
        }

        // Now splice sensitive kernels and demand total recall.
        let mut hot_files = Vec::new();
        let mut hot_syms = Vec::new();
        for (k, idx) in hot_at.iter().enumerate() {
            let name = format!("hot_{k}");
            hot_files.push(splice(&mut files, *idx, &name, Kernel::DotMix { stride: 3 }));
            hot_syms.push(name);
        }
        let noisy = SimProgram::new("synthetic", files);
        let baseline = Build::new(&noisy, base_c);
        let variable = Build::tagged(&noisy, var_c, 1);
        let pred = predict_pair(&baseline, &variable, None, CompilerKind::Gcc);
        prop_assert_eq!(pred.functions_analyzed, total_filler + hot_syms.len());
        for fid in &hot_files {
            prop_assert!(
                pred.file_predicted(*fid),
                "spliced file {} not predicted", fid
            );
        }
        for sym in &hot_syms {
            prop_assert!(
                pred.symbol_predicted(sym),
                "spliced symbol {} not predicted", sym
            );
        }
        // Precision stays total on this construction: nothing but the
        // spliced files/symbols may be predicted.
        prop_assert_eq!(pred.files.len(),
            hot_files.iter().collect::<std::collections::BTreeSet<_>>().len());
        prop_assert_eq!(pred.symbols.len(), hot_syms.len());
    }
}

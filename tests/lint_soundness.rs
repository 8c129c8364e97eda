//! Soundness contract of the static prescreen, end to end. The one
//! static analysis is `flit-absint`: its per-kernel realization model is
//! differentially sound, its certificates are total over generated
//! synthetic codebases, and on the paper's Table-2 MFEM fixture a
//! certificate-seeded search reproduces the unseeded findings
//! byte-for-byte while spending strictly fewer Test executions at width
//! 8, a certified-pruned search reproduces the findings with fewer
//! executions, and a mixed-ABI pair speculates nothing.

use proptest::prelude::*;

use flit::bisect::{prescreen_for, LintMode};
use flit::prelude::*;
use flit::program::generate::{filler_files, FillerSpec};
use flit::trace::names::counter;
use flit_absint::realization::same_realization;
use flit_absint::{certify_pair, Certificate};

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

/// The strict environment with exactly one feature flipped, for each
/// of the seven `FpEnv` features.
fn single_flips() -> Vec<(&'static str, FpEnv)> {
    let strict = FpEnv::strict();
    vec![
        (
            "fma",
            FpEnv {
                fma: true,
                ..strict
            },
        ),
        (
            "simd",
            FpEnv {
                simd_width: SimdWidth::W4,
                ..strict
            },
        ),
        (
            "extended",
            FpEnv {
                extended_precision: true,
                ..strict
            },
        ),
        (
            "recip",
            FpEnv {
                reciprocal_math: true,
                ..strict
            },
        ),
        (
            "ftz",
            FpEnv {
                flush_to_zero: true,
                ..strict
            },
        ),
        (
            "mathlib",
            FpEnv {
                mathlib: MathLib::Vendor,
                ..strict
            },
        ),
        (
            "ub",
            FpEnv {
                exploit_ub: true,
                ..strict
            },
        ),
    ]
}

/// Differential soundness of the realization model `flit-absint`'s
/// `Invariant` certificates rest on: whenever a kernel's output changes
/// bitwise under a single-feature environment flip, the model must say
/// the two environments realize the kernel differently. (The converse
/// — a differing realization that happens to give equal bits on one
/// state — is allowed: the model over-approximates.)
#[test]
fn kernel_sensitivity_is_differentially_sound() {
    let strict = FpEnv::strict();
    let mut observed_diffs = 0usize;
    for kernel in kernel_zoo() {
        for (feature, flipped) in single_flips() {
            for salt in [1u64, 17, 4242] {
                let mut a = sample_state(32, salt);
                let mut b = a.clone();
                kernel.eval(&mut a, &strict, None);
                kernel.eval(&mut b, &flipped, None);
                let differs = a.iter().zip(&b).any(|(x, y)| x.to_bits() != y.to_bits());
                if differs {
                    observed_diffs += 1;
                    assert!(
                        !same_realization(&kernel, &strict, &flipped, 32),
                        "{kernel:?} differs under {feature} but the model claims \
                         an identical realization"
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

/// Exact-by-construction kernels really are: the model realizes them
/// identically under every environment, and no single-feature flip may
/// ever move them (this is the precision half for the kernels a
/// certified prune drops).
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
        for (feature, flipped) in single_flips() {
            assert!(
                same_realization(&kernel, &strict, &flipped, 24),
                "{kernel:?} should model as invariant under {feature}"
            );
            let mut a = sample_state(24, 7);
            let mut b = a.clone();
            kernel.eval(&mut a, &strict, None);
            kernel.eval(&mut b, &flipped, None);
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{kernel:?} moved under {feature}"
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

/// The Table-2 MFEM fixture: a certificate-seeded parallel search is
/// byte-identical to the unseeded serial search at widths 1 and 8,
/// and at width 8 it spends strictly fewer Test executions (the
/// speculation filter is the entire point of seeding).
#[test]
fn mfem_seeded_search_is_identical_and_cheaper() {
    let (program, base_c, var_c, driver) = mfem_pair();
    let baseline = Build::new(&program, base_c);
    let variable = Build::tagged(&program, var_c, 1);
    let seed = prescreen_for(
        LintMode::Seed,
        &baseline,
        &variable,
        &driver,
        &HierarchicalConfig::all(),
    )
    .expect("seeding builds a prescreen");
    assert!(seed.certificates.is_none(), "seeding never prunes");

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
        let (seeded, seeded_trace) = run(Some(seed.clone()));

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

/// A mixed-ABI pair (ex13 against `icpc -O2` under the gcc link) is
/// gated: its certificates say nothing about arithmetic, so the seed
/// ranks nothing, and a width-8 seeded search executes exactly the
/// queries of the width-1 unseeded one, with identical findings.
#[test]
fn abi_hazard_pair_seeded_search_speculates_nothing() {
    let (program, base_c, _, driver) = mfem_pair();
    let baseline = Build::new(&program, base_c);
    let variable = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Icpc, OptLevel::O2, vec![]),
        1,
    );
    let run = |mode: LintMode, jobs: usize| {
        let trace = TraceSink::enabled();
        let mut cfg = HierarchicalConfig::all().with_trace(trace.clone());
        cfg.prescreen = prescreen_for(mode, &baseline, &variable, &driver, &cfg);
        if let Some(screen) = &cfg.prescreen {
            assert!(
                screen.file_priority.is_empty(),
                "{:?}",
                screen.file_priority
            );
            assert!(screen.symbol_priority.is_empty());
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
        let executed = trace.snapshot().counter(counter::EXEC_QUERIES_EXECUTED);
        (result, executed)
    };
    let (serial, serial_exec) = run(LintMode::Off, 1);
    let (seeded, seeded_exec) = run(LintMode::Seed, 8);
    assert_eq!(seeded, serial, "seeding must not change findings");
    assert_eq!(
        seeded_exec, serial_exec,
        "an ABI-hazard pair must speculate nothing"
    );
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

/// Soundness on the Table-2 fixture: no file or symbol the dynamic
/// search blames may be certified `Invariant` (recall 1.0 of the
/// non-`Invariant` set, which is what seeding ranks and pruning keeps).
#[test]
fn mfem_audit_recall_is_total() {
    let (program, base_c, var_c, driver) = mfem_pair();
    let certs = certify_pair(
        &program,
        &program,
        &driver,
        &base_c,
        &var_c,
        CompilerKind::Gcc,
    );
    let result = bisect_hierarchical(
        &Build::new(&program, base_c),
        &Build::tagged(&program, var_c, 1),
        &driver,
        INPUT,
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    assert!(!result.files.is_empty(), "fixture must blame files");
    for f in &result.files {
        assert!(
            !certs.file(f.file_id).prunable(),
            "blamed file {} certified Invariant",
            f.file_name
        );
    }
    for s in &result.symbols {
        assert!(
            !certs.symbol(&s.symbol).prunable(),
            "blamed symbol {} certified Invariant",
            s.symbol
        );
    }
}

/// LULESH's kernels are opaque (`Kernel::Custom`), yet an identical
/// pair certifies every item `Invariant` (an opaque body is a
/// deterministic function of state, environment and injection), and an
/// injected body is never certified `Invariant`.
#[test]
fn lulesh_opaque_kernels_certify_under_identical_environments() {
    let program = flit::lulesh::lulesh_program();
    let driver = flit::lulesh::lulesh_driver();
    let comp = Compilation::perf_reference();
    let certs = certify_pair(&program, &program, &driver, &comp, &comp, comp.compiler);
    let (inv, bnd, unk) = certs.counts();
    assert_eq!((bnd, unk), (0, 0), "{certs:?}");
    assert_eq!(inv as usize, certs.files.len() + certs.symbols.len());
    assert_eq!(certs.whole, Certificate::Invariant);

    let mut edited = program.clone();
    let victim = driver.entries[0].clone();
    edited.function_mut(&victim).unwrap().kernel = Kernel::Benign { flavor: 3 };
    let certs = certify_pair(&program, &edited, &driver, &comp, &comp, comp.compiler);
    assert!(!certs.symbol(&victim).prunable(), "{victim} body differs");
    assert!(!certs.whole.prunable());
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

/// A driver entering every exported function of `program`.
fn every_entry(program: &SimProgram) -> Driver {
    let entries = program
        .files
        .iter()
        .flat_map(|f| &f.functions)
        .filter(|f| f.visibility == Visibility::Exported)
        .map(|f| f.name.clone())
        .collect();
    Driver::new("every-entry", entries, 1, 32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The certifier is total over `flit_program::generate` synthetic
    /// codebases — never panics, certifies every file and exported
    /// symbol — and recalls every spliced kernel: filler is `Benign`
    /// (certified `Invariant` everywhere), while spliced `DotMix`
    /// files and symbols are never certified `Invariant` under an
    /// FMA-contracting pair.
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
        let base_c = Compilation::baseline();
        let var_c = Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]);

        // Filler-only program: certified invariant by construction.
        let quiet = SimProgram::new("synthetic", files.clone());
        let exported = quiet
            .files
            .iter()
            .flat_map(|f| &f.functions)
            .filter(|f| f.visibility == Visibility::Exported)
            .count();
        let certs = certify_pair(&quiet, &quiet, &every_entry(&quiet), &base_c, &var_c, CompilerKind::Gcc);
        prop_assert_eq!(certs.files.len(), nfiles);
        prop_assert_eq!(certs.symbols.len(), exported);
        prop_assert!(certs.files.iter().all(Certificate::prunable), "{:?}", certs.files);
        prop_assert!(certs.symbols.values().all(Certificate::prunable));
        prop_assert_eq!(certs.whole, Certificate::Invariant);

        // Now splice sensitive kernels and demand total recall.
        let mut hot_files = Vec::new();
        let mut hot_syms = Vec::new();
        for (k, idx) in hot_at.iter().enumerate() {
            let name = format!("hot_{k}");
            hot_files.push(splice(&mut files, *idx, &name, Kernel::DotMix { stride: 3 }));
            hot_syms.push(name);
        }
        let noisy = SimProgram::new("synthetic", files);
        let certs = certify_pair(&noisy, &noisy, &every_entry(&noisy), &base_c, &var_c, CompilerKind::Gcc);
        prop_assert_eq!(certs.symbols.len(), exported + hot_syms.len());
        for fid in &hot_files {
            prop_assert!(
                !certs.file(*fid).prunable(),
                "spliced file {} certified Invariant", fid
            );
        }
        for sym in &hot_syms {
            prop_assert!(
                !certs.symbol(sym).prunable(),
                "spliced symbol {} certified Invariant", sym
            );
        }
        // Precision stays total on this construction: nothing but the
        // spliced files/symbols may be certified to move.
        let moving_files = certs.files.iter().filter(|c| !c.prunable()).count();
        prop_assert_eq!(moving_files,
            hot_files.iter().collect::<std::collections::BTreeSet<_>>().len());
        prop_assert_eq!(certs.symbols.values().filter(|c| !c.prunable()).count(), hot_syms.len());
    }
}

//! Integration tests pinning the paper's headline claims, end-to-end
//! across all crates. Each test names the section of the paper it
//! checks.

use flit::laghos::experiment::{hunt_xsw_bug, motivation_numbers, table4_baselines, table4_cell};
use flit::mfem::codebase::{mfem_program, stats_of, TABLE3};
use flit::mfem::examples::example_driver;
use flit::prelude::*;

const MFEM_INPUT: [f64; 2] = [0.35, 0.62];

fn bisect_example(program: &SimProgram, ex: usize, comp: Compilation) -> HierarchicalResult {
    let base = Build::new(program, Compilation::baseline());
    let var = Build::tagged(program, comp, 1);
    bisect_hierarchical(
        &base,
        &var,
        &example_driver(ex, 1),
        &MFEM_INPUT,
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    )
}

/// §3 / Table 3: the MFEM codebase statistics match exactly.
#[test]
fn table3_statistics_match() {
    assert_eq!(stats_of(&mfem_program()), TABLE3);
}

/// §3.2 Finding 1: "FLiT Bisect found all nine functions causing the
/// variability for example 8, each performing matrix and vector
/// operations" — under the compilations the paper lists.
#[test]
fn finding1_example8_blames_nine_functions() {
    let program = mfem_program();
    let comp = Compilation::new(
        CompilerKind::Gcc,
        OptLevel::O3,
        vec![Switch::UnsafeMathOptimizations],
    );
    let res = bisect_example(&program, 8, comp);
    assert_eq!(
        res.outcome,
        SearchOutcome::Completed,
        "{:?}",
        res.violations
    );
    assert_eq!(res.symbols.len(), 9, "found {:?}", res.symbols);
    // All of them are matrix/vector operations from the linalg/fem core.
    for s in &res.symbols {
        assert!(
            [
                "Vector_Dot",
                "Vector_Norml2",
                "DenseMatrix_Mult",
                "CGSolver_Mult",
                "Solver_ResidualNorm",
                "MassIntegrator_Assemble",
                "DiffusionIntegrator_Assemble",
                "Geometry_Volume",
                "Quadrature_Integrate",
            ]
            .contains(&s.symbol.as_str()),
            "unexpected blame: {}",
            s.symbol
        );
    }
}

/// §3.2 Finding 2: "FLiT Bisect found only one function to contribute
/// to variability, a function that calculates M = M + a·A·Aᵀ."
#[test]
fn finding2_example13_blames_only_the_rank1_update() {
    let program = mfem_program();
    for comp in [
        Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::Avx2Fma]),
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]),
    ] {
        let res = bisect_example(&program, 13, comp);
        assert_eq!(res.outcome, SearchOutcome::Completed);
        assert_eq!(res.files.len(), 1);
        assert_eq!(res.files[0].file_name, "linalg/densemat.cpp");
        assert_eq!(res.symbols.len(), 1);
        assert_eq!(res.symbols[0].symbol, "DenseMatrix_AddMultAAt");
    }
}

/// §3.2 Finding 2's magnitude: example 13's relative error is enormous
/// (paper: 183–197 %) while typical variable compilations sit near
/// rounding level.
#[test]
fn example13_error_is_catastrophic() {
    let program = mfem_program();
    let tests = flit::mfem::mfem_examples();
    let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
    let comps = vec![
        Compilation::baseline(),
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]),
    ];
    let db = run_matrix(&program, &dyn_tests, &comps, &RunnerConfig::default()).unwrap();
    let ex13 = db
        .rows
        .iter()
        .find(|r| r.test == "ex13" && r.is_variable())
        .expect("ex13 varies under fma");
    let rel = ex13.relative_error();
    assert!(rel > 0.3, "ex13 relative error {rel} should be O(1)");
    let ex03 = db.rows.iter().find(|r| r.test == "ex03" && r.is_variable());
    if let Some(r) = ex03 {
        assert!(r.relative_error() < 1e-8, "typical errors are tiny");
    }
}

/// Figure 5's structure: examples 12 and 18 are invariant under all 244
/// compilations; examples 4, 5, 9, 10 and 15 have no bitwise-equal
/// Intel compilation (link-step variability).
#[test]
fn figure5_missing_bars() {
    let program = mfem_program();
    let tests = flit::mfem::mfem_examples();
    let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
    let db = run_matrix(
        &program,
        &dyn_tests,
        &mfem_matrix(),
        &RunnerConfig::default(),
    )
    .unwrap();

    for invariant in ["ex12", "ex18"] {
        assert_eq!(
            db.for_test(invariant)
                .iter()
                .filter(|r| r.is_variable())
                .count(),
            0,
            "{invariant} must be invariant"
        );
    }
    for (i, test) in db.tests().iter().enumerate() {
        let bars = category_bars(&db, test);
        let icpc_missing = bars.fastest_equal[2].1.is_none();
        let expected = [4usize, 5, 9, 10, 15].contains(&(i + 1));
        assert_eq!(
            icpc_missing, expected,
            "{test}: icpc bitwise-equal bar missing={icpc_missing}, expected {expected}"
        );
    }
}

/// §1 motivating example: ~11 % energy difference, negative density,
/// and a 2–3× speedup from `xlc++ -O2` to `-O3`.
#[test]
fn laghos_motivation() {
    let m = motivation_numbers();
    assert!((5.0..20.0).contains(&m.relative_diff_percent));
    assert!(m.negative_density);
    assert!((1.8..3.0).contains(&(m.seconds_o2 / m.seconds_o3)));
    assert!(m.energy_o2 > 1e5 && m.energy_o2 < 2e5);
}

/// §3.4: the xsw hunt's dominant (NaN-poisoned) findings are exactly
/// the two visible symbols nearest the macro.
#[test]
fn laghos_xsw_hunt() {
    let res = hunt_xsw_bug();
    let mut poisoned: Vec<&str> = res
        .symbols
        .iter()
        .filter(|s| s.value.is_infinite())
        .map(|s| s.symbol.as_str())
        .collect();
    poisoned.sort();
    assert_eq!(poisoned, vec!["Utils_MinMaxReorder", "Utils_SortDofPairs"]);
    // The search stayed cheap (paper: 45 executions).
    assert!(res.executions <= 90, "executions = {}", res.executions);
}

/// Table 4 shape: digit-limited comparisons shrink the found set to one
/// file and one function, and the viscosity gate always tops the list.
#[test]
fn table4_digit_limited_shape() {
    for (label, baseline) in table4_baselines() {
        let cell = table4_cell(&label, &baseline, Some(2), None);
        assert_eq!((cell.files, cell.funcs), (1, 1), "{label}");
        assert!(cell.top_is_viscosity, "{label}");
        let full = table4_cell(&label, &baseline, None, None);
        assert!(
            full.funcs >= 4,
            "{label}: full-precision funcs {}",
            full.funcs
        );
        assert!(full.top_is_viscosity, "{label}");
    }
}

/// §3.5 on a sample: injections are found with perfect precision and
/// recall, and static-function injections surface as indirect finds.
#[test]
fn injection_sample_precision_recall() {
    use flit::inject::enumerate_sites;
    use flit::inject::study::{run_one, Classification, StudyConfig};
    use flit::program::sites::InjectOp;

    let program = flit::lulesh::lulesh_program();
    let cfg = StudyConfig {
        compilation: Compilation::perf_reference(),
        driver: flit::lulesh::lulesh_driver(),
        input: vec![0.53, 0.31],
        seed: 11,
        threads: 1,
    };
    let sites = enumerate_sites(&program);
    assert_eq!(sites.len(), flit::lulesh::LULESH_FP_OPS);
    let mut saw_indirect = false;
    for site in sites.iter().step_by(53) {
        let r = run_one(&program, &cfg, site, InjectOp::Mul, 0.77);
        assert_ne!(r.classification, Classification::Wrong, "{site:?}");
        assert_ne!(r.classification, Classification::Missed, "{site:?}");
        saw_indirect |= r.classification == Classification::Indirect;
    }
    assert!(saw_indirect, "the sample should cross a static function");
}

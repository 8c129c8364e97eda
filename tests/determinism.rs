//! Repo-wide determinism: every experiment is bitwise reproducible
//! across repeated runs and across thread counts. This is both FLiT's
//! own prerequisite (Figure 1) and what makes the benches meaningful.

use flit::prelude::*;

#[test]
fn matrix_sweep_is_bitwise_reproducible() {
    let program = flit::mfem::mfem_program();
    let tests = flit::mfem::mfem_examples();
    let dyn_tests: Vec<&dyn FlitTest> = tests.iter().map(|t| t as &dyn FlitTest).collect();
    // gcc slice of the matrix, twice, with different thread counts.
    let comps = compilation_matrix(CompilerKind::Gcc);
    let a = run_matrix(
        &program,
        &dyn_tests,
        &comps,
        &RunnerConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let b = run_matrix(
        &program,
        &dyn_tests,
        &comps,
        &RunnerConfig {
            threads: 7,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(a.rows.len(), b.rows.len());
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.test, y.test);
        assert_eq!(x.label, y.label);
        assert_eq!(x.comparison.to_bits(), y.comparison.to_bits());
        assert_eq!(x.seconds.map(f64::to_bits), y.seconds.map(f64::to_bits));
        assert_eq!(x.bitwise_equal, y.bitwise_equal);
    }
}

#[test]
fn results_db_survives_json_round_trip_bitwise() {
    let program = flit::laghos::laghos_program(flit::laghos::LaghosVariant::XswFixed);
    let test = DriverTest::new(flit::laghos::laghos_driver(), 2, vec![0.42, 0.77]);
    let tests: Vec<&dyn FlitTest> = vec![&test];
    let comps = compilation_matrix(CompilerKind::Xlc);
    let db = run_matrix(&program, &tests, &comps, &RunnerConfig::default()).unwrap();
    let back = ResultsDb::from_json(&db.to_json()).unwrap();
    assert_eq!(db.rows.len(), back.rows.len());
    for (x, y) in db.rows.iter().zip(&back.rows) {
        assert_eq!(x.comparison.to_bits(), y.comparison.to_bits());
        assert_eq!(x.label, y.label);
    }
}

#[test]
fn hierarchical_bisect_is_reproducible() {
    let program = flit::mfem::mfem_program();
    let base = Build::new(&program, Compilation::baseline());
    let var = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]),
        1,
    );
    let driver = flit::mfem::examples::example_driver(1, 1);
    let run = || {
        bisect_hierarchical(
            &base,
            &var,
            &driver,
            &[0.35, 0.62],
            &l2_compare,
            &HierarchicalConfig::all(),
            &ThreadsBackend::new(1),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.files, b.files);
    assert_eq!(a.symbols, b.symbols);
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.outcome, b.outcome);
}

#[test]
fn injection_study_sample_is_reproducible_across_threads() {
    use flit::inject::study::{run_study, StudyConfig};
    // A reduced program keeps the double study fast.
    let program = flit::lulesh::lulesh_program();
    let mk = |threads| StudyConfig {
        compilation: Compilation::perf_reference(),
        driver: flit::lulesh::lulesh_driver(),
        input: vec![0.53, 0.31],
        seed: 3,
        threads,
    };
    // Restrict to one function's sites by injecting over a slice: run
    // the full summary twice instead (release-mode fast; debug uses the
    // crate-level unit tests). Here: just compare summaries on sampled
    // sub-programs via identical seeds and different thread counts.
    let (_, s1) = run_study(&program, &mk(1));
    let (_, s4) = run_study(&program, &mk(8));
    assert_eq!(s1, s4);
}

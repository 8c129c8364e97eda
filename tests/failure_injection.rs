//! Failure-injection tests: the system's behavior when things go wrong —
//! crashing mixed binaries, assumption violations, undefined symbols,
//! degenerate inputs — must be graceful and honest, never a panic or a
//! silent lie.

use std::collections::BTreeSet;

use flit::bisect::test_fn::{MemoTest, TestError};
use flit::prelude::*;
use flit::program::engine::RunError;

/// A program whose Test function will be driven through a crashing
/// mixed executable (icpc objects in a GNU link).
fn icpc_hazard_program() -> SimProgram {
    SimProgram::new(
        "hazard",
        vec![
            SourceFile::new(
                "a.cpp",
                vec![Function::exported("fa", Kernel::DotMix { stride: 3 })],
            ),
            SourceFile::new("b.cpp", vec![Function::exported("fb", Kernel::NormScale)]),
        ],
    )
}

#[test]
fn crashing_mixed_executables_abort_the_search_honestly() {
    // Find a test-name salt for which the mixed icpc/gcc executable
    // crashes (the hazard is deterministic per (objects, salt)).
    let program = icpc_hazard_program();
    let base = Build::new(&program, Compilation::baseline());
    let var = Build::tagged(
        &program,
        Compilation::new(CompilerKind::Icpc, OptLevel::O2, vec![]),
        1,
    );
    let mut crashed_for: Option<String> = None;
    for i in 0..4000 {
        let name = format!("hazard-{i}");
        let driver = Driver::new(&name, vec!["fa".into(), "fb".into()], 1, 32);
        let set: BTreeSet<usize> = [0usize].into_iter().collect();
        let exe = flit::program::build::file_mixed_executable(&base, &var, &set, CompilerKind::Gcc)
            .unwrap();
        if let Err(RunError::Crash(_)) =
            Engine::with_variant(&program, &program, &exe).run(&driver, &[0.5])
        {
            crashed_for = Some(name);
            break;
        }
    }
    let name = crashed_for.expect("~0.8% of salts crash; 4000 tries must hit one");
    let driver = Driver::new(&name, vec!["fa".into(), "fb".into()], 1, 32);
    let res = bisect_hierarchical(
        &base,
        &var,
        &driver,
        &[0.5],
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    match res.outcome {
        SearchOutcome::Crashed(why) => assert!(why.contains("mixed-ABI"), "{why}"),
        other => panic!("expected a crash outcome, got {other:?}"),
    }
}

#[test]
fn undefined_entry_symbols_are_reported_not_panicked() {
    let program = icpc_hazard_program();
    let build = Build::new(&program, Compilation::baseline());
    let exe = build.executable().unwrap();
    let driver = Driver::new("missing", vec!["does_not_exist".into()], 1, 8);
    assert_eq!(
        Engine::new(&program, &exe).run(&driver, &[]),
        Err(RunError::MissingSymbol("does_not_exist".into()))
    );
}

#[test]
fn zero_round_and_empty_entry_drivers_are_harmless() {
    let program = icpc_hazard_program();
    let build = Build::new(&program, Compilation::baseline());
    let exe = build.executable().unwrap();
    let engine = Engine::new(&program, &exe);
    let no_rounds = Driver::new("no-rounds", vec!["fa".into()], 0, 16);
    let out = engine.run(&no_rounds, &[0.3]).unwrap();
    assert_eq!(out.calls, 0);
    assert_eq!(out.output, no_rounds.init_state(&[0.3]));
    let no_entries = Driver::new("no-entries", vec![], 3, 16);
    let out = engine.run(&no_entries, &[0.3]).unwrap();
    assert_eq!(out.calls, 0);
}

#[test]
fn memoized_crash_results_do_not_rerun() {
    let mut calls = 0usize;
    let mut memo = MemoTest::new(move |items: &[u32]| {
        calls += 1;
        assert!(calls <= 2, "cached crash must not re-execute");
        if items.len() > 1 {
            Err(TestError::Crash("segv".into()))
        } else {
            Ok(0.0)
        }
    });
    assert!(memo.test(&[1, 2]).is_err());
    assert!(memo.test(&[2, 1]).is_err()); // same set, cached
    assert!(memo.test(&[1]).is_ok());
    assert_eq!(memo.executions(), 2);
    assert_eq!(memo.cache_hits(), 1);
}

#[test]
fn workflow_survives_a_link_step_only_app() {
    // An app whose ONLY variability is the vendor math library: the
    // level-3 bisections all end in LinkStepOnly, and the workflow
    // reports that rather than failing.
    use flit::core::workflow::{run_workflow, WorkflowConfig};
    let program = SimProgram::new(
        "transc-only",
        vec![SourceFile::new(
            "t.cpp",
            vec![Function::exported("t", Kernel::TranscMap { freq: 2.0 })],
        )],
    );
    let tests = vec![DriverTest::new(
        Driver::new("t-test", vec!["t".into()], 1, 32),
        1,
        vec![0.5],
    )];
    let comps = vec![
        Compilation::baseline(),
        Compilation::new(CompilerKind::Icpc, OptLevel::O0, vec![]),
    ];
    let report =
        run_workflow(&program, &tests, &comps, &WorkflowConfig::default()).expect("workflow runs");
    assert_eq!(report.bisections.len(), 1);
    assert_eq!(
        report.bisections[0].result.outcome,
        SearchOutcome::LinkStepOnly
    );
}

#[test]
fn nan_poisoned_outputs_keep_comparisons_meaningful() {
    // The UB program under the UB-exploiting compilation: l2 comparisons
    // return infinity (not NaN), so ordering and thresholds still work.
    let program = SimProgram::new(
        "nan-app",
        vec![SourceFile::new(
            "u.cpp",
            vec![
                Function::exported("ub", Kernel::UbSwap),
                Function::exported("follow", Kernel::DotMix { stride: 3 }),
            ],
        )],
    );
    let driver = Driver::new("nan-test", vec!["ub".into(), "follow".into()], 1, 16);
    let base = Build::new(&program, Compilation::baseline());
    let ub = Build::new(
        &program,
        Compilation::new(CompilerKind::Xlc, OptLevel::O3, vec![]),
    );
    let base_out = Engine::new(&program, &base.executable().unwrap())
        .run(&driver, &[0.4])
        .unwrap();
    let ub_out = Engine::new(&program, &ub.executable().unwrap())
        .run(&driver, &[0.4])
        .unwrap();
    assert!(ub_out.output.iter().any(|x| x.is_nan()));
    let cmp = l2_compare(&base_out.output, &ub_out.output);
    assert!(cmp.is_infinite() && cmp > 0.0);
}

#[test]
fn degenerate_programs_build_and_run() {
    // One file, one function, state of size 1.
    let program = SimProgram::new(
        "tiny",
        vec![SourceFile::new(
            "only.cpp",
            vec![Function::exported("only", Kernel::Benign { flavor: 0 })],
        )],
    );
    let build = Build::new(&program, Compilation::perf_reference());
    let exe = build.executable().unwrap();
    let driver = Driver::new("tiny", vec!["only".into()], 1, 1);
    let out = Engine::new(&program, &exe).run(&driver, &[0.5]).unwrap();
    assert_eq!(out.output.len(), 1);
    assert_eq!(out.calls, 1);
    // Bisect over a single file degenerates gracefully.
    let var = Build::tagged(&program, Compilation::perf_reference(), 1);
    let res = bisect_hierarchical(
        &build,
        &var,
        &driver,
        &[0.5],
        &l2_compare,
        &HierarchicalConfig::all(),
        &ThreadsBackend::new(1),
    );
    assert_eq!(res.outcome, SearchOutcome::LinkStepOnly); // no variability at all
    assert!(res.files.is_empty());
}

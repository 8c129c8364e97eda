//! Quickstart: write a FLiT test for your own numerical code, sweep the
//! compilation matrix, and root-cause any variability to a function.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use flit::prelude::*;

fn main() {
    // 1. Your application: source files containing numerical functions.
    //    `DotMix` stands in for a reduction-heavy kernel; the benign
    //    kernels are exact (I/O, mesh handling, data movement).
    let program = SimProgram::new(
        "myapp",
        vec![
            SourceFile::new(
                "physics.cpp",
                vec![
                    Function::exported("integrate_flux", Kernel::DotMix { stride: 5 }),
                    Function::exported("apply_limiter", Kernel::Benign { flavor: 4 }),
                ],
            ),
            SourceFile::new(
                "io.cpp",
                vec![Function::exported(
                    "write_checkpoint",
                    Kernel::Benign { flavor: 6 },
                )],
            ),
        ],
    );

    // 2. A FLiT test: how to run the app (the driver) plus the input.
    //    The default comparison is the MFEM study's ||baseline - actual||2.
    let test = DriverTest::new(
        Driver::new(
            "flux-regression",
            vec![
                "integrate_flux".into(),
                "apply_limiter".into(),
                "write_checkpoint".into(),
            ],
            3,  // time steps
            64, // mesh size
        ),
        2,
        vec![0.4, 0.8],
    );

    // 3. Sweep the full 244-compilation study matrix.
    let tests: Vec<&dyn FlitTest> = vec![&test];
    let db = run_matrix(&program, &tests, &mfem_matrix(), &RunnerConfig::default()).unwrap();
    let variable: Vec<&RunRecord> = db.rows.iter().filter(|r| r.is_variable()).collect();
    println!(
        "swept {} compilations: {} produced variable results",
        db.rows.len(),
        variable.len()
    );
    for compiler in CompilerKind::MFEM_STUDY {
        let s = compiler_summary(&db, compiler);
        println!(
            "  {compiler}: {}/{} variable, best average flags `{}` ({:.3}x vs g++ -O2)",
            s.variable_runs, s.total_runs, s.best_flags, s.best_avg_speedup
        );
    }

    // 4. Pick one variability-inducing compilation and bisect it down to
    //    the responsible file and function.
    let culprit = variable
        .iter()
        .max_by(|a, b| a.comparison.partial_cmp(&b.comparison).unwrap())
        .expect("this kernel varies under unsafe math");
    println!(
        "\nbisecting the worst offender: {} (comparison {:.3e})",
        culprit.label, culprit.comparison
    );

    let baseline = Build::new(&program, Compilation::baseline());
    let variable_build = Build::tagged(&program, culprit.compilation.clone(), 1);
    // Checkpoint the search: every answered Test query is appended to a
    // durable journal, so a killed search resumes where it stopped.
    let journal_path = std::path::Path::new("target/quickstart-journal.jsonl");
    let ledger = QueryLedger::new(program.fingerprint(), &TraceSink::disabled());
    ledger.attach_journal(JournalWriter::create(journal_path, program.fingerprint()).unwrap());
    let pair = format!("{}/{}", test.driver().name, culprit.label);
    let cfg = HierarchicalConfig::all().with_ledger(LedgerHandle::new(ledger.clone(), 1, pair));
    let result = bisect_hierarchical(
        &baseline,
        &variable_build,
        test.driver(),
        &[0.4, 0.8],
        &l2_compare,
        &cfg,
        &ThreadsBackend::new(1),
    );

    assert_eq!(result.outcome, SearchOutcome::Completed);
    for f in &result.files {
        println!("  blamed file:   {} (Test = {:.3e})", f.file_name, f.value);
    }
    for s in &result.symbols {
        println!("  blamed symbol: {} (Test = {:.3e})", s.symbol, s.value);
    }
    println!(
        "  search cost: {} program executions over {} files / {} functions",
        result.executions,
        program.files.len(),
        program.total_functions()
    );
    assert_eq!(result.symbols.len(), 1);
    assert_eq!(result.symbols[0].symbol, "integrate_flux");
    println!(
        "  checkpoint: {} answers journaled to {}",
        ledger.stats().appended,
        journal_path.display()
    );

    // 5. Resume: a fresh process replays the journal instead of
    //    re-running anything — the result is byte-identical.
    let resumed_ledger = QueryLedger::new(program.fingerprint(), &TraceSink::disabled());
    let (writer, records) = JournalWriter::resume(journal_path, program.fingerprint()).unwrap();
    resumed_ledger.preload(&records);
    resumed_ledger.attach_journal(writer);
    let pair = format!("{}/{}", test.driver().name, culprit.label);
    let resumed_cfg =
        HierarchicalConfig::all().with_ledger(LedgerHandle::new(resumed_ledger.clone(), 1, pair));
    let resumed = bisect_hierarchical(
        &baseline,
        &variable_build,
        test.driver(),
        &[0.4, 0.8],
        &l2_compare,
        &resumed_cfg,
        &ThreadsBackend::new(1),
    );
    assert_eq!(resumed, result, "resume must reproduce the search exactly");
    assert_eq!(resumed_ledger.stats().executed, 0);
    println!(
        "  resume: {} journal records replayed, 0 live executions, identical findings",
        resumed_ledger.stats().replayed
    );
    println!("\nquickstart OK: the reduction kernel was correctly blamed.");
}

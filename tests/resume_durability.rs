//! Durable, resumable bisect — end to end. A search killed after any
//! number of answered Test queries leaves a checkpoint journal from
//! which a fresh process resumes to the byte-identical result, at any
//! `--jobs` width; resuming a *completed* journal executes zero live
//! queries; and a multi-compilation workflow deduplicates identical
//! file-level queries across its searches through the shared ledger.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use flit::core::workflow::run_workflow;
use flit::prelude::*;
use flit::trace::names::counter;

/// A small app with two genuinely FP-sensitive kernels in different
/// files (a reduction and an FMA-sensitive smoother) plus benign
/// padding, so the hierarchical search does real multi-level work.
fn fixture() -> SimProgram {
    SimProgram::new(
        "resume-app",
        vec![
            SourceFile::new(
                "kernels.cpp",
                vec![
                    Function::exported("reduce_field", Kernel::DotMix { stride: 3 }),
                    Function::exported("shuffle", Kernel::Benign { flavor: 2 }),
                ],
            ),
            SourceFile::new(
                "smooth.cpp",
                vec![Function::exported(
                    "smooth_field",
                    Kernel::HeatSmooth { steps: 10, r: 0.24 },
                )],
            ),
            SourceFile::new(
                "util.cpp",
                vec![
                    Function::exported("stir", Kernel::Benign { flavor: 1 }),
                    Function::local("scratch", Kernel::Benign { flavor: 0 }),
                ],
            ),
        ],
    )
}

fn fixture_driver() -> Driver {
    Driver::new(
        "t-resume",
        vec![
            "reduce_field".into(),
            "smooth_field".into(),
            "shuffle".into(),
            "stir".into(),
        ],
        2,
        48,
    )
}

const INPUT: &[f64] = &[0.3, 0.7];

fn variable_compilation() -> Compilation {
    Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe])
}

fn tmp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flit-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.jsonl"))
}

/// Run the fixture search at the given width, optionally through a
/// ledger, with the given compare metric. Returns the result, the
/// `bisect.*` execution counters its trace recorded, and the trace's
/// JSONL.
fn run_search(
    program: &SimProgram,
    compare: &(dyn Fn(&[f64], &[f64]) -> f64 + Sync),
    ledger: Option<&std::sync::Arc<QueryLedger>>,
    jobs: usize,
) -> (
    flit::bisect::hierarchy::HierarchicalResult,
    [u64; 4],
    String,
) {
    run_search_on(&TraceSink::enabled(), program, compare, ledger, jobs)
}

/// [`run_search`], recording into `trace`.
fn run_search_on(
    trace: &TraceSink,
    program: &SimProgram,
    compare: &(dyn Fn(&[f64], &[f64]) -> f64 + Sync),
    ledger: Option<&std::sync::Arc<QueryLedger>>,
    jobs: usize,
) -> (
    flit::bisect::hierarchy::HierarchicalResult,
    [u64; 4],
    String,
) {
    let baseline = Build::new(program, Compilation::baseline());
    let variable = Build::tagged(program, variable_compilation(), 1);
    let mut cfg = HierarchicalConfig::all().with_trace(trace.clone());
    if let Some(ledger) = ledger {
        let pair = format!(
            "{}/{}",
            fixture_driver().name,
            variable_compilation().label()
        );
        cfg = cfg.with_ledger(LedgerHandle::new(ledger.clone(), 1, pair));
    }
    let res = bisect_hierarchical(
        &baseline,
        &variable,
        &fixture_driver(),
        INPUT,
        compare,
        &cfg,
        &ThreadsBackend::new(jobs),
    );
    let snap = trace.snapshot();
    let counters = [
        counter::BISECT_REFERENCE_RUNS,
        counter::BISECT_FILE_RUNS,
        counter::BISECT_PROBE_RUNS,
        counter::BISECT_SYMBOL_RUNS,
    ]
    .map(|key| snap.counter(key));
    (res, counters, snap.to_jsonl())
}

/// Per-width gold standard: the uninterrupted, ledger-free result and
/// counters, plus how many distinct queries an uninterrupted *ledgered*
/// run executes (the wave set is deterministic per width).
struct Gold {
    result: flit::bisect::hierarchy::HierarchicalResult,
    counters: [u64; 4],
    executed: u64,
}

fn gold(jobs: usize) -> &'static Gold {
    static GOLD: OnceLock<Vec<(usize, Gold)>> = OnceLock::new();
    let all = GOLD.get_or_init(|| {
        [1usize, 8]
            .into_iter()
            .map(|jobs| {
                let program = fixture();
                let (result, counters, _) = run_search(&program, &l2_compare, None, jobs);
                assert_eq!(
                    result.outcome,
                    SearchOutcome::Completed,
                    "fixture must complete: {result:?}"
                );
                assert!(
                    !result.symbols.is_empty(),
                    "fixture must blame symbols: {result:?}"
                );
                let ledger = QueryLedger::new(program.fingerprint(), &TraceSink::disabled());
                let (ledgered, ..) = run_search(&program, &l2_compare, Some(&ledger), jobs);
                assert_eq!(ledgered, result, "ledger must not change the result");
                let gold = Gold {
                    result,
                    counters,
                    executed: ledger.stats().executed,
                };
                (jobs, gold)
            })
            .collect()
    });
    &all.iter().find(|(j, _)| *j == jobs).unwrap().1
}

/// A compare metric that panics once `budget` calls have been spent —
/// the in-process stand-in for `kill -9` mid-search. The panic unwinds
/// out of an executor job, is caught there, and surfaces as
/// `SearchOutcome::Crashed`; the journal keeps every answer completed
/// before the kill.
fn killing_compare(budget: usize) -> impl Fn(&[f64], &[f64]) -> f64 + Sync {
    let remaining = AtomicUsize::new(budget);
    move |a, b| {
        if remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_err()
        {
            panic!("killed: compare budget exhausted");
        }
        l2_compare(a, b)
    }
}

fn kill_and_resume_roundtrip(k: usize, jobs: usize) {
    let program = fixture();
    let fp = program.fingerprint();
    let path = tmp_journal(&format!("kill-k{k}-j{jobs}"));
    std::fs::remove_file(&path).ok();

    // Phase 1: run under a checkpoint journal and kill after K compares.
    let ledger = QueryLedger::new(fp, &TraceSink::disabled());
    ledger.attach_journal(JournalWriter::create(&path, fp).unwrap());
    let killed = catch_unwind(AssertUnwindSafe(|| {
        run_search(&program, &killing_compare(k), Some(&ledger), jobs).0
    }));
    // Small budgets crash the search (caught on the worker); large ones
    // let it complete. Either way the process — and the journal — live.
    if let Ok(res) = &killed {
        match &res.outcome {
            SearchOutcome::Crashed(why) => {
                assert!(why.contains("panicked"), "unexpected crash: {why}")
            }
            other => assert_eq!(other, &gold(jobs).result.outcome),
        }
    }
    assert!(ledger.journal_error().is_none());
    drop(ledger);

    // Phase 2: a fresh "process" resumes from the journal.
    let resumed_ledger = QueryLedger::new(fp, &TraceSink::disabled());
    let (writer, records) = JournalWriter::resume(&path, fp).unwrap();
    resumed_ledger.preload(&records);
    resumed_ledger.attach_journal(writer);
    let (resumed, counters, _) = run_search(&program, &l2_compare, Some(&resumed_ledger), jobs);

    // Byte-identical to an uninterrupted, ledger-free run: the whole
    // result struct (found sets, f64 bits, executions, violations) and
    // the per-level bisect.* counters.
    let gold = gold(jobs);
    assert_eq!(resumed, gold.result, "k={k} jobs={jobs}");
    assert_eq!(counters, gold.counters, "k={k} jobs={jobs}");

    // Physical accounting: the journal replayed exactly its records,
    // and replay + live execution add up to the deterministic per-width
    // query set — no query is ever run twice across the two phases.
    let stats = resumed_ledger.stats();
    assert_eq!(stats.replayed, records.len() as u64, "k={k} jobs={jobs}");
    assert_eq!(
        stats.executed + stats.replayed,
        gold.executed,
        "k={k} jobs={jobs}: replay + live must cover the query set once"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn killed_immediately_resumes_to_the_identical_result() {
    kill_and_resume_roundtrip(0, 1);
    kill_and_resume_roundtrip(0, 8);
}

#[test]
fn resuming_a_completed_journal_executes_nothing() {
    let program = fixture();
    let fp = program.fingerprint();
    for jobs in [1usize, 8] {
        let path = tmp_journal(&format!("complete-j{jobs}"));
        std::fs::remove_file(&path).ok();
        let ledger = QueryLedger::new(fp, &TraceSink::disabled());
        ledger.attach_journal(JournalWriter::create(&path, fp).unwrap());
        let (first, ..) = run_search(&program, &l2_compare, Some(&ledger), jobs);
        assert_eq!(first, gold(jobs).result);
        let appended = ledger.stats().appended;
        assert!(appended > 0);
        drop(ledger);

        let resumed_ledger = QueryLedger::new(fp, &TraceSink::disabled());
        let (writer, records) = JournalWriter::resume(&path, fp).unwrap();
        assert_eq!(records.len() as u64, appended);
        resumed_ledger.preload(&records);
        resumed_ledger.attach_journal(writer);
        let (resumed, counters, _) = run_search(&program, &l2_compare, Some(&resumed_ledger), jobs);
        assert_eq!(resumed, gold(jobs).result, "jobs={jobs}");
        assert_eq!(counters, gold(jobs).counters, "jobs={jobs}");
        let stats = resumed_ledger.stats();
        assert_eq!(stats.executed, 0, "jobs={jobs}: everything must replay");
        assert_eq!(stats.appended, 0, "jobs={jobs}: nothing new to journal");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_search_without_a_ledger_answers_through_a_fresh_one() {
    // No caller ledger means a private one on the search's trace: the
    // result and the whole trace equal a run handed a fresh ledger.
    let program = fixture();
    for jobs in [1usize, 8] {
        let (plain, _, plain_jsonl) = run_search(&program, &l2_compare, None, jobs);
        let trace = TraceSink::enabled();
        let ledger = QueryLedger::new(program.fingerprint(), &trace);
        let (fresh, _, fresh_jsonl) =
            run_search_on(&trace, &program, &l2_compare, Some(&ledger), jobs);
        assert_eq!(plain, fresh, "jobs={jobs}");
        assert_eq!(plain_jsonl, fresh_jsonl, "jobs={jobs}");
    }
}

#[test]
fn workflow_searches_deduplicate_shared_queries() {
    // Two variable compilations of the same test share the reference
    // run and the all-baseline Test(∅) query; the workflow-wide ledger
    // must execute those once and serve the rest as shared hits.
    let program = fixture();
    let tests = vec![DriverTest::new(fixture_driver(), 2, INPUT.to_vec())];
    let comps = vec![
        Compilation::baseline(),
        variable_compilation(),
        Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::FastMath]),
        Compilation::new(
            CompilerKind::Clang,
            OptLevel::O3,
            vec![Switch::Avx2FmaUnsafe],
        ),
    ];
    let trace = TraceSink::enabled();
    let ledger = QueryLedger::new(program.fingerprint(), &trace);
    let cfg = flit::core::workflow::WorkflowConfig {
        trace: trace.clone(),
        ledger: Some(ledger.clone()),
        ..Default::default()
    };
    let report = run_workflow(&program, &tests, &comps, &cfg).expect("workflow runs");
    assert!(
        report.bisections.len() >= 2,
        "need at least two searches to share queries: {}",
        report.bisections.len()
    );
    let logical: usize = report.bisections.iter().map(|b| b.result.executions).sum();
    let stats = ledger.stats();
    assert!(stats.shared_hits > 0, "no cross-search sharing: {stats:?}");
    assert!(stats.executed > 0, "{stats:?}");
    assert!(
        (stats.executed as usize) < logical,
        "dedup must strictly reduce physical executions: {} executed vs {logical} logical",
        stats.executed
    );
    // The physical counters surface on the workflow trace for `flit
    // trace` (the Resume & dedup table).
    let snap = trace.snapshot();
    assert_eq!(
        snap.counter(counter::EXEC_QUERIES_SHARED_HITS),
        stats.shared_hits
    );
}

#[test]
fn resuming_under_a_different_program_is_a_structured_error() {
    let program = fixture();
    let fp = program.fingerprint();
    let path = tmp_journal("fingerprint-mismatch");
    std::fs::remove_file(&path).ok();
    let ledger = QueryLedger::new(fp, &TraceSink::disabled());
    ledger.attach_journal(JournalWriter::create(&path, fp).unwrap());
    run_search(&program, &l2_compare, Some(&ledger), 1);
    drop(ledger);
    let err = JournalWriter::resume(&path, fp ^ 1).unwrap_err();
    assert!(
        matches!(err, JournalError::FingerprintMismatch { .. }),
        "{err:?}"
    );
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill after K answered compares, for arbitrary K at both widths:
    /// the resumed search is byte-identical to an uninterrupted one.
    #[test]
    fn kill_and_resume_is_byte_identical_for_any_k(k in 0usize..48, wide in any::<bool>()) {
        kill_and_resume_roundtrip(k, if wide { 8 } else { 1 });
    }
}

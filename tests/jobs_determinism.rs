//! The planner/backend determinism contract, end to end: every search
//! result — found sets, execution counts, traces, violations — is
//! byte-identical whether the frontier is evaluated on a width-1 (the
//! serial search) or a wider threads backend, and the planner's
//! frontier never goes empty before the search completes (no
//! deadlocks), for arbitrary weight maps. The planner's unit tests pin
//! width 1 against the verbatim reference loops.

use std::collections::BTreeMap;

use proptest::prelude::*;

use flit::bisect::planner::{PlanStep, Query};
use flit::prelude::*;

fn weighted(weights: Vec<(u32, f64)>) -> impl Fn(&[u32]) -> Result<f64, TestError> + Sync {
    move |items: &[u32]| {
        Ok(items
            .iter()
            .map(|i| {
                weights
                    .iter()
                    .find(|(w, _)| w == i)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0)
            })
            .sum())
    }
}

/// Assert full byte-equality of two outcomes, including the f64 bit
/// patterns and the Figure-2 trace rows.
fn assert_outcomes_identical(
    a: &flit::bisect::algo::BisectOutcome<u32>,
    b: &flit::bisect::algo::BisectOutcome<u32>,
    context: &str,
) {
    assert_eq!(a.executions, b.executions, "{context}: executions");
    assert_eq!(a.found.len(), b.found.len(), "{context}: found length");
    for ((ia, va), (ib, vb)) in a.found.iter().zip(&b.found) {
        assert_eq!(ia, ib, "{context}: found item");
        assert_eq!(va.to_bits(), vb.to_bits(), "{context}: found value bits");
    }
    assert_eq!(a.trace.len(), b.trace.len(), "{context}: trace length");
    for (ra, rb) in a.trace.iter().zip(&b.trace) {
        assert_eq!(ra.tested, rb.tested, "{context}: trace tested set");
        assert_eq!(ra.space, rb.space, "{context}: trace search space");
        assert_eq!(
            ra.value.to_bits(),
            rb.value.to_bits(),
            "{context}: trace value bits"
        );
    }
    assert_eq!(
        format!("{:?}", a.violations),
        format!("{:?}", b.violations),
        "{context}: violations"
    );
}

#[test]
fn figure_2_search_is_identical_at_jobs_1_and_8() {
    // The paper's running example: find {2, 8, 9} among 1..=10.
    let items: Vec<u32> = (1..=10).collect();
    let weights = vec![(2u32, 0.25), (8, 1.5), (9, 0.125)];
    let serial = bisect_all(weighted(weights.clone()), &items, &ThreadsBackend::new(1)).unwrap();
    for jobs in [2, 8] {
        let par = bisect_all(
            weighted(weights.clone()),
            &items,
            &ThreadsBackend::new(jobs),
        )
        .unwrap();
        assert_outcomes_identical(&par, &serial, &format!("figure-2 jobs={jobs}"));
        assert!(par.verified());
    }
}

#[test]
fn coupled_fixture_reports_the_same_violation_at_any_width() {
    // Two elements that only matter together: Assumption 2 fails; the
    // parallel search must report the identical SingletonBlame
    // violation and the identical (empty) found set.
    let items: Vec<u32> = (0..16).collect();
    let coupled = |items: &[u32]| -> Result<f64, TestError> {
        Ok(if items.contains(&3) && items.contains(&12) {
            1.0
        } else {
            0.0
        })
    };
    let serial = bisect_all(coupled, &items, &ThreadsBackend::new(1)).unwrap();
    assert!(!serial.verified());
    for jobs in [2, 8] {
        let par = bisect_all(coupled, &items, &ThreadsBackend::new(jobs)).unwrap();
        assert_outcomes_identical(&par, &serial, &format!("coupled jobs={jobs}"));
    }
}

#[test]
fn masked_fixture_reports_the_same_violation_at_any_width() {
    // Element 9 contributes only when 2 is absent: Assumption 1
    // territory. Whatever the serial algorithm concludes, the parallel
    // one must conclude byte-identically.
    let items: Vec<u32> = (0..16).collect();
    let masking = |items: &[u32]| -> Result<f64, TestError> {
        if items.contains(&2) {
            Ok(5.0)
        } else if items.contains(&9) {
            Ok(1.0)
        } else {
            Ok(0.0)
        }
    };
    let serial = bisect_all(masking, &items, &ThreadsBackend::new(1)).unwrap();
    for jobs in [2, 8] {
        let par = bisect_all(masking, &items, &ThreadsBackend::new(jobs)).unwrap();
        assert_outcomes_identical(&par, &serial, &format!("masked jobs={jobs}"));
    }
}

#[test]
fn biggest_is_identical_at_jobs_1_and_8() {
    let items: Vec<u32> = (0..128).collect();
    let weights = vec![(3u32, 1.0), (60, 8.0), (100, 2.0), (17, 0.25)];
    for k in [1, 3] {
        let serial = bisect_biggest(
            weighted(weights.clone()),
            &items,
            k,
            &ThreadsBackend::new(1),
        )
        .unwrap();
        for jobs in [2, 8] {
            let par = bisect_biggest(
                weighted(weights.clone()),
                &items,
                k,
                &ThreadsBackend::new(jobs),
            )
            .unwrap();
            assert_outcomes_identical(&par, &serial, &format!("biggest k={k} jobs={jobs}"));
        }
    }
}

/// The mfem ex13 fixture shared by the hierarchy tests below.
fn mfem_ex13() -> (SimProgram, Compilation, Driver) {
    let variable = Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2Fma]);
    let driver = flit::mfem::examples::example_driver(13, 1);
    (flit::mfem::mfem_program(), variable, driver)
}

#[test]
fn mfem_hierarchy_is_identical_at_jobs_1_and_8() {
    // The full File → Symbol search on a real study program: the entire
    // HierarchicalResult struct must match the width-1 (serial) search.
    let (program, variable, driver) = mfem_ex13();
    let baseline = Build::new(&program, Compilation::baseline());
    let variable = Build::tagged(&program, variable, 1);
    let cfg = HierarchicalConfig::all();
    let run = |jobs: usize| {
        bisect_hierarchical(
            &baseline,
            &variable,
            &driver,
            &[0.35, 0.62],
            &l2_compare,
            &cfg,
            &ThreadsBackend::new(jobs),
        )
    };
    let serial = run(1);
    assert_eq!(run(8), serial, "mfem ex13 jobs=8 vs jobs=1");
}

#[test]
fn mfem_hierarchy_at_width_1_runs_only_the_serial_walk() {
    // Width 1 runs every query inline with no speculation, so a fresh
    // ledger executes — and its journal records — exactly the queries
    // the serial recursion asks for. The literals are the counts that
    // recursion (reference run, file level, probes, symbol level)
    // performs on this fixture.
    let (program, variable, driver) = mfem_ex13();
    let fp = program.fingerprint();
    let baseline = Build::new(&program, Compilation::baseline());
    let variable = Build::tagged(&program, variable, 1);
    let dir = std::env::temp_dir().join(format!("flit-jobs-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("width1.jsonl");
    std::fs::remove_file(&path).ok();
    let ledger = QueryLedger::new(fp, &TraceSink::disabled());
    ledger.attach_journal(JournalWriter::create(&path, fp).unwrap());
    let cfg = HierarchicalConfig::all().with_ledger(LedgerHandle::new(ledger.clone(), 1, "ex13"));
    let res = bisect_hierarchical(
        &baseline,
        &variable,
        &driver,
        &[0.35, 0.62],
        &l2_compare,
        &cfg,
        &ThreadsBackend::new(1),
    );
    assert_eq!(res.executions, 15, "{res:?}");
    assert!(ledger.journal_error().is_none());
    assert_eq!(ledger.stats().executed, 15, "{:?}", ledger.stats());
    drop(cfg);
    drop(ledger);
    assert_eq!(load_journal(&path, fp).unwrap().len(), 15);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The planner never deadlocks: stepping a plan either finishes it
    /// or yields a frontier whose head is a *required*, unanswered
    /// query — so a driver that answers only required queries always
    /// makes progress and terminates, for arbitrary weight maps.
    #[test]
    fn planner_frontier_never_deadlocks(
        n in 2usize..64,
        raw in prop::collection::btree_set(0u32..64, 0..6),
    ) {
        // Powers of two keep subset sums distinct (Assumption 1).
        let weights: BTreeMap<u32, f64> = raw
            .into_iter()
            .filter(|i| (*i as usize) < n)
            .enumerate()
            .map(|(rank, i)| (i, 2f64.powi(rank as i32)))
            .collect();
        let items: Vec<u32> = (0..n as u32).collect();
        let mut plan = BisectPlan::new(&items, SearchMode::All);
        // Generous bound: every answered query strictly grows the
        // answer table, whose keys are subsets the serial algorithm
        // visits — far fewer than 16 n.
        let mut budget = 16 * n + 64;
        loop {
            match plan.step() {
                PlanStep::Done(result) => {
                    let outcome = result.expect("weighted tests never crash").outcome;
                    let found: Vec<u32> =
                        outcome.found.iter().map(|(i, _)| *i).collect();
                    let expected: Vec<u32> = weights.keys().copied().collect();
                    prop_assert_eq!(found, expected);
                    break;
                }
                PlanStep::Frontier(queries) => {
                    prop_assert!(!queries.is_empty(), "empty frontier before Done");
                    let head: &Query<u32> = &queries[0];
                    prop_assert!(head.required, "frontier head must be required");
                    prop_assert!(
                        !plan.is_answered(&head.items),
                        "frontier head already answered: no progress possible"
                    );
                    let value: f64 = head
                        .items
                        .iter()
                        .map(|i| weights.get(i).copied().unwrap_or(0.0))
                        .sum();
                    plan.answer(&head.items, Ok((value, 0.0)));
                }
            }
            budget -= 1;
            prop_assert!(budget > 0, "planner did not terminate within budget");
        }
    }
}

//! Property-based tests for the Bisect algorithms: exactness under the
//! paper's two assumptions, violation detection when they fail, and
//! cost accounting.

use std::collections::BTreeSet;

use proptest::prelude::*;

use flit_bisect::algo::{bisect_all, bisect_all_unpruned, AssumptionViolation};
use flit_bisect::baselines::linear_search;
use flit_bisect::biggest::bisect_biggest;
use flit_bisect::test_fn::{MemoTest, TestError};
use flit_exec::ThreadsBackend;

fn weighted(weights: Vec<(u32, f64)>) -> impl Fn(&[u32]) -> Result<f64, TestError> + Sync {
    move |items: &[u32]| {
        Ok(items
            .iter()
            .map(|i| {
                weights
                    .iter()
                    .find(|(w, _)| w == i)
                    .map_or(0.0, |(_, v)| *v)
            })
            .sum())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Memoization: for any call sequence over subsets, executions equal
    /// the number of *distinct* subsets queried.
    #[test]
    fn memoization_counts_distinct_subsets(queries in prop::collection::vec(prop::collection::vec(0u32..12, 0..6), 1..40)) {
        let mut t = MemoTest::new(|items: &[u32]| Ok::<f64, TestError>(items.len() as f64));
        let mut distinct: BTreeSet<Vec<u32>> = BTreeSet::new();
        for q in &queries {
            let mut canon = q.clone();
            canon.sort();
            canon.dedup();
            distinct.insert(canon);
            let _ = t.test(q).unwrap();
        }
        prop_assert_eq!(t.executions(), distinct.len());
    }

    /// Pruned and unpruned BisectAll agree on the found set. The pruned
    /// variant is usually cheaper, but NOT always: memoization makes the
    /// unpruned variant's re-bisections through already-seen subsets
    /// free, while pruning produces fresh, cache-unaligned subsets — so
    /// the honest property is a small additive envelope, not dominance.
    #[test]
    fn pruning_stays_within_an_additive_envelope(raw in prop::collection::btree_set(0u32..200, 0..10), n in 8usize..200) {
        let weights: Vec<(u32, f64)> = raw
            .into_iter()
            .filter(|&i| (i as usize) < n)
            .enumerate()
            .map(|(rank, i)| (i, 2f64.powi(rank as i32)))
            .collect();
        let items: Vec<u32> = (0..n as u32).collect();
        let pruned = bisect_all(weighted(weights.clone()), &items, &ThreadsBackend::new(1)).unwrap();
        let unpruned = bisect_all_unpruned(weighted(weights), &items, &ThreadsBackend::new(1)).unwrap();
        let norm = |o: &flit_bisect::algo::BisectOutcome<u32>| -> BTreeSet<u32> {
            o.found.iter().map(|(i, _)| *i).collect()
        };
        prop_assert_eq!(norm(&pruned), norm(&unpruned));
        let log_n = (usize::BITS - n.leading_zeros()) as usize;
        prop_assert!(
            pruned.executions <= unpruned.executions + 2 * log_n + 2,
            "pruned {} vs unpruned {}",
            pruned.executions,
            unpruned.executions
        );
    }

    /// Coupled elements (Assumption 2 violated) are always *detected*:
    /// either flagged as a violation or fully found — never a silent
    /// false negative with a passing verification.
    #[test]
    fn coupled_pairs_never_fail_silently(a in 0u32..64, b in 0u32..64) {
        prop_assume!(a != b);
        let coupled = move |items: &[u32]| -> Result<f64, TestError> {
            Ok(if items.contains(&a) && items.contains(&b) { 1.0 } else { 0.0 })
        };
        let items: Vec<u32> = (0..64).collect();
        let out = bisect_all(coupled, &items, &ThreadsBackend::new(1)).unwrap();
        let found: BTreeSet<u32> = out.found.iter().map(|(i, _)| *i).collect();
        let complete = found.contains(&a) && found.contains(&b);
        prop_assert!(
            complete || !out.verified(),
            "incomplete result {found:?} with a passing verification"
        );
    }

    /// A masking metric (Assumption 1 violated: a dominant element hides
    /// another) is likewise never silent.
    #[test]
    fn masking_never_fails_silently(a in 0u32..64, b in 0u32..64) {
        prop_assume!(a != b);
        let masking = move |items: &[u32]| -> Result<f64, TestError> {
            if items.contains(&a) { Ok(7.0) } else if items.contains(&b) { Ok(1.0) } else { Ok(0.0) }
        };
        let items: Vec<u32> = (0..64).collect();
        let out = bisect_all(masking, &items, &ThreadsBackend::new(1)).unwrap();
        let found: BTreeSet<u32> = out.found.iter().map(|(i, _)| *i).collect();
        let complete = found.contains(&a) && found.contains(&b);
        prop_assert!(complete || !out.verified());
        if !out.verified() {
            let flagged = out.violations.iter().any(|v| matches!(
                v,
                AssumptionViolation::UniqueError { .. } | AssumptionViolation::SingletonBlame { .. }
            ));
            prop_assert!(flagged);
        }
    }

    /// BisectBiggest(k) with k ≥ #variable equals BisectAll's set.
    #[test]
    fn biggest_with_large_k_finds_all(raw in prop::collection::btree_set(0u32..100, 1..6)) {
        let weights: Vec<(u32, f64)> = raw
            .into_iter()
            .enumerate()
            .map(|(rank, i)| (i, 2f64.powi(rank as i32)))
            .collect();
        let items: Vec<u32> = (0..100).collect();
        let all = linear_search(weighted(weights.clone()), &items).unwrap();
        let big = bisect_biggest(weighted(weights), &items, 100, &ThreadsBackend::new(1)).unwrap();
        let norm = |o: &flit_bisect::algo::BisectOutcome<u32>| -> BTreeSet<u32> {
            o.found.iter().map(|(i, _)| *i).collect()
        };
        prop_assert_eq!(norm(&all), norm(&big));
    }

    /// Crashes abort cleanly from any algorithm (no panic, no partial
    /// lies): the error propagates.
    #[test]
    fn crashes_propagate_from_every_algorithm(crash_at in 1usize..32) {
        let crashy = move |items: &[u32]| -> Result<f64, TestError> {
            if items.len() == crash_at {
                Err(TestError::Crash("segv".into()))
            } else {
                Ok(if items.contains(&17) { 1.0 } else { 0.0 })
            }
        };
        let items: Vec<u32> = (0..32).collect();
        // Each algorithm either completes (if it never queries a subset
        // of the crashing size) or returns the crash — never panics.
        let _ = bisect_all(crashy, &items, &ThreadsBackend::new(1));
        let _ = bisect_all_unpruned(crashy, &items, &ThreadsBackend::new(1));
        let _ = bisect_biggest(crashy, &items, 2, &ThreadsBackend::new(1));
        let _ = linear_search(crashy, &items);
    }
}

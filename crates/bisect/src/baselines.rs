//! Baseline search algorithms for the complexity comparisons of §2.2
//! and §2.4: Zeller–Hildebrandt delta debugging (`ddmin`) and a plain
//! linear scan.
//!
//! Bisect is O(k·log N); delta debugging is O(k²·log N); linear search
//! is always O(N). "If k is proportional to N (which for this problem we
//! have not seen to be the case), then a linear search may outperform
//! both" — the Criterion benches reproduce exactly this crossover.

use crate::algo::BisectOutcome;
use crate::test_fn::{MemoTest, TestError, TestFn};

/// `ddmin` (Zeller & Hildebrandt 2002), adapted to the paper's setting
/// via `Test′(Y) ≜ [Test(Y) = Test(U)]` (§2.4, Theorem 1): finds the
/// unique minimal subset reproducing the full-set metric.
pub fn ddmin<I, F>(test_fn: F, items: &[I]) -> Result<BisectOutcome<I>, TestError>
where
    I: Clone + Ord + std::hash::Hash,
    F: TestFn<I>,
{
    let mut test = MemoTest::new(test_fn);
    let target = test.test(items)?;
    if target.is_nan() || target <= 0.0 {
        return Ok(BisectOutcome {
            found: vec![],
            executions: test.executions(),
            violations: vec![],
            trace: vec![],
        });
    }

    let mut current: Vec<I> = items.to_vec();
    let mut n = 2usize;

    'outer: while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let subsets: Vec<Vec<I>> = current.chunks(chunk).map(<[I]>::to_vec).collect();

        // Reduce to subset.
        for s in &subsets {
            if test.test(s)? == target {
                current = s.clone();
                n = 2;
                continue 'outer;
            }
        }
        // Reduce to complement.
        if subsets.len() > 2 {
            for (i, _) in subsets.iter().enumerate() {
                let complement: Vec<I> = subsets
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .flat_map(|(_, s)| s.clone())
                    .collect();
                if test.test(&complement)? == target {
                    current = complement;
                    n = (n - 1).max(2);
                    continue 'outer;
                }
            }
        }
        // Increase granularity.
        if n >= current.len() {
            break;
        }
        n = (2 * n).min(current.len());
    }

    let found = current
        .iter()
        .map(|i| {
            let v = test.test(std::slice::from_ref(i))?;
            Ok((i.clone(), v))
        })
        .collect::<Result<Vec<_>, TestError>>()?;

    Ok(BisectOutcome {
        found,
        executions: test.executions(),
        violations: vec![],
        trace: vec![],
    })
}

/// Linear scan: test every singleton. O(N) executions, trivially finds
/// all individually variable elements (under Assumption 2).
pub fn linear_search<I, F>(test_fn: F, items: &[I]) -> Result<BisectOutcome<I>, TestError>
where
    I: Clone + Ord + std::hash::Hash,
    F: TestFn<I>,
{
    let mut test = MemoTest::new(test_fn);
    let mut found = Vec::new();
    for i in items {
        let v = test.test(std::slice::from_ref(i))?;
        if v > 0.0 {
            found.push((i.clone(), v));
        }
    }
    Ok(BisectOutcome {
        found,
        executions: test.executions(),
        violations: vec![],
        trace: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bisect_all;
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

    #[test]
    fn ddmin_finds_the_minimal_set() {
        let items: Vec<u32> = (0..64).collect();
        let out = ddmin(weighted(vec![(7, 1.0), (42, 2.5)]), &items).unwrap();
        let mut found: Vec<u32> = out.found.iter().map(|(i, _)| *i).collect();
        found.sort();
        assert_eq!(found, vec![7, 42]);
    }

    #[test]
    fn ddmin_on_clean_input_finds_nothing() {
        let items: Vec<u32> = (0..32).collect();
        let out = ddmin(weighted(vec![]), &items).unwrap();
        assert!(out.found.is_empty());
        assert_eq!(out.executions, 1);
    }

    #[test]
    fn linear_finds_everything_in_exactly_n() {
        let items: Vec<u32> = (0..100).collect();
        let out = linear_search(weighted(vec![(3, 1.0), (77, 0.5)]), &items).unwrap();
        assert_eq!(out.found.len(), 2);
        assert_eq!(out.executions, 100);
    }

    #[test]
    fn bisect_beats_ddmin_beats_linear_for_small_k() {
        let weights: Vec<(u32, f64)> = vec![(100, 1.0), (900, 2.0)];
        let items: Vec<u32> = (0..1024).collect();
        let b = bisect_all(weighted(weights.clone()), &items, &ThreadsBackend::new(1)).unwrap();
        let d = ddmin(weighted(weights.clone()), &items).unwrap();
        let l = linear_search(weighted(weights), &items).unwrap();
        // All three agree on the answer…
        let norm = |o: &BisectOutcome<u32>| {
            let mut v: Vec<u32> = o.found.iter().map(|(i, _)| *i).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&b), vec![100, 900]);
        assert_eq!(norm(&d), vec![100, 900]);
        assert_eq!(norm(&l), vec![100, 900]);
        // …and the cost ordering matches the complexity analysis.
        assert!(
            b.executions < d.executions,
            "{} vs {}",
            b.executions,
            d.executions
        );
        assert!(
            d.executions < l.executions,
            "{} vs {}",
            d.executions,
            l.executions
        );
    }

    #[test]
    fn linear_wins_when_k_is_proportional_to_n() {
        // §2.4's caveat: with half the elements variable, O(N) linear
        // search beats O(k log N) = O(N log N) bisect.
        let weights: Vec<(u32, f64)> = (0..64).map(|j| (j * 2, 1.0 + j as f64)).collect();
        let items: Vec<u32> = (0..128).collect();
        let b = bisect_all(weighted(weights.clone()), &items, &ThreadsBackend::new(1)).unwrap();
        let l = linear_search(weighted(weights), &items).unwrap();
        assert_eq!(b.found.len(), 64);
        assert_eq!(l.found.len(), 64);
        assert!(
            l.executions < b.executions,
            "{} vs {}",
            l.executions,
            b.executions
        );
    }
}

//! `BisectBiggest` (§2.5): uniform-cost search for the `k` biggest
//! contributors.
//!
//! "This variant is based on Uniform Cost Search and can exit early.
//! … When a file or symbol is found to have a smaller Test value than
//! the kth found symbol's Test value, it exits early. It is not able to
//! dynamically verify assumptions, but can significantly improve
//! performance if only the top few most contributing functions are
//! desired."

use std::cmp::Ordering;
use std::hash::Hash;

use flit_exec::ExecBackend;

use crate::algo::BisectOutcome;
use crate::parallel::drive_flat;
use crate::planner::{BisectPlan, SearchMode};
use crate::test_fn::TestError;

/// A frontier node: a subset with its Test value, ordered by value.
/// The planner's replay engine pops nodes in exactly this order.
pub(crate) struct Node<I> {
    pub(crate) value: f64,
    pub(crate) items: Vec<I>,
}

impl<I> PartialEq for Node<I> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value && self.items.len() == other.items.len()
    }
}
impl<I> Eq for Node<I> {}
impl<I> PartialOrd for Node<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<I> Ord for Node<I> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on value; ties prefer smaller subsets (closer to a
        // singleton find).
        self.value
            .partial_cmp(&other.value)
            .unwrap_or(Ordering::Equal)
            .then(other.items.len().cmp(&self.items.len()))
    }
}

/// Find up to `k` elements with the largest singleton Test values.
///
/// Uniform-cost search: repeatedly expand the frontier subset with the
/// largest metric; a singleton popped from the frontier is a find. Exits
/// early once the best frontier value no longer beats the k-th find.
///
/// The UCS loop above lives in the planner's replay engine (sharing
/// this module's `Node` ordering), driven on `backend`:
/// `ThreadsBackend::new(1)` asks `test_fn` the serial call sequence,
/// both halves of an expansion in one wave; wider backends also
/// evaluate the speculative frontier concurrently, with a
/// byte-identical outcome (see
/// `planner::tests::biggest_replay_matches_reference_ucs`). A
/// panicking `test_fn` surfaces as [`TestError::Crash`].
pub fn bisect_biggest<I, F>(
    test_fn: F,
    items: &[I],
    k: usize,
    backend: &dyn ExecBackend,
) -> Result<BisectOutcome<I>, TestError>
where
    I: Clone + Ord + Hash + Send + Sync,
    F: Fn(&[I]) -> Result<f64, TestError> + Sync,
{
    drive_flat(
        BisectPlan::new(items, SearchMode::Biggest(k)),
        test_fn,
        backend,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_exec::ThreadsBackend;

    fn serial() -> ThreadsBackend {
        ThreadsBackend::new(1)
    }

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
    fn finds_the_single_biggest() {
        let items: Vec<u32> = (0..256).collect();
        let out = bisect_biggest(
            weighted(vec![(10, 0.5), (99, 4.0), (200, 1.5)]),
            &items,
            1,
            &serial(),
        )
        .unwrap();
        assert_eq!(out.found.len(), 1);
        assert_eq!(out.found[0], (99, 4.0));
    }

    #[test]
    fn finds_top_k_in_order() {
        let items: Vec<u32> = (0..128).collect();
        let out = bisect_biggest(
            weighted(vec![(3, 1.0), (60, 8.0), (100, 2.0), (17, 0.25)]),
            &items,
            3,
            &serial(),
        )
        .unwrap();
        let found: Vec<(u32, f64)> = out.found.clone();
        assert_eq!(found, vec![(60, 8.0), (100, 2.0), (3, 1.0)]);
    }

    #[test]
    fn k_larger_than_contributors_finds_all() {
        let items: Vec<u32> = (0..64).collect();
        let out =
            bisect_biggest(weighted(vec![(5, 1.0), (50, 2.0)]), &items, 10, &serial()).unwrap();
        assert_eq!(out.found.len(), 2);
    }

    #[test]
    fn early_exit_beats_full_bisect_for_small_k() {
        // Many contributors, but we only want the top one: UCS should
        // spend fewer executions than finding all of them.
        let weights: Vec<(u32, f64)> = (0..16).map(|j| (j * 61 + 7, 1.0 + j as f64)).collect();
        let items: Vec<u32> = (0..1024).collect();
        let top1 = bisect_biggest(weighted(weights.clone()), &items, 1, &serial()).unwrap();
        assert_eq!(top1.found.len(), 1);
        assert_eq!(top1.found[0].1, 16.0);
        let all = crate::algo::bisect_all(weighted(weights), &items, &serial()).unwrap();
        assert_eq!(all.found.len(), 16);
        assert!(
            top1.executions < all.executions,
            "UCS top-1 ({}) should beat full bisect ({})",
            top1.executions,
            all.executions
        );
    }

    #[test]
    fn zero_variability_or_zero_k_is_cheap() {
        let items: Vec<u32> = (0..512).collect();
        let out = bisect_biggest(weighted(vec![]), &items, 3, &serial()).unwrap();
        assert!(out.found.is_empty());
        assert_eq!(out.executions, 1);
        let out = bisect_biggest(weighted(vec![(1, 1.0)]), &items, 0, &serial()).unwrap();
        assert!(out.found.is_empty());
    }

    #[test]
    fn crash_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let err = bisect_biggest(
            |_: &[u32]| Err::<f64, _>(TestError::Crash("boom".into())),
            &items,
            1,
            &serial(),
        )
        .unwrap_err();
        assert!(matches!(err, TestError::Crash(_)));
    }

    #[test]
    fn a_panicking_test_is_a_crash_at_any_width() {
        let items: Vec<u32> = (0..16).collect();
        for jobs in [1, 4] {
            let err = bisect_biggest(
                |items: &[u32]| -> Result<f64, TestError> {
                    if items.len() == 4 {
                        panic!("oracle exploded on {items:?}");
                    }
                    Ok(if items.contains(&9) { 1.0 } else { 0.0 })
                },
                &items,
                1,
                &ThreadsBackend::new(jobs),
            )
            .unwrap_err();
            match err {
                TestError::Crash(s) => assert!(s.contains("exploded"), "jobs={jobs}: {s}"),
                other => panic!("jobs={jobs}: expected Crash, got {other:?}"),
            }
        }
    }
}

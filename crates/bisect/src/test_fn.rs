//! The `Test` function abstraction: a user-defined metric over item
//! sets, wrapped with memoization and execution counting.
//!
//! §2.2 requires of `Test`:
//! * it maps a set of items to `[0, ∞)`;
//! * `Test(items) = 0` ⇒ no variability-causing items in the set;
//! * `Test(items) > 0` ⇒ at least one variability-causing item.
//!
//! Each *distinct* evaluation is one program execution (compile + link +
//! run in the real tool); the paper reports search costs in executions,
//! and notes that the verification assertions cost "really 1 + k calls
//! because Test(items) can be memoized" — which is exactly what
//! [`MemoTest`] provides.

use std::collections::HashMap;

/// Why a Test evaluation failed (aborting the search).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestError {
    /// The mixed executable crashed (segfault — the ABI hazard of §3.3).
    Crash(String),
    /// The link failed.
    Link(String),
}

impl std::fmt::Display for TestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestError::Crash(s) => write!(f, "test executable crashed: {s}"),
            TestError::Link(s) => write!(f, "link failed: {s}"),
        }
    }
}

impl TestError {
    /// The crash reason a search that aborts on this error reports.
    pub(crate) fn into_crash_message(self) -> String {
        match self {
            TestError::Crash(s) => s,
            TestError::Link(s) => format!("link: {s}"),
        }
    }
}

impl std::error::Error for TestError {}

/// A Test function over item subsets.
pub trait TestFn<I> {
    /// Evaluate the metric on a subset of items (presented sorted).
    fn test(&mut self, items: &[I]) -> Result<f64, TestError>;
}

impl<I, F> TestFn<I> for F
where
    F: FnMut(&[I]) -> Result<f64, TestError>,
{
    fn test(&mut self, items: &[I]) -> Result<f64, TestError> {
        self(items)
    }
}

/// Memoizing, execution-counting wrapper around a [`TestFn`].
pub struct MemoTest<I, F> {
    inner: F,
    cache: HashMap<Vec<I>, Result<f64, TestError>>,
    executions: usize,
    cache_hits: usize,
}

impl<I, F> MemoTest<I, F>
where
    I: Clone + Ord + std::hash::Hash,
    F: TestFn<I>,
{
    /// Wrap a raw test function.
    pub fn new(inner: F) -> Self {
        MemoTest {
            inner,
            cache: HashMap::new(),
            executions: 0,
            cache_hits: 0,
        }
    }

    /// Evaluate (memoized). The subset is canonicalized by sorting, so
    /// the same set never executes twice.
    pub fn test(&mut self, items: &[I]) -> Result<f64, TestError> {
        let mut key: Vec<I> = items.to_vec();
        key.sort();
        key.dedup();
        if let Some(hit) = self.cache.get(&key) {
            self.cache_hits += 1;
            return hit.clone();
        }
        self.executions += 1;
        let result = self.inner.test(&key);
        self.cache.insert(key, result.clone());
        result
    }

    /// Number of real executions performed (what the paper counts).
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// Number of evaluations served from the memo cache.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_fn() -> impl FnMut(&[u32]) -> Result<f64, TestError> {
        |items: &[u32]| Ok(items.iter().filter(|&&x| x % 3 == 0).count() as f64)
    }

    #[test]
    fn memoization_dedups_identical_sets() {
        let mut t = MemoTest::new(counting_fn());
        assert_eq!(t.test(&[1, 3, 5]).unwrap(), 1.0);
        assert_eq!(t.test(&[5, 3, 1]).unwrap(), 1.0); // same set, reordered
        assert_eq!(t.test(&[3, 1, 5, 3]).unwrap(), 1.0); // duplicate member
        assert_eq!(t.executions(), 1);
        assert_eq!(t.cache_hits(), 2);
        assert_eq!(t.test(&[1, 2]).unwrap(), 0.0);
        assert_eq!(t.executions(), 2);
    }

    #[test]
    fn errors_are_cached_too() {
        let mut calls = 0;
        let mut t = MemoTest::new(move |_items: &[u32]| {
            calls += 1;
            if calls > 1 {
                panic!("must not re-execute a cached failure");
            }
            Err::<f64, _>(TestError::Crash("segv".into()))
        });
        assert!(t.test(&[1]).is_err());
        assert!(t.test(&[1]).is_err());
        assert_eq!(t.executions(), 1);
    }

    #[test]
    fn empty_set_is_a_valid_query() {
        let mut t = MemoTest::new(counting_fn());
        assert_eq!(t.test(&[]).unwrap(), 0.0);
        assert_eq!(t.executions(), 1);
    }
}

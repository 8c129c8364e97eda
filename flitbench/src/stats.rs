//! The harness's own statistics: medians, the tail-percentile rule,
//! failure counting, and rates/ratios with explicit bases.

/// Median of `xs` (mean of the middle pair for even lengths); `None`
/// for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it.
///
/// With `n` sorted samples, the value at 0-based rank `n - 11` has
/// exactly ten samples above it, and it sits at percentile
/// `100 * (n - 10) / n` (the share of samples at or below it). Below 21
/// samples that percentile would fall under the median, and below 12
/// none exists; a tail is never reported below the median, so small
/// samples report the median as their tail (percentile 50) and say so.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at the tail percentile.
    pub value: f64,
    /// Which percentile that is (50 when the sample is too small).
    pub percentile: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// Apply the tail rule (see [`Tail`]); `None` for an empty sample.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n < 21 {
        return median(xs).map(|value| Tail {
            value,
            percentile: 50.0,
            samples: n,
        });
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    })
}

/// `part / base`, or `0.0` when the base is zero (a rate over no time
/// or a ratio over no attempts is reported as zero work, never NaN).
pub fn ratio(part: f64, base: f64) -> f64 {
    if base > 0.0 {
        part / base
    } else {
        0.0
    }
}

/// A hit ratio: hits over requests, where requests = hits + misses.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

/// The checks of one operation. The operation fails if any of its
/// checks fails; every failing check's description is kept.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// One check: passes when `ok`, fails with `why` otherwise. `why` is
    /// only evaluated for failures.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }

    /// One check that failed.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Operation accounting: every operation is attempted once; one that
/// errors, is refused, or disagrees with its reference in any of its
/// checks is failed, and the first few failing checks are kept
/// verbatim for the log.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Descriptions of the first failing checks.
    pub failures: Vec<String>,
}

/// How many failure descriptions a [`Tally`] keeps.
const KEPT_FAILURES: usize = 20;

impl Tally {
    /// Record one operation with these checks.
    pub fn record(&mut self, op: Checks) {
        self.attempted += 1;
        if !op.passed() {
            self.failed += 1;
            let room = KEPT_FAILURES.saturating_sub(self.failures.len());
            self.failures.extend(op.failures.into_iter().take(room));
        }
    }

    /// Record one operation with a single check (see [`Checks::check`]).
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        let mut op = Checks::default();
        op.check(ok, why);
        self.record(op);
    }

    /// Failed operations over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// Passed operations over attempted operations; `0.0` when nothing
    /// was attempted, so an empty run can never read as healthy.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed_frac()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples 1..=100: rank 89 (value 90) has 91..=100 above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, 10);
        // 1000 samples: the 99th percentile qualifies.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_is_the_highest_qualifying_percentile() {
        // Any higher rank would leave fewer than ten samples beyond.
        for n in 21..200usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&xs).unwrap();
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, 10, "n = {n}");
            assert!(t.value >= median(&xs).unwrap());
        }
    }

    #[test]
    fn tail_of_a_small_sample_is_the_labelled_median() {
        assert_eq!(tail(&[]), None);
        let t = tail(&[2.0, 9.0, 4.0]).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (4.0, 50.0, 3));
        // 20 samples: rank 9 would sit below the median; report the median.
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        let t = tail(&twenty).unwrap();
        assert_eq!((t.value, t.percentile), (9.5, 50.0));
        // 21 samples: rank 10 is the median itself, ten samples beyond.
        let t = tail(&(0..21).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.value, 10.0);
        assert!((t.percentile - 100.0 * 11.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.ok_frac(), 0.0, "an empty run is not a healthy run");
        assert_eq!(t.failed_frac(), 0.0);
        for i in 0..8 {
            t.check(i != 3, || format!("op {i} disagreed"));
        }
        assert_eq!((t.attempted, t.failed), (8, 1));
        assert_eq!(t.failures, vec!["op 3 disagreed".to_string()]);
        assert_eq!(t.failed_frac(), 1.0 / 8.0);
        assert_eq!(t.ok_frac(), 7.0 / 8.0);
        t.check(false, || "refused".into());
        t.check(true, String::new);
        assert_eq!(
            (t.attempted, t.failed),
            (10, 2),
            "a refusal is attempted and failed"
        );
        assert_eq!(t.failed_frac(), 0.2);
    }

    #[test]
    fn tally_keeps_only_the_first_failures_but_counts_all() {
        let mut t = Tally::default();
        for i in 0..100 {
            t.check(false, || format!("f{i}"));
        }
        assert_eq!(t.failed, 100);
        assert_eq!(t.failures.len(), KEPT_FAILURES);
        assert_eq!(t.failures[0], "f0");
    }

    #[test]
    fn an_operation_fails_once_however_many_of_its_checks_fail() {
        let mut t = Tally::default();
        // A workflow with 60 verified searches, two of which disagree.
        let mut op = Checks::default();
        for i in 0..60 {
            op.check(i != 7 && i != 9, || format!("search {i} disagreed"));
        }
        assert!(!op.passed());
        t.record(op);
        // A second workflow whose every check passes.
        let mut op = Checks::default();
        op.check(true, String::new);
        t.record(op);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(
            t.ok_frac(),
            0.5,
            "one failed check fails its whole operation"
        );
        assert_eq!(t.failures, ["search 7 disagreed", "search 9 disagreed"]);
        // An operation with no checks at all still counts as attempted.
        t.record(Checks::default());
        assert_eq!((t.attempted, t.failed), (3, 1));
    }

    #[test]
    fn rates_and_ratios_use_their_stated_base() {
        // 4,636 rows over 2 s of sweep time.
        assert_eq!(ratio(4636.0, 2.0), 2318.0);
        // A zero base is zero work, not NaN or infinity.
        assert_eq!(ratio(5.0, 0.0), 0.0);
        // Hit ratio: base is requests = hits + misses.
        assert_eq!(hit_ratio(3, 1), 0.75);
        assert_eq!(hit_ratio(0, 0), 0.0);
        assert_eq!(hit_ratio(0, 7), 0.0);
    }
}

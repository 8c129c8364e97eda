//! Order statistics for boxplots (Figure 6), plus the inferential
//! layer behind `flit perf`: mean/variance, Student-t confidence
//! intervals, and the Welch two-sample t-test — Touati's statistical
//! methodology for program speedups (confidence intervals and
//! hypothesis tests instead of single-number comparisons).
//!
//! The t distribution is computed from the regularized incomplete beta
//! function (Lentz's continued fraction) and quantiles by bisection on
//! the CDF — deterministic, dependency-free f64 arithmetic, accurate to
//! well under 1e-8 over the df range the perf model produces.

/// Five-number summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Compute the five-number summary; non-finite values are dropped.
    /// Returns `None` on an empty (post-filter) sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            let idx = p * (v.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            if lo == hi {
                v[lo]
            } else {
                v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
            }
        };
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: v[v.len() - 1],
        })
    }

    /// Render as a one-line boxplot on a log10 scale between
    /// `lo_exp`/`hi_exp` decades, `width` characters wide.
    pub fn render_log_box(&self, lo_exp: i32, hi_exp: i32, width: usize) -> String {
        if width == 0 {
            return String::new();
        }
        let pos = |x: f64| -> usize {
            if x <= 0.0 || hi_exp <= lo_exp {
                // A degenerate decade range has no scale to place
                // markers on; collapse everything to the left edge.
                return 0;
            }
            let l = x.log10().clamp(lo_exp as f64, hi_exp as f64);
            let frac = ((l - lo_exp as f64) / (hi_exp - lo_exp) as f64).clamp(0.0, 1.0);
            (frac * (width - 1) as f64).round() as usize
        };
        let mut line: Vec<char> = vec![' '; width];
        let (pmin, pq1, pmed, pq3, pmax) = (
            pos(self.min),
            pos(self.q1),
            pos(self.median),
            pos(self.q3),
            pos(self.max),
        );
        for c in line.iter_mut().take(pmax + 1).skip(pmin) {
            *c = '-';
        }
        for c in line.iter_mut().take(pq3 + 1).skip(pq1) {
            *c = '=';
        }
        line[pmin] = '|';
        line[pmax] = '|';
        line[pmed] = '#';
        line.into_iter().collect()
    }
}

/// Sample mean and (n−1)-denominator variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanVar {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (0 for n = 1).
    pub var: f64,
}

impl MeanVar {
    /// Compute mean and variance; returns `None` on an empty sample or
    /// any non-finite value (timing samples are always finite — a
    /// non-finite one is a caller bug worth surfacing as absence).
    pub(crate) fn of(xs: &[f64]) -> Option<MeanVar> {
        if xs.is_empty() || xs.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        };
        Some(MeanVar { n, mean, var })
    }

    /// Standard error of the mean.
    pub(crate) fn std_err(&self) -> f64 {
        (self.var / self.n as f64).sqrt()
    }
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Does the interval contain `x`?
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }
}

/// Student-t confidence interval for the mean of `xs` at confidence
/// `level` (two-sided). `None` on an empty/non-finite sample or a
/// nonsensical level. A single-point sample yields a zero-width
/// interval at its value (no variance information).
pub fn t_confidence_interval(xs: &[f64], level: f64) -> Option<ConfidenceInterval> {
    if !(0.0..1.0).contains(&level) {
        return None;
    }
    let mv = MeanVar::of(xs)?;
    if mv.n < 2 {
        return Some(ConfidenceInterval {
            lo: mv.mean,
            hi: mv.mean,
            level,
        });
    }
    let df = (mv.n - 1) as f64;
    let half = t_quantile(0.5 + level / 2.0, df) * mv.std_err();
    Some(ConfidenceInterval {
        lo: mv.mean - half,
        hi: mv.mean + half,
        level,
    })
}

/// Three-way outcome of a statistical speedup comparison: the honest
/// replacement for magic point-estimate thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate is faster than the baseline at the given α.
    Faster,
    /// The candidate is slower than the baseline at the given α.
    Slower,
    /// The samples do not support either claim at the given α.
    Inconclusive,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Faster => write!(f, "Faster"),
            Verdict::Slower => write!(f, "Slower"),
            Verdict::Inconclusive => write!(f, "Inconclusive"),
        }
    }
}

/// Welch two-sample t-test result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchOutcome {
    /// The t statistic (candidate mean − baseline mean, standardized).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p: f64,
    /// The significance threshold the verdict was taken at.
    pub alpha: f64,
    /// The three-way verdict at `alpha`.
    pub verdict: Verdict,
}

/// Welch's unequal-variance t-test on two timing samples (seconds:
/// lower is faster). Rejecting the null at `alpha` yields `Faster` when
/// the candidate mean is lower, `Slower` when higher; otherwise
/// `Inconclusive`. `None` when either sample is empty/non-finite, has
/// fewer than two points with both variances zero, or `alpha` is not in
/// (0, 1).
pub fn welch_test(candidate: &[f64], baseline: &[f64], alpha: f64) -> Option<WelchOutcome> {
    if !(0.0..1.0).contains(&alpha) || alpha == 0.0 {
        return None;
    }
    let c = MeanVar::of(candidate)?;
    let b = MeanVar::of(baseline)?;
    let se2 = c.var / c.n as f64 + b.var / b.n as f64;
    if se2 == 0.0 {
        // Identical constants (or single points): no variance to test
        // against. Equal means are genuinely inconclusive; different
        // means with literally zero variance are a degenerate certainty.
        let (t, p) = if c.mean == b.mean {
            (0.0, 1.0)
        } else if c.mean > b.mean {
            (f64::INFINITY, 0.0)
        } else {
            (f64::NEG_INFINITY, 0.0)
        };
        let verdict = verdict_of(t, p, alpha);
        return Some(WelchOutcome {
            t,
            df: (c.n + b.n).saturating_sub(2).max(1) as f64,
            p,
            alpha,
            verdict,
        });
    }
    if c.n < 2 && b.n < 2 {
        return None;
    }
    let t = (c.mean - b.mean) / se2.sqrt();
    // Welch–Satterthwaite. A zero-variance side contributes no
    // df term; guard the denominator with the other side's.
    let vc = c.var / c.n as f64;
    let vb = b.var / b.n as f64;
    let mut denom = 0.0;
    if vc > 0.0 && c.n > 1 {
        denom += vc * vc / (c.n - 1) as f64;
    }
    if vb > 0.0 && b.n > 1 {
        denom += vb * vb / (b.n - 1) as f64;
    }
    let df = (se2 * se2 / denom).max(1.0);
    let p = 2.0 * (1.0 - t_cdf(t.abs(), df));
    let verdict = verdict_of(t, p, alpha);
    Some(WelchOutcome {
        t,
        df,
        p,
        alpha,
        verdict,
    })
}

fn verdict_of(t: f64, p: f64, alpha: f64) -> Verdict {
    if p < alpha {
        if t < 0.0 {
            Verdict::Faster
        } else {
            Verdict::Slower
        }
    } else {
        Verdict::Inconclusive
    }
}

/// CDF of Student's t distribution with `df` degrees of freedom.
pub(crate) fn t_cdf(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return f64::NAN;
    }
    if t.is_infinite() {
        return if t > 0.0 { 1.0 } else { 0.0 };
    }
    let x = df / (df + t * t);
    let tail = 0.5 * reg_inc_beta(df / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Quantile (inverse CDF) of Student's t distribution, by bisection on
/// [`t_cdf`] — deterministic and monotone, ~60 iterations to f64
/// precision.
pub(crate) fn t_quantile(p: f64, df: f64) -> f64 {
    if df <= 0.0 || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    if p < 0.5 {
        return -t_quantile(1.0 - p, df);
    }
    let (mut lo, mut hi) = (0.0f64, 1e3f64);
    // Extend the bracket for extreme (p, low-df) corners.
    while t_cdf(hi, df) < p && hi < 1e12 {
        hi *= 10.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= f64::EPSILON * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Regularized incomplete beta function I_x(a, b) via the standard
/// continued-fraction expansion (Lentz's method).
fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    // The continued fraction converges fast for x < (a+1)/(a+b+2);
    // otherwise use the symmetry I_x(a,b) = 1 − I_{1−x}(b,a).
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * betacf(a, b, x) / a
    } else {
        1.0 - reg_inc_beta(b, a, 1.0 - x)
    }
}

/// Continued fraction for the incomplete beta (Lentz).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    const EPS: f64 = 1e-15;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b).
fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Lanczos approximation of ln Γ(x) (g = 7, n = 9 — ~15 significant
/// digits for x > 0).
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut sum = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        sum += c / (x + i as f64);
    }
    let g = 7.0;
    let t = x + g + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_filters_nonfinite() {
        let s = Summary::of(&[f64::NAN, 1.0, f64::INFINITY, 3.0]).unwrap();
        assert_eq!(s.n, 2);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(Summary::of(&[f64::NAN]).is_none());
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[2.5]).unwrap();
        assert_eq!(s.min, s.max);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn summary_sorts_nan_laden_samples_without_panicking() {
        // PR-2 panic-proofing policy: `total_cmp` everywhere. NaNs are
        // filtered before the sort, but the comparator itself must be
        // total so a future refactor of the filter cannot reintroduce
        // the `partial_cmp().unwrap()` panic.
        let s = Summary::of(&[5.0, f64::NAN, 1.0, f64::NAN, 3.0, f64::NEG_INFINITY]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn log_box_renders_markers() {
        let s = Summary::of(&[1e-13, 1e-10, 1e-7]).unwrap();
        let line = s.render_log_box(-16, 0, 40);
        assert_eq!(line.chars().count(), 40);
        assert!(line.contains('#'));
        assert!(line.contains('|'));
    }

    #[test]
    fn log_box_zero_width_is_empty() {
        // Pre-fix: `width - 1` underflowed and `line[pmin]` indexed an
        // empty vec.
        let s = Summary::of(&[1e-13, 1e-10, 1e-7]).unwrap();
        assert_eq!(s.render_log_box(-16, 0, 0), "");
    }

    #[test]
    fn mean_var_of_known_sample() {
        let mv = MeanVar::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(mv.n, 8);
        assert!((mv.mean - 5.0).abs() < 1e-12);
        assert!((mv.var - 32.0 / 7.0).abs() < 1e-12);
        assert!(MeanVar::of(&[]).is_none());
        assert!(MeanVar::of(&[1.0, f64::NAN]).is_none());
        let single = MeanVar::of(&[3.0]).unwrap();
        assert_eq!((single.mean, single.var), (3.0, 0.0));
    }

    #[test]
    fn t_quantiles_match_tables() {
        // Classic table values (two-sided 95% ⇒ p = 0.975).
        for (p, df, expect) in [
            (0.975, 1.0, 12.706_204_7),
            (0.975, 10.0, 2.228_138_85),
            (0.95, 5.0, 2.015_048_37),
            (0.975, 1e6, 1.959_966),
            (0.995, 30.0, 2.749_995_65),
        ] {
            let q = t_quantile(p, df);
            assert!(
                (q - expect).abs() < 1e-4,
                "t_{{{p},{df}}} = {q}, expected {expect}"
            );
        }
        // Symmetry and round-trip through the CDF.
        assert!((t_quantile(0.25, 7.0) + t_quantile(0.75, 7.0)).abs() < 1e-9);
        let q = t_quantile(0.9, 12.0);
        assert!((t_cdf(q, 12.0) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn t_cdf_basics() {
        assert!((t_cdf(0.0, 5.0) - 0.5).abs() < 1e-12);
        assert!(t_cdf(3.0, 5.0) > 0.98);
        assert!((t_cdf(-3.0, 5.0) + t_cdf(3.0, 5.0) - 1.0).abs() < 1e-12);
        assert_eq!(t_cdf(f64::INFINITY, 5.0), 1.0);
        assert_eq!(t_cdf(f64::NEG_INFINITY, 5.0), 0.0);
    }

    #[test]
    fn confidence_interval_contains_the_mean_and_scales_with_n() {
        let xs = [9.8, 10.1, 10.0, 9.9, 10.2, 10.0];
        let ci = t_confidence_interval(&xs, 0.95).unwrap();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(ci.contains(mean));
        assert!(ci.width() > 0.0);
        // A 99% interval is wider than a 95% one.
        let wide = t_confidence_interval(&xs, 0.99).unwrap();
        assert!(wide.width() > ci.width());
        // A constant sample has a zero-width interval at its value.
        let flat = t_confidence_interval(&[4.0, 4.0, 4.0], 0.95).unwrap();
        assert_eq!((flat.lo, flat.hi), (4.0, 4.0));
        assert!(t_confidence_interval(&[], 0.95).is_none());
        assert!(t_confidence_interval(&xs, 1.5).is_none());
    }

    #[test]
    fn welch_detects_a_clear_slowdown_and_never_both_directions() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01];
        let slow: Vec<f64> = base.iter().map(|x| x * 1.10).collect();
        let w = welch_test(&slow, &base, 0.05).unwrap();
        assert_eq!(w.verdict, Verdict::Slower);
        assert!(w.p < 0.05);
        assert!(w.t > 0.0);
        // Swapping the samples flips the verdict (antisymmetry).
        let back = welch_test(&base, &slow, 0.05).unwrap();
        assert_eq!(back.verdict, Verdict::Faster);
        assert!((back.t + w.t).abs() < 1e-9);
        assert!((back.p - w.p).abs() < 1e-9);
    }

    #[test]
    fn welch_is_inconclusive_on_identical_noise() {
        let a = [1.00, 1.03, 0.98, 1.01, 0.99, 1.02];
        let b = [1.01, 0.99, 1.02, 1.00, 1.01, 0.98];
        let w = welch_test(&a, &b, 0.05).unwrap();
        assert_eq!(w.verdict, Verdict::Inconclusive);
        assert!(w.p > 0.05);
    }

    #[test]
    fn welch_degenerate_constant_samples() {
        // Equal constants: inconclusive, p = 1.
        let w = welch_test(&[2.0, 2.0], &[2.0, 2.0], 0.05).unwrap();
        assert_eq!(w.verdict, Verdict::Inconclusive);
        assert_eq!(w.p, 1.0);
        // Different constants with zero variance: degenerate certainty.
        let w = welch_test(&[3.0, 3.0], &[2.0, 2.0], 0.05).unwrap();
        assert_eq!(w.verdict, Verdict::Slower);
        assert_eq!(w.p, 0.0);
        // Invalid alpha and empty samples are absent, not panics.
        assert!(welch_test(&[1.0], &[], 0.05).is_none());
        assert!(welch_test(&[1.0, 2.0], &[1.0, 2.0], 0.0).is_none());
    }

    #[test]
    fn log_box_degenerate_decade_range_clamps_to_left_edge() {
        // `lo_exp == hi_exp` (and inverted ranges) have a zero or
        // negative denominator; markers must collapse to column 0, not
        // ride NaN positions into the line buffer.
        let s = Summary::of(&[1e-13, 1e-10, 1e-7]).unwrap();
        for (lo, hi) in [(-10, -10), (0, 0), (-4, -9)] {
            let line = s.render_log_box(lo, hi, 20);
            assert_eq!(line.chars().count(), 20, "({lo},{hi})");
            assert!(line.starts_with('#'), "({lo},{hi}): {line:?}");
            assert_eq!(line.matches('|').count() + line.matches('#').count(), 1);
        }
    }
}

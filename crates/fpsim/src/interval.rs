//! Outward-rounded interval arithmetic for the sound analyses in
//! flit-absint: an operation's interval contains the concrete
//! [`crate::ops`] result under every [`crate::FpEnv`] (after
//! [`Interval::with_flush`] where the environment flushes subnormals).
//!
//! Without directed rounding (stable Rust), the intervals inflate every
//! bound by one ulp step, which keeps them conservative.

/// A closed interval `[lo, hi]` with outward-rounded endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

/// The smallest f64 strictly greater than `x` (NaN and +∞ pass
/// through). Exposed for outward rounding in downstream sound analyses
/// (flit-absint).
pub fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    // Both zeros step to the smallest positive subnormal: `-0.0 == 0.0`
    // compares true, so the bit-twiddling below (which would step -0.0
    // to -MIN_SUBNORMAL) must not see either zero.
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// The largest f64 strictly less than `x` (NaN and −∞ pass through).
pub(crate) fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

// `add`/`sub`/`mul` mirror the interval-arithmetic literature rather
// than `std::ops` — outward rounding makes them non-algebraic, and an
// operator spelling would suggest otherwise.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The degenerate interval `[x, x]`. A NaN input yields the NaN
    /// (top) interval rather than a pair of garbage endpoints.
    pub fn point(x: f64) -> Interval {
        if x.is_nan() {
            return Interval::nan();
        }
        Interval { lo: x, hi: x }
    }

    /// The NaN (top) interval: the result set could not be bounded. It
    /// absorbs every operation and [`Interval::contains`] everything.
    pub fn nan() -> Interval {
        Interval {
            lo: f64::NAN,
            hi: f64::NAN,
        }
    }

    /// True for the NaN (top) interval.
    pub fn is_nan(&self) -> bool {
        self.lo.is_nan() || self.hi.is_nan()
    }

    /// Construct, normalizing orientation. `f64::min`/`f64::max`
    /// silently *drop* a NaN operand, so a NaN input is routed to the
    /// top interval instead of producing `[b, b]`.
    pub fn new(a: f64, b: f64) -> Interval {
        if a.is_nan() || b.is_nan() {
            return Interval::nan();
        }
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Interval addition (outward rounded). `∞ + (-∞)` endpoint
    /// combinations propagate to the NaN interval — the concrete result
    /// could be NaN, which no finite interval contains.
    pub fn add(self, other: Interval) -> Interval {
        if self.is_nan() || other.is_nan() {
            return Interval::nan();
        }
        Interval::checked(next_down(self.lo + other.lo), next_up(self.hi + other.hi))
    }

    /// Interval subtraction (outward rounded).
    pub fn sub(self, other: Interval) -> Interval {
        if self.is_nan() || other.is_nan() {
            return Interval::nan();
        }
        Interval::checked(next_down(self.lo - other.hi), next_up(self.hi - other.lo))
    }

    /// Interval multiplication (outward rounded).
    ///
    /// The corner fold must not lose NaN candidates: `0 · ∞` is NaN and
    /// `f64::min`/`f64::max` would silently drop it, leaving an
    /// inverted `[∞, -∞]` interval that contains nothing.
    pub fn mul(self, other: Interval) -> Interval {
        if self.is_nan() || other.is_nan() {
            return Interval::nan();
        }
        let candidates = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        if candidates.iter().any(|c| c.is_nan()) {
            return Interval::nan();
        }
        let lo = candidates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = candidates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Interval::checked(next_down(lo), next_up(hi))
    }

    /// Interval division (outward rounded), containing both the
    /// single-rounding `a / b` and the two-rounding reciprocal rewrite
    /// `a · (1/b)` (see `fpsim::ops::div`). A divisor interval touching
    /// zero yields the NaN interval: the concrete result may be ±∞ or
    /// NaN depending on signs no finite interval can bound.
    pub fn div(self, other: Interval) -> Interval {
        if self.is_nan() || other.is_nan() || other.contains_zero() {
            return Interval::nan();
        }
        // Plain-division corners.
        let corners = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ];
        if corners.iter().any(|c| c.is_nan()) {
            return Interval::nan();
        }
        let lo = corners.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = corners.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let plain = Interval::checked(next_down(lo), next_up(hi));
        // Reciprocal path: 1/b outward, then the product outward — the
        // same two roundings the rewrite performs.
        let recip = Interval::checked(next_down(1.0 / other.hi), next_up(1.0 / other.lo));
        plain.union(self.mul(recip))
    }

    /// Interval absolute value (exact).
    pub fn abs(self) -> Interval {
        if self.is_nan() {
            return Interval::nan();
        }
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            Interval {
                lo: -self.hi,
                hi: -self.lo,
            }
        } else {
            Interval {
                lo: 0.0,
                hi: self.hi.max(-self.lo),
            }
        }
    }

    /// Convex hull of two intervals (NaN absorbs).
    pub fn union(self, other: Interval) -> Interval {
        if self.is_nan() || other.is_nan() {
            return Interval::nan();
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Does the interval contain `x`? The NaN (top) interval contains
    /// everything, including NaN; no other interval contains NaN.
    pub fn contains(&self, x: f64) -> bool {
        self.is_nan() || (!x.is_nan() && self.lo <= x && x <= self.hi)
    }

    /// Largest absolute value in the interval (NaN for the top
    /// interval).
    pub fn mag(&self) -> f64 {
        if self.is_nan() {
            return f64::NAN;
        }
        self.lo.abs().max(self.hi.abs())
    }

    /// Guard an endpoint pair computed by arithmetic: a NaN endpoint
    /// (e.g. `∞ - ∞`) collapses to the top interval.
    fn checked(lo: f64, hi: f64) -> Interval {
        if lo.is_nan() || hi.is_nan() {
            Interval::nan()
        } else {
            Interval { lo, hi }
        }
    }

    /// Does the interval contain zero (sign uncertain)? Written
    /// NaN-safely: the top interval reports `true` (zero *may* be in
    /// the unbounded result set), where `lo <= 0.0 && hi >= 0.0` would
    /// report `false`.
    pub(crate) fn contains_zero(&self) -> bool {
        !(self.lo > 0.0 || self.hi < 0.0)
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Widen for FTZ/DAZ semantics: if the interval intersects the open
    /// subnormal ring, the concrete (flushed) result may additionally
    /// be ±0 (see `fpsim::ops::canon`).
    pub fn with_flush(self) -> Interval {
        if self.is_nan() {
            return self;
        }
        if self.lo < f64::MIN_POSITIVE && self.hi > -f64::MIN_POSITIVE {
            self.union(Interval::point(0.0))
        } else {
            self
        }
    }

    /// Widen symmetrically by `margin ≥ 0` (outward rounded).
    pub fn pad(self, margin: f64) -> Interval {
        if self.is_nan() || margin.is_nan() {
            return Interval::nan();
        }
        Interval::checked(next_down(self.lo - margin), next_up(self.hi + margin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FpEnv;

    #[test]
    fn interval_ops_are_conservative() {
        let a = Interval::point(0.1);
        let b = Interval::point(0.2);
        let s = a.add(b);
        assert!(s.lo <= 0.1 + 0.2 && 0.1 + 0.2 <= s.hi);
        assert!(s.lo < s.hi, "outward rounding widens the interval");
        let p = a.mul(b);
        assert!(p.lo <= 0.1 * 0.2 && 0.1 * 0.2 <= p.hi);
        let d = a.sub(b);
        assert!(d.lo <= -0.1 && -0.1 <= d.hi);
    }

    #[test]
    fn interval_mul_handles_signs() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(-1.0, 4.0);
        let p = a.mul(b);
        // Contains all products of corner pairs.
        for x in [-2.0, 3.0] {
            for y in [-1.0, 4.0] {
                assert!(p.lo <= x * y && x * y <= p.hi);
            }
        }
        assert!(p.contains_zero());
    }

    #[test]
    fn next_up_down_bracket() {
        assert!(next_up(1.0) > 1.0);
        assert!(next_down(1.0) < 1.0);
        assert!(next_up(0.0) > 0.0);
        assert!(next_down(0.0) < 0.0);
        assert!(next_up(-1.0) > -1.0);
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn signed_zero_steps_outward_not_inward() {
        // -0.0 == 0.0, so a bit-twiddling next_up would step -0.0 to
        // -MIN_SUBNORMAL (inward for an upper bound). Both zeros must
        // step to +MIN_SUBNORMAL / -MIN_SUBNORMAL respectively.
        assert!(next_up(-0.0) > 0.0);
        assert_eq!(next_up(-0.0), f64::from_bits(1));
        assert!(next_down(0.0) < 0.0);
        assert_eq!(next_down(-0.0), -f64::from_bits(1));
        // Intervals built from signed zeros contain both zeros.
        let iv = Interval::new(-0.0, 0.0);
        assert!(iv.contains(0.0) && iv.contains(-0.0));
        assert!(iv.contains_zero());
    }

    #[test]
    fn nan_operands_yield_top_interval() {
        assert!(Interval::point(f64::NAN).is_nan());
        assert!(Interval::new(f64::NAN, 1.0).is_nan());
        assert!(Interval::new(1.0, f64::NAN).is_nan());
        let top = Interval::nan();
        assert!(top.add(Interval::point(1.0)).is_nan());
        assert!(Interval::point(1.0).sub(top).is_nan());
        assert!(top.mul(top).is_nan());
        // Top contains everything — including NaN and infinities.
        assert!(top.contains(f64::NAN));
        assert!(top.contains(f64::INFINITY));
        assert!(top.contains(0.0));
        assert!(top.contains_zero());
    }

    #[test]
    fn mul_zero_times_infinity_is_contained() {
        // Pre-fix, the min/max corner fold dropped the NaN candidates
        // and produced the inverted interval [∞, -∞].
        let zero = Interval::point(0.0);
        let inf = Interval::point(f64::INFINITY);
        let p = zero.mul(inf);
        assert!(p.is_nan(), "0 · ∞ = NaN must be representable: {p:?}");
        assert!(p.contains(0.0 * f64::INFINITY));
        // A *range* straddling that corner too.
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(1.0, f64::INFINITY);
        let q = a.mul(b);
        assert!(q.contains(0.0 * f64::INFINITY) || q.contains(0.0));
    }

    #[test]
    fn add_inf_minus_inf_is_top() {
        let a = Interval::new(f64::NEG_INFINITY, 0.0);
        let b = Interval::new(f64::INFINITY, f64::INFINITY);
        assert!(a.add(b).is_nan());
        assert!(b.sub(b).is_nan());
    }

    #[test]
    fn div_contains_both_division_and_reciprocal_results() {
        let env_strict = FpEnv::strict();
        let env_recip = FpEnv::strict().with_recip(true);
        for (a, b) in [(22.0, 49.0), (1.0, 3.0), (-17.3, 0.7), (5.0, -11.0)] {
            let iv = Interval::point(a).div(Interval::point(b));
            let plain = crate::ops::div(&env_strict, a, b);
            let recip = crate::ops::div(&env_recip, a, b);
            assert!(iv.contains(plain), "{a}/{b} plain {plain:e} ∉ {iv:?}");
            assert!(iv.contains(recip), "{a}/{b} recip {recip:e} ∉ {iv:?}");
        }
        // Divisor straddling zero → top.
        assert!(Interval::point(1.0).div(Interval::new(-1.0, 1.0)).is_nan());
    }

    #[test]
    fn abs_union_mag() {
        assert_eq!(Interval::new(-3.0, 2.0).abs().lo, 0.0);
        assert_eq!(Interval::new(-3.0, 2.0).abs().hi, 3.0);
        assert_eq!(Interval::new(-5.0, -2.0).abs().lo, 2.0);
        let u = Interval::new(0.0, 1.0).union(Interval::new(3.0, 4.0));
        assert_eq!((u.lo, u.hi), (0.0, 4.0));
        assert_eq!(Interval::new(-3.0, 2.0).mag(), 3.0);
        assert!(Interval::nan().mag().is_nan());
    }
}

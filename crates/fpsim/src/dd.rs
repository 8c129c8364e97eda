//! Double-double ("compensated") arithmetic.
//!
//! When a compilation keeps intermediates in extended precision (x87
//! 80-bit registers, or certain `-fp-model` settings), expression
//! evaluation carries more mantissa bits than an in-memory `double`.
//! We emulate that by evaluating in *double-double*: an unevaluated sum
//! `hi + lo` of two `f64`s giving ~106 mantissa bits, rounded back to
//! `f64` only when a value is "stored". The direction of the effect is
//! identical to real extended precision — intermediates are more
//! accurate, and final results differ from pure-`f64` evaluation in the
//! low bits — which is all the variability analysis needs.
//!
//! The algorithms (TwoSum, QuickTwoSum, TwoProd via FMA) are the
//! classical error-free transformations of Dekker and Knuth as presented
//! in the *Handbook of Floating-Point Arithmetic* (Muller et al.),
//! which the FLiT paper cites.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A double-double value: the unevaluated sum `hi + lo` with
/// `|lo| <= ulp(hi)/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dd {
    /// Leading component.
    pub hi: f64,
    /// Trailing error component.
    pub lo: f64,
}

/// Error-free transformation: `a + b = s + e` exactly, no precondition.
#[inline]
pub(crate) fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Error-free transformation: `a + b = s + e` exactly, requires `|a| >= |b|`
/// (or one of them zero/non-finite).
#[inline]
pub(crate) fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Error-free transformation: `a * b = p + e` exactly (uses hardware FMA).
#[inline]
pub(crate) fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

impl Dd {
    /// Zero.
    pub const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };

    /// Construct from a single `f64` (exact).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Dd { hi: x, lo: 0.0 }
    }

    /// Construct from components, renormalizing.
    #[inline]
    pub(crate) fn new(hi: f64, lo: f64) -> Self {
        let (s, e) = quick_two_sum(hi, lo);
        Dd { hi: s, lo: e }
    }

    /// Round to the nearest `f64` ("store to memory").
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.hi + self.lo
    }

    /// Fused multiply-add in double-double: `self * b + c`.
    #[inline]
    pub fn mul_add(self, b: Dd, c: Dd) -> Dd {
        self * b + c
    }
}

impl Add for Dd {
    type Output = Dd;
    #[inline]
    fn add(self, other: Dd) -> Dd {
        let (s1, e1) = two_sum(self.hi, other.hi);
        let (s2, e2) = two_sum(self.lo, other.lo);
        let (s1, e1b) = quick_two_sum(s1, e1 + s2);
        let (hi, lo) = quick_two_sum(s1, e1b + e2);
        Dd { hi, lo }
    }
}

impl Sub for Dd {
    type Output = Dd;
    #[inline]
    fn sub(self, other: Dd) -> Dd {
        self + (-other)
    }
}

impl Neg for Dd {
    type Output = Dd;
    #[inline]
    fn neg(self) -> Dd {
        Dd {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
}

impl Mul for Dd {
    type Output = Dd;
    #[inline]
    fn mul(self, other: Dd) -> Dd {
        let (p, e) = two_prod(self.hi, other.hi);
        let e = e + (self.hi * other.lo + self.lo * other.hi);
        let (hi, lo) = quick_two_sum(p, e);
        Dd { hi, lo }
    }
}

impl Div for Dd {
    type Output = Dd;
    #[inline]
    fn div(self, other: Dd) -> Dd {
        // Long division with one correction step.
        let q1 = self.hi / other.hi;
        let r = self - other * Dd::from_f64(q1);
        let q2 = r.hi / other.hi;
        let r2 = r - other * Dd::from_f64(q2);
        let q3 = r2.hi / other.hi;
        let (hi, lo) = quick_two_sum(q1, q2);
        Dd::new(hi, lo + q3)
    }
}

impl From<f64> for Dd {
    fn from(x: f64) -> Self {
        Dd::from_f64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_is_error_free() {
        let a = 1.0;
        let b = 1e-30;
        let (s, e) = two_sum(a, b);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-30);
    }

    #[test]
    fn two_prod_is_error_free() {
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 + f64::EPSILON;
        let (p, e) = two_prod(a, b);
        // a*b = 1 + 2eps + eps^2; the eps^2 term is the error.
        assert_eq!(p, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(e, f64::EPSILON * f64::EPSILON);
    }

    #[test]
    fn dd_add_captures_lost_bits() {
        let big = Dd::from_f64(1.0);
        let small = Dd::from_f64(1e-30);
        let sum = big + small;
        assert_eq!(sum.hi, 1.0);
        assert_eq!(sum.lo, 1e-30);
        // Round trip loses the small part, as a real store would.
        assert_eq!(sum.to_f64(), 1.0);
        // But subtracting the big part recovers it.
        assert_eq!((sum - big).to_f64(), 1e-30);
    }

    #[test]
    fn dd_mul_matches_exact_for_small_ints() {
        let a = Dd::from_f64(3.0);
        let b = Dd::from_f64(7.0);
        assert_eq!((a * b).to_f64(), 21.0);
        assert_eq!((a * b).lo, 0.0);
    }

    #[test]
    fn dd_div_refines_beyond_f64() {
        let one = Dd::from_f64(1.0);
        let three = Dd::from_f64(3.0);
        let third = one / three;
        // hi is the correctly rounded 1/3; lo holds the residual.
        assert_eq!(third.hi, 1.0 / 3.0);
        assert!(third.lo != 0.0);
        let back = third * three;
        assert!((back.to_f64() - 1.0).abs() < 1e-30);
    }

    #[test]
    fn dd_neg() {
        let x = Dd::new(-2.0, 1e-20);
        assert_eq!((-x).hi, 2.0);
    }
}

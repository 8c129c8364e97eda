//! Scalar floating-point operations under an [`FpEnv`], and the
//! `Accum` type that models register-resident intermediates.

use crate::dd::Dd;
use crate::env::FpEnv;

/// Flush a value to zero if it is subnormal and the environment has
/// FTZ/DAZ enabled.
#[inline]
pub(crate) fn canon(env: &FpEnv, x: f64) -> f64 {
    if env.flush_to_zero && x != 0.0 && x.abs() < f64::MIN_POSITIVE {
        if x.is_sign_negative() {
            -0.0
        } else {
            0.0
        }
    } else {
        x
    }
}

/// `a + b` under the environment.
#[inline]
pub fn add(env: &FpEnv, a: f64, b: f64) -> f64 {
    canon(env, a + b)
}

/// `a - b` under the environment.
#[inline]
pub fn sub(env: &FpEnv, a: f64, b: f64) -> f64 {
    canon(env, a - b)
}

/// `a * b` under the environment.
#[inline]
pub fn mul(env: &FpEnv, a: f64, b: f64) -> f64 {
    canon(env, a * b)
}

/// `a / b` under the environment.
///
/// With [`FpEnv::reciprocal_math`] the compiler emits
/// `a * (1/b)` — two roundings instead of one, so the result can differ
/// from true division by one ulp.
#[inline]
pub fn div(env: &FpEnv, a: f64, b: f64) -> f64 {
    if env.reciprocal_math {
        canon(env, a * (1.0 / b))
    } else {
        canon(env, a / b)
    }
}

/// `a*b + c` — the contraction point.
///
/// With [`FpEnv::fma`] the compiler contracts this into a fused
/// multiply-add with a single rounding; otherwise the product is rounded
/// before the addition. This is the single most common source of
/// compiler-induced variability found by the paper (MFEM Findings 1–2,
/// the CESM climate-code incident).
#[inline]
pub fn mul_add(env: &FpEnv, a: f64, b: f64, c: f64) -> f64 {
    if env.fma {
        canon(env, a.mul_add(b, c))
    } else {
        canon(env, a * b + c)
    }
}

/// `sqrt(a)` under the environment (always correctly rounded in
/// hardware, but FTZ still applies to the operand path).
#[inline]
pub fn sqrt(env: &FpEnv, a: f64) -> f64 {
    canon(env, canon(env, a).sqrt())
}

/// An accumulator that is either a plain `f64` or an extended-precision
/// (double-double) register, depending on
/// [`FpEnv::extended_precision`].
///
/// Kernels create accumulators with [`Accum::new`] for loop-carried
/// intermediates, perform arithmetic through the environment-aware
/// methods, and call [`Accum::store`] where the source program stores to
/// memory (which rounds extended values back to `f64`, exactly as an
/// x87 store or `-ffloat-store` does).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Accum {
    /// Plain double-precision register.
    F64(f64),
    /// Extended-precision register (double-double emulation).
    Ext(Dd),
}

impl Accum {
    /// Create an accumulator holding `x` under `env`.
    #[inline]
    pub(crate) fn new(env: &FpEnv, x: f64) -> Self {
        if env.extended_precision {
            Accum::Ext(Dd::from_f64(x))
        } else {
            Accum::F64(x)
        }
    }

    /// Add a value.
    #[inline]
    pub(crate) fn add(self, env: &FpEnv, x: f64) -> Self {
        match self {
            Accum::F64(a) => Accum::F64(add(env, a, x)),
            Accum::Ext(a) => Accum::Ext(a + Dd::from_f64(x)),
        }
    }

    /// Accumulate a product: `self += a*b`, honoring FMA contraction.
    #[inline]
    pub(crate) fn mul_acc(self, env: &FpEnv, a: f64, b: f64) -> Self {
        match self {
            Accum::F64(acc) => Accum::F64(mul_add(env, a, b, acc)),
            Accum::Ext(acc) => {
                // In extended precision the product itself is error-free
                // (two_prod), so FMA vs separate rounding is moot.
                Accum::Ext(Dd::from_f64(a).mul_add(Dd::from_f64(b), acc))
            }
        }
    }

    /// Horner step: `self = self * x + c`, honoring FMA contraction.
    #[inline]
    pub(crate) fn horner_step(self, env: &FpEnv, x: f64, c: f64) -> Self {
        match self {
            Accum::F64(acc) => Accum::F64(mul_add(env, acc, x, c)),
            Accum::Ext(acc) => Accum::Ext(acc * Dd::from_f64(x) + Dd::from_f64(c)),
        }
    }

    /// Merge another accumulator into this one (used when combining
    /// SIMD lanes).
    #[inline]
    pub(crate) fn merge(self, env: &FpEnv, other: Accum) -> Self {
        match (self, other) {
            (Accum::F64(a), Accum::F64(b)) => Accum::F64(add(env, a, b)),
            (Accum::Ext(a), Accum::Ext(b)) => Accum::Ext(a + b),
            (Accum::F64(a), Accum::Ext(b)) => Accum::Ext(Dd::from_f64(a) + b),
            (Accum::Ext(a), Accum::F64(b)) => Accum::Ext(a + Dd::from_f64(b)),
        }
    }

    /// Store to memory: round to `f64` (and flush).
    #[inline]
    pub(crate) fn store(self, env: &FpEnv) -> f64 {
        match self {
            Accum::F64(a) => canon(env, a),
            Accum::Ext(a) => canon(env, a.to_f64()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimdWidth;

    fn strict() -> FpEnv {
        FpEnv::strict()
    }

    #[test]
    fn strict_ops_match_native() {
        let e = strict();
        assert_eq!(add(&e, 0.1, 0.2), 0.1 + 0.2);
        assert_eq!(sub(&e, 0.3, 0.1), 0.3 - 0.1);
        assert_eq!(mul(&e, 0.1, 0.3), 0.1 * 0.3);
        assert_eq!(div(&e, 1.0, 3.0), 1.0 / 3.0);
        assert_eq!(mul_add(&e, 0.1, 0.2, 0.3), 0.1 * 0.2 + 0.3);
        assert_eq!(sqrt(&e, 2.0), 2.0f64.sqrt());
    }

    #[test]
    fn fma_contraction_changes_bits() {
        let strict = FpEnv::strict();
        let fused = FpEnv::strict().with_fma(true);
        // Choose operands where a*b rounds: (1+eps)^2 = 1 + 2eps + eps^2.
        let a = 1.0 + f64::EPSILON;
        let c = -(1.0 + 2.0 * f64::EPSILON);
        let r_strict = mul_add(&strict, a, a, c);
        let r_fused = mul_add(&fused, a, a, c);
        assert_eq!(r_strict, 0.0); // product rounded, eps^2 lost
        assert_eq!(r_fused, f64::EPSILON * f64::EPSILON); // fused keeps it
        assert_ne!(r_strict, r_fused);
    }

    #[test]
    fn reciprocal_math_differs_by_ulps() {
        let strict = FpEnv::strict();
        let fast = FpEnv::strict().with_recip(true);
        // 1/49 * 49 != 49/49 in general.
        let r1 = div(&strict, 1.0, 49.0);
        let r2 = div(&fast, 1.0, 49.0);
        // Same here (both are a single op on these operands)…
        assert_eq!(r1, r2);
        // …but 22/49 via reciprocal rounds differently from true division:
        let x = 22.0;
        let y = 49.0;
        let exact = x / y;
        let recip = div(&fast, x, y);
        assert_ne!(exact, recip, "22/49 via reciprocal should differ");
    }

    #[test]
    fn ftz_flushes_subnormals() {
        let e = FpEnv {
            flush_to_zero: true,
            ..FpEnv::strict()
        };
        let sub = f64::MIN_POSITIVE / 2.0;
        assert_eq!(canon(&e, sub), 0.0);
        assert_eq!(canon(&e, -sub), 0.0);
        assert!(canon(&e, -sub).is_sign_negative());
        // Normals pass through.
        assert_eq!(canon(&e, 1.5), 1.5);
        // Zero passes through.
        assert_eq!(canon(&e, 0.0), 0.0);
        // Without FTZ, subnormals survive.
        assert_eq!(canon(&FpEnv::strict(), sub), sub);
    }

    #[test]
    fn extended_accumulator_keeps_low_bits() {
        let ext = FpEnv::strict().with_extended(true);
        let std = FpEnv::strict();
        // 1 + 1e-17 - 1: plain f64 loses the small term, extended keeps it.
        let a_std = Accum::new(&std, 1.0).add(&std, 1e-17).add(&std, -1.0);
        let a_ext = Accum::new(&ext, 1.0).add(&ext, 1e-17).add(&ext, -1.0);
        assert_eq!(a_std.store(&std), 0.0);
        assert_eq!(a_ext.store(&ext), 1e-17);
    }

    #[test]
    fn accum_merge_combines_lanes() {
        let e = strict();
        let a = Accum::new(&e, 1.0);
        let b = Accum::new(&e, 2.0);
        assert_eq!(a.merge(&e, b).store(&e), 3.0);

        let ext = FpEnv::strict().with_extended(true);
        let c = Accum::new(&ext, 1.0);
        let d = Accum::new(&ext, 2.0);
        assert_eq!(c.merge(&ext, d).store(&ext), 3.0);

        // Mixed merges promote to extended.
        let m = Accum::new(&e, 1.0).merge(&e, Accum::new(&ext, 2.0));
        assert_eq!(m.store(&e), 3.0);
        let m2 = Accum::new(&ext, 1.0).merge(&e, Accum::new(&e, 2.0));
        assert_eq!(m2.store(&e), 3.0);
    }

    #[test]
    fn mul_acc_honors_fma() {
        let fused = FpEnv::strict().with_fma(true);
        let strict = FpEnv::strict();
        let a = 1.0 + f64::EPSILON;
        let acc_strict = Accum::new(&strict, -(1.0 + 2.0 * f64::EPSILON)).mul_acc(&strict, a, a);
        let acc_fused = Accum::new(&fused, -(1.0 + 2.0 * f64::EPSILON)).mul_acc(&fused, a, a);
        assert_ne!(acc_strict.store(&strict), acc_fused.store(&fused));
    }

    #[test]
    fn width_enum_is_ordered() {
        assert!(SimdWidth::W1 < SimdWidth::W8);
    }
}

//! Satellite guarantee for the absint layer: interval evaluation
//! **contains** the concrete fpsim result for random inputs under every
//! `FpEnv`.
//!
//! Scalar ops are checked per-op against the outward-rounded interval
//! version (plus FTZ widening where the env flushes).

use flit_fpsim::env::{FpEnv, MathLib, SimdWidth};
use flit_fpsim::interval::Interval;
use flit_fpsim::ops;
use proptest::prelude::*;

fn any_env() -> impl Strategy<Value = FpEnv> {
    (
        any::<bool>(),
        0usize..4,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(fma, w, ext, recip, ftz, vendor)| FpEnv {
            fma,
            simd_width: [SimdWidth::W1, SimdWidth::W2, SimdWidth::W4, SimdWidth::W8][w],
            extended_precision: ext,
            reciprocal_math: recip,
            flush_to_zero: ftz,
            mathlib: if vendor {
                MathLib::Vendor
            } else {
                MathLib::Reference
            },
            exploit_ub: false,
        })
}

/// Magnitude-diverse finite f64, deliberately including the subnormal
/// range (the FTZ edge), zeros of both signs, and large values.
fn wild_f64() -> impl Strategy<Value = f64> {
    (-1.0f64..1.0, -320i32..60, 0u32..50).prop_map(|(m, e, pick)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE / 2.0,
        3 => -f64::MIN_POSITIVE / 2.0,
        _ => m * 10f64.powi(e),
    })
}

/// Apply the env's canon semantics to an interval result: under FTZ the
/// concrete value may have been flushed to ±0.
fn canonize(env: &FpEnv, iv: Interval) -> Interval {
    if env.flush_to_zero {
        iv.with_flush()
    } else {
        iv
    }
}

proptest! {
    /// Every scalar op's concrete result lies in the interval version.
    #[test]
    fn scalar_ops_are_contained(env in any_env(), a in wild_f64(), b in wild_f64(), c in wild_f64()) {
        let ia = Interval::point(a);
        let ib = Interval::point(b);
        let ic = Interval::point(c);
        let checks = [
            (ops::add(&env, a, b), canonize(&env, ia.add(ib)), "add"),
            (ops::sub(&env, a, b), canonize(&env, ia.sub(ib)), "sub"),
            (ops::mul(&env, a, b), canonize(&env, ia.mul(ib)), "mul"),
            (ops::div(&env, a, b), canonize(&env, ia.div(ib)), "div"),
            (
                ops::mul_add(&env, a, b, c),
                canonize(&env, ia.mul(ib).add(ic)),
                "mul_add",
            ),
        ];

        for (concrete, iv, what) in checks {
            prop_assert!(
                iv.contains(concrete),
                "{what}({a:e}, {b:e}, {c:e}) = {concrete:e} ∉ {iv:?} under {env:?}"
            );
        }
    }

    /// NaN-operand containment: once a NaN enters, interval evaluation
    /// must stay top (contain the concrete NaN), never a garbage range.
    #[test]
    fn nan_operands_stay_contained(env in any_env(), a in wild_f64()) {
        let nan = f64::NAN;
        let ia = Interval::point(a);
        let top = Interval::point(nan);
        prop_assert!(top.is_nan());
        for (concrete, iv) in [
            (ops::add(&env, a, nan), ia.add(top)),
            (ops::mul(&env, nan, a), top.mul(ia)),
            (ops::div(&env, nan, a), top.div(ia)),
            (ops::mul_add(&env, a, nan, a), ia.mul(top).add(ia)),
        ] {
            prop_assert!(iv.contains(concrete));
        }
    }
}

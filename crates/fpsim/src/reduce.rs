//! Reductions under compiler-chosen evaluation orders.
//!
//! A reduction loop `for x in xs { acc += x }` has ISO semantics only
//! when evaluated strictly left-to-right. Auto-vectorizers (enabled by
//! `-funsafe-math-optimizations`, `icpc`'s default `-fp-model fast=1`,
//! etc.) split the accumulator into `W` lanes:
//!
//! ```text
//! lane[j] = xs[j] + xs[j+W] + xs[j+2W] + …      (j = 0..W)
//! result  = ((lane[0] + lane[1]) + lane[2]) + …  (+ scalar tail)
//! ```
//!
//! which is a *reassociation* and changes the rounding sequence. This
//! module implements exactly that lane-split order, plus FMA contraction
//! in dot products and extended-precision accumulators, so that the
//! numerical difference between two compilations is the genuine IEEE-754
//! difference.

use crate::env::FpEnv;
use crate::ops::{self, Accum};

/// Sum of a slice under the environment's evaluation order.
pub fn sum(env: &FpEnv, xs: &[f64]) -> f64 {
    let w = env.simd_width.lanes();
    if w == 1 || xs.len() < 2 * w {
        let mut acc = Accum::new(env, 0.0);
        for &x in xs {
            acc = acc.add(env, x);
        }
        return acc.store(env);
    }
    lane_reduce(env, xs, Accum::add)
}

/// Dot product under the environment's evaluation order and contraction.
pub fn dot(env: &FpEnv, xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "dot: length mismatch");
    let w = env.simd_width.lanes();
    if w == 1 || xs.len() < 2 * w {
        let mut acc = Accum::new(env, 0.0);
        for (&x, &y) in xs.iter().zip(ys) {
            acc = acc.mul_acc(env, x, y);
        }
        return acc.store(env);
    }
    // Vectorized: W independent accumulators over strided elements.
    let mut lanes: Vec<Accum> = (0..w).map(|_| Accum::new(env, 0.0)).collect();
    let chunks = xs.len() / w;
    for c in 0..chunks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let i = c * w + j;
            *lane = lane.mul_acc(env, xs[i], ys[i]);
        }
    }
    let mut acc = lanes[0];
    for &lane in &lanes[1..] {
        acc = acc.merge(env, lane);
    }
    for i in (chunks * w)..xs.len() {
        acc = acc.mul_acc(env, xs[i], ys[i]);
    }
    acc.store(env)
}

/// ℓ2 norm under the environment (dot with itself, then sqrt).
pub fn norm_l2(env: &FpEnv, xs: &[f64]) -> f64 {
    ops::sqrt(env, dot(env, xs, xs))
}

/// Generic lane-split reduction used by [`sum`].
fn lane_reduce(env: &FpEnv, xs: &[f64], step: impl Fn(Accum, &FpEnv, f64) -> Accum) -> f64 {
    let w = env.simd_width.lanes();
    let mut lanes: Vec<Accum> = (0..w).map(|_| Accum::new(env, 0.0)).collect();
    let chunks = xs.len() / w;
    for c in 0..chunks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, env, xs[c * w + j]);
        }
    }
    let mut acc = lanes[0];
    for &lane in &lanes[1..] {
        acc = acc.merge(env, lane);
    }
    for &x in &xs[chunks * w..] {
        acc = step(acc, env, x);
    }
    acc.store(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{FpEnv, SimdWidth};

    /// A slice engineered so that evaluation order matters: values of
    /// wildly mixed magnitude.
    fn ill_conditioned(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                s * (1.0 + (i as f64) * 1e-3) * 10f64.powi(((i * 7) % 31) as i32 - 15)
            })
            .collect()
    }

    #[test]
    fn strict_sum_is_left_to_right() {
        let env = FpEnv::strict();
        let xs = ill_conditioned(101);
        let mut expect = 0.0;
        for &x in &xs {
            expect += x;
        }
        assert_eq!(sum(&env, &xs), expect);
    }

    #[test]
    fn vectorized_sum_differs_from_strict() {
        let strict = FpEnv::strict();
        let vec4 = FpEnv::strict().with_simd(SimdWidth::W4);
        let xs = ill_conditioned(1000);
        let a = sum(&strict, &xs);
        let b = sum(&vec4, &xs);
        assert_ne!(a, b, "4-lane reassociation must change bits on this input");
        // But the relative difference is tiny — it's a rounding effect.
        assert!(((a - b) / a).abs() < 1e-10);
    }

    #[test]
    fn widths_produce_distinct_orders() {
        let xs = ill_conditioned(4096);
        let results: Vec<f64> = [SimdWidth::W1, SimdWidth::W2, SimdWidth::W4, SimdWidth::W8]
            .iter()
            .map(|&w| sum(&FpEnv::strict().with_simd(w), &xs))
            .collect();
        // All four orders are pairwise distinct on this input.
        for i in 0..results.len() {
            for j in (i + 1)..results.len() {
                assert_ne!(results[i], results[j], "widths {i} vs {j}");
            }
        }
    }

    #[test]
    fn exact_sums_are_invariant_under_every_order() {
        // Small integers: every order is exact, so every env agrees.
        let xs: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let expect: f64 = xs.iter().sum();
        for w in [SimdWidth::W1, SimdWidth::W2, SimdWidth::W4, SimdWidth::W8] {
            for ext in [false, true] {
                let env = FpEnv::strict().with_simd(w).with_extended(ext);
                assert_eq!(sum(&env, &xs), expect);
            }
        }
    }

    #[test]
    fn short_slices_fall_back_to_scalar() {
        let vec8 = FpEnv::strict().with_simd(SimdWidth::W8);
        let strict = FpEnv::strict();
        let xs = ill_conditioned(7); // < 2*8
        assert_eq!(sum(&vec8, &xs), sum(&strict, &xs));
    }

    #[test]
    fn dot_fma_differs_from_unfused() {
        let strict = FpEnv::strict();
        let fused = FpEnv::strict().with_fma(true);
        let xs = ill_conditioned(333);
        let ys: Vec<f64> = xs.iter().map(|x| x * 1.000_000_1 + 0.3).collect();
        let a = dot(&strict, &xs, &ys);
        let b = dot(&fused, &xs, &ys);
        assert_ne!(a, b);
    }

    #[test]
    fn extended_precision_dot_differs_and_is_more_accurate() {
        let strict = FpEnv::strict();
        let ext = FpEnv::strict().with_extended(true);
        let xs = ill_conditioned(500);
        let ys = ill_conditioned(500);
        let a = dot(&strict, &xs, &ys);
        let b = dot(&ext, &xs, &ys);
        assert_ne!(a, b);
        // Extended must agree with a pairwise-Kahan style reference to
        // higher accuracy than plain f64 does.
        let exact: f64 = {
            // 256-ish bit reference via Dd chain.
            use crate::dd::Dd;
            let mut acc = Dd::ZERO;
            for (&x, &y) in xs.iter().zip(&ys) {
                acc = Dd::from_f64(x).mul_add(Dd::from_f64(y), acc);
            }
            acc.to_f64()
        };
        assert!((b - exact).abs() <= (a - exact).abs());
    }

    #[test]
    fn norm_l2_is_nonnegative_and_zero_on_zero() {
        let env = FpEnv::fast();
        assert_eq!(norm_l2(&env, &[0.0; 64]), 0.0);
        assert!(norm_l2(&env, &ill_conditioned(64)) > 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&FpEnv::strict(), &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn determinism_run_to_run() {
        // The same env and input give bitwise-identical results across
        // repeated calls — FLiT's determinism prerequisite.
        let env = FpEnv::fast().with_extended(true);
        let xs = ill_conditioned(777);
        let first = (sum(&env, &xs), dot(&env, &xs, &xs), norm_l2(&env, &xs));
        for _ in 0..10 {
            assert_eq!(sum(&env, &xs), first.0);
            assert_eq!(dot(&env, &xs, &xs), first.1);
            assert_eq!(norm_l2(&env, &xs), first.2);
        }
    }
}

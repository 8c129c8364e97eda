//! Stencil updates and time-stepping kernels.
//!
//! These power the hydro proxy apps. A stencil sweep is elementwise
//! (each output depends on a handful of neighbours), so its env
//! sensitivity comes from FMA contraction in the update expression and
//! from the time loop amplifying per-step differences — the mechanism
//! behind the Laghos divergence in the paper's motivating example.

use crate::env::FpEnv;
use crate::ops;

/// One explicit step of the 1-D heat equation
/// `u'ᵢ = uᵢ + r·(uᵢ₋₁ − 2uᵢ + uᵢ₊₁)` with fixed (Dirichlet) endpoints.
pub fn heat_step(env: &FpEnv, u: &[f64], r: f64) -> Vec<f64> {
    let n = u.len();
    let mut out = u.to_vec();
    if n < 3 {
        return out;
    }
    for i in 1..n - 1 {
        let lap = ops::add(
            env,
            ops::sub(env, u[i - 1], ops::mul(env, 2.0, u[i])),
            u[i + 1],
        );
        out[i] = ops::mul_add(env, r, lap, u[i]);
    }
    out
}

/// A nonlinear logistic-map relaxation: `u ← u + dt·λ·u·(1−u)` applied
/// pointwise for `steps` iterations. For `dt·λ` in the chaotic regime
/// this amplifies last-ulp input differences to O(1) — the mechanism by
/// which a tiny compiler-induced perturbation becomes the paper's 183 %
/// relative error (MFEM example 13) or the 11.2 % Laghos energy
/// difference.
pub fn nonlinear_relax(env: &FpEnv, u: &mut [f64], lambda: f64, steps: usize) {
    for _ in 0..steps {
        for x in u.iter_mut() {
            // x = x + lambda * x * (1 - x)
            let one_minus = ops::sub(env, 1.0, *x);
            let growth = ops::mul(env, *x, one_minus);
            *x = ops::mul_add(env, lambda, growth, *x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimdWidth;
    use crate::ulp::l2_diff;

    #[test]
    fn heat_step_preserves_constants() {
        let env = FpEnv::fast();
        let u = vec![3.0; 16];
        let out = heat_step(&env, &u, 0.25);
        assert_eq!(out, u, "constant field is a fixed point");
    }

    #[test]
    fn heat_step_tiny_inputs_passthrough() {
        let env = FpEnv::strict();
        assert_eq!(heat_step(&env, &[1.0, 2.0], 0.1), vec![1.0, 2.0]);
        assert_eq!(heat_step(&env, &[], 0.1), Vec::<f64>::new());
    }

    #[test]
    fn heat_step_smooths_a_spike() {
        let env = FpEnv::strict();
        let mut u = vec![0.0; 11];
        u[5] = 1.0;
        let out = heat_step(&env, &u, 0.25);
        assert!(out[5] < 1.0);
        assert!(out[4] > 0.0 && out[6] > 0.0);
    }

    #[test]
    fn nonlinear_relax_amplifies_ulp_differences() {
        // Start two copies differing slightly; in the chaotic regime
        // they diverge to O(1) separation.
        let env = FpEnv::strict();
        let mut a = vec![0.4; 8];
        // A perturbation of ~1e-12 (compiler-variability scale); single
        // ulps can be absorbed by the very first rounding, which is why
        // real variability flows through reductions before amplifying.
        let mut b: Vec<f64> = a.iter().map(|&x| x + 1e-12).collect();
        nonlinear_relax(&env, &mut a, 2.9, 200);
        nonlinear_relax(&env, &mut b, 2.9, 200);
        let d = l2_diff(&a, &b);
        assert!(d > 1e-2, "chaotic amplification expected, got {d:e}");
        // Values stay bounded in the logistic basin.
        for &x in a.iter().chain(&b) {
            assert!(x.is_finite() && x > -0.5 && x < 1.7, "x = {x}");
        }
    }

    #[test]
    fn nonlinear_relax_stable_regime_contracts() {
        let env = FpEnv::strict();
        let mut a = vec![0.3, 0.5, 0.7];
        nonlinear_relax(&env, &mut a, 0.5, 500);
        // Converges to the fixed point u = 1.
        for &x in &a {
            assert!((x - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn env_changes_stencil_results_after_many_steps() {
        let strict = FpEnv::strict();
        let fast = FpEnv::strict().with_fma(true).with_simd(SimdWidth::W4);
        let mut u1: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.371).sin() * 0.3 + 0.4)
            .collect();
        let mut u2 = u1.clone();
        // Alternate diffusion and mild nonlinearity so contraction
        // differences survive and accumulate.
        for _ in 0..80 {
            u1 = heat_step(&strict, &u1, 0.249_173);
            nonlinear_relax(&strict, &mut u1, 2.7, 1);
            u2 = heat_step(&fast, &u2, 0.249_173);
            nonlinear_relax(&fast, &mut u2, 2.7, 1);
        }
        assert_ne!(u1, u2);
    }
}

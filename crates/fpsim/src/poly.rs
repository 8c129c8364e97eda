//! Polynomial evaluation under an [`FpEnv`].
//!
//! Horner's rule is a chain of `acc = acc*x + c` steps — the canonical
//! FMA-contraction site. Equations of state and basis-function
//! evaluation in the proxy apps are built from it.

use crate::env::FpEnv;
use crate::ops::Accum;

/// Evaluate `Σ coeffs[i]·x^i` by Horner's rule under `env`.
/// `coeffs` is low-order first.
pub fn horner(env: &FpEnv, coeffs: &[f64], x: f64) -> f64 {
    let mut acc = Accum::new(env, 0.0);
    for &c in coeffs.iter().rev() {
        acc = acc.horner_step(env, x, c);
    }
    acc.store(env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horner_exact_small_ints() {
        let env = FpEnv::strict();
        // 1 + 2x + 3x^2 at x = 2 → 1 + 4 + 12 = 17.
        assert_eq!(horner(&env, &[1.0, 2.0, 3.0], 2.0), 17.0);
        assert_eq!(horner(&env, &[], 5.0), 0.0);
        assert_eq!(horner(&env, &[7.0], 5.0), 7.0);
    }

    #[test]
    fn horner_fma_changes_bits() {
        let strict = FpEnv::strict();
        let fused = FpEnv::strict().with_fma(true);
        let coeffs: Vec<f64> = (0..17)
            .map(|i| ((i * 31 % 13) as f64 - 6.0) * 0.173)
            .collect();
        // The final rounding can coincide at an individual point, so
        // sample several points and require a difference somewhere.
        let mut any_diff = false;
        for k in 0..16 {
            let x = 0.71 + 0.037 * k as f64;
            let a = horner(&strict, &coeffs, x);
            let b = horner(&fused, &coeffs, x);
            if a != b {
                any_diff = true;
            }
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
        }
        assert!(
            any_diff,
            "FMA contraction should change bits at some sample"
        );
    }
}

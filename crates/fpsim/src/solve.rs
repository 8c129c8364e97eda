//! An iterative solver whose *control flow* depends on floating-point
//! comparisons.
//!
//! MFEM Finding 1: "example 8 is an iterative algorithm with a stopping
//! criterion of 1e-12, yet converges to a value that has an absolute
//! error of 1e-6, meaning it converged differently because of compiler
//! optimizations." That behaviour — a tolerance test observing slightly
//! different residuals and therefore stopping at a different iterate —
//! is exactly what [`conjugate_gradient`] exhibits under different
//! [`FpEnv`]s.

use crate::env::FpEnv;
use crate::linalg::{axpby, axpy, DenseMatrix};
use crate::ops;
use crate::reduce;

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual norm (squared for CG, as tested internally).
    pub residual: f64,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Conjugate-gradient solve of `A x = b` for symmetric positive-definite
/// `A`, with stopping criterion `rᵀr < tol²` — every inner product is
/// evaluated under `env`, so the iteration *path* is env-dependent.
pub fn conjugate_gradient(
    env: &FpEnv,
    a: &DenseMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> SolveResult {
    let n = b.len();
    assert_eq!(a.rows(), n, "cg: dimension mismatch");
    assert_eq!(a.cols(), n, "cg: matrix must be square");
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rsq = reduce::dot(env, &r, &r);
    let tol_sq = tol * tol;
    let mut iterations = 0;

    while rsq > tol_sq && iterations < max_iter {
        let ap = a.gemv(env, &p);
        let p_ap = reduce::dot(env, &p, &ap);
        if p_ap == 0.0 || !p_ap.is_finite() {
            break; // breakdown
        }
        let alpha = ops::div(env, rsq, p_ap);
        axpy(env, alpha, &p, &mut x);
        axpy(env, -alpha, &ap, &mut r);
        let rsq_new = reduce::dot(env, &r, &r);
        let beta = ops::div(env, rsq_new, rsq);
        axpby(env, 1.0, &r, beta, &mut p);
        rsq = rsq_new;
        iterations += 1;
    }

    SolveResult {
        x,
        iterations,
        residual: rsq,
        converged: rsq <= tol_sq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimdWidth;

    /// SPD test matrix: tridiagonal Laplacian-ish plus diagonal shift.
    fn spd(n: usize) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.5 + (i as f64 * 0.618).sin() * 0.3;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0 + (i as f64 * 0.21).cos() * 0.05;
                a[(i + 1, i)] = a[(i, i + 1)];
            }
        }
        a
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 13 % 17) as f64) * 0.25 - 1.0)
            .collect()
    }

    #[test]
    fn cg_solves_spd_system() {
        let env = FpEnv::strict();
        let a = spd(40);
        let b = rhs(40);
        let res = conjugate_gradient(&env, &a, &b, 1e-12, 1000);
        assert!(
            res.converged,
            "CG should converge: residual {}",
            res.residual
        );
        // Verify Ax ≈ b.
        let ax = a.gemv(&env, &res.x);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-9, "{axi} vs {bi}");
        }
    }

    #[test]
    fn cg_iteration_path_depends_on_env() {
        // The converged answers differ in low bits across envs even
        // though both satisfy the tolerance (Finding 1 in miniature).
        let a = spd(60);
        let b = rhs(60);
        let strict = conjugate_gradient(&FpEnv::strict(), &a, &b, 1e-12, 1000);
        let fast = conjugate_gradient(
            &FpEnv::strict().with_fma(true).with_simd(SimdWidth::W4),
            &a,
            &b,
            1e-12,
            1000,
        );
        assert!(strict.converged && fast.converged);
        assert_ne!(strict.x, fast.x, "converged iterates should differ in bits");
    }

    #[test]
    fn cg_respects_iteration_cap() {
        let a = spd(30);
        let b = rhs(30);
        let res = conjugate_gradient(&FpEnv::strict(), &a, &b, 1e-300, 3);
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
    }

    #[test]
    fn cg_zero_rhs_converges_immediately() {
        let a = spd(10);
        let res = conjugate_gradient(&FpEnv::strict(), &a, &[0.0; 10], 1e-12, 100);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.x, vec![0.0; 10]);
    }

    #[test]
    fn solver_determinism() {
        let env = FpEnv::fast();
        let a = spd(25);
        let b = rhs(25);
        let r1 = conjugate_gradient(&env, &a, &b, 1e-12, 500);
        let r2 = conjugate_gradient(&env, &a, &b, 1e-12, 500);
        assert_eq!(r1, r2);
    }
}

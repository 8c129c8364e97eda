//! Dense linear algebra under an [`FpEnv`].
//!
//! These are the kernel classes the paper's Bisect runs blamed:
//! MFEM Finding 1 points at "matrix and vector operations"; Finding 2
//! points at a single function computing `M = M + a·A·Aᵀ` "implemented
//! in a straightforward manner using nested for loops".

use crate::env::FpEnv;
use crate::ops;
use crate::reduce;

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "DenseMatrix: data length mismatch");
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `y = A x` under `env`.
    pub fn gemv(&self, env: &FpEnv, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "gemv: dimension mismatch");
        (0..self.rows)
            .map(|r| reduce::dot(env, self.row(r), x))
            .collect()
    }

    /// The rank-1-ish update of MFEM Finding 2: `M += a · A Aᵀ`,
    /// implemented "in a straightforward manner using nested for loops".
    ///
    /// Under FMA + vectorization + extended intermediates this kernel's
    /// inner products reassociate and contract, which is precisely what
    /// produced the paper's 183–197 % relative error on example 13 (the
    /// downstream computation amplifies the perturbation).
    pub fn add_a_aat(&mut self, env: &FpEnv, a: f64, mat: &DenseMatrix) {
        assert_eq!(self.rows, mat.rows, "add_a_aat: row mismatch");
        assert_eq!(self.cols, mat.rows, "add_a_aat: M must be square n×n");
        for i in 0..mat.rows {
            for j in 0..mat.rows {
                let inner = reduce::dot(env, mat.row(i), mat.row(j));
                let scaled = ops::mul(env, a, inner);
                self[(i, j)] = ops::add(env, self[(i, j)], scaled);
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// `y := a*x + y` under `env` (BLAS `axpy`); elementwise, so the only
/// env sensitivity is FMA contraction (and FTZ).
pub(crate) fn axpy(env: &FpEnv, a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (xi, yi) in x.iter().zip(y.iter_mut()) {
        *yi = ops::mul_add(env, a, *xi, *yi);
    }
}

/// `y := a*x + b*y` elementwise.
pub(crate) fn axpby(env: &FpEnv, a: f64, x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch");
    for (xi, yi) in x.iter().zip(y.iter_mut()) {
        let by = ops::mul(env, b, *yi);
        *yi = ops::mul_add(env, a, *xi, by);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimdWidth;

    impl DenseMatrix {
        /// The identity matrix of order `n`.
        fn identity(n: usize) -> Self {
            let mut m = Self::zeros(n, n);
            for i in 0..n {
                m[(i, i)] = 1.0;
            }
            m
        }
    }

    fn test_matrix(n: usize, seed: u64) -> DenseMatrix {
        // Deterministic pseudo-random entries via splitmix64.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z = z ^ (z >> 31);
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        DenseMatrix::from_vec(n, n, (0..n * n).map(|_| next()).collect())
    }

    #[test]
    fn identity_gemv_is_identity() {
        let env = FpEnv::fast();
        let i5 = DenseMatrix::identity(5);
        let x = vec![1.5, -2.0, 3.25, 0.0, 7.0];
        assert_eq!(i5.gemv(&env, &x), x);
    }

    #[test]
    fn gemv_differs_across_envs_on_dense_input() {
        let a = test_matrix(64, 42);
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
        let strict = a.gemv(&FpEnv::strict(), &x);
        let vec4 = a.gemv(&FpEnv::strict().with_simd(SimdWidth::W4), &x);
        let fma = a.gemv(&FpEnv::strict().with_fma(true), &x);
        assert_ne!(strict, vec4);
        assert_ne!(strict, fma);
        // All close though.
        for (s, v) in strict.iter().zip(&vec4) {
            assert!((s - v).abs() < 1e-12);
        }
    }

    #[test]
    fn add_a_aat_is_symmetric_in_exact_cases() {
        let env = FpEnv::strict();
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut m = DenseMatrix::zeros(2, 2);
        m.add_a_aat(&env, 2.0, &a);
        // A·Aᵀ = [[5,11],[11,25]]; scaled by 2.
        assert_eq!(m[(0, 0)], 10.0);
        assert_eq!(m[(0, 1)], 22.0);
        assert_eq!(m[(1, 0)], 22.0);
        assert_eq!(m[(1, 1)], 50.0);
    }

    #[test]
    fn add_a_aat_varies_under_fma_and_simd() {
        let a = test_matrix(32, 7);
        let mut m1 = DenseMatrix::identity(32);
        let mut m2 = DenseMatrix::identity(32);
        m1.add_a_aat(&FpEnv::strict(), 0.731, &a);
        m2.add_a_aat(
            &FpEnv::strict()
                .with_fma(true)
                .with_simd(SimdWidth::W4)
                .with_extended(true),
            0.731,
            &a,
        );
        assert_ne!(m1.data, m2.data);
    }

    #[test]
    fn axpy_matches_reference_in_strict() {
        let env = FpEnv::strict();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.5, 0.25, -1.0];
        axpy(&env, 2.0, &x, &mut y);
        assert_eq!(y, [2.5, 4.25, 5.0]);
    }

    #[test]
    fn axpby_matches_reference_in_strict() {
        let env = FpEnv::strict();
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpby(&env, 1.0, &x, 0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn gemv_dim_check() {
        DenseMatrix::zeros(2, 3).gemv(&FpEnv::strict(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_length_check() {
        DenseMatrix::from_vec(2, 2, vec![1.0]);
    }
}

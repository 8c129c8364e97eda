//! # flit-fpsim
//!
//! A deterministic model of the floating-point *evaluation semantics*
//! that real compilers choose when optimizing numerical code.
//!
//! Compiler-induced result variability — the subject of the FLiT paper
//! (Bentley et al., HPDC '19) — is, at bottom, a change in how a
//! compiler evaluates floating-point expressions:
//!
//! * **FMA contraction** (`-mfma`, `-ffp-contract=fast`): `a*b + c`
//!   becomes a single fused operation with one rounding instead of two.
//! * **Reassociation / vectorization** (`-funsafe-math-optimizations`,
//!   `-fp-model fast`): reductions are split across SIMD lanes, changing
//!   the order of additions.
//! * **Extended-precision intermediates** (x87-style, or
//!   `-ffloat-store` to disable them): intermediate values carry more
//!   mantissa bits than a stored `double`.
//! * **Reciprocal math** (`-freciprocal-math`): `x / y` becomes
//!   `x * (1/y)`.
//! * **Flush-to-zero** (`-ftz`): subnormal results are flushed to 0.
//! * **Math-library substitution** (e.g. Intel's SVML at link time):
//!   `exp`, `log`, `sin`, … return values that differ in the last ulp
//!   or two from glibc's.
//!
//! This crate implements each of those semantics *bit-faithfully* on top
//! of ordinary `f64` arithmetic, parameterized by an [`FpEnv`]. Given
//! the same `FpEnv` and inputs, every function in this crate is
//! perfectly deterministic; given two different `FpEnv`s, the results
//! differ exactly the way two differently-optimized binaries differ.
//!
//! Layered on top of the scalar semantics are the numerical kernels the
//! paper's case studies blame for variability: reductions and dot
//! products ([`reduce`]), dense linear algebra including the
//! `M += a·A·Aᵀ` rank-1 update of MFEM Finding 2 ([`linalg`]), a
//! conjugate-gradient solve with a tolerance-based stopping criterion
//! as in MFEM Finding 1 ([`solve`]), polynomial evaluation ([`poly`]),
//! and stencil updates ([`stencil`]).

pub mod compensated;
pub mod dd;
pub mod env;
pub mod interval;
pub mod linalg;
pub mod mathlib;
pub mod ops;
pub mod poly;
pub mod reduce;
pub mod solve;
pub mod stencil;
pub mod ulp;

pub use dd::Dd;
pub use env::{FpEnv, MathLib, SimdWidth};
pub use interval::Interval;
pub use linalg::DenseMatrix;

//! The floating-point evaluation environment.
//!
//! An [`FpEnv`] captures *what a particular compilation does to
//! floating-point arithmetic*. The `flit-toolchain` crate maps a
//! `(compiler, optimization level, switches)` triple to an `FpEnv`;
//! every numerical kernel in the system then evaluates under that
//! environment.

use serde::{Deserialize, Serialize};

/// SIMD lane count used when a compilation vectorizes a reduction loop.
///
/// A width of `W1` means strict sequential (left-to-right) evaluation —
/// the ISO C/C++ semantics. Wider widths model the accumulator-splitting
/// reassociation that auto-vectorizers perform: the loop is evaluated in
/// `W` independent partial accumulators which are combined at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SimdWidth {
    /// Scalar, strictly-ordered evaluation.
    W1,
    /// Two lanes (SSE2-on-doubles era).
    W2,
    /// Four lanes (AVX2 on doubles).
    W4,
    /// Eight lanes (AVX-512 on doubles).
    W8,
}

impl SimdWidth {
    /// Number of lanes.
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            SimdWidth::W1 => 1,
            SimdWidth::W2 => 2,
            SimdWidth::W4 => 4,
            SimdWidth::W8 => 8,
        }
    }
}

/// Which math library implementation an executable was linked against.
///
/// Real toolchains substitute math libraries at *link* time: the Intel
/// toolchain links SVML / libimf, whose `exp`/`log`/`sin` differ from
/// glibc's in the final ulp or two. The FLiT paper observed exactly this
/// on MFEM examples 4, 5, 9, 10 and 15: "variability was introduced by
/// the Intel link step, regardless of optimization level or switches".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MathLib {
    /// The reference library (glibc-style, correctly-rounded-ish).
    #[default]
    Reference,
    /// A vendor math library with fast polynomial approximations
    /// (SVML/libimf-style); accurate to a few ulps but not identical.
    Vendor,
}

/// The complete floating-point evaluation semantics of one compilation.
///
/// This is the contract between the simulated toolchain and every
/// numerical kernel: two compilations produce bitwise-identical results
/// on all kernels if and only if their `FpEnv`s are equal (and they link
/// the same [`MathLib`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FpEnv {
    /// Contract `a*b + c` into a fused multiply-add (single rounding).
    pub fma: bool,
    /// Lane count used to reassociate reduction loops.
    pub simd_width: SimdWidth,
    /// Keep intermediates in extended precision (emulated as
    /// double-double) and round only at stores. `-ffloat-store` turns
    /// this *off*; x87 code generation and some `-fp-model` settings
    /// turn it *on*.
    pub extended_precision: bool,
    /// Rewrite `x / y` into `x * (1/y)` (`-freciprocal-math`, implied by
    /// `-funsafe-math-optimizations` / `-ffast-math`).
    pub reciprocal_math: bool,
    /// Flush subnormal results to zero (DAZ/FTZ, default under `icpc`).
    pub flush_to_zero: bool,
    /// Math library selected at link time.
    pub mathlib: MathLib,
    /// The compiler exploits undefined behaviour aggressively (models
    /// `xlc++ -O3`-class transformations that broke the Laghos `xsw`
    /// swap macro). Kernels that contain UB misbehave iff this is set.
    pub exploit_ub: bool,
}

impl Default for FpEnv {
    fn default() -> Self {
        FpEnv::strict()
    }
}

impl FpEnv {
    /// The strict, trusted-baseline semantics: sequential evaluation,
    /// no contraction, no extended precision, reference math library.
    ///
    /// This models `g++ -O0` (the baseline compilation in the paper's
    /// MFEM study).
    pub const fn strict() -> Self {
        FpEnv {
            fma: false,
            simd_width: SimdWidth::W1,
            extended_precision: false,
            reciprocal_math: false,
            flush_to_zero: false,
            mathlib: MathLib::Reference,
            exploit_ub: false,
        }
    }

    /// Fully aggressive semantics (`-Ofast`-class): FMA, 4-wide
    /// reassociation, reciprocal math, FTZ.
    pub const fn fast() -> Self {
        FpEnv {
            fma: true,
            simd_width: SimdWidth::W4,
            extended_precision: false,
            reciprocal_math: true,
            flush_to_zero: true,
            mathlib: MathLib::Reference,
            exploit_ub: true,
        }
    }

    /// Builder-style setter for [`FpEnv::fma`].
    pub fn with_fma(mut self, fma: bool) -> Self {
        self.fma = fma;
        self
    }

    /// Builder-style setter for [`FpEnv::simd_width`].
    pub fn with_simd(mut self, w: SimdWidth) -> Self {
        self.simd_width = w;
        self
    }

    /// Builder-style setter for [`FpEnv::extended_precision`].
    pub fn with_extended(mut self, x: bool) -> Self {
        self.extended_precision = x;
        self
    }

    /// Builder-style setter for [`FpEnv::reciprocal_math`].
    pub fn with_recip(mut self, r: bool) -> Self {
        self.reciprocal_math = r;
        self
    }

    /// Builder-style setter for [`FpEnv::mathlib`].
    pub fn with_mathlib(mut self, m: MathLib) -> Self {
        self.mathlib = m;
        self
    }

    /// Builder-style setter for [`FpEnv::exploit_ub`].
    pub fn with_exploit_ub(mut self, u: bool) -> Self {
        self.exploit_ub = u;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_is_default() {
        assert_eq!(FpEnv::default(), FpEnv::strict());
    }

    #[test]
    fn builders_set_fields() {
        let e = FpEnv::strict()
            .with_fma(true)
            .with_simd(SimdWidth::W8)
            .with_extended(true)
            .with_recip(true)
            .with_mathlib(MathLib::Vendor)
            .with_exploit_ub(true);
        assert!(e.fma && e.extended_precision && e.reciprocal_math);
        assert_eq!(e.simd_width, SimdWidth::W8);
        assert_eq!(e.mathlib, MathLib::Vendor);
        assert!(e.exploit_ub);
    }

    #[test]
    fn simd_width_lanes() {
        for (w, n) in [
            (SimdWidth::W1, 1),
            (SimdWidth::W2, 2),
            (SimdWidth::W4, 4),
            (SimdWidth::W8, 8),
        ] {
            assert_eq!(w.lanes(), n);
        }
    }

    #[test]
    fn env_hash_and_eq_are_consistent() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(FpEnv::strict());
        set.insert(FpEnv::strict());
        set.insert(FpEnv::fast());
        assert_eq!(set.len(), 2);
    }
}

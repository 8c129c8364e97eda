//! The optimization-switch catalog.
//!
//! §3.1: "we paired a base optimization level, -O0 through -O3, with a
//! single flag combination, taken from the list used in \[34\]. This
//! cartesian product leads to 244 compilations." The per-compiler
//! catalogs below have 17 (gcc), 18 (clang) and 26 (icpc) flag
//! combinations including the empty one, giving 68 + 72 + 104 = 244
//! compilations over the four levels.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::compiler::CompilerKind;

/// A single optimization switch (or a vendor-idiomatic combination that
/// the studies treat as one unit, like `-mavx2 -mfma`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)] // each variant is documented by its flag text below
pub enum Switch {
    // ---- GNU/Clang family ----
    UnsafeMathOptimizations,
    FastMath,
    FiniteMathOnly,
    AssociativeMath,
    ReciprocalMath,
    Avx2Fma,
    Avx,
    Sse42,
    FpMath387,
    FloatStore,
    ExcessPrecisionFast,
    MergeAllConstants,
    UnrollLoops,
    NoTrappingMath,
    RoundingMath,
    Avx2FmaUnsafe,
    FpContractFast,
    FpContractOff,
    DenormalPreserveSign,
    DenormalPositiveZero,
    Vectorize,
    NoVectorize,
    Avx2FmaFastMath,
    // ---- Intel ----
    FpModelFast1,
    FpModelFast2,
    FpModelPrecise,
    FpModelStrict,
    FpModelSource,
    FpModelDouble,
    FpModelExtended,
    NoFtz,
    Ftz,
    FmaFlag,
    NoFma,
    PrecDiv,
    NoPrecDiv,
    PrecSqrt,
    NoPrecSqrt,
    XHost,
    MArchAvx2,
    IntelFast,
    Unroll,
    ImfPrecisionHigh,
    ImfPrecisionLow,
    FltConsistency,
    Mp1,
    MultiplePointerAlias,
    InlineLevel2,
    QOptZmmUsage,
    // ---- IBM ----
    QStrictVectorPrecision,
    QHot,
    QSimdAuto,
    QFloatRsqrt,
    QMaf,
    QNoMaf,
    // ---- FLiT-internal ----
    /// Position-independent code; required for symbol interposition
    /// (Symbol Bisect recompiles the target file with this).
    Pic,
}

impl Switch {
    /// The literal flag text as passed to the compiler driver.
    pub fn text(self) -> &'static str {
        use Switch::*;
        match self {
            UnsafeMathOptimizations => "-funsafe-math-optimizations",
            FastMath => "-ffast-math",
            FiniteMathOnly => "-ffinite-math-only",
            AssociativeMath => "-fassociative-math",
            ReciprocalMath => "-freciprocal-math",
            Avx2Fma => "-mavx2 -mfma",
            Avx => "-mavx",
            Sse42 => "-msse4.2",
            FpMath387 => "-mfpmath=387",
            FloatStore => "-ffloat-store",
            ExcessPrecisionFast => "-fexcess-precision=fast",
            MergeAllConstants => "-fmerge-all-constants",
            UnrollLoops => "-funroll-loops",
            NoTrappingMath => "-fno-trapping-math",
            RoundingMath => "-frounding-math",
            Avx2FmaUnsafe => "-mavx2 -mfma -funsafe-math-optimizations",
            FpContractFast => "-ffp-contract=fast",
            FpContractOff => "-ffp-contract=off",
            DenormalPreserveSign => "-fdenormal-fp-math=preserve-sign",
            DenormalPositiveZero => "-fdenormal-fp-math=positive-zero",
            Vectorize => "-fvectorize",
            NoVectorize => "-fno-vectorize",
            Avx2FmaFastMath => "-mavx2 -mfma -ffast-math",
            FpModelFast1 => "-fp-model fast=1",
            FpModelFast2 => "-fp-model fast=2",
            FpModelPrecise => "-fp-model precise",
            FpModelStrict => "-fp-model strict",
            FpModelSource => "-fp-model source",
            FpModelDouble => "-fp-model double",
            FpModelExtended => "-fp-model extended",
            NoFtz => "-no-ftz",
            Ftz => "-ftz",
            FmaFlag => "-fma",
            NoFma => "-no-fma",
            PrecDiv => "-prec-div",
            NoPrecDiv => "-no-prec-div",
            PrecSqrt => "-prec-sqrt",
            NoPrecSqrt => "-no-prec-sqrt",
            XHost => "-xHost",
            MArchAvx2 => "-march=core-avx2",
            IntelFast => "-fast",
            Unroll => "-unroll",
            ImfPrecisionHigh => "-fimf-precision=high",
            ImfPrecisionLow => "-fimf-precision=low",
            FltConsistency => "-fltconsistency",
            Mp1 => "-mp1",
            MultiplePointerAlias => "-fno-alias",
            InlineLevel2 => "-inline-level=2",
            QOptZmmUsage => "-qopt-zmm-usage=high",
            QStrictVectorPrecision => "-qstrict=vectorprecision",
            QHot => "-qhot",
            QSimdAuto => "-qsimd=auto",
            QFloatRsqrt => "-qfloat=rsqrt",
            QMaf => "-qfloat=maf",
            QNoMaf => "-qfloat=nomaf",
            Pic => "-fPIC",
        }
    }
}

impl fmt::Display for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text())
    }
}

/// The flag combinations swept for one compiler (each entry pairs with
/// every optimization level). The first entry is always the empty
/// combination.
pub(crate) fn flag_catalog(compiler: CompilerKind) -> Vec<Vec<Switch>> {
    use Switch::*;
    match compiler {
        CompilerKind::Gcc => vec![
            vec![],
            vec![UnsafeMathOptimizations],
            vec![FastMath],
            vec![FiniteMathOnly],
            vec![AssociativeMath],
            vec![ReciprocalMath],
            vec![Avx2Fma],
            vec![Avx],
            vec![Sse42],
            vec![FpMath387],
            vec![FloatStore],
            vec![ExcessPrecisionFast],
            vec![MergeAllConstants],
            vec![UnrollLoops],
            vec![NoTrappingMath],
            vec![RoundingMath],
            vec![Avx2FmaUnsafe],
        ],
        CompilerKind::Clang => vec![
            vec![],
            vec![UnsafeMathOptimizations],
            vec![FastMath],
            vec![FiniteMathOnly],
            vec![AssociativeMath],
            vec![ReciprocalMath],
            vec![Avx2Fma],
            vec![Avx],
            vec![Sse42],
            vec![FpContractFast],
            vec![FpContractOff],
            vec![DenormalPreserveSign],
            vec![DenormalPositiveZero],
            vec![UnrollLoops],
            vec![Vectorize],
            vec![NoVectorize],
            vec![MergeAllConstants],
            vec![Avx2FmaFastMath],
        ],
        CompilerKind::Icpc => vec![
            vec![],
            vec![FpModelFast1],
            vec![FpModelFast2],
            vec![FpModelPrecise],
            vec![FpModelStrict],
            vec![FpModelSource],
            vec![FpModelDouble],
            vec![FpModelExtended],
            vec![NoFtz],
            vec![Ftz],
            vec![FmaFlag],
            vec![NoFma],
            vec![PrecDiv],
            vec![NoPrecDiv],
            vec![PrecSqrt],
            vec![NoPrecSqrt],
            vec![XHost],
            vec![MArchAvx2],
            vec![IntelFast],
            vec![Unroll],
            vec![ImfPrecisionHigh],
            vec![ImfPrecisionLow],
            vec![FltConsistency],
            vec![Mp1],
            vec![MultiplePointerAlias],
            vec![InlineLevel2],
        ],
        CompilerKind::Xlc => vec![
            vec![],
            vec![QStrictVectorPrecision],
            vec![QHot],
            vec![QSimdAuto],
            vec![QMaf],
            vec![QNoMaf],
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_sizes_match_table_1() {
        // 17*4 = 68, 18*4 = 72, 26*4 = 104 → 244 total, and the paper's
        // run counts 1368 = 72*19 and 1976 = 104*19 pin clang and icpc.
        assert_eq!(flag_catalog(CompilerKind::Gcc).len(), 17);
        assert_eq!(flag_catalog(CompilerKind::Clang).len(), 18);
        assert_eq!(flag_catalog(CompilerKind::Icpc).len(), 26);
        let total: usize = CompilerKind::MFEM_STUDY
            .iter()
            .map(|&c| flag_catalog(c).len() * 4)
            .sum();
        assert_eq!(total, 244);
    }

    #[test]
    fn first_combo_is_empty() {
        for c in [
            CompilerKind::Gcc,
            CompilerKind::Clang,
            CompilerKind::Icpc,
            CompilerKind::Xlc,
        ] {
            assert!(flag_catalog(c)[0].is_empty());
        }
    }

    #[test]
    fn catalog_has_no_duplicate_combos() {
        for c in [
            CompilerKind::Gcc,
            CompilerKind::Clang,
            CompilerKind::Icpc,
            CompilerKind::Xlc,
        ] {
            let cat = flag_catalog(c);
            for i in 0..cat.len() {
                for j in (i + 1)..cat.len() {
                    assert_ne!(cat[i], cat[j], "{c}: duplicate combo at {i}/{j}");
                }
            }
        }
    }

    #[test]
    fn flag_text_is_stable() {
        assert_eq!(Switch::Avx2Fma.text(), "-mavx2 -mfma");
        assert_eq!(Switch::FpModelFast2.to_string(), "-fp-model fast=2");
        assert_eq!(Switch::Pic.text(), "-fPIC");
        assert_eq!(
            Switch::QStrictVectorPrecision.text(),
            "-qstrict=vectorprecision"
        );
    }
}

//! The compilation triple and its mapping to floating-point semantics.
//!
//! This is the heart of the toolchain substitution: every
//! *(compiler, level, switches)* triple deterministically yields the
//! [`FpEnv`] its generated code evaluates under. The mapping encodes the
//! documented behaviour of the real compilers:
//!
//! * **g++** is value-safe by default at every level; only explicit
//!   flags (`-funsafe-math-optimizations`, `-mavx2 -mfma`,
//!   `-mfpmath=387`, …) change results.
//! * **clang++** (6.0) is even more conservative: sub-flags like
//!   `-fassociative-math` don't meet their own preconditions alone, so
//!   value changes effectively require the fast-math bundle.
//! * **icpc** defaults to `-fp-model fast=1` at `-O1` and above —
//!   reassociation and FTZ *by default* — and always links its vendor
//!   math library, which is why the paper found 49.8 % of Intel
//!   compilations variable and five MFEM examples variable under every
//!   Intel compilation.
//! * **xlc++** contracts to multiply-add by default (POWER `maf`) and
//!   at `-O3` performs the aggressive, UB-exploiting transforms that
//!   broke the Laghos `xsw` macro; `-qstrict=vectorprecision` reins the
//!   vectorizer back in.

use serde::{Deserialize, Serialize};
use std::fmt;

use flit_fpsim::env::{FpEnv, MathLib, SimdWidth};

use crate::compiler::{CompilerKind, OptLevel};
use crate::flags::{flag_catalog, Switch};

/// A compilation: the paper's *(Compiler, Optimization Level, Switches)*
/// triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Compilation {
    /// Which compiler driver.
    pub compiler: CompilerKind,
    /// Base optimization level.
    pub opt: OptLevel,
    /// Additional switches (one catalog combination).
    pub switches: Vec<Switch>,
}

impl Compilation {
    /// Create a compilation.
    pub fn new(compiler: CompilerKind, opt: OptLevel, switches: Vec<Switch>) -> Self {
        Compilation {
            compiler,
            opt,
            switches,
        }
    }

    /// The trusted baseline of the MFEM study: `g++ -O0`.
    pub fn baseline() -> Self {
        Compilation::new(CompilerKind::Gcc, OptLevel::O0, vec![])
    }

    /// The performance reference of the MFEM study: `g++ -O2`.
    pub fn perf_reference() -> Self {
        Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![])
    }

    /// Does this compilation include the given switch?
    pub(crate) fn has(&self, s: Switch) -> bool {
        self.switches.contains(&s)
    }

    /// Human-readable label, e.g. `g++ -O2 -funsafe-math-optimizations`.
    pub fn label(&self) -> String {
        let mut s = format!("{} {}", self.compiler.driver(), self.opt);
        for sw in &self.switches {
            s.push(' ');
            s.push_str(sw.text());
        }
        s
    }

    /// A copy of this compilation with `-fPIC` added (Symbol Bisect
    /// recompiles the target file this way to enable interposition).
    pub fn with_pic(&self) -> Self {
        let mut c = self.clone();
        if !c.has(Switch::Pic) {
            c.switches.push(Switch::Pic);
        }
        c
    }

    /// True if any of the AVX2+FMA-targeting switches are present.
    fn targets_fma_hardware(&self) -> bool {
        use Switch::*;
        self.switches.iter().any(|s| {
            matches!(
                s,
                Avx2Fma | Avx2FmaUnsafe | Avx2FmaFastMath | XHost | MArchAvx2 | IntelFast
            )
        })
    }

    /// True if any AVX-class vector ISA is targeted (wider reassociation
    /// when the optimizer is allowed to reassociate).
    fn targets_wide_vectors(&self) -> bool {
        use Switch::*;
        self.targets_fma_hardware() || self.switches.iter().any(|s| matches!(s, Avx))
    }

    /// The floating-point evaluation semantics of code generated by this
    /// compilation, *before* the link step chooses a math library.
    /// [`Compilation::fp_env_linked`] applies the link-step override.
    pub fn fp_env(&self) -> FpEnv {
        use Switch::*;
        let mut env = FpEnv::strict();
        let opt1 = self.opt.optimizing();
        let opt2 = self.opt >= OptLevel::O2;

        match self.compiler {
            CompilerKind::Gcc => {
                let reassoc = self.switches.iter().any(|s| {
                    matches!(
                        s,
                        UnsafeMathOptimizations | FastMath | AssociativeMath | Avx2FmaUnsafe
                    )
                });
                // Contraction requires the optimizer's combine pass
                // (gcc emits separate mul/add at -O0/-O1 in practice).
                if opt2 && self.targets_fma_hardware() {
                    env.fma = true;
                }
                if opt1
                    && self.switches.iter().any(|s| {
                        matches!(
                            s,
                            ReciprocalMath | UnsafeMathOptimizations | FastMath | Avx2FmaUnsafe
                        )
                    })
                {
                    env.reciprocal_math = true;
                }
                if opt1 && self.has(FastMath) {
                    env.flush_to_zero = true;
                }
                if reassoc && self.opt >= OptLevel::O3 {
                    // gcc 8 only runs the loop vectorizer at -O3
                    // (-ftree-vectorize joined -O2 much later), so
                    // reduction accumulators split only there.
                    env.simd_width = if self.targets_wide_vectors() {
                        SimdWidth::W4
                    } else {
                        SimdWidth::W2
                    };
                }
                if self.has(FpMath387) {
                    // x87 code generation: extended intermediates at
                    // every level (it is a code-generation choice, not
                    // an optimization).
                    env.extended_precision = true;
                }
                if self.has(FloatStore) {
                    env.extended_precision = false;
                }
                if self.has(RoundingMath) {
                    env.fma = false;
                }
            }
            CompilerKind::Clang => {
                // clang 6 keeps ffp-contract=off for C++ and requires the
                // full fast-math bundle before its value-changing
                // transforms meet their preconditions.
                let fast = self.has(FastMath) || self.has(Avx2FmaFastMath);
                if opt1 && fast {
                    env.reciprocal_math = true;
                    env.flush_to_zero = true;
                    if opt2 && self.targets_fma_hardware() {
                        env.fma = true;
                    }
                    if opt2 && !self.has(NoVectorize) {
                        env.simd_width = if self.targets_wide_vectors() {
                            SimdWidth::W4
                        } else {
                            SimdWidth::W2
                        };
                    }
                }
                // Sub-bundle flags (-funsafe-math-optimizations alone,
                // -fassociative-math alone) do not meet clang 6's
                // preconditions for value-changing transforms.
                if self.has(DenormalPositiveZero) {
                    env.flush_to_zero = true;
                }
            }
            CompilerKind::Icpc => {
                let conservative = self.switches.iter().any(|s| {
                    matches!(
                        s,
                        FpModelPrecise
                            | FpModelStrict
                            | FpModelSource
                            | FpModelDouble
                            | FpModelExtended
                            | FltConsistency
                            | Mp1
                    )
                });
                if opt1 && !conservative {
                    // Default -fp-model fast=1: reassociation and FTZ on.
                    env.simd_width = if self.targets_wide_vectors() || self.has(FpModelFast2) {
                        SimdWidth::W4
                    } else {
                        SimdWidth::W2
                    };
                    env.flush_to_zero = !self.has(NoFtz);
                    if self.targets_fma_hardware() {
                        env.fma = true;
                    }
                }
                if self.has(Ftz) {
                    env.flush_to_zero = true;
                }
                if opt1 && (self.has(FpModelFast2) || self.has(NoPrecDiv)) && !conservative {
                    env.reciprocal_math = true;
                }
                if self.has(FpModelDouble) || self.has(FpModelExtended) {
                    env.extended_precision = true;
                }
                if self.has(NoFma) {
                    env.fma = false;
                }
                if self.has(FpModelStrict) {
                    env.flush_to_zero = false;
                }
            }
            CompilerKind::Xlc => {
                // POWER multiply-add contraction is the default at -O1+
                // unless -qfloat=nomaf.
                if opt1 && !self.has(QNoMaf) {
                    env.fma = true;
                }
                if self.has(QMaf) {
                    env.fma = true;
                }
                if self.opt >= OptLevel::O3 {
                    env.exploit_ub = true;
                    if !self.has(QStrictVectorPrecision) {
                        env.simd_width = if self.has(QHot) || self.has(QSimdAuto) {
                            SimdWidth::W4
                        } else {
                            SimdWidth::W2
                        };
                    }
                }
                if self.has(QFloatRsqrt) && opt1 {
                    env.reciprocal_math = true;
                }
            }
        }
        env
    }

    /// The semantics of this compilation's code inside an executable
    /// whose *link step* was driven by `driver`. The math library is a
    /// link-time substitution: an Intel-driven link pulls in the vendor
    /// library regardless of how each object was compiled.
    pub fn fp_env_linked(&self, driver: CompilerKind) -> FpEnv {
        let mut env = self.fp_env();
        env.mathlib = if driver == CompilerKind::Icpc {
            MathLib::Vendor
        } else {
            MathLib::Reference
        };
        env
    }
}

impl fmt::Display for Compilation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Enumerate the full compilation matrix for one compiler: every
/// catalog flag combination at every optimization level.
pub fn compilation_matrix(compiler: CompilerKind) -> Vec<Compilation> {
    let mut out = Vec::new();
    for combo in flag_catalog(compiler) {
        for &opt in &OptLevel::ALL {
            out.push(Compilation::new(compiler, opt, combo.clone()));
        }
    }
    out
}

/// The full MFEM-study matrix over all three compilers (244
/// compilations, §3.1).
pub fn mfem_matrix() -> Vec<Compilation> {
    CompilerKind::MFEM_STUDY
        .iter()
        .flat_map(|&c| compilation_matrix(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Compilation {
        /// Whether this compilation can produce results that differ from the
        /// strict baseline on some kernel when linked by its own driver.
        fn is_value_changing(&self) -> bool {
            self.fp_env_linked(self.compiler)
                != Compilation::baseline().fp_env_linked(CompilerKind::Gcc)
        }
    }

    #[test]
    fn matrix_has_244_compilations() {
        assert_eq!(mfem_matrix().len(), 244);
        assert_eq!(compilation_matrix(CompilerKind::Gcc).len(), 68);
        assert_eq!(compilation_matrix(CompilerKind::Clang).len(), 72);
        assert_eq!(compilation_matrix(CompilerKind::Icpc).len(), 104);
    }

    #[test]
    fn baseline_is_strict() {
        let env = Compilation::baseline().fp_env_linked(CompilerKind::Gcc);
        assert_eq!(env, FpEnv::strict());
        assert!(!Compilation::baseline().is_value_changing());
    }

    #[test]
    fn gcc_plain_o3_is_bitwise_equal() {
        // Figure 4a: "Fastest bitwise equal: g++ -O3" — plain -O3 must
        // not change values.
        let c = Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![]);
        assert!(!c.is_value_changing());
    }

    #[test]
    fn gcc_avx2_fma_contracts_at_o2_plus() {
        let c = |opt| Compilation::new(CompilerKind::Gcc, opt, vec![Switch::Avx2Fma]);
        assert!(!c(OptLevel::O0).fp_env().fma);
        assert!(!c(OptLevel::O1).fp_env().fma);
        assert!(c(OptLevel::O2).fp_env().fma);
        assert!(c(OptLevel::O2).is_value_changing());
    }

    #[test]
    fn gcc_unsafe_math_reassociates_at_o3() {
        let c = |opt| {
            Compilation::new(
                CompilerKind::Gcc,
                opt,
                vec![Switch::UnsafeMathOptimizations],
            )
        };
        assert_eq!(c(OptLevel::O1).fp_env().simd_width, SimdWidth::W1);
        assert!(c(OptLevel::O1).fp_env().reciprocal_math);
        assert_eq!(
            c(OptLevel::O2).fp_env().simd_width,
            SimdWidth::W1,
            "gcc 8 does not vectorize at -O2"
        );
        assert_eq!(c(OptLevel::O3).fp_env().simd_width, SimdWidth::W2);
        let combo = Compilation::new(CompilerKind::Gcc, OptLevel::O3, vec![Switch::Avx2FmaUnsafe]);
        assert_eq!(combo.fp_env().simd_width, SimdWidth::W4);
        assert!(combo.fp_env().fma);
    }

    #[test]
    fn gcc_x87_is_extended_even_at_o0() {
        let c = Compilation::new(CompilerKind::Gcc, OptLevel::O0, vec![Switch::FpMath387]);
        assert!(c.fp_env().extended_precision);
        assert!(c.is_value_changing());
    }

    #[test]
    fn gcc_float_store_cancels_extended() {
        let c = Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::FloatStore]);
        assert!(!c.fp_env().extended_precision);
        assert!(!c.is_value_changing());
    }

    #[test]
    fn clang_is_conservative_without_fast_math() {
        for sw in [
            Switch::AssociativeMath,
            Switch::ReciprocalMath,
            Switch::Avx2Fma,
            Switch::FpContractFast,
        ] {
            let c = Compilation::new(CompilerKind::Clang, OptLevel::O3, vec![sw]);
            assert!(
                !c.is_value_changing(),
                "clang -O3 {} should be value-safe in our model",
                sw.text()
            );
        }
        let fast = Compilation::new(CompilerKind::Clang, OptLevel::O3, vec![Switch::FastMath]);
        assert!(fast.is_value_changing());
    }

    #[test]
    fn icpc_defaults_to_fast_model_and_vendor_lib() {
        let c = Compilation::new(CompilerKind::Icpc, OptLevel::O2, vec![]);
        let env = c.fp_env_linked(CompilerKind::Icpc);
        assert_eq!(env.simd_width, SimdWidth::W2);
        assert!(env.flush_to_zero);
        assert_eq!(env.mathlib, MathLib::Vendor);
        assert!(c.is_value_changing());
        // Even -O0 icpc is variable through the link-step math library.
        let o0 = Compilation::new(CompilerKind::Icpc, OptLevel::O0, vec![]);
        assert!(o0.is_value_changing());
        assert_eq!(o0.fp_env(), FpEnv::strict());
    }

    #[test]
    fn icpc_precise_reins_in_the_optimizer() {
        let c = Compilation::new(
            CompilerKind::Icpc,
            OptLevel::O3,
            vec![Switch::FpModelPrecise],
        );
        let env = c.fp_env();
        assert_eq!(env.simd_width, SimdWidth::W1);
        assert!(!env.fma);
        // …but the vendor math library still makes it a variable
        // compilation overall when icpc drives the link.
        assert!(c.is_value_changing());
    }

    #[test]
    fn icpc_object_in_gnu_link_loses_vendor_lib() {
        let c = Compilation::new(CompilerKind::Icpc, OptLevel::O0, vec![]);
        let env = c.fp_env_linked(CompilerKind::Gcc);
        assert_eq!(env.mathlib, MathLib::Reference);
    }

    #[test]
    fn xlc_o3_exploits_ub_and_strict_disables_vectors() {
        let o2 = Compilation::new(CompilerKind::Xlc, OptLevel::O2, vec![]);
        let o3 = Compilation::new(CompilerKind::Xlc, OptLevel::O3, vec![]);
        let strict = Compilation::new(
            CompilerKind::Xlc,
            OptLevel::O3,
            vec![Switch::QStrictVectorPrecision],
        );
        assert!(o2.fp_env().fma, "maf contraction is the xlc default");
        assert!(!o2.fp_env().exploit_ub);
        assert!(o3.fp_env().exploit_ub);
        assert_eq!(o3.fp_env().simd_width, SimdWidth::W2);
        assert_eq!(strict.fp_env().simd_width, SimdWidth::W1);
    }

    #[test]
    fn with_pic_adds_flag_once() {
        let c = Compilation::perf_reference().with_pic();
        assert!(c.has(Switch::Pic));
        assert_eq!(c.with_pic().switches.len(), c.switches.len());
    }

    #[test]
    fn labels_render() {
        let c = Compilation::new(
            CompilerKind::Gcc,
            OptLevel::O2,
            vec![Switch::UnsafeMathOptimizations],
        );
        assert_eq!(c.label(), "g++ -O2 -funsafe-math-optimizations");
        assert_eq!(Compilation::baseline().label(), "g++ -O0");
    }

    #[test]
    fn fp_env_is_deterministic() {
        for c in mfem_matrix() {
            assert_eq!(c.fp_env(), c.fp_env());
            assert_eq!(
                c.fp_env_linked(CompilerKind::Gcc).mathlib,
                MathLib::Reference
            );
        }
    }
}

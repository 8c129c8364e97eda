//! The compilation-pair menu a fuzz seed draws from, with the *hit
//! table*: which plantable kernels actually feel each pair's FpEnv
//! difference. The table is engineered (not measured at campaign time)
//! and pinned against the fpsim ground truth by
//! `tests::hit_tables_match_the_dynamic_truth` — if the environment
//! derivation or a kernel's numerics ever drift, that unit test breaks,
//! not a thousand campaign seeds.

use flit_program::generate::PlantKernel;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::flags::Switch;

/// One `(baseline, variable)` compilation pair the campaign bisects.
/// The baseline is always [`Compilation::baseline`] (`g++ -O0`), and
/// bisections link with the baseline driver (g++), exactly as
/// `flit bisect` does.
#[derive(Debug, Clone)]
pub(crate) struct FuzzPair {
    /// Short name for reports and shrunk fixtures.
    pub name: &'static str,
    /// The variable compilation.
    pub variable: Compilation,
    /// Plantable kernels whose value changes under this pair's env
    /// diff. A planted site is *expected blame* iff its kernel is here.
    pub hits: &'static [PlantKernel],
    /// True when mixing the pair's objects under the g++ link driver is
    /// an ABI hazard: any Test run may crash (Table 2's Intel column),
    /// so the oracle accepts `Crashed` as an explained outcome.
    pub abi_hazard: bool,
}

use PlantKernel::*;

/// `g++ -O3 -mavx2 -mfma -funsafe-math-optimizations`: FMA contraction,
/// 4-lane reduction splitting, and reciprocal math — every plantable
/// kernel diverges.
const GCC_UNSAFE_HITS: &[PlantKernel] = &[Dot, MatVec, Rank1, Norm, Poly, Chaotic, Cg, Div];

/// `g++ -O2 -mavx2 -mfma`: FMA contraction only (the value-unsafe part
/// of plain vector targeting). Every kernel whose update rounds a
/// multiply-add — including `Norm`'s sum-of-squares — moves;
/// reciprocal-only `Div` stays bitwise identical.
const GCC_FMA_HITS: &[PlantKernel] = &[Dot, MatVec, Rank1, Norm, Poly, Chaotic, Cg];

/// `icpc -O2 -fp-model fast=2`: wide reassociation, FTZ, and reciprocal
/// math, but no FMA target. FMA-only kernels (`Poly`'s serial Horner
/// chain, `Chaotic`'s logistic relaxation) stay identical, and so does
/// `Rank1`: the plant menu caps its dots at length 7, below the W4
/// vectorization threshold (`len >= 2` lanes), so its reductions stay
/// scalar and keep the baseline association order. Everything with a
/// long reduction or a division diverges.
const ICPC_FAST2_HITS: &[PlantKernel] = &[Dot, MatVec, Norm, Cg, Div];

/// The full pair menu.
pub(crate) fn pair_menu() -> Vec<FuzzPair> {
    vec![
        FuzzPair {
            name: "gcc-unsafe",
            variable: Compilation::new(
                CompilerKind::Gcc,
                OptLevel::O3,
                vec![Switch::Avx2FmaUnsafe],
            ),
            hits: GCC_UNSAFE_HITS,
            abi_hazard: false,
        },
        FuzzPair {
            name: "gcc-fma",
            variable: Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::Avx2Fma]),
            hits: GCC_FMA_HITS,
            abi_hazard: false,
        },
        FuzzPair {
            name: "icpc-fast2",
            variable: Compilation::new(
                CompilerKind::Icpc,
                OptLevel::O2,
                vec![Switch::FpModelFast2],
            ),
            hits: ICPC_FAST2_HITS,
            abi_hazard: true,
        },
    ]
}

/// The pair a seed bisects: round-robin over the menu, so every third
/// seed exercises the ABI-hazard path.
pub(crate) fn pair_for_seed(seed: u64) -> FuzzPair {
    let mut menu = pair_menu();
    menu.swap_remove((seed % menu.len() as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_program::generate::SplitMix;
    use flit_toolchain::mixed_abi_hazard;

    /// Evaluate one kernel instantiation under both sides of a pair on
    /// a deterministic state; `true` when any element differs.
    fn diverges(pair: &FuzzPair, kernel: PlantKernel, rng_seed: u64) -> bool {
        let env_b = Compilation::baseline().fp_env_linked(CompilerKind::Gcc);
        let env_v = pair.variable.fp_env_linked(CompilerKind::Gcc);
        let k = kernel.instantiate(&mut SplitMix::new(rng_seed));
        let state: Vec<f64> = (0..64).map(|i| (0.1 + 0.37 * i as f64).fract()).collect();
        let (mut a, mut b) = (state.clone(), state);
        k.eval(&mut a, &env_b, None);
        k.eval(&mut b, &env_v, None);
        a != b
    }

    #[test]
    fn hit_tables_match_the_dynamic_truth() {
        // Every kernel in a pair's hit table must diverge under that
        // pair for *every* parameter draw in the menu, and every kernel
        // left out must stay bitwise identical — the exactness the
        // oracle's expected blame sets are built on.
        for pair in pair_menu() {
            for kernel in PlantKernel::ALL {
                let expected = pair.hits.contains(&kernel);
                for rng_seed in 0..8u64 {
                    assert_eq!(
                        diverges(&pair, kernel, rng_seed),
                        expected,
                        "{}: {kernel:?} (draw {rng_seed})",
                        pair.name
                    );
                }
            }
        }
    }

    #[test]
    fn abi_hazard_flags_match_the_linker_predicate() {
        for pair in pair_menu() {
            assert_eq!(
                pair.abi_hazard,
                mixed_abi_hazard(
                    &[CompilerKind::Gcc, pair.variable.compiler],
                    CompilerKind::Gcc
                ),
                "{}",
                pair.name
            );
        }
    }

    #[test]
    fn pair_choice_is_deterministic_and_covers_the_menu() {
        let names: std::collections::BTreeSet<&str> =
            (0..6).map(|s| pair_for_seed(s).name).collect();
        assert_eq!(names.len(), pair_menu().len());
        assert_eq!(pair_for_seed(5).name, pair_for_seed(5).name);
    }
}

/// Dev tool, not a test: prints the kernel × pair divergence matrix
/// over 16 parameter draws on the pinned probe state — the evidence the
/// hit tables above were transcribed from. Run it when adding a kernel
/// or a pair:
///
/// ```text
/// cargo test -p flit-fuzz print_matrix -- --ignored --nocapture
/// ```
#[cfg(test)]
mod probe {
    use super::*;
    use flit_program::generate::SplitMix;
    use flit_toolchain::compiler::CompilerKind;

    #[test]
    #[ignore]
    fn print_matrix() {
        for pair in pair_menu() {
            println!("== {}", pair.name);
            let env_b = Compilation::baseline().fp_env_linked(CompilerKind::Gcc);
            let env_v = pair.variable.fp_env_linked(CompilerKind::Gcc);
            println!("   env_b={env_b:?}");
            println!("   env_v={env_v:?}");
            for kernel in PlantKernel::ALL {
                let mut verdicts = Vec::new();
                for rng_seed in 0..16u64 {
                    let k = kernel.instantiate(&mut SplitMix::new(rng_seed));
                    let state: Vec<f64> =
                        (0..64).map(|i| (0.1 + 0.37 * i as f64).fract()).collect();
                    let (mut a, mut b) = (state.clone(), state);
                    k.eval(&mut a, &env_b, None);
                    k.eval(&mut b, &env_v, None);
                    verdicts.push(if a != b { '1' } else { '0' });
                }
                let s: String = verdicts.into_iter().collect();
                println!("   {kernel:?}: {s}");
            }
        }
    }
}

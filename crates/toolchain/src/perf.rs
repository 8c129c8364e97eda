//! The deterministic performance model.
//!
//! The paper's performance axis is *relative*: speedups over `g++ -O2`,
//! the ordering of compilations (Figure 4), which category wins per
//! example (Figure 5), and the best-average flags per compiler
//! (Table 1). We model runtime analytically: each function reports an
//! abstract work size and a [`KernelClass`]; a compilation multiplies
//! that work by a class-dependent throughput factor. A small
//! deterministic per-(workload, compilation) jitter keeps orderings
//! realistic without sacrificing reproducibility.

use serde::{Deserialize, Serialize};

use crate::compilation::Compilation;
use crate::compiler::{CompilerKind, OptLevel};
use crate::flags::Switch;

/// Coarse classification of a function's inner loop, which determines
/// how much each optimization helps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelClass {
    /// Dense dot-product / GEMM-like loops: big wins from FMA + vectors.
    DotHeavy,
    /// Stencil sweeps: moderate vector wins, memory-bound tail.
    Stencil,
    /// Calls into `exp`/`log`/`sin`: wins from fast vendor math.
    Transcendental,
    /// Branch-dominated logic: mostly insensitive to FP flags.
    Branchy,
    /// Data movement: insensitive to everything but basic opt level.
    Memory,
    /// Division/sqrt-heavy: wins from reciprocal math.
    DivHeavy,
}

impl KernelClass {
    /// All classes (for exhaustive sweeps in tests and benches).
    pub const ALL: [KernelClass; 6] = [
        KernelClass::DotHeavy,
        KernelClass::Stencil,
        KernelClass::Transcendental,
        KernelClass::Branchy,
        KernelClass::Memory,
        KernelClass::DivHeavy,
    ];
}

/// Throughput factor of a compilation on a given kernel class, relative
/// to `g++ -O2` = 1.0 on every class. Higher is faster.
pub fn speed_factor(comp: &Compilation, class: KernelClass) -> f64 {
    let base = level_factor(comp.compiler, comp.opt, class);
    let personality = compiler_personality(comp.compiler, class);
    let flags = flag_factor(comp, class);
    base * personality * flags
}

/// Simulated wall-clock seconds for `work` abstract units under a
/// compilation (the per-function runtimes summed by the execution
/// engine).
pub fn simulated_seconds(comp: &Compilation, class: KernelClass, work: f64) -> f64 {
    // 1 work unit = 1 ns at reference throughput.
    work * 1e-9 / speed_factor(comp, class)
}

fn level_factor(compiler: CompilerKind, opt: OptLevel, class: KernelClass) -> f64 {
    match compiler {
        // xlc's -O3 is dramatically faster than its own -O2 — the Laghos
        // motivation saw 51.5 s → 21.3 s (2.42x) from that single step.
        CompilerKind::Xlc => match opt {
            OptLevel::O0 => 0.30,
            OptLevel::O1 => 0.62,
            OptLevel::O2 => 0.85,
            OptLevel::O3 => 1.95,
        },
        _ => match opt {
            OptLevel::O0 => 0.35,
            OptLevel::O1 => 0.78,
            OptLevel::O2 => 1.00,
            // -O3 helps compute loops; memory/branch-bound code barely
            // moves (which is why -O2 rows can win best-average).
            OptLevel::O3 => match class {
                KernelClass::Memory | KernelClass::Branchy => 1.03,
                _ => 1.08,
            },
        },
    }
}

fn compiler_personality(compiler: CompilerKind, class: KernelClass) -> f64 {
    match (compiler, class) {
        (CompilerKind::Gcc, _) => 1.0,
        (CompilerKind::Clang, KernelClass::DotHeavy) => 0.96,
        (CompilerKind::Clang, _) => 0.98,
        // icpc's vendor math library is fast even before flags, and its
        // vectorizer is aggressive — but it has no edge on memory- or
        // branch-bound code.
        (CompilerKind::Icpc, KernelClass::Transcendental) => 1.18,
        (CompilerKind::Icpc, KernelClass::DotHeavy) => 1.04,
        (CompilerKind::Icpc, KernelClass::Stencil | KernelClass::DivHeavy) => 1.01,
        (CompilerKind::Icpc, _) => 0.97,
        (CompilerKind::Xlc, _) => 0.92,
    }
}

fn flag_factor(comp: &Compilation, class: KernelClass) -> f64 {
    use KernelClass::*;
    use Switch::*;
    let mut f = 1.0;
    let optimizing = comp.opt.optimizing();
    for &sw in &comp.switches {
        let gain = match (sw, class) {
            // Vector ISA + FMA: big wins on dense FP loops.
            (Avx2Fma | MArchAvx2 | XHost, DotHeavy) => 1.22,
            (Avx2Fma | MArchAvx2 | XHost, Stencil) => 1.12,
            (Avx2FmaUnsafe | Avx2FmaFastMath | IntelFast, DotHeavy) => 1.34,
            (Avx2FmaUnsafe | Avx2FmaFastMath | IntelFast, Stencil) => 1.17,
            (Avx | Sse42, DotHeavy) => 1.08,
            (Avx | Sse42, Stencil) => 1.04,
            // Reassociation alone: lets reductions vectorize.
            (UnsafeMathOptimizations | AssociativeMath | FastMath, DotHeavy) => 1.11,
            (UnsafeMathOptimizations | AssociativeMath | FastMath, Stencil) => 1.05,
            (FpModelFast2, DotHeavy) => 1.15,
            (FpModelFast2, Stencil) => 1.07,
            // Reciprocal / fast division.
            (ReciprocalMath | NoPrecDiv | NoPrecSqrt | QFloatRsqrt, DivHeavy) => 1.18,
            (FastMath | FpModelFast2, DivHeavy) => 1.15,
            (PrecDiv | PrecSqrt, DivHeavy) => 0.94,
            // Math-library accuracy modes.
            (ImfPrecisionLow, Transcendental) => 1.10,
            (ImfPrecisionHigh, Transcendental) => 0.94,
            (FastMath | Avx2FmaFastMath, Transcendental) => 1.06,
            // Precision-preserving modes cost speed.
            (FpModelPrecise | FpModelSource | FltConsistency | Mp1, DotHeavy) => 0.88,
            (FpModelPrecise | FpModelSource | FltConsistency | Mp1, Stencil) => 0.93,
            (FpModelStrict, DotHeavy) => 0.78,
            (FpModelStrict, Stencil) => 0.86,
            (FpModelStrict, Transcendental) => 0.85,
            (FpModelDouble | FpModelExtended, DotHeavy) => 0.82,
            (FpModelDouble | FpModelExtended, Stencil) => 0.90,
            (FpMath387, DotHeavy) => 0.62,
            (FpMath387, Stencil) => 0.72,
            (FpMath387, DivHeavy) => 0.80,
            (FloatStore, DotHeavy) => 0.87,
            (FloatStore, Stencil) => 0.91,
            (RoundingMath, DotHeavy) => 0.94,
            (NoFma, DotHeavy) => 0.97,
            // Generic unrolling: small broad win, largest on streaming
            // memory loops (prefetch-friendly).
            (UnrollLoops | Unroll, DotHeavy | Stencil) => 1.03,
            (UnrollLoops | Unroll, Memory) => 1.04,
            (UnrollLoops | Unroll, Branchy) => 1.02,
            (QHot | QSimdAuto, DotHeavy) => 1.15,
            (QHot | QSimdAuto, Stencil) => 1.08,
            (QStrictVectorPrecision, DotHeavy) => 0.80,
            (QStrictVectorPrecision, Stencil) => 0.88,
            (QNoMaf, DotHeavy) => 0.95,
            (MultiplePointerAlias, DotHeavy | Stencil) => 1.04,
            (NoVectorize, DotHeavy) => 0.85,
            (NoVectorize, Stencil) => 0.90,
            (Pic, Branchy | DotHeavy | Stencil) => 0.98,
            _ => 1.0,
        };
        // A flag only matters when the optimizer runs (codegen flags
        // like x87 excepted — close enough for the performance model).
        if optimizing || matches!(sw, FpMath387) {
            f *= gain;
        }
    }
    f
}

/// Relative standard deviation of one timing sample of `class` code
/// under `comp` — the width of the seeded noise distribution that
/// [`noise_factor`] draws from (and that
/// `flit_program::engine::TimingProfile::samples` sums per run).
///
/// Memory- and branch-bound loops are the noisiest (cache and predictor
/// state vary run to run); dense compute is the tightest. Unoptimized
/// builds run long enough that their *relative* noise is slightly
/// calmer.
pub(crate) fn noise_sigma(comp: &Compilation, class: KernelClass) -> f64 {
    let class_sigma = match class {
        KernelClass::Memory => 0.030,
        KernelClass::Branchy => 0.022,
        KernelClass::Transcendental => 0.015,
        KernelClass::Stencil => 0.012,
        KernelClass::DivHeavy => 0.012,
        KernelClass::DotHeavy => 0.008,
    };
    let level = match comp.opt {
        OptLevel::O0 => 0.8,
        OptLevel::O1 => 0.9,
        OptLevel::O2 | OptLevel::O3 => 1.0,
    };
    class_sigma * level
}

/// Multiplicative noise on one timing sample: `1 + σ·z`, where σ is
/// `noise_sigma` and `z` is a standard-normal draw keyed on
/// `(class, seed, sample)`.
///
/// The draw is *common-mode per kernel class*: two compilations timed
/// under the same seed see the same `z` for the same class and sample
/// index (machine-wide jitter affects a whole run), scaled by each
/// compilation's own σ. That keeps repeated-sample comparisons honest —
/// differences between binaries come from their speed factors, not from
/// uncorrelated noise realizations — while every sample stream stays
/// byte-deterministic given the seed.
pub fn noise_factor(comp: &Compilation, class: KernelClass, seed: u64, sample: u32) -> f64 {
    let sigma = noise_sigma(comp, class);
    (1.0 + sigma * noise_z(class, seed, sample)).max(0.05)
}

/// Standard-normal draw for `(class, seed, sample)`: an Irwin–Hall sum
/// of 12 uniforms (mean 6, unit variance) from a splitmix64 stream
/// seeded by the FNV-1a digest of the key — pure integer arithmetic, so
/// the stream is bit-stable across platforms.
fn noise_z(class: KernelClass, seed: u64, sample: u32) -> f64 {
    let key = format!("noise|{class:?}|{seed}|{sample}");
    let mut s = fnv1a(key.as_bytes());
    let mut z = -6.0;
    for _ in 0..12 {
        s = s.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = s;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        z += (x >> 11) as f64 / (1u64 << 53) as f64;
    }
    z
}

/// Deterministic per-(workload, compilation) jitter in `[-2.5%, +2.5%]`,
/// so that sorted speedup curves (Figure 4) look like measurements while
/// staying exactly reproducible.
pub fn jitter(workload: &str, comp: &Compilation) -> f64 {
    let h = fnv1a(format!("{workload}|{}", comp.label()).as_bytes());
    let unit = (h % 10_000) as f64 / 10_000.0; // [0, 1)
    1.0 + (unit - 0.5) * 0.05
}

/// FNV-1a 64-bit hash — the repo-wide deterministic hash for seeds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compilation::{compilation_matrix, mfem_matrix};

    #[test]
    fn reference_is_unity() {
        let r = Compilation::perf_reference();
        for class in KernelClass::ALL {
            assert_eq!(speed_factor(&r, class), 1.0);
        }
    }

    #[test]
    fn o0_is_much_slower_than_o2() {
        let o0 = Compilation::baseline();
        for class in KernelClass::ALL {
            assert!(speed_factor(&o0, class) < 0.5);
        }
    }

    #[test]
    fn avx2fma_speeds_up_dot_loops() {
        let c = Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::Avx2Fma]);
        assert!(speed_factor(&c, KernelClass::DotHeavy) > 1.15);
        // …but does nothing for branchy code.
        assert_eq!(speed_factor(&c, KernelClass::Branchy), 1.0);
    }

    #[test]
    fn xlc_o3_is_over_twice_xlc_o2() {
        let o2 = Compilation::new(CompilerKind::Xlc, OptLevel::O2, vec![]);
        let o3 = Compilation::new(CompilerKind::Xlc, OptLevel::O3, vec![]);
        let ratio =
            speed_factor(&o3, KernelClass::Stencil) / speed_factor(&o2, KernelClass::Stencil);
        assert!(
            (2.0..3.0).contains(&ratio),
            "xlc O3/O2 ratio {ratio} should bracket the paper's 2.42x"
        );
    }

    #[test]
    fn flags_at_o0_do_not_speed_up() {
        let plain = Compilation::new(CompilerKind::Gcc, OptLevel::O0, vec![]);
        let flagged = Compilation::new(CompilerKind::Gcc, OptLevel::O0, vec![Switch::Avx2Fma]);
        assert_eq!(
            speed_factor(&plain, KernelClass::DotHeavy),
            speed_factor(&flagged, KernelClass::DotHeavy)
        );
    }

    #[test]
    fn simulated_seconds_scales_linearly_with_work() {
        let c = Compilation::perf_reference();
        let t1 = simulated_seconds(&c, KernelClass::Stencil, 1e6);
        let t2 = simulated_seconds(&c, KernelClass::Stencil, 2e6);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn jitter_is_small_deterministic_and_workload_dependent() {
        let c = Compilation::perf_reference();
        let j1 = jitter("example-5", &c);
        let j2 = jitter("example-5", &c);
        let j3 = jitter("example-9", &c);
        assert_eq!(j1, j2);
        assert_ne!(j1, j3);
        assert!((0.975..=1.025).contains(&j1));
    }

    #[test]
    fn all_mfem_compilations_have_positive_factors() {
        for comp in mfem_matrix() {
            for class in KernelClass::ALL {
                let f = speed_factor(&comp, class);
                assert!(f > 0.1 && f < 4.0, "{}: {f}", comp.label());
            }
        }
    }

    #[test]
    fn every_compiler_has_a_distinctly_fast_flag_row() {
        // Sanity for Table 1: within each compiler's matrix the spread
        // between fastest and slowest DotHeavy factor is material.
        for compiler in CompilerKind::MFEM_STUDY {
            let m = compilation_matrix(compiler);
            let fs: Vec<f64> = m
                .iter()
                .map(|c| speed_factor(c, KernelClass::DotHeavy))
                .collect();
            let max = fs.iter().cloned().fold(f64::MIN, f64::max);
            let min = fs.iter().cloned().fold(f64::MAX, f64::min);
            assert!(max / min > 2.0, "{compiler}: spread {max}/{min}");
        }
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn noise_samples_stay_centered_on_the_deterministic_model() {
        let c = Compilation::perf_reference();
        for class in KernelClass::ALL {
            let base = simulated_seconds(&c, class, 1e6);
            let samples: Vec<f64> = (0..400)
                .map(|i| base * noise_factor(&c, class, 7, i))
                .collect();
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let sigma = noise_sigma(&c, class);
            // Mean of 400 draws lands within ~4 standard errors.
            assert!(
                (mean / base - 1.0).abs() < 4.0 * sigma / (400f64).sqrt(),
                "{class:?}: mean {mean} vs base {base}"
            );
            assert!(samples.iter().all(|s| *s > 0.0));
        }
    }

    #[test]
    fn noise_sigma_ranks_memory_noisiest_and_dot_tightest() {
        let c = Compilation::perf_reference();
        let mem = noise_sigma(&c, KernelClass::Memory);
        let dot = noise_sigma(&c, KernelClass::DotHeavy);
        assert!(mem > dot);
        for class in KernelClass::ALL {
            let s = noise_sigma(&c, class);
            assert!(s > 0.0 && s < 0.05, "{class:?}: {s}");
        }
    }

    #[test]
    fn noise_draws_are_common_mode_across_compilations() {
        // Same class, seed, and sample index ⇒ the same z draw, scaled
        // by each compilation's σ. With equal σ (same opt level) the
        // noise factors are identical, so speedup ratios between two
        // same-level compilations are noise-free by construction.
        let a = Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![]);
        let b = Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![Switch::PrecDiv]);
        for i in 0..8 {
            assert_eq!(
                noise_factor(&a, KernelClass::DivHeavy, 5, i).to_bits(),
                noise_factor(&b, KernelClass::DivHeavy, 5, i).to_bits()
            );
        }
    }

    #[test]
    fn noise_factors_never_go_nonpositive() {
        // The 0.05 floor guards pathological tail draws: a timing
        // sample can never be negative or zero.
        for comp in mfem_matrix() {
            for class in KernelClass::ALL {
                for i in 0..32 {
                    assert!(noise_factor(&comp, class, 999, i) >= 0.05);
                }
            }
        }
    }
}

//! Realization identity: does a kernel compile to the *same machine
//! arithmetic* under two environments?
//!
//! Each kernel touches a specific, known subset of [`FpEnv`]: the
//! transformers in `ops`/`reduce`/`mathlib` consult exactly the fields
//! listed here (see the kernel table in `flit_program::kernel`). Two
//! environments that agree on a kernel's dependency set produce
//! bit-identical results on identical inputs — that is the entire
//! foundation of the `Invariant` certificate, so every set below is
//! deliberately *over*-approximate (extra fields can only lose
//! precision, never soundness).

use flit_fpsim::env::FpEnv;
use flit_program::kernel::zero_gate_fires;
use flit_program::Kernel;

/// How `reduce::sum`/`reduce::dot` traverse a vector of length `len`
/// under `env`: either the scalar fallback or `w` strided lanes. Two
/// environments with different `simd_width` still realize the *same*
/// reduction when both fall back to scalar for every length the kernel
/// reduces over (`w == 1 || len < 2·w`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReducePath {
    /// In-order scalar accumulation.
    Scalar,
    /// `w` strided lane accumulators merged in order.
    Vector(usize),
}

/// The traversal `reduce::sum`/`dot` pick for `len` under `env`.
pub(crate) fn reduce_path(env: &FpEnv, len: usize) -> ReducePath {
    let w = env.simd_width.lanes();
    if w == 1 || len < 2 * w {
        ReducePath::Scalar
    } else {
        ReducePath::Vector(w)
    }
}

/// Do `a` and `b` realize identical reductions for every length in
/// `lens`?
fn same_reduce_paths(a: &FpEnv, b: &FpEnv, lens: &[usize]) -> bool {
    lens.iter().all(|&l| reduce_path(a, l) == reduce_path(b, l))
}

/// Shared-scalar-op agreement: FMA contraction, extended intermediates,
/// and FTZ. Every kernel that goes through `ops::`/`reduce::` depends on
/// these.
fn same_scalar_ops(a: &FpEnv, b: &FpEnv) -> bool {
    a.fma == b.fma
        && a.extended_precision == b.extended_precision
        && a.flush_to_zero == b.flush_to_zero
}

/// The reduction lengths a kernel actually performs on a state vector of
/// `state_len` elements (the refinement that lets a narrow kernel stay
/// `Invariant` across a SIMD-width change its short rows never see).
fn reduce_lens(kernel: &Kernel, state_len: usize) -> Vec<usize> {
    match kernel {
        Kernel::DotMix { .. } | Kernel::NormScale => vec![state_len],
        Kernel::MatVecMix { n } => vec![(*n).min(state_len), state_len],
        Kernel::Rank1Mix { n, .. } => {
            let n = (*n).min((state_len as f64).sqrt() as usize).max(2);
            vec![n]
        }
        Kernel::CgSolve { n, .. } => vec![(*n).min(state_len).max(2)],
        Kernel::ZeroGate { .. } => vec![48, 53, 61],
        _ => vec![],
    }
}

/// Does `kernel` realize identical machine arithmetic under `a` and `b`
/// on a state vector of `state_len` elements?
///
/// `true` means: on identical input bits the two environments produce
/// identical output bits. `false` is always a safe answer.
pub fn same_realization(kernel: &Kernel, a: &FpEnv, b: &FpEnv, state_len: usize) -> bool {
    match kernel {
        // Plain (strict) arithmetic only — no `ops::`, no env reads.
        Kernel::Benign { .. } | Kernel::AmplifyExact { .. } | Kernel::DotMixReproducible { .. } => {
            true
        }
        // The UB rewrite is the only env read.
        Kernel::UbSwap => a.exploit_ub == b.exploit_ub,
        // The gate residual is state-independent, so the branch decision
        // can be computed *concretely* per environment; equal decisions
        // plus plain branch bodies mean equal realizations.
        Kernel::ZeroGate { .. } => zero_gate_fires(a) == zero_gate_fires(b),
        // Library calls only; the surrounding arithmetic is plain.
        Kernel::TranscMap { .. } => a.mathlib == b.mathlib,
        // Characteristic division plus FTZ canonicalization.
        Kernel::DivScan => {
            a.reciprocal_math == b.reciprocal_math && a.flush_to_zero == b.flush_to_zero
        }
        // Scalar stencil / relaxation: `ops::` but no reductions.
        Kernel::HeatSmooth { .. } | Kernel::ChaoticAmplify { .. } => {
            a.fma == b.fma && a.flush_to_zero == b.flush_to_zero
        }
        // Horner goes through the accumulator (extended-sensitive) but
        // performs no strided reduction.
        Kernel::PolyHorner { .. } => same_scalar_ops(a, b),
        // Reduction kernels: scalar-op agreement plus identical
        // traversal on every length they reduce.
        Kernel::DotMix { .. }
        | Kernel::MatVecMix { .. }
        | Kernel::Rank1Mix { .. }
        | Kernel::NormScale => {
            same_scalar_ops(a, b) && same_reduce_paths(a, b, &reduce_lens(kernel, state_len))
        }
        // CG additionally divides (alpha/beta steps).
        Kernel::CgSolve { .. } => {
            same_scalar_ops(a, b)
                && a.reciprocal_math == b.reciprocal_math
                && same_reduce_paths(a, b, &reduce_lens(kernel, state_len))
        }
        // Opaque body: the dependency set is unknown, so only identical
        // environments are known to realize identically (`eval` is a
        // deterministic function of state, env and injection).
        Kernel::Custom(_) => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_fpsim::env::SimdWidth;

    #[test]
    fn strict_envs_always_share_realizations() {
        let a = FpEnv::strict();
        let b = FpEnv::strict();
        for k in [
            Kernel::DotMix { stride: 3 },
            Kernel::DivScan,
            Kernel::TranscMap { freq: 3.0 },
            Kernel::UbSwap,
            Kernel::ZeroGate { boost: 50.0 },
        ] {
            assert!(same_realization(&k, &a, &b, 64), "{k:?}");
        }
    }

    #[test]
    fn width_change_below_threshold_is_invisible() {
        let a = FpEnv::strict();
        let mut b = FpEnv::strict();
        b.simd_width = SimdWidth::W4;
        // A 6-element state never vectorizes at W4 (6 < 2·4): the dot
        // kernel realizes the same scalar reduction.
        assert!(same_realization(&Kernel::DotMix { stride: 3 }, &a, &b, 6));
        // At 64 elements the W4 side splits into lanes.
        assert!(!same_realization(&Kernel::DotMix { stride: 3 }, &a, &b, 64));
        // The benign kernel never reduces at all.
        assert!(same_realization(&Kernel::Benign { flavor: 2 }, &a, &b, 64));
    }

    #[test]
    fn fma_splits_stencils_but_not_transcendentals() {
        let a = FpEnv::strict();
        let mut b = FpEnv::strict();
        b.fma = true;
        assert!(!same_realization(
            &Kernel::HeatSmooth { steps: 3, r: 0.2 },
            &a,
            &b,
            64
        ));
        assert!(same_realization(
            &Kernel::TranscMap { freq: 3.0 },
            &a,
            &b,
            64
        ));
        assert!(same_realization(&Kernel::DivScan, &a, &b, 64));
    }

    #[test]
    fn zero_gate_uses_the_concrete_branch_decision() {
        let strict = FpEnv::strict();
        let fast = FpEnv::fast();
        // The gate residual is exactly zero under strict evaluation and
        // nonzero under reassociated/extended evaluation, so the two
        // must disagree (this mirrors the kernel's own pinned test).
        assert!(zero_gate_fires(&fast));
        assert!(!zero_gate_fires(&strict));
        assert!(!same_realization(
            &Kernel::ZeroGate { boost: 50.0 },
            &strict,
            &fast,
            64
        ));
        assert!(same_realization(
            &Kernel::ZeroGate { boost: 50.0 },
            &fast,
            &fast,
            64
        ));
    }
}

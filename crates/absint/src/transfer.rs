//! Per-kernel abstract transformers.
//!
//! Each transformer maps the paired abstract state through one kernel
//! evaluation, given the environment each run evaluates it under
//! (`env_a` for the all-baseline run, `env_b` for the run with the item
//! under analysis flipped — equal for unflipped evaluations).
//!
//! The delta recurrence per kernel has three regimes:
//!
//! 1. `delta == 0` and the realization is identical → both runs execute
//!    the same instructions on the same bits → `delta` stays exactly 0.
//! 2. Realizations differ (this evaluation is a divergence *source*) →
//!    `delta' = L·delta + env_term + slack`, where `env_term` bounds the
//!    same-input cross-environment difference (reduction residuals
//!    saturate to their output range; mathlib/recip/FMA get tight
//!    epsilon-scale envelopes).
//! 3. `delta > 0` through identical code (divergence *propagation*) →
//!    `delta' = L·delta + slack` (rounding can magnify an existing
//!    difference but not create one from equal bits).
//!
//! Every candidate is clamped against the saturation cap: both outputs
//! provably lie in the new envelope, so `delta' ≤ width(envelope)`.

use flit_fpsim::env::FpEnv;
use flit_fpsim::interval::Interval;
use flit_program::kernel::zero_gate_fires;
use flit_program::Kernel;

use crate::domain::{AbsState, EPS};
use crate::realization::same_realization;

/// The `[0, 1]` interval (range of `triple_residual` and friends).
fn unit() -> Interval {
    Interval::new(0.0, 1.0)
}

/// Envelope of `c·iv + [0, s]` — the ubiquitous blend shape
/// `mul_add(s·w, t, c·x)` with `t ∈ [0, 1]`, `w ∈ (0, 1]`.
fn blend(iv: Interval, c: f64, s: f64) -> Interval {
    Interval::point(c).mul(iv).add(Interval::new(0.0, s))
}

/// Result of one abstract kernel application.
struct Step {
    /// Output envelope (both runs).
    out: Interval,
    /// Lipschitz factor on the incoming `delta`.
    lip: f64,
    /// Residual-difference term `d(t)`-style contributions plus
    /// cross-environment terms; `None` means "saturate to the cap".
    extra: Option<f64>,
    /// NaN may appear (beyond what the input already carried).
    poison: bool,
    /// Opaque body: only regime 1 is sound for it; any other case
    /// loses soundness.
    opaque: bool,
}

impl Step {
    fn exact(out: Interval, lip: f64) -> Step {
        Step {
            out,
            lip,
            extra: Some(0.0),
            poison: false,
            opaque: false,
        }
    }

    fn saturating(out: Interval, lip: f64) -> Step {
        Step {
            out,
            lip,
            extra: None,
            poison: false,
            opaque: false,
        }
    }
}

/// Apply one kernel evaluation to the paired abstract state.
pub(crate) fn apply(
    kernel: &Kernel,
    st: &mut AbsState,
    env_a: &FpEnv,
    env_b: &FpEnv,
    state_len: usize,
) {
    if st.unknown {
        return;
    }
    let differs = !same_realization(kernel, env_a, env_b, state_len);
    let step = step_of(kernel, st.iv, env_a, env_b, differs, state_len);
    let opaque = step.opaque && (differs || st.delta != 0.0);

    let slack = st.slack();
    let out = step
        .out
        .pad(slack)
        .maybe_flush(env_a.flush_to_zero || env_b.flush_to_zero);

    st.delta = if st.delta == 0.0 && !differs {
        // Regime 1: bit-identical runs stay bit-identical.
        0.0
    } else {
        let candidate = match step.extra {
            Some(extra) => step.lip * st.delta + extra + slack,
            // Residual extraction / chaotic amplification: any nonzero
            // input difference (or realization split) can land anywhere
            // in the output range.
            None => f64::INFINITY,
        };
        AbsState::capped_delta(out, candidate)
    };
    st.iv = out;
    st.nan |= step.poison || out.is_nan();
    st.unknown |= opaque;
}

/// Helper so `apply` can chain `.maybe_flush(..)` on intervals.
trait MaybeFlush {
    fn maybe_flush(self, ftz: bool) -> Interval;
}

impl MaybeFlush for Interval {
    fn maybe_flush(self, ftz: bool) -> Interval {
        if ftz {
            self.with_flush()
        } else {
            self
        }
    }
}

fn step_of(
    kernel: &Kernel,
    iv: Interval,
    env_a: &FpEnv,
    env_b: &FpEnv,
    differs: bool,
    _state_len: usize,
) -> Step {
    match kernel {
        Kernel::Benign { flavor } => {
            let out = match flavor % 8 {
                4 => {
                    if iv.is_nan() {
                        iv
                    } else {
                        Interval::new(iv.lo.clamp(-8.0, 8.0), iv.hi.clamp(-8.0, 8.0))
                    }
                }
                7 => iv.sub(Interval::point(0.468_75)),
                _ => iv,
            };
            Step::exact(out, 1.0)
        }
        Kernel::AmplifyExact { .. } | Kernel::ChaoticAmplify { .. } => {
            // Logistic amplification ends in `clamp(0, 1.35) / 1.35`:
            // outputs in [0, 1], and any incoming difference can be
            // stretched across the whole basin — saturate honestly.
            Step::saturating(unit(), 1.0)
        }
        Kernel::DotMix { .. } | Kernel::DotMixReproducible { .. } | Kernel::NormScale => {
            // x' = 0.25·w·t + 0.75·x with t ∈ [0, 1]. The residual t is
            // a frac extraction of a reduction: a realization split or
            // any nonzero input difference can move it anywhere in
            // [0, 1], so d(t) ≤ 1 in every active regime.
            Step {
                out: blend(iv, 0.75, 0.25),
                lip: 0.75,
                extra: Some(0.25),
                poison: false,
                opaque: false,
            }
        }
        Kernel::MatVecMix { .. } => {
            // Two blend stages; between them only indices < n are
            // touched, so the envelope is the union with the input.
            let mid = blend(iv, 0.75, 0.25).union(iv);
            let out = blend(mid, 0.875, 0.125);
            // d1 ≤ max(d, 0.75·d + 0.25), then 0.875·d1 + 0.125.
            Step {
                out,
                lip: 0.875,
                extra: Some(0.875 * 0.25 + 0.125),
                poison: false,
                opaque: false,
            }
        }
        Kernel::Rank1Mix { .. } | Kernel::PolyHorner { .. } => {
            // Written-back elements are `frac_residual(·) + 0.5`-shaped
            // (Rank1Mix: [0, 1]; PolyHorner: [0.25, 0.75] ⊂ [0, 1]);
            // untouched elements keep the input envelope.
            let written = if matches!(kernel, Kernel::PolyHorner { .. }) {
                Interval::new(0.25, 0.75)
            } else {
                unit()
            };
            let out = if matches!(kernel, Kernel::PolyHorner { .. }) {
                written // every element is rewritten
            } else {
                written.union(iv)
            };
            Step::saturating(out, 1.0)
        }
        Kernel::CgSolve { .. } => {
            // s' = 0.25·t + 0.75·s with t = x/(1+|x|) ∈ (−1, 1); only
            // indices < n touched.
            let out = Interval::point(0.75)
                .mul(iv)
                .add(Interval::point(0.25).mul(Interval::new(-1.0, 1.0)))
                .union(iv);
            Step {
                out,
                lip: 0.75,
                extra: Some(0.5),
                poison: false,
                opaque: false,
            }
        }
        Kernel::HeatSmooth { steps, r } => {
            // Interior update is the affine stencil
            // (1 − 2r)·u_i + r·u_{i−1} + r·u_{i+1}; boundaries copy.
            // Iterate the envelope and the Lipschitz factor per step.
            let l_step = (1.0 - 2.0 * r).abs() + 2.0 * r.abs();
            let mut out = iv;
            let mut lip = 1.0;
            let mut extra = 0.0;
            // FMA contraction error per element per step: a few ulps at
            // the running magnitude.
            for _ in 0..(*steps).min(4096) {
                let stepped = Interval::point(1.0 - 2.0 * r)
                    .mul(out)
                    .add(Interval::point(2.0 * r).mul(out));
                out = stepped.union(out); // boundary elements copy through
                lip *= l_step.max(1.0);
                let m = if out.is_nan() {
                    1.0
                } else {
                    out.mag().max(1.0)
                };
                let env_term = if differs { 16.0 * EPS * m } else { 0.0 };
                extra = extra * l_step.max(1.0) + env_term + 8.0 * EPS * m;
            }
            Step {
                out,
                lip,
                extra: Some(extra),
                poison: false,
                opaque: false,
            }
        }
        Kernel::TranscMap { freq } => {
            // x' = 0.45 + 0.35·sin(x·freq) + 0.15·exp(−(|x|+0.1)).
            let out = Interval::point(0.45)
                .add(Interval::point(0.35).mul(Interval::new(-1.0, 1.0)))
                .add(Interval::point(0.15).mul(Interval::new(0.0, 0.905)));
            let m = if iv.is_nan() { f64::INFINITY } else { iv.mag() };
            // Cross-library envelopes, pinned by fpsim's mathlib tests:
            // |sin_vendor − sin_ref| < 1e-12 on |x| ≤ 30, |exp| ≤ 64
            // ulps of a result ≤ e^−0.1 on arguments in [−20, −0.1].
            let env_term = if differs {
                let sin_env = if m * freq.abs() <= 30.0 { 1e-12 } else { 2.0 };
                let exp_env = if m + 0.1 <= 20.0 { 64.0 * EPS } else { 0.91 };
                0.35 * sin_env + 0.15 * exp_env
            } else {
                0.0
            };
            // d/dx: 0.35·freq·cos + 0.15·e^(−·) ≤ 0.35·|freq| + 0.15.
            Step {
                out,
                lip: 0.35 * freq.abs() + 0.15,
                extra: Some(env_term),
                poison: false,
                opaque: false,
            }
        }
        Kernel::DivScan => {
            // x' = (x + 0.25) / (1 + |state[0]| + 0.618034).
            let denom = Interval::point(1.618_034).add(iv.abs());
            let out = iv.add(Interval::point(0.25)).div(denom);
            let m = if iv.is_nan() { f64::INFINITY } else { iv.mag() };
            let om = if out.is_nan() {
                f64::INFINITY
            } else {
                out.mag()
            };
            // |a/b − a·(1/b)|: two roundings instead of one, ≤ ~2 ulps
            // of the quotient (plus FTZ, folded into the caller slack).
            let env_term = if differs {
                4.0 * EPS * om.max(1.0)
            } else {
                0.0
            };
            // ∂(u/v)/∂u ≤ 1/1.618; ∂/∂v ≤ (m+0.25)/1.618².
            let lip = 1.0 / 1.618 + (m + 0.25) / (1.618 * 1.618);
            Step {
                out,
                lip,
                extra: Some(env_term),
                poison: false,
                opaque: false,
            }
        }
        Kernel::ZeroGate { boost } => {
            let fires_a = zero_gate_fires(env_a);
            let fires_b = zero_gate_fires(env_b);
            let fired = zero_gate_out(iv, *boost);
            match (fires_a, fires_b) {
                (false, false) => Step::exact(iv, 1.0),
                (true, true) => Step {
                    out: fired,
                    lip: boost.abs().max(1.0),
                    extra: Some(0.0),
                    poison: false,
                    opaque: false,
                },
                // The runs take different branches: saturate to the
                // union envelope (the coarse-but-sound "viscosity boost
                // happened on one side only" bound).
                _ => Step::saturating(fired.union(iv), 1.0),
            }
        }
        Kernel::UbSwap => {
            match (env_a.exploit_ub, env_b.exploit_ub) {
                // Plain swap on both sides: a permutation, applied
                // identically to both runs.
                (false, false) => Step::exact(iv, 1.0),
                // Both runs poison the same two slots. NaN positions
                // stay symmetric only while delta == 0; the finalizer
                // demotes `nan && delta > 0` to Unknown.
                (true, true) => Step {
                    out: iv,
                    lip: 1.0,
                    extra: Some(0.0),
                    poison: true,
                    opaque: false,
                },
                // One run poisons, the other doesn't: l2_diff is
                // infinite whenever the NaN survives — nothing bounded
                // to say.
                _ => Step {
                    out: Interval::nan(),
                    lip: 1.0,
                    extra: None,
                    poison: true,
                    opaque: false,
                },
            }
        }
        // Opaque: nothing is known about the output range. Regime 1
        // (equal environments on identical bits) still keeps delta at
        // exactly 0; `apply` marks every other case unknown.
        Kernel::Custom(_) => Step {
            out: Interval::nan(),
            lip: 1.0,
            extra: None,
            poison: false,
            opaque: true,
        },
    }
}

/// Output envelope of ZeroGate's fired branch: `y = x·boost` capped at
/// 4.0 from above (NaN-propagating), and `state[0]` additionally loses
/// 1.0 — fold the shift into the envelope union.
fn zero_gate_out(iv: Interval, boost: f64) -> Interval {
    let y = iv.mul(Interval::point(boost));
    let capped = if y.is_nan() {
        y
    } else {
        Interval::new(y.lo.min(4.0), y.hi.min(4.0))
    };
    capped.union(capped.sub(Interval::point(1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> AbsState {
        AbsState::initial()
    }

    #[test]
    fn unflipped_exact_kernels_keep_delta_zero() {
        let env = FpEnv::fast();
        let mut st = start();
        for k in [
            Kernel::Benign { flavor: 4 },
            Kernel::DotMix { stride: 3 },
            Kernel::HeatSmooth { steps: 5, r: 0.2 },
            Kernel::TranscMap { freq: 3.0 },
            Kernel::DivScan,
        ] {
            apply(&k, &mut st, &env, &env, 64);
            assert_eq!(st.delta, 0.0, "{k:?} broke bit-identity");
            assert!(!st.nan && !st.unknown);
        }
    }

    #[test]
    fn flipped_reduction_saturates_but_stays_finite() {
        let strict = FpEnv::strict();
        let fast = FpEnv::fast();
        let mut st = start();
        apply(&Kernel::DotMix { stride: 3 }, &mut st, &strict, &fast, 64);
        assert!(st.delta > 0.0 && st.delta.is_finite());
        // 0.75·0 + 0.25·1 + slack, clamped by the envelope width.
        assert!(st.delta <= st.iv.width());
    }

    #[test]
    fn flipped_transcendental_is_tight() {
        let mut a = FpEnv::strict();
        let mut b = FpEnv::strict();
        a.mathlib = flit_fpsim::env::MathLib::Reference;
        b.mathlib = flit_fpsim::env::MathLib::Vendor;
        let mut st = start();
        apply(&Kernel::TranscMap { freq: 3.0 }, &mut st, &a, &b, 64);
        // 0.35·1e-12 + 0.15·64ε + slack ≈ 4e-13: far below saturation.
        assert!(st.delta > 0.0 && st.delta < 1e-11, "delta = {}", st.delta);
    }

    #[test]
    fn ub_mismatch_poisons_everything() {
        let a = FpEnv::strict();
        let mut b = FpEnv::strict();
        b.exploit_ub = true;
        let mut st = start();
        apply(&Kernel::UbSwap, &mut st, &a, &b, 64);
        assert!(st.nan);
        assert!(!st.delta.is_finite() || st.iv.is_nan());
    }

    struct Nop;
    impl flit_program::kernel::KernelImpl for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn eval(&self, _: &mut [f64], _: &FpEnv, _: Option<flit_program::Injection>) {}
        fn fp_sites(&self) -> usize {
            0
        }
        fn work(&self) -> f64 {
            1.0
        }
        fn class(&self) -> flit_toolchain::KernelClass {
            flit_toolchain::KernelClass::Memory
        }
    }

    fn custom() -> Kernel {
        Kernel::Custom(std::sync::Arc::new(Nop))
    }

    #[test]
    fn custom_kernel_under_equal_envs_stays_exact() {
        let env = FpEnv::fast();
        let mut st = start();
        apply(&custom(), &mut st, &env, &env, 64);
        assert_eq!(st.delta, 0.0);
        assert!(!st.unknown);
        assert!(st.iv.is_nan(), "the opaque output range is top");
    }

    #[test]
    fn custom_kernel_under_differing_envs_is_unknown() {
        let mut st = start();
        apply(&custom(), &mut st, &FpEnv::strict(), &FpEnv::fast(), 64);
        assert!(st.unknown);
    }

    #[test]
    fn custom_kernel_on_diverged_runs_is_not_invariant() {
        let strict = FpEnv::strict();
        let mut st = start();
        apply(
            &Kernel::DotMix { stride: 3 },
            &mut st,
            &strict,
            &FpEnv::fast(),
            64,
        );
        assert!(st.delta > 0.0);
        apply(&custom(), &mut st, &strict, &strict, 64);
        assert!(st.unknown, "an opaque body may amplify any difference");
    }
}

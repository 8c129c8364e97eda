//! The kernel library: what function bodies *do*.
//!
//! Each kernel is a deterministic transform of the program state vector,
//! evaluated under the [`FpEnv`] of whichever object file defines the
//! enclosing function. Kernels are engineered with *specific, disjoint
//! sensitivities* so that the compilation studies reproduce the paper's
//! structure:
//!
//! | kernel           | sensitive to                              |
//! |------------------|-------------------------------------------|
//! | `DotMix`         | reassociation, FMA, extended precision    |
//! | `MatVecMix`      | reassociation, FMA, extended precision    |
//! | `Rank1Mix`       | reassociation, FMA, extended precision (Finding 2) |
//! | `CgSolve`        | everything above + iteration-path (Finding 1) |
//! | `HeatSmooth`     | FMA only                                  |
//! | `ChaoticAmplify` | FMA (and amplifies incoming differences)  |
//! | `TranscMap`      | math library only (the Intel link step)   |
//! | `PolyHorner`     | FMA, extended precision                   |
//! | `DivScan`        | reciprocal math only                      |
//! | `NormScale`      | reassociation, extended precision         |
//! | `Benign`         | nothing (exact arithmetic)                |
//! | `UbSwap`         | UB-exploiting optimization (Laghos xsw)   |
//! | `ZeroGate`       | reassociation/extended via `== 0.0` branch (Laghos) |
//!
//! A design convention keeps sensitivities honest: *incidental*
//! divisions (range squashing) use plain `/` — real compilers only
//! apply the reciprocal rewrite to loop-invariant divisors in hot
//! loops — while `DivScan`'s characteristic division goes through
//! [`ops::div`].

use std::sync::Arc;

use flit_fpsim::env::FpEnv;
use flit_fpsim::linalg::DenseMatrix;
use flit_fpsim::{mathlib, ops, poly, reduce, solve, stencil};
use flit_toolchain::perf::KernelClass;

use crate::sites::Injection;

/// Trait for externally defined kernels (the LULESH hydro phases in
/// `flit-lulesh` implement this with full static-site support).
pub trait KernelImpl: Send + Sync {
    /// Short name for diagnostics.
    fn name(&self) -> &str;
    /// Transform the state under `env`, honoring an optional injection.
    fn eval(&self, state: &mut [f64], env: &FpEnv, inj: Option<Injection>);
    /// Number of static floating-point instruction sites (0 if the
    /// kernel is not injectable).
    fn fp_sites(&self) -> usize;
    /// Abstract work units for the performance model.
    fn work(&self) -> f64;
    /// Kernel class for the performance model.
    fn class(&self) -> KernelClass;
}

/// A function body.
#[derive(Clone)]
pub enum Kernel {
    /// Dot product of the state with a rotated copy, blended back.
    DotMix {
        /// Rotation offset for the second operand.
        stride: usize,
    },
    /// The same reduction as [`Kernel::DotMix`] rewritten on top of the
    /// bit-reproducible binned accumulator (the paper's related work
    /// \[3\], Arteaga–Fuhrer–Hoefler): identical results under every
    /// compilation — the "fix" a developer applies after Bisect blames
    /// a reduction.
    DotMixReproducible {
        /// Rotation offset for the second operand.
        stride: usize,
    },
    /// Dense mat-vec with a state-gathered matrix, blended back.
    MatVecMix {
        /// Matrix dimension.
        n: usize,
    },
    /// The Finding-2 kernel: `M += a·A·Aᵀ` with nested loops.
    Rank1Mix {
        /// Matrix dimension.
        n: usize,
        /// The scalar `a`.
        alpha: f64,
    },
    /// Conjugate-gradient solve with a `tol` stopping criterion on an
    /// ill-conditioned SPD system (Finding 1: converges to different
    /// iterates under different semantics).
    CgSolve {
        /// System dimension.
        n: usize,
        /// Residual tolerance (the paper's example 8 used 1e-12).
        tol: f64,
        /// Condition-number scale of the system.
        cond: f64,
    },
    /// Repeated 1-D heat smoothing (FMA-sensitive, reassociation-free).
    HeatSmooth {
        /// Number of smoothing steps.
        steps: usize,
        /// Diffusion number.
        r: f64,
    },
    /// Chaotic logistic relaxation: amplifies incoming differences.
    ChaoticAmplify {
        /// Growth rate (`> 2.57` is the chaotic regime).
        lambda: f64,
        /// Iteration count.
        steps: usize,
    },
    /// Pointwise `sin`/`exp` mapping: varies only with the math library
    /// (the Intel link-step effect).
    TranscMap {
        /// Frequency multiplier.
        freq: f64,
    },
    /// Horner polynomial evaluation per element.
    PolyHorner {
        /// Polynomial degree.
        degree: usize,
    },
    /// Division by a loop-invariant denominator (reciprocal-math
    /// sensitive).
    DivScan,
    /// ℓ2-norm feedback blend (reassociation/extended sensitive).
    NormScale,
    /// Exact arithmetic only; provably identical under every
    /// environment. `flavor` selects among exact transforms.
    Benign {
        /// Which exact transform (modulo the flavor count).
        flavor: u8,
    },
    /// The Laghos `xsw` swap macro (`a^=b^=a^=b`): undefined behaviour
    /// that UB-exploiting optimization levels turn into NaN poison.
    UbSwap,
    /// The Laghos `== 0.0` comparison: a residual that is exactly zero
    /// under strict evaluation but tiny-nonzero under reassociation or
    /// extended precision; the branch divergence applies a large
    /// viscosity-like boost.
    ZeroGate {
        /// Multiplier applied on the divergent branch.
        boost: f64,
    },
    /// A chaotic logistic amplifier implemented with *plain* (strict)
    /// arithmetic: its compiled code is identical under every
    /// environment, so it is never blamed by Bisect, yet it magnifies
    /// whatever differences upstream kernels feed it — the mechanism
    /// that turns example 13's single rank-1-update perturbation into a
    /// ~190 % relative error without adding a second blame site.
    AmplifyExact {
        /// Growth rate (`> 2.57` is the chaotic regime).
        lambda: f64,
        /// Iteration count.
        steps: usize,
    },
    /// Externally defined kernel (e.g. LULESH hydro phases).
    Custom(Arc<dyn KernelImpl>),
}

/// Global registry resolving [`Kernel::Custom`] names on
/// deserialization. A custom kernel is a trait object, so the wire
/// carries only its [`KernelImpl::name`]; any process that needs to
/// rebuild such a program (e.g. a `flit worker` subprocess) must have
/// registered the implementation first.
static CUSTOM_KERNELS: std::sync::OnceLock<
    std::sync::Mutex<std::collections::HashMap<String, Arc<dyn KernelImpl>>>,
> = std::sync::OnceLock::new();

/// Register a custom kernel implementation under its name, making
/// serialized programs that reference it deserializable in this
/// process. Re-registering a name replaces the implementation.
pub fn register_custom_kernel(imp: Arc<dyn KernelImpl>) {
    CUSTOM_KERNELS
        .get_or_init(Default::default)
        .lock()
        .expect("custom-kernel registry lock poisoned")
        .insert(imp.name().to_string(), imp);
}

fn lookup_custom_kernel(name: &str) -> Option<Arc<dyn KernelImpl>> {
    CUSTOM_KERNELS
        .get()?
        .lock()
        .expect("custom-kernel registry lock poisoned")
        .get(name)
        .cloned()
}

// Manual serde impls: every data variant uses the same externally
// tagged encoding the shim derive emits; `Custom` (a trait object)
// serializes as its registered name and deserializes through the
// registry.
impl serde::Serialize for Kernel {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let named = |tag: &str, fields: Vec<(String, Value)>| {
            Value::Object(vec![(tag.to_string(), Value::Object(fields))])
        };
        match self {
            Kernel::DotMix { stride } => {
                named("DotMix", vec![("stride".to_string(), stride.to_value())])
            }
            Kernel::DotMixReproducible { stride } => named(
                "DotMixReproducible",
                vec![("stride".to_string(), stride.to_value())],
            ),
            Kernel::MatVecMix { n } => named("MatVecMix", vec![("n".to_string(), n.to_value())]),
            Kernel::Rank1Mix { n, alpha } => named(
                "Rank1Mix",
                vec![
                    ("n".to_string(), n.to_value()),
                    ("alpha".to_string(), alpha.to_value()),
                ],
            ),
            Kernel::CgSolve { n, tol, cond } => named(
                "CgSolve",
                vec![
                    ("n".to_string(), n.to_value()),
                    ("tol".to_string(), tol.to_value()),
                    ("cond".to_string(), cond.to_value()),
                ],
            ),
            Kernel::HeatSmooth { steps, r } => named(
                "HeatSmooth",
                vec![
                    ("steps".to_string(), steps.to_value()),
                    ("r".to_string(), r.to_value()),
                ],
            ),
            Kernel::ChaoticAmplify { lambda, steps } => named(
                "ChaoticAmplify",
                vec![
                    ("lambda".to_string(), lambda.to_value()),
                    ("steps".to_string(), steps.to_value()),
                ],
            ),
            Kernel::TranscMap { freq } => {
                named("TranscMap", vec![("freq".to_string(), freq.to_value())])
            }
            Kernel::PolyHorner { degree } => named(
                "PolyHorner",
                vec![("degree".to_string(), degree.to_value())],
            ),
            Kernel::DivScan => Value::String("DivScan".to_string()),
            Kernel::NormScale => Value::String("NormScale".to_string()),
            Kernel::Benign { flavor } => {
                named("Benign", vec![("flavor".to_string(), flavor.to_value())])
            }
            Kernel::UbSwap => Value::String("UbSwap".to_string()),
            Kernel::ZeroGate { boost } => {
                named("ZeroGate", vec![("boost".to_string(), boost.to_value())])
            }
            Kernel::AmplifyExact { lambda, steps } => named(
                "AmplifyExact",
                vec![
                    ("lambda".to_string(), lambda.to_value()),
                    ("steps".to_string(), steps.to_value()),
                ],
            ),
            Kernel::Custom(imp) => named(
                "Custom",
                vec![("name".to_string(), Value::String(imp.name().to_string()))],
            ),
        }
    }
}

impl serde::Deserialize for Kernel {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        use serde::{DeError, Value};
        match v {
            Value::String(s) => match s.as_str() {
                "DivScan" => Ok(Kernel::DivScan),
                "NormScale" => Ok(Kernel::NormScale),
                "UbSwap" => Ok(Kernel::UbSwap),
                other => Err(DeError(format!("unknown variant `{other}` of Kernel"))),
            },
            Value::Object(pairs) if pairs.len() == 1 => {
                let (tag, inner) = &pairs[0];
                match tag.as_str() {
                    "DotMix" => Ok(Kernel::DotMix {
                        stride: usize::from_value(inner.field("stride")?)?,
                    }),
                    "DotMixReproducible" => Ok(Kernel::DotMixReproducible {
                        stride: usize::from_value(inner.field("stride")?)?,
                    }),
                    "MatVecMix" => Ok(Kernel::MatVecMix {
                        n: usize::from_value(inner.field("n")?)?,
                    }),
                    "Rank1Mix" => Ok(Kernel::Rank1Mix {
                        n: usize::from_value(inner.field("n")?)?,
                        alpha: f64::from_value(inner.field("alpha")?)?,
                    }),
                    "CgSolve" => Ok(Kernel::CgSolve {
                        n: usize::from_value(inner.field("n")?)?,
                        tol: f64::from_value(inner.field("tol")?)?,
                        cond: f64::from_value(inner.field("cond")?)?,
                    }),
                    "HeatSmooth" => Ok(Kernel::HeatSmooth {
                        steps: usize::from_value(inner.field("steps")?)?,
                        r: f64::from_value(inner.field("r")?)?,
                    }),
                    "ChaoticAmplify" => Ok(Kernel::ChaoticAmplify {
                        lambda: f64::from_value(inner.field("lambda")?)?,
                        steps: usize::from_value(inner.field("steps")?)?,
                    }),
                    "TranscMap" => Ok(Kernel::TranscMap {
                        freq: f64::from_value(inner.field("freq")?)?,
                    }),
                    "PolyHorner" => Ok(Kernel::PolyHorner {
                        degree: usize::from_value(inner.field("degree")?)?,
                    }),
                    "Benign" => Ok(Kernel::Benign {
                        flavor: u8::from_value(inner.field("flavor")?)?,
                    }),
                    "ZeroGate" => Ok(Kernel::ZeroGate {
                        boost: f64::from_value(inner.field("boost")?)?,
                    }),
                    "AmplifyExact" => Ok(Kernel::AmplifyExact {
                        lambda: f64::from_value(inner.field("lambda")?)?,
                        steps: usize::from_value(inner.field("steps")?)?,
                    }),
                    "Custom" => {
                        let name = String::from_value(inner.field("name")?)?;
                        lookup_custom_kernel(&name)
                            .map(Kernel::Custom)
                            .ok_or_else(|| {
                                DeError(format!(
                                    "custom kernel `{name}` is not registered in this process \
                                 (call register_custom_kernel first)"
                                ))
                            })
                    }
                    other => Err(DeError(format!("unknown variant `{other}` of Kernel"))),
                }
            }
            other => Err(DeError(format!(
                "expected variant of Kernel, got {}",
                other.kind()
            ))),
        }
    }
}

/// Blend weights used by feedback kernels; exact dyadic values so the
/// blend multiplications add no rounding of their own.
const WEIGHTS: [f64; 8] = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// Exact powers of two used to diversify operand magnitudes inside
/// reduction kernels (multiplying by them adds no rounding). Mixed
/// magnitudes plus alternating signs make reductions mildly
/// ill-conditioned, so evaluation-order differences land around 1e-14
/// relative — the scale the paper's Figure 6 reports for typical
/// variable compilations. The range is kept narrow ([1/4, 4]) so that a
/// *chain* of residual kernels amplifies upstream differences only
/// gently (≈2× per kernel); wide ranges would saturate long pipelines
/// like example 8's nine-function chain.
const SCALES: [f64; 13] = [
    4.0, 0.25, 1.0, 2.0, 0.5, 4.0, 0.25, 2.0, 1.0, 0.5, 4.0, 0.5, 2.0,
];

/// Alternating signs for cancellation (exact).
#[inline]
fn alt_sign(i: usize) -> f64 {
    if i.is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// One ill-conditioned reduction over the state: exact sign/scale
/// diversification (alternating signs, power-of-two magnitudes) makes
/// the evaluation order matter, and the fractional residual preserves
/// the resulting absolute difference. `salt` varies the gather/scale
/// pattern so independent calls have independent rounding sequences.
fn ill_dot(env: &FpEnv, state: &[f64], stride: usize, salt: usize) -> f64 {
    let n = state.len();
    let a: Vec<f64> = (0..n)
        .map(|i| state[(i + salt) % n] * SCALES[(i + salt * 3) % 13])
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|i| alt_sign(i) * state[(i + stride) % n] * SCALES[(i * 5 + 2 + salt * 7) % 13])
        .collect();
    frac_residual(reduce::dot(env, &a, &b))
}

/// Combine three independent reduction residuals into one value in
/// [0, 1]. A compilation-induced difference in *any* of the three
/// almost surely survives (a single marginal reduction can round back
/// to the baseline bits for particular states — combining independent
/// sequences drives that probability to negligible).
fn triple_residual(env: &FpEnv, state: &[f64], stride: usize) -> f64 {
    let r0 = ill_dot(env, state, stride, 0);
    let r1 = ill_dot(env, state, stride + 3, 5);
    let r2 = ill_dot(env, state, stride + 11, 9);
    frac_residual(r0 + 0.5 * r1 + 0.25 * r2) + 0.5
}

/// Fractional residual `x - round(x)` ∈ [-0.5, 0.5]: an *exact*
/// extraction (Sterbenz) that preserves the absolute difference between
/// two nearby inputs. Saturating squashes like `x/(1+|x|)` would crush
/// an order-1e-13 reduction difference below one ulp of the output;
/// the residual keeps it intact, the way phase/remainder computations
/// in real codes do.
#[inline]
fn frac_residual(x: f64) -> f64 {
    if !x.is_finite() {
        return x;
    }
    x - x.round()
}

impl Kernel {
    /// Evaluate the kernel on `state` under `env`.
    pub fn eval(&self, state: &mut [f64], env: &FpEnv, inj: Option<Injection>) {
        if state.is_empty() {
            return;
        }
        match self {
            Kernel::DotMix { stride } => {
                let t = triple_residual(env, state, *stride);
                for (i, x) in state.iter_mut().enumerate() {
                    let w = WEIGHTS[i % 8];
                    *x = ops::mul_add(env, 0.25 * w, t, 0.75 * *x);
                }
            }
            Kernel::DotMixReproducible { stride } => {
                // Same dataflow as DotMix, but every reduction runs
                // through the reproducible accumulator: exact splits and
                // products of exact splits commute, so no compilation
                // can change the result. The element-wise blend uses
                // plain (strict) arithmetic for the same reason.
                let n = state.len();
                let mut t_acc = 0.0;
                for (salt, stride_off) in [(0usize, 0usize), (5, 3), (9, 11)] {
                    let mut acc = flit_fpsim::compensated::ReproducibleSum::new();
                    for i in 0..n {
                        let a = state[(i + salt) % n] * SCALES[(i + salt * 3) % 13];
                        let b = alt_sign(i)
                            * state[(i + stride + stride_off) % n]
                            * SCALES[(i * 5 + 2 + salt * 7) % 13];
                        acc.add(a * b);
                    }
                    let r = frac_residual(acc.value());
                    t_acc = frac_residual(t_acc + 0.5 * r);
                }
                let t = t_acc + 0.5;
                for (i, x) in state.iter_mut().enumerate() {
                    let w = WEIGHTS[i % 8];
                    *x = 0.25 * w * t + 0.75 * *x;
                }
            }
            Kernel::MatVecMix { n } => {
                let n = (*n).min(state.len());
                let len = state.len();
                let mut a = DenseMatrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..n {
                        a[(i, j)] = alt_sign(i + j)
                            * (state[(i * 13 + j * 7) % len] - 0.5)
                            * SCALES[(i + 2 * j) % 13];
                    }
                }
                let x: Vec<f64> = (0..n)
                    .map(|j| state[len - 1 - (j % len)] * SCALES[(j * 3 + 1) % 13])
                    .collect();
                let y = a.gemv(env, &x);
                for (i, yi) in y.iter().enumerate() {
                    let t = frac_residual(*yi) + 0.5;
                    let s = &mut state[i % len];
                    *s = ops::mul_add(env, 0.25, t, 0.75 * *s);
                }
                // A final whole-state reduction makes the kernel's
                // sensitivity robust for arbitrary states (individual
                // short rows can round identically by chance).
                let t = triple_residual(env, state, 7);
                for (i, x) in state.iter_mut().enumerate() {
                    *x = ops::mul_add(env, 0.125 * WEIGHTS[i % 8], t, 0.875 * *x);
                }
            }
            Kernel::Rank1Mix { n, alpha } => {
                let n = (*n).min((state.len() as f64).sqrt() as usize).max(2);
                let len = state.len();
                let mut m = DenseMatrix::zeros(n, n);
                let mut a = DenseMatrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..n {
                        m[(i, j)] = state[(i * n + j) % len] - 0.5;
                        a[(i, j)] = alt_sign(i + j)
                            * (state[(i * 17 + j * 29 + 3) % len] - 0.5)
                            * SCALES[(i * 3 + j) % 13];
                    }
                }
                m.add_a_aat(env, *alpha, &a);
                for i in 0..n {
                    for j in 0..n {
                        let v = m[(i, j)];
                        state[(i * n + j) % len] = frac_residual(v) + 0.5;
                    }
                }
            }
            Kernel::CgSolve { n, tol, cond } => {
                let n = (*n).min(state.len()).max(2);
                let len = state.len();
                // Ill-conditioned SPD system: geometric diagonal plus a
                // weak symmetric coupling (state-independent so the
                // system itself is fixed; only the RHS moves).
                let mut a = DenseMatrix::zeros(n, n);
                for i in 0..n {
                    let expo = i as f64 / (n - 1) as f64;
                    a[(i, i)] = cond.powf(expo);
                    if i + 1 < n {
                        let c = 0.01 * ((i * 7 % 5) as f64 + 1.0);
                        a[(i, i + 1)] = c;
                        a[(i + 1, i)] = c;
                    }
                }
                let b: Vec<f64> = (0..n).map(|i| state[i % len] + 0.1).collect();
                let sol = solve::conjugate_gradient(env, &a, &b, *tol, 8 * n);
                for (i, xi) in sol.x.iter().enumerate() {
                    let t = xi / (1.0 + xi.abs());
                    let s = &mut state[i % len];
                    *s = ops::mul_add(env, 0.25, t, 0.75 * *s);
                }
            }
            Kernel::HeatSmooth { steps, r } => {
                let mut u = state.to_vec();
                for _ in 0..*steps {
                    u = stencil::heat_step(env, &u, *r);
                }
                state.copy_from_slice(&u);
            }
            Kernel::ChaoticAmplify { lambda, steps } => {
                // Map into the logistic basin, iterate, map back.
                for x in state.iter_mut() {
                    *x = 0.2 + 0.6 * *x;
                }
                stencil::nonlinear_relax(env, state, *lambda, *steps);
                for x in state.iter_mut() {
                    // Clamp against basin-edge overshoot, then rescale.
                    let c = x.clamp(0.0, 1.35);
                    *x = c / 1.35;
                }
            }
            Kernel::TranscMap { freq } => {
                // Plain arithmetic around the library calls so this
                // kernel varies with the math library and nothing else.
                for x in state.iter_mut() {
                    let s = mathlib::sin(env, *x * freq);
                    let e = mathlib::exp(env, -(x.abs() + 0.1));
                    *x = 0.45 + 0.35 * s + 0.15 * e;
                }
            }
            Kernel::PolyHorner { degree } => {
                // Mixed-magnitude dyadic coefficients so that contraction
                // and extended-precision effects land well above one ulp
                // of the extracted residual.
                let coeffs: Vec<f64> = (0..=*degree)
                    .map(|k| alt_sign(k) * SCALES[(k * 3 + 1) % 13] * WEIGHTS[k % 8])
                    .collect();
                for x in state.iter_mut() {
                    let p = poly::horner(env, &coeffs, *x);
                    *x = 0.25 + 0.5 * (frac_residual(p) + 0.5);
                }
            }
            Kernel::DivScan => {
                // Loop-invariant denominator: the canonical target of
                // the reciprocal-math rewrite.
                let denom = 1.0 + state[0].abs() + 0.618_034;
                for x in state.iter_mut() {
                    *x = ops::div(env, *x + 0.25, denom);
                }
            }
            Kernel::NormScale => {
                // Norm plus two independent reduction residuals: mixed
                // magnitudes make every reduction order matter.
                let scaled: Vec<f64> = state
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| (x - 0.5) * SCALES[(i * 7 + 4) % 13])
                    .collect();
                let nrm = reduce::norm_l2(env, &scaled);
                let aux = triple_residual(env, state, 5);
                let t = frac_residual(frac_residual(nrm) + 0.5 * aux) + 0.5;
                for (i, x) in state.iter_mut().enumerate() {
                    let w = WEIGHTS[(i + 3) % 8];
                    *x = ops::mul_add(env, 0.25 * w, t, 0.75 * *x);
                }
            }
            Kernel::AmplifyExact { lambda, steps } => {
                // Environment-independent by construction: plain ops.
                for x in state.iter_mut() {
                    *x = 0.2 + 0.6 * *x;
                }
                for _ in 0..*steps {
                    for x in state.iter_mut() {
                        *x += lambda * (*x * (1.0 - *x));
                    }
                }
                for x in state.iter_mut() {
                    *x = x.clamp(0.0, 1.35) / 1.35;
                }
            }
            Kernel::Benign { flavor } => benign_eval(*flavor, state),
            Kernel::UbSwap => {
                if env.exploit_ub {
                    // `a ^= b ^= a ^= b` on the same object without a
                    // sequence point: a UB-licensed optimizer is free to
                    // produce garbage. xlc++ -O3 did; we model the
                    // observed outcome (NaN results, §3.4).
                    state[0] = f64::NAN;
                    if state.len() > 1 {
                        state[1] = f64::NAN;
                    }
                } else if state.len() > 1 {
                    state.swap(0, 1);
                }
            }
            Kernel::ZeroGate { boost } => {
                // A checksum residual: under strict scalar evaluation
                // the runtime sums reproduce the compile-time constants
                // exactly; reassociated or extended evaluation leaves a
                // tiny nonzero residual in at least one of the three
                // sums (one fixed dataset can reorder losslessly by
                // luck; three independent ones cannot). The exact
                // `== 0.0` test then branches differently — the root
                // cause FLiT isolated in Laghos ("an exact comparison
                // to 0.0 in an if statement", §3.4).
                if zero_gate_fires(env) {
                    for x in state.iter_mut() {
                        // NaN-propagating cap (f64::min would replace a
                        // NaN with 4.0 and launder upstream poison).
                        let y = *x * boost;
                        *x = if y > 4.0 { 4.0 } else { y };
                    }
                    // The divergent branch also violates conservation:
                    // one cell's density goes negative ("a physical
                    // impossibility" — the paper's motivating example).
                    state[0] -= 1.0;
                }
            }
            Kernel::Custom(imp) => imp.eval(state, env, inj),
        }
    }

    /// Number of static FP instruction sites (0 = not injectable).
    pub fn fp_sites(&self) -> usize {
        match self {
            Kernel::Custom(imp) => imp.fp_sites(),
            _ => 0,
        }
    }

    /// Abstract work units for the performance model.
    pub(crate) fn work(&self, state_len: usize) -> f64 {
        let n = state_len.max(1) as f64;
        match self {
            Kernel::DotMix { .. } => 4.0 * n,
            Kernel::DotMixReproducible { .. } => 9.0 * n, // binned splits cost ~2x

            Kernel::MatVecMix { n: m } => 2.0 * (*m * *m) as f64 + n,
            Kernel::Rank1Mix { n: m, .. } => 2.0 * (*m * *m * *m) as f64 + n,
            Kernel::CgSolve { n: m, .. } => 30.0 * (*m * *m) as f64,
            Kernel::HeatSmooth { steps, .. } => 4.0 * n * *steps as f64,
            Kernel::ChaoticAmplify { steps, .. } => 3.0 * n * *steps as f64,
            Kernel::AmplifyExact { steps, .. } => 3.0 * n * *steps as f64,
            Kernel::TranscMap { .. } => 40.0 * n,
            Kernel::PolyHorner { degree } => n * (*degree as f64 + 1.0),
            Kernel::DivScan => 2.0 * n,
            Kernel::NormScale => 3.0 * n,
            Kernel::Benign { .. } => n,
            Kernel::UbSwap => 2.0,
            Kernel::ZeroGate { .. } => 64.0 + n,
            Kernel::Custom(imp) => imp.work(),
        }
    }

    /// Kernel class for the performance model.
    pub(crate) fn class(&self) -> KernelClass {
        match self {
            Kernel::DotMix { .. }
            | Kernel::DotMixReproducible { .. }
            | Kernel::MatVecMix { .. }
            | Kernel::Rank1Mix { .. }
            | Kernel::CgSolve { .. }
            | Kernel::NormScale
            | Kernel::PolyHorner { .. } => KernelClass::DotHeavy,
            Kernel::HeatSmooth { .. }
            | Kernel::ChaoticAmplify { .. }
            | Kernel::AmplifyExact { .. } => KernelClass::Stencil,
            Kernel::TranscMap { .. } => KernelClass::Transcendental,
            Kernel::DivScan => KernelClass::DivHeavy,
            Kernel::Benign { .. } => KernelClass::Memory,
            Kernel::UbSwap | Kernel::ZeroGate { .. } => KernelClass::Branchy,
            Kernel::Custom(imp) => imp.class(),
        }
    }

    /// Diagnostic name.
    pub(crate) fn name(&self) -> String {
        match self {
            Kernel::DotMix { .. } => "dot_mix".into(),
            Kernel::DotMixReproducible { .. } => "dot_mix_reproducible".into(),
            Kernel::MatVecMix { .. } => "matvec_mix".into(),
            Kernel::Rank1Mix { .. } => "rank1_update".into(),
            Kernel::CgSolve { .. } => "cg_solve".into(),
            Kernel::HeatSmooth { .. } => "heat_smooth".into(),
            Kernel::ChaoticAmplify { .. } => "chaotic_amplify".into(),
            Kernel::AmplifyExact { .. } => "amplify_exact".into(),
            Kernel::TranscMap { .. } => "transc_map".into(),
            Kernel::PolyHorner { .. } => "poly_horner".into(),
            Kernel::DivScan => "div_scan".into(),
            Kernel::NormScale => "norm_scale".into(),
            Kernel::Benign { flavor } => format!("benign_{flavor}"),
            Kernel::UbSwap => "ub_swap".into(),
            Kernel::ZeroGate { .. } => "zero_gate".into(),
            Kernel::Custom(imp) => imp.name().to_string(),
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel::{}", self.name())
    }
}

/// Exact-arithmetic transforms: provably identical under every `FpEnv`
/// (multiplication by powers of two, permutations, negation, clamping).
fn benign_eval(flavor: u8, state: &mut [f64]) {
    match flavor % 8 {
        0 => {
            // Halve then double: exact for all normal values.
            for x in state.iter_mut() {
                *x *= 0.5;
                *x *= 2.0;
            }
        }
        1 => {
            for x in state.iter_mut() {
                *x = -(-*x);
            }
        }
        2 => state.reverse(),
        3 => state.rotate_left(1.min(state.len().saturating_sub(1))),
        4 => {
            for x in state.iter_mut() {
                *x = x.clamp(-8.0, 8.0);
            }
        }
        5 => {
            let half = state.len() / 2;
            let (a, b) = state.split_at_mut(half);
            for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                std::mem::swap(x, y);
            }
        }
        7 => {
            // Center around the chaotic attractor's mean (a dyadic
            // constant; plain subtraction, identical in every env).
            // Used as a final output transform so relative errors are
            // measured against the fluctuation, not the offset.
            for x in state.iter_mut() {
                *x -= 0.468_75;
            }
        }
        _ => { /* pure data movement, no transform */ }
    }
}

/// Fixed ill-conditioned constants for [`Kernel::ZeroGate`]; `series`
/// selects among three structurally different datasets (sign pattern,
/// magnitude stride, length) so that no single lucky reordering can
/// reproduce all three strict sums.
fn zero_gate_values(series: usize) -> Vec<f64> {
    let (n, sign_mod, mag_stride, mag_span) = match series % 3 {
        0 => (48usize, 2usize, 11usize, 13i32),
        1 => (53, 3, 7, 11),
        _ => (61, 2, 5, 9),
    };
    (0..n)
        .map(|i| {
            let sign = if i % sign_mod == 0 { 1.0 } else { -1.0 };
            sign * (1.0 + (i as f64) * 0.013_7)
                * 10f64.powi(((i * mag_stride) % mag_span as usize) as i32 - mag_span / 2 - 2)
        })
        .collect()
}

/// Whether [`Kernel::ZeroGate`]'s exact-zero branch fires under `env`.
///
/// The gate is state-independent: it compares `reduce::sum` of three
/// fixed datasets against their strict left-to-right checksums. Static
/// analysis (flit-absint) uses this to decide whether two environments
/// take the same branch — if they do, the kernel is a pure function of
/// state with identical arithmetic on both sides.
pub fn zero_gate_fires(env: &FpEnv) -> bool {
    let mut q = 0.0;
    for series in 0..3 {
        let vals = zero_gate_values(series);
        let expected = zero_gate_expected(series);
        let s = reduce::sum(env, &vals);
        q += (s - expected).abs();
    }
    q != 0.0
}

/// The compile-time checksum: the strict left-to-right sum of
/// [`zero_gate_values`].
fn zero_gate_expected(series: usize) -> f64 {
    let mut acc = 0.0f64;
    for v in zero_gate_values(series) {
        acc += v;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_fpsim::env::SimdWidth;
    use flit_fpsim::ulp::l2_diff;

    fn state0(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.3 + 0.4 * ((i as f64 * 0.7311).sin() * 0.5 + 0.5))
            .collect()
    }

    fn run(k: &Kernel, env: &FpEnv, rounds: usize) -> Vec<f64> {
        let mut s = state0(64);
        for _ in 0..rounds {
            k.eval(&mut s, env, None);
        }
        s
    }

    fn strict() -> FpEnv {
        FpEnv::strict()
    }

    fn reassoc() -> FpEnv {
        FpEnv::strict().with_simd(SimdWidth::W4)
    }

    fn fma() -> FpEnv {
        FpEnv::strict().with_fma(true)
    }

    fn extended() -> FpEnv {
        FpEnv::strict().with_extended(true)
    }

    fn recip() -> FpEnv {
        FpEnv::strict().with_recip(true)
    }

    fn vendor() -> FpEnv {
        FpEnv::strict().with_mathlib(flit_fpsim::env::MathLib::Vendor)
    }

    #[track_caller]
    fn assert_sensitive(k: &Kernel, env: &FpEnv, rounds: usize) {
        let a = run(k, &strict(), rounds);
        let b = run(k, env, rounds);
        assert_ne!(a, b, "{k:?} should vary under {env:?}");
    }

    #[track_caller]
    fn assert_insensitive(k: &Kernel, env: &FpEnv, rounds: usize) {
        let a = run(k, &strict(), rounds);
        let b = run(k, env, rounds);
        assert_eq!(a, b, "{k:?} should NOT vary under {env:?}");
    }

    #[test]
    fn reproducible_dot_mix_is_invariant_under_everything() {
        let k = Kernel::DotMixReproducible { stride: 7 };
        for env in [
            reassoc(),
            fma(),
            extended(),
            recip(),
            vendor(),
            FpEnv::fast(),
        ] {
            assert_insensitive(&k, &env, 3);
        }
        // …while still doing real work (the state changes).
        let mut s = state0(64);
        let before = s.clone();
        k.eval(&mut s, &strict(), None);
        assert_ne!(s, before);
    }

    #[test]
    fn dot_mix_sensitivity_profile() {
        let k = Kernel::DotMix { stride: 7 };
        assert_sensitive(&k, &reassoc(), 3);
        assert_sensitive(&k, &fma(), 3);
        assert_sensitive(&k, &extended(), 3);
        assert_insensitive(&k, &recip(), 3);
        assert_insensitive(&k, &vendor(), 3);
    }

    #[test]
    fn heat_smooth_is_fma_only() {
        // Diffusion *contracts* differences, so probe after few steps:
        // over long horizons smoothing can round a contraction-induced
        // difference back to bitwise equality (which is also why the
        // example apps pair smoothing with nonlinear kernels).
        let k = Kernel::HeatSmooth { steps: 12, r: 0.24 };
        assert_sensitive(&k, &fma(), 1);
        assert_insensitive(&k, &reassoc(), 2);
        assert_insensitive(&k, &recip(), 2);
        assert_insensitive(&k, &vendor(), 2);
    }

    #[test]
    fn transc_map_is_mathlib_only() {
        let k = Kernel::TranscMap { freq: 3.1 };
        assert_sensitive(&k, &vendor(), 1);
        assert_insensitive(&k, &reassoc(), 2);
        assert_insensitive(&k, &fma(), 2);
        assert_insensitive(&k, &recip(), 2);
        assert_insensitive(&k, &extended(), 2);
    }

    #[test]
    fn div_scan_is_recip_only() {
        let k = Kernel::DivScan;
        assert_sensitive(&k, &recip(), 1);
        assert_insensitive(&k, &reassoc(), 2);
        assert_insensitive(&k, &fma(), 2);
        assert_insensitive(&k, &vendor(), 2);
    }

    #[test]
    fn rank1_and_matvec_vary_under_vector_math() {
        assert_sensitive(&Kernel::Rank1Mix { n: 8, alpha: 0.7 }, &reassoc(), 2);
        assert_sensitive(&Kernel::Rank1Mix { n: 8, alpha: 0.7 }, &extended(), 2);
        assert_sensitive(&Kernel::MatVecMix { n: 12 }, &reassoc(), 2);
        assert_sensitive(&Kernel::MatVecMix { n: 12 }, &fma(), 2);
    }

    #[test]
    fn cg_solve_converges_differently() {
        let k = Kernel::CgSolve {
            n: 24,
            tol: 1e-12,
            cond: 1e6,
        };
        assert_sensitive(&k, &fma(), 1);
        assert_sensitive(&k, &reassoc(), 1);
    }

    #[test]
    fn benign_flavors_are_env_invariant_and_value_preserving() {
        for flavor in 0..7 {
            let k = Kernel::Benign { flavor };
            for env in [
                reassoc(),
                fma(),
                extended(),
                recip(),
                vendor(),
                FpEnv::fast(),
            ] {
                assert_insensitive(&k, &env, 4);
            }
            // Benign kernels also preserve the multiset of magnitudes
            // (they only move/negate/scale-exactly).
            let mut s = state0(32);
            let before: f64 = s.iter().map(|x| x.abs()).sum();
            k.eval(&mut s, &strict(), None);
            let after: f64 = s.iter().map(|x| x.abs()).sum();
            assert!((before - after).abs() < 1e-12);
        }
    }

    #[test]
    fn ub_swap_poisons_only_under_exploit_ub() {
        let k = Kernel::UbSwap;
        let mut s = vec![1.0, 2.0, 3.0];
        k.eval(&mut s, &strict(), None);
        assert_eq!(s, vec![2.0, 1.0, 3.0]);
        let ub = FpEnv::strict().with_exploit_ub(true);
        k.eval(&mut s, &ub, None);
        assert!(s[0].is_nan() && s[1].is_nan());
        assert_eq!(s[2], 3.0);
    }

    #[test]
    fn zero_gate_branches_on_reassociation() {
        let k = Kernel::ZeroGate { boost: 1.12 };
        // Strict and FMA-only envs take the quiet branch (no products in
        // the checksum sums, and the scalar order matches the constants).
        assert_insensitive(&k, &fma(), 2);
        assert_insensitive(&k, &recip(), 2);
        // Any reassociated width, and extended evaluation, leave a
        // residual → the divergent branch fires.
        for w in [SimdWidth::W2, SimdWidth::W4, SimdWidth::W8] {
            assert_sensitive(&k, &FpEnv::strict().with_simd(w), 1);
        }
        assert_sensitive(&k, &extended(), 1);
        // FMA combined with W2 (the xlc++ -O3 environment) too.
        assert_sensitive(
            &k,
            &FpEnv::strict().with_simd(SimdWidth::W2).with_fma(true),
            1,
        );
    }

    #[test]
    fn chaotic_amplify_magnifies_small_differences() {
        let k = Kernel::ChaoticAmplify {
            lambda: 2.9,
            steps: 60,
        };
        let mut a = state0(64);
        let mut b = state0(64);
        for x in b.iter_mut() {
            *x += 1e-12;
        }
        k.eval(&mut a, &strict(), None);
        k.eval(&mut b, &strict(), None);
        let d = l2_diff(&a, &b);
        assert!(d > 1e-2, "expected chaotic separation, got {d:e}");
    }

    #[test]
    fn amplify_exact_is_env_invariant_but_amplifies() {
        let k = Kernel::AmplifyExact {
            lambda: 2.9,
            steps: 40,
        };
        for env in [
            reassoc(),
            fma(),
            extended(),
            recip(),
            vendor(),
            FpEnv::fast(),
        ] {
            assert_insensitive(&k, &env, 2);
        }
        let mut a = state0(32);
        let mut b: Vec<f64> = a.iter().map(|x| x + 1e-12).collect();
        k.eval(&mut a, &strict(), None);
        k.eval(&mut b, &strict(), None);
        assert!(l2_diff(&a, &b) > 1e-2);
    }

    #[test]
    fn kernels_keep_state_bounded_and_finite() {
        let kernels = vec![
            Kernel::DotMix { stride: 3 },
            Kernel::MatVecMix { n: 8 },
            Kernel::Rank1Mix { n: 6, alpha: 0.9 },
            Kernel::CgSolve {
                n: 16,
                tol: 1e-10,
                cond: 1e4,
            },
            Kernel::HeatSmooth { steps: 5, r: 0.24 },
            Kernel::ChaoticAmplify {
                lambda: 2.8,
                steps: 10,
            },
            Kernel::TranscMap { freq: 2.3 },
            Kernel::PolyHorner { degree: 9 },
            Kernel::DivScan,
            Kernel::NormScale,
            Kernel::ZeroGate { boost: 1.1 },
        ];
        let env = FpEnv::fast();
        let mut s = state0(64);
        // Chain everything many times; state must stay bounded.
        for _ in 0..10 {
            for k in &kernels {
                k.eval(&mut s, &env, None);
                for &x in s.iter() {
                    assert!(x.is_finite() && x.abs() <= 8.0, "{k:?} produced {x}");
                }
            }
        }
    }

    #[test]
    fn empty_state_is_a_no_op() {
        let mut s: Vec<f64> = vec![];
        for k in [
            Kernel::DotMix { stride: 1 },
            Kernel::UbSwap,
            Kernel::DivScan,
        ] {
            k.eval(&mut s, &strict(), None);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn work_and_class_are_populated() {
        assert!(
            Kernel::CgSolve {
                n: 32,
                tol: 1e-12,
                cond: 1e6
            }
            .work(64)
                > 1000.0
        );
        assert_eq!(Kernel::DivScan.class(), KernelClass::DivHeavy);
        assert_eq!(
            Kernel::TranscMap { freq: 1.0 }.class(),
            KernelClass::Transcendental
        );
        assert_eq!(Kernel::Benign { flavor: 0 }.class(), KernelClass::Memory);
        assert_eq!(Kernel::DotMix { stride: 1 }.fp_sites(), 0);
    }

    #[test]
    fn determinism_across_repeated_eval() {
        let env = FpEnv::fast();
        let k = Kernel::CgSolve {
            n: 20,
            tol: 1e-12,
            cond: 1e5,
        };
        let a = run(&k, &env, 3);
        let b = run(&k, &env, 3);
        assert_eq!(a, b);
    }
}

//! # flit-absint — certified per-pair divergence bounds
//!
//! A *sound* abstract interpreter over the fpsim kernel semantics. For a
//! (program, driver, FpEnv pair) it propagates an interval-plus-error
//! abstract value through the program's dataflow under **both**
//! environments simultaneously and emits, per bisect item (file, symbol,
//! or the whole pair), a [`Certificate`]:
//!
//! - [`Certificate::Invariant`] — divergence is **provably zero**: every
//!   evaluation the item controls realizes identical machine arithmetic
//!   under both environments (same FMA contraction, same reassociation
//!   width on every reduction length it performs, same extended /
//!   reciprocal / FTZ / UB / mathlib behaviour), the bodies are
//!   byte-identical across the two build trees, and no mixed-ABI crash
//!   is possible. Two bit-identical executions have `l2_diff == 0`.
//! - [`Certificate::Bounded`]`(ε)` — a guaranteed upper bound on the
//!   compare-metric (`l2_diff`) divergence, from a Lipschitz-plus-
//!   saturation walk over the kernel transformers ([`transfer`]).
//! - [`Certificate::Unknown`] — the analysis cannot say anything sound
//!   (mixed-ABI crash hazard, UB poison reaching a nonzero delta, a
//!   [`flit_program::Kernel::Custom`] body evaluated under differing
//!   environments or on already-diverged state, or a bound that blew up
//!   to non-finite). `Unknown` is *vacuous on purpose*: it never
//!   licenses pruning.
//!
//! The certificates are the crate's whole static prediction: their
//! [`Certificate::score`]s seed a Bisect search's speculation order,
//! their `Invariant` verdicts prune it, and
//! [`PairCertificates::abi_hazard`] flags a pair whose mixed binaries
//! can crash at link time. Beside them, [`hazards`] holds the
//! pair-independent kernel lints `flit lint` reports.
//!
//! ## Soundness argument (sketch)
//!
//! The two concrete executions start from the same `Driver::init_state`
//! bits. The abstract state `domain::AbsState` carries (a) an
//! [`Interval`](flit_fpsim::interval::Interval) enveloping every element
//! of both runs — maintained with outward-rounded interval arithmetic —
//! and (b) `delta`, a bound on the element-wise `|A − B|` difference.
//! The key exact rule: if `delta == 0` and an evaluation's realization
//! is identical under both environments, the two runs execute the same
//! instructions on the same bits, so `delta` stays *exactly* zero.
//! The rule covers opaque [`flit_program::Kernel::Custom`] bodies too,
//! under one assumption: a `KernelImpl::eval` is a deterministic
//! function of its state, environment and injection (the same premise
//! as the workflow's bitwise determinism pre-check). An opaque body
//! evaluated under equal environments on a `delta == 0` state keeps
//! `delta == 0` with an unbounded (top) interval; in every other case it
//! marks the walk unknown.
//! Every divergent evaluation adds an explicit environment term (FMA
//! contraction, reduction-order, mathlib envelopes) plus a rounding
//! slack, and every saturating kernel caps `delta` at its output
//! diameter. The final ℓ2 bound is `sqrt(n) · delta`, rounded outward.

pub mod certify;
pub mod domain;
pub mod hazards;
pub mod realization;
pub mod transfer;

pub use certify::{certify_pair, PairCertificates};
pub use hazards::{reachable_hazards, Hazard};

/// What the abstract interpreter can promise about one bisect item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Certificate {
    /// Divergence is provably zero: flipping this item cannot change a
    /// single output bit in any mixed binary of this pair.
    Invariant,
    /// Guaranteed upper bound on the `l2_diff` compare metric.
    Bounded(f64),
    /// No sound statement possible; treat as "anything may happen".
    Unknown,
}

impl Certificate {
    /// True when Bisect may drop the item from the search space without
    /// a dynamic probe.
    pub fn prunable(&self) -> bool {
        matches!(self, Certificate::Invariant)
    }

    /// A ranking score for seeding: how much divergence this item
    /// can contribute. `Invariant` items score zero, bounded items score
    /// their bound, `Unknown` items rank above every finite bound.
    pub fn score(&self) -> f64 {
        match self {
            Certificate::Invariant => 0.0,
            Certificate::Bounded(e) => *e,
            Certificate::Unknown => f64::INFINITY,
        }
    }

    /// Does an observed divergence contradict this certificate? Used by
    /// the fuzz campaign's soundness oracle: any `true` is a bug in the
    /// abstract interpreter, not in the subject.
    pub fn contradicted_by(&self, observed: f64) -> bool {
        match self {
            Certificate::Invariant => observed != 0.0,
            // A NaN observation must contradict a finite bound.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            Certificate::Bounded(e) => !(observed <= *e),
            Certificate::Unknown => false,
        }
    }

    /// Short stable label for reports and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Certificate::Invariant => "invariant",
            Certificate::Bounded(_) => "bounded",
            Certificate::Unknown => "unknown",
        }
    }
}

impl serde::Serialize for Certificate {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        match self {
            Certificate::Invariant => Value::String("Invariant".into()),
            Certificate::Unknown => Value::String("Unknown".into()),
            Certificate::Bounded(e) => {
                Value::Object(vec![("Bounded".to_string(), Value::Float(*e))])
            }
        }
    }
}

impl serde::Deserialize for Certificate {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        use serde::{DeError, Value};
        match v {
            Value::String(s) => match s.as_str() {
                "Invariant" => Ok(Certificate::Invariant),
                "Unknown" => Ok(Certificate::Unknown),
                other => Err(DeError(format!("unknown variant `{other}` of Certificate"))),
            },
            Value::Object(pairs) if pairs.len() == 1 && pairs[0].0 == "Bounded" => {
                let e = f64::from_value(&pairs[0].1)?;
                Ok(Certificate::Bounded(e))
            }
            _ => Err(DeError("expected Certificate".to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_semantics() {
        assert!(Certificate::Invariant.prunable());
        assert!(!Certificate::Bounded(0.0).prunable());
        assert!(!Certificate::Unknown.prunable());

        assert!(Certificate::Invariant.contradicted_by(1e-300));
        assert!(!Certificate::Invariant.contradicted_by(0.0));
        assert!(Certificate::Bounded(1e-6).contradicted_by(2e-6));
        assert!(!Certificate::Bounded(1e-6).contradicted_by(1e-6));
        // A NaN / infinite observation contradicts any finite bound...
        assert!(Certificate::Bounded(1e-6).contradicted_by(f64::NAN));
        assert!(Certificate::Bounded(1e-6).contradicted_by(f64::INFINITY));
        // ...but nothing contradicts Unknown (vacuous on purpose).
        assert!(!Certificate::Unknown.contradicted_by(f64::INFINITY));

        assert_eq!(Certificate::Invariant.score(), 0.0);
        assert_eq!(Certificate::Bounded(0.5).score(), 0.5);
        assert_eq!(Certificate::Unknown.score(), f64::INFINITY);
    }

    #[test]
    fn certificate_serde_round_trip() {
        for c in [
            Certificate::Invariant,
            Certificate::Unknown,
            Certificate::Bounded(3.25e-9),
        ] {
            let v = serde::Serialize::to_value(&c);
            let back = <Certificate as serde::Deserialize>::from_value(&v).unwrap();
            assert_eq!(c, back);
        }
    }
}

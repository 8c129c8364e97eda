//! The abstract domain: one `AbsState` summarizes the *pair* of
//! concrete state vectors (run A under the baseline environment
//! assignment, run B with the item under analysis flipped).

use flit_fpsim::interval::Interval;

/// Machine epsilon for f64 (`2^-52`).
pub(crate) const EPS: f64 = f64::EPSILON;

/// Abstract summary of the two concrete state vectors at one program
/// point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AbsState {
    /// Envelope of every element of *both* runs (uniform over indices;
    /// element-wise precision is deliberately traded for a domain the
    /// saturating kernels keep small).
    pub iv: Interval,
    /// Sound bound on `max_i |state_A[i] − state_B[i]|`. The load-
    /// bearing exactness: while no evaluation has diverging realizations
    /// and `delta == 0`, both runs are bit-identical and `delta` stays
    /// *exactly* `0.0` — not "small", zero.
    pub delta: f64,
    /// A NaN may be present in either run (UB poison). NaN positions
    /// remain symmetric while `delta == 0`; once `delta > 0` we can no
    /// longer prove that, and the certificate degrades to `Unknown`.
    pub nan: bool,
    /// Soundness lost entirely (e.g. a `Kernel::Custom` body evaluated
    /// under differing environments).
    pub unknown: bool,
}

impl AbsState {
    /// Abstract initial state: `Driver::init_state` produces elements in
    /// `[0.15, 0.85]` (environment-independent harness arithmetic), and
    /// both runs start from the same bits.
    pub(crate) fn initial() -> AbsState {
        AbsState {
            iv: Interval::new(0.15, 0.85),
            delta: 0.0,
            nan: false,
            unknown: false,
        }
    }

    /// Merge two per-run abstract states (used when the two build trees
    /// carry *different bodies* for a function: run A evaluated one
    /// kernel, run B another). Elements of run A lie in `a.iv`, of run B
    /// in `b.iv`, so the element-wise difference is bounded by the
    /// diameter of the union envelope.
    pub(crate) fn merge_diverged(a: AbsState, b: AbsState) -> AbsState {
        let iv = a.iv.union(b.iv);
        AbsState {
            iv,
            delta: iv.width(),
            nan: a.nan || b.nan,
            unknown: a.unknown || b.unknown,
        }
    }

    /// Generic rounding-divergence slack for one kernel application: a
    /// handful of ulps at the current magnitude plus an FTZ quantum.
    /// Only added when the runs are already apart (`delta > 0`) or the
    /// evaluation's realization differs — identical code on identical
    /// bits needs none.
    pub(crate) fn slack(&self) -> f64 {
        let m = if self.iv.is_nan() { 1.0 } else { self.iv.mag() };
        32.0 * EPS * m.max(1.0) + 8.0 * f64::MIN_POSITIVE
    }

    /// Clamp a candidate `delta` expression against the saturation cap
    /// (both outputs provably lie in `out`), propagating non-finite
    /// values so the finalizer can demote to `Unknown`.
    pub(crate) fn capped_delta(out: Interval, candidate: f64) -> f64 {
        if out.is_nan() {
            return f64::INFINITY;
        }
        candidate.min(out.width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_exact() {
        let s = AbsState::initial();
        assert_eq!(s.delta, 0.0);
        assert!(!s.nan && !s.unknown);
        assert!(s.iv.contains(0.15) && s.iv.contains(0.85));
    }

    #[test]
    fn merged_diverged_states_saturate_to_union_width() {
        let a = AbsState {
            iv: Interval::new(0.0, 1.0),
            delta: 0.0,
            nan: false,
            unknown: false,
        };
        let b = AbsState {
            iv: Interval::new(2.0, 3.0),
            delta: 0.0,
            nan: true,
            unknown: false,
        };
        let m = AbsState::merge_diverged(a, b);
        assert!(m.delta >= 3.0);
        assert!(m.nan);
        assert!(m.iv.contains(0.0) && m.iv.contains(3.0));
    }
}

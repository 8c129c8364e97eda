//! *Reproducible* summation.
//!
//! The paper's related work (§4.1, Arteaga–Fuhrer–Hoefler \[3\]) discusses
//! "the design of efficient reduction operators" for **bitwise
//! reproducible** applications: summation whose result is identical
//! regardless of evaluation order — and therefore identical under every
//! compilation. [`ReproducibleSum`] is a pre-rounding (binned) sum in
//! the style of Demmel–Nguyen/Arteaga: every addend is first split
//! against a set of power-of-two bins wide enough that intra-bin
//! accumulation is **exact**; the per-bin partials are then combined in
//! a fixed order. Exact operations commute, so the result is
//! bit-identical under any reassociation — which the
//! `reproducible_fix` example verifies through the full compilation
//! matrix (`Kernel::DotMixReproducible` in flit-program).

/// Number of bins in the reproducible accumulator. Bins are spaced
/// `BIN_WIDTH` binary digits apart covering the full double range down
/// into the subnormals.
const BINS: usize = 53;
/// Bits per bin. With W = 40 each bin's partial accumulates exactly for
/// up to 2^(52-W) = 4096 addends before renormalization.
const BIN_WIDTH: i32 = 40;
/// Renormalize after this many accumulations to keep bins exact.
const RENORM_EVERY: usize = 2048;

/// A reproducible accumulator: order-independent, compilation-independent
/// summation via exact pre-rounding against power-of-two bin boundaries.
#[derive(Debug, Clone)]
pub struct ReproducibleSum {
    bins: Vec<f64>,
    count: usize,
}

impl Default for ReproducibleSum {
    fn default() -> Self {
        Self::new()
    }
}

impl ReproducibleSum {
    /// An empty accumulator.
    pub fn new() -> Self {
        ReproducibleSum {
            bins: vec![0.0; BINS],
            count: 0,
        }
    }

    fn bin_scale(bin: usize) -> f64 {
        // Bin 0 covers the largest magnitudes; the last bin's quantum is
        // forced to the smallest positive double, so residuals below the
        // final quantum are exactly zero. Consecutive quanta differ by
        // at most 52 bits, which keeps every split multiplier under
        // 2^52 — i.e. every split is exact.
        let e = (1020 - (bin as i32 + 1) * BIN_WIDTH).max(-1074);
        if e >= -1022 {
            f64::from_bits(((e + 1023) as u64) << 52)
        } else {
            // Subnormal power of two.
            f64::from_bits(1u64 << (e + 1074))
        }
    }

    /// Add one value: split it exactly across the bins. Each split part
    /// is an integer multiple of its bin's quantum, so the per-bin sums
    /// are exact (until renormalization is due).
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "reproducible sum requires finite addends");
        let mut rest = x;
        for b in 0..BINS {
            if rest == 0.0 {
                break;
            }
            let q = Self::bin_scale(b);
            // Round-to-nearest multiple of q via scaled rounding; for
            // |rest| < q·2^52 this is exact arithmetic.
            let k = (rest / q).round();
            let part = k * q;
            self.bins[b] += part;
            rest -= part;
        }
        debug_assert_eq!(rest, 0.0, "the final quantum is the ulp of the range");
        self.count += 1;
        if self.count.is_multiple_of(RENORM_EVERY) {
            self.renormalize();
        }
    }

    /// Re-split every bin so partials stay exactly representable.
    fn renormalize(&mut self) {
        let old = std::mem::replace(&mut self.bins, vec![0.0; BINS]);
        let count = self.count;
        for (b, v) in old.into_iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            // Redistribute from the top: v is a multiple of bin b's
            // quantum, so splitting it again is exact.
            let mut rest = v;
            for nb in 0..=b {
                let q = Self::bin_scale(nb);
                let k = (rest / q).round();
                let part = k * q;
                self.bins[nb] += part;
                rest -= part;
            }
            debug_assert_eq!(rest, 0.0);
        }
        self.count = count;
    }

    /// Final value: fixed-order (high-to-low) combination of the bins.
    pub fn value(&self) -> f64 {
        let mut acc = 0.0f64;
        for &b in &self.bins {
            acc += b;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{FpEnv, SimdWidth};
    use crate::reduce;

    /// Reproducible sum of a slice.
    ///
    /// The result is **independent of the evaluation environment**: the
    /// per-element splitting uses only exact operations (multiplication by
    /// powers of two, round-to-integer, exact subtraction), so FMA
    /// contraction, reassociation, and extended precision cannot change it.
    /// The `env` parameter documents the call site's compilation; it is
    /// deliberately unused.
    fn sum_reproducible(_env: &FpEnv, xs: &[f64]) -> f64 {
        let mut acc = ReproducibleSum::new();
        for &x in xs {
            acc.add(x);
        }
        acc.value()
    }

    /// Accuracy reference for tests: the double-double sum.
    fn sum_dd(xs: &[f64]) -> f64 {
        let mut acc = crate::dd::Dd::ZERO;
        for &x in xs {
            acc = acc + crate::dd::Dd::from_f64(x);
        }
        acc.to_f64()
    }

    fn nasty(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                s * (1.0 + (i as f64) * 0.003_7) * 10f64.powi(((i * 13) % 25) as i32 - 12)
            })
            .collect()
    }

    #[test]
    fn reproducible_sum_is_order_independent() {
        let xs = nasty(4000);
        let forward = sum_reproducible(&FpEnv::strict(), &xs);
        let mut rev = xs.clone();
        rev.reverse();
        let backward = sum_reproducible(&FpEnv::strict(), &rev);
        assert_eq!(forward.to_bits(), backward.to_bits());
        // Interleaved order too.
        let mut shuffled: Vec<f64> = Vec::new();
        for k in 0..7 {
            shuffled.extend(xs.iter().skip(k).step_by(7));
        }
        assert_eq!(shuffled.len(), xs.len());
        let s = sum_reproducible(&FpEnv::strict(), &shuffled);
        assert_eq!(s.to_bits(), forward.to_bits());
    }

    #[test]
    fn reproducible_sum_is_env_independent() {
        let xs = nasty(2000);
        let strict = sum_reproducible(&FpEnv::strict(), &xs);
        for env in [
            FpEnv::fast(),
            FpEnv::strict().with_simd(SimdWidth::W8),
            FpEnv::strict().with_extended(true),
        ] {
            assert_eq!(sum_reproducible(&env, &xs).to_bits(), strict.to_bits());
        }
        // While the ordinary sum DOES vary on this input.
        assert_ne!(
            reduce::sum(&FpEnv::strict(), &xs),
            reduce::sum(&FpEnv::strict().with_simd(SimdWidth::W4), &xs)
        );
    }

    #[test]
    fn reproducible_sum_is_accurate() {
        let xs = nasty(3000);
        let exact = sum_dd(&xs);
        let rep = sum_reproducible(&FpEnv::strict(), &xs);
        let rel = ((rep - exact) / exact).abs();
        assert!(rel < 1e-9, "reproducible sum rel err {rel:e}");
    }

    #[test]
    fn renormalization_keeps_exactness_over_long_streams() {
        // Many more addends than RENORM_EVERY, same magnitude: the
        // result must equal the exact integer-scaled total.
        let mut acc = ReproducibleSum::new();
        let n = 3 * RENORM_EVERY + 17;
        for i in 0..n {
            acc.add(0.5 + (i % 2) as f64); // alternating 0.5 / 1.5
        }
        let expect = (n / 2) as f64 * 2.0 + if n % 2 == 1 { 0.5 } else { 0.0 };
        assert_eq!(acc.value(), expect);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(sum_reproducible(&FpEnv::strict(), &[]), 0.0);
        assert_eq!(sum_reproducible(&FpEnv::strict(), &[0.1]), 0.1);
        assert_eq!(sum_reproducible(&FpEnv::strict(), &[-2.5e-300]), -2.5e-300);
        assert_eq!(sum_reproducible(&FpEnv::strict(), &[1e300]), 1e300);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let mut acc = ReproducibleSum::new();
        acc.add(f64::NAN);
    }
}

//! Math-library implementations.
//!
//! Real executables get their `exp`/`log`/`sin` from whatever library
//! the *link step* selects. The reference implementation here delegates
//! to Rust's (correctly-rounded-ish) std intrinsics, standing in for
//! glibc's libm; the vendor implementation is an independent polynomial
//! approximation, standing in for Intel's SVML/libimf, accurate to a
//! few ulps but deliberately not bit-identical.
//!
//! This models the paper's observation that MFEM examples 4, 5, 9, 10
//! and 15 showed variability under *every* Intel compilation "because
//! variability was introduced by the Intel link step, regardless of
//! optimization level or switches."

use crate::env::{FpEnv, MathLib};

const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const LOG2_E: f64 = std::f64::consts::LOG2_E;

/// `exp(x)` under the environment's math library.
pub fn exp(env: &FpEnv, x: f64) -> f64 {
    match env.mathlib {
        MathLib::Reference => x.exp(),
        MathLib::Vendor => vendor_exp(x),
    }
}

/// `sin(x)` under the environment's math library.
pub fn sin(env: &FpEnv, x: f64) -> f64 {
    match env.mathlib {
        MathLib::Reference => x.sin(),
        MathLib::Vendor => vendor_sin(x),
    }
}

/// Vendor `exp`: range reduction `x = k·ln2 + r`, degree-13 Taylor on
/// `r ∈ [-ln2/2, ln2/2]`, reconstruction by exponent scaling.
fn vendor_exp(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > 709.782_712_893_384 {
        return f64::INFINITY;
    }
    if x < -745.133_219_101_941_1 {
        return 0.0;
    }
    let k = (x * LOG2_E).round();
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Horner evaluation of the Taylor series of exp(r), degree 11 — the
    // *fast* vendor path: ~1-2 ulp error, deliberately not correctly
    // rounded (bit-differences from the reference library are the whole
    // point of modeling a vendor math library).
    let mut p = 1.0 / 39_916_800.0; // 1/11!
    let coeffs = [
        1.0 / 3_628_800.0,
        1.0 / 362_880.0,
        1.0 / 40_320.0,
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        0.5,
        1.0,
        1.0,
    ];
    for c in coeffs {
        p = p * r + c;
    }
    scale_by_pow2(p, k as i32)
}

/// Vendor `sin` via Cody–Waite-style reduction modulo π/2 and a
/// degree-17 Taylor kernel.
fn vendor_sin(x: f64) -> f64 {
    let (r, quadrant) = reduce_pi_2(x);
    match quadrant & 3 {
        0 => sin_kernel(r),
        1 => cos_kernel(r),
        2 => -sin_kernel(r),
        _ => -cos_kernel(r),
    }
}

// fdlibm-style Cody–Waite split of pi/2: PI_2_HI carries only the top 33
// mantissa bits, so k*PI_2_HI is exact for the k range we reduce over.
const PI_2_HI: f64 = 1.570_796_326_734_125_6;
const PI_2_LO: f64 = 6.077_100_506_506_192e-11;

/// Reduce `x` to `r ∈ [-π/4, π/4]` and the quadrant count. Two-part
/// Cody–Waite reduction — adequate for the moderate arguments our
/// kernels produce (|x| ≲ 1e6), like a fast vendor path.
fn reduce_pi_2(x: f64) -> (f64, i64) {
    if x.is_nan() || x.is_infinite() {
        return (f64::NAN, 0);
    }
    let k = (x / PI_2_HI).round();
    let r = (x - k * PI_2_HI) - k * PI_2_LO;
    (r, k as i64)
}

fn sin_kernel(r: f64) -> f64 {
    let r2 = r * r;
    // Degree-13 fast path (same class as a vendor short-vector sin).
    let mut p = -1.0 / 6_227_020_800.0; // -1/13!
    for c in [
        1.0 / 39_916_800.0,
        -1.0 / 362_880.0,
        1.0 / 5_040.0,
        -1.0 / 120.0,
        1.0 / 6.0,
    ] {
        p = p * r2 + c;
    }
    // sin r = r - r^3/6 + ... = r + r^3 * (-(p))… assembled as r*(1 - r2*p)
    r * (1.0 - r2 * p)
}

fn cos_kernel(r: f64) -> f64 {
    let r2 = r * r;
    // Degree-12 fast path.
    let mut p = -1.0 / 479_001_600.0; // -1/12!
    for c in [
        1.0 / 3_628_800.0, // +1/10!
        -1.0 / 40_320.0,   // -1/8!
        1.0 / 720.0,       // +1/6!
        -1.0 / 24.0,       // -1/4!
        0.5,
    ] {
        p = p * r2 + c;
    }
    1.0 - r2 * p
}

/// Multiply by 2^k exactly (with graceful under/overflow).
fn scale_by_pow2(x: f64, k: i32) -> f64 {
    if (-1022..=1023).contains(&k) {
        x * f64::from_bits(((k + 1023) as u64) << 52)
    } else if k > 1023 {
        x * f64::from_bits((2046u64) << 52) * scale_by_pow2(1.0, k - 1023)
    } else {
        // Split as x * 2^-1022 * 2^(k+1022); multiplying by the most
        // negative factor first would underflow prematurely.
        x * f64::from_bits(1u64 << 52) * scale_by_pow2(1.0, k + 1022)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{FpEnv, MathLib};
    use crate::ulp::ulp_diff;

    fn vendor_env() -> FpEnv {
        FpEnv::strict().with_mathlib(MathLib::Vendor)
    }

    #[test]
    fn vendor_exp_is_close_but_not_identical() {
        let v = vendor_env();
        let r = FpEnv::strict();
        let mut any_diff = false;
        let mut x = -20.0;
        while x < 20.0 {
            let a = exp(&r, x);
            let b = exp(&v, x);
            assert!(
                ulp_diff(a, b) <= 64,
                "exp({x}): ref={a:e} vendor={b:e} ulps={}",
                ulp_diff(a, b)
            );
            if a != b {
                any_diff = true;
            }
            x += 0.137;
        }
        assert!(
            any_diff,
            "vendor exp must differ somewhere (that is the point)"
        );
    }

    #[test]
    fn vendor_trig_is_close() {
        let v = vendor_env();
        let r = FpEnv::strict();
        let mut x = -30.0;
        while x < 30.0 {
            assert!(
                (sin(&r, x) - sin(&v, x)).abs() < 1e-12,
                "sin({x}): {} vs {}",
                sin(&r, x),
                sin(&v, x)
            );
            x += 0.261;
        }
    }

    #[test]
    fn vendor_exp_extremes() {
        assert_eq!(vendor_exp(1000.0), f64::INFINITY);
        assert_eq!(vendor_exp(-1000.0), 0.0);
        assert!(vendor_exp(f64::NAN).is_nan());
        assert_eq!(vendor_exp(0.0), 1.0);
    }

    #[test]
    fn reference_mathlib_is_std() {
        let r = FpEnv::strict();
        assert_eq!(exp(&r, 1.25), 1.25f64.exp());
        assert_eq!(sin(&r, 1.25), 1.25f64.sin());
    }

    /// The host libm canary. `MathLib::Reference` is the platform's
    /// `exp`/`sin`, so every pinned output depends on the host libm.
    /// This pins one FNV-1a digest of their bit patterns over a fixed
    /// grid; `./verify.sh --golden` runs it first and skips its byte
    /// comparison, reporting "host libm differs", when it fails.
    #[test]
    #[ignore = "host libm canary; run by ./verify.sh --golden"]
    fn reference_libm_canary() {
        let r = FpEnv::strict();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..320 {
            let x = -40.0 + f64::from(i) * 0.25 + 0.001_953_125 * f64::from(i % 7);
            for y in [exp(&r, x / 2.0), sin(&r, x)] {
                for b in y.to_bits().to_le_bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(
            digest, 0x134c_5149_787f_4891,
            "host libm differs: digest {digest:#018x}"
        );
    }
}

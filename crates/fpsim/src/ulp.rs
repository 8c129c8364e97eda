//! Ulp distances and error metrics used by comparison functions.

/// Distance in units-in-the-last-place between two finite doubles.
///
/// Returns `u64::MAX` if either input is NaN, or if the values have
/// different signs and are not both zero-ish (a sign flip is "maximally
/// far" for our purposes).
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    if a == b {
        return 0;
    }
    let ia = ordered_bits(a);
    let ib = ordered_bits(b);
    ia.abs_diff(ib)
}

/// Map a double onto a monotone integer line so that ulp distance is
/// integer distance (the standard two's-complement trick).
fn ordered_bits(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    if bits < 0 {
        i64::MIN.wrapping_add(bits.wrapping_neg())
    } else {
        bits
    }
}

/// ℓ2 norm of the element-wise difference of two vectors — the
/// `compare` metric used in the paper's MFEM study
/// (`||baseline − actual||₂`). Mismatched lengths or NaN entries yield
/// `f64::INFINITY` (a length change is a *discrete* result change, like
/// the CGAL mesh-point-count example in the paper's conclusion).
pub fn l2_diff(baseline: &[f64], actual: &[f64]) -> f64 {
    if baseline.len() != actual.len() {
        return f64::INFINITY;
    }
    let mut acc = 0.0f64;
    for (a, b) in baseline.iter().zip(actual) {
        if a.is_nan() || b.is_nan() {
            if a.is_nan() && b.is_nan() {
                continue;
            }
            return f64::INFINITY;
        }
        let d = a - b;
        acc += d * d;
    }
    acc.sqrt()
}

/// ℓ2 norm of a vector (reference-precision; used for normalizing
/// relative errors, not subject to the simulated environment).
pub fn l2_norm(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Round a value to `digits` significant decimal digits. Used to build
/// the "digit-limited" comparison functions of the paper's Laghos study
/// (Table 4: "we restrict the comparison to compare only the number of
/// digits in the digits column").
pub fn round_sig_digits(x: f64, digits: u32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let mag = x.abs().log10().floor();
    let scale = 10f64.powi(digits as i32 - 1 - mag as i32);
    (x * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_diff_basics() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(f64::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_diff(1.0, f64::NAN), u64::MAX);
        // Across zero is a large but well-defined distance.
        assert!(ulp_diff(-f64::MIN_POSITIVE, f64::MIN_POSITIVE) > 0);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
    }

    #[test]
    fn ulp_diff_is_symmetric() {
        let pairs = [(1.0, 1.5), (-2.0, -2.25), (3e100, 3.0000001e100)];
        for (a, b) in pairs {
            assert_eq!(ulp_diff(a, b), ulp_diff(b, a));
        }
    }

    #[test]
    fn l2_diff_basics() {
        assert_eq!(l2_diff(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(l2_diff(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2_diff(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(l2_diff(&[f64::NAN], &[1.0]), f64::INFINITY);
        assert_eq!(l2_diff(&[f64::NAN], &[f64::NAN]), 0.0);
    }

    #[test]
    fn round_sig_digits_works() {
        assert_eq!(round_sig_digits(123_456.789, 2), 120_000.0);
        assert_eq!(round_sig_digits(123_456.789, 5), 123_460.0);
        assert_eq!(round_sig_digits(-0.001_234, 2), -0.0012);
        assert_eq!(round_sig_digits(0.0, 3), 0.0);
        assert!(round_sig_digits(f64::INFINITY, 3).is_infinite());
        // Values that agree to d digits round to the same number.
        let a = 129_664.9;
        let b = 129_664.3;
        assert_eq!(round_sig_digits(a, 4), round_sig_digits(b, 4));
        assert_ne!(round_sig_digits(a, 7), round_sig_digits(b, 7));
    }

    #[test]
    fn l2_norm_is_pythagorean() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(l2_norm(&[]), 0.0);
    }
}

//! Comparison metrics beyond the default ℓ2 difference.

use flit_fpsim::ulp::{l2_diff, round_sig_digits};

/// ℓ2 comparison over raw state vectors (the File/Symbol Bisect Test
/// functions compare engine outputs directly).
pub fn l2_compare(baseline: &[f64], other: &[f64]) -> f64 {
    l2_diff(baseline, other)
}

/// A digit-limited comparison: values are rounded to `digits`
/// significant decimal digits before differencing. This is the Laghos
/// study's knob (Table 4: "we restrict the comparison to compare only
/// the number of digits in the digits column") — with few digits only
/// the *large* divergence registers, shrinking the found set and the
/// search cost.
pub fn digit_limited_compare(digits: u32) -> impl Fn(&[f64], &[f64]) -> f64 {
    move |baseline: &[f64], other: &[f64]| {
        if baseline.len() != other.len() {
            return f64::INFINITY;
        }
        let a: Vec<f64> = baseline
            .iter()
            .map(|&x| round_sig_digits(x, digits))
            .collect();
        let b: Vec<f64> = other.iter().map(|&x| round_sig_digits(x, digits)).collect();
        l2_diff(&a, &b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_limited_ignores_small_differences() {
        let base = vec![129_664.9, 42.0];
        let close = vec![129_664.3, 42.0]; // differs in the 7th digit
        let far = vec![144_174.9, 42.0]; // differs in the 2nd digit
        let d2 = digit_limited_compare(2);
        let d7 = digit_limited_compare(7);
        assert_eq!(d2(&base, &close), 0.0);
        assert!(d2(&base, &far) > 0.0);
        assert!(d7(&base, &close) > 0.0);
    }

    #[test]
    fn digit_limited_handles_nan_and_length() {
        let d = digit_limited_compare(3);
        assert_eq!(d(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(d(&[f64::NAN], &[1.0]), f64::INFINITY);
        assert_eq!(d(&[f64::NAN], &[f64::NAN]), 0.0);
    }
}

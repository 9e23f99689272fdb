//! Descriptive statistics used by the benchmark harness.
//!
//! The paper reports per-benchmark results normalised to the Ideal scheme and
//! averages them across the 14 SPEC2006 workloads with the geometric mean.

/// Geometric mean of a slice of positive values. Returns `None` for an empty
/// slice.
///
/// # Panics
///
/// Panics if any element is not strictly positive.
///
/// ```
/// use readduo_math::geometric_mean;
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let ln_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geometric mean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    Some((ln_sum / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        let g = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }
}

//! The power-law resistance drift model (Equations 1 and 2).
//!
//! `X(t) = X₀ · (t/t₀)^α`, or in the log₁₀ domain the whole crate works in:
//!
//! ```text
//! log10 X(t) = log10 X₀ + α · log10(t / t₀)
//! ```
//!
//! Drift is monotone: for `t >= t₀` and `α >= 0` the metric only grows, so a
//! cell that has crossed a sensing reference stays crossed — the reliability
//! analysis leans on this monotonicity when composing scrub intervals.

/// `log10` of the metric at elapsed time `t` seconds after the write, given
/// the programmed `log10 X₀` and drift coefficient `alpha`.
///
/// Times earlier than `t0` are clamped to `t0` (the initial distribution is
/// *defined* at `t0`; the microseconds between write completion and `t0` are
/// below the model's resolution).
///
/// # Panics
///
/// Panics if `t0` is not positive.
///
/// ```
/// use readduo_pcm::log_metric_at;
/// // After 100 s with alpha = 0.1 a cell at log10 X = 4 reaches 4.2.
/// let x = log_metric_at(4.0, 0.1, 100.0, 1.0);
/// assert!((x - 4.2).abs() < 1e-12);
/// ```
pub fn log_metric_at(log_x0: f64, alpha: f64, t: f64, t0: f64) -> f64 {
    assert!(t0 > 0.0, "t0 must be positive, got {t0}");
    let u = (t.max(t0) / t0).log10();
    log_x0 + alpha * u
}

/// The drift exponent `u = log10(t/t0)` used throughout the reliability
/// engine (clamped to 0 for `t < t0`).
pub fn drift_exponent(t: f64, t0: f64) -> f64 {
    assert!(t0 > 0.0, "t0 must be positive, got {t0}");
    (t.max(t0) / t0).log10()
}

/// [`log_metric_at`] with the drift exponent `u = log10(t.max(t0)/t0)`
/// already in hand.
///
/// Every cell of a line shares one elapsed time, so callers hoist the
/// `log10` out of the per-cell loop via [`drift_exponent`] and pay it once
/// per line instead of once per cell. The result is bit-identical:
/// `log_metric_at` computes exactly `log_x0 + alpha * u` from the same
/// `u`.
#[inline]
pub fn log_metric_at_u(log_x0: f64, alpha: f64, u: f64) -> f64 {
    log_x0 + alpha * u
}

/// Batched [`log_metric_at_u`]: drifts a whole line's cells in one
/// slice-in/slice-out pass.
///
/// The loop body is a bare multiply-add over parallel slices — no
/// branches, no `Option`s — so the compiler autovectorises it. Each
/// element is bit-identical to the scalar call (`mul_add` fusion is never
/// emitted for `a + b * c` on its own; the expression rounds twice in
/// both forms).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn log_metric_at_slice(log_x0s: &[f64], alphas: &[f64], u: f64, out: &mut [f64]) {
    assert_eq!(log_x0s.len(), alphas.len(), "slice length mismatch");
    assert_eq!(log_x0s.len(), out.len(), "slice length mismatch");
    for ((o, &x0), &a) in out.iter_mut().zip(log_x0s).zip(alphas) {
        *o = x0 + a * u;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_drift_at_t0() {
        assert_eq!(log_metric_at(5.0, 0.06, 1.0, 1.0), 5.0);
    }

    #[test]
    fn clamps_before_t0() {
        assert_eq!(log_metric_at(5.0, 0.06, 0.001, 1.0), 5.0);
        assert_eq!(drift_exponent(0.5, 1.0), 0.0);
    }

    #[test]
    fn drift_is_monotone_in_time() {
        let mut prev = f64::NEG_INFINITY;
        for exp in 0..12 {
            let t = 10f64.powi(exp);
            let x = log_metric_at(4.0, 0.02, t, 1.0);
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    fn paper_scale_example() {
        // A level-1 cell (mu=4, mu_alpha=0.02) drifts 0.02 decades per time
        // decade; to cover the 3σ - 2.746σ = 0.254σ = 0.0423 guard band it
        // needs ~2.1 decades, i.e. ~128 s — which is why R-sensing needs
        // S = 8 s scrubbing once the distribution tails are accounted for.
        let guard = 0.254 / 6.0;
        let top = 4.0 + 2.746 / 6.0;
        assert!(log_metric_at(top, 0.02, 50.0, 1.0) < top + guard);
        assert!(log_metric_at(top, 0.02, 300.0, 1.0) > top + guard);
    }

    #[test]
    #[should_panic(expected = "t0 must be positive")]
    fn rejects_bad_t0() {
        let _ = log_metric_at(3.0, 0.1, 10.0, 0.0);
    }
}

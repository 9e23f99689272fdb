//! Binomial tail probabilities and sampling.
//!
//! Two distinct consumers:
//!
//! * the **analytic reliability engine** needs `P(X >= k)` for `X ~
//!   Binomial(512, p)` with `p` as small as 1e-20, evaluated in log space
//!   ([`tail_ge`], [`ln_tail_ge`]);
//! * the **Monte-Carlo simulator** needs to *draw* the number of drifted
//!   cells in a line on every read — millions of times per run — which
//!   [`BinomialSampler`] serves via inversion for small means and a
//!   normal-approximation w/ correction for large ones.

use crate::logspace::{ln_choose, log_sum_exp};

/// `ln P(X >= k)` for `X ~ Binomial(n, p)`.
///
/// Exact term-wise summation in log space; cost `O(n - k)` but the sum is
/// truncated once terms stop contributing, so in practice it is `O(30)` for
/// the tiny `p` regime the reliability tables live in.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// ```
/// use readduo_math::binomial::ln_tail_ge;
/// // P(X >= 1) = 1 - (1-p)^n
/// let n = 512u64;
/// let p = 1e-6f64;
/// let exact = -( (1.0 - p).powi(n as i32) ) + 1.0;
/// assert!(((ln_tail_ge(n, p, 1).exp() - exact) / exact).abs() < 1e-9);
/// ```
pub fn ln_tail_ge(n: u64, p: f64, k: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if k == 0 {
        return 0.0; // probability 1
    }
    if k > n || p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return 0.0;
    }
    let ln_p = p.ln();
    let ln_q = (-p).ln_1p();
    // When k is above the mean, sum upward from k (terms decay); otherwise
    // compute the complement by summing the lower tail.
    let mean = n as f64 * p;
    if (k as f64) > mean {
        let mut terms = Vec::with_capacity(64);
        let mut best = f64::NEG_INFINITY;
        for j in k..=n {
            let t = ln_choose(n, j) + j as f64 * ln_p + (n - j) as f64 * ln_q;
            best = best.max(t);
            terms.push(t);
            // Terms are unimodal; once we are far past the peak and 60+ nats
            // below the best term, further terms cannot move the sum.
            if t < best - 60.0 && j > k + 4 {
                break;
            }
        }
        log_sum_exp(&terms)
    } else {
        // Lower tail P(X <= k-1), then complement.
        let mut terms = Vec::with_capacity(k as usize);
        for j in 0..k {
            terms.push(ln_choose(n, j) + j as f64 * ln_p + (n - j) as f64 * ln_q);
        }
        let ln_lower = log_sum_exp(&terms).min(0.0);
        crate::logspace::log1mexp(ln_lower)
    }
}

/// Linear-space `P(X >= k)`; underflows to 0 below ~1e-308 (use
/// [`ln_tail_ge`] for the true value).
pub fn tail_ge(n: u64, p: f64, k: u64) -> f64 {
    ln_tail_ge(n, p, k).exp()
}

/// `ln P(X = k)` for `X ~ Binomial(n, p)`.
pub fn ln_pmf(n: u64, p: f64, k: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if k > n {
        return f64::NEG_INFINITY;
    }
    if p == 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    if p == 1.0 {
        return if k == n { 0.0 } else { f64::NEG_INFINITY };
    }
    ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p()
}

/// Fast sampler for `Binomial(n, p)` with fixed `n`, varying `p`.
///
/// The simulator draws the drift-error count of a 256-cell line at every
/// read; `p` depends on the line's age so it changes per call. Strategy:
///
/// * `n·p < 30`: inversion by sequential PMF accumulation (expected `O(np)`),
/// * otherwise: normal approximation with continuity correction, clamped to
///   `[0, n]` — fine because the schemes only care about coarse error-count
///   bands (0, ≤8, 9–17, >17) once counts are that large.
///
/// ```
/// use readduo_math::BinomialSampler;
/// use readduo_rng::{rngs::StdRng, SeedableRng};
/// let sampler = BinomialSampler::new(256);
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = sampler.sample(&mut rng, 0.01);
/// assert!(x <= 256);
/// ```
#[derive(Debug, Clone)]
pub struct BinomialSampler {
    n: u64,
    // Precomputed pmf-ratio factors (n-k)/(k+1) for the inversion loop:
    // the same quotients the loop would divide out per iteration, so the
    // sequence of pmf values — and thus every sample — is bit-identical.
    // Shared, because the sampler is cloned per (scheme, workload) device.
    step: std::sync::Arc<[f64]>,
}

impl BinomialSampler {
    /// Creates a sampler for a fixed number of trials.
    pub fn new(n: u64) -> Self {
        let step: Vec<f64> = (0..n).map(|k| (n - k) as f64 / (k + 1) as f64).collect();
        Self { n, step: step.into() }
    }

    /// Draws one sample with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn sample<R: readduo_rng::Rng + ?Sized>(&self, rng: &mut R, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        if p == 0.0 {
            return 0;
        }
        if p == 1.0 {
            return self.n;
        }
        let mean = self.n as f64 * p;
        if mean < 30.0 {
            self.sample_inversion(rng, p)
        } else {
            self.sample_normal(rng, p)
        }
    }

    fn sample_inversion<R: readduo_rng::Rng + ?Sized>(&self, rng: &mut R, p: f64) -> u64 {
        // Sequential search from k=0: pmf(0) = q^n, pmf ratio
        // pmf(k+1)/pmf(k) = (n-k)/(k+1) * p/q.
        //
        let q = 1.0 - p;
        if p >= 0.5 {
            // q^n can underflow here (tiny q with a small n keeps the mean
            // under 30); keep the original order — powf, underflow check,
            // then the uniform — so the normal-approximation fallback's
            // RNG consumption is exactly what it always was.
            let pmf = q.powf(self.n as f64);
            if pmf == 0.0 {
                return self.sample_normal(rng, p);
            }
            let u: f64 = rng.gen();
            return self.search(u, pmf, p, q);
        }
        // p < 0.5 with n·p < 30: the single uniform can be drawn first
        // (powf consumes no randomness — the reorder cannot perturb the
        // stream); the rest of the draw is shared with the caller-supplied
        // uniform entry point below.
        let u: f64 = rng.gen();
        self.sample_with_uniform(u, p)
    }

    /// Completes an inversion draw whose single uniform `u` the caller has
    /// already taken from the stream.
    ///
    /// This is the tail of [`sample`] for the regime `0 < p < 0.5` with
    /// `n·p < 30`: given the same `u` that `sample` would have drawn, it
    /// returns the identical value, so callers may pull the uniform early
    /// — e.g. to test it against a precomputed acceptance bound that
    /// proves the draw is 0 before `p` itself is even computed. In that
    /// regime `q^n ≥ e^{-2n·p} > e^{-60}` never underflows, and the
    /// Bernoulli bound `q^n ≥ 1 - n·p` means `u ≤ 1 - n·p` already proves
    /// `u ≤ pmf(0) = cdf(0)`: the search stops at `k = 0` without
    /// evaluating the powf. Young lines have `n·p ≪ 1`, so the
    /// overwhelmingly common zero-error draw skips the transcendental
    /// entirely; the exit is exact, not approximate.
    ///
    /// Callers must guarantee the preconditions (debug-asserted): outside
    /// them `sample` dispatches differently (no draw at `p = 0`, normal
    /// approximation at large means, underflow fallback at `p ≥ 0.5`) and
    /// equivalence breaks.
    ///
    /// [`sample`]: BinomialSampler::sample
    pub fn sample_with_uniform(&self, u: f64, p: f64) -> u64 {
        debug_assert!(
            p > 0.0 && p < 0.5 && self.n as f64 * p < 30.0,
            "sample_with_uniform precondition violated: n={} p={p}",
            self.n
        );
        if u <= 1.0 - self.n as f64 * p {
            return 0;
        }
        let q = 1.0 - p;
        let pmf = q.powf(self.n as f64);
        self.search(u, pmf, p, q)
    }

    /// The sequential CDF search of the inversion sampler, shared by both
    /// draw orders above.
    fn search(&self, u: f64, mut pmf: f64, p: f64, q: f64) -> u64 {
        let mut cdf = pmf;
        let ratio = p / q;
        let mut k = 0u64;
        while u > cdf && k < self.n {
            pmf *= self.step[k as usize] * ratio;
            k += 1;
            cdf += pmf;
            // Guard against floating-point stagnation in the extreme tail.
            if pmf < 1e-300 {
                break;
            }
        }
        k
    }

    fn sample_normal<R: readduo_rng::Rng + ?Sized>(&self, rng: &mut R, p: f64) -> u64 {
        let mean = self.n as f64 * p;
        let sd = (mean * (1.0 - p)).sqrt();
        let z = crate::normal::Normal::standard().sample(rng);
        let x = (mean + sd * z + 0.5).floor();
        x.clamp(0.0, self.n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, SeedableRng};

    #[test]
    fn tail_matches_direct_summation_moderate() {
        let n = 20u64;
        let p = 0.3;
        for k in 0..=20u64 {
            let direct: f64 = (k..=n).map(|j| ln_pmf(n, p, j).exp()).sum();
            let fast = tail_ge(n, p, k);
            assert!(
                (direct - fast).abs() < 1e-12,
                "k={k}: direct={direct} fast={fast}"
            );
        }
    }

    #[test]
    fn tail_edge_cases() {
        assert_eq!(tail_ge(10, 0.5, 0), 1.0);
        assert_eq!(tail_ge(10, 0.0, 1), 0.0);
        assert_eq!(tail_ge(10, 1.0, 10), 1.0);
        assert_eq!(tail_ge(10, 0.3, 11), 0.0);
    }

    #[test]
    fn tail_tiny_p_log_space() {
        // P(X >= 9) with n=512, p=1e-6: dominated by the first term
        // C(512,9) p^9 ≈ 10^{18.8} * 10^{-54} = 10^{-35.2}
        let lt = ln_tail_ge(512, 1e-6, 9);
        let log10 = lt / std::f64::consts::LN_10;
        assert!(log10 < -34.0 && log10 > -37.0, "log10={log10}");
    }

    #[test]
    fn tail_monotone_in_k_and_p() {
        let n = 512;
        let mut prev = f64::INFINITY;
        for k in 1..20 {
            let v = ln_tail_ge(n, 1e-4, k);
            assert!(v <= prev + 1e-12, "tail must fall with k");
            prev = v;
        }
        let mut prevp = f64::NEG_INFINITY;
        for &p in &[1e-8, 1e-6, 1e-4, 1e-2] {
            let v = ln_tail_ge(n, p, 5);
            assert!(v >= prevp, "tail must rise with p");
            prevp = v;
        }
    }

    #[test]
    fn lower_branch_matches_upper_branch() {
        // k below the mean exercises the complement path; verify against
        // direct summation.
        let n = 64u64;
        let p = 0.4;
        let k = 10u64; // mean = 25.6, so k < mean
        let direct: f64 = (k..=n).map(|j| ln_pmf(n, p, j).exp()).sum();
        let fast = tail_ge(n, p, k);
        // The complement path loses a few digits through log1mexp; 1e-9
        // absolute is ample for the reliability tables.
        assert!((direct - fast).abs() < 1e-9, "direct={direct} fast={fast}");
    }

    #[test]
    fn pmf_sums_to_one() {
        let n = 30;
        let p = 0.123;
        let total: f64 = (0..=n).map(|k| ln_pmf(n, p, k).exp()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_mean_and_variance_small_p() {
        let s = BinomialSampler::new(256);
        let mut rng = StdRng::seed_from_u64(99);
        let p = 0.02;
        let trials = 40_000;
        let mut sum = 0u64;
        let mut sum2 = 0u64;
        for _ in 0..trials {
            let x = s.sample(&mut rng, p);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum as f64 / trials as f64;
        let var = sum2 as f64 / trials as f64 - mean * mean;
        let want_mean = 256.0 * p;
        let want_var = 256.0 * p * (1.0 - p);
        assert!((mean - want_mean).abs() < 0.06, "mean={mean} want={want_mean}");
        assert!((var - want_var).abs() < 0.3, "var={var} want={want_var}");
    }

    #[test]
    fn sampler_large_mean_uses_normal_path_sanely() {
        let s = BinomialSampler::new(512);
        let mut rng = StdRng::seed_from_u64(3);
        let p = 0.5;
        let trials = 20_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let x = s.sample(&mut rng, p);
            assert!(x <= 512);
            sum += x;
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 256.0).abs() < 1.5, "mean={mean}");
    }

    #[test]
    fn sampler_zero_and_one() {
        let s = BinomialSampler::new(100);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(s.sample(&mut rng, 0.0), 0);
        assert_eq!(s.sample(&mut rng, 1.0), 100);
    }
}

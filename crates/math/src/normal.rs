//! Normal and truncated-normal distributions with stable tails.
//!
//! The PCM drift model places a cell's initial log-resistance on a normal
//! distribution *truncated* to the programmed range (±2.746σ around the level
//! mean per Table I of the paper), and the drift coefficient α on an ordinary
//! normal. Reliability analysis then needs survival functions far into the
//! tail, so both distributions expose `sf` and `ln_sf` built on
//! [`crate::erf::ln_erfc`].

use crate::erf::{erf, erfc, inverse_erf, ln_erfc};

const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// A normal distribution `N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not finite and strictly positive.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let n = Normal::new(4.0, 0.02);
    /// assert_eq!(n.mean(), 4.0);
    /// ```
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0 && mu.is_finite(),
            "normal parameters must be finite with sigma > 0 (mu={mu}, sigma={sigma})"
        );
        Self { mu, sigma }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self { mu: 0.0, sigma: 1.0 }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        self.sigma
    }

    /// Standardises `x` to a z-score.
    pub fn z(&self, x: f64) -> f64 {
        (x - self.mu) / self.sigma
    }

    /// Probability density at `x`.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let n = Normal::standard();
    /// assert!((n.pdf(0.0) - 0.3989422804014327).abs() < 1e-15);
    /// ```
    pub fn pdf(&self, x: f64) -> f64 {
        let z = self.z(x);
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Natural log of the density at `x`; stable far into the tails.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        let z = self.z(x);
        -0.5 * z * z - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Cumulative distribution function `P(X <= x)`.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let n = Normal::standard();
    /// assert!((n.cdf(0.0) - 0.5).abs() < 1e-15);
    /// assert!((n.cdf(1.96) - 0.9750021048517795).abs() < 1e-12);
    /// ```
    pub fn cdf(&self, x: f64) -> f64 {
        let z = self.z(x);
        0.5 * erfc(-z / SQRT_2)
    }

    /// Survival function `P(X > x)`, stable in the right tail.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let p = Normal::standard().sf(8.0);
    /// assert!(p > 6.0e-16 && p < 7.0e-16);
    /// ```
    pub fn sf(&self, x: f64) -> f64 {
        let z = self.z(x);
        0.5 * erfc(z / SQRT_2)
    }

    /// `ln P(X > x)`; usable even when `sf` underflows (e.g. 50σ tails).
    pub fn ln_sf(&self, x: f64) -> f64 {
        let z = self.z(x);
        ln_erfc(z / SQRT_2) - std::f64::consts::LN_2
    }

    /// `ln P(X <= x)`; stable in the *left* tail.
    pub fn ln_cdf(&self, x: f64) -> f64 {
        let z = self.z(x);
        ln_erfc(-z / SQRT_2) - std::f64::consts::LN_2
    }

    /// Quantile (inverse CDF): the `x` with `cdf(x) == p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let n = Normal::new(10.0, 2.0);
    /// let q = n.quantile(0.975);
    /// assert!((q - (10.0 + 2.0 * 1.959963984540054)).abs() < 1e-8);
    /// ```
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        self.mu + self.sigma * SQRT_2 * inverse_erf(2.0 * p - 1.0)
    }

    /// Draws one sample using the polar Box–Muller transform.
    pub fn sample<R: readduo_rng::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Polar method: rejection-free of trig, numerically benign.
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mu + self.sigma * u * factor;
            }
        }
    }
}

/// A normal distribution truncated to `[lo, hi]`.
///
/// Used for the programmed initial resistance of a PCM cell: the iterative
/// program-and-verify write loop guarantees the cell lands inside the target
/// window, producing a truncated normal rather than a full normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    base: Normal,
    lo: f64,
    hi: f64,
    /// `cdf(lo)` of the base distribution.
    cdf_lo: f64,
    /// Total mass inside the window, `cdf(hi) - cdf(lo)`.
    mass: f64,
}

impl TruncatedNormal {
    /// Truncates `base` to the window `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or the window carries no probability mass.
    ///
    /// ```
    /// use readduo_math::{Normal, TruncatedNormal};
    /// let t = TruncatedNormal::new(Normal::standard(), -2.0, 2.0);
    /// assert!((t.cdf(2.0) - 1.0).abs() < 1e-12);
    /// assert!(t.cdf(-2.0).abs() < 1e-12);
    /// ```
    pub fn new(base: Normal, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "truncation window must satisfy lo < hi ({lo} >= {hi})");
        let cdf_lo = base.cdf(lo);
        let mass = base.cdf(hi) - cdf_lo;
        assert!(
            mass > 0.0,
            "truncation window [{lo}, {hi}] carries no probability mass"
        );
        Self { base, lo, hi, cdf_lo, mass }
    }

    /// Symmetric truncation to `mu ± width_sigmas·sigma`.
    ///
    /// The paper's programmed range is `mu ± 2.746 sigma`.
    pub fn symmetric(base: Normal, width_sigmas: f64) -> Self {
        let w = width_sigmas * base.std_dev();
        Self::new(base, base.mean() - w, base.mean() + w)
    }

    /// The untruncated base distribution.
    pub fn base(&self) -> Normal {
        self.base
    }

    /// Lower truncation bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Density at `x` (zero outside the window).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            self.base.pdf(x) / self.mass
        }
    }

    /// CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (self.base.cdf(x) - self.cdf_lo) / self.mass
        }
    }

    /// Survival `P(X > x)`.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= self.lo {
            1.0
        } else if x >= self.hi {
            0.0
        } else {
            // Work from the right edge for stability in the right tail.
            (self.base.sf(x) - self.base.sf(self.hi)) / self.mass
        }
    }

    /// Quantile of the truncated distribution.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1], got {p}");
        if p == 0.0 {
            return self.lo;
        }
        if p == 1.0 {
            return self.hi;
        }
        let target = self.cdf_lo + p * self.mass;
        self.base.quantile(target.clamp(1e-300, 1.0 - 1e-16))
    }

    /// Draws one sample by inverse-transform on the truncated CDF:
    /// [`at_uniform`](Self::at_uniform) of one [`draw_uniform`](Self::draw_uniform).
    ///
    /// Exact (no rejection), so narrow windows cost no more than wide ones,
    /// but every draw pays [`quantile`](Self::quantile)'s `inverse_erf`:
    /// eight Newton steps of an `erf` and an `exp` each. Callers that only
    /// need to know which side of a threshold the sample falls on can
    /// compare the uniform with [`cdf`](Self::cdf) of the threshold instead.
    pub fn sample<R: readduo_rng::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.at_uniform(Self::draw_uniform(rng))
    }

    /// The uniform deviate one [`sample`](Self::sample) consumes, in
    /// `[f64::MIN_POSITIVE, 1)`.
    pub fn draw_uniform<R: readduo_rng::Rng + ?Sized>(rng: &mut R) -> f64 {
        rng.gen_range(f64::MIN_POSITIVE..1.0)
    }

    /// The sample the uniform deviate `u` maps to: its quantile, clamped
    /// into the window.
    pub fn at_uniform(&self, u: f64) -> f64 {
        self.quantile(u).clamp(self.lo, self.hi)
    }
}

/// Standard-normal CDF convenience, `Φ(z)`.
pub fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, SeedableRng};

    #[test]
    fn cdf_sf_sum_to_one() {
        let n = Normal::new(3.0, 0.5);
        for x in [1.0, 2.5, 3.0, 3.7, 5.0] {
            assert!((n.cdf(x) + n.sf(x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn sf_matches_reference() {
        // P(Z > 3) = 1.349898031630094e-3
        let n = Normal::standard();
        let want = 1.349898031630094e-3;
        assert!(((n.sf(3.0) - want) / want).abs() < 1e-11);
        // P(Z > 10) = 7.61985302416e-24
        let want10 = 7.619853024160526e-24;
        assert!(((n.sf(10.0) - want10) / want10).abs() < 1e-9);
    }

    #[test]
    fn ln_sf_matches_sf_where_representable() {
        let n = Normal::new(-2.0, 3.0);
        for x in [0.0, 5.0, 20.0, 40.0] {
            let a = n.ln_sf(x);
            let b = n.sf(x).ln();
            assert!((a - b).abs() < 1e-8, "x={x}: {a} vs {b}");
        }
    }

    #[test]
    fn ln_sf_extreme_tail_finite() {
        let n = Normal::standard();
        let v = n.ln_sf(60.0);
        assert!(v.is_finite());
        // ln P(Z>60) ≈ -z²/2 - ln(z√(2π)) ≈ -1800 - 5.0
        assert!(v < -1800.0 && v > -1812.0, "ln_sf(60) = {v}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let n = Normal::new(7.0, 1.3);
        for p in [1e-8, 0.01, 0.3, 0.5, 0.77, 0.999] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn truncated_mass_renormalises() {
        let t = TruncatedNormal::symmetric(Normal::new(0.0, 1.0), 1.0);
        // Within ±1σ the base holds ~68.27%; truncation rescales to 1.
        assert!((t.cdf(1.0) - 1.0).abs() < 1e-12);
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn truncated_sf_right_edge_is_exact_zero() {
        let t = TruncatedNormal::symmetric(Normal::new(4.0, 0.02), 2.746);
        assert_eq!(t.sf(t.hi()), 0.0);
        assert_eq!(t.sf(t.lo()), 1.0);
        assert!(t.sf(4.0) > 0.49 && t.sf(4.0) < 0.51);
    }

    #[test]
    fn truncated_quantile_round_trip() {
        let t = TruncatedNormal::symmetric(Normal::new(4.0, 0.02), 2.746);
        for p in [0.001, 0.25, 0.5, 0.75, 0.999] {
            let x = t.quantile(p);
            assert!((t.cdf(x) - p).abs() < 1e-8, "p={p}");
        }
    }

    #[test]
    fn samples_stay_inside_window_and_match_moments() {
        let base = Normal::new(5.0, 0.06);
        let t = TruncatedNormal::symmetric(base, 2.746);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = t.sample(&mut rng);
            assert!(x >= t.lo() && x <= t.hi());
            sum += x;
        }
        let mean = sum / n as f64;
        // Symmetric truncation keeps the mean at mu.
        assert!((mean - 5.0).abs() < 5e-4, "mean={mean}");
    }

    #[test]
    fn normal_sampling_matches_moments() {
        let n = Normal::new(-1.0, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let cnt = 50_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..cnt {
            let x = n.sample(&mut rng);
            s += x;
            s2 += x * x;
        }
        let mean = s / cnt as f64;
        let var = s2 / cnt as f64 - mean * mean;
        assert!((mean + 1.0).abs() < 0.03, "mean={mean}");
        assert!((var - 4.0).abs() < 0.12, "var={var}");
    }

    #[test]
    #[should_panic(expected = "sigma > 0")]
    fn rejects_nonpositive_sigma() {
        let _ = Normal::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn rejects_empty_window() {
        let _ = TruncatedNormal::new(Normal::standard(), 1.0, 1.0);
    }
}

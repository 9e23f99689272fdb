//! Zipf-distributed rank sampling.
//!
//! Memory reuse in SPEC workloads is heavy-tailed: a small hot set absorbs
//! most accesses. We model it with a Zipf(s) distribution over line ranks,
//! sampled by *rejection inversion* (W. Hörmann & G. Derflinger, "Rejection-
//! inversion to generate variates from monotone discrete distributions") —
//! O(1) per sample with no O(N) table, which matters for million-line
//! footprints.

/// Width in `x` the squeeze gives up below Hörmann & Derflinger's
/// constant, so that rounding in `x` and in the constant itself cannot
/// turn a squeeze accept into an exact-test reject.
const SQUEEZE_MARGIN: f64 = 1e-6;

/// Rounding allowance, in ulps per unit of condition number, of the
/// `ln`/`exp`/`exp_m1`/`ln_1p` chains in [`Zipf::h_integral`],
/// [`Zipf::h_integral_inverse`] and [`Zipf::h`]. A first-order analysis
/// gives 3–5; the cutoff is computed with 16.
const ROUNDING_ULPS: f64 = 16.0;

/// Zipf distribution over ranks `1..=n` with exponent `s > 0`, `s != 1`
/// handled uniformly via the generalised harmonic integral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants of the rejection-inversion scheme.
    h_x1: f64,
    h_n: f64,
    /// Squeeze constant: the reference `2 − H⁻¹(H(2.5) − h(2))` less
    /// [`SQUEEZE_MARGIN`].
    s_squeeze: f64,
    /// Largest rank the squeeze may decide (1: none). Above it the exact
    /// test's own rounding can exceed what the margin buys.
    squeeze_max: u64,
}

impl Zipf {
    /// Creates a Zipf(`s`) distribution over `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    ///
    /// ```
    /// use readduo_trace::Zipf;
    /// use readduo_rng::{rngs::StdRng, SeedableRng};
    /// let z = Zipf::new(1000, 0.9);
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let r = z.sample(&mut rng);
    /// assert!((1..=1000).contains(&r));
    /// ```
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(s > 0.0 && s.is_finite(), "Zipf exponent must be positive, got {s}");
        let mut z = Self { n, s, h_x1: 0.0, h_n: 0.0, s_squeeze: 0.0, squeeze_max: 1 };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(n as f64 + 0.5);
        // Hörmann & Derflinger's Theorem 2: f(k) = k − H⁻¹(H(k + ½) − h(k))
        // is non-decreasing, so for every rank k ≥ 2, k − x ≤ f(2) implies
        // that the exact test accepts k.
        z.s_squeeze = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0)) - SQUEEZE_MARGIN;
        z.squeeze_max = z.squeeze_max_rank();
        z
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// `h(x) = x^{-s}`, the density rejection inversion dominates.
    fn h(&self, x: f64) -> f64 {
        (-x.ln() * self.s).exp()
    }

    /// `H(x) = ∫ x^{-s} dx`, the antiderivative used by rejection inversion.
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        helper2((1.0 - self.s) * log_x) * log_x
    }

    /// Inverse of `h_integral`.
    fn h_integral_inverse(&self, x: f64) -> f64 {
        let mut t = x * (1.0 - self.s);
        if t < -1.0 {
            t = -1.0;
        }
        (helper1(t) * x).exp()
    }

    /// Draws one rank in `1..=n`.
    pub fn sample<R: readduo_rng::Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let (k, squeezed) = self.candidate(u);
            if squeezed || u >= self.h_integral(k as f64 + 0.5) - self.h(k as f64) {
                return k;
            }
        }
    }

    /// The rank `u` inverts to, and whether it is accepted without the
    /// exact test `u ≥ H(k + ½) − h(k)`. Every accept here is one the exact
    /// test would also make, so ranks and RNG draws are those of the
    /// always-exact loop.
    fn candidate(&self, u: f64) -> (u64, bool) {
        let x = self.h_integral_inverse(u);
        let k = (x.clamp(1.0, self.n as f64) + 0.5).floor().clamp(1.0, self.n as f64) as u64;
        let squeezed = if k == 1 {
            // ln 1 = 0 and exp(−0) = 1, so the exact bound at rank 1 is
            // `h_x1`, bit for bit.
            u >= self.h_x1
        } else {
            k <= self.squeeze_max && k as f64 - x <= self.s_squeeze
        };
        (k, squeezed)
    }

    /// Whether [`SQUEEZE_MARGIN`] covers the rounding of both tests at
    /// rank `k`. A candidate that clears the squeeze at a computed `x̂`
    /// lies at least `(margin − |x̂ − x|)·h(k)` above the exact bound in
    /// `u`; that must exceed the rounding of the computed bound.
    fn squeeze_covers_rounding(&self, k: f64) -> bool {
        let ulps = ROUNDING_ULPS * f64::EPSILON;
        // |x̂ − x| for x < k + 1: exp turns the error of ln x into a
        // relative one, and 1 + (1 − s)·u cancels when s > 1.
        let x = k + 1.0;
        let ln_x = x.ln();
        let err_x = ulps * x * (1.0 + ln_x + helper2((self.s - 1.0) * ln_x) * ln_x);
        // |T̂ − T| for T = H(k + ½) − h(k): exp_m1 amplifies by
        // |(1 − s)·ln y|, exp by s·ln k.
        let y = k + 0.5;
        let ln_y = y.ln();
        let err_t = ulps
            * (self.h_integral(y).abs() * (1.0 + ((1.0 - self.s) * ln_y).abs())
                + self.h(k) * (1.0 + self.s * k.ln()));
        (SQUEEZE_MARGIN - err_x) * self.h(k) > err_t
    }

    /// The last rank at which the squeeze covers rounding. The cover only
    /// shrinks as `k` grows, so a bisection over `2..=n` finds it.
    fn squeeze_max_rank(&self) -> u64 {
        // Invariant: the squeeze covers `lo` (or `lo` is the sentinel 1)
        // and does not cover `hi` (or `hi` is past `n`).
        let (mut lo, mut hi) = (1, self.n.saturating_add(1));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.squeeze_covers_rounding(mid as f64) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Exact probability of rank `k` (for tests), `k^{-s} / H_n`.
    pub fn pmf(&self, k: u64) -> f64 {
        assert!(k >= 1 && k <= self.n, "rank out of range");
        let norm: f64 = (1..=self.n.min(100_000))
            .map(|i| (i as f64).powf(-self.s))
            .sum();
        (k as f64).powf(-self.s) / norm
    }
}

/// `ln(1 + x) / x`, stable near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(e^x - 1) / x`, stable near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, Rng, SeedableRng};

    /// The exact test the squeeze stands in for.
    fn exact_accepts(z: &Zipf, u: f64, k: u64) -> bool {
        u >= z.h_integral(k as f64 + 0.5) - z.h(k as f64)
    }

    /// At mcf's warm parameters the squeeze, not the exact test, decides
    /// almost every candidate. A squeeze constant that can never pass
    /// decides none and fails here.
    #[test]
    fn squeeze_decides_most_candidates_at_mcf_warm() {
        let z = Zipf::new(490_000, 0.8);
        assert_eq!(z.squeeze_max, z.n, "the squeeze must cover every rank");
        let mut rng = StdRng::seed_from_u64(8);
        let draws = 100_000;
        let squeezed = (0..draws)
            .filter(|_| z.candidate(z.h_n + rng.gen::<f64>() * (z.h_x1 - z.h_n)).1)
            .count();
        let frac = squeezed as f64 / draws as f64;
        assert!(frac >= 0.95, "squeeze decided {frac:.4} of candidates");
    }

    /// Walks `u` in single ulps across the squeeze boundary `x = k − s_squeeze`
    /// at ranks from 2 (where the reference constant is tight) to the rank
    /// cutoff and past it: every squeeze accept must be an exact-test
    /// accept, at small and at extreme `(n, s)`.
    #[test]
    fn squeeze_accepts_only_what_the_exact_test_accepts() {
        for n in [10, 1_000_000, 1_000_000_000] {
            for s in [0.3, 0.8, 0.999, 1.0, 1.001, 1.5, 3.0] {
                let z = Zipf::new(n, s);
                let m = z.squeeze_max;
                let mut ranks = vec![2, 3, 10, 1000, m / 2, m, m + 1, 2 * m, n];
                ranks.retain(|&k| (2..=n).contains(&k));
                for k in ranks {
                    let u0 = z.h_integral(k as f64 - z.s_squeeze);
                    let ulp = u0.abs().max(f64::MIN_POSITIVE) * f64::EPSILON;
                    for j in -256..=256 {
                        let u = (u0 + j as f64 * ulp).clamp(z.h_x1, z.h_n);
                        let (got, squeezed) = z.candidate(u);
                        assert!(
                            !squeezed || exact_accepts(&z, u, got),
                            "n={n} s={s}: squeeze accepted rank {got} at u={u:e} (walk from rank {k})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(50, 1.1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=50).contains(&k));
        }
    }

    #[test]
    fn empirical_matches_pmf_head() {
        let n = 1000u64;
        let z = Zipf::new(n, 0.9);
        let mut rng = StdRng::seed_from_u64(4);
        let draws = 200_000;
        let mut counts = [0u64; 6];
        for _ in 0..draws {
            let k = z.sample(&mut rng);
            if k <= 5 {
                counts[k as usize] += 1;
            }
        }
        for k in 1..=5u64 {
            let got = counts[k as usize] as f64 / draws as f64;
            let want = z.pmf(k);
            assert!(
                (got - want).abs() < 0.01,
                "rank {k}: got {got:.4}, want {want:.4}"
            );
        }
    }

    #[test]
    fn rank1_dominates() {
        let z = Zipf::new(10_000, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let draws = 50_000;
        let ones = (0..draws).filter(|_| z.sample(&mut rng) == 1).count();
        let frac = ones as f64 / draws as f64;
        // With s=1, n=1e4: P(1) = 1/H_n ≈ 1/9.79 ≈ 0.102.
        assert!(frac > 0.07 && frac < 0.14, "frac = {frac}");
    }

    #[test]
    fn tiny_support_works() {
        let z = Zipf::new(1, 1.2);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_exponent_rejected() {
        let _ = Zipf::new(10, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_support_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}

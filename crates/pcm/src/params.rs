//! Metric configurations — Tables I and II of the paper.
//!
//! Both readout metrics share the same structure: for each storage level the
//! base-10 log of the metric is normally distributed with mean `mu` and
//! standard deviation `sigma`, the programmed (post-write) window is
//! `mu ± 2.746 sigma`, the state boundary is `mu ± 3 sigma` (leaving a
//! `0.254 sigma` guard band on each side), and the drift coefficient is
//! normal with mean `mu_alpha` and standard deviation `0.4·mu_alpha`.

use crate::state::CellLevel;
use readduo_math::{Normal, TruncatedNormal};

/// Bytes per memory line (64 B, i.e. 512 bits, as in the paper).
pub const LINE_BYTES: usize = 64;

/// 2-bit MLC cells per 64 B data line.
pub const CELLS_PER_LINE: usize = LINE_BYTES * 4;

/// Half-width of the programmed window, in sigmas (`±2.746σ`).
pub const PROGRAM_WIDTH_SIGMAS: f64 = 2.746;

/// Half-width of the state, in sigmas (`±3σ`); sensing references sit here.
pub const BOUNDARY_SIGMAS: f64 = 3.0;

/// Ratio `σ_α / μ_α` for the drift coefficient distribution.
pub const ALPHA_SIGMA_RATIO: f64 = 0.4;

/// Which readout metric a configuration describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Current-based sensing of resistance (fast, drift-fragile).
    R,
    /// Voltage-based sensing (slow, drift-resilient; α is ~7× smaller).
    M,
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricKind::R => write!(f, "R-metric"),
            MetricKind::M => write!(f, "M-metric"),
        }
    }
}

/// Distribution parameters for one storage level under one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelParams {
    /// Mean of `log10(metric)` at `t0`.
    pub mu: f64,
    /// Standard deviation of `log10(metric)` at `t0`.
    pub sigma: f64,
    /// Mean drift coefficient for cells programmed to this level.
    pub mu_alpha: f64,
    /// Standard deviation of the drift coefficient (`0.4·mu_alpha`).
    pub sigma_alpha: f64,
}

impl LevelParams {
    /// Builds level parameters with the paper's `σ_α = 0.4 μ_α` convention.
    pub fn new(mu: f64, sigma: f64, mu_alpha: f64) -> Self {
        Self {
            mu,
            sigma,
            mu_alpha,
            sigma_alpha: ALPHA_SIGMA_RATIO * mu_alpha,
        }
    }

    /// The initial (t = t0) distribution of `log10(metric)` — normal before
    /// truncation by program-and-verify.
    pub fn initial_distribution(&self) -> Normal {
        Normal::new(self.mu, self.sigma)
    }

    /// The programmed window: truncated to `mu ± 2.746σ`.
    pub fn programmed_distribution(&self) -> TruncatedNormal {
        TruncatedNormal::symmetric(self.initial_distribution(), PROGRAM_WIDTH_SIGMAS)
    }

    /// Distribution of the drift coefficient α.
    pub fn alpha_distribution(&self) -> Normal {
        // μ_α for level 0 is tiny but never zero in the paper's tables.
        Normal::new(self.mu_alpha, self.sigma_alpha.max(1e-12))
    }

    /// Upper state boundary `mu + 3σ` in log10 space; drifting past this
    /// misreads the cell as the next level.
    pub fn upper_boundary(&self) -> f64 {
        self.mu + BOUNDARY_SIGMAS * self.sigma
    }

    /// Lower state boundary `mu − 3σ` in log10 space.
    pub fn lower_boundary(&self) -> f64 {
        self.mu - BOUNDARY_SIGMAS * self.sigma
    }
}

/// Full four-level configuration for a readout metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricConfig {
    kind: MetricKind,
    levels: [LevelParams; 4],
    /// Reference time `t0` (seconds) at which initial distributions hold.
    t0: f64,
}

impl MetricConfig {
    /// Table I — R-metric configuration of four-level MLC at `t0 = 1 s`.
    ///
    /// | level | data | log10 R | σ_R  | μ_α   |
    /// |-------|------|---------|------|-------|
    /// | 0     | 01   | 3       | 1/6  | 0.001 |
    /// | 1     | 11   | 4       | 1/6  | 0.02  |
    /// | 2     | 10   | 5       | 1/6  | 0.06  |
    /// | 3     | 00   | 6       | 1/6  | 0.10  |
    ///
    /// (The scanned table interleaves the σ column; we follow the commonly
    /// cited values from the paper's sources \[2\], \[26\]: σ = 1/6 per level so
    /// that the four states tile `log10 R ∈ [2.5, 6.5]` with 0.254σ guard
    /// bands.)
    pub fn r_metric() -> Self {
        Self {
            kind: MetricKind::R,
            levels: [
                LevelParams::new(3.0, 1.0 / 6.0, 0.001),
                LevelParams::new(4.0, 1.0 / 6.0, 0.02),
                LevelParams::new(5.0, 1.0 / 6.0, 0.06),
                LevelParams::new(6.0, 1.0 / 6.0, 0.10),
            ],
            t0: 1.0,
        }
    }

    /// Table II — M-metric configuration at `t0 = 1 s`.
    ///
    /// Per the prose: `μ_M = μ_R − 4` (the metric is four orders of
    /// magnitude smaller), the initial spread mirrors the R-metric
    /// (`σ_M = σ_R`), and the drift coefficient is `μ_α(R)/7` (M-metric
    /// drift is 6–8× weaker; \[1\] suggests 7×).
    pub fn m_metric() -> Self {
        let r = Self::r_metric();
        let mut levels = r.levels;
        for lp in &mut levels {
            *lp = LevelParams::new(lp.mu - 4.0, lp.sigma, lp.mu_alpha / 7.0);
        }
        Self {
            kind: MetricKind::M,
            levels,
            t0: 1.0,
        }
    }

    /// Builds a custom configuration (for sensitivity studies).
    ///
    /// # Panics
    ///
    /// Panics if `t0` is not positive or level means are not strictly
    /// increasing.
    pub fn custom(kind: MetricKind, levels: [LevelParams; 4], t0: f64) -> Self {
        assert!(t0 > 0.0, "t0 must be positive, got {t0}");
        for w in levels.windows(2) {
            assert!(
                w[0].mu < w[1].mu,
                "level means must strictly increase ({} >= {})",
                w[0].mu,
                w[1].mu
            );
        }
        Self { kind, levels, t0 }
    }

    /// Which metric this configures.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Reference time `t0` in seconds.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Parameters for one level.
    pub fn level(&self, level: CellLevel) -> &LevelParams {
        &self.levels[level.index()]
    }

    /// All four level parameter sets, lowest level first.
    pub fn levels(&self) -> &[LevelParams; 4] {
        &self.levels
    }

    /// The sensing reference threshold between `level` and the next one, in
    /// log10 space.
    ///
    /// The paper places state boundaries at `μ ± 3σ`; a cell programmed to
    /// `level` whose metric drifts above this value is misread. Returns
    /// `None` for the top level (drift cannot cross out of it).
    ///
    /// ```
    /// use readduo_pcm::{CellLevel, MetricConfig};
    /// let cfg = MetricConfig::r_metric();
    /// let th = cfg.reference_above(CellLevel::L0).unwrap();
    /// assert!((th - 3.5).abs() < 1e-12); // 3 + 3/6
    /// assert!(cfg.reference_above(CellLevel::L3).is_none());
    /// ```
    pub fn reference_above(&self, level: CellLevel) -> Option<f64> {
        level.next()?;
        Some(self.level(level).upper_boundary())
    }

    /// Senses a log10 metric value into a storage level.
    ///
    /// Models the two-round reference comparison: the value is compared to
    /// Ref₂ (between L1/L2) and then Ref₁ or Ref₃. A value belongs to the
    /// lowest level whose upper reference exceeds it.
    pub fn sense_level(&self, log_value: f64) -> CellLevel {
        // Ref_i sits at the upper boundary of level i-1.
        for level in [CellLevel::L0, CellLevel::L1, CellLevel::L2] {
            if log_value <= self.level(level).upper_boundary() {
                return level;
            }
        }
        CellLevel::L3
    }

    /// The guard band (in log10 units) between `level`'s programmed window
    /// and its sensing reference: `(3 − 2.746)σ = 0.254σ`.
    pub fn guard_band(&self, level: CellLevel) -> f64 {
        (BOUNDARY_SIGMAS - PROGRAM_WIDTH_SIGMAS) * self.level(level).sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let cfg = MetricConfig::r_metric();
        assert_eq!(cfg.kind(), MetricKind::R);
        assert_eq!(cfg.t0(), 1.0);
        let mus: Vec<f64> = CellLevel::ALL.iter().map(|&l| cfg.level(l).mu).collect();
        assert_eq!(mus, vec![3.0, 4.0, 5.0, 6.0]);
        let alphas: Vec<f64> = CellLevel::ALL
            .iter()
            .map(|&l| cfg.level(l).mu_alpha)
            .collect();
        assert_eq!(alphas, vec![0.001, 0.02, 0.06, 0.10]);
        for l in CellLevel::ALL {
            let lp = cfg.level(l);
            assert!((lp.sigma_alpha - 0.4 * lp.mu_alpha).abs() < 1e-15);
        }
    }

    #[test]
    fn table2_derivation() {
        let r = MetricConfig::r_metric();
        let m = MetricConfig::m_metric();
        assert_eq!(m.kind(), MetricKind::M);
        for l in CellLevel::ALL {
            assert!((m.level(l).mu - (r.level(l).mu - 4.0)).abs() < 1e-12);
            assert!((m.level(l).mu_alpha - r.level(l).mu_alpha / 7.0).abs() < 1e-15);
            assert_eq!(m.level(l).sigma, r.level(l).sigma);
        }
    }

    #[test]
    fn boundaries_and_guard_bands() {
        let cfg = MetricConfig::r_metric();
        let l0 = cfg.level(CellLevel::L0);
        assert!((l0.upper_boundary() - 3.5).abs() < 1e-12);
        assert!((l0.lower_boundary() - 2.5).abs() < 1e-12);
        // Guard band 0.254σ = 0.254/6.
        assert!((cfg.guard_band(CellLevel::L0) - 0.254 / 6.0).abs() < 1e-12);
        // Programmed window inside the boundaries.
        let pw = l0.programmed_distribution();
        assert!(pw.hi() < l0.upper_boundary());
        assert!(pw.lo() > l0.lower_boundary());
    }

    #[test]
    fn sense_level_partitions_the_axis() {
        let cfg = MetricConfig::r_metric();
        assert_eq!(cfg.sense_level(2.0), CellLevel::L0);
        assert_eq!(cfg.sense_level(3.49), CellLevel::L0);
        assert_eq!(cfg.sense_level(3.51), CellLevel::L1);
        assert_eq!(cfg.sense_level(4.6), CellLevel::L2);
        assert_eq!(cfg.sense_level(5.51), CellLevel::L3);
        assert_eq!(cfg.sense_level(99.0), CellLevel::L3);
    }

    #[test]
    fn sense_level_is_monotone() {
        let cfg = MetricConfig::m_metric();
        let mut prev = CellLevel::L0;
        let mut x = -3.0;
        while x < 4.0 {
            let l = cfg.sense_level(x);
            assert!(l >= prev, "sense_level must be monotone in the metric");
            prev = l;
            x += 0.01;
        }
    }

    #[test]
    fn reference_above_matches_boundary() {
        let cfg = MetricConfig::m_metric();
        for l in [CellLevel::L0, CellLevel::L1, CellLevel::L2] {
            assert_eq!(
                cfg.reference_above(l),
                Some(cfg.level(l).upper_boundary())
            );
        }
        assert_eq!(cfg.reference_above(CellLevel::L3), None);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn custom_rejects_unordered_levels() {
        let lp = LevelParams::new(3.0, 0.1, 0.01);
        let _ = MetricConfig::custom(MetricKind::R, [lp, lp, lp, lp], 1.0);
    }

    #[test]
    fn display_kinds() {
        assert_eq!(MetricKind::R.to_string(), "R-metric");
        assert_eq!(MetricKind::M.to_string(), "M-metric");
    }
}

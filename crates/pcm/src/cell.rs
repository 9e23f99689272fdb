//! Monte-Carlo model of one 2-bit MLC cell.

use crate::drift::log_metric_at;
use crate::params::MetricConfig;
use crate::state::CellLevel;

/// One MLC cell: the level it was programmed to plus the sampled physical
/// realisation (initial log-metric and drift coefficient).
///
/// The same `(x0, alpha)` pair is interpreted under whichever
/// [`MetricConfig`] the caller senses with; the R/M distinction enters
/// through programming (which config's distributions the sample was drawn
/// from). Schemes that sense the *same cell* with both metrics therefore
/// keep two `MlcCell` views programmed from the paired configs with shared
/// randomness — see [`crate::line::MlcLine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlcCell {
    level: CellLevel,
    /// Programmed `log10(metric)` at `t0`.
    log_x0: f64,
    /// Drift coefficient sampled at program time.
    alpha: f64,
}

impl MlcCell {
    /// Programs a fresh cell to `level`, sampling the initial placement from
    /// the truncated programmed window and the drift coefficient from the
    /// level's α distribution.
    ///
    /// ```
    /// use readduo_pcm::{CellLevel, MetricConfig, MlcCell};
    /// use readduo_rng::{rngs::StdRng, SeedableRng};
    /// let cfg = MetricConfig::r_metric();
    /// let mut rng = StdRng::seed_from_u64(9);
    /// let cell = MlcCell::program(CellLevel::L1, &cfg, &mut rng);
    /// assert_eq!(cell.level(), CellLevel::L1);
    /// ```
    pub fn program<R: readduo_rng::Rng + ?Sized>(
        level: CellLevel,
        cfg: &MetricConfig,
        rng: &mut R,
    ) -> Self {
        let lp = cfg.level(level);
        let log_x0 = lp.programmed_distribution().sample(rng);
        // Negative α samples (possible in the normal tail) are clamped to 0:
        // resistance does not fall over time in the paper's model.
        let alpha = lp.alpha_distribution().sample(rng).max(0.0);
        Self { level, log_x0, alpha }
    }

    /// The level this cell was programmed to.
    pub fn level(&self) -> CellLevel {
        self.level
    }

    /// Programmed `log10(metric)` at `t0`.
    pub fn log_x0(&self) -> f64 {
        self.log_x0
    }

    /// Sampled drift coefficient.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `log10(metric)` at `elapsed` seconds after the last write.
    pub fn log_metric_at(&self, elapsed: f64, cfg: &MetricConfig) -> f64 {
        log_metric_at(self.log_x0, self.alpha, elapsed, cfg.t0())
    }

    /// Senses the cell `elapsed` seconds after the last write.
    pub fn sense_at(&self, elapsed: f64, cfg: &MetricConfig) -> CellLevel {
        cfg.sense_level(self.log_metric_at(elapsed, cfg))
    }

    /// Whether sensing at `elapsed` seconds would misread the cell.
    pub fn has_drift_error_at(&self, elapsed: f64, cfg: &MetricConfig) -> bool {
        self.sense_at(elapsed, cfg) != self.level
    }

    /// Constructs a cell with explicit physics (for tests and the analytic
    /// cross-checks).
    pub fn with_physics(level: CellLevel, log_x0: f64, alpha: f64) -> Self {
        Self { level, log_x0, alpha }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{MetricConfig, PROGRAM_WIDTH_SIGMAS};
    use readduo_rng::{rngs::StdRng, SeedableRng};

    #[test]
    fn programming_lands_inside_window() {
        let cfg = MetricConfig::r_metric();
        let mut rng = StdRng::seed_from_u64(11);
        for level in CellLevel::ALL {
            let lp = cfg.level(level);
            for _ in 0..500 {
                let c = MlcCell::program(level, &cfg, &mut rng);
                let w = PROGRAM_WIDTH_SIGMAS * lp.sigma;
                assert!(c.log_x0() >= lp.mu - w - 1e-12);
                assert!(c.log_x0() <= lp.mu + w + 1e-12);
                assert!(c.alpha() >= 0.0);
            }
        }
    }

    #[test]
    fn fresh_cell_senses_correctly() {
        let cfg = MetricConfig::r_metric();
        let mut rng = StdRng::seed_from_u64(12);
        for level in CellLevel::ALL {
            for _ in 0..200 {
                let c = MlcCell::program(level, &cfg, &mut rng);
                assert_eq!(c.sense_at(1.0, &cfg), level, "fresh cell misread");
                assert!(!c.has_drift_error_at(1.0, &cfg));
            }
        }
    }

    #[test]
    fn drift_errors_appear_over_time_for_middle_levels() {
        // A level-2 R-metric cell (mu_alpha = 0.06) programmed at the top of
        // its window crosses the 0.254σ guard band quickly.
        let cfg = MetricConfig::r_metric();
        let lp = cfg.level(CellLevel::L2);
        let top = lp.mu + PROGRAM_WIDTH_SIGMAS * lp.sigma;
        let cell = MlcCell::with_physics(CellLevel::L2, top, lp.mu_alpha);
        assert!(!cell.has_drift_error_at(1.0, &cfg));
        // Guard band 0.0423 decades at α=0.06 → crosses at ~10^0.7 ≈ 5 s.
        assert!(cell.has_drift_error_at(10.0, &cfg));
        // Error direction is upward: misread as L3.
        assert_eq!(cell.sense_at(10.0, &cfg), CellLevel::L3);
    }

    #[test]
    fn m_metric_same_cell_is_far_more_stable() {
        let r = MetricConfig::r_metric();
        let m = MetricConfig::m_metric();
        // Worst-case placement under both metrics.
        let top_r = r.level(CellLevel::L2).mu + PROGRAM_WIDTH_SIGMAS / 6.0;
        let top_m = m.level(CellLevel::L2).mu + PROGRAM_WIDTH_SIGMAS / 6.0;
        let cell_r = MlcCell::with_physics(CellLevel::L2, top_r, r.level(CellLevel::L2).mu_alpha);
        let cell_m = MlcCell::with_physics(CellLevel::L2, top_m, m.level(CellLevel::L2).mu_alpha);
        // At 600 s the R view has long failed, the M view still reads clean.
        assert!(cell_r.has_drift_error_at(600.0, &r));
        assert!(!cell_m.has_drift_error_at(600.0, &m));
    }

    #[test]
    fn top_level_never_drifts_into_error() {
        let cfg = MetricConfig::r_metric();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let c = MlcCell::program(CellLevel::L3, &cfg, &mut rng);
            assert!(!c.has_drift_error_at(1e9, &cfg));
        }
    }
}

//! Line error rates — Tables III and IV.

use crate::cellprob::CellErrorModel;
use readduo_math::{binomial, LogProb};

/// Bits per 64 B line — the paper states LERs over the 512 stored bits,
/// with the BCH code correcting *bit* errors.
pub const LINE_BITS: u64 = 512;

/// Cells per 64 B line (2-bit MLC).
pub const CELLS_PER_LINE: u64 = 256;

/// Line-error-rate analysis for one metric.
///
/// Error counting follows the paper's bit-level framing: each of the 512
/// bits fails independently with probability `p_cell / 2` (a drifted cell
/// is misread as its upper neighbour, which under the Table I Gray-style
/// encoding flips exactly one of the cell's two bits). This basis
/// reproduces the paper's `E = 0`/`E = 1` columns within a few percent;
/// see `EXPERIMENTS.md` for where the deep-tail columns deviate.
#[derive(Debug, Clone)]
pub struct LerAnalysis {
    model: CellErrorModel,
    bits: u64,
}

impl LerAnalysis {
    /// Builds the analysis over the standard 512-bit line.
    pub fn new(model: CellErrorModel) -> Self {
        Self { model, bits: LINE_BITS }
    }

    /// Overrides the line size in bits (sensitivity studies).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn with_bits(model: CellErrorModel, bits: u64) -> Self {
        assert!(bits > 0, "line must contain bits");
        Self { model, bits }
    }

    /// The underlying cell model.
    pub fn model(&self) -> &CellErrorModel {
        &self.model
    }

    /// Per-bit error probability at age `s`.
    pub fn bit_error_prob(&self, s: f64) -> f64 {
        self.model.mean_cell_error_prob(s) / 2.0
    }

    /// Probability that a line written at time 0 holds **more than `e`**
    /// bit errors at age `s` seconds — condition (i) of the efficient-
    /// scrubbing definition. This is the body of Tables III/IV.
    pub fn ler_exceeding(&self, e: u64, s: f64) -> LogProb {
        let p = self.bit_error_prob(s);
        LogProb::new(binomial::ln_tail_ge(self.bits, p, e + 1).min(0.0))
    }

    /// Generates one row of Table III/IV: LER for each `E` in `es` at scrub
    /// interval `s`.
    pub fn table_row(&self, s: f64, es: &[u64]) -> Vec<LogProb> {
        es.iter().map(|&e| self.ler_exceeding(e, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_pcm::MetricConfig;

    fn r() -> LerAnalysis {
        LerAnalysis::new(CellErrorModel::new(MetricConfig::r_metric()))
    }

    fn m() -> LerAnalysis {
        LerAnalysis::new(CellErrorModel::new(MetricConfig::m_metric()))
    }

    #[test]
    fn ler_monotone_in_interval_and_code() {
        let a = r();
        // Longer interval → higher LER.
        assert!(a.ler_exceeding(8, 64.0).ln() > a.ler_exceeding(8, 8.0).ln());
        // Stronger code → lower LER.
        assert!(a.ler_exceeding(9, 64.0).ln() < a.ler_exceeding(8, 64.0).ln());
    }

    #[test]
    fn table3_character_bch8_at_8s_meets_target() {
        let a = r();
        let t = crate::target::ler_target(8.0);
        let p = a.ler_exceeding(8, 8.0).to_prob();
        assert!(p < t, "R(BCH=8,S=8): {p:e} should be below target {t:e}");
        // …and no protection at 8 s fails spectacularly (paper: 7.1e-2).
        let p0 = a.ler_exceeding(0, 8.0).to_prob();
        assert!(p0 > 1e-3, "E=0 at 8 s: {p0:e}");
    }

    #[test]
    fn table3_character_bch8_at_640s_fails_target() {
        let a = r();
        let t = crate::target::ler_target(640.0);
        let p = a.ler_exceeding(8, 640.0).to_prob();
        assert!(p > t, "R(BCH=8,S=640): {p:e} must exceed target {t:e}");
    }

    #[test]
    fn table4_character_m_metric_easily_meets_640() {
        let a = m();
        let t = crate::target::ler_target(640.0);
        let p = a.ler_exceeding(8, 640.0).to_prob();
        assert!(
            p < t * 1e-3,
            "M(BCH=8,S=640): {p:e} should be far below target {t:e}"
        );
    }

    #[test]
    fn seventeen_error_threshold_marginal_at_640() {
        // ReadDuo-Hybrid relies on: P(>17 errors within 640 s) ≈< target
        // (the paper's decoupled-detection argument, Section III-B; its
        // Table III reports 1.51e-12 against a 2.28e-12 target — a bare
        // 1.5× margin). Our independently derived drift model sits within
        // the same decade of the target; asserting a tight inequality on a
        // quantity this tail-sensitive would test the calibration, not the
        // design.
        let a = r();
        let t = crate::target::ler_target(640.0);
        let p = a.ler_exceeding(17, 640.0).to_prob();
        assert!(
            p < t * 10.0 && p > t * 1e-4,
            "P(>17 errors @640s) = {p:e} should be within a decade of {t:e}"
        );
        // Well inside 640 s the property holds outright.
        let p_early = a.ler_exceeding(17, 320.0).to_prob();
        assert!(p_early < crate::target::ler_target(320.0));
    }

    #[test]
    fn row_generation_shapes() {
        let a = r();
        let es = [0u64, 1, 7, 8, 9, 16, 17, 18];
        let row = a.table_row(8.0, &es);
        assert_eq!(row.len(), es.len());
        // Monotone decreasing across the row.
        for w in row.windows(2) {
            assert!(w[1].ln() <= w[0].ln() + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "contain bits")]
    fn zero_bits_rejected() {
        let _ = LerAnalysis::with_bits(CellErrorModel::new(MetricConfig::r_metric()), 0);
    }

    #[test]
    fn e0_column_matches_paper_within_percent() {
        // Table III, E=0: S=8 → 7.09e-2; S=2^9 (512 s) → 8.18e-1. These
        // columns are tail-insensitive, so they pin the calibration.
        let a = r();
        let p8 = a.ler_exceeding(0, 8.0).to_prob();
        assert!((p8 - 7.09e-2).abs() / 7.09e-2 < 0.10, "E=0,S=8: {p8:e}");
        let p512 = a.ler_exceeding(0, 512.0).to_prob();
        assert!((p512 - 8.18e-1).abs() / 8.18e-1 < 0.10, "E=0,S=512: {p512:e}");
    }
}

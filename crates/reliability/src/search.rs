//! `(E, S)` operating-point search.
//!
//! Re-derives the paper's chosen scrub policies from the model instead of
//! hard-coding them: R-sensing needs `(BCH=8, S=8 s)`; M-sensing meets the
//! target at `(BCH=8, S=640 s)` (and could stretch to ~2¹⁴ s, which the
//! paper notes but does not use).

use crate::cellprob::CellErrorModel;
use crate::ler::LerAnalysis;
use crate::target::ler_target;

/// Finds the smallest code strength `E ≤ e_max` whose LER at interval `s`
/// meets the DRAM target, or `None` if even `e_max` fails.
pub fn find_min_code(model: &CellErrorModel, s: f64, e_max: u64) -> Option<u64> {
    let analysis = LerAnalysis::new(model.clone());
    let target = ler_target(s);
    (0..=e_max).find(|&e| analysis.ler_exceeding(e, s).to_prob() < target)
}

/// Finds the longest power-of-two interval (up to `2^max_exp` seconds) at
/// which code strength `e` still meets the target.
pub fn max_interval_for_code(model: &CellErrorModel, e: u64, max_exp: u32) -> Option<f64> {
    let analysis = LerAnalysis::new(model.clone());
    let mut best = None;
    for exp in 0..=max_exp {
        let s = 2f64.powi(exp as i32);
        if analysis.ler_exceeding(e, s).to_prob() < ler_target(s) {
            best = Some(s);
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_pcm::MetricConfig;

    #[test]
    fn r_metric_operating_point() {
        let model = CellErrorModel::new(MetricConfig::r_metric());
        // At S = 8 s a single-digit code suffices (the paper lands on 8;
        // the exact minimum depends on distribution tails — accept 4..=8).
        let e = find_min_code(&model, 8.0, 16).expect("some code must work at 8 s");
        assert!((4..=8).contains(&e), "min code at 8 s = {e}");
        // BCH-8 cannot stretch to 640 s.
        let max_s = max_interval_for_code(&model, 8, 14).unwrap_or(0.0);
        assert!(max_s < 640.0, "BCH-8 R-sensing max interval = {max_s}");
    }

    #[test]
    fn m_metric_operating_point() {
        let model = CellErrorModel::new(MetricConfig::m_metric());
        // M-sensing meets 640 s with BCH-8 (indeed with far weaker codes).
        let e = find_min_code(&model, 640.0, 8).expect("M-sensing must meet 640 s");
        assert!(e <= 8, "min code at 640 s = {e}");
        // And stretches to large power-of-two intervals (paper: 2^14).
        let max_s = max_interval_for_code(&model, 8, 14).expect("should reach 2^14");
        assert!(max_s >= 2f64.powi(10), "M max interval = {max_s}");
    }
}

//! Shared scheme machinery: drift-error sampling, write costing, and the
//! policy constants of the read path.

use readduo_rng::rngs::StdRng;
use readduo_rng::{Rng, SeedableRng};
use readduo_math::BinomialSampler;
use readduo_memsim::{EnergyModel, WriteOutcome};
use readduo_pcm::{MetricConfig, MetricKind, SenseTiming};
use readduo_reliability::CachedErrorCurve;
use std::sync::Arc;

/// Bits per line as the schemes count errors (512 data bits; the BCH code
/// corrects bit errors).
pub const LINE_BITS: u64 = 512;

/// MLC cells programmed by a full-line write: 512 data bits + 80 BCH-8
/// parity bits = 592 bits = 296 two-bit cells.
pub const FULL_LINE_CELLS: u32 = 296;

/// Of those, the BCH parity cells (rewritten by *every* differential write
/// too, since almost any data change changes the parity).
pub const ECC_CELLS: u32 = 40;

/// Data cells per line.
pub const DATA_CELLS: u32 = 256;

/// Fraction of data cells a typical demand write modifies. The paper cites
/// ~20% of bits changing per write \[35\]; bit flips cluster within words
/// (and within 2-bit cells), so at cell granularity the changed fraction
/// lands near 15%.
pub const DIFF_WRITE_CHANGED_FRACTION: f64 = 0.15;

/// Maximum bit errors BCH-8 corrects.
pub const CORRECT_MAX: u32 = 8;

/// Maximum bit errors the decoupled BCH-8 (+ overall parity) detection
/// recognises: `2t + 1 = 17` (Section III-B).
pub const DETECT_MAX: u32 = 17;

/// Samples per-read drift-error counts from the analytic cell model.
///
/// Each read of a line aged `Δt` draws the number of erroneous bits from
/// `Binomial(512, p_bit(Δt))` with `p_bit` taken from the cached analytic
/// curve of the relevant metric. Error counts at successive reads of the
/// same line are drawn independently — the schemes only branch on coarse
/// bands (≤8, 9–17, >17), so persisting exact error identities across
/// reads would change nothing observable while costing a per-line cell
/// array.
#[derive(Debug, Clone)]
pub struct DriftSampler {
    curve_r: Arc<CachedErrorCurve>,
    curve_m: Arc<CachedErrorCurve>,
    binomial: BinomialSampler,
    diff_binomial: BinomialSampler,
    fast_r: FastZero,
    fast_m: FastZero,
    rng: StdRng,
}

/// Precomputed short-circuits that let a drift draw skip the curve lookup
/// (`log10` + interpolation + `exp`) and the binomial `powf` on the hot
/// zero-error path, while remaining draw-for-draw identical to the plain
/// `curve.prob` → `BinomialSampler::sample` pipeline.
///
/// Two mechanisms, both derived from the curve's own table at
/// construction:
///
/// * ages `≤ zero_below` are certified `prob == 0.0` — `sample(p = 0)`
///   returns 0 **without consuming randomness**, so the short-circuit
///   must not draw either (and does not);
/// * for ages in `[positive_from, tier.age_max]` the probability is
///   certified in `(0, p_tier]` with `512·p_tier < 30`, exactly the
///   regime where `sample` draws one uniform first. The tier draws that
///   same uniform and tests it against `accept ≤ 1 - 512·p`: acceptance
///   proves the Bernoulli bound `q⁵¹² ≥ 1 - 512·p ≥ u` holds, i.e. the
///   full pipeline would return 0 from the same stream position. On the
///   rare rejection the uniform is handed to
///   [`BinomialSampler::sample_with_uniform`], which *is* the remainder
///   of that pipeline.
///
/// The `1e-9` pad on each acceptance bound dwarfs the few-ulp rounding
/// slack in the curve's age certificates; it only pushes a vanishing
/// sliver of acceptances onto the slow (still exact) path.
#[derive(Debug, Clone)]
struct FastZero {
    zero_below: f64,
    positive_from: f64,
    /// Ascending `(age ceiling, acceptance bound)` pairs; the first tier
    /// covering the age is the tightest and is the one used.
    tiers: Vec<(f64, f64)>,
}

impl FastZero {
    /// Per-bit probability ceilings for the tiers. Tight tiers accept
    /// ~99.9% of draws on young lines; the loosest still proves ~23% of
    /// draws zero on lines near the scrub-interval age while costing
    /// nothing when it fails (the uniform is reused, not redrawn).
    const P_BIT_TIERS: [f64; 4] = [1e-6, 1e-5, 3e-4, 1.5e-3];

    fn for_curve(curve: &CachedErrorCurve) -> Self {
        let zero_below = curve.zero_age_ceiling().unwrap_or(0.0);
        let positive_from = curve.positive_age_floor().unwrap_or(f64::INFINITY);
        let mut tiers = Vec::new();
        for pb in Self::P_BIT_TIERS {
            // p_bit = prob/2, so the curve ceiling to request is 2·p_bit.
            let Some(age_max) = curve.age_ceiling_for_prob(2.0 * pb) else {
                continue;
            };
            if age_max > positive_from {
                tiers.push((age_max, 1.0 - LINE_BITS as f64 * pb - 1e-9));
            }
        }
        Self { zero_below, positive_from, tiers }
    }
}

impl DriftSampler {
    /// Builds the sampler from the paper's Table I/II models.
    ///
    /// The analytic curves come from the process-wide per-params memo
    /// ([`CachedErrorCurve::shared_standard`]): the benchmark harness
    /// constructs one device per (scheme, workload) pair, and
    /// re-integrating the drift model for each would dominate start-up —
    /// every sampler over the same metric parameters shares one table.
    pub fn new(seed: u64) -> Self {
        let curve_r = CachedErrorCurve::shared_standard(&MetricConfig::r_metric());
        let curve_m = CachedErrorCurve::shared_standard(&MetricConfig::m_metric());
        let fast_r = FastZero::for_curve(&curve_r);
        let fast_m = FastZero::for_curve(&curve_m);
        Self {
            curve_r,
            curve_m,
            binomial: BinomialSampler::new(LINE_BITS),
            diff_binomial: BinomialSampler::new(DATA_CELLS as u64),
            fast_r,
            fast_m,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the bit-error count of a line aged `age_s`, sensed with
    /// `metric`.
    pub fn bit_errors(&mut self, metric: MetricKind, age_s: f64) -> u32 {
        let (curve, fast) = match metric {
            MetricKind::R => (&self.curve_r, &self.fast_r),
            MetricKind::M => (&self.curve_m, &self.fast_m),
        };
        if age_s <= fast.zero_below {
            return 0;
        }
        let p = || (curve.prob(age_s) / 2.0).min(1.0);
        if age_s >= fast.positive_from {
            if let Some(&(_, accept)) = fast.tiers.iter().find(|&&(age_max, _)| age_s <= age_max) {
                let u: f64 = self.rng.gen();
                if u <= accept {
                    return 0;
                }
                return self.binomial.sample_with_uniform(u, p()) as u32;
            }
        }
        self.binomial.sample(&mut self.rng, p()) as u32
    }

    /// Draws the number of cells a differential write programs: the
    /// changed data cells plus the always-rewritten ECC cells.
    pub fn differential_write_cells(&mut self) -> u32 {
        let changed = self
            .diff_binomial
            .sample(&mut self.rng, DIFF_WRITE_CHANGED_FRACTION) as u32;
        changed + ECC_CELLS
    }
}

/// Builds the [`WriteOutcome`] of a full-line MLC write.
pub fn full_line_write(energy: &EnergyModel, timing: &SenseTiming, slc_bits: u32) -> WriteOutcome {
    WriteOutcome::basic(
        timing.write_ns,
        FULL_LINE_CELLS,
        slc_bits,
        FULL_LINE_CELLS as f64 * energy.write_cell_pj + slc_bits as f64 * energy.slc_bit_pj,
    )
}

/// Builds the [`WriteOutcome`] of a differential write of `cells` cells.
pub fn differential_write(
    energy: &EnergyModel,
    timing: &SenseTiming,
    cells: u32,
) -> WriteOutcome {
    WriteOutcome::basic(timing.write_ns, cells, 0, cells as f64 * energy.write_cell_pj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_lines_sample_zero_errors() {
        let mut s = DriftSampler::new(1);
        for _ in 0..50 {
            assert_eq!(s.bit_errors(MetricKind::R, 0.5), 0);
            assert_eq!(s.bit_errors(MetricKind::M, 8.0), 0);
        }
    }

    #[test]
    fn old_lines_accumulate_r_errors_but_not_m() {
        let mut s = DriftSampler::new(2);
        let age = 1e6;
        let mut total_r = 0u32;
        let mut total_m = 0u32;
        for _ in 0..200 {
            total_r += s.bit_errors(MetricKind::R, age);
            total_m += s.bit_errors(MetricKind::M, age);
        }
        assert!(total_r > 200, "R errors at 1e6 s: {total_r}");
        assert!(total_m < total_r / 10, "M errors {total_m} vs R {total_r}");
    }

    #[test]
    fn sampled_mean_tracks_curve() {
        let mut s = DriftSampler::new(3);
        let age = 640.0;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| s.bit_errors(MetricKind::R, age) as u64).sum();
        let mean = sum as f64 / n as f64;
        let expect = LINE_BITS as f64 * s.curve_r.prob(age) / 2.0;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn differential_writes_cost_fraction_of_full() {
        let mut s = DriftSampler::new(4);
        let n = 5_000;
        let sum: u64 = (0..n).map(|_| s.differential_write_cells() as u64).sum();
        let mean = sum as f64 / n as f64;
        let expect = DATA_CELLS as f64 * DIFF_WRITE_CHANGED_FRACTION + ECC_CELLS as f64;
        assert!((mean - expect).abs() < 2.0, "mean {mean} vs {expect}");
        assert!(mean < FULL_LINE_CELLS as f64 * 0.45);
    }

    #[test]
    fn write_outcomes_cost_energy_proportionally() {
        let e = EnergyModel::paper();
        let t = SenseTiming::paper();
        let full = full_line_write(&e, &t, 6);
        assert_eq!(full.cells_written, 296);
        assert_eq!(full.slc_bits_written, 6);
        assert!(full.energy_pj > 296.0 * e.write_cell_pj);
        let diff = differential_write(&e, &t, 90);
        assert!(diff.energy_pj < full.energy_pj / 3.0);
    }
}

//! Monte-Carlo fault model: samples which codeword bits a drifted line
//! actually gets wrong.
//!
//! The reliability crate answers "what is the *probability* a read fails"
//! in closed form; this module answers "which bits *did* fail on this
//! read" by drawing per-cell programmed values and drift coefficients
//! from the same Table I / Table II distributions and pushing them through
//! the same power-law drift and sensing references. The two must agree —
//! `tests/fault_validation.rs` and the `fault_mc` binary assert it — and
//! because they share [`MetricConfig`], [`log_metric_at`] and
//! [`sense_level`](MetricConfig::sense_level), any future parameter edit
//! moves both together.
//!
//! The R- and M-metric outcomes for one cell are sampled with *shared*
//! randomness: one standard-normal pair `(z, z_α)` drives both metrics,
//! reflecting that they are two readouts of the *same* physical cell
//! (`σ_M = σ_R`, `μ_{α,M} = μ_{α,R}/7`, so `α_M = α_R / 7` cell by cell).
//! A consequence worth testing: any cell that misreads under the M-metric
//! also misreads under the R-metric — escalation can only help.
//!
//! # Threshold first, inversion only where it decides
//!
//! Drift only raises a cell's metric, so a cell is sensed at its own level
//! exactly when its programmed deviate `z` stays at or below
//! `z* = (ref_above − μ − α·u)/σ`. `z` is the truncated-normal quantile of
//! a uniform `p`, so `z ≤ z*` is the same question as `p ≤ F(z*)` with
//! `F` the truncated CDF — and answering it in `p` skips the quantile's
//! eight Newton steps. The sampler therefore draws `p` and the drift
//! deviate exactly as the inverse-transform sampler would (same calls,
//! same order), skips the cell when `p < F(z* − 1e-9) − 1e-12`, and only
//! inverts the CDF for the cells that test leaves undecided. The two
//! margins cover `inverse_erf`'s documented ~1e-12 error and the rounding
//! of the drift sum and of `F` itself by orders of magnitude, so a skipped
//! cell is one the full inversion would also have sensed correctly: every
//! pattern and every RNG stream is bit-for-bit the inversion sampler's.
//! `F` comes from a grid built once per model; only a `p` inside the
//! bracket of its two neighbouring knots pays an exact `erfc`.

use crate::drift::{drift_exponent, log_metric_at_u};
use crate::params::{MetricConfig, PROGRAM_WIDTH_SIGMAS};
use crate::state::CellLevel;
use readduo_math::{Normal, TruncatedNormal};
use readduo_rng::Rng;

/// How many sigmas of drift-coefficient tail the impossibility precheck
/// covers. Matches the integration range of the analytic cell-error model
/// (`readduo-reliability` integrates α over `μ_α ± 10σ_α`), so the fault
/// model and the closed form agree about which (age, level) pairs can
/// produce errors at all.
const ALPHA_TAIL_SIGMAS: f64 = 10.0;

/// Margin, in programmed-value sigmas, below the misread threshold `z*`
/// at which the skip test is taken.
const Z_MARGIN: f64 = 1e-9;

/// Margin subtracted from the truncated CDF at the skip threshold.
const P_MARGIN: f64 = 1e-12;

/// Intervals of the truncated-CDF grid across the programmed window: a
/// knot spacing of ~0.005σ leaves at most ~0.2% of cells for the exact
/// `erfc`.
const CDF_GRID_STEPS: usize = 1024;

/// Sampled read faults for one line, under both metrics.
///
/// Bit positions index the interleaved codeword layout used by
/// `readduo-ecc`: cell `i` stores codeword bits `2i` (its high data bit)
/// and `2i + 1` (its low bit). A single-level drift flips exactly one of
/// the two (the Table I encoding is Gray along the drift direction);
/// multi-level drifts may flip either or both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineFaults {
    /// Erroneous codeword bit positions under R-sensing, ascending.
    pub r_bits: Vec<u16>,
    /// Erroneous codeword bit positions under M-sensing, ascending.
    pub m_bits: Vec<u16>,
    /// Number of cells misread under R-sensing.
    pub r_cells: u32,
    /// Number of cells misread under M-sensing.
    pub m_cells: u32,
}

impl LineFaults {
    /// True when R-sensing reads the line back exactly.
    pub fn r_clean(&self) -> bool {
        self.r_bits.is_empty()
    }

    /// Cell indices (bit position / 2) misread under the M-metric.
    pub fn m_cell_indices(&self) -> Vec<u16> {
        dedup_cells(&self.m_bits)
    }

    /// Cell indices (bit position / 2) misread under the R-metric.
    pub fn r_cell_indices(&self) -> Vec<u16> {
        dedup_cells(&self.r_bits)
    }
}

fn dedup_cells(bits: &[u16]) -> Vec<u16> {
    let mut cells: Vec<u16> = bits.iter().map(|&b| b / 2).collect();
    cells.dedup();
    cells
}

/// Per-cell drift fault sampler for a whole line.
#[derive(Debug, Clone)]
pub struct FaultModel {
    r: MetricConfig,
    m: MetricConfig,
    /// Shared standard-normal programmed-value deviate, truncated to the
    /// program-and-verify window (`±2.746σ`).
    z_programmed: TruncatedNormal,
    z_alpha: Normal,
    /// `z_programmed.cdf(lo + k·h)` for `k = 0..=CDF_GRID_STEPS`, with
    /// `h` the window width over `CDF_GRID_STEPS`.
    cdf_grid: Vec<f64>,
    /// `1/h`.
    grid_scale: f64,
    /// Per R level: the skip test's standardised reference (see
    /// [`upper_gates`]).
    r_gates: [Option<f64>; 4],
    /// Per M level, likewise.
    m_gates: [Option<f64>; 4],
}

/// Per level of `cfg`, the standardised reference `(ref_above − μ)/σ`
/// under which a programmed deviate is sensed at its own level whatever
/// its drift, or `None` when that one comparison cannot settle the sensed
/// level: the top level has no reference above, and a level whose lowest
/// programmable value `μ + z_lo·σ` is not above every lower reference
/// can also misread downwards.
fn upper_gates(cfg: &MetricConfig, z_lo: f64) -> [Option<f64>; 4] {
    let mut gates = [None; 4];
    let mut highest_below = f64::NEG_INFINITY;
    for level in CellLevel::ALL {
        let lp = cfg.level(level);
        let Some(reference) = cfg.reference_above(level) else {
            break; // the top level
        };
        // The same expression `sense_one` evaluates for x0 at z = z_lo; drift
        // only adds to it.
        let x0_min = lp.mu + z_lo * lp.sigma;
        if lp.sigma > 0.0 && x0_min > highest_below {
            gates[level.index()] = Some((reference - lp.mu) / lp.sigma);
        }
        highest_below = highest_below.max(reference);
    }
    gates
}

impl FaultModel {
    /// The paper's configuration: Table I R-metric, Table II M-metric.
    pub fn paper() -> Self {
        Self::new(MetricConfig::r_metric(), MetricConfig::m_metric())
    }

    /// A fault model over custom metric configurations.
    ///
    /// The two configurations must share `t0` — the sampler draws one
    /// drift clock per cell.
    ///
    /// # Panics
    ///
    /// Panics if the reference times differ.
    pub fn new(r: MetricConfig, m: MetricConfig) -> Self {
        assert!(
            (r.t0() - m.t0()).abs() < 1e-12,
            "R and M metrics must share t0 ({} vs {})",
            r.t0(),
            m.t0()
        );
        let z_programmed = TruncatedNormal::symmetric(Normal::standard(), PROGRAM_WIDTH_SIGMAS);
        let (lo, hi) = (z_programmed.lo(), z_programmed.hi());
        let h = (hi - lo) / CDF_GRID_STEPS as f64;
        let cdf_grid = (0..=CDF_GRID_STEPS)
            .map(|k| z_programmed.cdf(lo + k as f64 * h))
            .collect();
        Self {
            r_gates: upper_gates(&r, lo),
            m_gates: upper_gates(&m, lo),
            r,
            m,
            z_programmed,
            z_alpha: Normal::standard(),
            cdf_grid,
            grid_scale: 1.0 / h,
        }
    }

    /// The R-metric configuration being sampled.
    pub fn r_metric(&self) -> &MetricConfig {
        &self.r
    }

    /// The M-metric configuration being sampled.
    pub fn m_metric(&self) -> &MetricConfig {
        &self.m
    }

    /// Whether a cell programmed to `level` can possibly misread under
    /// `cfg` after drifting by the exponent `u = log10(t/t0)`, given the
    /// most adverse draws the model (and the analytic integration it is
    /// validated against) considers: the programmed value at the top of
    /// the verify window and the drift coefficient `10σ_α` above its mean.
    fn level_can_cross(cfg: &MetricConfig, level: CellLevel, u: f64) -> bool {
        let Some(boundary) = cfg.reference_above(level) else {
            return false; // top level: drift has nowhere to go
        };
        let lp = cfg.level(level);
        let x0_max = lp.mu + PROGRAM_WIDTH_SIGMAS * lp.sigma;
        let alpha_max = (lp.mu_alpha + ALPHA_TAIL_SIGMAS * lp.sigma_alpha).max(0.0);
        log_metric_at_u(x0_max, alpha_max, u) > boundary
    }

    /// Samples the fault pattern of one `cells`-cell line read at `age_s`
    /// seconds after its last full write, under both metrics: the pattern
    /// an R-first read senses and, should it escalate, the M pattern.
    ///
    /// Levels are drawn uniformly (the simulator carries no data
    /// contents; uniform level occupancy is also what the analytic model
    /// averages over). For ages at which no level can cross its sensing
    /// reference the call returns an empty pattern *without consuming any
    /// randomness*, so fault-free epochs cost nothing and perturb no
    /// downstream draws.
    pub fn sample_line<R: Rng + ?Sized>(&self, age_s: f64, cells: u32, rng: &mut R) -> LineFaults {
        self.sample(false, age_s, cells, rng)
    }

    /// The M pattern alone, for a direct M-read: `m_bits` and `m_cells`
    /// exactly as [`sample_line`](Self::sample_line) produces them from
    /// the same stream, which this call advances identically. `r_bits`
    /// stays empty: the skip test runs on the M references, so cells only
    /// R would misread are never resolved.
    pub fn sample_line_m<R: Rng + ?Sized>(&self, age_s: f64, cells: u32, rng: &mut R) -> LineFaults {
        self.sample(true, age_s, cells, rng)
    }

    /// The sampler behind both entry points. The skip test runs on the
    /// metric whose misreads the caller needs (M when `m_only`, else R):
    /// a skipped cell is only certain to be sensed correctly under that
    /// one.
    fn sample<R: Rng + ?Sized>(&self, m_only: bool, age_s: f64, cells: u32, rng: &mut R) -> LineFaults {
        let (gate, gates) = if m_only {
            (&self.m, &self.m_gates)
        } else {
            (&self.r, &self.r_gates)
        };
        // One elapsed time covers the whole line (and both metrics share
        // t0), so the log10 is paid once here instead of once per cell.
        // `log_metric_at(x0, a, t, t0) == x0 + a * drift_exponent(t, t0)`
        // bit for bit — same u, same expression.
        let u = drift_exponent(age_s, self.r.t0());
        let mut can_cross_r = [false; 4];
        let mut any = false;
        for level in CellLevel::ALL {
            // M crossings are a subset of R crossings (same z, α/7), so
            // the R precheck covers both metrics.
            let c = Self::level_can_cross(&self.r, level, u);
            can_cross_r[level.index()] = c;
            any |= c;
        }
        let mut faults = LineFaults::default();
        if !any {
            return faults;
        }
        for cell in 0..cells {
            let level = CellLevel::from_index(rng.gen_range(0..4usize));
            if !can_cross_r[level.index()] {
                continue;
            }
            let p = TruncatedNormal::draw_uniform(rng);
            let za = self.z_alpha.sample(rng);
            if self.surely_sensed(gate, gates, level, p, za, u) {
                continue;
            }
            let z = self.z_programmed.at_uniform(p);
            let sensed_r = self.sense_one(&self.r, level, z, za, u);
            if sensed_r == level {
                continue; // M cannot misread if R did not
            }
            if !m_only {
                push_cell_bits(&mut faults.r_bits, cell, level, sensed_r);
                faults.r_cells += 1;
            }
            let sensed_m = self.sense_one(&self.m, level, z, za, u);
            if sensed_m != level {
                push_cell_bits(&mut faults.m_bits, cell, level, sensed_m);
                faults.m_cells += 1;
            }
        }
        faults
    }

    /// The misread threshold of a cell programmed to `level` under `cfg`
    /// with drift deviate `za`, lowered by `Z_MARGIN`: `None` when the
    /// level has no usable gate (see [`upper_gates`]).
    fn skip_threshold(
        cfg: &MetricConfig,
        gates: &[Option<f64>; 4],
        level: CellLevel,
        za: f64,
        u: f64,
    ) -> Option<f64> {
        let z_ref = gates[level.index()]?;
        let lp = cfg.level(level);
        // α exactly as `sense_one` forms it.
        let alpha = (lp.mu_alpha + za * lp.sigma_alpha).max(0.0);
        Some(z_ref - alpha * u / lp.sigma - Z_MARGIN)
    }

    /// True when the cell is certain to be sensed at `level` under `cfg`
    /// without inverting the CDF at `p`; false when only the inversion
    /// can tell.
    fn surely_sensed(
        &self,
        cfg: &MetricConfig,
        gates: &[Option<f64>; 4],
        level: CellLevel,
        p: f64,
        za: f64,
        u: f64,
    ) -> bool {
        Self::skip_threshold(cfg, gates, level, za, u)
            .is_some_and(|z_skip| self.p_surely_below(p, z_skip))
    }

    /// Whether `p < F(z) − P_MARGIN`, `F` the programmed deviate's
    /// truncated CDF. The grid knots around `z` bracket `F(z)`; only a
    /// `p` between them pays the exact `erfc`.
    fn p_surely_below(&self, p: f64, z: f64) -> bool {
        let t = (z - self.z_programmed.lo()) * self.grid_scale;
        if t.is_nan() || t < 0.0 {
            return false; // below the window, where F = 0
        }
        if t >= CDF_GRID_STEPS as f64 {
            return true; // no programmed value lies above the window
        }
        let k = t as usize;
        if p < self.cdf_grid[k] - P_MARGIN {
            return true;
        }
        if p >= self.cdf_grid[k + 1] {
            return false;
        }
        p < self.z_programmed.cdf(z) - P_MARGIN
    }

    /// Drifts one cell's shared deviates through `cfg` by the hoisted
    /// exponent `u` and senses it.
    fn sense_one(
        &self,
        cfg: &MetricConfig,
        level: CellLevel,
        z: f64,
        za: f64,
        u: f64,
    ) -> CellLevel {
        let lp = cfg.level(level);
        let x0 = lp.mu + z * lp.sigma;
        let alpha = (lp.mu_alpha + za * lp.sigma_alpha).max(0.0);
        cfg.sense_level(log_metric_at_u(x0, alpha, u))
    }
}

/// Appends the codeword bit positions that differ between the programmed
/// and sensed data of cell `cell`.
fn push_cell_bits(bits: &mut Vec<u16>, cell: u32, level: CellLevel, sensed: CellLevel) {
    let diff = level.data() ^ sensed.data();
    let base = (cell as u16) * 2;
    if diff & 0b10 != 0 {
        bits.push(base);
    }
    if diff & 0b01 != 0 {
        bits.push(base + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, RngCore, SeedableRng};

    #[test]
    fn fresh_lines_are_fault_free_and_draw_nothing() {
        let model = FaultModel::paper();
        let mut rng = StdRng::seed_from_u64(7);
        let before = rng.next_u64();
        let mut rng = StdRng::seed_from_u64(7);
        let f = model.sample_line(1.0, 296, &mut rng);
        assert!(f.r_bits.is_empty() && f.m_bits.is_empty());
        assert_eq!(rng.next_u64(), before, "no randomness may be consumed");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let model = FaultModel::paper();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            assert_eq!(
                model.sample_line(640.0, 296, &mut a),
                model.sample_line(640.0, 296, &mut b)
            );
        }
    }

    #[test]
    fn bits_are_sorted_unique_and_in_range() {
        let model = FaultModel::paper();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let f = model.sample_line(1e5, 296, &mut rng);
            for bits in [&f.r_bits, &f.m_bits] {
                assert!(bits.windows(2).all(|w| w[0] < w[1]), "sorted+unique");
                assert!(bits.iter().all(|&b| b < 592));
            }
            assert_eq!(f.r_cell_indices().len() as u32, f.r_cells);
            assert_eq!(f.m_cell_indices().len() as u32, f.m_cells);
        }
    }

    #[test]
    fn m_errors_are_a_subset_of_r_errors_cellwise() {
        // Shared (z, zα) and α_M = α_R/7 make M misreads a strict subset
        // of R misreads at the cell level.
        let model = FaultModel::paper();
        let mut rng = StdRng::seed_from_u64(11);
        let mut m_seen = 0u32;
        for _ in 0..300 {
            let f = model.sample_line(1e6, 296, &mut rng);
            let r_cells = f.r_cell_indices();
            for c in f.m_cell_indices() {
                assert!(r_cells.contains(&c), "M error without R error at cell {c}");
                m_seen += 1;
            }
        }
        assert!(m_seen > 0, "age 1e6 s must produce some M-metric errors");
    }

    #[test]
    fn r_error_rate_grows_with_age() {
        let model = FaultModel::paper();
        let count_at = |age: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..400)
                .map(|_| model.sample_line(age, 256, &mut rng).r_cells as u64)
                .sum::<u64>()
        };
        let young = count_at(8.0, 5);
        let old = count_at(640.0, 5);
        assert!(old > young, "drift errors must accumulate: {young} vs {old}");
    }

    #[test]
    fn m_metric_is_far_more_robust() {
        let model = FaultModel::paper();
        let mut rng = StdRng::seed_from_u64(9);
        let (mut r, mut m) = (0u64, 0u64);
        for _ in 0..400 {
            let f = model.sample_line(1e4, 256, &mut rng);
            r += u64::from(f.r_cells);
            m += u64::from(f.m_cells);
        }
        assert!(r > 0);
        assert!(m * 50 < r, "M errors ({m}) should be ≪ R errors ({r})");
    }

    /// `p` values around `threshold`: the value itself, 1–4 ULP either
    /// side and `P_MARGIN` either side.
    fn around(threshold: f64) -> Vec<f64> {
        let mut ps = vec![threshold, threshold - P_MARGIN, threshold + P_MARGIN];
        let (mut up, mut down) = (threshold, threshold);
        for _ in 0..4 {
            up = up.next_up();
            down = down.next_down();
            ps.extend([up, down]);
        }
        ps
    }

    /// The skip test's error budget. For every gated level of both
    /// metrics and a sweep of α·u that walks the misread threshold `z*`
    /// across the whole programmed window, `p` is placed at the grid
    /// knot's threshold, at the exact-`erfc` threshold and at `F(z*)`
    /// itself (each ±1–4 ULP and ±`P_MARGIN`), and at `F(z* ± Z_MARGIN)`.
    /// Whenever the fast decision skips, the exact quantile + `sense_one`
    /// path must sense the cell at its level; and just past `z*` the
    /// exact path must misread, so the threshold is the real one.
    #[test]
    fn skipped_cells_sense_correctly_at_both_thresholds() {
        let model = FaultModel::paper();
        let t = model.z_programmed;
        let (mut skipped, mut kept) = (0u32, 0u32);
        for (cfg, gates) in [(&model.r, &model.r_gates), (&model.m, &model.m_gates)] {
            for level in [CellLevel::L0, CellLevel::L1, CellLevel::L2] {
                let lp = cfg.level(level);
                for u in [0.5, 1.0, 3.7, 7.0] {
                    for step in 0..=120 {
                        // α·u spanning z* from 3.0 (no drift) to -3.0.
                        let alpha_u = f64::from(step) * 0.05 * lp.sigma;
                        let za = (alpha_u / u - lp.mu_alpha) / lp.sigma_alpha;
                        let z_skip = FaultModel::skip_threshold(cfg, gates, level, za, u)
                            .expect("levels below the top are gated in the paper metrics");
                        let z_star = z_skip + Z_MARGIN;
                        let mut ps = around(t.cdf(z_star));
                        ps.extend(around(t.cdf(z_skip) - P_MARGIN));
                        ps.extend([t.cdf(z_star - Z_MARGIN), t.cdf(z_star + Z_MARGIN)]);
                        let knot = (z_skip - t.lo()) * model.grid_scale;
                        if (0.0..CDF_GRID_STEPS as f64).contains(&knot) {
                            let k = knot as usize;
                            ps.extend(around(model.cdf_grid[k] - P_MARGIN));
                            ps.extend(around(model.cdf_grid[k + 1]));
                        }
                        for p in ps.into_iter().filter(|p| (f64::MIN_POSITIVE..1.0).contains(p)) {
                            if model.surely_sensed(cfg, gates, level, p, za, u) {
                                skipped += 1;
                                let sensed = model.sense_one(cfg, level, t.at_uniform(p), za, u);
                                assert_eq!(
                                    sensed, level,
                                    "{} {level} skipped at p={p:e} (u={u}, za={za}, z*={z_star})",
                                    cfg.kind()
                                );
                            } else {
                                kept += 1;
                            }
                        }
                        let past = z_star + 1e-6;
                        if t.lo() < past && past < t.hi() {
                            let p = t.cdf(past);
                            assert!(!model.surely_sensed(cfg, gates, level, p, za, u));
                            let sensed = model.sense_one(cfg, level, t.at_uniform(p), za, u);
                            assert_ne!(sensed, level, "{} {level}: z* too low", cfg.kind());
                        }
                    }
                }
            }
        }
        assert!(skipped > 1000 && kept > 1000, "skipped {skipped}, kept {kept}");
    }

    #[test]
    #[should_panic(expected = "share t0")]
    fn mismatched_t0_rejected() {
        let mut levels = *MetricConfig::r_metric().levels();
        levels[0].mu = 2.9; // keep ordering valid
        let other = MetricConfig::custom(crate::params::MetricKind::M, levels, 2.0);
        let _ = FaultModel::new(MetricConfig::r_metric(), other);
    }
}

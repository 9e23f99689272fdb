//! A 64-byte memory line of MLC cells.

use crate::cell::MlcCell;
use crate::drift::{drift_exponent, log_metric_at_slice};
use crate::params::MetricConfig;
use crate::state::{bytes_to_cell_data, cell_data_to_bytes, CellLevel};

/// The result of sensing a whole line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensedLine {
    /// The bytes as read (possibly corrupted by drift).
    pub data: Vec<u8>,
    /// Number of *cells* that sensed to a wrong level.
    pub drift_errors: u32,
    /// Number of *data bits* flipped by those cell errors (what ECC sees).
    pub bit_errors: u32,
}

/// A line of 2-bit MLC cells (4 cells per byte).
///
/// Cells are `None` until first programmed; sensing an unprogrammed line
/// returns zeroes with no errors (factory state).
#[derive(Debug, Clone, PartialEq)]
pub struct MlcLine {
    cells: Vec<Option<MlcCell>>,
    bytes: usize,
}

impl MlcLine {
    /// Creates an unprogrammed line of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn new(bytes: usize) -> Self {
        assert!(bytes > 0, "line must hold at least one byte");
        Self {
            cells: vec![None; bytes * 4],
            bytes,
        }
    }

    /// Line size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Programs the full line with `data` (a full-line write: every cell is
    /// RESET and re-programmed, re-sampling its physics).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the line size.
    pub fn program<R: readduo_rng::Rng + ?Sized>(
        &mut self,
        data: &[u8],
        cfg: &MetricConfig,
        rng: &mut R,
    ) -> u32 {
        assert_eq!(data.len(), self.bytes, "data length must match line size");
        let cell_data = bytes_to_cell_data(data);
        for (slot, bits) in self.cells.iter_mut().zip(cell_data) {
            let level = CellLevel::from_data(bits);
            match slot {
                Some(c) => c.reprogram(level, cfg, rng),
                None => *slot = Some(MlcCell::program(level, cfg, rng)),
            }
        }
        self.cells.len() as u32
    }

    /// Differential write: programs only the cells whose *stored level*
    /// differs from the new data (plus unprogrammed cells). Returns the
    /// number of cells actually written.
    ///
    /// Note the hazard the paper's Figure 6 describes: cells that are *not*
    /// rewritten keep their old (partially drifted) physics, so the line's
    /// resistance distribution is no longer fresh — exactly why plain
    /// differential write is unsafe without ReadDuo-Select's bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the line size.
    pub fn program_differential<R: readduo_rng::Rng + ?Sized>(
        &mut self,
        data: &[u8],
        cfg: &MetricConfig,
        rng: &mut R,
    ) -> u32 {
        assert_eq!(data.len(), self.bytes, "data length must match line size");
        let cell_data = bytes_to_cell_data(data);
        let mut written = 0u32;
        for (slot, bits) in self.cells.iter_mut().zip(cell_data) {
            let level = CellLevel::from_data(bits);
            match slot {
                Some(c) if c.level() == level => {}
                Some(c) => {
                    c.reprogram(level, cfg, rng);
                    written += 1;
                }
                None => {
                    *slot = Some(MlcCell::program(level, cfg, rng));
                    written += 1;
                }
            }
        }
        written
    }

    /// Senses every cell `elapsed` seconds after its last write under `cfg`
    /// and reassembles the bytes.
    ///
    /// All cells share one elapsed time, so the drift is evaluated as a
    /// batched kernel: the `log10` is hoisted to one [`drift_exponent`]
    /// call and the per-cell metrics come out of [`log_metric_at_slice`].
    /// Bit-identical to sensing each cell with [`MlcCell::sense_at`].
    pub fn sense(&self, elapsed: f64, cfg: &MetricConfig) -> SensedLine {
        let u = drift_exponent(elapsed, cfg.t0());
        let n = self.cells.len();
        let mut log_x0 = vec![0.0; n];
        let mut alpha = vec![0.0; n];
        for ((slot, x0), a) in self.cells.iter().zip(&mut log_x0).zip(&mut alpha) {
            if let Some(c) = slot {
                *x0 = c.log_x0();
                *a = c.alpha();
            }
        }
        let mut metric = vec![0.0; n];
        log_metric_at_slice(&log_x0, &alpha, u, &mut metric);
        let mut cell_bits = Vec::with_capacity(n);
        let mut drift_errors = 0u32;
        let mut bit_errors = 0u32;
        for (slot, &x) in self.cells.iter().zip(&metric) {
            match slot {
                Some(c) => {
                    let sensed = cfg.sense_level(x);
                    if sensed != c.level() {
                        drift_errors += 1;
                        bit_errors += c.level().bit_errors_if_read_as(sensed);
                    }
                    cell_bits.push(sensed.data());
                }
                None => cell_bits.push(0),
            }
        }
        SensedLine {
            data: cell_data_to_bytes(&cell_bits),
            drift_errors,
            bit_errors,
        }
    }

    /// Counts cells currently in drift error at `elapsed` seconds without
    /// materialising the data (fast path for scrubbing).
    ///
    /// Uses the same hoisted-exponent batched kernel as [`Self::sense`].
    pub fn count_drift_errors(&self, elapsed: f64, cfg: &MetricConfig) -> u32 {
        let u = drift_exponent(elapsed, cfg.t0());
        let mut log_x0 = Vec::with_capacity(self.cells.len());
        let mut alpha = Vec::with_capacity(self.cells.len());
        let mut levels = Vec::with_capacity(self.cells.len());
        for c in self.cells.iter().flatten() {
            log_x0.push(c.log_x0());
            alpha.push(c.alpha());
            levels.push(c.level());
        }
        let mut metric = vec![0.0; log_x0.len()];
        log_metric_at_slice(&log_x0, &alpha, u, &mut metric);
        metric
            .iter()
            .zip(&levels)
            .filter(|&(&x, &level)| cfg.sense_level(x) != level)
            .count() as u32
    }

    /// The data the line *should* hold (ground truth from programmed levels).
    pub fn stored_data(&self) -> Vec<u8> {
        let bits: Vec<u8> = self
            .cells
            .iter()
            .map(|slot| slot.map_or(0, |c| c.level().data()))
            .collect();
        cell_data_to_bytes(&bits)
    }

    /// Total programs across all cells (endurance accounting).
    pub fn total_cell_writes(&self) -> u64 {
        self.cells.iter().flatten().map(|c| c.writes()).sum()
    }

    /// Iterates over programmed cells.
    pub fn iter(&self) -> impl Iterator<Item = &MlcCell> {
        self.cells.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn program_sense_round_trip_fresh() {
        let cfg = MetricConfig::r_metric();
        let mut rng = rng();
        let mut line = MlcLine::new(64);
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        assert_eq!(line.program(&data, &cfg, &mut rng), 256);
        let s = line.sense(1.0, &cfg);
        assert_eq!(s.data, data);
        assert_eq!(s.drift_errors, 0);
        assert_eq!(s.bit_errors, 0);
        assert_eq!(line.stored_data(), data);
    }

    #[test]
    fn unprogrammed_line_reads_zero() {
        let cfg = MetricConfig::r_metric();
        let line = MlcLine::new(8);
        let s = line.sense(100.0, &cfg);
        assert_eq!(s.data, vec![0u8; 8]);
        assert_eq!(s.drift_errors, 0);
    }

    #[test]
    fn differential_write_touches_only_changed_cells() {
        let cfg = MetricConfig::r_metric();
        let mut rng = rng();
        let mut line = MlcLine::new(4);
        let a = vec![0b_01_01_01_01u8; 4]; // all cells level L0
        line.program(&a, &cfg, &mut rng);
        // Flip the first cell of the first byte to L3 ('00').
        let mut b = a.clone();
        b[0] = 0b_00_01_01_01;
        let written = line.program_differential(&b, &cfg, &mut rng);
        assert_eq!(written, 1);
        assert_eq!(line.stored_data(), b);
        // Full write rewrites all 16 cells.
        assert_eq!(line.program(&b, &cfg, &mut rng), 16);
    }

    #[test]
    fn drift_errors_accumulate_with_age_r_metric() {
        let cfg = MetricConfig::r_metric();
        let mut rng = rng();
        let mut line = MlcLine::new(64);
        // Use data that exercises middle levels heavily.
        let data = vec![0b_11_10_11_10u8; 64]; // levels L1/L2 alternating
        line.program(&data, &cfg, &mut rng);
        let e_1s = line.count_drift_errors(1.0, &cfg);
        let e_1h = line.count_drift_errors(3600.0, &cfg);
        let e_1d = line.count_drift_errors(86_400.0, &cfg);
        assert_eq!(e_1s, 0);
        assert!(e_1h <= e_1d, "errors are monotone: {e_1h} <= {e_1d}");
        // After a day, middle-state cells with high alpha have crossed.
        assert!(e_1d > 0, "expected some drift errors after a day");
    }

    #[test]
    fn m_metric_line_stays_clean_much_longer() {
        let r = MetricConfig::r_metric();
        let m = MetricConfig::m_metric();
        let mut rng_r = StdRng::seed_from_u64(5);
        let mut rng_m = StdRng::seed_from_u64(5);
        let data = vec![0b_11_10_11_10u8; 64];
        let mut line_r = MlcLine::new(64);
        let mut line_m = MlcLine::new(64);
        line_r.program(&data, &r, &mut rng_r);
        line_m.program(&data, &m, &mut rng_m);
        // Average over several lines to avoid flakiness.
        let mut err_r = 0;
        let mut err_m = 0;
        for _ in 0..10 {
            line_r.program(&data, &r, &mut rng_r);
            line_m.program(&data, &m, &mut rng_m);
            err_r += line_r.count_drift_errors(640.0, &r);
            err_m += line_m.count_drift_errors(640.0, &m);
        }
        assert!(
            err_m * 10 < err_r.max(1),
            "M-metric ({err_m}) should be far below R-metric ({err_r}) at 640 s"
        );
    }

    #[test]
    fn bit_errors_bounded_by_twice_cell_errors() {
        let cfg = MetricConfig::r_metric();
        let mut rng = rng();
        let mut line = MlcLine::new(64);
        line.program(&[0b_10_10_10_10u8; 64], &cfg, &mut rng);
        let s = line.sense(1e6, &cfg);
        assert!(s.bit_errors >= s.drift_errors);
        assert!(s.bit_errors <= 2 * s.drift_errors);
    }

    #[test]
    fn total_cell_writes_tracks_programs() {
        let cfg = MetricConfig::r_metric();
        let mut rng = rng();
        let mut line = MlcLine::new(2);
        let d = vec![0xFFu8; 2];
        line.program(&d, &cfg, &mut rng);
        line.program(&d, &cfg, &mut rng);
        assert_eq!(line.total_cell_writes(), 16);
    }

    #[test]
    #[should_panic(expected = "match line size")]
    fn wrong_data_length_rejected() {
        let cfg = MetricConfig::r_metric();
        let mut r = rng();
        let mut line = MlcLine::new(64);
        line.program(&[0u8; 32], &cfg, &mut r);
    }
}

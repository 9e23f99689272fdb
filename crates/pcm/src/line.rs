//! A 64-byte memory line of MLC cells.

use crate::cell::MlcCell;
use crate::drift::{drift_exponent, log_metric_at_u};
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
            *slot = Some(MlcCell::program(CellLevel::from_data(bits), cfg, rng));
        }
        self.cells.len() as u32
    }

    /// Senses every cell `elapsed` seconds after its last write under `cfg`
    /// and reassembles the bytes.
    ///
    /// All cells share one elapsed time, so the `log10` is hoisted to one
    /// [`drift_exponent`] call and each cell's metric is
    /// [`log_metric_at_u`] of it. Bit-identical to sensing each cell with
    /// [`MlcCell::sense_at`].
    pub fn sense(&self, elapsed: f64, cfg: &MetricConfig) -> SensedLine {
        let u = drift_exponent(elapsed, cfg.t0());
        let mut cell_bits = Vec::with_capacity(self.cells.len());
        let mut drift_errors = 0u32;
        let mut bit_errors = 0u32;
        for slot in &self.cells {
            match slot {
                Some(c) => {
                    let sensed = cfg.sense_level(log_metric_at_u(c.log_x0(), c.alpha(), u));
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
    /// Hoists the drift exponent as [`Self::sense`] does.
    pub fn count_drift_errors(&self, elapsed: f64, cfg: &MetricConfig) -> u32 {
        let u = drift_exponent(elapsed, cfg.t0());
        self.cells
            .iter()
            .flatten()
            .filter(|c| cfg.sense_level(log_metric_at_u(c.log_x0(), c.alpha(), u)) != c.level())
            .count() as u32
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
    #[should_panic(expected = "match line size")]
    fn wrong_data_length_rejected() {
        let cfg = MetricConfig::r_metric();
        let mut r = rng();
        let mut line = MlcLine::new(64);
        line.program(&[0u8; 32], &cfg, &mut r);
    }
}

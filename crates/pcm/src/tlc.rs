//! The Tri-Level-Cell (TLC) baseline \[26\].
//!
//! TLC removes the most drift-prone of the four MLC levels, trading storage
//! density for reliability: with the worst middle state gone, the remaining
//! three states have wide margins and meet DRAM reliability with no
//! scrubbing at all, but each cell now stores only log₂3 ≈ 1.585 bits, and
//! data must be (de)composed through base-3 group coding.

use crate::params::MetricConfig;
use crate::state::CellLevel;

/// Configuration of the tri-level-cell scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct TlcConfig {
    /// The retained levels (three of the four MLC levels).
    retained: [CellLevel; 3],
    /// Underlying metric parameters (R-metric: TLC still current-senses).
    metric: MetricConfig,
}

impl TlcConfig {
    /// The paper's TLC: drop level 2 (`10`), the most drift-prone state —
    /// it has both a high drift coefficient (μ_α = 0.06) and an upper
    /// neighbour to drift into. Level 3 has a higher α but no upper
    /// neighbour, so it cannot produce drift errors.
    pub fn paper() -> Self {
        Self {
            retained: [CellLevel::L0, CellLevel::L1, CellLevel::L3],
            metric: MetricConfig::r_metric(),
        }
    }

    /// The retained levels, lowest first.
    pub fn retained_levels(&self) -> &[CellLevel; 3] {
        &self.retained
    }

    /// Underlying metric configuration.
    pub fn metric(&self) -> &MetricConfig {
        &self.metric
    }

    /// The effective log10 gap a retained L1 cell must drift to be misread:
    /// from its programmed top to the *lower boundary of L3* (since L2 is
    /// unused, the reference between L1 and L3 moves to the middle of the
    /// vacated range).
    pub fn effective_guard_band(&self) -> f64 {
        let l1 = self.metric.level(CellLevel::L1);
        let l3 = self.metric.level(CellLevel::L3);
        // Reference midway between L1's upper boundary and L3's lower one.
        let reference = 0.5 * (l1.upper_boundary() + l3.lower_boundary());
        reference - (l1.mu + crate::params::PROGRAM_WIDTH_SIGMAS * l1.sigma)
    }

    /// Bits stored per cell (log₂ 3).
    pub fn bits_per_cell(&self) -> f64 {
        3f64.log2()
    }

    /// Number of tri-level cells needed to store `bits` bits with base-3
    /// group coding: groups of 3 cells hold 27 symbols ≥ 2⁴, so practical
    /// designs pack 4 bits per 3-cell group (paper \[26\] packing).
    ///
    /// ```
    /// use readduo_pcm::TlcConfig;
    /// // 576 bits (512 data + SECDED) → 432 cells.
    /// assert_eq!(TlcConfig::paper().cells_for_bits(576), 432);
    /// ```
    pub fn cells_for_bits(&self, bits: usize) -> usize {
        // 3 cells per 4 bits, rounded up to whole groups.
        let groups = bits.div_ceil(4);
        groups * 3
    }

    /// Encodes a nibble stream into tri-level symbols (4 bits → 3 cells).
    ///
    /// Returned symbols index into [`retained_levels`].
    ///
    /// [`retained_levels`]: TlcConfig::retained_levels
    pub fn encode_nibble(&self, nibble: u8) -> [u8; 3] {
        assert!(nibble < 16, "nibble must be 4 bits, got {nibble}");
        // Base-3 expansion of 0..16 fits in 3 trits (max 26).
        let mut v = nibble;
        let mut out = [0u8; 3];
        for slot in &mut out {
            *slot = v % 3;
            v /= 3;
        }
        out
    }

    /// Decodes 3 tri-level symbols back into a nibble.
    ///
    /// Returns `None` if the trit group decodes above 15 (corrupt).
    pub fn decode_trits(&self, trits: [u8; 3]) -> Option<u8> {
        for &t in &trits {
            assert!(t < 3, "trit must be in 0..3, got {t}");
        }
        let v = trits[0] as u16 + 3 * trits[1] as u16 + 9 * trits[2] as u16;
        if v < 16 {
            Some(v as u8)
        } else {
            None
        }
    }
}

impl Default for TlcConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retained_levels_skip_l2() {
        let t = TlcConfig::paper();
        assert_eq!(
            t.retained_levels(),
            &[CellLevel::L0, CellLevel::L1, CellLevel::L3]
        );
    }

    #[test]
    fn guard_band_is_much_wider_than_mlc() {
        let t = TlcConfig::paper();
        let mlc_guard = t.metric().guard_band(CellLevel::L1);
        let tlc_guard = t.effective_guard_band();
        assert!(
            tlc_guard > 10.0 * mlc_guard,
            "tlc {tlc_guard} vs mlc {mlc_guard}"
        );
    }

    #[test]
    fn nibble_coding_round_trips() {
        let t = TlcConfig::paper();
        for n in 0..16u8 {
            let trits = t.encode_nibble(n);
            assert_eq!(t.decode_trits(trits), Some(n));
        }
    }

    #[test]
    fn corrupt_trits_detected() {
        let t = TlcConfig::paper();
        // 2 + 3*2 + 9*2 = 26 > 15.
        assert_eq!(t.decode_trits([2, 2, 2]), None);
    }

    #[test]
    fn cell_counts() {
        let t = TlcConfig::paper();
        assert_eq!(t.cells_for_bits(4), 3);
        assert_eq!(t.cells_for_bits(5), 6);
        assert_eq!(t.cells_for_bits(512), 384);
        assert!((t.bits_per_cell() - 1.5849625007211562).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "4 bits")]
    fn oversized_nibble_rejected() {
        let _ = TlcConfig::paper().encode_nibble(16);
    }
}

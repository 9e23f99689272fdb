//! Cell wear-out: lognormal cycles-to-failure endurance and stuck-at
//! failure values.
//!
//! PCM cells endure a finite number of RESET/SET program cycles —
//! typically 10⁷–10⁸ — before the heater or the chalcogenide degrades and
//! the cell fails *hard*, stuck at one extreme level (stuck-at-SET when
//! the cell can no longer be amorphised, stuck-at-RESET when it can no
//! longer be crystallised). Unlike drift, wear-out is permanent: no
//! rewrite ever fixes a dead cell.
//!
//! This module supplies the *per-cell ground truth* for the wear
//! subsystem: given a line, a cell index and a remap generation, it
//! answers "after how many program cycles does this cell die?", "which
//! level is it stuck at?" and "which level was it *supposed* to hold?" —
//! all as pure hash functions of a seed, so the answers are identical
//! whatever order the simulator asks in. That order-independence is what
//! lets the sharded engine and the sequential reference agree bit for bit
//! while wearing lines out in different interleavings.
//!
//! Endurance is drawn from a lognormal distribution (the standard
//! empirical model for PCM cycles-to-failure): `N = median ·
//! exp(σ·Φ⁻¹(u))` with `u` a per-cell uniform derived by hashing. There
//! is no RNG stream to advance and nothing to allocate. One endurance
//! costs a hash plus `Φ⁻¹`, whose `inverse_erf` runs eight Newton steps
//! of an `erf` and an `exp` each; [`WearModel::weakest_cell`] finds a
//! line's first cell to fail from the hashes and inverts only the few
//! cells that can tie for it.

use crate::state::CellLevel;
use readduo_math::Normal;

/// `2⁵³`: the number of distinct endurance keys (53-bit hashed uniforms).
const KEY_SPACE: f64 = (1u64 << 53) as f64;

/// Lognormal shape parameter of the cycles-to-failure distribution, in
/// natural-log space. σ = 0.45 puts the weakest cell of a 296-cell line
/// near `median · e^{-2.8σ} ≈ 0.28 × median` — a realistic factor-of-3.5
/// spread between the weakest and the typical cell.
pub const ENDURANCE_SIGMA_LN: f64 = 0.45;

/// Default median cycles-to-failure (10⁷ — the conservative end of the
/// 10⁷–10⁸ range the literature quotes for MLC PCM).
pub const ENDURANCE_MEDIAN_DEFAULT: u64 = 10_000_000;

/// SplitMix64 finalizer: a full-avalanche 64-bit hash.
///
/// Same construction the line-state table uses to spread keys; here it
/// turns `(seed, line, cell, generation)` into independent deviates.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Per-cell wear-out ground truth, derived by hashing.
///
/// Every query is a pure function of `(seed, line, cell, generation)`:
/// deterministic, order-independent, allocation-free. `generation` is the
/// line's remap count — a spare line mapped in after a remap is fresh
/// silicon, so all its per-cell draws re-roll.
#[derive(Debug, Clone, Copy)]
pub struct WearModel {
    seed: u64,
    median_cycles: u64,
    sigma_ln: f64,
}

impl WearModel {
    /// A wear model with the given seed and median cycles-to-failure.
    pub fn new(seed: u64, median_cycles: u64) -> Self {
        Self {
            seed,
            median_cycles: median_cycles.max(1),
            sigma_ln: ENDURANCE_SIGMA_LN,
        }
    }

    /// The median of the cycles-to-failure distribution.
    pub fn median_cycles(&self) -> u64 {
        self.median_cycles
    }

    /// Hash of one `(line, cell, generation, stream)` coordinate.
    fn h(&self, line: u64, cell: u32, generation: u32, stream: u64) -> u64 {
        let a = mix(self.seed ^ mix(line) ^ stream);
        mix(a ^ ((u64::from(generation) << 32) | u64::from(cell)))
    }

    /// Program cycles after which `cell` of `line` fails, in `1..`.
    ///
    /// Lognormal: `median · exp(σ · Φ⁻¹(u))` with `u` hashed from the
    /// cell's coordinates. The top 11 bits of the hash are discarded to
    /// build a uniform in the open interval (0, 1) — `Φ⁻¹` rejects the
    /// endpoints.
    pub fn endurance_cycles(&self, line: u64, cell: u32, generation: u32) -> u64 {
        self.cycles_at_key(self.endurance_key(line, cell, generation))
    }

    /// The 53-bit hashed uniform behind `cell`'s endurance.
    fn endurance_key(&self, line: u64, cell: u32, generation: u32) -> u64 {
        self.h(line, cell, generation, 0x57EA_12D0) >> 11
    }

    /// The endurance of a cell whose key is `key`: nondecreasing in `key`
    /// up to the rounding of `Φ⁻¹`, which [`tie_window`](Self::tie_window)
    /// bounds.
    fn cycles_at_key(&self, key: u64) -> u64 {
        // 53 mantissa bits, offset by half an ulp: u ∈ (0, 1) strictly.
        let u = (key as f64 + 0.5) / KEY_SPACE;
        let z = Normal::standard().quantile(u);
        let n = self.median_cycles as f64 * (self.sigma_ln * z).exp();
        (n.max(1.0)).min(u64::MAX as f64) as u64
    }

    /// How far above the key of a cell with endurance `cycles` another
    /// key must lie for its endurance to be certainly larger.
    ///
    /// `N(u) = median·exp(σ·Φ⁻¹(u))` grows at least `N·σ·√(2π)` per unit
    /// of `u` (`Φ⁻¹` has slope `1/φ ≥ √(2π)`), so keys
    /// `(4/cycles + 1e-9)/(σ√(2π))·2⁵³` apart lie at least 9e-10 apart in
    /// `u` and differ by more than four whole cycles plus a relative 1e-9.
    /// That
    /// covers rounding to whole cycles, `exp`'s ~1e-15 relative error and
    /// `Φ⁻¹`'s, which acts like a shift of a few ulp in `u`, many times
    /// over. At `cycles == 1` the clamp flattens `N`, and the window (over
    /// 2⁵³ keys) spans every cell.
    fn tie_window(&self, cycles: u64) -> u64 {
        let du = (4.0 / cycles as f64 + 1e-9)
            / (self.sigma_ln * (2.0 * std::f64::consts::PI).sqrt());
        if du >= 1.0 {
            u64::MAX
        } else {
            (du * KEY_SPACE).ceil() as u64
        }
    }

    /// The first cell of `line` at `generation` to fail: the smallest
    /// endurance among cells `0..cells` not in `dead` (ascending), lowest
    /// index on ties — `(u64::MAX, 0)` when no live cell can fail.
    ///
    /// Equal to scanning [`endurance_cycles`](Self::endurance_cycles) over
    /// every live cell, at the cost of the hashes plus the inversions of
    /// the cells whose keys lie within [`tie_window`](Self::tie_window)
    /// of the smallest key — usually that cell alone.
    pub fn weakest_cell(&self, line: u64, generation: u32, cells: u32, dead: &[u16]) -> (u64, u32) {
        let live: Vec<(u32, u64)> = (0..cells)
            .filter(|&cell| dead.binary_search(&(cell as u16)).is_err())
            .map(|cell| (cell, self.endurance_key(line, cell, generation)))
            .collect();
        let Some(min_key) = live.iter().map(|&(_, key)| key).min() else {
            return (u64::MAX, 0);
        };
        let limit = min_key.saturating_add(self.tie_window(self.cycles_at_key(min_key)));
        let mut best = (u64::MAX, 0u32);
        for &(cell, key) in &live {
            if key <= limit {
                let n = self.cycles_at_key(key);
                if n < best.0 {
                    best = (n, cell);
                }
            }
        }
        best
    }

    /// The level a dead cell is stuck at: fully crystalline (stuck-at-SET,
    /// `L0`) or fully amorphous (stuck-at-RESET, `L3`), by a hash bit.
    pub fn stuck_level(&self, line: u64, cell: u32, generation: u32) -> CellLevel {
        if self.h(line, cell, generation, 0x57AC_4B17) & 1 == 0 {
            CellLevel::L0
        } else {
            CellLevel::L3
        }
    }

    /// The level `cell` was *meant* to hold after the line's `epoch`-th
    /// program (the simulator carries no data contents, so intended data
    /// is drawn uniformly — the same occupancy the drift fault model and
    /// the analytic error model assume). Stable between writes: reads at
    /// the same epoch see the same intent, so write-verify and every
    /// subsequent read agree about which stuck bits are wrong.
    pub fn intended_level(&self, line: u64, cell: u32, generation: u32, epoch: u64) -> CellLevel {
        let h = self.h(line, cell, generation, 0x1D7E_4D00 ^ mix(epoch));
        CellLevel::from_index((h & 0b11) as usize)
    }

    /// Appends the codeword bit positions of `cell` that a stuck cell
    /// reads back *wrong* at this epoch, and separately the positions it
    /// occupies at all (the erasure hint handed to the decoder).
    ///
    /// Bit layout matches the drift fault model: cell `i` holds codeword
    /// bits `2i` (high) and `2i + 1` (low); wrong bits are the Gray-code
    /// difference between the intended and the stuck data patterns.
    pub fn push_stuck_bits(
        &self,
        wrong: &mut Vec<u16>,
        erased: &mut Vec<u16>,
        line: u64,
        cell: u32,
        generation: u32,
        epoch: u64,
    ) {
        let intended = self.intended_level(line, cell, generation, epoch);
        let stuck = self.stuck_level(line, cell, generation);
        let diff = intended.data() ^ stuck.data();
        let base = (cell as u16) * 2;
        if diff & 0b10 != 0 {
            wrong.push(base);
        }
        if diff & 0b01 != 0 {
            wrong.push(base + 1);
        }
        erased.push(base);
        erased.push(base + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endurance_is_deterministic_and_order_free() {
        let m = WearModel::new(9, 1_000_000);
        let a = m.endurance_cycles(42, 17, 0);
        // Query other cells in between: answers must not move.
        let _ = m.endurance_cycles(41, 0, 0);
        let _ = m.endurance_cycles(42, 18, 1);
        assert_eq!(m.endurance_cycles(42, 17, 0), a);
    }

    #[test]
    fn endurance_tracks_the_median() {
        let m = WearModel::new(3, 10_000_000);
        let mut above = 0u32;
        for cell in 0..296 {
            if m.endurance_cycles(7, cell, 0) > 10_000_000 {
                above += 1;
            }
        }
        // Median of a lognormal: about half the draws above it.
        assert!((100..=196).contains(&above), "median off: {above}/296 above");
    }

    #[test]
    fn generation_rerolls_endurance() {
        let m = WearModel::new(5, 1_000_000);
        let gens: Vec<u64> = (0..4).map(|g| m.endurance_cycles(3, 0, g)).collect();
        assert!(gens.windows(2).any(|w| w[0] != w[1]), "remap must re-roll");
    }

    #[test]
    fn stuck_levels_are_extremes_and_mixed() {
        let m = WearModel::new(11, 1_000_000);
        let (mut set, mut reset) = (0, 0);
        for cell in 0..296 {
            match m.stuck_level(1, cell, 0) {
                CellLevel::L0 => set += 1,
                CellLevel::L3 => reset += 1,
                other => panic!("stuck at intermediate level {other}"),
            }
        }
        assert!(set > 50 && reset > 50, "both polarities occur: {set}/{reset}");
    }

    #[test]
    fn intended_level_is_stable_within_an_epoch_and_rerolls_across() {
        let m = WearModel::new(2, 1_000_000);
        let a = m.intended_level(5, 9, 0, 14);
        assert_eq!(m.intended_level(5, 9, 0, 14), a);
        let rolls: Vec<CellLevel> = (0..8).map(|e| m.intended_level(5, 9, 0, e)).collect();
        assert!(rolls.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn stuck_bits_match_the_gray_difference() {
        let m = WearModel::new(1, 1_000_000);
        for cell in 0..64u32 {
            for epoch in 0..4u64 {
                let (mut wrong, mut erased) = (Vec::new(), Vec::new());
                m.push_stuck_bits(&mut wrong, &mut erased, 8, cell, 0, epoch);
                assert_eq!(erased, vec![cell as u16 * 2, cell as u16 * 2 + 1]);
                let intended = m.intended_level(8, cell, 0, epoch);
                let stuck = m.stuck_level(8, cell, 0);
                assert_eq!(wrong.len() as u32, intended.bit_errors_if_read_as(stuck));
                assert!(wrong.iter().all(|b| erased.contains(b)));
            }
        }
    }
}

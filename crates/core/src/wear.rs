//! The wear-out controller: write-verify retry, stuck-cell tracking and
//! graceful degradation through spare-line remapping.
//!
//! [`readduo_pcm::WearModel`] supplies the per-cell ground truth (when a
//! cell dies, what it is stuck at, what it was meant to hold); this module
//! supplies the *controller* that every scheme shares:
//!
//! * each program of a line charges wear cycles; when a cell's endurance
//!   runs out mid-write, the write-verify pass catches it, re-pulses the
//!   cell [`VERIFY_RETRIES`] times (latency and energy
//!   folded into the [`WriteOutcome`]), and then declares the cell dead;
//! * dead cells read back stuck at an extreme level — the wrong bits flow
//!   into the fault injector's decode as persistent errors, with their
//!   positions handed to the BCH decoder as **erasure hints**
//!   ([`readduo_ecc::Bch::decode_error_pattern_with_erasures`]);
//! * when a line accumulates more than [`WearConfig::margin_cells`] dead
//!   cells its correctable margin is gone: the controller remaps it to a
//!   spare line (fresh silicon, re-rolled endurance), charging the remap
//!   latency, until the spare pool is exhausted — after which the line
//!   soldiers on and its fate rests with the erasure-aware decoder.
//!
//! Everything is deterministic: per-cell draws are pure hashes (no RNG
//! stream to keep in sync), the remap order is the order programs arrive
//! on the owning channel, and a table that never sees a failure allocates
//! nothing after its lines are first materialised. With wear disabled the
//! subsystem does not exist (`Option<WearTable>` is `None`) and every
//! scheme is bit-for-bit its pre-wear self.

use crate::common::FULL_LINE_CELLS;
use readduo_memsim::{EnergyModel, WriteOutcome};
use readduo_pcm::{DeviceParams, WearModel, ENDURANCE_MEDIAN_DEFAULT};
use std::collections::HashMap;

/// Write-verify retries a dying cell gets before it is declared dead.
pub const VERIFY_RETRIES: u32 = 3;

/// Tunables of the wear subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearConfig {
    /// Seed of the per-cell endurance/stuck-value hashes.
    pub seed: u64,
    /// Median cycles-to-failure of the lognormal endurance distribution.
    pub median_cycles: u64,
    /// Wear cycles charged per program — the accelerated-aging factor the
    /// lifetime sweep varies. 1 is real time; 10⁵ compresses a 10⁷-cycle
    /// median into ~100 writes.
    pub accel: u64,
    /// Spare lines available for remapping, per device/channel.
    pub spare_lines: u32,
    /// Dead cells a line tolerates before it is remapped. BCH-8 with
    /// erasure hints always corrects `errors + erasures ≤ 8` wrong bits;
    /// two dead cells pin at most 4 erased bits, leaving half the budget
    /// for drift.
    pub margin_cells: u32,
}

impl WearConfig {
    /// Defaults: the conservative literature endurance, 64 spares and a
    /// 2-dead-cell margin, at real-time wear.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            median_cycles: ENDURANCE_MEDIAN_DEFAULT,
            accel: 1,
            spare_lines: 64,
            margin_cells: 2,
        }
    }

    /// The same configuration at a different accelerated-aging factor.
    pub fn with_accel(mut self, accel: u64) -> Self {
        self.accel = accel.max(1);
        self
    }
}

/// Per-line wear state, materialised on the line's first program.
#[derive(Debug, Clone)]
struct LineWear {
    /// Program cycles charged to the current physical line (resets on
    /// remap — the spare is fresh silicon).
    wear: u64,
    /// Remap count: generation `g` salts every per-cell hash, so a spare
    /// draws independent endurances and stuck values.
    generation: u32,
    /// Program epoch, salting the intended-data draw: reads between two
    /// programs agree about which stuck bits are wrong.
    epoch: u64,
    /// Dead cell indices, ascending.
    stuck: Vec<u16>,
    /// Smallest endurance among still-live cells (`u64::MAX` when none).
    next_fail_wear: u64,
    /// The cell that endurance belongs to.
    next_fail_cell: u32,
}

/// One device's wear controller: lazily materialised per-line state, the
/// spare pool, and the remap log.
#[derive(Debug, Clone)]
pub struct WearTable {
    model: WearModel,
    cfg: WearConfig,
    lines: HashMap<u64, LineWear>,
    spares_left: u32,
    remap_log: Vec<u64>,
    /// Reusable scratch for [`stuck_read`](Self::stuck_read).
    wrong: Vec<u16>,
    erased: Vec<u16>,
}

impl WearTable {
    /// A fresh controller over `cfg`.
    pub fn new(cfg: WearConfig) -> Self {
        Self {
            model: WearModel::new(cfg.seed, cfg.median_cycles),
            cfg,
            lines: HashMap::new(),
            spares_left: cfg.spare_lines,
            remap_log: Vec::new(),
            wrong: Vec::new(),
            erased: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WearConfig {
        &self.cfg
    }

    /// Spare lines still available.
    pub fn spares_left(&self) -> u32 {
        self.spares_left
    }

    /// Remapped line addresses, in remap order. Deterministic: programs
    /// arrive in the owning channel's event order, which is identical for
    /// the sharded and the sequential-reference executors.
    pub fn remap_log(&self) -> &[u64] {
        &self.remap_log
    }

    /// Dead cells currently stuck on `line` (0 for lines never programmed
    /// or just remapped).
    pub fn stuck_cells(&self, line: u64) -> u32 {
        self.lines.get(&line).map_or(0, |lw| lw.stuck.len() as u32)
    }

    /// Charges one program of `line` against its cells' endurance and
    /// folds the consequences into `out`: verify retries for each cell
    /// that died mid-write, the remap (or the failed remap attempt) when
    /// the line overruns its dead-cell margin.
    pub fn apply_program(
        &mut self,
        line: u64,
        params: &DeviceParams,
        energy: &EnergyModel,
        out: &mut WriteOutcome,
    ) {
        if !self.lines.contains_key(&line) {
            let (w, c) = self.model.weakest_cell(line, 0, FULL_LINE_CELLS, &[]);
            self.lines.insert(
                line,
                LineWear {
                    wear: 0,
                    generation: 0,
                    epoch: 0,
                    stuck: Vec::new(),
                    next_fail_wear: w,
                    next_fail_cell: c,
                },
            );
        }
        let lw = self.lines.get_mut(&line).expect("materialised above");
        lw.epoch += 1;
        lw.wear = lw.wear.saturating_add(self.cfg.accel);
        let mut deaths = 0u32;
        while lw.next_fail_wear <= lw.wear {
            // The verify pass after the program pulse reads this cell back
            // wrong; the controller re-pulses it `VERIFY_RETRIES` times
            // (each a full program-and-verify round) before giving up.
            let cell = lw.next_fail_cell as u16;
            let at = lw.stuck.partition_point(|&c| c < cell);
            lw.stuck.insert(at, cell);
            deaths += 1;
            let (w, c) =
                self.model.weakest_cell(line, lw.generation, FULL_LINE_CELLS, &lw.stuck);
            lw.next_fail_wear = w;
            lw.next_fail_cell = c;
        }
        if deaths == 0 {
            return;
        }
        let retries = deaths * VERIFY_RETRIES;
        out.verify_retries += retries;
        out.cells_failed += deaths;
        out.latency_ns += u64::from(retries) * params.retry_pulse_ns;
        out.energy_pj +=
            f64::from(retries) * (energy.write_cell_pj + energy.r_read_pj);
        if lw.stuck.len() as u32 > self.cfg.margin_cells {
            if self.spares_left > 0 {
                // Remap to a spare: fresh silicon, re-rolled endurance.
                self.spares_left -= 1;
                lw.generation += 1;
                lw.wear = 0;
                lw.stuck.clear();
                let (w, c) = self.model.weakest_cell(line, lw.generation, FULL_LINE_CELLS, &[]);
                lw.next_fail_wear = w;
                lw.next_fail_cell = c;
                self.remap_log.push(line);
                out.remapped = true;
                out.latency_ns += params.remap_ns;
                // Escalated read of the dying line plus the full program
                // of the spare.
                out.energy_pj += energy.r_read_pj
                    + energy.m_read_pj
                    + FULL_LINE_CELLS as f64 * energy.write_cell_pj;
            } else {
                out.spares_exhausted = true;
            }
        }
    }

    /// The stuck-bit view a read of `line` sees *now*: codeword bit
    /// positions that read back wrong, and the full erased-position set
    /// (both bits of every dead cell) handed to the decoder as hints.
    /// Slices borrow internal scratch — consume them before the next call.
    /// Never materialises state: reads of never-programmed lines are free.
    pub fn stuck_read(&mut self, line: u64) -> (&[u16], &[u16]) {
        self.wrong.clear();
        self.erased.clear();
        let model = self.model;
        if let Some(lw) = self.lines.get(&line) {
            for &cell in &lw.stuck {
                model.push_stuck_bits(
                    &mut self.wrong,
                    &mut self.erased,
                    line,
                    u32::from(cell),
                    lw.generation,
                    lw.epoch,
                );
            }
        }
        (&self.wrong, &self.erased)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> WriteOutcome {
        WriteOutcome::basic(1000, FULL_LINE_CELLS, 0, 2960.0)
    }

    fn aggressive(seed: u64) -> WearConfig {
        WearConfig {
            median_cycles: 1000,
            accel: 100,
            spare_lines: 2,
            ..WearConfig::new(seed)
        }
    }

    #[test]
    fn unworn_lines_cost_nothing() {
        let mut t = WearTable::new(WearConfig::new(1));
        let mut out = outcome();
        let base = out;
        for _ in 0..100 {
            t.apply_program(7, &DeviceParams::paper(), &EnergyModel::paper(), &mut out);
        }
        assert_eq!(out, base, "10⁷-median cells survive 100 writes untouched");
        let (wrong, erased) = t.stuck_read(7);
        assert!(wrong.is_empty() && erased.is_empty());
    }

    #[test]
    fn deaths_charge_retries_then_remap_then_exhaust() {
        let params = DeviceParams::paper();
        let energy = EnergyModel::paper();
        let mut t = WearTable::new(aggressive(3));
        let mut remaps = 0u32;
        let mut exhausted = false;
        let mut saw_retry = false;
        for _ in 0..400 {
            let mut out = outcome();
            t.apply_program(5, &params, &energy, &mut out);
            if out.verify_retries > 0 {
                saw_retry = true;
                assert_eq!(out.verify_retries, out.cells_failed * VERIFY_RETRIES);
                assert!(
                    out.latency_ns
                        >= 1000 + u64::from(out.verify_retries) * params.retry_pulse_ns
                );
            }
            remaps += u32::from(out.remapped);
            exhausted |= out.spares_exhausted;
        }
        assert!(saw_retry, "1000-cycle median at accel 100 must kill cells");
        assert_eq!(remaps, 2, "both spares consumed");
        assert!(exhausted, "third margin overrun finds no spare");
        assert_eq!(t.spares_left(), 0);
        assert_eq!(t.remap_log(), &[5, 5]);
        assert!(t.stuck_cells(5) > t.config().margin_cells);
    }

    #[test]
    fn remap_resets_the_line() {
        let params = DeviceParams::paper();
        let energy = EnergyModel::paper();
        let mut t = WearTable::new(aggressive(9));
        loop {
            let mut out = outcome();
            t.apply_program(1, &params, &energy, &mut out);
            if out.remapped {
                break;
            }
        }
        assert_eq!(t.stuck_cells(1), 0, "spare starts with no dead cells");
        let (wrong, erased) = t.stuck_read(1);
        assert!(wrong.is_empty() && erased.is_empty());
    }

    #[test]
    fn wear_is_deterministic_and_order_free() {
        let params = DeviceParams::paper();
        let energy = EnergyModel::paper();
        // Plenty of spares: the shared pool must not be the thing that
        // differentiates the runs below.
        let cfg = WearConfig { spare_lines: 64, ..aggressive(7) };
        let run = |lines: &[u64]| {
            let mut t = WearTable::new(cfg);
            for _ in 0..120 {
                for &l in lines {
                    let mut out = outcome();
                    t.apply_program(l, &params, &energy, &mut out);
                }
            }
            (t.remap_log().to_vec(), t.spares_left())
        };
        assert_eq!(run(&[3, 4]), run(&[3, 4]), "same order, same log");
        // Per-line state is hash-derived, so a line's failure schedule
        // does not depend on what other lines did in between (as long as
        // the spare pool holds out).
        let solo_3: Vec<u64> = run(&[3]).0;
        let mixed: Vec<u64> = run(&[3, 4]).0.into_iter().filter(|&l| l == 3).collect();
        assert_eq!(solo_3, mixed, "line 3's remap schedule is line-local");
    }

    #[test]
    fn stuck_reads_expose_wrong_bits_with_erasure_hints() {
        let params = DeviceParams::paper();
        let energy = EnergyModel::paper();
        let mut t = WearTable::new(WearConfig {
            margin_cells: 100, // never remap: accumulate stuck cells
            ..aggressive(5)
        });
        for _ in 0..300 {
            let mut out = outcome();
            t.apply_program(2, &params, &energy, &mut out);
        }
        let n = t.stuck_cells(2);
        assert!(n >= 2, "expected several dead cells, got {n}");
        let (wrong, erased) = t.stuck_read(2);
        assert_eq!(erased.len() as u32, 2 * n, "both bits of each dead cell");
        assert!(erased.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(wrong.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(wrong.iter().all(|b| erased.contains(b)));
    }
}

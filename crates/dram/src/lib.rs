//! Hybrid DRAM–PCM tier: a hardware-managed migration cache in front of
//! the PCM line space.
//!
//! ReadDuo's readout schemes are evaluated against bare PCM, but the
//! paper's LWT window and drift-age math change qualitatively once a DRAM
//! tier absorbs the hot working set (MigrantStore is the architectural
//! template). [`TieredDevice`] wraps any scheme's [`DeviceModel`] with a
//! set-associative DRAM cache:
//!
//! * **Promotion on miss** — a line is promoted into DRAM once it has
//!   accumulated [`DramConfig::threshold`] misses (MigrantStore's
//!   migration trigger). Read misses promote *clean* (the fill read
//!   already fetched the data); write misses promote *dirty* with no PCM
//!   access at all (traces are line-granularity, so a write miss is a
//!   full-line write-allocate).
//! * **Dirty demotion writeback** — evicting a dirty victim re-programs
//!   the PCM line through the wrapped scheme's **normal write path**
//!   (`inner.on_write`). That one call is the whole point of the tier:
//!   the scheme resets the line's drift age and LWT tracking exactly as
//!   for a demand write, and the wear subsystem (when enabled) charges
//!   the program pulses. Clean demotions cost nothing at PCM.
//! * **DRAM timing** — hits pay a deterministic row-buffer model
//!   (open-row tracking over [`DRAM_BANKS`] banks, [`ROW_LINES`] lines
//!   per row): row hits cost [`ROW_HIT_NS`] and [`ACCESS_PJ`], row misses
//!   [`ROW_MISS_NS`] and an extra [`ACTIVATE_PJ`]. The engine charges
//!   these through the same bank/bus plumbing as PCM latencies.
//! * **LRU eviction** — an empty way if the set has one, otherwise the
//!   exact least-recently-used way (stamp-based).
//!
//! The tier is strictly opt-in — same discipline as the fault and wear
//! subsystems. It exists only where a `DeviceSpec` carries a
//! [`DramConfig`] (`fig9 --dram-lines N` and `dram_sweep` build one), and
//! a [`DramConfig::lines`] of zero means "no tier": `readduo-core`'s
//! `DeviceSpec::build` then returns the bare scheme device, so disabled
//! runs are bit-for-bit identical to plain runs (values *and* RNG
//! streams — the tier owns no RNG at all; its only nondeterminism input
//! is the set-index hash seed).
//!
//! Everything the tier does is reported through the
//! [`TierOutcome`] carried on each read/write outcome; the engine
//! attributes hits/misses/promotions/demotions/writebacks into
//! `SimReport` (the tier keeps no tally of its own) and emits `dram.*`
//! trace events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use readduo_memsim::device::{
    DeviceModel, ReadMode, ReadOutcome, ScrubOutcome, TierOutcome, WriteOutcome,
};

/// DRAM banks of the row-buffer model (per channel slice).
pub const DRAM_BANKS: usize = 8;

/// Consecutive lines sharing one DRAM row (a 4 KB row of 64 B lines).
pub const ROW_LINES: u64 = 64;

/// DRAM access latency on an open-row hit, ns.
pub const ROW_HIT_NS: u64 = 15;

/// DRAM access latency on a row miss (precharge + activate), ns.
pub const ROW_MISS_NS: u64 = 45;

/// DRAM dynamic energy per access, pJ.
pub const ACCESS_PJ: f64 = 250.0;

/// Extra energy of a row activation, pJ.
pub const ACTIVATE_PJ: f64 = 400.0;

/// Configuration of one DRAM tier (one channel slice when sharded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Salts the set-index hash — this is what `channel_seed` decorrelates
    /// across channel slices. The tier owns no RNG; this is its only
    /// seed-dependent behaviour.
    pub seed: u64,
    /// Capacity in lines. Zero disables the tier entirely
    /// (`DeviceSpec::build` returns the bare scheme device).
    pub lines: u64,
    /// Set associativity (clamped to the capacity).
    pub ways: usize,
    /// Misses a line must accumulate before promotion (>= 1; the
    /// MigrantStore-style migration trigger).
    pub threshold: u32,
}

impl DramConfig {
    /// A tier of `lines` capacity with the default organisation: 8-way,
    /// promotion after 2 misses.
    pub fn new(seed: u64, lines: u64) -> Self {
        Self { seed, lines, ways: 8, threshold: 2 }
    }

    /// Builder: set associativity.
    pub fn with_ways(mut self, ways: usize) -> Self {
        self.ways = ways.max(1);
        self
    }

    /// Builder: migration threshold (clamped to >= 1).
    pub fn with_threshold(mut self, threshold: u32) -> Self {
        self.threshold = threshold.max(1);
        self
    }

    /// This tier's per-channel slice of the total capacity: `lines` is
    /// divided evenly across `channels` (at least one line per slice so a
    /// tiny tier over many channels stays a cache rather than vanishing).
    /// The per-channel *seed* decorrelation is the caller's job (it comes
    /// from `readduo-core`'s `channel_seed`, which this crate sits below).
    pub fn sliced(mut self, channels: usize) -> Self {
        if self.lines > 0 && channels > 1 {
            self.lines = (self.lines / channels as u64).max(1);
        }
        self
    }
}

/// One resident line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    dirty: bool,
    /// LRU stamp (monotone access counter).
    stamp: u64,
}

const EMPTY: u64 = u64::MAX;

impl Slot {
    fn empty() -> Self {
        Slot { line: EMPTY, dirty: false, stamp: 0 }
    }
}

/// A scheme device with a DRAM migration cache in front of it.
///
/// Generic over the wrapped device so engine tests can use stubs;
/// production use wraps `Box<dyn DeviceModel>` (the scheme constructors'
/// return type), which satisfies `DeviceModel` through the blanket boxed
/// impl.
pub struct TieredDevice<D: DeviceModel> {
    inner: D,
    cfg: DramConfig,
    nsets: usize,
    ways: usize,
    /// `nsets * ways` slots, set-major.
    slots: Vec<Slot>,
    /// Monotone access counter (LRU stamps).
    tick: u64,
    /// Miss counts of non-resident lines (cleared on promotion). Unused
    /// at threshold 1, where every miss promotes.
    miss_counts: HashMap<u64, u32>,
    /// Open row per DRAM bank.
    open_rows: [u64; DRAM_BANKS],
}

impl<D: DeviceModel> TieredDevice<D> {
    /// Wraps `inner` with a DRAM tier of configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.lines` is zero — a zero-capacity tier means
    /// "disabled" and the caller must not construct a device for it
    /// (`DeviceSpec::build` returns the bare scheme instead).
    pub fn new(inner: D, cfg: DramConfig) -> Self {
        assert!(cfg.lines > 0, "zero-capacity DRAM tier: build the bare device instead");
        let ways = cfg.ways.max(1).min(cfg.lines as usize).max(1);
        let nsets = (cfg.lines as usize / ways).max(1);
        Self {
            inner,
            cfg,
            nsets,
            ways,
            slots: vec![Slot::empty(); nsets * ways],
            tick: 0,
            miss_counts: HashMap::new(),
            open_rows: [EMPTY; DRAM_BANKS],
        }
    }

    /// Returns the tier unchanged: the tier keeps no per-channel state.
    /// Kept only for callers outside the workspace that still chain it.
    #[doc(hidden)]
    pub fn with_channel(self, _channel: usize) -> Self {
        self
    }

    /// Actual capacity in lines after set/way rounding.
    pub fn capacity_lines(&self) -> u64 {
        (self.nsets * self.ways) as u64
    }

    /// Sorted addresses of the currently resident lines (test
    /// introspection: residency invariants).
    pub fn resident_lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.slots.iter().filter(|s| s.line != EMPTY).map(|s| s.line).collect();
        v.sort_unstable();
        v
    }

    /// The wrapped device (tests).
    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn set_of(&self, line: u64) -> usize {
        // Multiply-xor hash salted by the seed: consecutive lines spread
        // across sets, different channel slices index differently.
        let h = (line ^ self.cfg.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % self.nsets as u64) as usize
    }

    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways;
        (base..base + self.ways).find(|&i| self.slots[i].line == line)
    }

    /// Deterministic row-buffer model: the access latency and energy of
    /// one DRAM cache access.
    fn dram_access(&mut self, line: u64) -> (u64, f64) {
        let row = line / ROW_LINES;
        let bank = (row % DRAM_BANKS as u64) as usize;
        if self.open_rows[bank] == row {
            (ROW_HIT_NS, ACCESS_PJ)
        } else {
            self.open_rows[bank] = row;
            (ROW_MISS_NS, ACCESS_PJ + ACTIVATE_PJ)
        }
    }

    fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.slots[slot].stamp = self.tick;
    }

    /// Picks the victim way of `set`: an empty way if there is one (no
    /// demotion needed), otherwise the least recently used.
    fn victim(&self, set: usize) -> usize {
        let base = set * self.ways;
        if let Some(i) = (base..base + self.ways).find(|&i| self.slots[i].line == EMPTY) {
            return i;
        }
        (base..base + self.ways)
            .min_by_key(|&i| self.slots[i].stamp)
            .expect("non-zero ways")
    }

    /// Promotes `line` into its set (dirty or clean), demoting the victim
    /// if the set is full. Returns the tier bookkeeping of the promotion;
    /// the dirty-victim writeback (if any) has been charged through the
    /// wrapped scheme's write path and its latency is in
    /// `writeback_latency_ns`.
    fn promote(&mut self, line: u64, dirty: bool, now_s: f64) -> TierOutcome {
        let set = self.set_of(line);
        let slot = self.victim(set);
        let mut t = TierOutcome { tiered: true, promotion: true, ..TierOutcome::none() };
        let victim = self.slots[slot];
        if victim.line != EMPTY {
            t.demotion = true;
            if victim.dirty {
                // The tier's raison d'être: the demoted line goes back
                // through the scheme's normal write path, resetting its
                // drift age and LWT state and charging wear.
                let wb = self.inner.on_write(victim.line, now_s);
                t.writeback = true;
                t.writeback_latency_ns = wb.latency_ns;
                t.writeback_cells = wb.cells_written;
                t.writeback_slc_bits = wb.slc_bits_written;
                t.writeback_energy_pj = wb.energy_pj;
                t.writeback_verify_retries = wb.verify_retries;
                t.writeback_cells_failed = wb.cells_failed;
                t.writeback_remapped = wb.remapped;
                t.writeback_spares_exhausted = wb.spares_exhausted;
            }
        }
        self.slots[slot] = Slot { line, dirty, stamp: 0 };
        self.touch(slot);
        // Always empty at threshold 1: skip hashing the line there.
        if !self.miss_counts.is_empty() {
            self.miss_counts.remove(&line);
        }
        t
    }

    /// Counts a miss of `line` and reports whether it crossed the
    /// migration threshold. At threshold 1 every miss crosses, so nothing
    /// is counted.
    fn miss_crosses_threshold(&mut self, line: u64) -> bool {
        if self.cfg.threshold <= 1 {
            return true;
        }
        let c = self.miss_counts.entry(line).or_insert(0);
        *c += 1;
        *c >= self.cfg.threshold
    }
}

impl<D: DeviceModel> DeviceModel for TieredDevice<D> {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let set = self.set_of(line);
        if let Some(slot) = self.find(set, line) {
            self.touch(slot);
            let (lat, pj) = self.dram_access(line);
            // A DRAM hit is a demand read the PCM array never sees: no
            // drift, no escalation — reported as an R-read so it stays in
            // the rm_read_rate denominator.
            let mut out = ReadOutcome::basic(lat, ReadMode::RRead, pj);
            out.tier = TierOutcome { tiered: true, hit: true, ..TierOutcome::none() };
            return out;
        }
        // Miss: PCM services the read (this is also the migration's fill
        // read when the threshold trips).
        let mut out = self.inner.on_read(line, now_s);
        if self.miss_crosses_threshold(line) {
            let mut t = self.promote(line, false, now_s);
            out.latency_ns += t.writeback_latency_ns;
            t.hit = false;
            out.tier = t;
        } else {
            out.tier = TierOutcome { tiered: true, ..TierOutcome::none() };
        }
        out
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        let set = self.set_of(line);
        if let Some(slot) = self.find(set, line) {
            self.slots[slot].dirty = true;
            self.touch(slot);
            let (lat, pj) = self.dram_access(line);
            // Absorbed in DRAM: zero PCM cells programmed — the tier's
            // write-traffic reduction is exactly these writes.
            let mut out = WriteOutcome::basic(lat, 0, 0, pj);
            out.tier = TierOutcome { tiered: true, hit: true, ..TierOutcome::none() };
            return out;
        }
        if self.miss_crosses_threshold(line) {
            // Write-allocate without a fill: traces are line-granularity,
            // so this write supplies the whole line. PCM is not touched;
            // the line lands dirty and is re-programmed on demotion.
            let (lat, pj) = self.dram_access(line);
            let mut t = self.promote(line, true, now_s);
            t.hit = false;
            let mut out = WriteOutcome::basic(lat + t.writeback_latency_ns, 0, 0, pj);
            out.tier = t;
            return out;
        }
        // Below threshold: a plain PCM write.
        let mut out = self.inner.on_write(line, now_s);
        out.tier = TierOutcome { tiered: true, ..TierOutcome::none() };
        out
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        // Scrub keeps scanning the PCM array underneath the tier: a
        // DRAM-resident line still has a (stale) PCM copy whose drift the
        // scheme tracks until the demotion writeback resets it. See
        // DESIGN.md for why this conservative choice is the right one.
        self.inner.on_scrub(line, now_s)
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        self.inner.scrub_interval_s()
    }

    fn prefetch_line(&mut self, line: u64) {
        // Forwarded unchanged: the hint may be for an op that never
        // dispatches, so no tier state may change (a resident line's
        // inner warm-up is simply wasted, never wrong).
        self.inner.prefetch_line(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_memsim::FixedLatencyDevice;

    fn tier(lines: u64, threshold: u32) -> TieredDevice<FixedLatencyDevice> {
        let cfg = DramConfig::new(7, lines).with_threshold(threshold);
        TieredDevice::new(FixedLatencyDevice::with_latencies(150, 1000), cfg)
    }

    #[test]
    fn promotion_waits_for_the_threshold() {
        let mut d = tier(64, 2);
        // First miss: PCM read, no promotion.
        let r1 = d.on_read(5, 0.0);
        assert!(r1.tier.tiered && !r1.tier.hit && !r1.tier.promotion);
        assert_eq!(r1.latency_ns, 150);
        // Second miss crosses threshold=2: promoted clean.
        let r2 = d.on_read(5, 0.0);
        assert!(r2.tier.promotion && !r2.tier.writeback);
        // Third access hits in DRAM at row-buffer latency.
        let r3 = d.on_read(5, 0.0);
        assert!(r3.tier.hit);
        assert!(r3.latency_ns <= ROW_MISS_NS);
        assert_eq!(d.resident_lines(), vec![5]);
    }

    #[test]
    fn write_hits_program_zero_pcm_cells() {
        let mut d = tier(64, 1);
        let w1 = d.on_write(9, 0.0);
        // Threshold 1: the first write miss promotes dirty, no PCM write.
        assert!(w1.tier.promotion);
        assert_eq!(w1.cells_written, 0);
        let w2 = d.on_write(9, 0.0);
        assert!(w2.tier.hit);
        assert_eq!(w2.cells_written, 0);
        assert!(!w2.tier.writeback);
    }

    #[test]
    fn dirty_demotion_reprograms_through_the_inner_write_path() {
        // One set (capacity 2, 2 ways): the third promoted line evicts.
        let cfg = DramConfig::new(0, 2).with_ways(2).with_threshold(1);
        let mut d = TieredDevice::new(FixedLatencyDevice::with_latencies(150, 1000), cfg);
        assert_eq!(d.capacity_lines(), 2);
        d.on_write(1, 0.0);
        d.on_write(2, 0.0);
        let w = d.on_write(3, 0.0);
        assert!(w.tier.demotion && w.tier.writeback, "dirty victim must write back");
        assert_eq!(w.tier.writeback_cells, 256, "inner stub programs 256 cells");
        assert!(w.latency_ns >= 1000, "writeback latency folds into the access");
        assert_eq!(d.resident_lines().len(), 2);
    }

    #[test]
    fn clean_demotion_is_free_at_pcm() {
        let cfg = DramConfig::new(0, 2).with_ways(2).with_threshold(1);
        let mut d = TieredDevice::new(FixedLatencyDevice::with_latencies(150, 1000), cfg);
        // Promote three lines clean (via read misses).
        let tiers: Vec<TierOutcome> = [1, 2, 3].map(|line| d.on_read(line, 0.0).tier).to_vec();
        assert!(tiers.iter().all(|t| t.promotion));
        assert_eq!(tiers.iter().filter(|t| t.demotion).count(), 1);
        assert!(tiers.iter().all(|t| !t.writeback), "clean victims are dropped, not written");
    }

    #[test]
    fn no_duplicate_residency_under_churn() {
        let mut d = tier(32, 1);
        let mut hits = 0;
        for i in 0..200u64 {
            let line = (i * 7) % 20;
            let t = if i % 3 == 0 { d.on_write(line, 0.0).tier } else { d.on_read(line, 0.0).tier };
            hits += u32::from(t.hit);
            let res = d.resident_lines();
            let mut dedup = res.clone();
            dedup.dedup();
            assert_eq!(res, dedup, "duplicate residency at step {i}");
            assert!(res.len() as u64 <= d.capacity_lines());
        }
        assert!(hits > 0);
    }

    #[test]
    fn lru_evicts_the_coldest_way() {
        // One 2-way set, threshold 1: promote 1 and 2, re-touch 1, then
        // promote 3 — the victim must be 2.
        let cfg = DramConfig::new(0, 2).with_ways(2).with_threshold(1);
        let mut d = TieredDevice::new(FixedLatencyDevice::with_latencies(150, 1000), cfg);
        d.on_read(1, 0.0);
        d.on_read(2, 0.0);
        d.on_read(1, 0.0); // hit: 1 is now hotter than 2
        d.on_read(3, 0.0);
        assert_eq!(d.resident_lines(), vec![1, 3]);
    }

    #[test]
    fn row_buffer_hits_are_cheaper_than_row_misses() {
        let mut d = tier(256, 1);
        d.on_read(10, 0.0);
        d.on_read(10, 0.0); // promote at threshold 1 happened on miss 1
        let hit1 = d.on_read(10, 0.0);
        let hit2 = d.on_read(10, 0.0);
        // Same row twice in a row: the second access is an open-row hit.
        assert_eq!(hit2.latency_ns, ROW_HIT_NS);
        assert!(hit1.latency_ns >= hit2.latency_ns);
    }
}

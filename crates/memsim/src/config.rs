//! Memory-system and energy configuration.
//!
//! Table VIII (system configuration) and Table IX (MLC energies) are
//! OCR-garbled in the source scan; the values here follow the prose where
//! it is explicit (4 in-order cores, 2 GB-class banks, 150/450/1000 ns
//! device timings) and standard MLC PCM energy figures from the cited
//! literature otherwise. Runs vary the channel count (`fig9 --channels`),
//! the scaled-down test machine's core count, capacity and queue depth,
//! and the write-cancellation and scrub-backlog switches the engine tests
//! ablate. The energies are not configuration: every device builds its
//! own [`EnergyModel::paper`].

/// Per-operation dynamic energy model (picojoules).
///
/// Write energy is charged **per cell actually programmed**, which is what
/// makes differential/selective writes pay off; read energies are per line
/// (sensing all 256 cells plus peripheral/bus overhead folded in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one R-mode (current-sense) demand line read, pJ —
    /// includes sensing plus the I/O, bus and controller share of the
    /// access.
    pub r_read_pj: f64,
    /// Energy of one M-mode (voltage-sense) demand line read, pJ. Higher
    /// than R: the bias current flows ~3× longer through the cell and
    /// comparator — but sensing is a small slice of the access energy
    /// (I/O, bus and controller dominate and are unchanged), so the
    /// premium is ~10%, consistent with the paper's +5% M-metric dynamic
    /// energy being attributed to "long read latency".
    pub m_read_pj: f64,
    /// Energy of one *scrub scan* read, pJ. Far below a demand read: the
    /// data never leaves the chip (no I/O, no bus, no DLL), only the array
    /// and the on-die BCH detector switch.
    pub scrub_scan_pj: f64,
    /// Energy to program one MLC cell (iterative RESET+SET P&V), pJ.
    pub write_cell_pj: f64,
    /// Energy to program one SLC flag bit, pJ (far cheaper: single pulse,
    /// wide margins).
    pub slc_bit_pj: f64,
}

impl EnergyModel {
    /// Baseline energies used throughout the evaluation.
    pub fn paper() -> Self {
        Self {
            r_read_pj: 2_000.0,
            m_read_pj: 2_200.0,
            scrub_scan_pj: 400.0,
            write_cell_pj: 10.0,
            slc_bit_pj: 1.0,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Physical placement of one line under the interleave: which channel
/// services it, where inside that channel's bank array it lives, and its
/// channel-local line index. Produced by [`Topology::decompose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineAddr {
    /// Channel servicing the line.
    pub channel: usize,
    /// Bank within the channel: the index the per-channel controller
    /// dispatches on.
    pub bank_in_channel: usize,
    /// Line index within the bank (the scrub pointer walks this space).
    pub local_line: u64,
}

/// Memory topology: `channels × banks_per_channel`, line-interleaved.
///
/// Consecutive lines stripe across channels first (so sequential streams
/// spread over every independent bus), then across the banks of a channel,
/// then advance the bank-local line index:
///
/// ```text
/// stripe          = line % (channels × banks_per_channel)
/// channel         = stripe % channels
/// bank_in_channel = stripe / channels
/// local_line      = line / (channels × banks_per_channel)
/// ```
///
/// The map is a bijection between `[0, total_lines)` and
/// `(channel, bank_in_channel, local_line)` triples, exactly balanced over
/// banks within every full stripe period, and for `channels = 1` it
/// degenerates to the pre-topology mapping `bank = line % banks`,
/// `local = line / banks` — which is what keeps single-channel reports
/// bit-for-bit identical to the unsharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Independent channels, each with its own bus, controller, write
    /// queues, scrub engine and event queue.
    pub channels: usize,
    /// Banks inside one channel.
    pub banks_per_channel: usize,
}

impl Topology {
    /// One channel of `banks_per_channel` banks.
    pub fn single_channel(banks_per_channel: usize) -> Self {
        Self { channels: 1, banks_per_channel }
    }

    /// Banks across all channels.
    pub fn total_banks(&self) -> usize {
        self.channels * self.banks_per_channel
    }

    /// Channel servicing `line`. Equals `decompose(line).channel` — the
    /// stripe index modulo the channel count reduces to `line % channels`.
    pub fn channel_of(&self, line: u64) -> usize {
        let ch = self.channels as u64;
        if ch.is_power_of_two() {
            (line & (ch - 1)) as usize
        } else {
            (line % ch) as usize
        }
    }

    /// Bank within its channel servicing `line`. Equals
    /// `decompose(line).bank_in_channel`, strength-reduced for the
    /// power-of-two bank and channel counts every stock configuration
    /// uses: the engine calls this once per dispatched op, and two 64-bit
    /// divisions were measurable there next to a shift and a mask.
    #[inline]
    pub fn bank_in_channel_of(&self, line: u64) -> usize {
        let cb = self.total_banks() as u64;
        let ch = self.channels as u64;
        if cb.is_power_of_two() && ch.is_power_of_two() {
            ((line & (cb - 1)) >> ch.trailing_zeros()) as usize
        } else {
            ((line % cb) / ch) as usize
        }
    }

    /// Full placement of `line` under the interleave.
    pub fn decompose(&self, line: u64) -> LineAddr {
        let cb = self.total_banks() as u64;
        let stripe = line % cb;
        let channel = (stripe % self.channels as u64) as usize;
        let bank_in_channel = (stripe / self.channels as u64) as usize;
        LineAddr { channel, bank_in_channel, local_line: line / cb }
    }

    /// Inverse of [`decompose`]: the global line for a placement.
    ///
    /// [`decompose`]: Topology::decompose
    pub fn recompose(&self, channel: usize, bank_in_channel: usize, local_line: u64) -> u64 {
        let cb = self.total_banks() as u64;
        local_line * cb + (bank_in_channel * self.channels + channel) as u64
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero channel or bank count.
    pub fn validate(&self) {
        assert!(self.channels > 0, "need at least one channel");
        assert!(self.banks_per_channel > 0, "need at least one bank per channel");
    }
}

/// Memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Number of in-order cores.
    pub cores: usize,
    /// Core clock in GHz (non-memory instructions retire at IPC 1).
    pub core_ghz: f64,
    /// Memory topology: channels × banks, line-interleaved.
    pub topology: Topology,
    /// 64 B lines per bank. The scrub cadence per bank is
    /// `lines_per_bank / S` per second.
    pub lines_per_bank: u64,
    /// Data-bus occupancy per line transfer, ns (burst on DDR-style bus).
    pub bus_ns: u64,
    /// Per-bank write-queue capacity; a full queue stalls the writing core.
    pub write_queue_cap: usize,
    /// Enable write cancellation (reads pre-empt in-flight demand writes).
    pub write_cancellation: bool,
    /// Time lost when a write is cancelled, ns (array settle + reissue).
    pub cancel_penalty_ns: u64,
    /// A scrub tick is skipped (deferred, counted) when the bank is already
    /// backlogged more than this many ns — the scrub engine yields to
    /// demand traffic rather than growing the queue without bound.
    pub scrub_backlog_limit_ns: u64,
}

impl MemoryConfig {
    /// The paper's baseline: 4 in-order cores at 2 GHz, 2 GB of PCM in 16
    /// line-interleaved banks (128 MiB each), write cancellation on.
    ///
    /// Bank sizing matters for the scrub pressure: the scrub engine visits
    /// `lines_per_bank / S` lines per second per bank, so at `S = 8 s` the
    /// R-Scrubbing baseline keeps banks ~20–25% busy (queueing delay on
    /// demand reads → the paper's double-digit slowdown) while at
    /// `S = 640 s` the ReadDuo policies cost well under 1%.
    pub fn paper() -> Self {
        Self {
            cores: 4,
            core_ghz: 2.0,
            topology: Topology::single_channel(16),
            lines_per_bank: (128u64 << 20) / 64,
            bus_ns: 8,
            write_queue_cap: 16,
            write_cancellation: true,
            cancel_penalty_ns: 10,
            scrub_backlog_limit_ns: 20_000,
        }
    }

    /// A scaled-down configuration for fast unit tests: same timing
    /// character, tiny capacity so scrubbing is exercised quickly.
    pub fn small_test() -> Self {
        Self {
            cores: 2,
            core_ghz: 2.0,
            topology: Topology::single_channel(2),
            lines_per_bank: 1 << 14,
            bus_ns: 8,
            write_queue_cap: 4,
            write_cancellation: true,
            cancel_penalty_ns: 10,
            scrub_backlog_limit_ns: 20_000,
        }
    }

    /// The same configuration re-striped over `channels` channels. The
    /// per-channel bank array is unchanged, so total capacity scales with
    /// the channel count — a server-scale device, not a re-partitioned
    /// laptop one.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.topology.channels = channels;
        self
    }

    /// Cycle time in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.core_ghz
    }

    /// Total lines in the memory, across all channels.
    pub fn total_lines(&self) -> u64 {
        self.lines_per_bank * self.topology.total_banks() as u64
    }

    /// Bank-within-channel servicing a line (line-interleaved mapping).
    #[inline]
    pub fn bank_of(&self, line: u64) -> usize {
        self.topology.bank_in_channel_of(line)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero core count, empty topology, zero capacity, or a
    /// non-positive clock.
    pub fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        self.topology.validate();
        assert!(self.lines_per_bank > 0, "banks must hold lines");
        assert!(self.core_ghz > 0.0, "clock must be positive");
        assert!(self.write_queue_cap > 0, "write queue must hold at least one entry");
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_in_channel_of_matches_decompose() {
        // The strength-reduced fast path must agree with the reference
        // decomposition on power-of-two topologies (where the shift/mask
        // branch runs) and on odd ones (where it falls back to division).
        let topos = [
            Topology::single_channel(8),
            Topology { channels: 4, banks_per_channel: 8 },
            Topology { channels: 3, banks_per_channel: 5 },
            Topology { channels: 2, banks_per_channel: 3 },
        ];
        for t in topos {
            for line in (0u64..4096).chain([u64::MAX - 7, u64::MAX]) {
                assert_eq!(
                    t.bank_in_channel_of(line),
                    t.decompose(line).bank_in_channel,
                    "topology {t:?} line {line}"
                );
                assert_eq!(
                    t.channel_of(line),
                    t.decompose(line).channel,
                    "topology {t:?} line {line}"
                );
            }
        }
    }

    #[test]
    fn paper_config_is_valid() {
        let c = MemoryConfig::paper();
        c.validate();
        assert_eq!(c.cores, 4);
        // 2 GB total.
        assert_eq!(c.total_lines() * 64, 2 << 30);
        assert!((c.cycle_ns() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bank_mapping_interleaves() {
        let c = MemoryConfig::paper();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(1), 1);
        assert_eq!(c.bank_of(16), 0);
        assert_eq!(c.bank_of(15), 15);
    }

    /// At one channel the interleave is exactly the pre-topology mapping:
    /// `bank = line % banks`, `local = line / banks`.
    #[test]
    fn single_channel_reduces_to_legacy_mapping() {
        let t = Topology::single_channel(16);
        for line in 0..200u64 {
            let a = t.decompose(line);
            assert_eq!(a.channel, 0);
            assert_eq!(a.bank_in_channel, (line % 16) as usize);
            assert_eq!(a.local_line, line / 16);
            assert_eq!(t.recompose(a.channel, a.bank_in_channel, a.local_line), line);
        }
    }

    /// Consecutive lines stripe channel-first, and decompose/recompose
    /// round-trip over a multi-channel topology.
    #[test]
    fn multi_channel_stripes_channels_first() {
        let t = Topology { channels: 4, banks_per_channel: 4 };
        assert_eq!(t.total_banks(), 16);
        for line in 0..160u64 {
            let a = t.decompose(line);
            assert_eq!(a.channel, (line % 4) as usize, "channel-first striping");
            assert_eq!(a.channel, t.channel_of(line));
            assert!(a.bank_in_channel < t.banks_per_channel);
            assert_eq!(t.recompose(a.channel, a.bank_in_channel, a.local_line), line);
        }
        // Lines 0..16 hit all 16 (channel, bank) pairs exactly once.
        let mut seen = std::collections::HashSet::new();
        for line in 0..16u64 {
            let a = t.decompose(line);
            assert_eq!(a.local_line, 0);
            assert!(seen.insert((a.channel, a.bank_in_channel)));
        }
    }

    #[test]
    fn energy_model_scales() {
        let e = EnergyModel::paper();
        assert!(e.m_read_pj > e.r_read_pj);
        assert!(e.scrub_scan_pj < e.r_read_pj);
        assert!(e.slc_bit_pj < e.write_cell_pj);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn invalid_config_panics() {
        let mut c = MemoryConfig::paper();
        c.cores = 0;
        c.validate();
    }
}

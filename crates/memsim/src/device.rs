//! The device-model interface between the simulator and the readout
//! schemes.
//!
//! `readduo-memsim` knows about queues, banks and buses; it does **not**
//! know how a line is sensed or when a scheme decides to rewrite it. Each
//! scheme (Ideal, Scrubbing, M-metric, ReadDuo-Hybrid/LWT/Select — see
//! `readduo-core`) implements [`DeviceModel`]; the engine calls it with the
//! line address and the current simulated wall-clock time in seconds and
//! obeys the returned latencies.

/// Which read mode serviced a request (Figure 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadMode {
    /// Fast current-mode sensing, 150 ns.
    RRead,
    /// Drift-resilient voltage-mode sensing, 450 ns.
    MRead,
    /// Failed R-sensing retried with M-sensing, 600 ns.
    RmRead,
}

/// What the DRAM migration tier (`readduo-dram`) did on top of an access.
///
/// Both [`ReadOutcome`] and [`WriteOutcome`] carry one of these; a device
/// with no tier attached leaves it at the all-zero default, which makes
/// every tier attribution in the engine a no-op add — untiered runs stay
/// bit-for-bit identical (the same discipline as the wear fields).
///
/// A dirty demotion re-programs the victim PCM line through the wrapped
/// scheme's normal write path; its cost travels in the `writeback_*`
/// fields here (never folded into the main outcome's cell/energy fields)
/// so demand and migration traffic stay separable, while the writeback's
/// *latency* is folded into the triggering outcome's `latency_ns` — the
/// migration occupies the same bank.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TierOutcome {
    /// A DRAM tier serviced (or at least observed) this access. Set on
    /// every outcome a tiered device returns; distinguishes "no tier
    /// attached" from "tier miss".
    pub tiered: bool,
    /// The access hit in DRAM — the PCM device was not consulted.
    pub hit: bool,
    /// This miss crossed the migration threshold and promoted the line
    /// into DRAM.
    pub promotion: bool,
    /// The promotion evicted a resident victim line back to PCM.
    pub demotion: bool,
    /// The demoted victim was dirty and was re-programmed into PCM
    /// (drift-age reset + wear charge through the scheme write path).
    pub writeback: bool,
    /// Bank time the writeback added, ns (already folded into the main
    /// outcome's `latency_ns`; recorded separately for telemetry spans).
    pub writeback_latency_ns: u64,
    /// MLC cells the writeback programmed.
    pub writeback_cells: u32,
    /// SLC flag bits the writeback programmed (LWT bookkeeping).
    pub writeback_slc_bits: u32,
    /// Writeback dynamic energy, pJ.
    pub writeback_energy_pj: f64,
    /// Write-verify retries the writeback needed (wear subsystem).
    pub writeback_verify_retries: u32,
    /// Cells the writeback killed after the retry budget ran out.
    pub writeback_cells_failed: u32,
    /// The writeback remapped the victim line to a spare.
    pub writeback_remapped: bool,
    /// The writeback wanted a spare and found the pool empty.
    pub writeback_spares_exhausted: bool,
}

impl TierOutcome {
    /// The untiered default: every field zero, so engine attribution is a
    /// pure no-op.
    pub fn none() -> Self {
        Self::default()
    }
}

/// What a read did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// Device busy time, ns (excludes bus and queueing).
    pub latency_ns: u64,
    /// Which sensing path ran.
    pub mode: ReadMode,
    /// Dynamic energy, pJ.
    pub energy_pj: f64,
    /// A redundant write scheduled after the read (ReadDuo-LWT's R-M-read
    /// conversion); queued on the bank like a demand write.
    pub conversion: Option<WriteOutcome>,
    /// The read hit a line with no tracked write in the last scrub interval
    /// (the `P%` the dynamic-T controller monitors).
    pub untracked: bool,
    /// Drift errors the sensing observed (ground truth from the model).
    pub drift_errors: u32,
    /// A corrective rewrite scheduled because the escalated read had to
    /// repair the line through ECC (fault injection's R→M→BCH→rewrite
    /// chain); queued on the bank like a demand write.
    pub corrective: Option<WriteOutcome>,
    /// Bits the ECC decoder fixed to deliver this read.
    pub ecc_corrected_bits: u32,
    /// The read failed even after escalation, but the failure was flagged
    /// (detected-uncorrectable: the host sees a machine-check, not bad
    /// data).
    pub detected_uncorrectable: bool,
    /// The read returned wrong data without any error indication — the
    /// failure mode the paper's detect/correct decoupling minimises.
    pub silent_corruption: bool,
    /// Stuck-at bits of worn-out cells that read back *wrong* on this
    /// access (they entered the decode as erasure-hinted errors).
    pub stuck_bits: u32,
    /// What the DRAM migration tier did, if one is attached (all-zero
    /// otherwise).
    pub tier: TierOutcome,
}

impl ReadOutcome {
    /// A plain successful read: no conversion, no corrective traffic, no
    /// errors. Fault-free construction sites use struct update syntax on
    /// top of this so new failure-path fields don't churn them.
    pub fn basic(latency_ns: u64, mode: ReadMode, energy_pj: f64) -> Self {
        Self {
            latency_ns,
            mode,
            energy_pj,
            conversion: None,
            untracked: false,
            drift_errors: 0,
            corrective: None,
            ecc_corrected_bits: 0,
            detected_uncorrectable: false,
            silent_corruption: false,
            stuck_bits: 0,
            tier: TierOutcome::none(),
        }
    }
}

/// What a write did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOutcome {
    /// Device busy time, ns.
    pub latency_ns: u64,
    /// MLC cells actually programmed (256 for a full-line write; fewer for
    /// a differential write).
    pub cells_written: u32,
    /// SLC flag bits written (LWT bookkeeping).
    pub slc_bits_written: u32,
    /// Dynamic energy, pJ.
    pub energy_pj: f64,
    /// Write-verify retry pulses issued because a cell failed to program
    /// (wear subsystem; latency/energy already folded in).
    pub verify_retries: u32,
    /// Cells declared dead by this write after the retry budget ran out.
    pub cells_failed: u32,
    /// This write pushed the line over its stuck-cell margin and remapped
    /// it to a spare line (remap latency already folded in).
    pub remapped: bool,
    /// A remap was wanted but the channel's spare pool was empty — the
    /// line soldiers on and its errors fall to the erasure-aware decoder.
    pub spares_exhausted: bool,
    /// What the DRAM migration tier did, if one is attached (all-zero
    /// otherwise).
    pub tier: TierOutcome,
}

impl WriteOutcome {
    /// A plain successful write. Wear-free construction sites use struct
    /// update syntax on top of this so wear-path fields don't churn them.
    pub fn basic(latency_ns: u64, cells_written: u32, slc_bits_written: u32, energy_pj: f64) -> Self {
        Self {
            latency_ns,
            cells_written,
            slc_bits_written,
            energy_pj,
            verify_retries: 0,
            cells_failed: 0,
            remapped: false,
            spares_exhausted: false,
            tier: TierOutcome::none(),
        }
    }
}

/// What a scrub visit did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubOutcome {
    /// Scrub read (scan) busy time, ns.
    pub read_latency_ns: u64,
    /// Scan energy, pJ.
    pub read_energy_pj: f64,
    /// Rewrite ordered by the scrub policy, if any.
    pub rewrite: Option<WriteOutcome>,
}

/// A per-scheme PCM device behaviour.
///
/// Implementations are stateful: they track per-line last-write times, LWT
/// flags, controller state and RNG streams. All callbacks receive the
/// simulated time in **seconds** (the drift model's natural unit).
pub trait DeviceModel {
    /// Services a demand read of `line` at time `now_s`.
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome;

    /// Services a demand write of `line` at time `now_s`.
    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome;

    /// Visits `line` during scrubbing at time `now_s`.
    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome;

    /// Scrub interval `S` in seconds, or `None` when the scheme does not
    /// scrub (Ideal, TLC).
    fn scrub_interval_s(&self) -> Option<f64>;

    /// Hints that `line` will be dispatched to this device shortly.
    ///
    /// The engine knows an op's line one full scheduling round before it
    /// dispatches (other cores' events run in between), so stateful schemes
    /// can pull their per-line tracking entry into cache while the miss
    /// latency is hidden. Implementations MUST NOT change any simulated
    /// state — the hint may be issued for ops that stall or arrive later
    /// than expected, and results must be identical with or without it.
    fn prefetch_line(&mut self, _line: u64) {}
}

/// Boxed devices forward to their contents, so `Box<dyn DeviceModel>` —
/// what the scheme constructors return — satisfies the generic bounds of
/// the sharded executors directly.
impl<T: DeviceModel + ?Sized> DeviceModel for Box<T> {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        (**self).on_read(line, now_s)
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        (**self).on_write(line, now_s)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        (**self).on_scrub(line, now_s)
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        (**self).scrub_interval_s()
    }

    fn prefetch_line(&mut self, line: u64) {
        (**self).prefetch_line(line)
    }
}

/// A drift-free device with fixed latencies: the **Ideal** baseline and the
/// engine-test stub.
#[derive(Debug, Clone, Copy)]
pub struct FixedLatencyDevice {
    read_ns: u64,
    write_ns: u64,
    cells_per_write: u32,
    energy: crate::config::EnergyModel,
    scrub_s: Option<f64>,
    scrub_rewrites: bool,
}

impl FixedLatencyDevice {
    /// The Ideal scheme: drift-free MLC, R-read latency, no scrubbing.
    ///
    /// Writes program 296 cells (512 data + 80 BCH-8 parity bits): the
    /// Ideal baseline stores the same ECC layout as the drift-mitigation
    /// schemes — it is ideal in *drift*, not in storage format — so
    /// lifetime and energy normalisations compare like with like.
    pub fn ideal() -> Self {
        Self {
            read_ns: 150,
            write_ns: 1000,
            cells_per_write: 296,
            energy: crate::config::EnergyModel::paper(),
            scrub_s: None,
            scrub_rewrites: false,
        }
    }

    /// A stub with explicit latencies (engine tests); writes 256 cells.
    pub fn with_latencies(read_ns: u64, write_ns: u64) -> Self {
        Self {
            read_ns,
            write_ns,
            cells_per_write: 256,
            energy: crate::config::EnergyModel::paper(),
            scrub_s: None,
            scrub_rewrites: false,
        }
    }

    /// The same device programming `cells` cells per write (the TLC
    /// baseline packs a line into more, tri-level, cells).
    pub fn with_cells_per_write(mut self, cells: u32) -> Self {
        self.cells_per_write = cells;
        self
    }

    /// Adds a scrub cadence (tests of the scrub engine); `rewrite` forces a
    /// full-line rewrite on every visit (a W=0-style worst case).
    pub fn with_scrub(mut self, interval_s: f64, rewrite: bool) -> Self {
        self.scrub_s = Some(interval_s);
        self.scrub_rewrites = rewrite;
        self
    }
}

impl DeviceModel for FixedLatencyDevice {
    fn on_read(&mut self, _line: u64, _now_s: f64) -> ReadOutcome {
        ReadOutcome::basic(self.read_ns, ReadMode::RRead, self.energy.r_read_pj)
    }

    fn on_write(&mut self, _line: u64, _now_s: f64) -> WriteOutcome {
        WriteOutcome::basic(
            self.write_ns,
            self.cells_per_write,
            0,
            self.cells_per_write as f64 * self.energy.write_cell_pj,
        )
    }

    fn on_scrub(&mut self, _line: u64, _now_s: f64) -> ScrubOutcome {
        ScrubOutcome {
            read_latency_ns: self.read_ns,
            read_energy_pj: self.energy.r_read_pj,
            rewrite: self.scrub_rewrites.then_some(WriteOutcome::basic(
                self.write_ns,
                self.cells_per_write,
                0,
                self.cells_per_write as f64 * self.energy.write_cell_pj,
            )),
        }
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        self.scrub_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_device_is_drift_free() {
        let mut d = FixedLatencyDevice::ideal();
        let r = d.on_read(42, 1e6);
        assert_eq!(r.latency_ns, 150);
        assert_eq!(r.mode, ReadMode::RRead);
        assert_eq!(r.drift_errors, 0);
        assert!(r.conversion.is_none());
        assert_eq!(d.scrub_interval_s(), None);
    }

    #[test]
    fn scrub_stub_rewrites_when_asked() {
        let mut d = FixedLatencyDevice::with_latencies(100, 900).with_scrub(8.0, true);
        assert_eq!(d.scrub_interval_s(), Some(8.0));
        let s = d.on_scrub(7, 0.0);
        assert_eq!(s.read_latency_ns, 100);
        let rw = s.rewrite.expect("rewrite forced");
        assert_eq!(rw.latency_ns, 900);
        assert_eq!(rw.cells_written, 256);
    }
}

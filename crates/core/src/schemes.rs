//! The readout schemes of the evaluation (Section IV):
//!
//! * [`ScrubbingScheme`] — R-sensing with `(BCH=8, S=8 s, W∈{0,1})` \[2\],
//! * [`MMetricScheme`] — M-sensing only, `(BCH=8, S=640 s, W=1)` \[23\],
//! * [`HybridScheme`] — ReadDuo-Hybrid: R-read with BCH-decoupled fallback
//!   to M-read, `(BCH=8, S=640 s, W=0)`,
//! * [`LwtScheme`] — ReadDuo-LWT-k: Hybrid plus last-write tracking and
//!   R-M-read conversion, `(BCH=8, S=640 s, W=1)`; [`LwtScheme::select`]
//!   adds ReadDuo-Select-(k:s)'s selective differential writes,
//! * Ideal is [`readduo_memsim::FixedLatencyDevice::ideal`], and the
//!   Tri-Level-Cell baseline \[26\] is the same drift-free device writing
//!   [`TLC_LINE_CELLS`](crate::area::TLC_LINE_CELLS) cells per line.
//!
//! The four drifting-MLC schemes are one [`Scheme`] each: the state they
//! share (drift sampler, line table, energy and device models, optional
//! fault injector and wear table, the R-M-read count) plus a policy type that
//! holds what differs. All schemes implement [`DeviceModel`]; the
//! simulator calls them per read/write/scrub with the simulated time in
//! seconds.

use crate::common::{
    differential_write, full_line_write, DriftSampler, CORRECT_MAX, DETECT_MAX,
};
use crate::conversion::ConversionController;
use crate::fault::{FaultInjector, InjectedRead};
use crate::flags::LwtFlags;
use crate::linestate::LineTable;
use crate::wear::{WearConfig, WearTable};
use readduo_memsim::{
    DeviceModel, EnergyModel, ReadMode, ReadOutcome, ScrubOutcome, WriteOutcome,
};
use readduo_pcm::DeviceParams;

/// Cold-line age assumed for `W = 1` policies at `S = 640 s`: M-metric
/// scrubbing almost never rewrites, so data written before the simulation
/// window can be weeks old (the paper's in-memory-database motivation).
const COLD_AGE_LONG_S: f64 = 1.0e6;

/// Cold-line age for the R-Scrubbing baseline at `S = 8 s, W = 1`: the
/// scan rewrites a line as soon as it shows any error, so the population a
/// scrub visit samples is length-biased toward freshly rewritten lines.
/// With the Table I drift model the per-visit rewrite hazard is ~7–10%,
/// i.e. the age *seen at scrub time* concentrates in the first couple of
/// rounds — modelled as 6–12 s (the per-line jitter doubles the base).
const COLD_AGE_SCRUBBED_S: f64 = 6.0;

/// A drifting-MLC readout scheme: the state every such scheme shares,
/// around the policy `P` that decides how it reads, writes and scrubs.
#[derive(Debug, Clone)]
pub struct Scheme<P> {
    sampler: DriftSampler,
    table: LineTable,
    energy: EnergyModel,
    params: DeviceParams,
    /// Whether an injected R-decode failure escalates to an M-read (every
    /// policy but the R-only Scrubbing baseline).
    escalate: bool,
    injector: Option<FaultInjector>,
    wear: Option<WearTable>,
    /// R-M-reads issued so far: the index LWT's conversion controller
    /// duty-cycles on.
    rm_reads: u64,
    policy: P,
}

/// Efficient scrubbing \[2\] with R-metric sensing.
pub type ScrubbingScheme = Scheme<ScrubbingPolicy>;
/// M-metric-only sensing with `(BCH=8, S=640, W=1)`.
pub type MMetricScheme = Scheme<MMetricPolicy>;
/// ReadDuo-Hybrid: fast R-read, decoupled BCH detection, M-read fallback;
/// `(BCH=8, S=640, W=0)` scrubbing keeps every line young enough for
/// R-sensing.
pub type HybridScheme = Scheme<HybridPolicy>;
/// ReadDuo-LWT-k: last-write tracking over `k` sub-intervals, `W = 1`
/// M-scrubbing, and dynamic R-M-read conversion (plus Select-(k:s)'s
/// differential writes when built with [`LwtScheme::select`]).
pub type LwtScheme = Scheme<LwtPolicy>;

impl<P> Scheme<P> {
    fn assemble(seed: u64, table: LineTable, escalate: bool, policy: P) -> Self {
        Self {
            sampler: DriftSampler::new(seed),
            table,
            energy: EnergyModel::paper(),
            params: DeviceParams::paper(),
            escalate,
            injector: None,
            wear: None,
            rm_reads: 0,
            policy,
        }
    }

    /// Declares `[0, boundary)` the workload's warm region (see
    /// [`LineTable::set_warm_region`]).
    pub fn with_warm_region(mut self, boundary: u64) -> Self {
        self.table.set_warm_region(boundary);
        self
    }

    /// Hints that the workload touches on the order of `lines` distinct
    /// lines — normally its footprint (see [`LineTable::reserve`]).
    pub fn with_reserve(mut self, lines: u64) -> Self {
        self.table.reserve(lines);
        self
    }

    /// Attaches Monte-Carlo fault injection to demand reads: they sample
    /// real error patterns and decode them with BCH-8. The ReadDuo
    /// schemes escalate failed R-decodes to M-reads (an escalated read
    /// that survived through ECC schedules a corrective rewrite); the
    /// R-only Scrubbing baseline surfaces them as detected-uncorrectable.
    /// M-metric's direct M-reads never take the injected path.
    pub fn with_fault_injection(mut self, seed: u64) -> Self {
        self.injector = Some(FaultInjector::new(seed, self.escalate));
        self
    }

    /// Attaches the endurance model: every program ages the line's cells,
    /// dead cells read back stuck-at, and lines whose dead-cell count
    /// exceeds the margin remap onto spares (see [`WearTable`]).
    pub fn with_wear(mut self, cfg: WearConfig) -> Self {
        self.wear = Some(WearTable::new(cfg));
        self
    }

    /// The endurance state, when wear modelling is enabled.
    pub fn wear(&self) -> Option<&WearTable> {
        self.wear.as_ref()
    }

    /// Overrides the cold-line age assumption — a validation/stress knob
    /// (e.g. to exercise Hybrid's escalation band, which `W = 0`
    /// scrubbing makes astronomically rare at natural ages). See
    /// [`LineTable::set_cold_age`]; the call order against the other
    /// builders does not matter.
    pub fn with_cold_age(mut self, age_s: f64) -> Self {
        self.table.set_cold_age(age_s);
        self
    }

    /// Age of `line`'s last full write at `now_s`.
    fn age(&mut self, line: u64, now_s: f64) -> f64 {
        let st = *self.table.get_mut(line, now_s);
        self.table.full_write_age(&st, now_s)
    }

    /// Dead cells stuck on `line` (0 without the wear model).
    fn stuck_cells(&self, line: u64) -> u32 {
        self.wear.as_ref().map_or(0, |w| w.stuck_cells(line))
    }

    /// One injected read of `line` aged `age` — R-first, or M-only when
    /// `m_only` — or `None` without an injector. Lines with dead cells
    /// overlay their stuck bits and decode with erasure hints.
    fn inject(&mut self, line: u64, age: f64, m_only: bool) -> Option<InjectedRead> {
        let inj = self.injector.as_mut()?;
        let (stuck_wrong, erased) = match self.wear.as_mut() {
            Some(w) => w.stuck_read(line),
            None => (&[][..], &[][..]),
        };
        Some(inj.read(age, m_only, stuck_wrong, erased))
    }

    /// Charges one program of `line` against the wear table, if any.
    fn charge_wear(&mut self, line: u64, out: &mut WriteOutcome) {
        if let Some(w) = self.wear.as_mut() {
            w.apply_program(line, &self.params, &self.energy, out);
        }
    }

    /// A full-line program of `line` with `slc` flag bits alongside.
    fn full_write(&mut self, line: u64, slc: u32) -> WriteOutcome {
        let mut out = full_line_write(&self.energy, &self.params.timing, slc);
        self.charge_wear(line, &mut out);
        out
    }

    /// A scrub visit's outcome: lines with dead cells pay an escalated
    /// scan instead of the `scan_ns` sensing pass.
    fn scrub_outcome(
        &self,
        stuck: u32,
        scan_ns: u64,
        rewrite: Option<WriteOutcome>,
    ) -> ScrubOutcome {
        ScrubOutcome {
            read_latency_ns: if stuck > 0 {
                self.params.escalation_read_ns
            } else {
                scan_ns
            },
            read_energy_pj: self.energy.scrub_scan_pj,
            rewrite,
        }
    }

    /// An R-read returning `drift_errors` wrong bits.
    fn r_read(&self, drift_errors: u32) -> ReadOutcome {
        ReadOutcome {
            drift_errors,
            ..ReadOutcome::basic(
                self.params.timing.r_read_ns,
                ReadMode::RRead,
                self.energy.r_read_pj,
            )
        }
    }

    /// An R-M-read (R-sensing, then M-sensing) returning `drift_errors`
    /// wrong bits.
    fn rm_read(&self, drift_errors: u32) -> ReadOutcome {
        ReadOutcome {
            drift_errors,
            ..ReadOutcome::basic(
                self.params.escalation_read_ns,
                ReadMode::RmRead,
                self.energy.r_read_pj + self.energy.m_read_pj,
            )
        }
    }

    /// The analytic three-band read path shared by Hybrid and LWT: an
    /// R-read, unless R-sensing's errors are detected but not correctable,
    /// which retries with M-sensing. Beyond detection the data goes back
    /// uncorrected, as an R-read.
    fn banded_read(&mut self, age: f64) -> ReadOutcome {
        let errors = self.sampler.bit_errors_r(age);
        if errors <= CORRECT_MAX || errors > DETECT_MAX {
            self.r_read(errors)
        } else {
            self.rm_reads += 1;
            let m_errors = self.sampler.bit_errors_m(age);
            self.rm_read(m_errors)
        }
    }

    /// The outcome of an injected read `r`: an R-read, or an R-M-read when
    /// it escalated or (`m_only`) skipped R-sensing outright. Corrective
    /// traffic is the caller's: it schedules that when `r.needs_rewrite`.
    fn injected_read(&mut self, r: InjectedRead, m_only: bool) -> ReadOutcome {
        if r.escalated {
            self.rm_reads += 1;
        }
        let out = if r.escalated || m_only {
            self.rm_read(r.m_errors)
        } else {
            self.r_read(r.r_errors)
        };
        ReadOutcome {
            ecc_corrected_bits: r.corrected_bits,
            detected_uncorrectable: r.detected_uncorrectable,
            silent_corruption: r.silent_corruption,
            stuck_bits: r.stuck_bits,
            ..out
        }
    }
}

// ---------------------------------------------------------------------
// Scrubbing baseline (R-sensing).
// ---------------------------------------------------------------------

/// The Scrubbing baseline's policy: R-sensing, rewrite on `w` errors.
#[derive(Debug, Clone, Copy)]
pub struct ScrubbingPolicy {
    w: u32,
}

impl ScrubbingScheme {
    /// The paper's comparison configuration `(BCH=8, S=8, W=1)`.
    pub fn paper(seed: u64) -> Self {
        Self::new(seed, 8.0, 1)
    }

    /// The reliability-sound but ruinous `(BCH=8, S=8, W=0)` variant the
    /// paper reports as 2–3× slower than Ideal.
    pub fn paper_w0(seed: u64) -> Self {
        Self::new(seed, 8.0, 0)
    }

    /// Custom interval/threshold.
    pub fn new(seed: u64, interval_s: f64, w: u32) -> Self {
        let table = if w == 0 {
            LineTable::new(2, interval_s, 0.0).with_cold_writes_at_scrub()
        } else {
            LineTable::new(2, interval_s, COLD_AGE_SCRUBBED_S)
        };
        Self::assemble(seed, table, false, ScrubbingPolicy { w })
    }
}

impl DeviceModel for ScrubbingScheme {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let age = self.age(line, now_s);
        // The R-only baseline never escalates: an injected read is an R-read.
        if let Some(r) = self.inject(line, age, false) {
            return self.injected_read(r, false);
        }
        let errors = self.sampler.bit_errors_r(age);
        self.r_read(errors)
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        self.table.get_mut(line, now_s).last_full_write_s = now_s;
        self.full_write(line, 0)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let age = self.age(line, now_s);
        let errors = self.sampler.bit_errors_r(age);
        // Dead cells shrink the correctable margin: a line with stuck bits
        // escalates its scan and is rewritten unconditionally so the spare
        // machinery gets a chance to remap it.
        let stuck = self.stuck_cells(line);
        let w = self.policy.w;
        let rewrite = w == 0 || errors >= w || stuck > 0;
        let st = self.table.get_mut(line, now_s);
        st.last_scrub_s = now_s;
        if rewrite {
            st.last_full_write_s = now_s;
        }
        let rw = rewrite.then(|| self.full_write(line, 0));
        self.scrub_outcome(stuck, self.params.timing.r_read_ns, rw)
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        Some(self.table.scrub_interval_s())
    }

    fn prefetch_line(&mut self, line: u64) {
        self.table.prefetch(line);
    }
}

// ---------------------------------------------------------------------
// M-metric baseline.
// ---------------------------------------------------------------------

/// The M-metric baseline's policy: every read and scrub M-senses.
#[derive(Debug, Clone, Copy)]
pub struct MMetricPolicy;

impl MMetricScheme {
    /// The paper's configuration.
    pub fn paper(seed: u64) -> Self {
        let table = LineTable::new(2, 640.0, COLD_AGE_LONG_S);
        Self::assemble(seed, table, true, MMetricPolicy)
    }
}

impl DeviceModel for MMetricScheme {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let age = self.age(line, now_s);
        let errors = self.sampler.bit_errors_m(age);
        ReadOutcome {
            drift_errors: errors,
            ..ReadOutcome::basic(self.params.timing.m_read_ns, ReadMode::MRead, self.energy.m_read_pj)
        }
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        self.table.get_mut(line, now_s).last_full_write_s = now_s;
        self.full_write(line, 0)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let age = self.age(line, now_s);
        let rewrite = self.sampler.bit_errors_m(age) >= 1;
        let st = self.table.get_mut(line, now_s);
        st.last_scrub_s = now_s;
        if rewrite {
            st.last_full_write_s = now_s;
        }
        let rw = rewrite.then(|| self.full_write(line, 0));
        self.scrub_outcome(0, self.params.timing.m_read_ns, rw)
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        Some(self.table.scrub_interval_s())
    }

    fn prefetch_line(&mut self, line: u64) {
        self.table.prefetch(line);
    }
}

// ---------------------------------------------------------------------
// ReadDuo-Hybrid.
// ---------------------------------------------------------------------

/// ReadDuo-Hybrid's policy: banded R-read with M fallback, `W = 0`
/// M-scrubbing.
#[derive(Debug, Clone, Copy)]
pub struct HybridPolicy;

impl HybridScheme {
    /// The paper's configuration.
    pub fn paper(seed: u64) -> Self {
        let table = LineTable::new(2, 640.0, 0.0).with_cold_writes_at_scrub();
        Self::assemble(seed, table, true, HybridPolicy)
    }
}

impl DeviceModel for HybridScheme {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let age = self.age(line, now_s);
        let Some(r) = self.inject(line, age, false) else {
            return self.banded_read(age);
        };
        let mut out = self.injected_read(r, false);
        if r.needs_rewrite {
            // The line is only readable through escalation: rewrite it so
            // it re-enters the fast R-readable population.
            self.table.get_mut(line, now_s).last_full_write_s = now_s;
            out.corrective = Some(self.full_write(line, 0));
        }
        out
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        self.table.get_mut(line, now_s).last_full_write_s = now_s;
        self.full_write(line, 0)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        // W = 0: scan with M (the reliable metric), rewrite unconditionally.
        let st = self.table.get_mut(line, now_s);
        st.last_scrub_s = now_s;
        st.last_full_write_s = now_s;
        let stuck = self.stuck_cells(line);
        let rw = self.full_write(line, 0);
        self.scrub_outcome(stuck, self.params.timing.m_read_ns, Some(rw))
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        Some(self.table.scrub_interval_s())
    }

    fn prefetch_line(&mut self, line: u64) {
        self.table.prefetch(line);
    }
}

// ---------------------------------------------------------------------
// ReadDuo-LWT-k (and Select-(k:s) on top).
// ---------------------------------------------------------------------

/// ReadDuo-LWT-k's policy: tracking granularity, the conversion
/// controller, and Select's differential-write window.
#[derive(Debug, Clone)]
pub struct LwtPolicy {
    k: u8,
    controller: ConversionController,
    conversion_enabled: bool,
    /// Select-(k:s) window in sub-intervals; 0 disables SDW (plain LWT).
    sdw_window: u8,
}

impl LwtScheme {
    /// ReadDuo-LWT-k as evaluated (`k = 4` in the headline results).
    pub fn paper(seed: u64, k: u8) -> Self {
        Self::lwt(seed, k, 0, true)
    }

    /// LWT-k with R-M-read conversion disabled (Figure 14's ablation).
    pub fn without_conversion(seed: u64, k: u8) -> Self {
        Self::lwt(seed, k, 0, false)
    }

    /// ReadDuo-Select-(k:s): LWT-k plus selective differential writes with
    /// a full-write window of `s` sub-intervals.
    ///
    /// # Panics
    ///
    /// Panics if `sdw_window` is zero or exceeds `k`.
    pub fn select(seed: u64, k: u8, sdw_window: u8) -> Self {
        assert!(
            sdw_window >= 1 && sdw_window <= k,
            "Select window must be in 1..=k, got {sdw_window}"
        );
        Self::lwt(seed, k, sdw_window, true)
    }

    fn lwt(seed: u64, k: u8, sdw_window: u8, conversion_enabled: bool) -> Self {
        let policy = LwtPolicy {
            k,
            controller: ConversionController::paper(),
            conversion_enabled,
            sdw_window,
        };
        let table = LineTable::new(k, 640.0, COLD_AGE_LONG_S);
        Self::assemble(seed, table, true, policy)
    }

    /// Number of sub-intervals `k`.
    pub fn k(&self) -> u8 {
        self.policy.k
    }

    /// Current dynamic conversion percentage `T`.
    pub fn t_percent(&self) -> u32 {
        self.policy.controller.t_percent()
    }

    /// A full-line write that re-tracks `line` in sub-interval `sub`.
    fn tracked_write(&mut self, line: u64, now_s: f64, sub: Option<u8>) -> WriteOutcome {
        let st = self.table.get_mut(line, now_s);
        st.last_full_write_s = now_s;
        if let Some(s) = sub {
            st.flags.on_write(s);
        }
        self.full_write(line, LwtFlags::storage_bits(self.policy.k))
    }
}

impl DeviceModel for LwtScheme {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let st = *self.table.get_mut(line, now_s);
        let sub = self.table.sub_interval(&st, now_s);
        let allows_r = sub.is_some_and(|s| st.flags.read_allows_r(s));
        self.policy.controller.observe_read(!allows_r);
        let age = self.table.full_write_age(&st, now_s);
        if allows_r {
            let Some(r) = self.inject(line, age, false) else {
                return self.banded_read(age);
            };
            let mut out = self.injected_read(r, false);
            if r.needs_rewrite {
                out.corrective = Some(self.tracked_write(line, now_s, sub));
            }
            return out;
        }
        // Un-tracked: R-sensing aborted after the flag check, M-sensing
        // reissued — an R-M-read.
        self.rm_reads += 1;
        let mut out = match self.inject(line, age, true) {
            Some(r) => self.injected_read(r, true),
            None => {
                let errors = self.sampler.bit_errors_m(age);
                self.rm_read(errors)
            }
        };
        let policy = &mut self.policy;
        let convert = policy.conversion_enabled && policy.controller.should_convert(self.rm_reads);
        // The redundant write re-tracks the line: the conversion is a
        // full-line write even under Select (it is the only write in the
        // window).
        out.conversion = convert.then(|| self.tracked_write(line, now_s, sub));
        out.untracked = true;
        out
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        let st = *self.table.get_mut(line, now_s);
        let sub = self.table.sub_interval(&st, now_s);
        // Select-(k:s): differential write when the last full-line write is
        // within `s` sub-intervals; the index-flag (conservatively, the
        // recorded full-write time) measures that distance.
        let window_s = self.policy.sdw_window as f64 * self.table.sub_len_s();
        if self.policy.sdw_window > 0 && self.table.full_write_age(&st, now_s) < window_s {
            // Differential write: only modified cells; flags are NOT
            // updated (the R-sensing distance keeps measuring from the
            // last full write).
            let cells = self.sampler.differential_write_cells();
            let mut out = differential_write(&self.energy, &self.params.timing, cells);
            self.charge_wear(line, &mut out);
            return out;
        }
        self.tracked_write(line, now_s, sub)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let age = self.age(line, now_s);
        let errors = self.sampler.bit_errors_m(age);
        // Stuck bits eat into the BCH margin: force the rewrite so the
        // wear controller sees the line and can remap it onto a spare.
        let stuck = self.stuck_cells(line);
        let rewrite = errors >= 1 || stuck > 0;
        let st = self.table.get_mut(line, now_s);
        st.last_scrub_s = now_s;
        st.flags.on_scrub(rewrite);
        if rewrite {
            st.last_full_write_s = now_s;
        }
        let slc = LwtFlags::storage_bits(self.policy.k);
        let rw = rewrite.then(|| self.full_write(line, slc));
        self.scrub_outcome(stuck, self.params.timing.m_read_ns, rw)
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        Some(self.table.scrub_interval_s())
    }

    fn prefetch_line(&mut self, line: u64) {
        self.table.prefetch(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubbing_w1_rewrites_only_on_errors() {
        let mut s = ScrubbingScheme::paper(1);
        // Freshly written line: scrub immediately after never rewrites.
        let w = s.on_write(5, 100.0);
        assert_eq!(w.cells_written, 296);
        let sc = s.on_scrub(5, 100.5);
        assert!(sc.rewrite.is_none(), "fresh line must not be rewritten");
        // A very old cold line shows errors and gets rewritten (sample a
        // few to dodge randomness).
        let rewrites = (0..50)
            .filter(|&i| s.on_scrub(1000 + i, 1000.0).rewrite.is_some())
            .count();
        assert!(rewrites > 0, "cold lines should trigger rewrites");
    }

    #[test]
    fn scrubbing_w0_always_rewrites() {
        let mut s = ScrubbingScheme::paper_w0(1);
        for i in 0..10 {
            assert!(s.on_scrub(i, 50.0 + i as f64).rewrite.is_some());
        }
    }

    #[test]
    fn m_metric_reads_are_slow_but_clean() {
        let mut s = MMetricScheme::paper(2);
        let r = s.on_read(7, 1000.0);
        assert_eq!(r.mode, ReadMode::MRead);
        assert_eq!(r.latency_ns, 450);
        // Cold line at 1e6 s: M-sensing still reads essentially clean.
        let total: u32 = (0..100).map(|i| s.on_read(100 + i, 1000.0).drift_errors).sum();
        assert!(total < 50, "M errors on cold lines: {total}");
    }

    #[test]
    fn hybrid_mostly_r_reads_young_lines() {
        let mut s = HybridScheme::paper(3);
        let mut modes = (0u32, 0u32, 0u32);
        for i in 0..500 {
            s.on_write(i, 10.0);
            let r = s.on_read(i, 12.0);
            match r.mode {
                ReadMode::RRead => modes.0 += 1,
                ReadMode::MRead => modes.1 += 1,
                ReadMode::RmRead => modes.2 += 1,
            }
        }
        assert!(modes.0 > 490, "young lines must R-read: {modes:?}");
        // Cold lines (written at last scrub, ≤640 s ago) still mostly
        // R-read — that is the whole point of W=0 Hybrid.
        let mut r_reads = 0;
        for i in 0..500u64 {
            if s.on_read(10_000 + i, 1000.0).mode == ReadMode::RRead {
                r_reads += 1;
            }
        }
        assert!(r_reads > 400, "cold Hybrid reads should stay fast: {r_reads}");
    }

    #[test]
    fn hybrid_scrub_always_rewrites_with_m_scan() {
        let mut s = HybridScheme::paper(4);
        let sc = s.on_scrub(9, 640.0);
        assert_eq!(sc.read_latency_ns, 450);
        assert!(sc.rewrite.is_some());
    }

    #[test]
    fn lwt_untracked_reads_are_rm_and_convert() {
        let mut s = LwtScheme::paper(5, 4);
        // Cold line: untracked → R-M-read.
        let r = s.on_read(1, 100.0);
        assert_eq!(r.mode, ReadMode::RmRead);
        assert!(r.untracked);
        // With T starting at 50, half the R-M-reads convert; after enough
        // reads some conversions must have happened.
        let mut conversions = 0;
        for i in 0..100u64 {
            if s.on_read(100 + i, 100.0).conversion.is_some() {
                conversions += 1;
            }
        }
        assert!(conversions > 20, "conversions: {conversions}");
        // A converted line reads fast afterwards.
        let mut s2 = LwtScheme::paper(6, 4);
        loop {
            let r = s2.on_read(42, 200.0);
            if r.conversion.is_some() {
                break;
            }
        }
        let after = s2.on_read(42, 201.0);
        assert_eq!(after.mode, ReadMode::RRead, "converted line must R-read");
        assert!(!after.untracked);
    }

    #[test]
    fn lwt_tracked_write_enables_r_reads() {
        let mut s = LwtScheme::paper(7, 4);
        s.on_write(3, 50.0);
        let r = s.on_read(3, 60.0);
        assert_eq!(r.mode, ReadMode::RRead);
        assert!(!r.untracked);
        assert_eq!(r.drift_errors, 0, "10 s old line has no drift errors");
    }

    #[test]
    fn lwt_without_conversion_never_converts() {
        let mut s = LwtScheme::without_conversion(8, 4);
        for i in 0..200u64 {
            assert!(s.on_read(i, 100.0).conversion.is_none());
        }
    }

    #[test]
    fn select_differential_within_window_full_outside() {
        let mut s = LwtScheme::select(9, 4, 2);
        // First write: cold line, full.
        let w1 = s.on_write(11, 1000.0);
        assert_eq!(w1.cells_written, 296);
        // Second write 10 s later (within 2×160 s window): differential.
        let w2 = s.on_write(11, 1010.0);
        assert!(w2.cells_written < 296, "differential write expected");
        assert_eq!(w2.slc_bits_written, 0, "diff writes do not touch flags");
        // Write far outside the window: full again.
        let w3 = s.on_write(11, 1000.0 + 640.0);
        assert_eq!(w3.cells_written, 296);
    }

    #[test]
    fn select_keeps_r_sense_distance_from_full_write() {
        // After a differential write, R-sensing eligibility must still be
        // anchored at the *full* write: a read 400 s after the full write
        // (with diff writes in between) on k=4 must already have aged out
        // of the tracked window if the full write has.
        let mut s = LwtScheme::select(10, 4, 1);
        s.on_write(5, 0.0); // full write at t=0 (cold line)
        // The scrub at ~some point may interfere; keep within one interval.
        let w = s.on_write(5, 10.0); // differential
        assert!(w.cells_written < 296);
        let r = s.on_read(5, 20.0);
        // Full write at t=0 is recent: R allowed.
        assert_eq!(r.mode, ReadMode::RRead);
    }

    #[test]
    fn cold_age_is_independent_of_call_order() {
        // The override must neither drop a warm region or reserve set
        // before it nor be dropped by them, inside and outside the warm
        // region alike.
        let first = HybridScheme::paper(1)
            .with_cold_age(3.0e4)
            .with_warm_region(50)
            .with_reserve(4096);
        let last = HybridScheme::paper(1)
            .with_warm_region(50)
            .with_reserve(4096)
            .with_cold_age(3.0e4);
        let (mut a, mut b) = (first.table, last.table);
        for line in [0u64, 7, 49, 50, 51, 5000, u64::MAX] {
            let (sa, sb) = (*a.get_mut(line, 123.0), *b.get_mut(line, 123.0));
            assert_eq!(sa, sb, "line {line}");
        }
        // The warm region survived: line 0 was written within one interval.
        assert!(b.get_mut(0, 123.0).last_full_write_s > 123.0 - 640.0);
        // Outside it, the cold age replaced Hybrid's written-at-scrub default.
        assert!(b.get_mut(5000, 123.0).last_full_write_s <= -3.0e4);
    }

    /// Why TLC can skip drift altogether: with L2 unused, the reference
    /// between L1 and L3 moves to the middle of the vacated range, so a
    /// programmed L1 cell must drift more than ten MLC guard bands to be
    /// misread.
    #[test]
    fn tlc_l1_to_l3_gap_exceeds_ten_mlc_guard_bands() {
        use readduo_pcm::params::PROGRAM_WIDTH_SIGMAS;
        use readduo_pcm::{CellLevel, MetricConfig};
        let cfg = MetricConfig::r_metric();
        let (l1, l3) = (cfg.level(CellLevel::L1), cfg.level(CellLevel::L3));
        let reference = 0.5 * (l1.upper_boundary() + l3.lower_boundary());
        let tlc_guard = reference - (l1.mu + PROGRAM_WIDTH_SIGMAS * l1.sigma);
        let mlc_guard = cfg.guard_band(CellLevel::L1);
        assert!(tlc_guard > 10.0 * mlc_guard, "tlc {tlc_guard} vs mlc {mlc_guard}");
    }

    #[test]
    fn scheme_intervals_match_paper() {
        assert_eq!(ScrubbingScheme::paper(0).scrub_interval_s(), Some(8.0));
        assert_eq!(MMetricScheme::paper(0).scrub_interval_s(), Some(640.0));
        assert_eq!(HybridScheme::paper(0).scrub_interval_s(), Some(640.0));
        assert_eq!(LwtScheme::paper(0, 4).scrub_interval_s(), Some(640.0));
    }

    #[test]
    #[should_panic(expected = "Select window")]
    fn select_window_validated() {
        let _ = LwtScheme::select(0, 4, 5);
    }
}

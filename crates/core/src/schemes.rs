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
//! The four drifting-MLC schemes are one device, [`Scheme`], around a
//! [`Policy`] each. A policy holds only what the paper says differs: its
//! read path, its scrub verdict and, for LWT/Select, its demand write. The
//! device holds the rest once: the drift sampler, line table, energy and
//! device models, the optional fault injector and wear table, the scrub
//! visit, the full-line rewrite behind demand, corrective, conversion and
//! scrub writes, and the R-first escalating read. The simulator calls it
//! per read/write/scrub with the simulated time in seconds.

use crate::common::{differential_write, full_line_write, DriftSampler, CORRECT_MAX, DETECT_MAX};
use crate::conversion::ConversionController;
use crate::fault::{FaultInjector, InjectedRead};
use crate::flags::LwtFlags;
use crate::linestate::LineTable;
use crate::wear::{WearConfig, WearTable};
use readduo_memsim::{
    DeviceModel, EnergyModel, ReadMode, ReadOutcome, ScrubOutcome, WriteOutcome,
};
use readduo_pcm::{DeviceParams, MetricKind};

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

/// What one drifting-MLC scheme decides; the [`Scheme`] around it does
/// everything else.
///
/// The constants and [`slc_bits`](Policy::slc_bits) are fixed for the
/// scheme's whole life.
pub trait Policy: Sized {
    /// The metric a scrub visit senses with.
    const SCAN: MetricKind;
    /// Whether an R-read in the detected-uncorrectable band retries with
    /// M-sensing: every policy but the R-only Scrubbing baseline, which
    /// has no M-sensing circuit.
    const ESCALATES: bool;

    /// SLC flag bits every full-line write programs beside the line.
    fn slc_bits(&self) -> u32 {
        0
    }

    /// Services a demand read of `line` at `now_s`: the R-first read
    /// unless the policy senses differently.
    fn read(scheme: &mut Scheme<Self>, line: u64, now_s: f64) -> ReadOutcome {
        let age = scheme.age(line, now_s);
        scheme.r_first_read(line, now_s, age, None)
    }

    /// Services a demand write of `line` at `now_s`: a full-line rewrite
    /// unless the policy writes differently.
    fn write(scheme: &mut Scheme<Self>, line: u64, now_s: f64) -> WriteOutcome {
        scheme.rewrite(line, now_s, None)
    }

    /// The scrub verdict: whether a visit rewrites a line aged `age_s`
    /// with `stuck` dead cells, drawing any drift errors it senses from
    /// `sampler`.
    fn scrub_rewrites(&self, sampler: &mut DriftSampler, age_s: f64, stuck: u32) -> bool;
}

/// A drifting-MLC readout scheme: the device every such scheme shares,
/// around the policy `P` that decides how it reads, when a scrub rewrites
/// and, for LWT/Select, how it writes.
#[derive(Debug, Clone)]
pub struct Scheme<P> {
    sampler: DriftSampler,
    table: LineTable,
    energy: EnergyModel,
    params: DeviceParams,
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

impl<P: Policy> Scheme<P> {
    fn assemble(seed: u64, table: LineTable, policy: P) -> Self {
        Self {
            sampler: DriftSampler::new(seed),
            table,
            energy: EnergyModel::paper(),
            params: DeviceParams::paper(),
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
        self.injector = Some(FaultInjector::new(seed, P::ESCALATES));
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

    /// The full-line rewrite behind every demand, corrective, conversion
    /// and scrub write: `line` counts as fully written at `now_s`, LWT's
    /// flags re-track it in sub-interval `sub` when one is given, and the
    /// line is programmed with the policy's SLC flag bits alongside.
    fn rewrite(&mut self, line: u64, now_s: f64, sub: Option<u8>) -> WriteOutcome {
        let st = self.table.get_mut(line, now_s);
        st.last_full_write_s = now_s;
        if let Some(s) = sub {
            st.flags.on_write(s);
        }
        let mut out = full_line_write(&self.energy, &self.params.timing, self.policy.slc_bits());
        self.charge_wear(line, &mut out);
        out
    }

    /// A read in `mode` returning `drift_errors` wrong bits.
    fn read_outcome(&self, mode: ReadMode, drift_errors: u32) -> ReadOutcome {
        let (timing, e) = (&self.params.timing, &self.energy);
        let (latency_ns, energy_pj) = match mode {
            ReadMode::RRead => (timing.r_read_ns, e.r_read_pj),
            ReadMode::MRead => (timing.m_read_ns, e.m_read_pj),
            ReadMode::RmRead => (self.params.escalation_read_ns, e.r_read_pj + e.m_read_pj),
        };
        ReadOutcome {
            drift_errors,
            ..ReadOutcome::basic(latency_ns, mode, energy_pj)
        }
    }

    /// The R-first read of `line` aged `age`, shared by Scrubbing, Hybrid
    /// and LWT's tracked lines.
    ///
    /// Analytically, an R-read, unless R-sensing's errors are detected but
    /// not correctable and the policy escalates, which retries with
    /// M-sensing; beyond detection the data goes back uncorrected, as an
    /// R-read. With an injector, the decode chain decides instead, and a
    /// line readable only through escalation is rewritten (re-tracked in
    /// `sub`) so it re-enters the fast R-readable population.
    fn r_first_read(&mut self, line: u64, now_s: f64, age: f64, sub: Option<u8>) -> ReadOutcome {
        if let Some(r) = self.inject(line, age, false) {
            let mut out = self.injected_read(r, false);
            if r.needs_rewrite {
                out.corrective = Some(self.rewrite(line, now_s, sub));
            }
            return out;
        }
        let errors = self.sampler.bit_errors(MetricKind::R, age);
        if !P::ESCALATES || errors <= CORRECT_MAX || errors > DETECT_MAX {
            return self.read_outcome(ReadMode::RRead, errors);
        }
        self.rm_reads += 1;
        let m_errors = self.sampler.bit_errors(MetricKind::M, age);
        self.read_outcome(ReadMode::RmRead, m_errors)
    }

    /// The outcome of an injected read `r`: an R-read, or an R-M-read when
    /// it escalated or (`m_only`) skipped R-sensing outright. Corrective
    /// traffic is the caller's: it schedules that when `r.needs_rewrite`.
    fn injected_read(&mut self, r: InjectedRead, m_only: bool) -> ReadOutcome {
        if r.escalated {
            self.rm_reads += 1;
        }
        let out = if r.escalated || m_only {
            self.read_outcome(ReadMode::RmRead, r.m_errors)
        } else {
            self.read_outcome(ReadMode::RRead, r.r_errors)
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

impl<P: Policy> DeviceModel for Scheme<P> {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        P::read(self, line, now_s)
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        P::write(self, line, now_s)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let age = self.age(line, now_s);
        let stuck = self.stuck_cells(line);
        let rewrite = self.policy.scrub_rewrites(&mut self.sampler, age, stuck);
        let st = self.table.get_mut(line, now_s);
        st.last_scrub_s = now_s;
        // Only LWT reads its flags; the other schemes carry them unread.
        st.flags.on_scrub(rewrite);
        // A line with dead cells pays an escalated scan.
        let scan = match (stuck, P::SCAN) {
            (0, MetricKind::R) => ReadMode::RRead,
            (0, MetricKind::M) => ReadMode::MRead,
            _ => ReadMode::RmRead,
        };
        ScrubOutcome {
            read_latency_ns: self.read_outcome(scan, 0).latency_ns,
            read_energy_pj: self.energy.scrub_scan_pj,
            rewrite: rewrite.then(|| self.rewrite(line, now_s, None)),
        }
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        Some(self.table.scrub_interval_s())
    }

    fn prefetch_line(&mut self, line: u64) {
        self.table.prefetch(line);
    }
}

// ---------------------------------------------------------------------
// Scrubbing baseline (R-sensing).
// ---------------------------------------------------------------------

/// The Scrubbing baseline's policy: R-sensing without escalation, and a
/// scrub rewrite on `w` errors.
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

    fn new(seed: u64, interval_s: f64, w: u32) -> Self {
        let table = if w == 0 {
            LineTable::new(2, interval_s, 0.0).with_cold_writes_at_scrub()
        } else {
            LineTable::new(2, interval_s, COLD_AGE_SCRUBBED_S)
        };
        Self::assemble(seed, table, ScrubbingPolicy { w })
    }
}

impl Policy for ScrubbingPolicy {
    const SCAN: MetricKind = MetricKind::R;
    const ESCALATES: bool = false;

    fn scrub_rewrites(&self, sampler: &mut DriftSampler, age_s: f64, stuck: u32) -> bool {
        // `W = 0` rewrites on every visit. Dead cells shrink the
        // correctable margin: a line with stuck bits is rewritten
        // unconditionally so the spare machinery gets a chance to remap it.
        sampler.bit_errors(Self::SCAN, age_s) >= self.w || stuck > 0
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
        Self::assemble(seed, table, MMetricPolicy)
    }
}

impl Policy for MMetricPolicy {
    const SCAN: MetricKind = MetricKind::M;
    const ESCALATES: bool = true;

    fn read(scheme: &mut Scheme<Self>, line: u64, now_s: f64) -> ReadOutcome {
        let age = scheme.age(line, now_s);
        let errors = scheme.sampler.bit_errors(MetricKind::M, age);
        scheme.read_outcome(ReadMode::MRead, errors)
    }

    fn scrub_rewrites(&self, sampler: &mut DriftSampler, age_s: f64, _stuck: u32) -> bool {
        sampler.bit_errors(Self::SCAN, age_s) >= 1
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
        Self::assemble(seed, table, HybridPolicy)
    }
}

impl Policy for HybridPolicy {
    const SCAN: MetricKind = MetricKind::M;
    const ESCALATES: bool = true;

    /// `W = 0`: every visit rewrites, without sensing errors first.
    fn scrub_rewrites(&self, _: &mut DriftSampler, _: f64, _: u32) -> bool {
        true
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
        Self::assemble(seed, table, policy)
    }
}

impl Policy for LwtPolicy {
    const SCAN: MetricKind = MetricKind::M;
    const ESCALATES: bool = true;

    fn slc_bits(&self) -> u32 {
        LwtFlags::storage_bits(self.k)
    }

    fn read(scheme: &mut Scheme<Self>, line: u64, now_s: f64) -> ReadOutcome {
        let st = *scheme.table.get_mut(line, now_s);
        let sub = scheme.table.sub_interval(&st, now_s);
        let allows_r = sub.is_some_and(|s| st.flags.read_allows_r(s));
        scheme.policy.controller.observe_read(!allows_r);
        let age = scheme.table.full_write_age(&st, now_s);
        if allows_r {
            return scheme.r_first_read(line, now_s, age, sub);
        }
        // Un-tracked: R-sensing aborted after the flag check, M-sensing
        // reissued — an R-M-read.
        scheme.rm_reads += 1;
        let mut out = match scheme.inject(line, age, true) {
            Some(r) => scheme.injected_read(r, true),
            None => {
                let errors = scheme.sampler.bit_errors(MetricKind::M, age);
                scheme.read_outcome(ReadMode::RmRead, errors)
            }
        };
        let policy = &scheme.policy;
        let convert = policy.conversion_enabled && policy.controller.should_convert(scheme.rm_reads);
        // The redundant write re-tracks the line: the conversion is a
        // full-line write even under Select (it is the only write in the
        // window).
        out.conversion = convert.then(|| scheme.rewrite(line, now_s, sub));
        out.untracked = true;
        out
    }

    fn write(scheme: &mut Scheme<Self>, line: u64, now_s: f64) -> WriteOutcome {
        let st = *scheme.table.get_mut(line, now_s);
        // Select-(k:s): differential write when the last full-line write is
        // within `s` sub-intervals; the index-flag (conservatively, the
        // recorded full-write time) measures that distance.
        let window_s = scheme.policy.sdw_window as f64 * scheme.table.sub_len_s();
        if scheme.policy.sdw_window > 0 && scheme.table.full_write_age(&st, now_s) < window_s {
            // Differential write: only modified cells; flags are NOT
            // updated (the R-sensing distance keeps measuring from the
            // last full write).
            let cells = scheme.sampler.differential_write_cells();
            let mut out = differential_write(&scheme.energy, &scheme.params.timing, cells);
            scheme.charge_wear(line, &mut out);
            return out;
        }
        let sub = scheme.table.sub_interval(&st, now_s);
        scheme.rewrite(line, now_s, sub)
    }

    fn scrub_rewrites(&self, sampler: &mut DriftSampler, age_s: f64, stuck: u32) -> bool {
        // Stuck bits eat into the BCH margin: force the rewrite so the
        // wear controller sees the line and can remap it onto a spare.
        sampler.bit_errors(Self::SCAN, age_s) >= 1 || stuck > 0
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

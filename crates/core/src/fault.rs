//! Fault injection for the readout schemes: per-read Monte-Carlo error
//! patterns pushed through real BCH decoding and a retry/escalation path.
//!
//! With an injector attached, a scheme's read path stops *assuming* the
//! band its analytically sampled error count falls into and instead
//! *experiences* the errors: the [`FaultModel`] samples which codeword
//! bits the drifted cells return wrong, [`Bch::decode_error_pattern`]
//! decides whether the on-die decoder corrects, flags, or — the dreaded
//! case — silently miscorrects them, and a failed R-decode escalates to an
//! M-read whose pattern comes from the *same* per-cell randomness. An
//! escalated read that had to repair the line through ECC schedules a
//! corrective rewrite so the line re-enters the fast R-readable
//! population, exactly the refresh duty the scrub engine performs in bulk.
//!
//! Without an injector every scheme byte-for-byte retains its analytic
//! read path — fault injection is strictly additive.

use readduo_ecc::{Bch, BchBitslice, PatternOutcome, BITSLICE_LANES};
use readduo_pcm::FaultModel;
use readduo_rng::rngs::StdRng;
use readduo_rng::SeedableRng;
use std::sync::Arc;

use crate::common::FULL_LINE_CELLS;

/// What one injected read experienced, metric by metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedRead {
    /// Wrong codeword bits the R-sensing returned.
    pub r_errors: u32,
    /// Wrong codeword bits the M-sensing returned (0 unless escalated or
    /// read directly with M).
    pub m_errors: u32,
    /// The R-decode failed (detected-uncorrectable band) and the read was
    /// retried with M-sensing.
    pub escalated: bool,
    /// Bits the successful decode repaired.
    pub corrected_bits: u32,
    /// Even the final decode flagged the word uncorrectable; the host gets
    /// an error indication instead of data.
    pub detected_uncorrectable: bool,
    /// A decode accepted or produced a wrong codeword — wrong data with no
    /// indication.
    pub silent_corruption: bool,
    /// The line survived only through escalation + ECC and should be
    /// rewritten so it re-enters the fast R-readable population.
    pub needs_rewrite: bool,
    /// Stuck-at bits of worn-out cells that read back wrong (they entered
    /// the decode as erasure-hinted persistent errors; 0 on the wear-free
    /// paths).
    pub stuck_bits: u32,
}

/// Per-scheme fault injector: samples line faults, decodes them with the
/// paper's BCH-8 code, and applies the R→M escalation policy.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    model: FaultModel,
    code: Arc<Bch>,
    sliced: Arc<BchBitslice>,
    rng: StdRng,
    escalate: bool,
}

impl FaultInjector {
    /// Builds an injector with the paper's Table I/II fault model and
    /// BCH-8 over 512 data bits.
    ///
    /// `escalate` selects the read policy: ReadDuo schemes retry a failed
    /// R-decode as an M-read; the R-only Scrubbing baseline has no
    /// M-sensing circuit, so its failed decodes surface directly.
    pub fn new(seed: u64, escalate: bool) -> Self {
        let code = Arc::new(Bch::new(10, 8, 512));
        let sliced = Arc::new(BchBitslice::new(&code));
        Self {
            model: FaultModel::paper(),
            code,
            sliced,
            rng: StdRng::seed_from_u64(seed),
            escalate,
        }
    }

    /// Whether this injector escalates failed R-decodes to M-reads.
    pub fn escalates(&self) -> bool {
        self.escalate
    }

    /// The fault model in use.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// One R-first read of a line aged `age_s` seconds since its last full
    /// write, through the full decode/escalate chain.
    pub fn read_at(&mut self, age_s: f64) -> InjectedRead {
        let faults = self.model.sample_line(age_s, FULL_LINE_CELLS, &mut self.rng);
        let mut out = InjectedRead {
            r_errors: faults.r_bits.len() as u32,
            ..InjectedRead::default()
        };
        match self.code.decode_error_pattern(&faults.r_bits) {
            PatternOutcome::Clean => {}
            PatternOutcome::Corrected(n) => out.corrected_bits = n as u32,
            PatternOutcome::Miscorrected => out.silent_corruption = true,
            PatternOutcome::Detected if !self.escalate => out.detected_uncorrectable = true,
            PatternOutcome::Detected => {
                // Retry with M-sensing: same cells, the drift-robust
                // metric. The M pattern was sampled from the same per-cell
                // randomness, so this is the physical cell re-read, not a
                // fresh roll of the dice.
                out.escalated = true;
                out.m_errors = faults.m_bits.len() as u32;
                match self.code.decode_error_pattern(&faults.m_bits) {
                    PatternOutcome::Clean => out.needs_rewrite = true,
                    PatternOutcome::Corrected(n) => {
                        out.corrected_bits = n as u32;
                        out.needs_rewrite = true;
                    }
                    PatternOutcome::Detected => out.detected_uncorrectable = true,
                    PatternOutcome::Miscorrected => out.silent_corruption = true,
                }
            }
        }
        self.publish(&out);
        out
    }

    /// Reads up to [`BITSLICE_LANES`] lines in one pass — one R-first read
    /// per age, decoded by the 64-lane bitsliced BCH decoder.
    ///
    /// Outcome-identical to calling [`read_at`] once per age in order: the
    /// fault patterns are sampled sequentially from the same RNG stream
    /// *before* any decoding (decoding consumes no randomness, so hoisting
    /// it out of the sampling loop cannot perturb the stream), and the
    /// bitsliced decoder is pinned lane-for-lane to the scalar oracle.
    /// Escalated lanes decode their M-patterns in a second batched pass.
    ///
    /// # Panics
    ///
    /// Panics if more than [`BITSLICE_LANES`] ages are passed.
    ///
    /// [`read_at`]: FaultInjector::read_at
    pub fn read_batch_at(&mut self, ages: &[f64]) -> Vec<InjectedRead> {
        assert!(
            ages.len() <= BITSLICE_LANES,
            "at most {BITSLICE_LANES} reads per batch, got {}",
            ages.len()
        );
        let faults: Vec<_> = ages
            .iter()
            .map(|&a| self.model.sample_line(a, FULL_LINE_CELLS, &mut self.rng))
            .collect();
        let r_pats: Vec<&[u16]> = faults.iter().map(|f| f.r_bits.as_slice()).collect();
        let mut outs: Vec<InjectedRead> = faults
            .iter()
            .map(|f| InjectedRead {
                r_errors: f.r_bits.len() as u32,
                ..InjectedRead::default()
            })
            .collect();
        let mut escalations: Vec<usize> = Vec::new();
        for (i, verdict) in self.sliced.decode_patterns(&r_pats).into_iter().enumerate() {
            match verdict {
                PatternOutcome::Clean => {}
                PatternOutcome::Corrected(n) => outs[i].corrected_bits = n as u32,
                PatternOutcome::Miscorrected => outs[i].silent_corruption = true,
                PatternOutcome::Detected if !self.escalate => {
                    outs[i].detected_uncorrectable = true
                }
                PatternOutcome::Detected => {
                    outs[i].escalated = true;
                    outs[i].m_errors = faults[i].m_bits.len() as u32;
                    escalations.push(i);
                }
            }
        }
        if !escalations.is_empty() {
            let m_pats: Vec<&[u16]> =
                escalations.iter().map(|&i| faults[i].m_bits.as_slice()).collect();
            for (&i, verdict) in escalations.iter().zip(self.sliced.decode_patterns(&m_pats)) {
                match verdict {
                    PatternOutcome::Clean => outs[i].needs_rewrite = true,
                    PatternOutcome::Corrected(n) => {
                        outs[i].corrected_bits = n as u32;
                        outs[i].needs_rewrite = true;
                    }
                    PatternOutcome::Detected => outs[i].detected_uncorrectable = true,
                    PatternOutcome::Miscorrected => outs[i].silent_corruption = true,
                }
            }
        }
        for o in &outs {
            self.publish(o);
        }
        outs
    }

    /// One R-first read of a line carrying stuck-at bits from worn-out
    /// cells: `stuck_wrong` are the codeword bits the dead cells return
    /// wrong, `erased` every bit position a dead cell occupies (the
    /// erasure hints handed to the decoder). Samples the drift pattern
    /// exactly like [`read_at`] — same RNG consumption — then overlays the
    /// stuck cells: dead silicon does not drift, so drift bits landing on
    /// erased positions are replaced by the stuck reading, and both sides
    /// decode through the errors-and-erasures path.
    ///
    /// With empty slices this is outcome- and stream-identical to
    /// [`read_at`]; callers branch to the plain path anyway to skip the
    /// merge.
    ///
    /// [`read_at`]: FaultInjector::read_at
    pub fn read_at_stuck(
        &mut self,
        age_s: f64,
        stuck_wrong: &[u16],
        erased: &[u16],
    ) -> InjectedRead {
        let faults = self.model.sample_line(age_s, FULL_LINE_CELLS, &mut self.rng);
        let r_bits = merge_stuck(&faults.r_bits, stuck_wrong, erased);
        let mut out = InjectedRead {
            r_errors: r_bits.len() as u32,
            stuck_bits: stuck_wrong.len() as u32,
            ..InjectedRead::default()
        };
        match self.code.decode_error_pattern_with_erasures(&r_bits, erased) {
            PatternOutcome::Clean => {}
            PatternOutcome::Corrected(n) => out.corrected_bits = n as u32,
            PatternOutcome::Miscorrected => out.silent_corruption = true,
            PatternOutcome::Detected if !self.escalate => out.detected_uncorrectable = true,
            PatternOutcome::Detected => {
                out.escalated = true;
                let m_bits = merge_stuck(&faults.m_bits, stuck_wrong, erased);
                out.m_errors = m_bits.len() as u32;
                match self.code.decode_error_pattern_with_erasures(&m_bits, erased) {
                    PatternOutcome::Clean => out.needs_rewrite = true,
                    PatternOutcome::Corrected(n) => {
                        out.corrected_bits = n as u32;
                        out.needs_rewrite = true;
                    }
                    PatternOutcome::Detected => out.detected_uncorrectable = true,
                    PatternOutcome::Miscorrected => out.silent_corruption = true,
                }
            }
        }
        self.publish(&out);
        out
    }

    /// The stuck-aware counterpart of [`read_m_at`]: a direct M-read of a
    /// line carrying dead cells, decoded with erasure hints. Same RNG
    /// consumption as [`read_m_at`].
    ///
    /// [`read_m_at`]: FaultInjector::read_m_at
    pub fn read_m_at_stuck(
        &mut self,
        age_s: f64,
        stuck_wrong: &[u16],
        erased: &[u16],
    ) -> InjectedRead {
        let faults = self.model.sample_line_m(age_s, FULL_LINE_CELLS, &mut self.rng);
        let m_bits = merge_stuck(&faults.m_bits, stuck_wrong, erased);
        let mut out = InjectedRead {
            m_errors: m_bits.len() as u32,
            stuck_bits: stuck_wrong.len() as u32,
            ..InjectedRead::default()
        };
        match self.code.decode_error_pattern_with_erasures(&m_bits, erased) {
            PatternOutcome::Clean => {}
            PatternOutcome::Corrected(n) => out.corrected_bits = n as u32,
            PatternOutcome::Detected => out.detected_uncorrectable = true,
            PatternOutcome::Miscorrected => out.silent_corruption = true,
        }
        self.publish(&out);
        out
    }

    /// One direct M-read (LWT's untracked path: R-sensing is skipped by
    /// the flag check, the line is read with M outright).
    pub fn read_m_at(&mut self, age_s: f64) -> InjectedRead {
        let faults = self.model.sample_line_m(age_s, FULL_LINE_CELLS, &mut self.rng);
        let mut out = InjectedRead {
            m_errors: faults.m_bits.len() as u32,
            ..InjectedRead::default()
        };
        match self.code.decode_error_pattern(&faults.m_bits) {
            PatternOutcome::Clean => {}
            PatternOutcome::Corrected(n) => out.corrected_bits = n as u32,
            PatternOutcome::Detected => out.detected_uncorrectable = true,
            PatternOutcome::Miscorrected => out.silent_corruption = true,
        }
        self.publish(&out);
        out
    }

    /// Publishes the read's outcome into the telemetry metrics registry —
    /// a branch-and-return no-op unless `READDUO_TELEMETRY` is on, and
    /// never part of the injected result itself.
    fn publish(&self, out: &InjectedRead) {
        use readduo_telemetry::metrics::counter_add;
        counter_add("fault.reads", 1);
        counter_add("fault.escalations", u64::from(out.escalated));
        counter_add("fault.corrected_bits", u64::from(out.corrected_bits));
        counter_add("fault.rewrites_needed", u64::from(out.needs_rewrite));
        counter_add("fault.uncorrectable", u64::from(out.detected_uncorrectable));
        counter_add("fault.silent_corruptions", u64::from(out.silent_corruption));
        counter_add("fault.stuck_bits", u64::from(out.stuck_bits));
    }
}

/// Overlays a line's stuck-at bits on a sampled drift pattern: drift bits
/// landing on erased positions are dropped (dead silicon does not drift —
/// the cell reads its stuck value whatever was programmed) and the dead
/// cells' wrong bits merged in. All three inputs are ascending; so is the
/// result.
fn merge_stuck(drift: &[u16], stuck_wrong: &[u16], erased: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(drift.len() + stuck_wrong.len());
    let mut stuck = stuck_wrong.iter().copied().peekable();
    for &b in drift.iter().filter(|b| erased.binary_search(b).is_err()) {
        while let Some(&s) = stuck.peek() {
            if s < b {
                out.push(s);
                stuck.next();
            } else {
                break;
            }
        }
        out.push(b);
    }
    out.extend(stuck);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_lines_read_clean() {
        let mut inj = FaultInjector::new(1, true);
        for _ in 0..50 {
            let r = inj.read_at(1.0);
            assert_eq!(r, InjectedRead::default());
        }
    }

    #[test]
    fn injector_is_deterministic() {
        let mut a = FaultInjector::new(9, true);
        let mut b = FaultInjector::new(9, true);
        for _ in 0..200 {
            assert_eq!(a.read_at(2e4), b.read_at(2e4));
        }
    }

    #[test]
    fn escalation_happens_and_heals_at_high_age() {
        // At 2e4 s a meaningful fraction of R-reads exceed 8 errors; the
        // escalated M-read (α/7) must decode cleanly and order a rewrite.
        let mut inj = FaultInjector::new(2, true);
        let mut escalated = 0u32;
        let mut silent = 0u32;
        for _ in 0..3000 {
            let r = inj.read_at(2e4);
            if r.escalated {
                escalated += 1;
                assert!(r.needs_rewrite || r.detected_uncorrectable || r.silent_corruption);
                assert!(r.m_errors <= r.r_errors);
            }
            if r.silent_corruption {
                silent += 1;
            }
        }
        assert!(escalated > 0, "no read escalated at age 2e4 s");
        assert_eq!(silent, 0, "ReadDuo escalation must not corrupt silently");
    }

    #[test]
    fn non_escalating_injector_surfaces_failures() {
        let mut with = FaultInjector::new(3, true);
        let mut without = FaultInjector::new(3, false);
        let (mut esc, mut det) = (0u32, 0u32);
        for _ in 0..3000 {
            esc += u32::from(with.read_at(2e4).escalated);
            det += u32::from(without.read_at(2e4).detected_uncorrectable);
        }
        // Same seed, same fault stream: every escalation of the ReadDuo
        // policy is a detected-uncorrectable for the R-only baseline.
        assert_eq!(esc, det);
        assert!(det > 0);
    }

    #[test]
    fn batched_reads_equal_sequential_reads() {
        // Same seed: a batched pass must reproduce the sequential chain
        // read for read, across ages spanning clean, correctable and
        // escalating bands — and regardless of batch size.
        let ages: Vec<f64> = (0..150)
            .map(|i| match i % 5 {
                0 => 1.0,
                1 => 640.0,
                2 => 2e4,
                3 => 3e4,
                _ => 1e5,
            })
            .collect();
        let mut seq = FaultInjector::new(77, true);
        let expected: Vec<InjectedRead> = ages.iter().map(|&a| seq.read_at(a)).collect();
        for chunk in [1usize, 7, 64] {
            let mut batch = FaultInjector::new(77, true);
            let got: Vec<InjectedRead> =
                ages.chunks(chunk).flat_map(|c| batch.read_batch_at(c)).collect();
            assert_eq!(got, expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn stuck_reads_with_empty_masks_match_plain_reads() {
        // The wear-free fast path in the schemes calls `read_at`; the
        // stuck variant with empty masks must be indistinguishable, so a
        // wear table that never saw a failure changes nothing.
        let ages = [1.0, 640.0, 2e4, 3e4, 1e5];
        let mut plain = FaultInjector::new(21, true);
        let mut stuck = FaultInjector::new(21, true);
        for _ in 0..100 {
            for &a in &ages {
                assert_eq!(stuck.read_at_stuck(a, &[], &[]), plain.read_at(a));
            }
        }
        let mut plain_m = FaultInjector::new(22, true);
        let mut stuck_m = FaultInjector::new(22, true);
        for _ in 0..100 {
            for &a in &ages {
                assert_eq!(stuck_m.read_m_at_stuck(a, &[], &[]), plain_m.read_m_at(a));
            }
        }
    }

    #[test]
    fn stuck_bits_decode_through_erasure_hints_on_young_lines() {
        // A young line (no drift errors) carrying dead cells: the stuck
        // wrong bits are persistent errors, but their positions are known
        // — the erasure-aware decode must repair them with no silent
        // corruption, even with all 8 erased bits wrong (e=0, f=8 ≤ t).
        let erased: Vec<u16> = vec![10, 11, 100, 101, 300, 301, 500, 501];
        for wrong_n in [1usize, 3, 5, 8] {
            let wrong: Vec<u16> = erased[..wrong_n].to_vec();
            let mut inj = FaultInjector::new(31, true);
            for _ in 0..50 {
                let r = inj.read_at_stuck(0.5, &wrong, &erased);
                assert_eq!(r.stuck_bits, wrong_n as u32);
                assert!(!r.silent_corruption, "wrong={wrong_n}");
                assert!(!r.detected_uncorrectable, "wrong={wrong_n}");
                assert_eq!(r.corrected_bits, wrong_n as u32, "wrong={wrong_n}");
            }
        }
    }

    #[test]
    fn stuck_reads_never_silently_corrupt_at_field_ages() {
        // Dead cells + drift at the scrub-interval age: the combined
        // pattern may escalate or flag, but must never pass wrong data off
        // as good — that is the whole point of the erasure hints.
        let wrong: Vec<u16> = vec![40, 41, 220];
        let erased: Vec<u16> = vec![40, 41, 220, 221];
        let mut inj = FaultInjector::new(32, true);
        for _ in 0..2000 {
            let r = inj.read_at_stuck(640.0, &wrong, &erased);
            assert!(!r.silent_corruption);
        }
    }

    #[test]
    fn direct_m_reads_are_robust() {
        let mut inj = FaultInjector::new(4, true);
        for _ in 0..500 {
            let r = inj.read_m_at(1e4);
            assert!(!r.escalated);
            assert!(!r.needs_rewrite);
            assert!(!r.detected_uncorrectable && !r.silent_corruption);
            assert!(r.m_errors <= 8, "M at 1e4 s stays within correction");
        }
    }
}

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

use readduo_ecc::{Bch, PatternOutcome};
use readduo_pcm::FaultModel;
use readduo_rng::rngs::StdRng;
use readduo_rng::SeedableRng;
use std::borrow::Cow;
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
    /// the decode as erasure-hinted persistent errors; 0 on lines without
    /// dead cells).
    pub stuck_bits: u32,
}

/// Per-scheme fault injector: samples line faults, decodes them with the
/// paper's BCH-8 code, and applies the R→M escalation policy.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    model: FaultModel,
    code: Arc<Bch>,
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
        Self {
            model: FaultModel::paper(),
            code: Arc::new(Bch::new(10, 8, 512)),
            rng: StdRng::seed_from_u64(seed),
            escalate,
        }
    }

    /// One read of a line aged `age_s` seconds since its last full write:
    /// R-first through the decode/escalate chain, or a direct M-read when
    /// `m_only` (LWT's untracked path: the flag check skips R-sensing).
    ///
    /// `stuck_wrong` are the codeword bits worn-out cells return wrong and
    /// `erased` every bit position a dead cell occupies — the erasure
    /// hints handed to the decoder, a superset of `stuck_wrong`; both are
    /// ascending, and empty on lines without dead cells. Dead silicon does
    /// not drift, so drift bits landing on erased positions are replaced
    /// by the stuck reading.
    ///
    /// The line is sampled once, before any decoding: an escalated M-read
    /// re-senses the same cells, so its pattern comes from the same
    /// per-cell randomness, not a fresh roll of the dice.
    pub fn read(
        &mut self,
        age_s: f64,
        m_only: bool,
        stuck_wrong: &[u16],
        erased: &[u16],
    ) -> InjectedRead {
        let faults = if m_only {
            self.model
                .sample_line_m(age_s, FULL_LINE_CELLS, &mut self.rng)
        } else {
            self.model
                .sample_line(age_s, FULL_LINE_CELLS, &mut self.rng)
        };
        let code = &self.code;
        let decode = |drift: &[u16], wrong_bits: &mut u32| {
            let bits = merge_stuck(drift, stuck_wrong, erased);
            *wrong_bits = bits.len() as u32;
            code.decode_error_pattern_with_erasures(&bits, erased)
        };
        let mut out = InjectedRead {
            stuck_bits: stuck_wrong.len() as u32,
            ..InjectedRead::default()
        };
        let r_verdict = (!m_only).then(|| decode(&faults.r_bits, &mut out.r_errors));
        out.escalated = self.escalate && r_verdict == Some(PatternOutcome::Detected);
        let verdict = match r_verdict {
            Some(v) if !out.escalated => v,
            _ => decode(&faults.m_bits, &mut out.m_errors),
        };
        match verdict {
            PatternOutcome::Clean => {}
            PatternOutcome::Corrected(n) => out.corrected_bits = n as u32,
            PatternOutcome::Detected => out.detected_uncorrectable = true,
            PatternOutcome::Miscorrected => out.silent_corruption = true,
        }
        // A line readable only through escalation is rewritten so it
        // re-enters the fast R-readable population.
        out.needs_rewrite = out.escalated && !out.detected_uncorrectable && !out.silent_corruption;
        out
    }
}

/// Overlays a line's stuck-at bits on a sampled drift pattern: drift bits
/// landing on erased positions are dropped (dead silicon does not drift —
/// the cell reads its stuck value whatever was programmed) and the dead
/// cells' wrong bits merged in. All three inputs are ascending; so is the
/// result, which borrows `drift` when nothing is erased.
fn merge_stuck<'a>(drift: &'a [u16], stuck_wrong: &[u16], erased: &[u16]) -> Cow<'a, [u16]> {
    if erased.is_empty() {
        return Cow::Borrowed(drift);
    }
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
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_lines_read_clean() {
        let mut inj = FaultInjector::new(1, true);
        for _ in 0..50 {
            let r = inj.read(1.0, false, &[], &[]);
            assert_eq!(r, InjectedRead::default());
        }
    }

    #[test]
    fn injector_is_deterministic() {
        let mut a = FaultInjector::new(9, true);
        let mut b = FaultInjector::new(9, true);
        for _ in 0..200 {
            assert_eq!(a.read(2e4, false, &[], &[]), b.read(2e4, false, &[], &[]));
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
            let r = inj.read(2e4, false, &[], &[]);
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
                let r = inj.read(0.5, false, &wrong, &erased);
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
            let r = inj.read(640.0, false, &wrong, &erased);
            assert!(!r.silent_corruption);
        }
    }

    #[test]
    fn direct_m_reads_are_robust() {
        let mut inj = FaultInjector::new(4, true);
        for _ in 0..500 {
            let r = inj.read(1e4, true, &[], &[]);
            assert!(!r.escalated);
            assert!(!r.needs_rewrite);
            assert!(!r.detected_uncorrectable && !r.silent_corruption);
            assert!(r.m_errors <= 8, "M at 1e4 s stays within correction");
        }
    }
}

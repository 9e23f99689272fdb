//! Simulation statistics.

use crate::device::ReadMode;
use readduo_telemetry::Log2Histogram;

/// Streaming latency summary (count / mean / max / percentiles) without
/// storing samples: exact count, sum, and max, plus a log2-bucketed
/// histogram for the tail. Recording is unconditional — the histogram is
/// plain `Copy` data and a few instructions per observation — so reports
/// stay bit-for-bit identical whether telemetry is on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    count: u64,
    sum_ns: u128,
    max_ns: u64,
    hist: Log2Histogram,
}

impl LatencySummary {
    /// Records one latency observation in ns.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
        self.hist.record(ns);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Maximum latency in ns.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Median latency in ns, as a log2-bucket upper bound (an overestimate
    /// of the true percentile by at most 2×; see [`Log2Histogram`]).
    pub fn p50_ns(&self) -> u64 {
        self.hist.p50()
    }

    /// 95th-percentile latency in ns (bucketed; see [`p50_ns`](Self::p50_ns)).
    pub fn p95_ns(&self) -> u64 {
        self.hist.p95()
    }

    /// 99th-percentile latency in ns (bucketed; see [`p50_ns`](Self::p50_ns)).
    pub fn p99_ns(&self) -> u64 {
        self.hist.p99()
    }

    /// The underlying log2 histogram, for publishing into the telemetry
    /// metrics registry without re-recording every observation.
    pub fn histogram(&self) -> &Log2Histogram {
        &self.hist
    }

    /// Folds another summary in: the result is exactly the summary that
    /// would have been produced by recording both observation streams
    /// (count/sum/max are exact; log2 buckets add element-wise).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.hist.merge(&other.hist);
    }
}

/// Full report of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// End-to-end execution time: the last core's completion, ns.
    pub exec_ns: u64,
    /// Demand reads serviced.
    pub reads: u64,
    /// Demand writes serviced.
    pub writes: u64,
    /// Reads serviced per mode (R-read / M-read / R-M-read).
    pub reads_r: u64,
    /// M-read count.
    pub reads_m: u64,
    /// R-M-read count.
    pub reads_rm: u64,
    /// Reads that hit untracked lines (LWT's `P%` numerator).
    pub untracked_reads: u64,
    /// R-M-read conversions performed (redundant writes after reads).
    pub conversions: u64,
    /// End-to-end read latency (queueing + device + bus).
    pub read_latency: LatencySummary,
    /// Demand writes cancelled by arriving reads.
    pub write_cancellations: u64,
    /// Scrub visits performed.
    pub scrubs: u64,
    /// Scrub visits skipped due to bank backlog.
    pub scrubs_skipped: u64,
    /// Scrub visits that rewrote the line.
    pub scrub_rewrites: u64,
    /// MLC cells programmed by demand writes.
    pub cells_written_demand: u64,
    /// MLC cells programmed by scrub rewrites.
    pub cells_written_scrub: u64,
    /// MLC cells programmed by R-M-read conversions.
    pub cells_written_conversion: u64,
    /// SLC flag bits programmed.
    pub slc_bits_written: u64,
    /// Read energy, pJ.
    pub energy_read_pj: f64,
    /// Demand-write energy, pJ.
    pub energy_write_pj: f64,
    /// Scrub energy (scan + rewrite), pJ.
    pub energy_scrub_pj: f64,
    /// Conversion-write energy, pJ.
    pub energy_conversion_pj: f64,
    /// Total drift errors observed at reads.
    pub drift_errors_seen: u64,
    /// Reads on which sensing returned at least one wrong bit (before
    /// ECC); the numerator of the empirical line error rate.
    pub reads_errored: u64,
    /// Bits repaired by BCH decode across all reads.
    pub ecc_corrected_bits: u64,
    /// Reads that failed with an error indication even after escalation.
    pub detected_uncorrectable: u64,
    /// Reads that returned wrong data with no error indication.
    pub silent_corruptions: u64,
    /// Corrective rewrites scheduled by escalated reads.
    pub corrective_rewrites: u64,
    /// MLC cells programmed by corrective rewrites.
    pub cells_written_corrective: u64,
    /// Corrective-rewrite energy, pJ.
    pub energy_corrective_pj: f64,
    /// End-to-end latency of escalated (R-M) reads only — the retry-path
    /// tail the paper's Figure 4 worries about.
    pub retry_latency: LatencySummary,
    /// Write-verify retry pulses issued for cells that failed to program
    /// (wear subsystem; zero while wear is disabled).
    pub verify_retries: u64,
    /// Cells declared dead after exhausting their retry budget.
    pub wear_cells_failed: u64,
    /// Lines remapped to a spare after crossing the stuck-cell margin.
    pub lines_remapped: u64,
    /// Writes that wanted a remap but found the spare pool empty.
    pub spares_exhausted_writes: u64,
    /// Reads that saw at least one wrong stuck-at bit.
    pub stuck_bit_reads: u64,
    /// Total wrong stuck-at bits entering the erasure-aware decoder.
    pub stuck_bits_seen: u64,
    /// Accesses serviced from the DRAM migration tier (zero while the
    /// tier is disabled, like every other `dram_*` field).
    pub dram_hits: u64,
    /// Accesses that missed the DRAM tier and went to PCM.
    pub dram_misses: u64,
    /// Lines promoted into DRAM after crossing the migration threshold.
    pub dram_promotions: u64,
    /// Resident lines evicted back to PCM to make room for a promotion.
    pub dram_demotions: u64,
    /// Dirty demotions that re-programmed the PCM line (drift-age reset).
    pub dram_writebacks: u64,
    /// MLC cells programmed by demotion writebacks.
    pub cells_written_demotion: u64,
    /// Demotion-writeback energy, pJ.
    pub energy_demotion_pj: f64,
}

impl SimReport {
    /// Tallies a read mode.
    pub(crate) fn record_read_mode(&mut self, mode: ReadMode) {
        match mode {
            ReadMode::RRead => self.reads_r += 1,
            ReadMode::MRead => self.reads_m += 1,
            ReadMode::RmRead => self.reads_rm += 1,
        }
    }

    /// Total dynamic energy, pJ.
    pub fn energy_total_pj(&self) -> f64 {
        self.energy_read_pj + self.energy_write_pj + self.energy_scrub_pj
            + self.energy_conversion_pj
            + self.energy_corrective_pj
            + self.energy_demotion_pj
    }

    /// Total MLC cells programmed (lifetime / endurance proxy). Demotion
    /// writebacks are PCM programs and count like any other source.
    pub fn cells_written_total(&self) -> u64 {
        self.cells_written_demand
            + self.cells_written_scrub
            + self.cells_written_conversion
            + self.cells_written_corrective
            + self.cells_written_demotion
    }

    /// DRAM-tier hit rate over all demand accesses, in \[0,1\] (0 when the
    /// tier is disabled or saw no traffic).
    pub fn dram_hit_rate(&self) -> f64 {
        let total = self.dram_hits + self.dram_misses;
        if total == 0 {
            0.0
        } else {
            self.dram_hits as f64 / total as f64
        }
    }

    /// Escalated (R-M) read fraction over all demand reads, in \[0,1\] — the
    /// LWT escalation rate the DRAM tier's drift-age resets shift down.
    /// DRAM hits stay in the denominator: they are demand reads the tier
    /// serviced without any chance of escalation.
    pub fn rm_read_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.reads_rm as f64 / self.reads as f64
        }
    }

    /// Fraction of reads that were untracked (`P%` as a ratio in \[0,1\]).
    pub fn untracked_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.untracked_reads as f64 / self.reads as f64
        }
    }

    /// Execution time in seconds.
    pub fn exec_seconds(&self) -> f64 {
        self.exec_ns as f64 * 1e-9
    }

    /// Folds another channel's report in: execution time is the max (the
    /// run ends when the last channel's last core retires), counters sum,
    /// energies sum, latency summaries merge exactly.
    ///
    /// Channel reports must be folded **in channel order** so the f64
    /// energy additions associate identically on every host — this is part
    /// of the sharded engine's bit-for-bit determinism contract.
    pub fn merge(&mut self, other: &Self) {
        self.exec_ns = self.exec_ns.max(other.exec_ns);
        self.reads += other.reads;
        self.writes += other.writes;
        self.reads_r += other.reads_r;
        self.reads_m += other.reads_m;
        self.reads_rm += other.reads_rm;
        self.untracked_reads += other.untracked_reads;
        self.conversions += other.conversions;
        self.read_latency.merge(&other.read_latency);
        self.write_cancellations += other.write_cancellations;
        self.scrubs += other.scrubs;
        self.scrubs_skipped += other.scrubs_skipped;
        self.scrub_rewrites += other.scrub_rewrites;
        self.cells_written_demand += other.cells_written_demand;
        self.cells_written_scrub += other.cells_written_scrub;
        self.cells_written_conversion += other.cells_written_conversion;
        self.slc_bits_written += other.slc_bits_written;
        self.energy_read_pj += other.energy_read_pj;
        self.energy_write_pj += other.energy_write_pj;
        self.energy_scrub_pj += other.energy_scrub_pj;
        self.energy_conversion_pj += other.energy_conversion_pj;
        self.drift_errors_seen += other.drift_errors_seen;
        self.reads_errored += other.reads_errored;
        self.ecc_corrected_bits += other.ecc_corrected_bits;
        self.detected_uncorrectable += other.detected_uncorrectable;
        self.silent_corruptions += other.silent_corruptions;
        self.corrective_rewrites += other.corrective_rewrites;
        self.cells_written_corrective += other.cells_written_corrective;
        self.energy_corrective_pj += other.energy_corrective_pj;
        self.retry_latency.merge(&other.retry_latency);
        self.verify_retries += other.verify_retries;
        self.wear_cells_failed += other.wear_cells_failed;
        self.lines_remapped += other.lines_remapped;
        self.spares_exhausted_writes += other.spares_exhausted_writes;
        self.stuck_bit_reads += other.stuck_bit_reads;
        self.stuck_bits_seen += other.stuck_bits_seen;
        self.dram_hits += other.dram_hits;
        self.dram_misses += other.dram_misses;
        self.dram_promotions += other.dram_promotions;
        self.dram_demotions += other.dram_demotions;
        self.dram_writebacks += other.dram_writebacks;
        self.cells_written_demotion += other.cells_written_demotion;
        self.energy_demotion_pj += other.energy_demotion_pj;
    }

    /// Merges per-channel reports (in channel order) into one run report.
    /// A single-element slice returns that report unchanged.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn merged(reports: &[Self]) -> Self {
        let (first, rest) = reports.split_first().expect("at least one channel report");
        let mut out = first.clone();
        for r in rest {
            out.merge(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_tracks_mean_and_max() {
        let mut s = LatencySummary::default();
        for v in [100u64, 200, 300] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean_ns() - 200.0).abs() < 1e-12);
        assert_eq!(s.max_ns(), 300);
        assert_eq!(LatencySummary::default().mean_ns(), 0.0);
    }

    #[test]
    fn latency_summary_percentiles_come_from_the_log2_histogram() {
        let mut s = LatencySummary::default();
        // 99 fast reads (158 ns, bucket upper 255) and one escalated read
        // (608 ns, bucket upper 1023): the tail shows only at p99+.
        for _ in 0..99 {
            s.record(158);
        }
        s.record(608);
        assert_eq!(s.p50_ns(), 255);
        assert_eq!(s.p95_ns(), 255);
        assert_eq!(s.p99_ns(), 255);
        assert_eq!(s.histogram().p999(), 1023);
        assert_eq!(s.histogram().count(), s.count());
        // Empty summaries report zero percentiles.
        let empty = LatencySummary::default();
        assert_eq!(empty.p50_ns(), 0);
        assert_eq!(empty.p99_ns(), 0);
    }

    #[test]
    fn latency_summary_does_not_overflow_at_u64_extremes() {
        // sum_ns is u128 precisely so that pathological runs (u64::MAX-ns
        // observations, e.g. saturated retry tails in stress harnesses)
        // keep exact sums instead of wrapping.
        let mut s = LatencySummary::default();
        s.record(u64::MAX);
        s.record(u64::MAX);
        s.record(0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.max_ns(), u64::MAX);
        let exact = 2.0 * u64::MAX as f64 / 3.0;
        assert!((s.mean_ns() - exact).abs() / exact < 1e-12);
    }

    /// Merging two summaries equals recording the concatenated stream —
    /// exactly, including the histogram buckets.
    #[test]
    fn latency_summary_merge_equals_concatenated_recording() {
        let (mut a, mut b, mut both) =
            (LatencySummary::default(), LatencySummary::default(), LatencySummary::default());
        for v in [150u64, 158, 608, 1_000_000] {
            a.record(v);
            both.record(v);
        }
        for v in [450u64, 0, 7] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // Merging an empty summary is the identity.
        let before = both;
        both.merge(&LatencySummary::default());
        assert_eq!(both, before);
    }

    /// `SimReport::merged` of one report is that report bit-for-bit (the
    /// single-channel invariant), and of two reports takes max exec time
    /// and sums counters/energies.
    #[test]
    fn report_merge_is_identity_for_one_channel() {
        let mut a = SimReport {
            exec_ns: 1_000,
            reads: 7,
            energy_read_pj: 0.1 + 0.2, // a non-representable sum, kept exact
            ..Default::default()
        };
        a.read_latency.record(158);
        assert_eq!(SimReport::merged(std::slice::from_ref(&a)), a);

        let b = SimReport { exec_ns: 900, reads: 3, energy_read_pj: 0.25, ..Default::default() };
        let m = SimReport::merged(&[a.clone(), b]);
        assert_eq!(m.exec_ns, 1_000);
        assert_eq!(m.reads, 10);
        assert_eq!(m.energy_read_pj, a.energy_read_pj + 0.25);
    }

    #[test]
    fn report_aggregates() {
        let mut r = SimReport::default();
        r.record_read_mode(ReadMode::RRead);
        r.record_read_mode(ReadMode::RmRead);
        r.reads = 2;
        r.untracked_reads = 1;
        r.energy_read_pj = 10.0;
        r.energy_write_pj = 20.0;
        r.energy_scrub_pj = 5.0;
        r.energy_conversion_pj = 1.0;
        r.energy_corrective_pj = 4.0;
        r.cells_written_demand = 256;
        r.cells_written_scrub = 256;
        r.cells_written_corrective = 296;
        assert_eq!(r.reads_r, 1);
        assert_eq!(r.reads_rm, 1);
        assert!((r.energy_total_pj() - 40.0).abs() < 1e-12);
        assert_eq!(r.cells_written_total(), 808);
        assert!((r.untracked_fraction() - 0.5).abs() < 1e-12);
    }
}

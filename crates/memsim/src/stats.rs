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

/// Declares [`SimReport`] from one field list. Each field carries its doc
/// comment, its type and how two channels' values fold into one: `max`,
/// `sum` or `merge` (for a [`LatencySummary`]). The struct,
/// [`SimReport::merge`] and [`SimReport::counters`] all come from this list,
/// so adding a field is one line. The field order is the `Debug` order,
/// which the benchmark's reference digests hash.
macro_rules! sim_report {
    ($(#[$meta:meta])* pub struct $report:ident {
        $($(#[$fmeta:meta])* $field:ident: $ty:ident => $fold:ident,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $report {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $report {
            /// Folds another channel's report in: execution time is the max
            /// (the run ends when the last channel's last core retires),
            /// counters sum, energies sum, latency summaries merge exactly.
            ///
            /// Channel reports must be folded **in channel order** so the f64
            /// energy additions associate identically on every host — this is
            /// part of the sharded engine's bit-for-bit determinism contract.
            pub fn merge(&mut self, other: &Self) {
                $(sim_report!(@fold $fold self.$field, other.$field);)*
            }

            /// The `(name, value)` pairs of the `u64` counters (every summed
            /// `u64` field, so not `exec_ns`), in field order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(sim_report!(@counter $ty $fold $field self.$field)),*].into_iter().flatten()
            }
        }
    };
    (@fold max $a:expr, $b:expr) => { $a = $a.max($b) };
    (@fold sum $a:expr, $b:expr) => { $a += $b };
    (@fold merge $a:expr, $b:expr) => { $a.merge(&$b) };
    (@counter u64 sum $field:ident $v:expr) => { Some((stringify!($field), $v)) };
    (@counter $ty:ident $fold:ident $field:ident $v:expr) => { None };
}

sim_report! {
    /// Full report of one simulation run.
    pub struct SimReport {
        /// End-to-end execution time: the last core's completion, ns.
        exec_ns: u64 => max,
        /// Demand reads serviced.
        reads: u64 => sum,
        /// Demand writes serviced.
        writes: u64 => sum,
        /// Reads serviced per mode (R-read / M-read / R-M-read).
        reads_r: u64 => sum,
        /// M-read count.
        reads_m: u64 => sum,
        /// R-M-read count.
        reads_rm: u64 => sum,
        /// Reads that hit untracked lines (LWT's `P%` numerator).
        untracked_reads: u64 => sum,
        /// R-M-read conversions performed (redundant writes after reads).
        conversions: u64 => sum,
        /// End-to-end read latency (queueing + device + bus).
        read_latency: LatencySummary => merge,
        /// Executing write jobs (demand, conversion or corrective)
        /// cancelled by arriving reads; each is queued again and re-run.
        write_cancellations: u64 => sum,
        /// Scrub visits performed.
        scrubs: u64 => sum,
        /// Scrub visits skipped due to bank backlog.
        scrubs_skipped: u64 => sum,
        /// Scrub visits that rewrote the line.
        scrub_rewrites: u64 => sum,
        /// MLC cells programmed by demand writes.
        cells_written_demand: u64 => sum,
        /// MLC cells programmed by scrub rewrites.
        cells_written_scrub: u64 => sum,
        /// MLC cells programmed by R-M-read conversions.
        cells_written_conversion: u64 => sum,
        /// SLC flag bits programmed.
        slc_bits_written: u64 => sum,
        /// Read energy, pJ.
        energy_read_pj: f64 => sum,
        /// Demand-write energy, pJ.
        energy_write_pj: f64 => sum,
        /// Scrub energy (scan + rewrite), pJ.
        energy_scrub_pj: f64 => sum,
        /// Conversion-write energy, pJ.
        energy_conversion_pj: f64 => sum,
        /// Total drift errors observed at reads.
        drift_errors_seen: u64 => sum,
        /// Reads on which sensing returned at least one wrong bit (before
        /// ECC); the numerator of the empirical line error rate.
        reads_errored: u64 => sum,
        /// Bits repaired by BCH decode across all reads.
        ecc_corrected_bits: u64 => sum,
        /// Reads that failed with an error indication even after escalation.
        detected_uncorrectable: u64 => sum,
        /// Reads that returned wrong data with no error indication.
        silent_corruptions: u64 => sum,
        /// Corrective rewrites scheduled by escalated reads.
        corrective_rewrites: u64 => sum,
        /// MLC cells programmed by corrective rewrites.
        cells_written_corrective: u64 => sum,
        /// Corrective-rewrite energy, pJ.
        energy_corrective_pj: f64 => sum,
        /// End-to-end latency of escalated (R-M) reads only — the retry-path
        /// tail the paper's Figure 4 worries about.
        retry_latency: LatencySummary => merge,
        /// Write-verify retry pulses issued for cells that failed to program
        /// (wear subsystem; zero while wear is disabled).
        verify_retries: u64 => sum,
        /// Cells declared dead after exhausting their retry budget.
        wear_cells_failed: u64 => sum,
        /// Lines remapped to a spare after crossing the stuck-cell margin.
        lines_remapped: u64 => sum,
        /// Writes that wanted a remap but found the spare pool empty.
        spares_exhausted_writes: u64 => sum,
        /// Reads that saw at least one wrong stuck-at bit.
        stuck_bit_reads: u64 => sum,
        /// Total wrong stuck-at bits entering the erasure-aware decoder.
        stuck_bits_seen: u64 => sum,
        /// Accesses serviced from the DRAM migration tier (zero while the
        /// tier is disabled, like every other `dram_*` field).
        dram_hits: u64 => sum,
        /// Accesses that missed the DRAM tier and went to PCM.
        dram_misses: u64 => sum,
        /// Lines promoted into DRAM after crossing the migration threshold.
        dram_promotions: u64 => sum,
        /// Resident lines evicted back to PCM to make room for a promotion.
        dram_demotions: u64 => sum,
        /// Dirty demotions that re-programmed the PCM line (drift-age reset).
        dram_writebacks: u64 => sum,
        /// MLC cells programmed by demotion writebacks.
        cells_written_demotion: u64 => sum,
        /// Demotion-writeback energy, pJ.
        energy_demotion_pj: f64 => sum,
    }
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

    /// Publishes the report into the telemetry metrics registry: `sim.runs`,
    /// every [`counter`](Self::counters) as `sim.<field>`, and the read and
    /// retry latency histograms (merged whole, not re-recorded). A no-op
    /// while telemetry is disabled.
    pub fn publish(&self) {
        if !readduo_telemetry::enabled() {
            return;
        }
        use readduo_telemetry::metrics::{counter_add, hist_merge};
        counter_add("sim.runs", 1);
        for (name, value) in self.counters() {
            counter_add(&format!("sim.{name}"), value);
        }
        hist_merge("sim.read_latency_ns", self.read_latency.histogram());
        hist_merge("sim.retry_latency_ns", self.retry_latency.histogram());
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

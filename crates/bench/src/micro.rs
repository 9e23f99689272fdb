//! A zero-dependency microbenchmark harness (std `Instant` only).
//!
//! [`Micro::bench`] times a routine with robust statistics (median / p95
//! over timed samples) and auto-calibrated inner batching, so
//! nanosecond-scale routines are not swamped by timer overhead. The
//! repository benchmark's `micro_ns` ledger rows come from it.
//!
//! Methodology: after a warm-up, the inner batch size `k` is doubled until
//! one batch runs ≥ 200 µs; each of 20 *samples* then times `k`
//! back-to-back calls and records the mean per-call latency. The median
//! across samples is insensitive to the occasional preempted sample, and
//! p95 exposes tail noise.

use std::hint::black_box;
use std::time::Instant;

/// Target wall time of one timed batch: long enough that `Instant`
/// overhead (~20 ns) is below 0.1‰ of the measurement.
const TARGET_BATCH_NS: u128 = 200_000;

/// Hard cap on the inner batch size during calibration.
const MAX_BATCH: u64 = 1 << 22;

/// Timed samples per benchmark.
const SAMPLES: usize = 20;

/// Timing samples of one benchmark: mean per-call nanoseconds of each
/// timed batch.
#[derive(Debug, Clone)]
pub struct Samples {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Mean per-call latency of each timed batch, in nanoseconds.
    pub per_call_ns: Vec<f64>,
    /// Inner batch size the calibration settled on.
    pub batch: u64,
}

impl Samples {
    fn sorted(&self) -> Vec<f64> {
        let mut v = self.per_call_ns.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// Median per-call latency in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }

    /// 95th-percentile per-call latency in nanoseconds (nearest-rank).
    pub fn p95_ns(&self) -> f64 {
        let v = self.sorted();
        let rank = ((v.len() as f64) * 0.95).ceil() as usize;
        v[rank.saturating_sub(1)]
    }
}

/// Formats a nanosecond latency with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:8.1} ns")
    } else if ns < 1e6 {
        format!("{:8.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:8.2} ms", ns / 1e6)
    } else {
        format!("{:8.3} s ", ns / 1e9)
    }
}

/// The microbenchmark runner: collects [`Samples`] per case, printing
/// each case's median and p95 to stderr as it finishes.
#[derive(Debug, Default)]
pub struct Micro {
    results: Vec<Samples>,
}

impl Micro {
    /// Creates a runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Benchmarks a routine that needs no per-call input.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut routine: F) {
        // Warm-up and calibration in one: double the batch until it takes
        // TARGET_BATCH_NS of wall time.
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            if t.elapsed().as_nanos() >= TARGET_BATCH_NS || batch >= MAX_BATCH {
                break;
            }
            batch *= 2;
        }
        let mut per_call_ns = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            per_call_ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        let s = Samples {
            name: name.to_string(),
            per_call_ns,
            batch,
        };
        eprintln!(
            "  {:<28} median {}   p95 {}   (batch {})",
            s.name,
            fmt_ns(s.median_ns()),
            fmt_ns(s.p95_ns()),
            s.batch
        );
        self.results.push(s);
    }

    /// The collected samples so far.
    pub fn results(&self) -> &[Samples] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_a_trivial_routine() {
        let mut m = Micro::new();
        m.bench("noop_add", || black_box(1u64) + 1);
        let [s] = m.results() else { panic!("one case benched") };
        assert_eq!(s.per_call_ns.len(), SAMPLES);
        assert!(s.median_ns() >= 0.0);
        assert!(s.p95_ns() >= s.median_ns());
    }

    #[test]
    fn median_and_p95_of_known_samples() {
        let s = Samples {
            name: "t".into(),
            per_call_ns: (1..=20).map(|i| i as f64).collect(),
            batch: 1,
        };
        assert_eq!(s.median_ns(), 10.5);
        assert_eq!(s.p95_ns(), 19.0);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert!(fmt_ns(12.0).contains("ns"));
        assert!(fmt_ns(12_000.0).contains("µs"));
        assert!(fmt_ns(12_000_000.0).contains("ms"));
        assert!(fmt_ns(12_000_000_000.0).contains("s"));
    }
}

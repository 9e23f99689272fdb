//! The synthetic trace generator.
//!
//! Generation is *resumable*: the per-core loop lives in `CoreGen`, which
//! produces one [`MemOp`] per call, so the streaming API
//! ([`crate::stream::TraceStream`]) and the materialising [`generate`]
//! wrapper draw from literally the same code path and RNG stream — their
//! equality is structural, not coincidental.
//!
//! [`generate`]: TraceGenerator::generate

use crate::record::{MemOp, OpKind, Trace};
use crate::workload::Workload;
use crate::zipf::Zipf;
use readduo_rng::rngs::StdRng;
use readduo_rng::{Rng, SeedableRng};

/// Deterministic trace generator.
///
/// Two generators with the same seed produce identical traces for the same
/// workload — all experiments in the benchmark harness are reproducible
/// bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct TraceGenerator {
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator with a master seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates a trace of `instructions_per_core` instructions on each of
    /// `cores` cores running `workload`.
    ///
    /// Thin materialising wrapper over [`stream`]: it drains the same
    /// per-core generators the streaming replay pulls from, so the two are
    /// bit-for-bit identical by construction.
    ///
    /// [`stream`]: TraceGenerator::stream
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `instructions_per_core == 0`.
    pub fn generate(&self, workload: &Workload, instructions_per_core: u64, cores: usize) -> Trace {
        // Drain each core's resumable generator straight into the trace:
        // the records are by construction the ones a TraceStream would
        // yield (both sides call [`CoreGen::next_op`]), without the
        // chunk-buffer round trip a stream pays for bounded memory —
        // materialisation wants throughput, not a memory bound.
        assert!(cores > 0, "need at least one core");
        let mut trace = Trace::new(workload.name.to_string(), cores);
        for core in 0..cores {
            let mut gen = CoreGen::new(self, workload, instructions_per_core, core);
            while let Some(op) = gen.next_op() {
                trace.push(core, op);
            }
        }
        trace
    }

    /// Opens a pull-based [`TraceStream`] over the same (workload, seed)
    /// trace [`generate`] would materialise, holding only a bounded chunk
    /// of records per core in memory at any time.
    ///
    /// [`TraceStream`]: crate::stream::TraceStream
    /// [`generate`]: TraceGenerator::generate
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `instructions_per_core == 0`.
    pub fn stream(
        &self,
        workload: &Workload,
        instructions_per_core: u64,
        cores: usize,
    ) -> crate::stream::TraceStream {
        crate::stream::TraceStream::new(*self, workload, instructions_per_core, cores)
    }

    /// Per-(workload, core) RNG so adding cores never perturbs existing
    /// streams.
    fn core_rng(&self, name: &str, core: usize) -> StdRng {
        let mut h = self.seed;
        for b in name.bytes() {
            h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64);
        }
        StdRng::seed_from_u64(h ^ (core as u64).wrapping_mul(0xD129_0577_9372_1937))
    }
}

/// The resumable per-core generation state: one call to [`next_op`]
/// reproduces exactly one iteration of the original generation loop,
/// consuming the identical RNG draws in the identical order.
///
/// [`next_op`]: CoreGen::next_op
#[derive(Debug, Clone)]
pub(crate) struct CoreGen {
    rng: StdRng,
    zipf_warm: Zipf,
    zipf_cold: Option<Zipf>,
    warm_lines: u64,
    cold_lines: u64,
    mean_gap: f64,
    read_fraction: f64,
    cold_read_fraction: f64,
    streaming_fraction: f64,
    /// Each core works a private slice of the footprint plus a shared
    /// region, mimicking partitioned heaps with shared read-mostly data.
    core_salt: u64,
    stream_cursor: u64,
    icount: u64,
    budget: u64,
    done: bool,
}

impl CoreGen {
    pub(crate) fn new(
        generator: &TraceGenerator,
        workload: &Workload,
        instructions_per_core: u64,
        core: usize,
    ) -> Self {
        assert!(instructions_per_core > 0, "need a positive instruction budget");
        // The warm region holds data written during the window; everything
        // above it is cold data written long before the trace started.
        let warm_lines = workload.warm_lines();
        let cold_lines = workload.footprint_lines.max(16) - warm_lines;
        let mut rng = generator.core_rng(workload.name, core);
        let stream_cursor = rng.gen_range(0..warm_lines);
        Self {
            rng,
            zipf_warm: Zipf::new(warm_lines, workload.locality.zipf_s),
            zipf_cold: (cold_lines > 0).then(|| Zipf::new(cold_lines, workload.locality.zipf_s)),
            warm_lines,
            cold_lines,
            mean_gap: 1000.0 / workload.mpki(),
            read_fraction: workload.rpki / workload.mpki(),
            cold_read_fraction: workload.locality.cold_read_fraction,
            streaming_fraction: workload.locality.streaming_fraction,
            core_salt: (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            stream_cursor,
            icount: 0,
            budget: instructions_per_core,
            done: false,
        }
    }

    /// The next op of this core's stream, or `None` once the instruction
    /// budget is exhausted (permanently — the RNG is not consumed after
    /// that).
    pub(crate) fn next_op(&mut self) -> Option<MemOp> {
        if self.done {
            return None;
        }
        // Exponential inter-arrival with the workload's MPKI.
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = (-u.ln() * self.mean_gap).ceil() as u64;
        self.icount = self.icount.saturating_add(gap.max(1));
        if self.icount > self.budget {
            self.done = true;
            return None;
        }
        let is_read = self.rng.gen::<f64>() < self.read_fraction;
        let cold_read = is_read
            && self.zipf_cold.is_some()
            && self.rng.gen::<f64>() < self.cold_read_fraction;
        let line = if cold_read {
            // A read into the static dataset (Zipf-reused, so hot cold
            // lines reward R-M-read conversion).
            let rank = self.zipf_cold.as_ref().expect("guarded").sample(&mut self.rng);
            self.warm_lines + permute(rank - 1, self.cold_lines, self.core_salt)
        } else if self.rng.gen::<f64>() < self.streaming_fraction {
            // Sequential streaming through the warm working set.
            self.stream_cursor = (self.stream_cursor + 1) % self.warm_lines;
            self.stream_cursor
        } else {
            // Zipf reuse over the warm region: reads revisit the same hot
            // lines the writes touch.
            let rank = self.zipf_warm.sample(&mut self.rng);
            permute(rank - 1, self.warm_lines, self.core_salt)
        };
        Some(MemOp {
            icount: self.icount,
            line,
            kind: if is_read { OpKind::Read } else { OpKind::Write },
        })
    }
}

/// Maps a Zipf rank onto a line address with a salted affine permutation so
/// hot ranks scatter across the address space (and across banks) instead of
/// clustering at low addresses.
fn permute(rank: u64, modulus: u64, salt: u64) -> u64 {
    // Affine map with an odd multiplier co-prime to any even modulus is not
    // guaranteed bijective for arbitrary moduli; collisions merely merge two
    // hot lines, which is harmless here.
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1)
        .wrapping_add(salt)
        % modulus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let w = Workload::toy();
        let a = TraceGenerator::new(7).generate(&w, 50_000, 2);
        let b = TraceGenerator::new(7).generate(&w, 50_000, 2);
        assert_eq!(a, b);
        let c = TraceGenerator::new(8).generate(&w, 50_000, 2);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn intensity_matches_rpki_wpki() {
        let w = Workload::toy(); // 20 RPKI + 10 WPKI
        let instr = 400_000u64;
        let t = TraceGenerator::new(1).generate(&w, instr, 4);
        let expected_ops = (w.mpki() / 1000.0) * instr as f64 * 4.0;
        let got = t.total_ops() as f64;
        assert!(
            (got - expected_ops).abs() / expected_ops < 0.05,
            "ops: got {got}, expected ~{expected_ops}"
        );
        let read_frac = t.total_reads() as f64 / got;
        assert!((read_frac - 2.0 / 3.0).abs() < 0.02, "read fraction {read_frac}");
    }

    #[test]
    fn writes_confined_to_warm_region_cold_reads_match_fraction() {
        let mut w = Workload::toy();
        w.locality.written_fraction = 0.25;
        w.locality.streaming_fraction = 0.0;
        w.locality.cold_read_fraction = 0.3;
        let t = TraceGenerator::new(3).generate(&w, 400_000, 1);
        let warm = (w.footprint_lines as f64 * 0.25) as u64;
        let mut cold_reads = 0usize;
        let mut reads = 0usize;
        for op in t.stream(0) {
            match op.kind {
                OpKind::Write => assert!(op.line < warm, "write to cold region at {}", op.line),
                OpKind::Read => {
                    reads += 1;
                    if op.line >= warm {
                        cold_reads += 1;
                    }
                }
            }
        }
        let frac = cold_reads as f64 / reads as f64;
        assert!(
            (frac - 0.3).abs() < 0.03,
            "cold read fraction {frac} should match the configured 0.3"
        );
    }

    #[test]
    fn fully_written_footprint_has_no_cold_reads() {
        let mut w = Workload::toy();
        w.locality.written_fraction = 1.0;
        w.locality.cold_read_fraction = 0.5; // ignored: no cold region
        let t = TraceGenerator::new(5).generate(&w, 100_000, 1);
        assert!(t.total_ops() > 0);
        for op in t.stream(0) {
            assert!(op.line < w.footprint_lines);
        }
    }

    #[test]
    fn hot_lines_absorb_disproportionate_traffic() {
        let mut w = Workload::toy();
        w.locality.streaming_fraction = 0.0;
        w.locality.zipf_s = 1.1;
        let t = TraceGenerator::new(4).generate(&w, 300_000, 1);
        let mut counts = std::collections::HashMap::new();
        for op in t.stream(0) {
            *counts.entry(op.line).or_insert(0u64) += 1;
        }
        let total: u64 = counts.values().sum();
        let mut sorted: Vec<u64> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = sorted.iter().take(10).sum();
        assert!(
            top10 as f64 / total as f64 > 0.15,
            "top-10 lines only carry {:.3} of traffic",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn all_spec_workloads_generate() {
        for w in Workload::spec2006() {
            let t = TraceGenerator::new(11).generate(&w, 5_000, 2);
            // Low-MPKI workloads may produce few ops, but streams stay
            // ordered and within the footprint.
            for core in 0..t.cores() {
                let mut prev = 0u64;
                for op in t.stream(core) {
                    assert!(op.icount >= prev);
                    assert!(op.line < w.footprint_lines.max(16));
                    prev = op.icount;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "instruction budget")]
    fn zero_instructions_rejected() {
        let _ = TraceGenerator::new(1).generate(&Workload::toy(), 0, 1);
    }
}

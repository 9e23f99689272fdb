//! Integration and property tests of the hybrid DRAM–PCM tier.
//!
//! Integration level: the disabled tier is bit-for-bit the plain run, an
//! enabled tier is repeat-identical and actually hits, and the drift-age
//! resets from dirty demotions pull the LWT escalation rate down.
//!
//! Property level (on the in-repo `prop_harness`): random access
//! sequences against a `TieredDevice` over an instrumented inner device
//! pin the cache invariants — no duplicate residency, the capacity
//! bound, and "every dirty line is written back exactly once, through
//! the inner write path, and never while still clean".

mod prop_harness;

use prop_harness::{check, ensure, ensure_eq};
use readduo::core::{DeviceSpec, SchemeKind};
use readduo::dram::{DramConfig, TieredDevice};
use readduo::memsim::{
    DeviceModel, MemoryConfig, ReadMode, ReadOutcome, ScrubOutcome, WriteOutcome,
};
use readduo::trace::Workload;
use readduo_bench::{Harness, RunResult, Source};
use readduo_rng::Rng as _;

fn harness() -> Harness {
    Harness {
        instructions_per_core: 60_000,
        cores: 2,
        seed: 0x00D5_EAD0_2016,
        memory: MemoryConfig::small_test(),
    }
}

/// One streamed run of `spec`.
fn run(harness: &Harness, w: &Workload, spec: impl Into<DeviceSpec>) -> RunResult {
    harness.run(w, spec, Source::Stream).expect("bare and tiered schemes build")
}

/// Disabled tier (zero capacity) == plain run, bit for bit, for every
/// scheme shape. This is the same discipline the fault and wear
/// subsystems obey: off means *absent*, not "present but idle".
#[test]
fn zero_capacity_tier_is_bit_for_bit_the_plain_run() {
    let harness = harness();
    let off = DramConfig { lines: 0, ..DramConfig::new(harness.seed, 1) };
    for scheme in [SchemeKind::Ideal, SchemeKind::Scrubbing, SchemeKind::Lwt { k: 4 }] {
        for w in [Workload::toy(), Workload::by_name("gcc").expect("gcc")] {
            let plain = run(&harness, &w, scheme);
            let tiered = run(&harness, &w, DeviceSpec::from(scheme).with_dram(off));
            assert_eq!(
                plain.report, tiered.report,
                "zero-capacity tier perturbed {}/{scheme}",
                w.name
            );
            assert_eq!(tiered.report.dram_hits + tiered.report.dram_misses, 0);
        }
    }
}

/// Seeded tiered runs are repeat-identical, every demand access is
/// classified hit-or-miss, and the tier actually hits at this capacity.
#[test]
fn tiered_runs_are_deterministic_and_account_every_access() {
    let harness = harness();
    let dram = DramConfig::new(harness.seed, 2_048).with_threshold(1);
    for scheme in [SchemeKind::Lwt { k: 4 }, SchemeKind::Scrubbing] {
        let w = Workload::by_name("gcc").expect("gcc");
        let spec = DeviceSpec::from(scheme).with_dram(dram);
        let a = run(&harness, &w, spec);
        let b = run(&harness, &w, spec);
        assert_eq!(a.report, b.report, "tiered {scheme} run not repeat-identical");
        assert!(a.report.dram_hits > 0, "{scheme}: tier never hit");
        assert!(a.report.dram_misses > 0, "{scheme}: tier never missed");
        // Every demand read and every accepted demand write is classified
        // exactly once; scrubs and prefetches are not demand accesses.
        assert_eq!(
            a.report.dram_hits + a.report.dram_misses,
            a.report.reads + a.report.writes,
            "{scheme}: hit/miss classification must cover exactly the demand accesses"
        );
        assert!(
            a.report.dram_demotions >= a.report.dram_writebacks,
            "clean demotions cannot be fewer than dirty ones"
        );
    }
}

/// The headline physics claim: dirty demotions re-program their PCM line
/// through the normal scheme write path, resetting drift age — so a
/// tiered LWT run escalates to RM-reads less often than the bare run,
/// and absorbs PCM write traffic, without any silent corruption.
#[test]
fn dram_tier_reduces_lwt_escalation_and_write_traffic() {
    let harness = harness();
    let scheme = SchemeKind::Lwt { k: 4 };
    let w = Workload::by_name("bzip2").expect("bzip2");
    let base = run(&harness, &w, scheme);
    let dram = DramConfig::new(harness.seed, 8_192).with_threshold(1);
    let tiered = run(&harness, &w, DeviceSpec::from(scheme).with_dram(dram));
    assert_eq!(tiered.report.silent_corruptions, 0);
    assert!(
        tiered.report.rm_read_rate() < base.report.rm_read_rate(),
        "drift-age resets must lower the escalation rate: tiered {:.5} vs base {:.5}",
        tiered.report.rm_read_rate(),
        base.report.rm_read_rate()
    );
    assert!(
        tiered.report.cells_written_total() < base.report.cells_written_total(),
        "write absorption must beat demotion traffic: tiered {} vs base {} cells",
        tiered.report.cells_written_total(),
        base.report.cells_written_total()
    );
}

/// Inner device that remembers every line the tier writes through to it
/// — the probe for the dirty-writeback properties.
struct RecordingDevice {
    writes: Vec<u64>,
    reads: u64,
}

impl RecordingDevice {
    fn new() -> Self {
        Self { writes: Vec::new(), reads: 0 }
    }
}

impl DeviceModel for RecordingDevice {
    fn on_read(&mut self, _line: u64, _now_s: f64) -> ReadOutcome {
        self.reads += 1;
        ReadOutcome::basic(150, ReadMode::RRead, 20.0)
    }

    fn on_write(&mut self, line: u64, _now_s: f64) -> WriteOutcome {
        self.writes.push(line);
        WriteOutcome::basic(1_000, 296, 0, 500.0)
    }

    fn on_scrub(&mut self, _line: u64, _now_s: f64) -> ScrubOutcome {
        ScrubOutcome { read_latency_ns: 150, read_energy_pj: 20.0, rewrite: None }
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        None
    }
}

/// One random access-sequence case: cache geometry (capacity, ways), the
/// migration threshold, and a list of (is_write, line) ops.
type CacheCase = ((u64, usize), u32, Vec<(bool, u64)>);

fn gen_cache_case(rng: &mut readduo_rng::rngs::StdRng) -> CacheCase {
    let lines = rng.gen_range(1u64..=64);
    let ways = rng.gen_range(1usize..=8);
    let threshold = rng.gen_range(1u32..=3);
    let nops = rng.gen_range(1usize..=400);
    let span = rng.gen_range(4u64..=256);
    let ops = (0..nops)
        .map(|_| (rng.gen_range(0u32..3) == 0, rng.gen_range(0..span)))
        .collect();
    ((lines, ways), threshold, ops)
}

/// Residency invariants under arbitrary churn: a line is resident in at
/// most one slot, occupancy never exceeds capacity, and occupancy equals
/// the promotions minus the demotions the outcomes reported.
#[test]
fn prop_no_duplicate_residency_and_capacity_bound() {
    check(
        "prop_no_duplicate_residency_and_capacity_bound",
        gen_cache_case,
        |((lines, ways), threshold, ops)| {
            let cfg = DramConfig::new(0x00D1_2A4D, *lines)
                .with_ways(*ways)
                .with_threshold(*threshold);
            let mut tier = TieredDevice::new(RecordingDevice::new(), cfg);
            let mut occupancy = 0u64;
            for (i, &(is_write, line)) in ops.iter().enumerate() {
                let now = i as f64;
                let t = if is_write {
                    tier.on_write(line, now).tier
                } else {
                    tier.on_read(line, now).tier
                };
                occupancy += u64::from(t.promotion);
                occupancy -= u64::from(t.demotion);
                let resident = tier.resident_lines();
                let mut dedup = resident.clone();
                dedup.dedup();
                ensure_eq!(dedup, resident); // sorted => dups are adjacent
                ensure!(
                    resident.len() as u64 <= tier.capacity_lines(),
                    "{} resident of {} capacity",
                    resident.len(),
                    tier.capacity_lines()
                );
                ensure_eq!(occupancy, resident.len() as u64);
            }
            Ok(())
        },
    );
}

/// Dirty-writeback discipline: the tier reaches the inner write path
/// only as a below-threshold pass-through (the op's own line) or as a
/// dirty demotion (a line a previous write dirtied, written back exactly
/// once — it must be re-dirtied before it can be written back again).
/// Clean lines are never written back.
#[test]
fn prop_dirty_lines_write_back_exactly_once() {
    check(
        "prop_dirty_lines_write_back_exactly_once",
        gen_cache_case,
        |((lines, ways), threshold, ops)| {
            let cfg = DramConfig::new(0x5EED, *lines)
                .with_ways(*ways)
                .with_threshold(*threshold);
            let mut tier = TieredDevice::new(RecordingDevice::new(), cfg);
            let mut dirty: Vec<u64> = Vec::new(); // reference dirty-resident set
            let mut seen_writes = 0usize;
            for (i, &(is_write, line)) in ops.iter().enumerate() {
                let now = i as f64;
                let t = if is_write {
                    let out = tier.on_write(line, now);
                    if out.tier.hit || out.tier.promotion {
                        // Absorbed in DRAM: the line is now dirty-resident.
                        if !dirty.contains(&line) {
                            dirty.push(line);
                        }
                    }
                    out.tier
                } else {
                    tier.on_read(line, now).tier
                };
                ensure!(t.tiered, "every access through the tier is classified");
                let inner_writes = &tier.inner().writes;
                if t.writeback {
                    ensure_eq!(inner_writes.len(), seen_writes + 1);
                    let victim = inner_writes[seen_writes];
                    let at = dirty.iter().position(|&d| d == victim);
                    ensure!(
                        at.is_some(),
                        "writeback of {victim} which was not dirty-resident"
                    );
                    dirty.swap_remove(at.unwrap());
                    ensure!(t.demotion, "a writeback is always a demotion");
                    ensure!(t.writeback_cells > 0, "a writeback programs PCM cells");
                } else if is_write && !t.hit && !t.promotion {
                    // Below-threshold write miss: passed through verbatim.
                    ensure_eq!(inner_writes.len(), seen_writes + 1);
                    ensure_eq!(inner_writes[seen_writes], line);
                } else {
                    ensure_eq!(inner_writes.len(), seen_writes);
                }
                seen_writes = inner_writes.len();
                // A dirty line must still be resident until written back.
                let resident = tier.resident_lines();
                for &d in &dirty {
                    ensure!(
                        resident.binary_search(&d).is_ok(),
                        "dirty line {d} left the cache without a writeback"
                    );
                }
            }
            Ok(())
        },
    );
}

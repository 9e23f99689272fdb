//! Tier-1 guarantees of the endurance subsystem.
//!
//! Three properties anchor the wear work:
//!
//! 1. **Opt-in identity** — a wear table at real-time aging (`accel = 1`,
//!    10⁷-cycle median) never reaches a single failure inside a simulated
//!    window, and a run carrying it is bit-for-bit the plain
//!    fault-injected run: the subsystem consumes no randomness and
//!    perturbs no outcome until a cell actually dies.
//! 2. **Determinism** — under heavy accelerated wear the whole pipeline
//!    (hash-derived endurance, write-verify retries, stuck-at reads
//!    through the erasure-aware decode, spare-line remapping, spare
//!    exhaustion) replays bit-for-bit from the seed, including the remap
//!    log itself.
//! 3. **No silent corruption** — at the default retry/spare budget the
//!    erasure-hinted decode never passes wrong data off as good, no
//!    matter how hard the aging is accelerated.

use readduo::core::{DeviceSpec, HybridScheme, SchemeKind, WearConfig};
use readduo::memsim::{MemoryConfig, Simulator};
use readduo::trace::{TraceGenerator, Workload};
use readduo_bench::{Harness, RunResult, Source};

const SEED: u64 = 0x00D5_EAD0_2016;
const FAULT_SEED: u64 = 0x00FA_0017;

fn harness(channels: usize) -> Harness {
    Harness {
        instructions_per_core: 40_000,
        cores: 2,
        seed: SEED,
        memory: MemoryConfig::small_test().with_channels(channels),
    }
}

/// A fault-injected run of `scheme`, worn when `wear` is set.
fn run(h: &Harness, w: &Workload, scheme: SchemeKind, wear: Option<WearConfig>) -> RunResult {
    let spec = DeviceSpec { wear, ..DeviceSpec::from(scheme).with_fault(FAULT_SEED) };
    h.run(w, spec, Source::Stream).expect("injectable")
}

fn injectable() -> [SchemeKind; 4] {
    [
        SchemeKind::Scrubbing,
        SchemeKind::Hybrid,
        SchemeKind::Lwt { k: 4 },
        SchemeKind::Select { k: 4, s: 2 },
    ]
}

#[test]
fn unreached_wear_is_bit_identical_to_the_plain_faulty_run() {
    let w = Workload::by_name("gcc").expect("gcc");
    for channels in [1usize, 2] {
        let h = harness(channels);
        for scheme in injectable() {
            let plain = run(&h, &w, scheme, None);
            let worn = run(&h, &w, scheme, Some(WearConfig::new(FAULT_SEED)));
            assert_eq!(
                plain.report, worn.report,
                "{scheme} channels={channels}: an unreached wear table must be invisible"
            );
            assert_eq!(worn.report.verify_retries, 0);
            assert_eq!(worn.report.lines_remapped, 0);
        }
    }
}

#[test]
fn worn_runs_replay_bit_for_bit_from_the_seed() {
    let w = Workload::by_name("mcf").expect("mcf");
    let wear = WearConfig::new(FAULT_SEED).with_accel(500_000);
    for channels in [1usize, 2] {
        let h = harness(channels);
        for scheme in injectable() {
            let a = run(&h, &w, scheme, Some(wear));
            let b = run(&h, &w, scheme, Some(wear));
            assert_eq!(
                a.report, b.report,
                "{scheme} channels={channels}: worn run is not deterministic"
            );
        }
    }
}

#[test]
fn heavy_wear_exercises_the_pipeline_without_silent_corruption() {
    // Default budget (3 retries, 64 spares, margin 2) under aging hard
    // enough to kill cells and consume spares: retries, stuck-bit reads
    // and remaps must all appear — silent corruptions must not.
    let w = Workload::by_name("mcf").expect("mcf");
    let h = harness(1);
    let wear = WearConfig::new(FAULT_SEED).with_accel(4_000_000);
    let mut retries = 0u64;
    let mut remaps = 0u64;
    let mut stuck_reads = 0u64;
    for scheme in injectable() {
        let r = run(&h, &w, scheme, Some(wear));
        assert_eq!(
            r.report.silent_corruptions, 0,
            "{scheme}: erasure-hinted decode must not corrupt silently"
        );
        retries += r.report.verify_retries;
        remaps += r.report.lines_remapped;
        stuck_reads += r.report.stuck_bit_reads;
    }
    assert!(retries > 0, "accel 4e6 must trigger write-verify retries");
    assert!(remaps > 0, "accel 4e6 must trigger spare-line remaps");
    assert!(stuck_reads > 0, "dead cells must surface in reads");
}

#[test]
fn spare_exhaustion_is_deterministic() {
    // A 2-spare pool under heavy aging: the pool must run dry, the
    // overflow writes must be flagged, and the whole degradation path —
    // including the post-exhaustion regime where lines live on erasure
    // hints alone — must replay exactly.
    let w = Workload::by_name("mcf").expect("mcf");
    let h = harness(1);
    let wear = WearConfig {
        spare_lines: 2,
        ..WearConfig::new(FAULT_SEED).with_accel(4_000_000)
    };
    let a = run(&h, &w, SchemeKind::Hybrid, Some(wear));
    assert!(
        a.report.spares_exhausted_writes > 0,
        "2 spares under accel 4e6 must exhaust"
    );
    assert_eq!(a.report.lines_remapped, 2, "exactly the pool size remaps");
    let b = run(&h, &w, SchemeKind::Hybrid, Some(wear));
    assert_eq!(a.report, b.report, "exhaustion must replay bit-for-bit");
}

#[test]
fn remap_log_replays_from_the_seed() {
    // Below the harness: drive a concrete scheme through the simulator
    // and compare the remap logs themselves, not just the report sums.
    let w = Workload::by_name("mcf").expect("mcf");
    let trace = TraceGenerator::new(SEED).generate(&w, 40_000, 2);
    let sim = Simulator::new(MemoryConfig::small_test());
    let run = || {
        let mut s = HybridScheme::paper(SEED)
            .with_fault_injection(FAULT_SEED)
            .with_wear(WearConfig::new(FAULT_SEED).with_accel(4_000_000));
        let report = sim.run(&trace, &mut s);
        (report, s.wear().expect("wear attached").remap_log().to_vec())
    };
    let (rep_a, log_a) = run();
    let (rep_b, log_b) = run();
    assert!(!log_a.is_empty(), "accel 4e6 must remap at least one line");
    assert_eq!(log_a, log_b, "remap order must replay from the seed");
    assert_eq!(rep_a, rep_b);
    assert_eq!(rep_a.lines_remapped, log_a.len() as u64);
}

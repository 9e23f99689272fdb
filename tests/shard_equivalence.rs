//! Differential-testing harness for the sharded multi-channel engine.
//!
//! The tentpole claim of the topology work is that sharding is *pure
//! parallelism*: a `channels × banks` machine run channel-by-
//! channel on a worker pool produces bit-for-bit the report of the
//! sequential reference, which steps the same per-channel engines one
//! event at a time in exact `(at, channel, seq)` order. This
//! suite pins that equivalence across every scheme, several workloads,
//! channel counts {1, 2, 8} and pool widths {1, 4, ambient}, and covers
//! the topology's edge cases: a 1-channel topology reproducing the
//! pre-topology engine, congestion isolation between channels, and
//! per-channel scrub-pointer wrap-around.

use readduo::core::{channel_seed, DeviceSpec, SchemeKind, SpecError, WearConfig};
use readduo::dram::DramConfig;
use readduo::memsim::oracle::run_sharded_reference;
use readduo::memsim::{FixedLatencyDevice, MemoryConfig, SimReport, Simulator, Topology};
use readduo::trace::{MemOp, OpKind, OpSource, Trace, TraceCursor, TraceGenerator, Workload};
use readduo_bench::{Harness, Source};
use readduo_pool::Pool;

const SEED: u64 = 0x00D5_EAD0_2016;

fn all_schemes() -> Vec<SchemeKind> {
    vec![
        SchemeKind::Ideal,
        SchemeKind::Scrubbing,
        SchemeKind::ScrubbingW0,
        SchemeKind::MMetric,
        SchemeKind::Hybrid,
        SchemeKind::Lwt { k: 4 },
        SchemeKind::LwtNoConversion { k: 2 },
        SchemeKind::Select { k: 4, s: 2 },
        SchemeKind::Tlc,
    ]
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload::toy(),
        Workload::by_name("gcc").expect("gcc in the SPEC2006 set"),
        Workload::by_name("mcf").expect("mcf in the SPEC2006 set"),
    ]
}

fn trace_for(w: &Workload) -> Trace {
    TraceGenerator::new(SEED).generate(w, 8_000, 2)
}

/// Pool widths to exercise: pinned 1 and 4 plus whatever the ambient
/// `READDUO_THREADS` resolves to, deduplicated.
fn pool_widths() -> Vec<usize> {
    let mut widths = vec![1usize, 4];
    let ambient = Pool::from_env().workers();
    if !widths.contains(&ambient) {
        widths.push(ambient);
    }
    widths
}

/// The headline differential test: for every scheme × workload × channel
/// count, `run_sharded` at every pool width equals the sequential
/// reference bit-for-bit.
#[test]
fn sharded_engine_matches_sequential_reference() {
    let widths = pool_widths();
    for w in &workloads() {
        let trace = trace_for(w);
        let seed = SEED ^ w.name.len() as u64;
        for &scheme in &all_schemes() {
            for channels in [1usize, 2, 8] {
                let sim = Simulator::new(MemoryConfig::small_test().with_channels(channels));
                let device = |ch: usize| scheme.build_for_channel(seed, ch, 0, 0);
                let reference = run_sharded_reference(&sim, |_| TraceCursor::new(&trace), device);
                assert!(reference.reads > 0, "{}/{scheme}: no reads simulated", w.name);
                for &workers in &widths {
                    let sharded = sim.run_sharded(
                        &Pool::new(workers),
                        |_| TraceCursor::new(&trace),
                        device,
                    );
                    assert_eq!(
                        sharded, reference,
                        "{}/{scheme} channels={channels} workers={workers}: \
                         sharded run diverged from the sequential reference",
                        w.name
                    );
                }
            }
        }
    }
}

/// Edge case: a 1-channel topology is the pre-topology engine. The plain
/// (unsharded) `run` path — whose event semantics predate the topology
/// work and are pinned by the golden suites — must equal both sharded
/// paths exactly, for a drift-free and a scrubbing scheme.
#[test]
fn single_channel_reproduces_the_pre_topology_engine() {
    let w = Workload::toy();
    let trace = trace_for(&w);
    let sim = Simulator::new(MemoryConfig::small_test());
    for &scheme in &[SchemeKind::Ideal, SchemeKind::Scrubbing, SchemeKind::Lwt { k: 4 }] {
        let mut device = scheme.build(SEED);
        let plain = sim.run(&trace, device.as_mut());
        let sharded = sim.run_sharded(
            &Pool::new(2),
            |_| TraceCursor::new(&trace),
            |ch| scheme.build_for_channel(SEED, ch, 0, 0),
        );
        let reference = run_sharded_reference(
            &sim,
            |_| TraceCursor::new(&trace),
            |ch| scheme.build_for_channel(SEED, ch, 0, 0),
        );
        assert_eq!(plain, sharded, "{scheme}: sharded 1-channel run diverged");
        assert_eq!(plain, reference, "{scheme}: reference 1-channel run diverged");
    }
    // channel_seed is the identity on channel 0 — the property the
    // equalities above rest on.
    assert_eq!(channel_seed(SEED, 0), SEED);
    assert_ne!(channel_seed(SEED, 1), SEED);
}

/// A synthetic in-order stream: each core issues `ops` operations of one
/// kind to a fixed arithmetic line sequence, one op every `stride`
/// instructions.
struct SyntheticSource {
    streams: Vec<Vec<MemOp>>,
    pos: Vec<usize>,
}

impl SyntheticSource {
    fn new(streams: Vec<Vec<MemOp>>) -> Self {
        let pos = vec![0; streams.len()];
        Self { streams, pos }
    }

    fn stream(kind: OpKind, first_line: u64, line_step: u64, ops: u64) -> Vec<MemOp> {
        (0..ops)
            .map(|i| MemOp {
                icount: (i + 1) * 10,
                line: first_line + i * line_step,
                kind,
            })
            .collect()
    }
}

impl OpSource for SyntheticSource {
    fn cores(&self) -> usize {
        self.streams.len()
    }

    fn peek(&mut self, core: usize) -> Option<MemOp> {
        self.streams[core].get(self.pos[core]).copied()
    }

    fn advance(&mut self, core: usize) {
        self.pos[core] += 1;
    }
}

/// The same differential gate with the endurance model switched on: hard
/// faults, write-verify retries and spare-line remapping are all channel-
/// local state, so a worn sharded run must still be bit-for-bit the
/// sequential reference at every pool width. The aging is
/// accelerated enough that cells actually die and lines actually remap —
/// an unreached wear table would make this leg vacuous.
#[test]
fn sharded_engine_matches_sequential_reference_under_wear() {
    let widths = pool_widths();
    let injectable = [
        SchemeKind::Scrubbing,
        SchemeKind::Hybrid,
        SchemeKind::Lwt { k: 4 },
        SchemeKind::Select { k: 4, s: 2 },
    ];
    let w = Workload::by_name("mcf").expect("mcf in the SPEC2006 set");
    let trace = trace_for(&w);
    let seed = SEED ^ w.name.len() as u64;
    let fault_seed = 0x00FA_0017u64;
    let wear = WearConfig::new(fault_seed).with_accel(4_000_000);
    let mut total_remaps = 0u64;
    for &scheme in &injectable {
        for channels in [1usize, 2, 8] {
            let sim = Simulator::new(MemoryConfig::small_test().with_channels(channels));
            let spec = DeviceSpec::from(scheme).with_fault(fault_seed).with_wear(wear);
            let device = |ch: usize| spec.build(seed, ch, channels, 0, 0).expect("injectable");
            let reference = run_sharded_reference(&sim, |_| TraceCursor::new(&trace), device);
            total_remaps += reference.lines_remapped;
            for &workers in &widths {
                let sharded =
                    sim.run_sharded(&Pool::new(workers), |_| TraceCursor::new(&trace), device);
                assert_eq!(
                    sharded, reference,
                    "{scheme} channels={channels} workers={workers}: \
                     worn sharded run diverged from the sequential reference"
                );
            }
        }
    }
    assert!(
        total_remaps > 0,
        "the worn equivalence leg must actually exercise remapping"
    );
}

/// The same differential gate with the hybrid DRAM–PCM tier in front of
/// every channel's device: the cache tag store, miss counters, row-buffer
/// state and migration decisions are all channel-local, so a tiered
/// sharded run must still be bit-for-bit the sequential reference at
/// every pool width. The tier is sized to actually hit —
/// a cold cache would make this leg vacuous.
#[test]
fn sharded_engine_matches_sequential_reference_with_dram_tier() {
    let widths = pool_widths();
    let schemes = [
        SchemeKind::Scrubbing,
        SchemeKind::Lwt { k: 4 },
        SchemeKind::Select { k: 4, s: 2 },
    ];
    let w = Workload::by_name("gcc").expect("gcc in the SPEC2006 set");
    // A longer trace than the shared `trace_for` one: the non-vacuity
    // check needs enough reuse for hits and enough churn for dirty
    // demotions out of the smallest (1/8th) per-channel slice.
    let trace = TraceGenerator::new(SEED).generate(&w, 120_000, 2);
    let seed = SEED ^ w.name.len() as u64;
    let dram = DramConfig::new(SEED, 32).with_threshold(1);
    let mut total_hits = 0u64;
    let mut total_writebacks = 0u64;
    for &scheme in &schemes {
        for channels in [1usize, 2, 8] {
            let sim = Simulator::new(MemoryConfig::small_test().with_channels(channels));
            let spec = DeviceSpec::from(scheme).with_dram(dram);
            let device = |ch: usize| spec.build(seed, ch, channels, 0, 0).expect("tierable");
            let reference = run_sharded_reference(&sim, |_| TraceCursor::new(&trace), device);
            total_hits += reference.dram_hits;
            total_writebacks += reference.dram_writebacks;
            for &workers in &widths {
                let sharded =
                    sim.run_sharded(&Pool::new(workers), |_| TraceCursor::new(&trace), device);
                assert_eq!(
                    sharded, reference,
                    "{scheme} channels={channels} workers={workers}: \
                     tiered sharded run diverged from the sequential reference"
                );
            }
        }
    }
    assert!(
        total_hits > 0 && total_writebacks > 0,
        "the tiered equivalence leg must exercise hits and dirty demotions \
         (hits {total_hits}, writebacks {total_writebacks})"
    );
}

/// The full composition: the DRAM tier over wear over fault injection,
/// built by one `DeviceSpec`, for LWT-4 and Select-4:2 on {1, 2, 8}
/// channels. The sharded run equals the sequential reference at every
/// pool width, and `Harness::run` reproduces that report from the
/// materialised trace and from a stream alike. Aging, tier size and
/// volume are chosen so the tier hits and writes back and lines remap —
/// a leg that reached none of them would be vacuous.
#[test]
fn composed_tier_wear_fault_device_matches_reference_and_streams() {
    let widths = pool_widths();
    let w = Workload::by_name("mcf").expect("mcf in the SPEC2006 set");
    let instr = 60_000;
    let trace = TraceGenerator::new(SEED).generate(&w, instr, 2);
    // The harness's device seed and warm region, so its runs are
    // comparable with the reference below.
    let seed = SEED ^ w.name.len() as u64;
    let warm = (w.footprint_lines.max(16) as f64 * w.locality.written_fraction) as u64;
    let fault_seed = 0x00FA_0017u64;
    let wear = WearConfig::new(fault_seed).with_accel(4_000_000);
    let dram = DramConfig::new(SEED, 32).with_threshold(1);
    let (mut hits, mut writebacks, mut remaps) = (0u64, 0u64, 0u64);
    for scheme in [SchemeKind::Lwt { k: 4 }, SchemeKind::Select { k: 4, s: 2 }] {
        let spec = DeviceSpec::from(scheme)
            .with_fault(fault_seed)
            .with_wear(wear)
            .with_dram(dram);
        for channels in [1usize, 2, 8] {
            let memory = MemoryConfig::small_test().with_channels(channels);
            let sim = Simulator::new(memory);
            let device = |ch: usize| {
                spec.build(seed, ch, channels, warm, w.footprint_lines)
                    .expect("the layers compose")
            };
            let reference = run_sharded_reference(&sim, |_| TraceCursor::new(&trace), device);
            hits += reference.dram_hits;
            writebacks += reference.dram_writebacks;
            remaps += reference.lines_remapped;
            for &workers in &widths {
                let sharded =
                    sim.run_sharded(&Pool::new(workers), |_| TraceCursor::new(&trace), device);
                assert_eq!(
                    sharded, reference,
                    "{spec} channels={channels} workers={workers}: \
                     composed sharded run diverged from the sequential reference"
                );
            }
            let h = Harness { instructions_per_core: instr, cores: 2, seed: SEED, memory };
            let on_trace = h.run(&w, spec, Source::Trace(&trace)).expect("the layers compose");
            let streamed = h.run(&w, spec, Source::Stream).expect("the layers compose");
            assert_eq!(on_trace.report, reference, "{spec} channels={channels}: harness run");
            assert_eq!(streamed.report, on_trace.report, "{spec} channels={channels}: stream");
        }
    }
    assert!(
        hits > 0 && writebacks > 0 && remaps > 0,
        "the composed leg must exercise tier hits, dirty demotions and remaps \
         (hits {hits}, writebacks {writebacks}, remaps {remaps})"
    );
}

/// A spec whose layers do not compose fails with a typed error before any
/// trace is generated. The harness below has zero cores, so generating a
/// trace panics: an `Err` proves none was generated.
#[test]
fn invalid_specs_fail_before_any_trace_is_generated() {
    let tripwire = Harness {
        instructions_per_core: 8_000,
        cores: 0,
        seed: SEED,
        memory: MemoryConfig::small_test(),
    };
    let w = Workload::toy();
    let lwt = SchemeKind::Lwt { k: 4 };
    let tripped = std::panic::catch_unwind(|| tripwire.run(&w, lwt, Source::Stream));
    assert!(tripped.is_err(), "a valid spec must reach trace generation and trip");
    let mut cases: Vec<(DeviceSpec, SpecError)> =
        [SchemeKind::Ideal, SchemeKind::MMetric, SchemeKind::Tlc]
            .map(|s| (DeviceSpec::from(s).with_fault(1), SpecError::NotInjectable(s)))
            .to_vec();
    let unfaulted_wear = DeviceSpec::from(lwt).with_wear(WearConfig::new(1));
    cases.push((unfaulted_wear, SpecError::WearWithoutFault(lwt)));
    for (spec, err) in cases {
        let workloads = std::slice::from_ref(&w);
        assert_eq!(spec.build(SEED, 0, 1, 0, 0).err(), Some(err), "{spec}: build");
        assert_eq!(tripwire.run(&w, spec, Source::Stream).err(), Some(err), "{spec}: run");
        assert_eq!(tripwire.run_matrix(&[spec], workloads).err(), Some(err), "{spec}: matrix");
        assert_eq!(
            tripwire.run_matrix_streamed(&[lwt.into(), spec], workloads).err(),
            Some(err),
            "{spec}: streamed matrix"
        );
    }
}

/// Edge case: congestion does not cross channels. Core 0 hammers writes
/// into channel 0 against a device with a pathological write latency —
/// its per-bank write queues fill and stall core 0 — while core 1 reads
/// from channel 1. Because channels share no state, core 1's read-latency
/// distribution must be bit-for-bit the distribution it sees when channel
/// 0 is completely idle, and only the congested run's execution time
/// blows up.
#[test]
fn full_write_queue_stalls_only_cores_issuing_to_that_channel() {
    let cfg = MemoryConfig::small_test().with_channels(2);
    let sim = Simulator::new(cfg);
    // Channel 0 owns even lines, channel 1 odd lines (line % channels).
    let hammer = SyntheticSource::stream(OpKind::Write, 0, 2, 400);
    let reader = SyntheticSource::stream(OpKind::Read, 1, 2, 400);
    // Writes take 1 ms: the 4-entry queue fills almost immediately.
    let device = |_ch: usize| FixedLatencyDevice::with_latencies(150, 1_000_000);

    let congested = sim.run_sharded(
        &Pool::new(2),
        |_| SyntheticSource::new(vec![hammer.clone(), reader.clone()]),
        device,
    );
    let idle = sim.run_sharded(
        &Pool::new(2),
        |_| SyntheticSource::new(vec![Vec::new(), reader.clone()]),
        device,
    );

    // Channel 1 owns every read in both runs, and its sub-simulation is
    // identical: same reads, same latency distribution, bit for bit.
    assert_eq!(congested.reads, idle.reads);
    assert_eq!(congested.reads, 400);
    assert_eq!(
        congested.read_latency, idle.read_latency,
        "channel-0 congestion leaked into channel-1 read latencies"
    );
    // The stalls are real, and confined to channel 0: the congested run's
    // execution time (max over channels) is dominated by the serialised
    // 1 ms writes, far beyond anything channel 1 does.
    assert_eq!(congested.writes, 400);
    assert!(
        congested.exec_ns > idle.exec_ns.saturating_mul(10),
        "expected channel 0 to stall on its full write queue \
         (congested {} ns vs idle {} ns)",
        congested.exec_ns,
        idle.exec_ns
    );
}

/// Edge case: per-channel scrub wrap-around. A tiny bank array scrubbed on
/// a fast cadence wraps every per-channel scrub pointer several times; the
/// sharded run must agree with the reference, every scrub must land on a
/// line the channel owns (enforced by the engine's routing debug_asserts),
/// and the scrub count must exceed one full sweep of the array.
#[test]
fn per_channel_scrub_wraps_and_stays_sharded() {
    let mut cfg = MemoryConfig::small_test().with_channels(2);
    cfg.lines_per_bank = 8; // 2 channels × 2 banks × 8 lines = 32 lines
    let sim = Simulator::new(cfg);
    let trace = TraceGenerator::new(SEED).generate(&Workload::toy(), 6_000, 2);
    // Eight scrub ticks per microsecond of simulated time (interval 1e-6 s
    // over 8 lines = one tick per 125 ns) wrap each bank's 8-line pointer
    // many times over the run. The device latencies are chosen so a
    // scrub+rewrite costs 80 ns of bank time — *below* the 125 ns tick
    // period. Scrub demand above 100% of a bank's capacity would be a
    // livelock, not a stress test: `bank_kick` only starts a queued write
    // once `busy_until` catches up to `now`, so a permanently-saturated
    // bank never drains its write queue, the writing core never retires,
    // and the run never terminates.
    let device = |_ch: usize| {
        FixedLatencyDevice::with_latencies(20, 60).with_scrub(1e-6, true)
    };
    let reference = run_sharded_reference(&sim, |_| TraceCursor::new(&trace), device);
    let sharded = sim.run_sharded(&Pool::new(2), |_| TraceCursor::new(&trace), device);
    assert_eq!(sharded, reference);
    let total_lines = sim.config().total_lines();
    assert!(
        reference.scrubs + reference.scrubs_skipped > total_lines,
        "scrub pointers did not wrap: {} ticks over {} lines",
        reference.scrubs + reference.scrubs_skipped,
        total_lines
    );
}

/// Channel routing is stream-order invariant: replaying the same ops from
/// a materialised trace and from a chunked stream yields identical merged
/// reports on a multi-channel topology (each channel filters the same
/// logical stream, however it is buffered).
#[test]
fn multi_channel_routing_is_stream_order_invariant() {
    let h = Harness {
        instructions_per_core: 8_000,
        cores: 2,
        seed: SEED,
        memory: MemoryConfig::small_test().with_channels(4),
    };
    for w in &workloads() {
        let trace = h.trace_for(w);
        for &scheme in &[SchemeKind::Hybrid, SchemeKind::Select { k: 4, s: 2 }] {
            let on_trace = h.run_on_trace(w, &trace, scheme);
            let streamed = h.run(w, scheme, Source::Stream).expect("bare scheme");
            assert_eq!(
                on_trace.report, streamed.report,
                "{}/{scheme}: sharded stream diverged from sharded trace",
                w.name
            );
        }
    }
}

/// Reports fold in channel order: merging a single report is the identity,
/// and the merged report of a multi-channel run carries the sums/maxima
/// its parts imply (spot-checked against the reference runner's output).
#[test]
fn merged_report_is_consistent_with_its_parts() {
    let w = Workload::toy();
    let trace = trace_for(&w);
    let topo = Topology { channels: 2, banks_per_channel: 2 };
    let mut cfg = MemoryConfig::small_test();
    cfg.topology = topo;
    let sim = Simulator::new(cfg);
    let merged = run_sharded_reference(
        &sim,
        |_| TraceCursor::new(&trace),
        |_| FixedLatencyDevice::ideal(),
    );
    // Identity on one report.
    assert_eq!(SimReport::merged(std::slice::from_ref(&merged)), merged);
    // The two channels partition the demand traffic of the plain trace.
    let mut cursor = TraceCursor::new(&trace);
    let mut reads = 0u64;
    let mut writes = 0u64;
    for core in 0..cursor.cores() {
        while let Some(op) = cursor.peek(core) {
            match op.kind {
                OpKind::Read => reads += 1,
                OpKind::Write => writes += 1,
            }
            cursor.advance(core);
        }
    }
    assert_eq!(merged.reads, reads, "merged reads must cover the whole trace");
    assert_eq!(merged.writes, writes, "merged writes must cover the whole trace");
}

/// `SimReport::merged` folds every field by the rule its declaration
/// names: each counter and energy adds, `exec_ns` takes the max, and each
/// latency summary merges. The two reports come from real runs that leave
/// most counters nonzero (a worn, fault-injected Select-4:2 and a tiered
/// LWT-4), so a field folded the wrong way cannot hide behind zeros.
#[test]
fn merged_report_folds_every_field_by_its_declared_rule() {
    let h = Harness {
        instructions_per_core: 60_000,
        cores: 2,
        seed: SEED,
        memory: MemoryConfig::small_test(),
    };
    let w = Workload::by_name("mcf").expect("mcf in the SPEC2006 set");
    let fault_seed = 0x00FA_0017u64;
    let worn = DeviceSpec::from(SchemeKind::Select { k: 4, s: 2 })
        .with_fault(fault_seed)
        .with_wear(WearConfig::new(fault_seed).with_accel(4_000_000));
    let tiered = DeviceSpec::from(SchemeKind::Lwt { k: 4 })
        .with_dram(DramConfig::new(SEED, 32).with_threshold(1));
    let a = h.run(&w, worn, Source::Stream).expect("the layers compose").report;
    let b = h.run(&w, tiered, Source::Stream).expect("the layers compose").report;
    let m = SimReport::merged(&[a.clone(), b.clone()]);

    let sums: Vec<(&str, u64)> =
        a.counters().zip(b.counters()).map(|((name, x), (_, y))| (name, x + y)).collect();
    assert_eq!(sums.len(), 34, "every u64 counter but exec_ns");
    assert_eq!(m.counters().collect::<Vec<_>>(), sums);
    let zero: Vec<&str> = sums.iter().filter(|(_, v)| *v == 0).map(|(n, _)| *n).collect();
    assert!(34 - zero.len() >= 25, "too many counters stayed zero to test their fold: {zero:?}");

    assert_eq!(m.exec_ns, a.exec_ns.max(b.exec_ns));
    assert_ne!(a.exec_ns, b.exec_ns, "equal times cannot tell the max from either side");
    let energies = |r: &SimReport| {
        [
            r.energy_read_pj,
            r.energy_write_pj,
            r.energy_scrub_pj,
            r.energy_conversion_pj,
            r.energy_corrective_pj,
            r.energy_demotion_pj,
        ]
    };
    for (i, ((x, y), merged)) in energies(&a).iter().zip(energies(&b)).zip(energies(&m)).enumerate()
    {
        assert_eq!(merged, x + y, "energy {i}");
    }
    let mut read_latency = a.read_latency;
    read_latency.merge(&b.read_latency);
    assert_eq!(m.read_latency, read_latency);
    let mut retry_latency = a.retry_latency;
    retry_latency.merge(&b.retry_latency);
    assert_eq!(m.retry_latency, retry_latency);
    assert!(a.retry_latency.count() > 0 && b.retry_latency.count() > 0);
}

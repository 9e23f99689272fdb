//! Every call the benchmark makes into the repository's crates.
//!
//! The rest of the benchmark names only what this module exports, so a
//! change that renames or reshapes a public API has one file to follow.
//! Device seeding replicates the figure harness (`seed ^ name.len()`, the
//! warm boundary from the workload's written fraction), so the benchmark's
//! reports equal the `fig9` binary's for the same seed and volume.

pub use readduo_core::SchemeKind;
pub use readduo_dram::TieredDevice;
pub use readduo_memsim::{
    DeviceModel, ReadOutcome, ScrubOutcome, SimReport, Simulator, TierOutcome, WriteOutcome,
};
pub use readduo_telemetry::check::Json;
pub use readduo_trace::{OpSource, Trace, Workload};

/// The figure harness's master seed: the benchmark's default `--seed`.
pub const HARNESS_SEED: u64 = 0x00D5_EAD0_2016;

/// Cores per simulated machine (the paper's 4-core configuration).
pub const CORES: usize = 4;

/// Fault-stream and endurance seed of the worn workload.
pub const FAULT_SEED: u64 = 0x00FA_0017;

/// Accelerated-aging factor of the worn workload.
pub const WEAR_ACCEL: u64 = 300_000;

/// DRAM tier capacity of the tiered workload, in lines.
pub const DRAM_LINES: u64 = 65_536;

/// A scheme device as the constructors return it.
pub type Device = Box<dyn DeviceModel>;

/// The 14 SPEC2006 workloads of the paper's figures.
pub fn spec2006() -> Vec<Workload> {
    Workload::spec2006()
}

/// One SPEC2006 workload by name.
pub fn workload(name: &str) -> Workload {
    Workload::by_name(name).unwrap_or_else(|| panic!("{name} is a SPEC2006 workload"))
}

/// The six headline schemes of Figure 9.
pub fn headline() -> Vec<SchemeKind> {
    SchemeKind::headline()
}

/// A materialised trace.
pub fn generate(seed: u64, w: &Workload, instr: u64) -> Trace {
    readduo_trace::TraceGenerator::new(seed).generate(w, instr, CORES)
}

/// A bounded-memory stream over the trace [`generate`] would build.
pub fn stream(seed: u64, w: &Workload, instr: u64) -> readduo_trace::TraceStream {
    readduo_trace::TraceGenerator::new(seed).stream(w, instr, CORES)
}

/// The ops one channel of a `channels`-way topology owns, out of `source`.
pub fn channel_filter<S: OpSource>(
    source: S,
    channels: usize,
    channel: usize,
) -> readduo_memsim::ChannelFilter<S> {
    readduo_memsim::ChannelFilter::new(source, memory(channels).topology, channel)
}

/// Consumes `source` without an engine, returning the op count.
pub fn drain<S: OpSource>(mut source: S) -> u64 {
    let mut ops = 0;
    for core in 0..source.cores() {
        while source.peek(core).is_some() {
            source.advance(core);
            ops += 1;
        }
    }
    ops
}

/// The report counters the benchmark's gate and ledger read. Fields
/// mirror `SimReport`'s, except `reads_by_mode` (`reads_r + reads_m +
/// reads_rm`) and `cells_written` (`cells_written_total()`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    pub exec_ns: u64,
    pub reads: u64,
    pub writes: u64,
    pub reads_by_mode: u64,
    pub reads_rm: u64,
    pub scrubs: u64,
    pub scrubs_skipped: u64,
    pub write_cancellations: u64,
    pub conversions: u64,
    pub corrective_rewrites: u64,
    pub verify_retries: u64,
    pub lines_remapped: u64,
    pub cells_written: u64,
    pub ecc_corrected_bits: u64,
    pub detected_uncorrectable: u64,
    pub silent_corruptions: u64,
    pub dram_hits: u64,
    pub dram_misses: u64,
    pub dram_promotions: u64,
    pub dram_writebacks: u64,
}

/// The counters of `reports` summed, as `SimReport::merged` folds channel
/// reports (`exec_ns` is the longest, not the sum).
pub fn total_counts(reports: &[SimReport]) -> Counts {
    counts(&SimReport::merged(reports))
}

/// The counters of `r`.
pub fn counts(r: &SimReport) -> Counts {
    Counts {
        exec_ns: r.exec_ns,
        reads: r.reads,
        writes: r.writes,
        reads_by_mode: r.reads_r + r.reads_m + r.reads_rm,
        reads_rm: r.reads_rm,
        scrubs: r.scrubs,
        scrubs_skipped: r.scrubs_skipped,
        write_cancellations: r.write_cancellations,
        conversions: r.conversions,
        corrective_rewrites: r.corrective_rewrites,
        verify_retries: r.verify_retries,
        lines_remapped: r.lines_remapped,
        cells_written: r.cells_written_total(),
        ecc_corrected_bits: r.ecc_corrected_bits,
        detected_uncorrectable: r.detected_uncorrectable,
        silent_corruptions: r.silent_corruptions,
        dram_hits: r.dram_hits,
        dram_misses: r.dram_misses,
        dram_promotions: r.dram_promotions,
        dram_writebacks: r.dram_writebacks,
    }
}

/// FNV-1a step over one 64-bit word.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

fn tier_digest(h: u64, t: &TierOutcome) -> u64 {
    [
        t.tiered as u64,
        t.hit as u64,
        t.promotion as u64,
        t.demotion as u64,
        t.writeback as u64,
        t.writeback_latency_ns,
        t.writeback_cells as u64,
        t.writeback_slc_bits as u64,
        t.writeback_energy_pj.to_bits(),
        t.writeback_verify_retries as u64,
        t.writeback_cells_failed as u64,
        t.writeback_remapped as u64,
        t.writeback_spares_exhausted as u64,
    ]
    .into_iter()
    .fold(h, mix)
}

fn write_digest(h: u64, w: &WriteOutcome) -> u64 {
    let h = [
        w.latency_ns,
        w.cells_written as u64,
        w.slc_bits_written as u64,
        w.energy_pj.to_bits(),
        w.verify_retries as u64,
        w.cells_failed as u64,
        w.remapped as u64,
        w.spares_exhausted as u64,
    ]
    .into_iter()
    .fold(h, mix);
    tier_digest(h, &w.tier)
}

fn optional_write_digest(h: u64, w: &Option<WriteOutcome>) -> u64 {
    match w {
        Some(w) => write_digest(mix(h, 1), w),
        None => mix(h, 0),
    }
}

/// FNV-1a seed of the outcome digests.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// A digest of every field of a read outcome (replay identity checks).
pub fn read_outcome_digest(r: &ReadOutcome) -> u64 {
    let mode = match r.mode {
        readduo_memsim::ReadMode::RRead => 0,
        readduo_memsim::ReadMode::MRead => 1,
        readduo_memsim::ReadMode::RmRead => 2,
    };
    let h = [
        r.latency_ns,
        mode,
        r.energy_pj.to_bits(),
        r.untracked as u64,
        r.drift_errors as u64,
        r.ecc_corrected_bits as u64,
        r.detected_uncorrectable as u64,
        r.silent_corruption as u64,
        r.stuck_bits as u64,
    ]
    .into_iter()
    .fold(FNV_OFFSET, mix);
    let h = optional_write_digest(h, &r.conversion);
    let h = optional_write_digest(h, &r.corrective);
    tier_digest(h, &r.tier)
}

/// A digest of every field of a write outcome.
pub fn write_outcome_digest(w: &WriteOutcome) -> u64 {
    write_digest(FNV_OFFSET, w)
}

/// A digest of every field of a scrub outcome.
pub fn scrub_outcome_digest(s: &ScrubOutcome) -> u64 {
    let h = mix(
        mix(FNV_OFFSET, s.read_latency_ns),
        s.read_energy_pj.to_bits(),
    );
    optional_write_digest(h, &s.rewrite)
}

/// The paper's memory system over `channels` channels.
fn memory(channels: usize) -> readduo_memsim::MemoryConfig {
    readduo_memsim::MemoryConfig::paper().with_channels(channels)
}

/// A simulator of the paper's memory system over `channels` channels.
pub fn simulator(channels: usize) -> Simulator {
    Simulator::new(memory(channels))
}

/// One single-channel run over a materialised trace.
pub fn run<D: DeviceModel + ?Sized>(sim: &Simulator, trace: &Trace, device: &mut D) -> SimReport {
    sim.run(trace, device)
}

/// One single-channel run over any op source.
pub fn run_source<S: OpSource, D: DeviceModel + ?Sized>(
    sim: &Simulator,
    source: &mut S,
    device: &mut D,
) -> SimReport {
    sim.run_source(source, device)
}

/// One sharded run: every channel on a pool of `width` threads.
pub fn run_sharded<S, D>(
    sim: &Simulator,
    width: usize,
    source_for: impl Fn(usize) -> S + Sync,
    device_for: impl Fn(usize) -> D + Sync,
) -> SimReport
where
    S: OpSource,
    D: DeviceModel,
{
    sim.run_sharded(&readduo_pool::Pool::new(width), source_for, device_for)
}

/// The device seed the figure harness derives for `w`.
fn device_seed(seed: u64, w: &Workload) -> u64 {
    seed ^ w.name.len() as u64
}

/// Lines below this boundary start in write steady state (the harness's
/// warm region).
fn warm_boundary(w: &Workload) -> u64 {
    (w.footprint_lines.max(16) as f64 * w.locality.written_fraction) as u64
}

/// One channel's fault-free scheme device.
pub fn plain_device(scheme: SchemeKind, seed: u64, w: &Workload, channel: usize) -> Device {
    scheme.build_for_channel(
        device_seed(seed, w),
        channel,
        warm_boundary(w),
        w.footprint_lines,
    )
}

/// The worn workload's device: fault injection plus accelerated wear.
pub fn worn_device(scheme: SchemeKind, seed: u64, w: &Workload) -> Device {
    let wear = readduo_core::WearConfig::new(FAULT_SEED).with_accel(WEAR_ACCEL);
    scheme
        .build_worn(
            device_seed(seed, w),
            FAULT_SEED,
            wear,
            warm_boundary(w),
            w.footprint_lines,
        )
        .unwrap_or_else(|| panic!("{scheme} has a fault-injected read path"))
}

/// `inner` behind the tiered workload's DRAM tier (single channel,
/// migrate on first miss), as `build_tiered` assembles it.
pub fn tiered<D: DeviceModel>(inner: D, seed: u64) -> TieredDevice<D> {
    let dram = readduo_dram::DramConfig::new(seed, DRAM_LINES).with_threshold(1);
    TieredDevice::new(inner, dram).with_channel(0)
}

/// Forces telemetry on or off for this process.
pub fn set_telemetry(on: bool) {
    readduo_telemetry::set_enabled(on);
}

/// Checks a Chrome trace-event document with the repository's validator.
pub fn validate_chrome_trace(json: &str) -> Result<(), String> {
    readduo_telemetry::check::validate_chrome_trace(json).map(|_| ())
}

/// Parses a JSON document with the repository's in-tree parser.
pub fn parse_json(text: &str) -> Result<Json, String> {
    readduo_telemetry::check::parse_json(text)
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    readduo_telemetry::export::json_string(s)
}

/// This process's peak resident set, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    readduo_bench::peak_rss_bytes()
}

/// Median ns per call of `routine`, from the repository's micro harness.
pub fn micro_ns<T>(name: &str, routine: impl FnMut() -> T) -> f64 {
    let mut m = readduo_bench::micro::Micro::new();
    m.bench(name, routine);
    m.results()[0].median_ns()
}

/// ns per push+pop pair of the engine's event queue, held at `depth`
/// pending events with due times spread over the wheel's horizon.
pub fn sched_ns_per_event(seed: u64, depth: usize) -> f64 {
    let mut rng = rng(seed);
    let mut q = readduo_memsim::EventQueue::with_capacity(depth);
    for k in 0..depth as u32 {
        q.push(rng_below(&mut rng, 1 << 20), k);
    }
    micro_ns("memsim/event_queue_push_pop", || {
        let (at, k) = q.pop().expect("steady-state queue is never empty");
        q.push(at + 1 + rng_below(&mut rng, 1 << 13), k);
        at
    })
}

/// Median ns per cell of the scalar and the batched erfc kernels on one
/// 296-cell line of arguments.
pub fn erfc_ns_per_cell(seed: u64) -> (f64, f64) {
    use readduo_rng::Rng;
    let mut rng = rng(seed);
    let xs: Vec<f64> = (0..296).map(|_| rng.gen_range(-4.0f64..4.0)).collect();
    let mut out = vec![0.0f64; xs.len()];
    let cells = xs.len() as f64;
    let scalar = micro_ns("math/erfc_scalar_296", || {
        xs.iter().map(|&x| readduo_math::erfc(x)).sum::<f64>()
    });
    let batch = micro_ns("math/erfc_batch_296", || {
        readduo_math::erfc_slice(&xs, &mut out);
        out[out.len() - 1]
    });
    (scalar / cells, batch / cells)
}

/// Median ns per codeword of the scalar and the bitsliced BCH-8 decoders
/// on one 64-codeword batch shaped like fault injection's reads (mostly
/// clean, a few small error patterns).
pub fn bch_ns_per_codeword(seed: u64) -> (f64, f64) {
    use readduo_ecc::{Bch, BchBitslice, PatternOutcome, BITSLICE_LANES};
    let mut rng = rng(seed);
    let code = Bch::new(10, 8, 512);
    let sliced = BchBitslice::new(&code);
    let patterns: Vec<Vec<u16>> = (0..BITSLICE_LANES)
        .map(|lane| {
            let weight = [0, 0, 0, 0, 0, 1, 2, 5][lane % 8];
            let mut p: Vec<u16> = Vec::new();
            while p.len() < weight {
                let bit = rng_below(&mut rng, code.codeword_bits() as u64) as u16;
                if !p.contains(&bit) {
                    p.push(bit);
                }
            }
            p
        })
        .collect();
    let refs: Vec<&[u16]> = patterns.iter().map(Vec::as_slice).collect();
    let lanes = patterns.len() as f64;
    let scalar = micro_ns("ecc/bch_decode_scalar_64cw", || {
        patterns
            .iter()
            .filter(|p| matches!(code.decode_error_pattern(p), PatternOutcome::Corrected(_)))
            .count()
    });
    let bitslice = micro_ns("ecc/bch_decode_bitslice_64cw", || {
        sliced.decode_patterns(&refs).len()
    });
    (scalar / lanes, bitslice / lanes)
}

fn rng(seed: u64) -> readduo_rng::rngs::StdRng {
    use readduo_rng::SeedableRng;
    readduo_rng::rngs::StdRng::seed_from_u64(seed)
}

fn rng_below(rng: &mut readduo_rng::rngs::StdRng, n: u64) -> u64 {
    use readduo_rng::Rng;
    rng.gen_range(0..n)
}

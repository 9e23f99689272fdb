//! Tier-1 guarantee of the streaming replay path: simulating from a
//! [`TraceStream`] is bit-for-bit identical to materialising the whole
//! trace first, for every scheme, and the stream's chunk size can never
//! leak into the records it produces.
//!
//! [`TraceStream`]: readduo::trace::TraceStream

use readduo::core::SchemeKind;
use readduo::memsim::MemoryConfig;
use readduo::trace::{TraceGenerator, Workload};
use readduo_bench::{Harness, Source};

fn harness() -> Harness {
    // `READDUO_CHANNELS` widens the topology (default 1): the streamed and
    // materialised paths must agree bit-for-bit on sharded runs too.
    let channels = readduo_env::usize_at_least("READDUO_CHANNELS", 1).unwrap_or(1);
    Harness {
        instructions_per_core: 30_000,
        cores: 2,
        seed: 0x00D5_EAD0_2016,
        memory: MemoryConfig::small_test().with_channels(channels),
    }
}

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

/// Every scheme, on several workloads: the streamed run must reproduce the
/// materialised run's report exactly.
#[test]
fn streamed_run_equals_materialised_run_for_every_scheme() {
    let h = harness();
    for w in &workloads() {
        let trace = h.trace_for(w);
        for &scheme in &all_schemes() {
            let on_trace = h.run_on_trace(w, &trace, scheme);
            let streamed = h.run(w, scheme, Source::Stream).expect("bare scheme");
            assert_eq!(
                on_trace.report, streamed.report,
                "stream diverged from trace for {} / {}",
                w.name, scheme
            );
        }
    }
}

/// `generate()` and `stream().collect_trace()` are the same trace — the
/// materialised path is literally a drained stream.
#[test]
fn collect_trace_equals_generate() {
    let h = harness();
    for w in &workloads() {
        let gen = TraceGenerator::new(h.seed);
        let materialised = gen.generate(w, h.instructions_per_core, h.cores);
        let collected = gen
            .stream(w, h.instructions_per_core, h.cores)
            .collect_trace();
        assert_eq!(materialised, collected, "{}", w.name);
    }
}

/// The chunk size is pure buffering: pathological (1), odd (7) and large
/// (4096) chunks all yield record-identical traces.
#[test]
fn chunk_size_never_changes_records() {
    let h = harness();
    let w = Workload::by_name("gcc").expect("gcc");
    let gen = TraceGenerator::new(h.seed);
    let reference = gen.generate(&w, h.instructions_per_core, h.cores);
    for chunk in [1usize, 7, 4096] {
        let collected = gen
            .stream(&w, h.instructions_per_core, h.cores)
            .with_chunk(chunk)
            .collect_trace();
        assert_eq!(reference, collected, "chunk size {chunk}");
    }
}

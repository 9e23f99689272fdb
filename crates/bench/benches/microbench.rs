//! Microbenchmarks of the hot paths: BCH encode/decode, the drift sampler,
//! the analytic reliability integral, and end-to-end simulator throughput.
//!
//! Runs on the in-repo harness (`readduo_bench::micro`) — no external
//! benchmark framework, so `cargo bench` works with the network unplugged.
//! Sample count is tunable via `READDUO_BENCH_SAMPLES`.

use readduo_bench::micro::Micro;
use readduo_bench::Harness;
use readduo_core::{common::DriftSampler, SchemeKind};
use readduo_ecc::Bch;
use readduo_math::{erfc, GaussLegendre};
use readduo_memsim::{MemoryConfig, Simulator};
use readduo_pcm::MetricConfig;
use readduo_pool::Pool;
use readduo_reliability::{CellErrorModel, LerAnalysis};
use readduo_trace::{TraceGenerator, Workload};

fn bench_math(m: &mut Micro) {
    eprintln!("math:");
    m.bench("math/erfc_mid", || erfc(std::hint::black_box(2.3)));
    m.bench("math/erfc_tail", || erfc(std::hint::black_box(9.0)));
    let rule = GaussLegendre::new(96);
    m.bench("math/gauss_legendre_96", || {
        rule.integrate(0.0, 1.0, |x| (-x * x).exp())
    });
}

fn bench_bch(m: &mut Micro) {
    eprintln!("bch:");
    let code = Bch::new(10, 8, 512);
    let data = vec![0xA7u8; 64];
    m.bench("bch/encode_512b_t8", || code.encode(&data));
    let clean = code.encode(&data);
    m.bench_batched(
        "bch/decode_clean",
        || clean.clone(),
        |mut cw| code.decode(&mut cw),
    );
    let mut with_errors = clean.clone();
    for i in [3usize, 99, 255, 400] {
        with_errors.flip(i);
    }
    m.bench_batched(
        "bch/decode_4_errors",
        || with_errors.clone(),
        |mut cw| code.decode(&mut cw),
    );
}

fn bench_reliability(m: &mut Micro) {
    eprintln!("reliability:");
    let model = CellErrorModel::new(MetricConfig::r_metric());
    m.bench("reliability/cell_error_integral", || {
        model.mean_cell_error_prob(std::hint::black_box(640.0))
    });
    let analysis = LerAnalysis::new(model.clone());
    m.bench("reliability/ler_tail_e8", || {
        analysis.ler_exceeding(8, std::hint::black_box(64.0))
    });
    let mut sampler = DriftSampler::new(1);
    m.bench("reliability/drift_sample_per_read", move || {
        sampler.bit_errors_r(std::hint::black_box(320.0))
    });
}

fn bench_simulator(m: &mut Micro) {
    eprintln!("simulator:");
    let trace = TraceGenerator::new(1).generate(&Workload::toy(), 200_000, 4);
    let sim = Simulator::new(MemoryConfig::paper());
    for kind in [SchemeKind::Ideal, SchemeKind::Hybrid, SchemeKind::Select { k: 4, s: 2 }] {
        m.bench_batched(
            &format!("simulator/run_{}", kind.label()),
            || kind.build(7),
            |mut dev| sim.run(&trace, dev.as_mut()),
        );
    }
}

fn bench_sweep(m: &mut Micro) {
    eprintln!("sweep:");
    let h = Harness {
        instructions_per_core: 10_000,
        cores: 2,
        seed: 7,
        memory: MemoryConfig::small_test(),
    };
    let w = Workload::toy();
    let schemes = [SchemeKind::Ideal, SchemeKind::Scrubbing, SchemeKind::MMetric];
    // Shared-trace path: one generation feeds every scheme of a workload.
    m.bench("sweep/trace_gen_shared", || h.trace_for(&w));
    // The pre-pool harness regenerated the trace once per matrix cell.
    m.bench("sweep/trace_gen_per_scheme", || {
        (0..schemes.len())
            .map(|_| h.trace_for(&w).total_reads())
            .sum::<usize>()
    });
    let seq = Pool::new(1);
    m.bench("sweep/matrix_1w3s_seq", || {
        h.run_matrix_on(&seq, &schemes, std::slice::from_ref(&w)).unwrap()
    });
    let pool = Pool::from_env();
    m.bench("sweep/matrix_1w3s_pool", || {
        h.run_matrix_on(&pool, &schemes, std::slice::from_ref(&w)).unwrap()
    });
}

fn bench_telemetry(m: &mut Micro) {
    eprintln!("telemetry:");
    // The overhead budget: with telemetry disabled every instrumented
    // call site must collapse to a load-and-branch. These run with the
    // subsystem forced off (the production default) and with it on, so
    // BENCH.json records both sides of the gate.
    readduo_telemetry::set_enabled(false);
    m.bench("telemetry/counter_add_disabled", || {
        readduo_telemetry::metrics::counter_add(std::hint::black_box("micro.ctr"), 1)
    });
    m.bench("telemetry/phase_disabled", || {
        readduo_telemetry::trace::phase(std::hint::black_box("micro.phase"))
    });
    // A whole engine run with telemetry off — the disabled-mode cost at
    // the only granularity that matters for the ci.sh wall-clock budget.
    let trace = TraceGenerator::new(1).generate(&Workload::toy(), 50_000, 2);
    let sim = Simulator::new(MemoryConfig::small_test());
    m.bench_batched(
        "telemetry/sim_run_disabled",
        || SchemeKind::Ideal.build(7),
        |mut dev| sim.run(&trace, dev.as_mut()),
    );
    readduo_telemetry::set_enabled(true);
    m.bench("telemetry/counter_add_enabled", || {
        readduo_telemetry::metrics::counter_add(std::hint::black_box("micro.ctr"), 1)
    });
    m.bench_batched(
        "telemetry/sim_run_enabled",
        || SchemeKind::Ideal.build(7),
        |mut dev| sim.run(&trace, dev.as_mut()),
    );
    readduo_telemetry::set_enabled(false);
    // Drop the events this group traced so `finish` isn't skewed and the
    // process exits with an empty collector.
    let _ = readduo_telemetry::export::render_trace();
    readduo_telemetry::metrics::reset();
}

fn main() {
    // `cargo bench` passes --bench (and optional filters) to the harness;
    // we run the full suite regardless.
    let mut m = Micro::new();
    bench_math(&mut m);
    bench_bch(&mut m);
    bench_reliability(&mut m);
    bench_simulator(&mut m);
    bench_sweep(&mut m);
    bench_telemetry(&mut m);
    m.finish();
}

//! End-to-end telemetry: a harness run with `READDUO_TELEMETRY` on must
//! (a) produce bit-for-bit the same `SimReport`s as a disabled run,
//! (b) emit a structurally valid Chrome trace with per-bank spans and
//! queue-depth counter tracks, and (c) fill the metrics registry with a
//! non-zero read-latency p99 — the three claims ISSUE 5 gates on.
//!
//! A second test pins what the registry holds: every run's report,
//! published whole.
//!
//! The enabled/disabled toggle is flipped programmatically
//! (`set_enabled`) so the tests are independent of the environment they
//! run in. The toggle, the trace collector and the metrics registry are
//! process-global, so the tests hold one lock and never overlap.

use readduo_bench::{Harness, Source};
use readduo_core::{DeviceSpec, SchemeKind, WearConfig};
use readduo_dram::DramConfig;
use readduo_memsim::{FixedLatencyDevice, MemoryConfig, SimReport, Simulator};
use readduo_telemetry::check::validate_chrome_trace;
use readduo_telemetry::metrics::{self, Metric};
use readduo_telemetry::{export, set_enabled};
use readduo_trace::Workload;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_harness() -> Harness {
    Harness {
        instructions_per_core: 40_000,
        cores: 2,
        seed: 0x7E1E_2016,
        memory: MemoryConfig::small_test(),
    }
}

#[test]
fn enabled_telemetry_changes_nothing_and_exports_a_valid_trace() {
    let _serial = serial();
    let harness = tiny_harness();
    let workload = Workload::toy();
    let schemes = [SchemeKind::Ideal, SchemeKind::Hybrid];
    let trace = harness.trace_for(&workload);

    // Baseline: telemetry off (the default in tests, but force it).
    set_enabled(false);
    let baseline: Vec<_> = schemes
        .iter()
        .map(|&s| harness.run_on_trace(&workload, &trace, s))
        .collect();

    // Same matrix with telemetry on.
    set_enabled(true);
    metrics::reset();
    let _ = export::render_trace(); // drain anything a prior test left behind
    let traced: Vec<_> = schemes
        .iter()
        .map(|&s| harness.run_on_trace(&workload, &trace, s))
        .collect();
    let rendered = export::render_trace();
    let snap = metrics::snapshot();
    set_enabled(false);
    metrics::reset();

    // (a) Bit-for-bit: the instrumented run reports exactly what the
    // plain run reports.
    for (b, t) in baseline.iter().zip(&traced) {
        assert_eq!(b.scheme, t.scheme);
        assert_eq!(
            b.report, t.report,
            "telemetry changed the {} report",
            b.scheme
        );
    }

    // (b) The exported trace passes the in-tree checker and carries the
    // tracks the engine promises: per-bank spans, queue-depth counters,
    // named processes per (workload, scheme) run.
    let stats = validate_chrome_trace(&rendered).expect("exported trace must validate");
    assert!(stats.spans > 0, "no spans in {stats:?}");
    assert!(stats.counters > 0, "no queue-depth counters in {stats:?}");
    assert!(stats.names.contains("read"), "no read spans in {stats:?}");
    assert!(
        stats.names.iter().any(|n| n.starts_with("queue.b")),
        "no per-bank queue counter tracks in {stats:?}"
    );
    assert!(
        stats.thread_names.iter().any(|t| t == "bank 0"),
        "bank tracks unnamed in {stats:?}"
    );
    assert!(
        stats
            .process_names
            .iter()
            .any(|p| p.contains("toy/") && p.contains("Hybrid")),
        "run labels missing from process names: {:?}",
        stats.process_names
    );

    // (c) The metrics snapshot has the run counters and a populated
    // read-latency histogram.
    match snap.get("sim.reads") {
        Some(Metric::Counter(n)) => assert!(*n > 0, "sim.reads counted {n}"),
        other => panic!("sim.reads missing or mistyped: {other:?}"),
    }
    match snap.get("sim.read_latency_ns") {
        Some(Metric::Histogram(h)) => {
            assert!(h.count() > 0, "read-latency histogram empty");
            assert!(h.p99() > 0, "read-latency p99 is zero");
        }
        other => panic!("sim.read_latency_ns missing or mistyped: {other:?}"),
    }

    // And the percentile accessors the fig9 p99 column uses agree with
    // the per-run histogram.
    let hybrid = &traced[1].report.read_latency;
    assert!(hybrid.p99_ns() >= hybrid.p50_ns());
    assert!(hybrid.p50_ns() > 0);
}

/// Every run publishes its own report: `sim.runs` counts the runs, each
/// `sim.<counter>` is that counter summed over them (absent when the sum
/// is zero, since `counter_add` skips zeros), and the latency histograms
/// hold every read. The runs are a worn and a tiered `Harness::run`, whose
/// devices once kept tallies of their own, plus a direct
/// `Simulator::run` that never goes through the harness.
#[test]
fn the_registry_holds_every_published_report() {
    let _serial = serial();
    let harness = tiny_harness();
    let w = Workload::by_name("mcf").expect("mcf in the SPEC2006 set");
    let worn = DeviceSpec::from(SchemeKind::Select { k: 4, s: 2 })
        .with_fault(0x00FA_0017)
        .with_wear(WearConfig::new(0x00FA_0017).with_accel(4_000_000));
    let tiered = DeviceSpec::from(SchemeKind::Lwt { k: 4 })
        .with_dram(DramConfig::new(harness.seed, 32).with_threshold(1));
    let trace = harness.trace_for(&w);

    set_enabled(true);
    metrics::reset();
    let mut reports: Vec<SimReport> = [worn, tiered]
        .into_iter()
        .map(|spec| {
            harness
                .run(&w, spec, Source::Stream)
                .expect("the layers compose")
                .report
        })
        .collect();
    reports.push(Simulator::new(harness.memory).run(&trace, &mut FixedLatencyDevice::ideal()));
    let snap = metrics::snapshot();
    set_enabled(false);
    metrics::reset();
    let _ = export::render_trace();

    assert_eq!(snap.get("sim.runs"), Some(&Metric::Counter(3)));
    let total = SimReport::merged(&reports);
    assert!(
        total.lines_remapped > 0 && total.dram_hits > 0,
        "a layer stayed idle"
    );
    for (name, value) in total.counters() {
        let published = match snap.get(&format!("sim.{name}")) {
            Some(Metric::Counter(n)) => *n,
            None => 0,
            other => panic!("sim.{name} mistyped: {other:?}"),
        };
        assert_eq!(published, value, "sim.{name}");
    }
    for (name, summary) in [
        ("sim.read_latency_ns", total.read_latency),
        ("sim.retry_latency_ns", total.retry_latency),
    ] {
        match snap.get(name) {
            Some(Metric::Histogram(h)) => assert_eq!(h, summary.histogram(), "{name}"),
            other => panic!("{name} missing or mistyped: {other:?}"),
        }
    }
}

//! Monte-Carlo fault-injection cross-validation.
//!
//! Three legs, each asserting rather than merely printing:
//!
//! 1. **LER cross-validation** — sample per-line error patterns from the
//!    `FaultModel` and compare the empirical probability of exceeding `E`
//!    bit errors against `readduo-reliability`'s analytic `ler_exceeding`
//!    at the same age, within binomial confidence bounds. This ties the
//!    two independent derivations of the drift model (closed-form
//!    integration vs per-cell sampling) to each other.
//! 2. **Escalation-band audit** — drive the `FaultInjector` at an age
//!    where the 9–17-error band is populated and check the R→M→BCH chain
//!    resolves every read with zero silent corruptions.
//! 3. **End-to-end simulation** — run faulty devices through the full
//!    engine (queues, scrubbing, corrective writes) and assert the
//!    escalation chain produces corrective traffic and retry latency while
//!    never corrupting silently under the paper's policies.
//!
//! [`FAULT_SEED`] seeds the fault streams; `READDUO_FAULT_MC_LINES` sets
//! the Monte-Carlo sample size (default 20 000 lines per point).

use readduo_bench::{
    finish_telemetry, render_table, start_binary, write_csv, Harness, Source, FAULT_SEED,
};
use readduo_core::{DeviceSpec, FaultInjector, HybridScheme, SchemeKind};
use readduo_memsim::{MemoryConfig, Simulator};
use readduo_pcm::{FaultModel, MetricConfig};
use readduo_reliability::{CellErrorModel, LerAnalysis};
use readduo_rng::rngs::StdRng;
use readduo_rng::SeedableRng;
use readduo_trace::Workload;

/// MLC cells per 512-bit line (the analytic model's basis).
const DATA_CELLS: u32 = 256;

/// Acceptance bound: |empirical − analytic| must stay within six binomial
/// standard errors plus a 5% model-basis allowance (the analytic model is
/// per-bit, the sampler per-cell — identical means, O(p²) tail skew) plus
/// a few-counts absolute floor.
fn tolerance(p: f64, n: u64) -> f64 {
    6.0 * (p * (1.0 - p) / n as f64).sqrt() + 0.05 * p + 3.0 / n as f64
}

/// Empirical P(> e bit errors) for one metric at one age.
fn empirical_ler(
    model: &FaultModel,
    rng: &mut StdRng,
    age_s: f64,
    e: usize,
    n: u64,
    use_m: bool,
) -> f64 {
    let mut exceed = 0u64;
    for _ in 0..n {
        let faults = model.sample_line(age_s, DATA_CELLS, rng);
        let bits = if use_m { faults.m_bits.len() } else { faults.r_bits.len() };
        if bits > e {
            exceed += 1;
        }
    }
    exceed as f64 / n as f64
}

fn main() {
    start_binary(
        "fault_mc",
        "Monte-Carlo fault-injection cross-validation: LER vs analytic, escalation audit, end-to-end runs",
    );
    let n = readduo_env::u64_at_least("READDUO_FAULT_MC_LINES", 100).unwrap_or(20_000);
    let model = FaultModel::paper();
    let mut rng = StdRng::seed_from_u64(FAULT_SEED);

    // ---- Leg 1: Monte-Carlo vs analytic LER -------------------------
    let r_ler = LerAnalysis::new(CellErrorModel::new(MetricConfig::r_metric()));
    let m_ler = LerAnalysis::new(CellErrorModel::new(MetricConfig::m_metric()));
    let header: Vec<String> = ["metric", "age s", "E", "empirical", "analytic", "tolerance"]
        .map(String::from)
        .to_vec();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut checked = 0u32;
    let mut check = |label: &str, use_m: bool, ana: &LerAnalysis, age: f64, e: u64,
                     rng: &mut StdRng| {
        let emp = empirical_ler(&model, rng, age, e as usize, n, use_m);
        let p = ana.ler_exceeding(e, age).to_prob();
        let tol = tolerance(p, n);
        rows.push(vec![
            label.into(),
            format!("{age:.0}"),
            e.to_string(),
            format!("{emp:.3e}"),
            format!("{p:.3e}"),
            format!("{tol:.3e}"),
        ]);
        assert!(
            (emp - p).abs() <= tol,
            "{label} LER(E>{e}, S={age}): empirical {emp:.3e} vs analytic {p:.3e} \
             exceeds tolerance {tol:.3e} (n={n})"
        );
        checked += 1;
    };
    for &age in &[8.0, 64.0, 640.0, 1.0e4] {
        for e in [0u64, 1, 2] {
            check("R", false, &r_ler, age, e, &mut rng);
        }
    }
    for &age in &[1.0e5, 1.0e6] {
        check("M", true, &m_ler, age, 0, &mut rng);
    }
    println!("Monte-Carlo vs analytic LER ({n} lines per point)\n");
    println!("{}", render_table(&header, &rows));
    println!("all {checked} points within confidence bounds\n");
    let mut csv = vec![header];
    csv.extend(rows);
    write_csv("fault_mc", &csv);

    // ---- Leg 2: escalation-band audit -------------------------------
    let mut inj = FaultInjector::new(FAULT_SEED ^ 1, true);
    let (mut escalated, mut rewrites, mut detected, mut silent) = (0u64, 0u64, 0u64, 0u64);
    let band_age = 3.0e4;
    let band_n = n.min(20_000);
    let band_start = std::time::Instant::now();
    for _ in 0..band_n {
        let r = inj.read(band_age, false, &[], &[]);
        escalated += u64::from(r.escalated);
        rewrites += u64::from(r.needs_rewrite);
        detected += u64::from(r.detected_uncorrectable);
        silent += u64::from(r.silent_corruption);
    }
    // Wall-clock time goes to stderr, so stdout replays byte for byte.
    eprintln!("escalation band: {band_n} reads in {} ms", band_start.elapsed().as_millis());
    println!(
        "escalation band @ {band_age:.0} s over {band_n} reads: \
         {escalated} escalated, {rewrites} rewrites, {detected} detected-uncorrectable, \
         {silent} silent"
    );
    assert!(escalated > 0, "the 9–17-error band must be populated at {band_age} s");
    assert_eq!(
        escalated,
        rewrites + detected + silent,
        "every escalated read must resolve through M-decode"
    );
    assert_eq!(silent, 0, "ReadDuo escalation must not corrupt silently");

    // ---- Leg 3: end-to-end engine runs ------------------------------
    let h = Harness {
        instructions_per_core: 200_000,
        cores: 2,
        seed: FAULT_SEED,
        memory: MemoryConfig::small_test(),
    };
    let toy = Workload::toy();
    let trace = h.trace_for(&toy);
    println!("\nend-to-end faulty runs (toy workload, {} instr/core):", h.instructions_per_core);
    for scheme in [SchemeKind::Scrubbing, SchemeKind::Hybrid, SchemeKind::Lwt { k: 4 }] {
        let r = h
            .run(&toy, DeviceSpec::from(scheme).with_fault(FAULT_SEED ^ 2), Source::Trace(&trace))
            .expect("scheme supports fault injection");
        println!(
            "  {:<12} reads {:>7}  errored {:>5}  ecc bits {:>5}  rm {:>4}  corrective {:>3}  \
             detected {:>2}  silent {:>2}",
            scheme.label(),
            r.report.reads,
            r.report.reads_errored,
            r.report.ecc_corrected_bits,
            r.report.reads_rm,
            r.report.corrective_rewrites,
            r.report.detected_uncorrectable,
            r.report.silent_corruptions,
        );
        assert_eq!(
            r.report.silent_corruptions, 0,
            "{scheme}: silent corruption under the paper's chosen policies"
        );
        assert_eq!(
            r.report.detected_uncorrectable, 0,
            "{scheme}: detected-uncorrectable at natural ages"
        );
    }

    // Stress leg: a cold Hybrid population exercises the full
    // R-fail → M-retry → ECC-correct → corrective-rewrite chain.
    let sim = Simulator::new(h.memory);
    let mut cold = HybridScheme::paper(FAULT_SEED)
        .with_cold_age(band_age)
        .with_fault_injection(FAULT_SEED ^ 3)
        .with_reserve(toy.footprint_lines);
    let rep = sim.run(&trace, &mut cold);
    println!(
        "\ncold Hybrid @ {band_age:.0} s: {} reads, {} escalated (retry mean {:.0} ns, \
         max {} ns), {} corrective rewrites ({} cells), {} detected, {} silent",
        rep.reads,
        rep.reads_rm,
        rep.retry_latency.mean_ns(),
        rep.retry_latency.max_ns(),
        rep.corrective_rewrites,
        rep.cells_written_corrective,
        rep.detected_uncorrectable,
        rep.silent_corruptions,
    );
    assert!(rep.reads_rm > 0, "cold population must escalate some reads");
    assert_eq!(rep.retry_latency.count(), rep.reads_rm, "retry latency covers every R-M read");
    assert!(rep.retry_latency.max_ns() >= 600, "an R-M read costs at least 600 ns of device time");
    assert!(rep.corrective_rewrites > 0, "escalated reads must schedule corrective rewrites");
    assert_eq!(rep.cells_written_corrective, 296 * rep.corrective_rewrites);
    assert_eq!(rep.silent_corruptions, 0, "cold Hybrid must not corrupt silently");

    println!("\nfault_mc: all assertions passed");
    finish_telemetry();
}

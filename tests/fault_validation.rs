//! Cross-validation of Monte-Carlo fault injection against the analytic
//! reliability model, plus the retry/escalation read path end to end.
//!
//! The analytic side (`readduo-reliability`) integrates the Table I drift
//! distributions in closed form; the Monte-Carlo side (`readduo-pcm`'s
//! `FaultModel`) samples them per cell. Both descend from the same
//! parameters but share no code path past `MetricConfig`, so agreement
//! within binomial confidence bounds is a genuine consistency check of
//! the reproduction's reliability story — the empirical line error rate a
//! simulated device *experiences* must match the probability the paper's
//! tables *predict*.

use readduo::core::{DeviceSpec, FaultInjector, HybridScheme, SchemeKind};
use readduo::memsim::{MemoryConfig, Simulator};
use readduo::pcm::{FaultModel, MetricConfig};
use readduo::reliability::{CellErrorModel, LerAnalysis};
use readduo::rng::rngs::StdRng;
use readduo::rng::SeedableRng;
use readduo::trace::{TraceGenerator, Workload};
use readduo_bench::{Harness, Source};

/// MLC cells per 512-bit line (the analytic model's basis).
const DATA_CELLS: u32 = 256;

/// Monte-Carlo sample size: small enough for debug-mode CI, large enough
/// that the checked probabilities (≥ 1e-3) have double-digit counts.
const N: u64 = 4000;

/// Six binomial standard errors plus a 5% model-basis allowance (per-bit
/// analytic basis vs per-cell sampling — identical means, O(p²) tail skew)
/// plus a few-counts absolute floor.
fn tolerance(p: f64, n: u64) -> f64 {
    6.0 * (p * (1.0 - p) / n as f64).sqrt() + 0.05 * p + 3.0 / n as f64
}

#[test]
fn empirical_r_ler_matches_analytic_model() {
    let model = FaultModel::paper();
    let analysis = LerAnalysis::new(CellErrorModel::new(MetricConfig::r_metric()));
    let mut rng = StdRng::seed_from_u64(0xFA11);
    for &age in &[8.0, 64.0, 640.0] {
        for e in [0usize, 1, 2] {
            let exceed = (0..N)
                .filter(|_| model.sample_line(age, DATA_CELLS, &mut rng).r_bits.len() > e)
                .count();
            let emp = exceed as f64 / N as f64;
            let p = analysis.ler_exceeding(e as u64, age).to_prob();
            let tol = tolerance(p, N);
            assert!(
                (emp - p).abs() <= tol,
                "R LER(E>{e}, S={age}): empirical {emp:.3e} vs analytic {p:.3e}, tol {tol:.3e}"
            );
        }
    }
}

#[test]
fn empirical_m_ler_matches_analytic_model() {
    let model = FaultModel::paper();
    let analysis = LerAnalysis::new(CellErrorModel::new(MetricConfig::m_metric()));
    let mut rng = StdRng::seed_from_u64(0xFA12);
    for &age in &[1.0e5, 1.0e6] {
        let exceed = (0..N)
            .filter(|_| !model.sample_line(age, DATA_CELLS, &mut rng).m_bits.is_empty())
            .count();
        let emp = exceed as f64 / N as f64;
        let p = analysis.ler_exceeding(0, age).to_prob();
        let tol = tolerance(p, N);
        assert!(
            (emp - p).abs() <= tol,
            "M LER(E>0, S={age}): empirical {emp:.3e} vs analytic {p:.3e}, tol {tol:.3e}"
        );
    }
}

#[test]
fn r_baseline_policy_failure_rate_matches_analytic_prediction() {
    // The R-only baseline fails a read exactly when the pattern defeats
    // BCH-8's correction: empirical P(fail) must track the analytic
    // P(> 8 bit errors). Failures are detected-uncorrectable plus the
    // (rare) miscorrections — both are decode outcomes of >8-error
    // patterns. The injector drifts the whole 592-bit codeword (the BCH
    // parity cells sit in the same drifting array), so the analytic
    // prediction is taken over 592 bits, not the paper's 512-bit data
    // framing.
    let analysis =
        LerAnalysis::with_bits(CellErrorModel::new(MetricConfig::r_metric()), 592);
    let mut inj = FaultInjector::new(0xFA13, false);
    for &age in &[1.0e4, 3.0e4] {
        let failures = (0..N)
            .map(|_| inj.read(age, false, &[], &[]))
            .filter(|r| r.detected_uncorrectable || r.silent_corruption)
            .count();
        let emp = failures as f64 / N as f64;
        let p = analysis.ler_exceeding(8, age).to_prob();
        let tol = tolerance(p, N);
        assert!(
            (emp - p).abs() <= tol,
            "R-baseline P(fail) @ {age} s: empirical {emp:.3e} vs analytic {p:.3e}, tol {tol:.3e}"
        );
    }
}

#[test]
fn readduo_policy_escalates_at_the_analytic_rate_and_never_fails() {
    // Under the ReadDuo policy the same >8-error patterns escalate to an
    // M-read instead of failing; the M-metric (α/7) then decodes cleanly,
    // so the end-to-end failure rate collapses to the analytic M-side
    // prediction (≈ 0 at these ages) while the *escalation* rate tracks
    // the R-side P(> 8 errors). As in the R-baseline test, the analytic
    // basis is the injector's full 592-bit codeword.
    let r_analysis =
        LerAnalysis::with_bits(CellErrorModel::new(MetricConfig::r_metric()), 592);
    let m_analysis =
        LerAnalysis::with_bits(CellErrorModel::new(MetricConfig::m_metric()), 592);
    let mut inj = FaultInjector::new(0xFA14, true);
    for &age in &[1.0e4, 3.0e4] {
        let mut escalated = 0u64;
        let mut failures = 0u64;
        for _ in 0..N {
            let r = inj.read(age, false, &[], &[]);
            escalated += u64::from(r.escalated);
            failures += u64::from(r.detected_uncorrectable || r.silent_corruption);
        }
        let emp_esc = escalated as f64 / N as f64;
        let p_esc = r_analysis.ler_exceeding(8, age).to_prob();
        let tol = tolerance(p_esc, N);
        assert!(
            (emp_esc - p_esc).abs() <= tol,
            "ReadDuo escalation rate @ {age} s: {emp_esc:.3e} vs analytic {p_esc:.3e}, tol {tol:.3e}"
        );
        let p_m_fail = m_analysis.ler_exceeding(8, age).to_prob();
        assert!(p_m_fail < 1e-9, "analytic M-side failure must be negligible: {p_m_fail:e}");
        assert_eq!(failures, 0, "ReadDuo must not fail reads at {age} s ({escalated} escalated)");
    }
}

#[test]
fn m_misreads_are_a_cellwise_subset_of_r_misreads() {
    // Paired sampling: both metrics sense the same physical cell, so an
    // M-misread can only happen where the R-metric also misread (the M
    // drift exponent is the R one divided by 7).
    let model = FaultModel::paper();
    let mut rng = StdRng::seed_from_u64(0xFA15);
    let mut m_seen = 0usize;
    for _ in 0..500 {
        let faults = model.sample_line(1.0e6, DATA_CELLS, &mut rng);
        let r_cells = faults.r_cell_indices();
        for mc in faults.m_cell_indices() {
            m_seen += 1;
            assert!(r_cells.contains(&mc), "M misread cell {mc} without an R misread");
        }
    }
    assert!(m_seen > 0, "age 1e6 s must produce M misreads for the subset check to bite");
}

#[test]
fn escalation_chain_runs_end_to_end_through_the_engine() {
    // A cold Hybrid population: R-decodes fail, reads escalate to M,
    // BCH repairs them, and corrective rewrites flow through the bank
    // write machinery — with the retry tail and corrective traffic
    // surfaced in the report.
    let toy = Workload::toy();
    let trace = TraceGenerator::new(11).generate(&toy, 100_000, 2);
    let sim = Simulator::new(MemoryConfig::small_test());
    let mut dev = HybridScheme::paper(11)
        .with_cold_age(3.0e4)
        .with_fault_injection(0xFA16)
        .with_reserve(toy.footprint_lines);
    let rep = sim.run(&trace, &mut dev);
    assert!(rep.reads > 0);
    assert!(rep.reads_rm > 0, "cold lines must escalate some reads");
    assert_eq!(rep.retry_latency.count(), rep.reads_rm, "retry tail covers every R-M read");
    assert!(rep.retry_latency.max_ns() >= 600, "an R-M read takes at least 600 ns of device time");
    assert!(rep.retry_latency.mean_ns() >= rep.read_latency.mean_ns());
    assert!(rep.corrective_rewrites > 0, "escalated reads must order corrective rewrites");
    assert_eq!(rep.cells_written_corrective, 296 * rep.corrective_rewrites);
    assert!(rep.energy_corrective_pj > 0.0);
    assert!(rep.ecc_corrected_bits > 0);
    assert_eq!(rep.silent_corruptions, 0, "Hybrid escalation must not corrupt silently");
}

#[test]
fn faulty_runs_are_deterministic_and_distinct_from_fault_free() {
    let h = Harness {
        instructions_per_core: 60_000,
        cores: 2,
        seed: 13,
        memory: MemoryConfig::small_test(),
    };
    let toy = Workload::toy();
    let trace = h.trace_for(&toy);
    let faulty = DeviceSpec::from(SchemeKind::Hybrid).with_fault(99);
    let a = h.run(&toy, faulty, Source::Trace(&trace)).expect("Hybrid injects");
    let b = h.run(&toy, faulty, Source::Trace(&trace)).expect("Hybrid injects");
    assert_eq!(a.report, b.report, "same fault seed must reproduce bit-for-bit");
    // The fault-free run is a different (purely analytic) code path; its
    // error accounting fields stay zero.
    let clean = h.run_on_trace(&toy, &trace, SchemeKind::Hybrid);
    assert_eq!(clean.report.ecc_corrected_bits, 0);
    assert_eq!(clean.report.corrective_rewrites, 0);
    assert_eq!(clean.report.detected_uncorrectable, 0);
    assert_eq!(clean.report.silent_corruptions, 0);
    assert_eq!(clean.report.reads, a.report.reads, "same trace drives both paths");
}

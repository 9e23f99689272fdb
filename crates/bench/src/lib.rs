//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each binary under `src/bin/` reproduces one artifact:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `table3` | Table III — LER vs (E, S), R-sensing |
//! | `table4` | Table IV — LER vs (E, S), M-sensing |
//! | `table5` | Table V — conditions (ii)/(iii) under W=1 |
//! | `table7` | Table VII — subarray area occupancy |
//! | `fig3`   | Figure 3 — motivation: perf & density of prior schemes |
//! | `fig9`   | Figure 9 — normalised execution time |
//! | `fig10`  | Figure 10 — normalised dynamic energy |
//! | `fig11`  | Figure 11 — cells/line and EDAP |
//! | `fig12`  | Figure 12 — sensitivity to sub-interval count k |
//! | `fig13`  | Figure 13 — sensitivity to Select window s |
//! | `fig14`  | Figure 14 — R-M-read conversion ablation |
//! | `fig15`  | Figure 15 — PCM lifetime impact |
//!
//! Every binary prints the series to stdout and writes a CSV under
//! `target/experiments/`. Simulation volume is controlled by the
//! `READDUO_INSTR` environment variable (instructions per core; default
//! one million — enough for stable ratios, small enough for CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;

use readduo_core::{DeviceSpec, EdapInputs, SchemeKind, SpecError};
use readduo_dram::DramConfig;
use readduo_memsim::{MemoryConfig, SimReport, Simulator};
use readduo_pool::Pool;
use readduo_trace::{Trace, TraceCursor, TraceGenerator, TraceStream, Workload};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// One (workload, scheme) simulation result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub workload: &'static str,
    /// Scheme configuration.
    pub scheme: SchemeKind,
    /// Full simulator report.
    pub report: SimReport,
}

/// Where a run's operations come from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// An already-generated trace (matrix callers share one across specs).
    Trace(&'a Trace),
    /// A bounded-memory stream, generated chunk by chunk while the engine
    /// consumes it: peak memory stays bounded by `cores × DEFAULT_CHUNK`
    /// records regardless of instruction count.
    Stream,
}

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Instructions simulated per core.
    pub instructions_per_core: u64,
    /// Cores used (traces and machine).
    pub cores: usize,
    /// Master seed for traces and scheme RNG streams.
    pub seed: u64,
    /// Memory system configuration.
    pub memory: MemoryConfig,
}

impl Harness {
    /// Builds the default harness over the paper's single-channel machine;
    /// `READDUO_INSTR` overrides the volume.
    pub fn from_env() -> Self {
        let instructions_per_core =
            readduo_env::u64_at_least("READDUO_INSTR", 1).unwrap_or(1_000_000);
        Self {
            instructions_per_core,
            cores: 4,
            seed: 0x00D5_EAD0_2016,
            memory: MemoryConfig::paper(),
        }
    }

    /// Generates the trace for one workload (deterministic in the seed).
    ///
    /// Traces are the matrix's shared input: `run_matrix` builds each
    /// workload's trace exactly once and every scheme simulates against
    /// the same `Arc`.
    pub fn trace_for(&self, workload: &Workload) -> Arc<Trace> {
        let _phase = readduo_telemetry::trace::phase(format!("trace-gen/{}", workload.name));
        Arc::new(TraceGenerator::new(self.seed).generate(
            workload,
            self.instructions_per_core,
            self.cores,
        ))
    }

    /// Opens a bounded-memory stream over the same trace [`trace_for`]
    /// would materialise.
    ///
    /// [`trace_for`]: Harness::trace_for
    pub fn stream_for(&self, workload: &Workload) -> TraceStream {
        TraceGenerator::new(self.seed).stream(workload, self.instructions_per_core, self.cores)
    }

    /// Runs one device over one workload — the single run path every
    /// figure, test and matrix goes through.
    ///
    /// The spec is checked before any trace is generated. The device is
    /// seeded from the harness seed and the workload, with the workload's
    /// warm region and footprint, identically for either [`Source`].
    /// Single-channel topologies take the plain engine; multi-channel
    /// topologies shard across channels on the ambient pool
    /// ([`Pool::from_env`]), one per-channel device each. Reports are
    /// bit-for-bit independent of the source and the thread count
    /// (pinned by `tests/stream_equivalence.rs` and
    /// `tests/shard_equivalence.rs`).
    pub fn run(
        &self,
        workload: &Workload,
        spec: impl Into<DeviceSpec>,
        source: Source<'_>,
    ) -> Result<RunResult, SpecError> {
        let spec = spec.into();
        spec.validate()?;
        let label = format!("{}/{spec}", workload.name);
        let _phase = readduo_telemetry::trace::phase(format!("sim/{label}"));
        readduo_telemetry::trace::set_run_label(&label);
        // Lines below the warm boundary are in write steady state; the
        // schemes treat them as recently written (pre-window).
        let warm_boundary = (workload.footprint_lines.max(16) as f64
            * workload.locality.written_fraction) as u64;
        let seed = self.seed ^ workload.name.len() as u64;
        let channels = self.memory.topology.channels;
        let device = |ch: usize| {
            spec.build(seed, ch, channels, warm_boundary, workload.footprint_lines)
                .expect("spec validated above")
        };
        let sim = Simulator::new(self.memory);
        // A sharded stream re-generates chunk by chunk per channel and
        // filters it to the lines that channel owns: peak memory stays
        // bounded and routing is stream-order-invariant by construction.
        let report = match source {
            Source::Trace(trace) if channels > 1 => {
                sim.run_sharded(&Pool::from_env(), |_| TraceCursor::new(trace), device)
            }
            Source::Stream if channels > 1 => {
                sim.run_sharded(&Pool::from_env(), |_| self.stream_for(workload), device)
            }
            Source::Trace(trace) => sim.run(trace, device(0).as_mut()),
            Source::Stream => sim.run_source(&mut self.stream_for(workload), device(0).as_mut()),
        };
        Ok(RunResult {
            workload: workload.name,
            scheme: spec.scheme,
            report,
        })
    }

    /// [`run`](Harness::run) of a bare scheme over an already-generated
    /// trace.
    pub fn run_on_trace(&self, workload: &Workload, trace: &Trace, scheme: SchemeKind) -> RunResult {
        self.run(workload, scheme, Source::Trace(trace))
            .expect("a bare scheme always builds")
    }

    /// [`run`](Harness::run) of a scheme behind the DRAM tier `dram` over
    /// an already-generated trace.
    pub fn run_tiered_on_trace(
        &self,
        workload: &Workload,
        trace: &Trace,
        scheme: SchemeKind,
        dram: DramConfig,
    ) -> RunResult {
        self.run(workload, DeviceSpec::from(scheme).with_dram(dram), Source::Trace(trace))
            .expect("a tiered bare scheme always builds")
    }

    /// Runs the full `specs × workloads` matrix on the ambient pool
    /// ([`Pool::from_env`]; `READDUO_THREADS=1` forces sequential).
    pub fn run_matrix<S: Copy + Into<DeviceSpec>>(
        &self,
        specs: &[S],
        workloads: &[Workload],
    ) -> Result<Vec<RunResult>, SpecError> {
        self.run_matrix_on(&Pool::from_env(), specs, workloads)
    }

    /// Runs the matrix on an explicit pool.
    ///
    /// Every spec is checked before any trace is generated. Trace
    /// generation is itself fanned out (one task per workload); each trace
    /// is then shared across specs via `Arc`, and the (workload, spec)
    /// pairs go to the pool in workload-major order. Because [`Pool::map`]
    /// positions results by input index, the returned vector is in
    /// exactly the order a sequential nested loop produces — regardless of
    /// which worker finished first — and, since every task seeds its own
    /// RNG streams from `(seed, workload)`, bit-for-bit identical to a
    /// sequential run.
    pub fn run_matrix_on<S: Copy + Into<DeviceSpec>>(
        &self,
        pool: &Pool,
        specs: &[S],
        workloads: &[Workload],
    ) -> Result<Vec<RunResult>, SpecError> {
        let specs = validated(specs)?;
        let seq = Pool::new(1);
        let pool = if matrix_uses_pool(pool, specs.len() * workloads.len()) {
            pool
        } else {
            &seq
        };
        let traces: Vec<Arc<Trace>> =
            pool.map(workloads.to_vec(), |_, w| self.trace_for(&w));
        let tasks: Vec<(Workload, Arc<Trace>, DeviceSpec)> = workloads
            .iter()
            .zip(&traces)
            .flat_map(|(w, trace)| specs.iter().map(move |&s| (w.clone(), Arc::clone(trace), s)))
            .collect();
        pool.map(tasks, |_, (w, trace, s)| self.run(&w, s, Source::Trace(&trace)))
            .into_iter()
            .collect()
    }

    /// Runs the full matrix in streaming mode on the ambient pool.
    ///
    /// See [`run_matrix_streamed_on`](Harness::run_matrix_streamed_on).
    pub fn run_matrix_streamed<S: Copy + Into<DeviceSpec>>(
        &self,
        specs: &[S],
        workloads: &[Workload],
    ) -> Result<Vec<RunResult>, SpecError> {
        self.run_matrix_streamed_on(&Pool::from_env(), specs, workloads)
    }

    /// Runs the matrix in streaming mode on an explicit pool.
    ///
    /// Peak memory stays bounded regardless of `instructions_per_core`:
    /// workloads are processed one at a time, and a workload whose
    /// materialised trace fits under [`MATRIX_TRACE_BUDGET_BYTES`] is
    /// generated **once** and shared across all specs (the per-op hot
    /// path's single biggest redundancy was re-generating the same stream
    /// once per scheme). Above the budget the workload falls back to true
    /// chunk-by-chunk streaming per spec, which is what makes paper-scale
    /// volumes (100M–1B instructions/core) runnable at all. Either way at
    /// most one workload's trace is live at a time, and results are
    /// returned in workload-major order, bit-for-bit identical to the
    /// materialised matrix (pinned by `tests/stream_equivalence.rs` and
    /// `tests/parallel_determinism.rs`).
    pub fn run_matrix_streamed_on<S: Copy + Into<DeviceSpec>>(
        &self,
        pool: &Pool,
        specs: &[S],
        workloads: &[Workload],
    ) -> Result<Vec<RunResult>, SpecError> {
        self.run_matrix_streamed_within(MATRIX_TRACE_BUDGET_BYTES, pool, specs, workloads)
    }

    /// [`run_matrix_streamed_on`](Harness::run_matrix_streamed_on) with
    /// the per-workload materialisation budget as a parameter, so a test
    /// can force the chunk-by-chunk branch with a budget of 0.
    fn run_matrix_streamed_within<S: Copy + Into<DeviceSpec>>(
        &self,
        budget: u64,
        pool: &Pool,
        specs: &[S],
        workloads: &[Workload],
    ) -> Result<Vec<RunResult>, SpecError> {
        let specs = validated(specs)?;
        let seq = Pool::new(1);
        let pool = if matrix_uses_pool(pool, specs.len() * workloads.len()) {
            pool
        } else {
            &seq
        };
        let mut out = Vec::with_capacity(specs.len() * workloads.len());
        for w in workloads {
            let trace = (self.trace_estimate_bytes(w) <= budget).then(|| self.trace_for(w));
            let source = trace.as_deref().map_or(Source::Stream, Source::Trace);
            out.extend(pool.map(specs.clone(), |_, s| self.run(w, s, source)));
        }
        out.into_iter().collect()
    }

    /// Estimated bytes a workload's materialised trace occupies: expected
    /// op count (instruction volume × the workload's memory intensity)
    /// times the per-record size.
    fn trace_estimate_bytes(&self, workload: &Workload) -> u64 {
        let ops = (self.instructions_per_core as f64
            * self.cores as f64
            * workload.mpki()
            / 1000.0) as u64;
        ops.saturating_mul(std::mem::size_of::<readduo_trace::MemOp>() as u64)
    }
}

/// Per-workload trace-materialisation budget of the streamed matrix, in
/// bytes (128 MiB). A workload whose estimated trace fits the budget is
/// generated once and shared across schemes instead of being re-generated
/// per scheme — same reports either way, only the wall clock and the peak
/// RSS differ.
pub const MATRIX_TRACE_BUDGET_BYTES: u64 = 128 << 20;

/// Seed of the fault-injection and endurance streams of the `fault_mc`
/// and `lifetime` sweeps.
pub const FAULT_SEED: u64 = 0x00FA_0017;

/// The specs of a matrix, each checked before any work starts.
fn validated<S: Copy + Into<DeviceSpec>>(specs: &[S]) -> Result<Vec<DeviceSpec>, SpecError> {
    specs
        .iter()
        .map(|&s| {
            let spec: DeviceSpec = s.into();
            spec.validate().map(|()| spec)
        })
        .collect()
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Handles `--help`/`-h` for a bench binary: prints what the binary does,
/// then the registry of every recognized `READDUO_*` variable (the
/// binaries take no positional arguments — the environment is the whole
/// interface), and exits.
pub fn handle_help(bin: &str, about: &str) {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{bin} — {about}");
        println!("\nUsage: {bin} [--help]");
        println!("\nAll configuration is via READDUO_* environment variables:\n");
        print!("{}", readduo_env::help_table());
        std::process::exit(0);
    }
}

/// Drains the telemetry trace and metrics to their configured output
/// files, printing the paths. Call at the end of a binary's `main`; a
/// silent no-op unless `READDUO_TELEMETRY` is on.
pub fn finish_telemetry() {
    match readduo_telemetry::export::finish_to_env() {
        Ok(Some((trace, metrics))) => {
            println!("[telemetry] trace   {trace}");
            println!("[telemetry] metrics {metrics}");
        }
        Ok(None) => {}
        Err(e) => eprintln!("[telemetry] export failed: {e}"),
    }
}

/// Whether a matrix of `tasks` (workload, spec) pairs should fan out to
/// `pool` at all.
///
/// Spinning up workers, cloning task inputs and funnelling results through
/// a channel costs more than it saves when there are fewer tasks than
/// workers (the `sweep/matrix_1w3s_pool` microbench measured the pooled
/// 1×3 matrix *slower* than sequential), so small matrices take the
/// in-place sequential path.
pub fn matrix_uses_pool(pool: &Pool, tasks: usize) -> bool {
    !pool.is_sequential() && tasks >= pool.workers()
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where unavailable. The high-water mark
/// is what bounds a sweep: it captures the largest simultaneous footprint
/// any run reached, which is the quantity the streaming mode promises to
/// keep independent of instruction count.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Finds the result for a (workload, scheme) pair.
pub fn result_for<'a>(
    results: &'a [RunResult],
    workload: &str,
    scheme: SchemeKind,
) -> Option<&'a RunResult> {
    results
        .iter()
        .find(|r| r.workload == workload && r.scheme == scheme)
}

/// Per-workload metric ratios of each scheme against a baseline scheme.
///
/// Returns `(workload, Vec<(scheme, ratio)>)` rows in workload order plus a
/// final `"geomean"` row.
pub fn normalized<F: Fn(&SimReport) -> f64>(
    results: &[RunResult],
    baseline: SchemeKind,
    metric: F,
) -> Vec<(String, Vec<(SchemeKind, f64)>)> {
    let mut workloads: Vec<&'static str> = results.iter().map(|r| r.workload).collect();
    workloads.dedup();
    let mut schemes: Vec<SchemeKind> = Vec::new();
    for r in results {
        if !schemes.contains(&r.scheme) {
            schemes.push(r.scheme);
        }
    }
    let mut rows = Vec::new();
    let mut per_scheme_ratios: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for w in &workloads {
        let base = result_for(results, w, baseline)
            .unwrap_or_else(|| panic!("missing baseline run for {w}"));
        let base_v = metric(&base.report);
        let mut row = Vec::new();
        for (si, &s) in schemes.iter().enumerate() {
            let r = result_for(results, w, s)
                .unwrap_or_else(|| panic!("missing {s} run for {w}"));
            let ratio = if base_v > 0.0 {
                metric(&r.report) / base_v
            } else {
                1.0
            };
            per_scheme_ratios[si].push(ratio);
            row.push((s, ratio));
        }
        rows.push((w.to_string(), row));
    }
    let geo: Vec<(SchemeKind, f64)> = schemes
        .iter()
        .zip(&per_scheme_ratios)
        .map(|(&s, v)| (s, readduo_math::geometric_mean(v).unwrap_or(1.0)))
        .collect();
    rows.push(("geomean".into(), geo));
    rows
}

/// EDAP inputs for a result (report + the scheme's storage cost).
pub fn edap_inputs(r: &RunResult) -> EdapInputs {
    EdapInputs::from_report(&r.report, r.scheme.storage().area_cells())
}

/// The output directory for CSV artifacts (`target/experiments`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes CSV rows (first row = header) to `target/experiments/<name>.csv`.
pub fn write_csv(name: &str, rows: &[Vec<String>]) {
    let path = out_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write csv");
    }
    println!("\n[csv] {}", path.display());
}

/// Formats a probability the way the paper's tables do: scientific
/// notation, or `too small` below 1e-15.
pub fn fmt_prob(p: readduo_math::LogProb) -> String {
    let v = p.to_prob();
    if v < 1e-15 {
        "too small".into()
    } else {
        format!("{v:.2E}")
    }
}

/// Renders an aligned text table. An empty header yields an empty string.
/// Rows may be wider or narrower than the header: extra columns are sized
/// from the rows alone, missing cells simply end the row early.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    if header.is_empty() {
        return String::new();
    }
    let cols = rows
        .iter()
        .map(Vec::len)
        .chain(std::iter::once(header.len()))
        .max()
        .expect("chain is non-empty");
    let mut widths: Vec<usize> = vec![0; cols];
    for (i, h) in header.iter().enumerate() {
        widths[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> Harness {
        Harness {
            instructions_per_core: 40_000,
            cores: 2,
            seed: 7,
            memory: MemoryConfig::small_test(),
        }
    }

    #[test]
    fn matrix_runs_and_normalises() {
        let h = tiny_harness();
        let schemes = [SchemeKind::Ideal, SchemeKind::MMetric];
        let workloads = [Workload::toy()];
        let results = h.run_matrix(&schemes, &workloads).unwrap();
        assert_eq!(results.len(), 2);
        let rows = normalized(&results, SchemeKind::Ideal, |r| r.exec_ns as f64);
        assert_eq!(rows.len(), 2, "one workload + geomean");
        let (_, geo) = rows.last().unwrap();
        let ideal = geo.iter().find(|(s, _)| *s == SchemeKind::Ideal).unwrap().1;
        let m = geo.iter().find(|(s, _)| *s == SchemeKind::MMetric).unwrap().1;
        assert!((ideal - 1.0).abs() < 1e-12);
        assert!(m >= 1.0, "M-metric cannot be faster than Ideal: {m}");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("333"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn empty_header_renders_empty_table() {
        // Regression: `widths.len() - 1` used to underflow here.
        assert_eq!(render_table(&[], &[]), "");
        assert_eq!(render_table(&[], &[vec!["orphan".into()]]), "");
    }

    #[test]
    fn rows_wider_than_header_stay_aligned() {
        // Regression: widths were sized from the header alone, so columns
        // beyond it collapsed to unaligned raw cells.
        let t = render_table(
            &["a".into()],
            &[
                vec!["1".into(), "extra".into(), "tail".into()],
                vec!["22".into(), "x".into()],
                vec![], // missing cells end the row early
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[2], " 1  extra  tail");
        assert_eq!(lines[3], "22      x");
        assert_eq!(lines[4], "");
        // The separator spans every column, not just the header's.
        assert_eq!(lines[1].len(), 2 + 5 + 4 + 2 * 2);
    }

    #[test]
    fn small_matrices_skip_the_pool() {
        use readduo_pool::Pool;
        // Fewer tasks than workers: pooling costs more than it saves.
        assert!(!matrix_uses_pool(&Pool::new(4), 3));
        assert!(matrix_uses_pool(&Pool::new(4), 4));
        assert!(matrix_uses_pool(&Pool::new(4), 100));
        // A sequential pool never fans out, whatever the size.
        assert!(!matrix_uses_pool(&Pool::new(1), 100));
        assert!(!matrix_uses_pool(&Pool::new(4), 0));
    }

    /// Both branches of the streamed matrix match the materialised one:
    /// a workload under the budget is generated once and shared, and one
    /// above it streams chunk by chunk per spec. A budget of 0 forces the
    /// second branch, which the 128 MiB budget reserves for volumes no
    /// test can afford.
    #[test]
    fn streamed_matrix_matches_materialised_matrix() {
        let h = tiny_harness();
        let schemes = [SchemeKind::Ideal, SchemeKind::Scrubbing, SchemeKind::MMetric];
        let workloads = [Workload::toy(), Workload::by_name("mcf").expect("mcf")];
        assert!(workloads.iter().all(|w| h.trace_estimate_bytes(w) > 0));
        let on_trace = h.run_matrix(&schemes, &workloads).unwrap();
        let shared = h.run_matrix_streamed(&schemes, &workloads).unwrap();
        let chunked = h
            .run_matrix_streamed_within(0, &Pool::new(2), &schemes, &workloads)
            .unwrap();
        for streamed in [shared, chunked] {
            assert_eq!(on_trace.len(), streamed.len());
            for (a, b) in on_trace.iter().zip(&streamed) {
                assert_eq!(a.workload, b.workload);
                assert_eq!(a.scheme, b.scheme);
                assert_eq!(a.report, b.report, "{}/{}", a.workload, a.scheme);
            }
        }
    }

    #[test]
    fn peak_rss_is_readable_and_plausible() {
        let rss = peak_rss_bytes().expect("procfs available on the test host");
        // A running test binary is bigger than 1 MB and (here) smaller
        // than 1 TB.
        assert!(rss > 1 << 20, "VmHWM {rss} implausibly small");
        assert!(rss < 1 << 40, "VmHWM {rss} implausibly large");
    }

    #[test]
    fn single_run_matches_matrix_entry() {
        // The single-run path and the pooled matrix path must agree exactly.
        let h = tiny_harness();
        let w = Workload::toy();
        let lone = h.run(&w, SchemeKind::Ideal, Source::Stream).unwrap();
        let matrix = h
            .run_matrix_on(&Pool::new(2), &[SchemeKind::Ideal], std::slice::from_ref(&w))
            .unwrap();
        assert_eq!(lone.report, matrix[0].report);
    }

    #[test]
    fn faulty_runs_are_deterministic_and_gated() {
        let h = tiny_harness();
        let w = Workload::toy();
        for scheme in [SchemeKind::Ideal, SchemeKind::MMetric] {
            let spec = DeviceSpec::from(scheme).with_fault(1);
            let err = h.run(&w, spec, Source::Stream).unwrap_err();
            assert_eq!(err, SpecError::NotInjectable(scheme));
        }
        let spec = DeviceSpec::from(SchemeKind::Hybrid).with_fault(3);
        let a = h.run(&w, spec, Source::Stream).unwrap();
        let b = h.run(&w, spec, Source::Trace(&h.trace_for(&w))).unwrap();
        assert_eq!(a.report, b.report);
        assert!(a.report.reads > 0);
    }

    #[test]
    fn prob_formatting_matches_paper_convention() {
        use readduo_math::LogProb;
        assert_eq!(fmt_prob(LogProb::from_prob(0.0)), "too small");
        assert_eq!(fmt_prob(LogProb::new(-60.0)), "too small");
        assert!(fmt_prob(LogProb::from_prob(1.23e-3)).contains("E-3"));
    }
}

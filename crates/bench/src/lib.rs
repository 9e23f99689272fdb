//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each table has its own binary under `src/bin/`; `fig9` reads every
//! simulated figure off one matrix of runs:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `table3` | Table III — LER vs (E, S), R-sensing |
//! | `table4` | Table IV — LER vs (E, S), M-sensing |
//! | `table5` | Table V — conditions (ii)/(iii) under W=1 |
//! | `table7` | Table VII — subarray area occupancy |
//! | `fig9`   | Figures 3 and 9–15 — every simulated figure, from one matrix |
//!
//! Every binary prints the series to stdout and writes one CSV per
//! artifact under `target/experiments/`. Simulation volume is controlled
//! by the `READDUO_INSTR` environment variable (instructions per core;
//! default one million — enough for stable ratios, small enough for CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;

use readduo_core::{DeviceSpec, EdapInputs, SchemeKind, SpecError};
use readduo_dram::DramConfig;
use readduo_memsim::{DeviceModel, MemoryConfig, SimReport, Simulator};
use readduo_pool::Pool;
use readduo_trace::{Trace, TraceCursor, TraceGenerator, TraceStream, Workload};
use std::io::Write as _;
use std::path::PathBuf;

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
    pub fn trace_for(&self, workload: &Workload) -> Trace {
        let _phase = readduo_telemetry::trace::phase(format!("trace-gen/{}", workload.name));
        TraceGenerator::new(self.seed).generate(workload, self.instructions_per_core, self.cores)
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
        let channels = self.memory.topology.channels;
        let device = |ch: usize| {
            self.device(workload, spec, ch)
                .expect("spec validated above")
        };
        let sim = Simulator::new(self.memory);
        // A sharded run drains its source once into per-channel op logs
        // (about 5 bytes per op) and runs each channel from its own log;
        // a single-channel stream stays within the generator's chunk
        // buffers.
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

    /// The device [`run`](Harness::run) simulates for `spec` on
    /// `workload`'s channel `channel`: seeded from the harness seed and the
    /// workload, with the workload's warm region and footprint.
    pub fn device(
        &self,
        workload: &Workload,
        spec: DeviceSpec,
        channel: usize,
    ) -> Result<Box<dyn DeviceModel>, SpecError> {
        // Lines below the warm boundary are in write steady state; the
        // schemes treat them as recently written (pre-window).
        let warm_boundary =
            (workload.footprint_lines.max(16) as f64 * workload.locality.written_fraction) as u64;
        spec.build(
            self.seed ^ workload.name.len() as u64,
            channel,
            self.memory.topology.channels,
            warm_boundary,
            workload.footprint_lines,
        )
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

    /// Runs every spec on every workload on the ambient pool
    /// ([`Pool::from_env`]; `READDUO_THREADS=1` forces sequential) and
    /// returns the results in workload-major order: every spec of the
    /// first workload, in spec order, then the next workload.
    ///
    /// Every spec is checked before any trace is generated. Each workload
    /// is one pool task: it generates the workload's trace once, or
    /// streams it chunk by chunk per spec when the trace would exceed
    /// [`MATRIX_TRACE_BUDGET_BYTES`], and runs the specs on it in order.
    /// [`Pool::map`] positions results by input index and every run seeds
    /// its RNG streams from `(seed, workload)`, so the matrix is bit for
    /// bit a sequential nested loop over [`run`](Harness::run) at any pool
    /// width (pinned by `tests/parallel_determinism.rs`).
    pub fn run_matrix<S: Copy + Into<DeviceSpec>>(
        &self,
        specs: &[S],
        workloads: &[Workload],
    ) -> Result<Vec<RunResult>, SpecError> {
        self.run_matrix_within(
            MATRIX_TRACE_BUDGET_BYTES,
            &Pool::from_env(),
            specs,
            workloads,
        )
    }

    /// [`run_matrix`](Harness::run_matrix) on an explicit pool and trace
    /// budget, so a test can force the streaming branch with a budget of 0.
    fn run_matrix_within<S: Copy + Into<DeviceSpec>>(
        &self,
        budget: u64,
        pool: &Pool,
        specs: &[S],
        workloads: &[Workload],
    ) -> Result<Vec<RunResult>, SpecError> {
        let specs = specs
            .iter()
            .map(|&s| {
                let spec: DeviceSpec = s.into();
                spec.validate().map(|()| spec)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let per_workload = pool.map(workloads.to_vec(), |_, w| {
            let trace = (self.trace_estimate_bytes(&w) <= budget).then(|| self.trace_for(&w));
            let source = trace.as_ref().map_or(Source::Stream, Source::Trace);
            specs.iter().map(|&s| self.run(&w, s, source)).collect::<Vec<_>>()
        });
        per_workload.into_iter().flatten().collect()
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

/// Per-workload trace-materialisation budget of [`Harness::run_matrix`],
/// in bytes (128 MiB). A workload whose estimated trace fits the budget is
/// generated once and shared across specs; a larger one is streamed chunk
/// by chunk per spec, which keeps paper-scale volumes (100M–1B
/// instructions/core) runnable. Same reports either way, only the wall
/// clock and the peak RSS differ.
pub const MATRIX_TRACE_BUDGET_BYTES: u64 = 128 << 20;

/// Seed of the fault-injection and endurance streams of the `fault_mc`
/// and `lifetime` sweeps.
pub const FAULT_SEED: u64 = 0x00FA_0017;

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

/// Per-workload metric ratios of `schemes` against a baseline scheme.
///
/// Returns `(workload, Vec<(scheme, ratio)>)` rows in workload order plus a
/// final `"geomean"` row; each row holds one ratio per scheme, in the
/// order of `schemes`. `results` may hold runs of other schemes too.
pub fn normalized<F: Fn(&SimReport) -> f64>(
    results: &[RunResult],
    schemes: &[SchemeKind],
    baseline: SchemeKind,
    metric: F,
) -> Vec<(String, Vec<(SchemeKind, f64)>)> {
    let mut workloads: Vec<&'static str> = results.iter().map(|r| r.workload).collect();
    workloads.dedup();
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

/// The table of [`normalized`] rows, header first: `workload`, then one
/// column per scheme holding each value to three decimals. It is both the
/// printed figure (`render_table(&table[0], &table[1..])`) and its
/// [`write_csv`] rows.
pub fn ratio_table(rows: &[(String, Vec<(SchemeKind, f64)>)]) -> Vec<Vec<String>> {
    let header = std::iter::once("workload".to_string())
        .chain(rows[0].1.iter().map(|(s, _)| s.label()))
        .collect();
    let body = rows.iter().map(|(w, cols)| {
        std::iter::once(w.clone())
            .chain(cols.iter().map(|&(_, v)| format!("{v:.3}")))
            .collect()
    });
    std::iter::once(header).chain(body).collect()
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
        let rows = normalized(&results, &schemes, SchemeKind::Ideal, |r| r.exec_ns as f64);
        assert_eq!(rows.len(), 2, "one workload + geomean");
        let (_, geo) = rows.last().unwrap();
        let ideal = geo.iter().find(|(s, _)| *s == SchemeKind::Ideal).unwrap().1;
        let m = geo.iter().find(|(s, _)| *s == SchemeKind::MMetric).unwrap().1;
        assert!((ideal - 1.0).abs() < 1e-12);
        assert!(m >= 1.0, "M-metric cannot be faster than Ideal: {m}");
        let table = ratio_table(&rows);
        assert_eq!(table[0], ["workload", "Ideal", "M-metric"]);
        assert_eq!(table[2][0], "geomean");
        assert_eq!(table[2][1], "1.000");
        assert_eq!(table[2][2], format!("{m:.3}"));
        // The columns follow the caller's order, not the matrix's.
        let reversed = [SchemeKind::MMetric, SchemeKind::Ideal];
        let rows = normalized(&results, &reversed, SchemeKind::Ideal, |r| r.exec_ns as f64);
        assert_eq!(ratio_table(&rows)[0], ["workload", "M-metric", "Ideal"]);
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

    /// The one matrix runner is a nested loop over `run`: at the default
    /// budget (each trace generated once and shared across specs) and at a
    /// budget of 0 (every spec streams chunk by chunk, the branch the
    /// 128 MiB budget reserves for volumes no test can afford), on one
    /// worker and on two, every (workload, spec) result equals its own
    /// `run`, in workload-major order.
    #[test]
    fn matrix_equals_per_spec_runs_in_workload_major_order() {
        let h = tiny_harness();
        let schemes = [SchemeKind::Ideal, SchemeKind::Scrubbing, SchemeKind::MMetric];
        let workloads = [Workload::toy(), Workload::by_name("mcf").expect("mcf")];
        assert!(workloads.iter().all(|w| h.trace_estimate_bytes(w) > 0));
        let mut lone = Vec::new();
        for w in &workloads {
            for &s in &schemes {
                lone.push(h.run(w, s, Source::Stream).unwrap());
            }
        }
        for budget in [MATRIX_TRACE_BUDGET_BYTES, 0] {
            for workers in [1, 2] {
                let matrix = h
                    .run_matrix_within(budget, &Pool::new(workers), &schemes, &workloads)
                    .unwrap();
                assert_eq!(matrix.len(), lone.len());
                for (m, l) in matrix.iter().zip(&lone) {
                    let at = format!("{}/{}, budget {budget}, {workers} worker(s)", l.workload, l.scheme);
                    assert_eq!((m.workload, m.scheme), (l.workload, l.scheme), "{at}");
                    assert_eq!(m.report, l.report, "{at}");
                }
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

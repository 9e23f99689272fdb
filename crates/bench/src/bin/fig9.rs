//! Figures 9, 10 and 15 — normalised execution time, dynamic energy and
//! relative PCM lifetime of the six headline schemes over the 14 SPEC2006
//! workloads, all read off one matrix of runs, plus the read-latency p99
//! tail per cell of Figure 9.
//!
//! `--channels N` re-stripes the paper machine over `N` memory channels:
//! with `N > 1` each run shards per channel onto the worker pool, and the
//! tables/CSVs reflect the merged reports.
//!
//! `--dram-lines N` puts the hybrid DRAM–PCM migration tier (capacity
//! `N` lines, [`DramConfig::new`](readduo_dram::DramConfig::new)'s default
//! organisation) in front of every scheme and runs the same matrix through
//! it. Without it the tier does not exist and the output is bit-for-bit
//! the plain figures.

use readduo_bench::{
    finish_telemetry, handle_help, normalized, ratio_table, render_table, result_for, write_csv,
    Harness, RunResult,
};
use readduo_core::{DeviceSpec, SchemeKind};
use readduo_memsim::SimReport;
use readduo_trace::Workload;

/// One figure read off the matrix: `metric` normalised to Ideal per
/// workload, each ratio shown as `shown(ratio)`.
struct Figure {
    csv: &'static str,
    title: &'static str,
    metric: fn(&SimReport) -> f64,
    shown: fn(f64) -> f64,
    /// What a scheme's geomean shown value is, as a change against Ideal.
    geomean: &'static str,
    paper: &'static str,
}

const FIGURES: [Figure; 3] = [
    Figure {
        csv: "fig9",
        title: "Figure 9: normalised execution time (Ideal = 1.0)",
        metric: |r| r.exec_ns as f64,
        shown: |v| v,
        geomean: "geomean overhead over Ideal",
        paper: "Scrubbing +21%, M-metric +25%, Hybrid +5.8%, LWT-4 +2.9%, Select-4:2 +3.4%",
    },
    Figure {
        csv: "fig10",
        title: "Figure 10: normalised dynamic energy (Ideal = 1.0)",
        metric: SimReport::energy_total_pj,
        shown: |v| v,
        geomean: "geomean energy vs Ideal",
        paper: "Scrubbing +17%, M-metric +5%, Hybrid +8.7%, LWT-4 +1.3%, \
                Select-4:2 -22.2% (0.778x)",
    },
    // Lifetime ∝ 1 / cell-write volume.
    Figure {
        csv: "fig15",
        title: "Figure 15: relative PCM lifetime (Ideal = 1.0; higher is better)",
        metric: |r| r.cells_written_total().max(1) as f64,
        shown: |v| 1.0 / v,
        geomean: "geomean lifetime vs Ideal",
        paper: "Scrubbing -12.4%, M-metric ~0%, Hybrid -6%, LWT-4 -10%, Select-4:2 +42%",
    },
];

/// Prints `fig` and returns its table (header first), which is its CSV.
fn print_figure(fig: &Figure, results: &[RunResult]) -> Vec<Vec<String>> {
    let rows = normalized(results, SchemeKind::Ideal, fig.metric);
    let table = ratio_table(&rows, fig.shown);
    println!("\n{}\n", fig.title);
    println!("{}", render_table(&table[0], &table[1..]));
    let (_, geo) = rows.last().expect("normalized ends with the geomean row");
    for (s, v) in geo {
        println!(
            "  {s:<12} {}: {:+.1}%",
            fig.geomean,
            ((fig.shown)(*v) - 1.0) * 100.0
        );
    }
    println!("\npaper reference: {}", fig.paper);
    table
}

fn main() {
    handle_help(
        "fig9",
        "Figures 9, 10 and 15: normalised execution time, dynamic energy and PCM lifetime \
         of the headline schemes over SPEC2006",
    );
    let mut harness = Harness::from_env();
    let mut dram_lines: Option<u64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--channels" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("fig9: --channels needs a positive integer");
                        std::process::exit(2);
                    });
                harness.memory = harness.memory.with_channels(n);
            }
            "--dram-lines" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("fig9: --dram-lines needs a positive integer");
                        std::process::exit(2);
                    });
                dram_lines = Some(n);
            }
            _ => {
                eprintln!(
                    "fig9: unknown argument {a:?} (supported: --channels N, --dram-lines N)"
                );
                std::process::exit(2);
            }
        }
    }
    let schemes = SchemeKind::headline();
    let workloads = Workload::spec2006();
    eprintln!(
        "running {} schemes x {} workloads at {} instr/core ({} channel(s)) …",
        schemes.len(),
        workloads.len(),
        harness.instructions_per_core,
        harness.memory.topology.channels
    );
    let tier = dram_lines.map(|lines| readduo_dram::DramConfig::new(harness.seed, lines));
    if let Some(dram) = tier {
        eprintln!(
            "  DRAM tier: {} lines, {}-way, threshold {}",
            dram.lines, dram.ways, dram.threshold
        );
    }
    let specs: Vec<DeviceSpec> = schemes
        .iter()
        .map(|&s| DeviceSpec {
            dram: tier,
            ..s.into()
        })
        .collect();
    let results = harness
        .run_matrix(&specs, &workloads)
        .expect("bare and tiered schemes always build");

    let [time, energy, lifetime] = &FIGURES;
    let mut fig9 = print_figure(time, &results);
    // The tail behind the means: per-cell read-latency p99 from the
    // engine's log2 histograms (values are bucket upper bounds, i.e. an
    // overestimate of the true percentile by at most 2×).
    let p99: Vec<Vec<String>> = workloads
        .iter()
        .map(|w| {
            let p99_of = |s: SchemeKind| {
                result_for(&results, w.name, s)
                    .unwrap_or_else(|| panic!("missing {s} run for {}", w.name))
                    .report
                    .read_latency
                    .p99_ns()
                    .to_string()
            };
            std::iter::once(w.name.to_string())
                .chain(schemes.iter().map(|&s| p99_of(s)))
                .collect()
        })
        .collect();
    println!("\nRead-latency p99 per cell (ns, log2-bucket upper bounds)\n");
    println!("{}", render_table(&fig9[0], &p99));
    // Figure 9's CSV also carries one p99 column per scheme (blank on the
    // geomean row — percentiles do not average).
    fig9[0].extend(schemes.iter().map(|s| format!("p99_ns({})", s.label())));
    for (row, tail) in fig9[1..].iter_mut().zip(&p99) {
        assert_eq!(
            row[0], tail[0],
            "the figure's rows follow the workload order"
        );
        row.extend_from_slice(&tail[1..]);
    }
    fig9.last_mut()
        .expect("the geomean row")
        .extend(schemes.iter().map(|_| String::new()));
    write_csv(time.csv, &fig9);
    for fig in [energy, lifetime] {
        write_csv(fig.csv, &print_figure(fig, &results));
    }
    finish_telemetry();
}

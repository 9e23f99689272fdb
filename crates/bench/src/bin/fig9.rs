//! Figure 9 — normalised execution time of the six headline schemes over
//! the 14 SPEC2006 workloads, plus the read-latency p99 tail per cell.
//!
//! `--channels N` re-stripes the paper machine over `N` memory channels:
//! with `N > 1` each run shards per channel onto the worker pool, and the
//! table/CSV reflect the merged reports.
//!
//! `--dram-lines N` puts the hybrid DRAM–PCM migration tier (capacity
//! `N` lines, [`DramConfig::new`](readduo_dram::DramConfig::new)'s default
//! organisation) in front of every scheme and runs the same matrix through
//! it. Without it the tier does not exist and the output is bit-for-bit
//! the plain figure.

use readduo_bench::{
    finish_telemetry, handle_help, normalized, render_table, result_for, write_csv, Harness,
};
use readduo_core::{DeviceSpec, SchemeKind};
use readduo_trace::Workload;

fn main() {
    handle_help(
        "fig9",
        "Figure 9: normalised execution time of the headline schemes over SPEC2006",
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
    let rows = normalized(&results, SchemeKind::Ideal, |r| r.exec_ns as f64);

    let mut header: Vec<String> = vec!["workload".into()];
    header.extend(schemes.iter().map(|s| s.label()));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(w, cols)| {
            let mut row = vec![w.clone()];
            row.extend(cols.iter().map(|(_, v)| format!("{v:.3}")));
            row
        })
        .collect();

    println!("Figure 9: normalised execution time (Ideal = 1.0)\n");
    println!("{}", render_table(&header, &table));
    let (_, geo) = rows.last().unwrap();
    for (s, v) in geo {
        println!("  {s:<12} geomean overhead over Ideal: {:+.1}%", (v - 1.0) * 100.0);
    }
    println!(
        "\npaper reference: Scrubbing +21%, M-metric +25%, Hybrid +5.8%, \
         LWT-4 +2.9%, Select-4:2 +3.4%"
    );

    // The tail behind the means: per-cell read-latency p99 from the
    // engine's log2 histograms (values are bucket upper bounds, i.e. an
    // overestimate of the true percentile by at most 2×).
    let p99_of = |w: &str, s: SchemeKind| -> u64 {
        result_for(&results, w, s)
            .unwrap_or_else(|| panic!("missing {s} run for {w}"))
            .report
            .read_latency
            .p99_ns()
    };
    let p99_table: Vec<Vec<String>> = workloads
        .iter()
        .map(|w| {
            let mut row = vec![w.name.to_string()];
            row.extend(schemes.iter().map(|&s| p99_of(w.name, s).to_string()));
            row
        })
        .collect();
    println!("\nRead-latency p99 per cell (ns, log2-bucket upper bounds)\n");
    println!("{}", render_table(&header, &p99_table));

    // CSV: the normalised table plus one p99 column per scheme (blank on
    // the geomean row — percentiles do not average).
    let mut csv_header = header.clone();
    csv_header.extend(schemes.iter().map(|s| format!("p99_ns({})", s.label())));
    let mut csv = vec![csv_header];
    for (w, cols) in &rows {
        let mut row = vec![w.clone()];
        row.extend(cols.iter().map(|(_, v)| format!("{v:.3}")));
        if w == "geomean" {
            row.extend(schemes.iter().map(|_| String::new()));
        } else {
            row.extend(schemes.iter().map(|&s| p99_of(w, s).to_string()));
        }
        csv.push(row);
    }
    write_csv("fig9", &csv);
    finish_telemetry();
}

//! Figures 3 and 9–15 — every simulated figure of the paper's evaluation,
//! read off one (scheme × workload) matrix over the 14 SPEC2006 workloads.
//!
//! Each entry of [`FIGURES`] names its own schemes. One
//! [`Harness::run_matrix`] runs the union of those lists (12 distinct
//! schemes, each workload's trace generated once), and every figure reads
//! its own schemes off that matrix, in its own order:
//!
//! * Figure 3: execution time and density of the prior schemes;
//! * Figures 9, 10 and 15: execution time, dynamic energy and PCM lifetime
//!   of the six headline schemes, plus the read-latency p99 tail per cell
//!   of Figure 9;
//! * Figure 11: cells per line and EDAP against TLC;
//! * Figures 12, 13 and 14: LWT's sub-interval count k, Select's window s,
//!   and LWT-4 with and without R-M-read conversion.
//!
//! `--channels N` re-stripes the paper machine over `N` memory channels:
//! with `N > 1` each run shards per channel, running its channels one
//! after another inside its workload's pool task, and the tables/CSVs
//! reflect the merged reports.
//!
//! `--dram-lines N` puts the hybrid DRAM–PCM migration tier (capacity
//! `N` lines, [`DramConfig::new`](readduo_dram::DramConfig::new)'s default
//! organisation) in front of every scheme and runs the same matrix through
//! it. Without it the tier does not exist and the output is bit-for-bit
//! the plain figures.

use readduo_bench::{
    edap_inputs, finish_telemetry, normalized, pool_from_env, ratio_table, render_table,
    result_for, start_binary, write_csv, Harness, RunResult,
};
use readduo_core::DeviceSpec;
use readduo_core::SchemeKind::{
    self, Hybrid, Ideal, Lwt, LwtNoConversion, MMetric, Scrubbing, Select, Tlc,
};
use readduo_math::geometric_mean;
use readduo_memsim::SimReport;
use readduo_trace::Workload;

/// [`normalized`] rows: per workload, then `"geomean"`, each scheme's
/// value.
type Rows = [(String, Vec<(SchemeKind, f64)>)];

/// How a figure reads its schemes' runs.
enum View {
    /// Per workload and as a geomean, `metric` relative to Ideal, each
    /// ratio shown as `shown(ratio)`, with `notes` under the table; `tail`
    /// adds the read-latency p99 per cell to the text and the CSV.
    Ratio {
        metric: fn(&SimReport) -> f64,
        shown: fn(f64) -> f64,
        notes: Notes,
        tail: bool,
    },
    /// Per scheme, geomean execution time and storage density, both
    /// relative to Ideal.
    TradeOff,
    /// Per scheme, cells per line and the geomean EDAP products, all
    /// relative to TLC.
    Edap,
}

/// What a ratio figure prints under its table, to read its shown values
/// against the paper.
enum Notes {
    /// Each scheme's geomean as a change against Ideal, labelled `what`.
    VsIdeal(&'static str),
    /// Per `(what, row, of, over)`: on row `row` (a workload or
    /// `"geomean"`), how much larger `of`'s value is than `over`'s.
    Gains(&'static [(&'static str, &'static str, SchemeKind, SchemeKind)]),
}

/// One figure read off the matrix.
struct Figure {
    csv: &'static str,
    title: &'static str,
    /// The figure's columns (a ratio view) or rows, in its own order.
    schemes: &'static [SchemeKind],
    view: View,
    paper: &'static str,
}

/// The six headline schemes of Figures 9, 10 and 15
/// ([`SchemeKind::headline`]).
const HEADLINE: &[SchemeKind] = &[Ideal, Scrubbing, MMetric, Hybrid, LWT4, SELECT2];
const LWT4: SchemeKind = Lwt { k: 4 };
const NOCONV4: SchemeKind = LwtNoConversion { k: 4 };
const SELECT1: SchemeKind = Select { k: 4, s: 1 };
const SELECT2: SchemeKind = Select { k: 4, s: 2 };

const FIGURES: [Figure; 8] = [
    Figure {
        csv: "fig3",
        title: "Figure 3: the state-of-the-art trade-off (geomean over 14 workloads)",
        schemes: &[Ideal, Scrubbing, MMetric, Tlc],
        view: View::TradeOff,
        paper: "Scrubbing and M-metric give up performance, TLC gives up density; \
                ReadDuo (Figures 9 and 11) gives up neither",
    },
    Figure {
        csv: "fig9",
        title: "Figure 9: normalised execution time (Ideal = 1.0)",
        schemes: HEADLINE,
        view: View::Ratio {
            metric: |r| r.exec_ns as f64,
            shown: |v| v,
            notes: Notes::VsIdeal("geomean overhead over Ideal"),
            tail: true,
        },
        paper: "Scrubbing +21%, M-metric +25%, Hybrid +5.8%, LWT-4 +2.9%, Select-4:2 +3.4%",
    },
    Figure {
        csv: "fig10",
        title: "Figure 10: normalised dynamic energy (Ideal = 1.0)",
        schemes: HEADLINE,
        view: View::Ratio {
            metric: SimReport::energy_total_pj,
            shown: |v| v,
            notes: Notes::VsIdeal("geomean energy vs Ideal"),
            tail: false,
        },
        paper: "Scrubbing +17%, M-metric +5%, Hybrid +8.7%, LWT-4 +1.3%, \
                Select-4:2 -22.2% (0.778x)",
    },
    Figure {
        csv: "fig11",
        title: "Figure 11: EDAP comparison (TLC = 1.0; lower is better)",
        schemes: &[Tlc, Scrubbing, LWT4, SELECT2],
        view: View::Edap,
        paper: "LWT-4 and Select-4:2 improve Product-D by 7.5% and 37% over TLC, \
                and Product-S by 11% and 23%",
    },
    Figure {
        csv: "fig12",
        title: "Figure 12: impact of sub-interval number k on execution time",
        schemes: &[Ideal, Lwt { k: 2 }, LWT4, Lwt { k: 8 }],
        view: View::Ratio {
            metric: |r| r.exec_ns as f64,
            shown: |v| v,
            notes: Notes::Gains(&[("k=2 → k=4 improvement", "geomean", Lwt { k: 2 }, LWT4)]),
            tail: false,
        },
        paper: "k=2 → k=4 improves 0.7% overall, 2.3% for mcf; \
                flag storage k=2: 3 bits, k=4: 6 bits, k=8: 11 bits per line",
    },
    Figure {
        csv: "fig13",
        title: "Figure 13: impact of Select rewrite window s on dynamic energy",
        schemes: &[Ideal, SELECT1, SELECT2, Select { k: 4, s: 4 }],
        view: View::Ratio {
            metric: SimReport::energy_total_pj,
            shown: |v| v,
            notes: Notes::Gains(&[("s=1 → s=2 energy saving", "geomean", SELECT1, SELECT2)]),
            tail: false,
        },
        paper: "s=1 → s=2 saves 1.2% energy",
    },
    Figure {
        csv: "fig14",
        title: "Figure 14: impact of R-M-read conversion on execution time",
        schemes: &[Ideal, NOCONV4, LWT4],
        view: View::Ratio {
            metric: |r| r.exec_ns as f64,
            shown: |v| v,
            notes: Notes::Gains(&[
                ("improvement from conversion", "sphinx3", NOCONV4, LWT4),
                ("improvement from conversion", "geomean", NOCONV4, LWT4),
            ]),
            tail: false,
        },
        paper: "conversion improves sphinx3 by 22%, overall by 2.9%",
    },
    // Lifetime ∝ 1 / cell-write volume.
    Figure {
        csv: "fig15",
        title: "Figure 15: relative PCM lifetime (Ideal = 1.0; higher is better)",
        schemes: HEADLINE,
        view: View::Ratio {
            metric: |r| r.cells_written_total().max(1) as f64,
            shown: |v| 1.0 / v,
            notes: Notes::VsIdeal("geomean lifetime vs Ideal"),
            tail: false,
        },
        paper: "Scrubbing -12.4%, M-metric ~0%, Hybrid -6%, LWT-4 -10%, Select-4:2 +42%",
    },
];

/// Every figure's schemes, each once, in order of first appearance.
fn union_of_schemes() -> Vec<SchemeKind> {
    let mut schemes = Vec::new();
    for &s in FIGURES.iter().flat_map(|fig| fig.schemes) {
        if !schemes.contains(&s) {
            schemes.push(s);
        }
    }
    schemes
}

impl Notes {
    /// The lines under a ratio table of `rows`.
    fn text(&self, rows: &Rows) -> String {
        let at = |row: &str, s: SchemeKind| {
            let (_, cols) = rows
                .iter()
                .find(|(w, _)| w == row)
                .expect("the figure's row");
            cols.iter().find(|&&(k, _)| k == s).expect("its scheme").1
        };
        match *self {
            Notes::VsIdeal(what) => {
                let (_, geo) = rows.last().expect("normalized ends with the geomean row");
                geo.iter()
                    .map(|(s, v)| format!("  {s:<12} {what}: {:+.1}%\n", (v - 1.0) * 100.0))
                    .collect()
            }
            Notes::Gains(gains) => gains
                .iter()
                .map(|&(what, row, of, over)| {
                    let gain = (at(row, of) / at(row, over) - 1.0) * 100.0;
                    format!("{what} ({row}): {gain:.1}%\n")
                })
                .collect(),
        }
    }
}

/// A per-scheme table: the CSV `header`, then one row per scheme, its
/// values to three decimals.
fn per_scheme(header: &str, rows: Vec<(SchemeKind, Vec<f64>)>) -> Vec<Vec<String>> {
    let body = rows.into_iter().map(|(s, values)| {
        let values = values.iter().map(|v| format!("{v:.3}"));
        std::iter::once(s.label()).chain(values).collect()
    });
    std::iter::once(header.split(',').map(String::from).collect())
        .chain(body)
        .collect()
}

/// What `fig` shows of `results`, the matrix over `workloads`: its table
/// (header first), which is also its CSV, and the text it prints.
fn read(fig: &Figure, results: &[RunResult], workloads: &[Workload]) -> (Vec<Vec<String>>, String) {
    let run = |w: &str, s: SchemeKind| {
        result_for(results, w, s).unwrap_or_else(|| panic!("missing {s} run for {w}"))
    };
    let (mut table, notes) = match &fig.view {
        View::Ratio {
            metric,
            shown,
            notes,
            ..
        } => {
            let rows: Vec<_> = normalized(results, fig.schemes, Ideal, metric)
                .into_iter()
                .map(|(w, cols)| (w, cols.into_iter().map(|(s, v)| (s, shown(v))).collect()))
                .collect();
            (ratio_table(&rows), format!("\n{}", notes.text(&rows)))
        }
        View::TradeOff => {
            let rows = normalized(results, fig.schemes, Ideal, |r| r.exec_ns as f64);
            let (_, geo) = rows.last().expect("normalized ends with the geomean row");
            let ideal_cells = Ideal.storage().area_cells();
            let rows = geo
                .iter()
                .map(|&(s, exec)| (s, vec![exec, ideal_cells / s.storage().area_cells()]));
            let header = "scheme,normalized exec time,relative density (bits/area)";
            (per_scheme(header, rows.collect()), String::new())
        }
        View::Edap => {
            let tlc_cells = Tlc.storage().area_cells();
            let rows = fig.schemes.iter().map(|&s| {
                let (pd, ps): (Vec<f64>, Vec<f64>) = workloads
                    .iter()
                    .map(|w| {
                        let base = edap_inputs(run(w.name, Tlc));
                        let mine = edap_inputs(run(w.name, s));
                        (mine.product_d(&base), mine.product_s(&base))
                    })
                    .unzip();
                let geomean = |v: &[f64]| geometric_mean(v).expect("at least one workload");
                let cells = s.storage().area_cells() / tlc_cells;
                (s, vec![cells, geomean(&pd), geomean(&ps)])
            });
            let header = "scheme,cells/line (norm. to TLC),Product-D,Product-S";
            (per_scheme(header, rows.collect()), String::new())
        }
    };
    let shown = render_table(&table[0], &table[1..]);
    let mut text = format!("\n{}\n\n{shown}{notes}", fig.title);
    if let View::Ratio { tail: true, .. } = fig.view {
        // The tail behind the means: per-cell read-latency p99 from the
        // engine's log2 histograms (values are bucket upper bounds, i.e.
        // an overestimate of the true percentile by at most 2×).
        let p99: Vec<Vec<String>> = workloads
            .iter()
            .map(|w| {
                let p99 = |&s| run(w.name, s).report.read_latency.p99_ns().to_string();
                std::iter::once(w.name.to_string())
                    .chain(fig.schemes.iter().map(p99))
                    .collect()
            })
            .collect();
        text += "\nRead-latency p99 per cell (ns, log2-bucket upper bounds)\n\n";
        text += &render_table(&table[0], &p99);
        // The CSV also carries one p99 column per scheme (blank on the
        // geomean row — percentiles do not average).
        table[0].extend(fig.schemes.iter().map(|s| format!("p99_ns({s})")));
        let blank = vec![String::new(); fig.schemes.len() + 1];
        for (row, tail) in table[1..].iter_mut().zip(p99.iter().chain([&blank])) {
            row.extend_from_slice(&tail[1..]);
        }
    }
    text += &format!("\npaper reference: {}\n", fig.paper);
    (table, text)
}

fn main() {
    start_binary(
        "fig9",
        "Figures 3 and 9–15: execution time, dynamic energy, PCM lifetime, density, EDAP \
         and the k, s and conversion sensitivities over SPEC2006, read off one matrix",
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
                eprintln!("fig9: unknown argument {a:?} (supported: --channels N, --dram-lines N)");
                std::process::exit(2);
            }
        }
    }
    let schemes = union_of_schemes();
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
        .run_matrix(&pool_from_env(), &specs, &workloads)
        .expect("bare and tiered schemes always build");
    for fig in &FIGURES {
        let (table, text) = read(fig, &results, &workloads);
        print!("{text}");
        write_csv(fig.csv, &table);
    }
    finish_telemetry();
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_memsim::MemoryConfig;
    use readduo_pool::Pool;

    /// Every figure reads the same table and text off the union matrix as
    /// off a matrix of its own schemes alone, with its columns (or rows)
    /// in its own order: no view picks up another figure's schemes or the
    /// matrix's order.
    #[test]
    fn each_figure_reads_only_its_own_schemes_in_its_own_order() {
        assert_eq!(HEADLINE, SchemeKind::headline());
        let harness = Harness {
            instructions_per_core: 20_000,
            cores: 2,
            seed: 7,
            memory: MemoryConfig::small_test(),
        };
        // Figure 14 reads sphinx3's row by name.
        let workloads = [
            Workload::toy(),
            Workload::by_name("sphinx3").expect("sphinx3"),
        ];
        let pool = Pool::new(2);
        let union = harness
            .run_matrix(&pool, &union_of_schemes(), &workloads)
            .unwrap();
        assert_eq!(union_of_schemes().len(), 12);
        for fig in &FIGURES {
            let alone = harness.run_matrix(&pool, fig.schemes, &workloads).unwrap();
            let (table, text) = read(fig, &union, &workloads);
            assert_eq!(
                (table.clone(), text),
                read(fig, &alone, &workloads),
                "{}",
                fig.csv
            );
            let labels: Vec<String> = fig.schemes.iter().map(|s| s.label()).collect();
            let order: Vec<String> = match fig.view {
                View::Ratio { .. } => table[0][1..=labels.len()].to_vec(),
                View::TradeOff | View::Edap => table[1..].iter().map(|r| r[0].clone()).collect(),
            };
            assert_eq!(order, labels, "{}", fig.csv);
        }
    }
}

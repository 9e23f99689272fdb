//! Golden tests: re-run the Table III and Figure 3 computations in-process
//! and diff them against the checked-in reference outputs under `results/`,
//! with numeric tolerance rather than string equality.
//!
//! Table III is fully analytic, so every cell must match the golden file to
//! formatting precision. Figure 3 mixes a deterministic density column
//! (tight tolerance) with simulated execution-time ratios; those are
//! compared loosely because the reference was produced at full volume
//! (1M instr/core) while the test runs a reduced volume, and the RNG
//! streams differ from the run that produced the file.

use readduo::core::SchemeKind;
use readduo::memsim::MemoryConfig;
use readduo::pcm::MetricConfig;
use readduo::reliability::{target, CellErrorModel, LerAnalysis};
use readduo::trace::Workload;
use readduo_bench::{fmt_prob, normalized, Harness};

/// Parses one table cell: `too small` → `None`, otherwise the number.
fn parse_cell(cell: &str) -> Option<f64> {
    if cell == "too_small" {
        None
    } else {
        Some(cell.parse().unwrap_or_else(|_| panic!("bad cell {cell:?}")))
    }
}

/// Extracts the numeric rows of a golden table file: lines whose tokens
/// (after gluing `too small` into one token) all parse as cells and whose
/// first token is numeric. Compile noise and prose are skipped.
fn numeric_rows(text: &str, columns: usize) -> Vec<Vec<Option<f64>>> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let glued = line.replace("too small", "too_small");
        let toks: Vec<&str> = glued.split_whitespace().collect();
        if toks.len() != columns {
            continue;
        }
        if toks[0].parse::<f64>().is_err() {
            continue;
        }
        rows.push(toks.into_iter().map(parse_cell).collect());
    }
    rows
}

fn read_golden(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_close(got: f64, want: f64, rel_tol: f64, what: &str) {
    let scale = want.abs().max(1e-300);
    assert!(
        ((got - want) / scale).abs() <= rel_tol,
        "{what}: got {got:e}, golden {want:e} (rel tol {rel_tol})"
    );
}

/// Table III: every LER cell and the DRAM target column must reproduce the
/// golden file. The reference values were printed with `fmt_prob`
/// (3 significant digits), so we format the fresh values the same way and
/// compare the parsed numbers at ~formatting precision.
#[test]
fn table3_matches_golden() {
    let golden = numeric_rows(&read_golden("table3.txt"), 10);
    assert_eq!(golden.len(), 10, "expected 10 scrub-interval rows");

    let analysis = LerAnalysis::new(CellErrorModel::new(MetricConfig::r_metric()));
    let es: Vec<u64> = vec![0, 1, 7, 8, 9, 16, 17, 18];

    for row in &golden {
        let s = row[0].expect("S column is numeric");
        let fresh = analysis.table_row(s, &es);
        for (e_idx, (&e, p)) in es.iter().zip(&fresh).enumerate() {
            let want = row[1 + e_idx];
            // Reduce the fresh value through the same formatter the golden
            // file was printed with, so "too small" lines up exactly.
            let got = match fmt_prob(*p).as_str() {
                "too small" => None,
                text => Some(text.parse::<f64>().unwrap()),
            };
            match (got, want) {
                (None, None) => {}
                (Some(g), Some(w)) => {
                    assert_close(g, w, 1e-2, &format!("table3 S={s} E={e}"))
                }
                _ => panic!("table3 S={s} E={e}: got {got:?}, golden {want:?}"),
            }
        }
        let want_target = row[9].expect("LER_DRAM column is numeric");
        assert_close(
            target::ler_target(s),
            want_target,
            1e-2,
            &format!("table3 S={s} DRAM target"),
        );
    }

    // The headline conclusion of the table: BCH-8 holds the DRAM target up
    // to S = 8 s and no further.
    assert!(analysis.ler_exceeding(8, 8.0).to_prob() < target::ler_target(8.0));
    assert!(analysis.ler_exceeding(8, 16.0).to_prob() >= target::ler_target(16.0));
}

/// Figure 3: the density column is closed-form (cell-count ratios) and must
/// match tightly; the simulated execution-time geomeans must land near the
/// golden values and preserve the motivation-triangle ordering.
#[test]
fn fig3_matches_golden() {
    let schemes = [
        SchemeKind::Ideal,
        SchemeKind::Scrubbing,
        SchemeKind::MMetric,
        SchemeKind::Tlc,
    ];

    // Rows look like `Scrubbing  1.199  0.974`: a scheme label followed by
    // the exec-time and density columns.
    let text = read_golden("fig3.txt");
    let want: Vec<(f64, f64)> = schemes
        .iter()
        .map(|s| {
            let label = s.label();
            text.lines()
                .filter_map(|line| {
                    let toks: Vec<&str> = line.split_whitespace().collect();
                    match toks.as_slice() {
                        [l, exec, density] if *l == label => {
                            Some((exec.parse().ok()?, density.parse().ok()?))
                        }
                        _ => None,
                    }
                })
                .next()
                .unwrap_or_else(|| panic!("no golden row for scheme {label}"))
        })
        .collect();

    // Density: deterministic, tight.
    for (&s, &(_, want_density)) in schemes.iter().zip(&want) {
        let density = SchemeKind::Ideal.storage().area_cells() / s.storage().area_cells();
        assert_close(density, want_density, 2e-3, &format!("fig3 density {s}"));
    }

    // Execution time: simulated at reduced volume, compared loosely.
    let harness = Harness {
        instructions_per_core: 150_000,
        cores: 4,
        seed: 0x00D5_EAD0_2016,
        memory: MemoryConfig::paper(),
    };
    let results = harness
        .run_matrix(&schemes, &Workload::spec2006())
        .expect("bare schemes always build");
    let rows = normalized(&results, &schemes, SchemeKind::Ideal, |r| r.exec_ns as f64);
    let (label, geo) = rows.last().unwrap();
    assert_eq!(label, "geomean");

    let exec_of = |k: SchemeKind| geo.iter().find(|(s, _)| *s == k).unwrap().1;
    for (&s, &(want_exec, _)) in schemes.iter().zip(&want) {
        assert_close(exec_of(s), want_exec, 0.25, &format!("fig3 exec {s}"));
    }
    // The ordering the figure exists to show: Scrubbing and M-metric pay in
    // performance (M-metric more), TLC does not.
    assert!((exec_of(SchemeKind::Ideal) - 1.0).abs() < 1e-12);
    assert!(exec_of(SchemeKind::Scrubbing) > 1.05);
    assert!(exec_of(SchemeKind::MMetric) > exec_of(SchemeKind::Scrubbing));
    assert!((exec_of(SchemeKind::Tlc) - 1.0).abs() < 0.05);
}

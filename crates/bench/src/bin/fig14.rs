//! Figure 14 — the R-M-read conversion ablation: LWT-4 with and without
//! converting untracked reads into redundant writes.

use readduo_bench::{normalized, ratio_table, render_table, write_csv, Harness};
use readduo_core::SchemeKind;
use readduo_trace::Workload;

fn main() {
    let harness = Harness::from_env();
    let schemes = [
        SchemeKind::Ideal,
        SchemeKind::LwtNoConversion { k: 4 },
        SchemeKind::Lwt { k: 4 },
    ];
    let workloads = Workload::spec2006();
    eprintln!(
        "running {} schemes x {} workloads at {} instr/core …",
        schemes.len(),
        workloads.len(),
        harness.instructions_per_core
    );
    let results = harness
        .run_matrix(&schemes, &workloads)
        .expect("bare schemes always build");
    let rows = normalized(&results, SchemeKind::Ideal, |r| r.exec_ns as f64);

    let table = ratio_table(&rows, |v| v);

    println!("Figure 14: impact of R-M-read conversion on execution time\n");
    println!("{}", render_table(&table[0], &table[1..]));
    let sphinx = rows.iter().find(|(w, _)| w == "sphinx3").expect("sphinx3 row");
    let no = sphinx.1.iter().find(|(s, _)| *s == SchemeKind::LwtNoConversion { k: 4 }).unwrap().1;
    let yes = sphinx.1.iter().find(|(s, _)| *s == SchemeKind::Lwt { k: 4 }).unwrap().1;
    println!(
        "\nsphinx3 improvement from conversion: {:.1}% (paper: 22%)",
        (no / yes - 1.0) * 100.0
    );
    let (_, geo) = rows.last().unwrap();
    let no_g = geo.iter().find(|(s, _)| *s == SchemeKind::LwtNoConversion { k: 4 }).unwrap().1;
    let yes_g = geo.iter().find(|(s, _)| *s == SchemeKind::Lwt { k: 4 }).unwrap().1;
    println!(
        "overall improvement (geomean): {:.1}% (paper: 2.9%)",
        (no_g / yes_g - 1.0) * 100.0
    );

    write_csv("fig14", &table);
}

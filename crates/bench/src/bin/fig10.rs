//! Figure 10 — normalised dynamic energy of the six headline schemes.

use readduo_bench::{normalized, render_table, write_csv, Harness};
use readduo_core::SchemeKind;
use readduo_trace::Workload;

fn main() {
    let harness = Harness::from_env();
    let schemes = SchemeKind::headline();
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
    let rows = normalized(&results, SchemeKind::Ideal, |r| r.energy_total_pj());

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

    println!("Figure 10: normalised dynamic energy (Ideal = 1.0)\n");
    println!("{}", render_table(&header, &table));
    let (_, geo) = rows.last().unwrap();
    for (s, v) in geo {
        println!("  {s:<12} geomean energy vs Ideal: {:+.1}%", (v - 1.0) * 100.0);
    }
    println!(
        "\npaper reference: Scrubbing +17%, M-metric +5%, Hybrid +8.7%, \
         LWT-4 +1.3%, Select-4:2 -22.2% (0.778x)"
    );

    let mut csv = vec![header];
    csv.extend(table);
    write_csv("fig10", &csv);
}

//! Figure 11 — cells per line (normalised to TLC) and the EDAP
//! (Energy-Delay-Area-Product) comparison.

use readduo_bench::{edap_inputs, render_table, result_for, write_csv, Harness};
use readduo_core::{EdapInputs, SchemeKind};
use readduo_math::geometric_mean;
use readduo_trace::Workload;

fn main() {
    let harness = Harness::from_env();
    let schemes = [
        SchemeKind::Tlc,
        SchemeKind::Scrubbing,
        SchemeKind::Lwt { k: 4 },
        SchemeKind::Select { k: 4, s: 2 },
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

    // Per-scheme geomean EDAP across workloads, normalised to TLC.
    let header: Vec<String> = vec![
        "scheme".into(),
        "cells/line (norm. to TLC)".into(),
        "Product-D".into(),
        "Product-S".into(),
    ];
    let tlc_cells = SchemeKind::Tlc.storage().area_cells();
    let mut table = Vec::new();
    for &s in &schemes {
        let mut pd = Vec::new();
        let mut ps = Vec::new();
        for w in &workloads {
            let base: EdapInputs =
                edap_inputs(result_for(&results, w.name, SchemeKind::Tlc).unwrap());
            let mine = edap_inputs(result_for(&results, w.name, s).unwrap());
            pd.push(mine.product_d(&base));
            ps.push(mine.product_s(&base));
        }
        table.push(vec![
            s.label(),
            format!("{:.3}", s.storage().area_cells() / tlc_cells),
            format!("{:.3}", geometric_mean(&pd).unwrap()),
            format!("{:.3}", geometric_mean(&ps).unwrap()),
        ]);
    }

    println!("Figure 11: EDAP comparison (TLC = 1.0; lower is better)\n");
    println!("{}", render_table(&header, &table));
    println!(
        "\npaper reference: LWT-4 and Select-4:2 improve Product-D by 7.5% and 37% \
         over TLC, and Product-S by 11% and 23%"
    );

    let mut csv = vec![header];
    csv.extend(table);
    write_csv("fig11", &csv);
}

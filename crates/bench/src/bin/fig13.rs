//! Figure 13 — sensitivity to the Select rewrite window s
//! (Select-4:1 vs Select-4:2).

use readduo_bench::{normalized, ratio_table, render_table, write_csv, Harness};
use readduo_core::SchemeKind;
use readduo_trace::Workload;

fn main() {
    let harness = Harness::from_env();
    let s_points: [u8; 3] = [1, 2, 4];
    let schemes: Vec<SchemeKind> = std::iter::once(SchemeKind::Ideal)
        .chain(s_points.iter().map(|&s| SchemeKind::Select { k: 4, s }))
        .collect();
    let workloads = Workload::spec2006();
    eprintln!(
        "sweeping Select window s over {:?} across {} workloads at {} instr/core …",
        s_points,
        workloads.len(),
        harness.instructions_per_core
    );
    let results = harness
        .run_matrix(&schemes, &workloads)
        .expect("bare schemes always build");
    let rows = normalized(&results, SchemeKind::Ideal, |r| r.energy_total_pj());

    let table = ratio_table(&rows, |v| v);

    println!("Figure 13: impact of Select rewrite window s on dynamic energy\n");
    println!("{}", render_table(&table[0], &table[1..]));
    let (_, geo) = rows.last().unwrap();
    let s1 = geo.iter().find(|(s, _)| *s == SchemeKind::Select { k: 4, s: 1 }).unwrap().1;
    let s2 = geo.iter().find(|(s, _)| *s == SchemeKind::Select { k: 4, s: 2 }).unwrap().1;
    println!(
        "\ns=1 → s=2 energy saving (geomean): {:.2}% (paper: 1.2%)",
        (s1 / s2 - 1.0) * 100.0
    );

    write_csv("fig13", &table);
}

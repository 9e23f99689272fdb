//! Table III — line error rate under different ECC strengths and scrub
//! intervals with **R-metric** sensing.

use readduo_bench::{fmt_prob, render_table, write_csv};
use readduo_pcm::MetricConfig;
use readduo_reliability::search::max_interval_for_code;
use readduo_reliability::{target, CellErrorModel, LerAnalysis};

fn main() {
    let model = CellErrorModel::new(MetricConfig::r_metric());
    let analysis = LerAnalysis::new(model.clone());
    let es: Vec<u64> = vec![0, 1, 7, 8, 9, 16, 17, 18];
    // The paper's S column: powers of two from 2² to 2¹⁰ plus 640.
    let intervals: Vec<f64> = vec![
        4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 640.0, 1024.0,
    ];

    let mut header: Vec<String> = vec!["S (s)".into()];
    header.extend(es.iter().map(|e| format!("E={e}")));
    header.push("LER_DRAM".into());

    let mut rows = Vec::new();
    for &s in &intervals {
        let mut row = vec![format!("{s}")];
        for p in analysis.table_row(s, &es) {
            row.push(fmt_prob(p));
        }
        row.push(format!("{:.2E}", target::ler_target(s)));
        rows.push(row);
    }

    println!("Table III: LER under different ECC code and scrub interval (R-metric sensing)\n");
    println!("{}", render_table(&header, &rows));
    println!(
        "Operating point: the strongest S at which BCH-8 meets the target is S = {} s",
        max_interval_for_code(&model, 8, 10).unwrap_or(0.0)
    );

    let mut csv = vec![header];
    csv.extend(rows);
    write_csv("table3", &csv);
}

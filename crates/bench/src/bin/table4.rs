//! Table IV — line error rate under different ECC strengths and scrub
//! intervals with **M-metric** sensing.

use readduo_bench::{fmt_prob, render_table, write_csv};
use readduo_pcm::MetricConfig;
use readduo_reliability::{find_min_code, target, CellErrorModel, LerAnalysis};

fn main() {
    let model = CellErrorModel::new(MetricConfig::m_metric());
    let analysis = LerAnalysis::new(model.clone());
    let es: Vec<u64> = vec![0, 1, 7, 8, 9, 16, 17, 18];
    // M-sensing stays clean for small S; the interesting region is large S
    // (the paper reports 2⁹..2¹⁴ plus the chosen 640).
    let intervals: Vec<f64> = vec![
        512.0, 640.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0,
    ];

    let mut header: Vec<String> = vec!["S (s)".into()];
    header.extend(es.iter().map(|e| format!("E={e}")));
    header.push("LER_DRAM".into());

    let mut rows = vec![{
        // The paper collapses 2²..2⁹ into a single "too small" row.
        let mut r = vec!["4..256".to_string()];
        r.extend(std::iter::repeat_n("too small".to_string(), es.len()));
        r.push(format!("{:.2E}", target::ler_target(256.0)));
        r
    }];
    for &s in &intervals {
        let mut row = vec![format!("{s}")];
        for p in analysis.table_row(s, &es) {
            row.push(fmt_prob(p));
        }
        row.push(format!("{:.2E}", target::ler_target(s)));
        rows.push(row);
    }

    println!("Table IV: LER under different ECC code and scrub interval (M-metric sensing)\n");
    println!("{}", render_table(&header, &rows));
    let ok640 = find_min_code(&model, 640.0, 8).is_some();
    println!("M(BCH=8, S=640) meets LER_DRAM: {ok640}");

    let mut csv = vec![header];
    csv.extend(rows);
    write_csv("table4", &csv);
}

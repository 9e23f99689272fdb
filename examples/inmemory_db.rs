//! The in-memory-database scenario from Section III-C: a database is bulk
//! loaded once, then serves read-intensive queries over data written long
//! ago. Plain last-write tracking degrades every query to a slow R-M-read;
//! ReadDuo-LWT's **R-M-read conversion** rewrites hot rows on first touch
//! and restores fast R-sensing.
//!
//! ```text
//! cargo run --release --example inmemory_db
//! ```

use readduo::core::SchemeKind;
use readduo::memsim::MemoryConfig;
use readduo::trace::{Locality, Workload};
use readduo_bench::Harness;
use readduo_pool::Pool;

fn main() {
    // Query phase over a mostly-static dataset: 95% of the footprint was
    // loaded before the window; most reads hit that static data with hot
    // rows (Zipf 1.05), and only sparse index updates write.
    let db = Workload {
        name: "inmemory-db",
        rpki: 2.0,
        wpki: 0.05,
        footprint_lines: 500_000,
        locality: Locality {
            zipf_s: 1.05,
            streaming_fraction: 0.05,
            written_fraction: 0.05,
            cold_read_fraction: 0.80,
        },
    };
    let harness = Harness {
        instructions_per_core: 1_000_000,
        cores: 4,
        seed: 99,
        memory: MemoryConfig::paper(),
    };
    let kinds = [
        SchemeKind::Ideal,
        SchemeKind::MMetric,
        SchemeKind::LwtNoConversion { k: 4 },
        SchemeKind::Lwt { k: 4 },
    ];
    // One workload is one pool task, so a one-worker pool loses nothing.
    let results = harness
        .run_matrix(&Pool::new(1), &kinds, &[db])
        .expect("bare schemes always build");

    println!("scheme          exec(ms)  R-read%  RM-read%  conversions  vs Ideal");
    let ideal_ns = results[0].report.exec_ns;
    for r in &results {
        let rep = &r.report;
        let reads = rep.reads.max(1) as f64;
        println!(
            "{:<15} {:>8.3} {:>7.1}% {:>8.1}% {:>12} {:>+8.1}%",
            r.scheme,
            rep.exec_seconds() * 1e3,
            100.0 * rep.reads_r as f64 / reads,
            100.0 * rep.reads_rm as f64 / reads,
            rep.conversions,
            (rep.exec_ns as f64 / ideal_ns as f64 - 1.0) * 100.0,
        );
    }
    println!(
        "\nWithout conversion, every query over the static dataset pays the \n\
         600 ns R-M-read; with conversion, hot rows are redundantly \n\
         rewritten once and all repeat queries run at R-read speed."
    );
}

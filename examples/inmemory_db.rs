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
use readduo::memsim::{MemoryConfig, Simulator};
use readduo::trace::{Locality, TraceGenerator, Workload};

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

    let trace = TraceGenerator::new(99).generate(&db, 1_000_000, 4);
    let sim = Simulator::new(MemoryConfig::paper());

    println!("scheme          exec(ms)  R-read%  RM-read%  conversions  vs Ideal");
    let mut ideal_ns = 0u64;
    for kind in [
        SchemeKind::Ideal,
        SchemeKind::MMetric,
        SchemeKind::LwtNoConversion { k: 4 },
        SchemeKind::Lwt { k: 4 },
    ] {
        let warm = (db.footprint_lines as f64 * db.locality.written_fraction) as u64;
        let mut dev = kind.build_for_channel(42, 0, warm, db.footprint_lines);
        let rep = sim.run(&trace, dev.as_mut());
        if kind == SchemeKind::Ideal {
            ideal_ns = rep.exec_ns;
        }
        let reads = rep.reads.max(1) as f64;
        println!(
            "{:<15} {:>8.3} {:>7.1}% {:>8.1}% {:>12} {:>+8.1}%",
            kind.label(),
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

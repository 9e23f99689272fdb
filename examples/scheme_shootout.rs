//! Scheme shootout on one workload: run every scheme configuration on the
//! benchmark named on the command line (default `mcf`) and print the full
//! metric panel — time, energy, lifetime, read-mode mix.
//!
//! ```text
//! cargo run --release --example scheme_shootout -- sphinx3
//! ```

use readduo::core::SchemeKind;
use readduo::trace::Workload;
use readduo_bench::{Harness, Source};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mcf".into());
    let workload = Workload::by_name(&name)
        .unwrap_or_else(|| panic!("unknown workload {name}; see Workload::spec2006()"));
    // READDUO_INSTR sets the volume; a malformed value is an error, not
    // a silent default.
    let harness = Harness::from_env();
    let trace = harness.trace_for(&workload);

    println!(
        "workload {name}: {} reads, {} writes over {} instr/core x {} cores\n",
        trace.total_reads(),
        trace.total_writes(),
        harness.instructions_per_core,
        harness.cores
    );
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>9}",
        "scheme", "exec(ms)", "energy(uJ)", "Mcells", "R%", "M%", "RM%", "scrubs"
    );
    let kinds = [
        SchemeKind::Ideal,
        SchemeKind::Scrubbing,
        SchemeKind::ScrubbingW0,
        SchemeKind::MMetric,
        SchemeKind::Hybrid,
        SchemeKind::Lwt { k: 2 },
        SchemeKind::Lwt { k: 4 },
        SchemeKind::Select { k: 4, s: 1 },
        SchemeKind::Select { k: 4, s: 2 },
        SchemeKind::Tlc,
    ];
    for kind in kinds {
        let rep = harness
            .run(&workload, kind, Source::Trace(&trace))
            .expect("a bare scheme always builds")
            .report;
        let reads = rep.reads.max(1) as f64;
        println!(
            "{:<16} {:>9.3} {:>9.1} {:>9.2} {:>6.1}% {:>6.1}% {:>6.1}% {:>9}",
            kind.label(),
            rep.exec_seconds() * 1e3,
            rep.energy_total_pj() / 1e6,
            rep.cells_written_total() as f64 / 1e6,
            100.0 * rep.reads_r as f64 / reads,
            100.0 * rep.reads_m as f64 / reads,
            100.0 * rep.reads_rm as f64 / reads,
            rep.scrubs,
        );
    }
    println!(
        "\nNote Scrubbing-W0: the only *provably* reliable R-sensing \
         configuration, and the paper's argument for why pure R-sensing \
         is untenable (2-3x slowdown)."
    );
}

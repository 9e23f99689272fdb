//! Diagnostic: read-mode and scrub breakdown per workload for one scheme.
//!
//! Usage: `modes [scheme] [workload]` where scheme is one of
//! `ideal|scrubbing|mmetric|hybrid|lwt|select` (default `lwt`) and
//! workload a SPEC2006 name (default: all).

use readduo_bench::{Harness, Source};
use readduo_core::SchemeKind;
use readduo_trace::Workload;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scheme = match args.get(1).map(String::as_str) {
        Some("ideal") => SchemeKind::Ideal,
        Some("scrubbing") => SchemeKind::Scrubbing,
        Some("mmetric") => SchemeKind::MMetric,
        Some("hybrid") => SchemeKind::Hybrid,
        Some("select") => SchemeKind::Select { k: 4, s: 2 },
        Some("lwt") | None => SchemeKind::Lwt { k: 4 },
        Some(other) => panic!("unknown scheme {other}"),
    };
    let harness = Harness::from_env();
    let workloads: Vec<Workload> = match args.get(2) {
        Some(name) => vec![Workload::by_name(name).expect("unknown workload")],
        None => Workload::spec2006(),
    };
    println!(
        "{:<12} {:>9} {:>7} {:>7} {:>7} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "workload", "reads", "R%", "M%", "RM%", "untrk%", "conv", "scrubs", "scrubRW", "cancels"
    );
    for w in &workloads {
        let r = harness
            .run(w, scheme, Source::Stream)
            .expect("a bare scheme always builds")
            .report;
        let reads = r.reads.max(1) as f64;
        println!(
            "{:<12} {:>9} {:>6.1}% {:>6.1}% {:>6.1}% {:>7.1}% {:>8} {:>9} {:>9} {:>9}",
            w.name,
            r.reads,
            100.0 * r.reads_r as f64 / reads,
            100.0 * r.reads_m as f64 / reads,
            100.0 * r.reads_rm as f64 / reads,
            100.0 * r.untracked_fraction(),
            r.conversions,
            r.scrubs,
            r.scrub_rewrites,
            r.write_cancellations,
        );
    }
}

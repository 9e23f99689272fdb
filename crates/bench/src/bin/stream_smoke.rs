//! Paper-scale streaming smoke: runs the largest-footprint workload (mcf)
//! through every headline scheme in streaming mode and asserts the process
//! peak RSS stays under a fixed ceiling — the bounded-memory claim of the
//! streaming replay path, checked rather than assumed.
//!
//! With `--matrix` it instead runs the **full** Figure-9 headline matrix
//! (every scheme × every SPEC2006 workload) through
//! [`Harness::run_matrix`] on the pool `READDUO_THREADS` asks for (ci.sh
//! pins it to one worker with `READDUO_THREADS=1`, the configuration the
//! repository benchmark times as `fig9_10m`), so ci.sh can put a
//! wall-clock budget on the acceptance leg without running the whole
//! benchmark.
//!
//! `READDUO_INSTR` sets the volume (ci.sh runs this at 10M instructions
//! per core); the ceiling is [`RSS_CEILING_MB`].

use readduo_bench::{
    finish_telemetry, peak_rss_bytes, pool_from_env, start_binary, Harness, Source,
};
use readduo_core::SchemeKind;
use readduo_trace::Workload;
use std::time::Instant;

/// Peak-RSS ceiling of a streamed run, MB.
const RSS_CEILING_MB: u64 = 512;

fn main() {
    start_binary(
        "stream_smoke",
        "Paper-scale streaming smoke: mcf through every headline scheme under an RSS ceiling (--matrix: full fig9 matrix)",
    );
    let h = Harness::from_env();
    let schemes = SchemeKind::headline();
    let matrix = std::env::args().any(|a| a == "--matrix");
    let (label, wall_ms) = if matrix {
        let workloads = Workload::spec2006();
        eprintln!(
            "fig9 matrix: {} schemes x {} workloads at {} instr/core (RSS ceiling {} MB) …",
            schemes.len(),
            workloads.len(),
            h.instructions_per_core,
            RSS_CEILING_MB
        );
        let t = Instant::now();
        let results = h
            .run_matrix(&pool_from_env(), &schemes, &workloads)
            .expect("bare schemes always build");
        assert_eq!(results.len(), schemes.len() * workloads.len());
        assert!(
            results.iter().all(|r| r.report.reads + r.report.writes > 0),
            "empty run in the matrix"
        );
        (
            format!("{} schemes x {} workloads", schemes.len(), workloads.len()),
            t.elapsed().as_secs_f64() * 1e3,
        )
    } else {
        let mcf = Workload::by_name("mcf").expect("mcf is in the SPEC2006 set");
        eprintln!(
            "streaming mcf x {} schemes at {} instr/core (RSS ceiling {} MB) …",
            schemes.len(),
            h.instructions_per_core,
            RSS_CEILING_MB
        );
        let t = Instant::now();
        for &scheme in &schemes {
            let t1 = Instant::now();
            let r = h
                .run(&mcf, scheme, Source::Stream)
                .expect("a bare scheme always builds");
            eprintln!(
                "  {:<12} {:>7.0} ms  exec {:>12} ns  {} reads / {} writes",
                scheme.label(),
                t1.elapsed().as_secs_f64() * 1e3,
                r.report.exec_ns,
                r.report.reads,
                r.report.writes
            );
            assert!(r.report.reads + r.report.writes > 0, "empty run for {scheme}");
        }
        (
            format!("{} schemes x mcf", schemes.len()),
            t.elapsed().as_secs_f64() * 1e3,
        )
    };
    let rss = peak_rss_bytes().expect("VmHWM readable on Linux CI");
    let rss_mb = rss / (1024 * 1024);
    println!(
        "stream_smoke: {label} @ {} instr/core in {wall_ms:.0} ms, peak RSS {rss_mb} MB (ceiling {RSS_CEILING_MB} MB)",
        h.instructions_per_core,
    );
    assert!(
        rss_mb < RSS_CEILING_MB,
        "peak RSS {rss_mb} MB breached the {RSS_CEILING_MB} MB ceiling — streaming is no longer bounded"
    );
    finish_telemetry();
}

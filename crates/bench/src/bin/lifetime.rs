//! Accelerated-wear lifetime sweep: the endurance subsystem end to end.
//!
//! Sweeps the accelerated-aging factor over the injectable schemes with
//! the full wear pipeline attached — lognormal per-cell endurance,
//! write-verify retry, stuck-at reads through the erasure-aware decoder,
//! and spare-line remapping — and reports the empirical wear traffic next
//! to the relative lifetime (inverse write volume against the same
//! scheme's real-time-wear run, the Figure-15 convention applied to
//! wear-induced traffic).
//!
//! At real-time wear (`accel = 1`) the 10⁷-cycle median endurance is
//! unreachable inside any simulated window: the row doubles as the
//! bit-identity reference — its wear columns must all be zero. The high
//! factors compress the device's whole life into the window: retries
//! appear first, then remaps, then (at the top factor with a small spare
//! pool) spare exhaustion and graceful degradation through erasure-hinted
//! decoding alone.
//!
//! The endurance model runs at its defaults (10⁷-cycle median, 3 verify
//! retries); `READDUO_SPARE_LINES` sizes the spare pool and
//! [`FAULT_SEED`] seeds the fault and endurance streams.

use readduo_bench::{
    finish_telemetry, render_table, start_binary, write_csv, Harness, Source, FAULT_SEED,
};
use readduo_core::{DeviceSpec, SchemeKind, WearConfig, VERIFY_RETRIES};
use readduo_trace::Workload;

/// Accelerated-aging factors swept: real time, onset of verify retries,
/// steady remapping, and deep degradation.
const ACCELS: [u64; 4] = [1, 100_000, 300_000, 1_000_000];

fn main() {
    start_binary(
        "lifetime",
        "Accelerated-wear sweep: write-verify retries, stuck-at reads, spare-line remapping and relative lifetime per scheme",
    );
    let harness = Harness::from_env();
    let mut base = WearConfig::new(FAULT_SEED);
    if let Some(spares) = readduo_env::u64_at_least("READDUO_SPARE_LINES", 0) {
        base.spare_lines = spares as u32;
    }
    let schemes = [
        SchemeKind::Scrubbing,
        SchemeKind::Hybrid,
        SchemeKind::Lwt { k: 4 },
        SchemeKind::Select { k: 4, s: 2 },
    ];
    let workload = Workload::by_name("mcf").expect("known workload");
    eprintln!(
        "lifetime sweep: {} schemes x {} accel factors on {} at {} instr/core \
         (median {} cycles, {} retries, {} spares) …",
        schemes.len(),
        ACCELS.len(),
        workload.name,
        harness.instructions_per_core,
        base.median_cycles,
        VERIFY_RETRIES,
        base.spare_lines,
    );

    let header: Vec<String> = [
        "scheme",
        "accel",
        "exec_ns",
        "cells_written",
        "verify_retries",
        "cells_failed",
        "lines_remapped",
        "spares_exhausted_writes",
        "stuck_bit_reads",
        "silent_corruptions",
        "rel_lifetime",
    ]
    .map(String::from)
    .to_vec();
    let mut rows: Vec<Vec<String>> = Vec::new();

    let trace = harness.trace_for(&workload);
    for scheme in schemes {
        let mut baseline_cells = 0u64;
        for accel in ACCELS {
            let spec = DeviceSpec::from(scheme)
                .with_fault(FAULT_SEED)
                .with_wear(base.with_accel(accel));
            let r = harness
                .run(&workload, spec, Source::Trace(&trace))
                .expect("injectable scheme");
            let rep = &r.report;
            let cells = rep.cells_written_total().max(1);
            if accel == 1 {
                baseline_cells = cells;
                assert_eq!(
                    rep.verify_retries + rep.wear_cells_failed + rep.lines_remapped,
                    0,
                    "{scheme}: real-time wear must not reach the 1e7-cycle median"
                );
            }
            rows.push(vec![
                scheme.label(),
                accel.to_string(),
                rep.exec_ns.to_string(),
                cells.to_string(),
                rep.verify_retries.to_string(),
                rep.wear_cells_failed.to_string(),
                rep.lines_remapped.to_string(),
                rep.spares_exhausted_writes.to_string(),
                rep.stuck_bit_reads.to_string(),
                rep.silent_corruptions.to_string(),
                format!("{:.3}", baseline_cells as f64 / cells as f64),
            ]);
        }
    }

    println!(
        "Lifetime under accelerated wear on {} (rel_lifetime = inverse write \
         volume vs the same scheme at accel 1)\n",
        workload.name
    );
    println!("{}", render_table(&header, &rows));

    let mut csv = vec![header];
    csv.extend(rows);
    write_csv("lifetime", &csv);
    finish_telemetry();
}

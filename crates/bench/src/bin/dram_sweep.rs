//! DRAM-capacity × migration-threshold sweep of the hybrid DRAM–PCM
//! tier over the fig9 workload matrix.
//!
//! Each workload runs the LWT-4 scheme bare (the base row every ratio is
//! against) and then tiered at every (capacity, threshold) grid point,
//! all in one matrix against the same trace. Three effects are reported
//! per point:
//!
//! * **hit rate** — DRAM-serviced fraction of demand accesses,
//! * **PCM write-traffic reduction** — total cells programmed vs the
//!   bare run (write hits are absorbed in DRAM; dirty demotions pay one
//!   full-line re-program each),
//! * **LWT escalation-rate shift** — the R-M-read fraction vs the bare
//!   run: demotion writebacks reset the victims' drift age (and DRAM
//!   hits never escalate at all), so the tier pulls the escalation rate
//!   down.
//!
//! Every point uses [`DramConfig::new`]'s default associativity.

use readduo_bench::{
    finish_telemetry, pool_from_env, render_table, start_binary, write_csv, Harness,
};
use readduo_core::{DeviceSpec, SchemeKind};
use readduo_dram::DramConfig;
use readduo_trace::Workload;

/// DRAM capacities swept (lines of 64 B; 1024 lines = 64 KB per channel
/// group before slicing).
const CAPACITIES: [u64; 3] = [1024, 4096, 16384];

/// Migration thresholds swept: migrate-on-first-miss vs a conservative
/// MigrantStore-style trigger.
const THRESHOLDS: [u32; 2] = [1, 4];

fn main() {
    start_binary(
        "dram_sweep",
        "Hybrid DRAM-PCM tier sweep: hit rate, PCM write-traffic reduction and LWT escalation-rate shift over capacity x migration threshold",
    );
    let harness = Harness::from_env();
    let scheme = SchemeKind::Lwt { k: 4 };
    let workloads = Workload::spec2006();
    eprintln!(
        "dram sweep: {} workloads x {} capacities x {} thresholds ({scheme}) \
         at {} instr/core ({} channel(s)) …",
        workloads.len(),
        CAPACITIES.len(),
        THRESHOLDS.len(),
        harness.instructions_per_core,
        harness.memory.topology.channels,
    );

    let header: Vec<String> = [
        "workload",
        "dram_lines",
        "threshold",
        "hit_rate",
        "promotions",
        "demotions",
        "writebacks",
        "cells_written",
        "cells_vs_base",
        "rm_rate",
        "rm_rate_base",
        "exec_ns",
    ]
    .map(String::from)
    .to_vec();
    let mut rows: Vec<Vec<String>> = Vec::new();
    // Per-grid-point aggregates over the workload matrix.
    let points: Vec<(u64, u32)> = CAPACITIES
        .iter()
        .flat_map(|&c| THRESHOLDS.iter().map(move |&t| (c, t)))
        .collect();
    let mut agg_hit = vec![0.0f64; points.len()];
    let mut agg_cells_ratio = vec![0.0f64; points.len()];
    let mut agg_rm_shift = vec![0.0f64; points.len()];

    // Per workload: the bare run every tiered row normalises against,
    // then one tiered run per grid point, all against the same trace.
    let specs: Vec<DeviceSpec> = std::iter::once(scheme.into())
        .chain(points.iter().map(|&(cap, thr)| {
            let dram = DramConfig::new(harness.seed, cap).with_threshold(thr);
            DeviceSpec::from(scheme).with_dram(dram)
        }))
        .collect();
    let results = harness
        .run_matrix(&pool_from_env(), &specs, &workloads)
        .expect("a tiered bare scheme always builds");
    for (w, runs) in workloads.iter().zip(results.chunks(specs.len())) {
        let base = &runs[0].report;
        let base_cells = base.cells_written_total().max(1);
        let base_rm = base.rm_read_rate();
        for (pi, (&(cap, thr), r)) in points.iter().zip(&runs[1..]).enumerate() {
            let rep = &r.report;
            let ratio = rep.cells_written_total() as f64 / base_cells as f64;
            agg_hit[pi] += rep.dram_hit_rate();
            agg_cells_ratio[pi] += ratio;
            agg_rm_shift[pi] += base_rm - rep.rm_read_rate();
            rows.push(vec![
                w.name.to_string(),
                cap.to_string(),
                thr.to_string(),
                format!("{:.4}", rep.dram_hit_rate()),
                rep.dram_promotions.to_string(),
                rep.dram_demotions.to_string(),
                rep.dram_writebacks.to_string(),
                rep.cells_written_total().to_string(),
                format!("{ratio:.4}"),
                format!("{:.6}", rep.rm_read_rate()),
                format!("{base_rm:.6}"),
                rep.exec_ns.to_string(),
            ]);
        }
    }

    println!(
        "DRAM tier sweep over the fig9 matrix ({scheme}; cells_vs_base < 1 \
         means PCM write traffic saved, rm_rate < rm_rate_base means fewer \
         escalated reads)\n"
    );
    println!("{}", render_table(&header, &rows));

    println!("\nPer grid point, averaged over {} workloads:", workloads.len());
    let n = workloads.len() as f64;
    for (pi, &(cap, thr)) in points.iter().enumerate() {
        println!(
            "  {cap:>6} lines, threshold {thr}: hit rate {:.3}, cells vs base {:.3}, \
             escalation-rate shift {:+.5}",
            agg_hit[pi] / n,
            agg_cells_ratio[pi] / n,
            -agg_rm_shift[pi] / n,
        );
    }

    let mut csv = vec![header];
    csv.extend(rows);
    write_csv("dram_sweep", &csv);
    finish_telemetry();
}

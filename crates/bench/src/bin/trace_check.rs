//! Offline validation of telemetry output, for CI and for humans.
//!
//! Parses a Chrome trace-event JSON file with the in-tree parser (the
//! workspace is offline — no `jq`, no JSON crate), checks the structural
//! schema [`readduo_telemetry::check`] defines, and optionally asserts
//! required content: specific event names in the trace, named tracks
//! (e.g. the per-channel `c0.bank 0` tracks a sharded run must emit), and
//! metrics-file histograms with a non-zero p99. Exits non-zero on any failure, so
//! `ci.sh` can gate on it directly.

use readduo_bench::start_binary;
use readduo_telemetry::check::{parse_json, validate_chrome_trace, Json};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: trace_check <trace.json> [--metrics <metrics.json>] \
         [--require <event-name>]... [--require-track <track-name>]... \
         [--require-hist <metric-name>]..."
    );
    exit(2);
}

fn main() {
    start_binary(
        "trace_check",
        "Validates a telemetry trace (and optionally a metrics snapshot) with the in-tree JSON checker",
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut required_events: Vec<String> = Vec::new();
    let mut required_tracks: Vec<String> = Vec::new();
    let mut required_hists: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--metrics" => metrics_path = Some(it.next().unwrap_or_else(|| usage())),
            "--require" => required_events.push(it.next().unwrap_or_else(|| usage())),
            "--require-track" => required_tracks.push(it.next().unwrap_or_else(|| usage())),
            "--require-hist" => required_hists.push(it.next().unwrap_or_else(|| usage())),
            _ if a.starts_with('-') => usage(),
            _ if trace_path.is_none() => trace_path = Some(a),
            _ => usage(),
        }
    }
    let trace_path = trace_path.unwrap_or_else(|| usage());

    let json = std::fs::read_to_string(&trace_path).unwrap_or_else(|e| {
        eprintln!("trace_check: cannot read {trace_path}: {e}");
        exit(1);
    });
    let stats = validate_chrome_trace(&json).unwrap_or_else(|e| {
        eprintln!("trace_check: {trace_path} is not a valid Chrome trace: {e}");
        exit(1);
    });
    println!(
        "{trace_path}: {} events ({} spans, {} instants, {} counters, {} metadata), \
         {} processes, {} named tracks, {} dropped",
        stats.events,
        stats.spans,
        stats.instants,
        stats.counters,
        stats.metas,
        stats.process_names.len(),
        stats.thread_names.len(),
        stats.dropped
    );
    let mut failed = false;
    for name in &required_events {
        if !stats.names.contains(name) {
            eprintln!("trace_check: required event {name:?} absent from the trace");
            failed = true;
        }
    }
    for name in &required_tracks {
        if !stats.thread_names.iter().any(|t| t == name) {
            eprintln!("trace_check: required track {name:?} absent from the trace");
            failed = true;
        }
    }

    if let Some(mpath) = &metrics_path {
        let mjson = std::fs::read_to_string(mpath).unwrap_or_else(|e| {
            eprintln!("trace_check: cannot read {mpath}: {e}");
            exit(1);
        });
        let doc = parse_json(&mjson).unwrap_or_else(|e| {
            eprintln!("trace_check: {mpath} is not valid JSON: {e}");
            exit(1);
        });
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != "readduo-metrics-v1" {
            eprintln!("trace_check: {mpath} has schema {schema:?}, want readduo-metrics-v1");
            failed = true;
        }
        let metrics = doc.get("metrics");
        let count = match metrics {
            Some(Json::Obj(fields)) => fields.len(),
            _ => {
                eprintln!("trace_check: {mpath} has no \"metrics\" object");
                failed = true;
                0
            }
        };
        println!("{mpath}: schema {schema}, {count} metrics");
        for name in &required_hists {
            let p99 = metrics
                .and_then(|m| m.get(name))
                .and_then(|h| h.get("p99"))
                .and_then(Json::as_num);
            match p99 {
                Some(v) if v > 0.0 => {}
                Some(v) => {
                    eprintln!("trace_check: metric {name:?} has p99 {v}, want > 0");
                    failed = true;
                }
                None => {
                    eprintln!("trace_check: required histogram metric {name:?} absent");
                    failed = true;
                }
            }
        }
    } else if !required_hists.is_empty() {
        eprintln!("trace_check: --require-hist needs --metrics");
        failed = true;
    }

    if failed {
        exit(1);
    }
    println!("trace_check: OK");
}

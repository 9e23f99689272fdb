//! Chrome trace-event JSON export.
//!
//! The trace ring renders as the Chrome/Catapult trace-event format
//! (the JSON flavour <https://ui.perfetto.dev> loads directly):
//!
//! * spans → `"ph": "X"` complete events with `ts`/`dur` in microseconds,
//! * instants → `"ph": "i"` with thread scope,
//! * counters → `"ph": "C"` with the value under `args`,
//! * process/track labels → `"ph": "M"` metadata events
//!   (`process_name` / `thread_name`).
//!
//! Each sim run is its own process (pid ≥ 1, its tracks are banks and
//! cores); wall-clock harness spans live under pid 0 with one track per
//! thread. The companion [`crate::check`] module parses this output back,
//! so CI validates traces without any external tooling.

use crate::trace::{self, Event, EventKind, HARNESS_PID};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Escapes `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nanoseconds → the trace format's microsecond field, with enough
/// fractional digits that sim-time events 1 ns apart stay distinct.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn push_event(out: &mut String, e: &Event) {
    let name = json_string(&e.name);
    match &e.kind {
        EventKind::Span { dur_ns } => {
            let _ = write!(
                out,
                "{{\"name\": {name}, \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \
                 \"ts\": {}, \"dur\": {}}}",
                e.pid,
                e.tid,
                us(e.ts_ns),
                us(*dur_ns)
            );
        }
        EventKind::Instant => {
            let _ = write!(
                out,
                "{{\"name\": {name}, \"ph\": \"i\", \"s\": \"t\", \"pid\": {}, \
                 \"tid\": {}, \"ts\": {}}}",
                e.pid,
                e.tid,
                us(e.ts_ns)
            );
        }
        EventKind::Counter { value } => {
            let _ = write!(
                out,
                "{{\"name\": {name}, \"ph\": \"C\", \"pid\": {}, \"tid\": {}, \
                 \"ts\": {}, \"args\": {{\"value\": {value}}}}}",
                e.pid,
                e.tid,
                us(e.ts_ns)
            );
        }
    }
}

fn push_meta(out: &mut String, which: &str, pid: u32, tid: u32, label: &str) {
    let _ = write!(
        out,
        "{{\"name\": \"{which}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
         \"args\": {{\"name\": {}}}}}",
        json_string(label)
    );
}

/// Drains the global trace collector and renders it as a Chrome
/// trace-event JSON document.
pub fn render_trace() -> String {
    let drained = trace::drain();
    let mut events = drained.events;
    // Perfetto tolerates unsorted input, but sorted output diffs cleanly
    // and keeps each track's spans in visual order.
    events.sort_by_key(|e| (e.pid, e.tid, e.ts_ns));

    let mut lines: Vec<String> = Vec::with_capacity(events.len() + 8);
    let mut line = String::new();
    push_meta(&mut line, "process_name", HARNESS_PID, 0, "harness (wall clock)");
    lines.push(std::mem::take(&mut line));
    for (pid, label) in &drained.process_names {
        push_meta(&mut line, "process_name", *pid, 0, label);
        lines.push(std::mem::take(&mut line));
    }
    for ((pid, tid), label) in &drained.track_names {
        push_meta(&mut line, "thread_name", *pid, *tid, label);
        lines.push(std::mem::take(&mut line));
    }
    for e in &events {
        push_event(&mut line, e);
        lines.push(std::mem::take(&mut line));
    }

    let mut body = String::from("{\n\"traceEvents\": [\n");
    body.push_str(&lines.join(",\n"));
    let _ = write!(
        body,
        "\n],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": {{\"schema\": \
         \"readduo-trace-v1\", \"dropped_events\": {}}}\n}}\n",
        drained.dropped
    );
    body
}

/// Renders the current metrics snapshot as JSON.
pub fn render_metrics() -> String {
    crate::metrics::to_json(&crate::metrics::snapshot())
}

/// Writes `contents` to `path`, creating parent directories.
fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, contents)
}

/// Drains the trace into `trace_out` and the metrics next to it, at
/// `trace_out` with `.metrics.json` appended, and returns the metrics
/// path. Returns `None` without touching the filesystem while telemetry
/// is disabled.
pub fn finish(trace_out: &str) -> io::Result<Option<String>> {
    if !crate::enabled() {
        return Ok(None);
    }
    let metrics_out = format!("{trace_out}.metrics.json");
    write_file(Path::new(trace_out), &render_trace())?;
    write_file(Path::new(&metrics_out), &render_metrics())?;
    Ok(Some(metrics_out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SimTrace;

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny\t\u{1}"), "\"x\\ny\\t\\u0001\"");
    }

    #[test]
    fn ns_to_us_keeps_fractions() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(158), "0.158");
        assert_eq!(us(4096), "4.096");
        assert_eq!(us(1_000_000), "1000.000");
    }

    #[test]
    fn rendered_trace_roundtrips_through_the_checker() {
        let _serial = crate::test_serial::guard();
        crate::set_enabled(true);
        let mut t = SimTrace::begin("roundtrip/run").expect("enabled");
        t.name_track(0, "bank 0".into());
        t.span(0, "M", 1000, 1608);
        t.instant(0, "escalation", 1608);
        t.counter(0, "queue.b0", 1700, 3);
        drop(t);
        let json = render_trace();
        crate::set_enabled(false);
        let stats = crate::check::validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.spans >= 1);
        assert!(stats.instants >= 1);
        assert!(stats.counters >= 1);
        assert!(stats.names.contains("escalation"));
        assert!(stats.thread_names.iter().any(|n| n == "bank 0"));
        assert!(json.contains("\"displayTimeUnit\": \"ns\""));
    }
}

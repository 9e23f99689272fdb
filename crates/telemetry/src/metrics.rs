//! A process-wide metrics registry: one map behind one mutex.
//!
//! Writers are per-run, not per-access: `SimReport::publish` adds a run's
//! counters and latency histograms once when the run ends, and the sweep
//! pool counts its tasks. So a lock per write costs nothing measurable,
//! and a snapshot sees every write that returned before it, from any
//! thread, with no flush.
//!
//! All entry points are no-ops while telemetry is disabled.

use crate::hist::Log2Histogram;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One metric value.
///
/// The histogram variant dominates the enum's size (its 65 buckets live
/// inline), but the registry holds tens of entries, not millions, so
/// boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A log2-bucketed distribution.
    Histogram(Log2Histogram),
}

/// Name → metric map; the snapshot type. Ordered so JSON output and test
/// assertions are stable.
pub type MetricsMap = BTreeMap<String, Metric>;

fn registry() -> MutexGuard<'static, MetricsMap> {
    static REGISTRY: OnceLock<Mutex<MetricsMap>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(MetricsMap::new()))
        .lock()
        .expect("metrics registry poisoned")
}

/// Adds `n` to the counter `name`. A zero adds nothing and creates no
/// entry.
pub fn counter_add(name: &str, n: u64) {
    if !crate::enabled() || n == 0 {
        return;
    }
    let mut map = registry();
    match map.get_mut(name) {
        Some(Metric::Counter(c)) => *c += n,
        _ => {
            map.insert(name.to_string(), Metric::Counter(n));
        }
    }
}

/// Merges an already-aggregated histogram into `name` — the way to
/// publish a whole `SimReport` latency distribution in one call instead
/// of re-recording every observation.
pub fn hist_merge(name: &str, h: &Log2Histogram) {
    if !crate::enabled() || h.count() == 0 {
        return;
    }
    let mut map = registry();
    match map.get_mut(name) {
        Some(Metric::Histogram(dst)) => dst.merge(h),
        _ => {
            map.insert(name.to_string(), Metric::Histogram(*h));
        }
    }
}

/// A copy of the registry.
pub fn snapshot() -> MetricsMap {
    registry().clone()
}

/// Clears the registry (tests).
pub fn reset() {
    registry().clear();
}

/// Serialises a snapshot as a JSON document (schema
/// `readduo-metrics-v1`). Histograms carry their count, p50/p95/p99/p999,
/// and the non-empty `[bucket_upper, count]` pairs.
pub fn to_json(map: &MetricsMap) -> String {
    let mut out = String::from("{\n  \"schema\": \"readduo-metrics-v1\",\n  \"metrics\": {\n");
    for (i, (name, m)) in map.iter().enumerate() {
        let comma = if i + 1 < map.len() { "," } else { "" };
        let body = match m {
            Metric::Counter(c) => format!("{{\"type\": \"counter\", \"value\": {c}}}"),
            Metric::Histogram(h) => {
                let buckets: Vec<String> = h
                    .bucket_counts()
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(b, &c)| format!("[{}, {}]", Log2Histogram::bucket_upper(b), c))
                    .collect();
                format!(
                    "{{\"type\": \"histogram\", \"count\": {}, \"p50\": {}, \"p95\": {}, \
                     \"p99\": {}, \"p999\": {}, \"buckets\": [{}]}}",
                    h.count(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.p999(),
                    buckets.join(", ")
                )
            }
        };
        out.push_str(&format!("    {}: {body}{comma}\n", crate::export::json_string(name)));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and the test harness is threaded, so
    // every test below uses its own metric names — and every test that
    // toggles the global enable flag holds `test_serial::guard`, since a
    // concurrent `set_enabled(false)` would silently drop another test's
    // updates.
    use crate::test_serial::guard as enable_guard;

    #[test]
    fn disabled_mode_is_a_no_op() {
        let _serial = enable_guard();
        crate::set_enabled(false);
        counter_add("t.disabled.counter", 5);
        let mut h = Log2Histogram::new();
        h.record(42);
        hist_merge("t.disabled.hist", &h);
        let snap = snapshot();
        assert!(!snap.contains_key("t.disabled.counter"));
        assert!(!snap.contains_key("t.disabled.hist"));
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let _serial = enable_guard();
        crate::set_enabled(true);
        counter_add("t.agg.reads", 2);
        counter_add("t.agg.reads", 3);
        counter_add("t.agg.zero", 0);
        let mut h = Log2Histogram::new();
        h.record(158);
        h.record(608);
        hist_merge("t.agg.lat", &h);
        h.record(158);
        hist_merge("t.agg.lat", &h);
        let snap = snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.get("t.agg.reads"), Some(&Metric::Counter(5)));
        assert!(!snap.contains_key("t.agg.zero"), "a zero creates no entry");
        match snap.get("t.agg.lat") {
            Some(Metric::Histogram(h)) => assert_eq!(h.count(), 5),
            other => panic!("wrong metric: {other:?}"),
        }
    }

    /// Counts from scoped worker threads are in the registry once the
    /// scope joins — no flush, no wait for thread-local destructors.
    #[test]
    fn scoped_worker_counts_reach_the_snapshot() {
        let _serial = enable_guard();
        crate::set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| counter_add("t.scoped.tasks", 1));
            }
        });
        let snap = snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.get("t.scoped.tasks"), Some(&Metric::Counter(4)));
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let mut map = MetricsMap::new();
        map.insert("a.count".into(), Metric::Counter(7));
        let mut h = Log2Histogram::new();
        h.record(600);
        map.insert("b.lat_ns".into(), Metric::Histogram(h));
        let j = to_json(&map);
        assert!(j.contains("\"readduo-metrics-v1\""));
        assert!(j.contains("\"a.count\": {\"type\": \"counter\", \"value\": 7}"));
        assert!(j.contains("\"p99\": 1023"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // The in-tree JSON parser must accept its own sibling's output.
        crate::check::parse_json(&j).expect("metrics JSON parses");
    }
}

//! Zero-dependency observability for the ReadDuo workspace.
//!
//! Every paper figure the repo reproduces is an end-of-run aggregate;
//! this crate makes the *dynamics* between run start and number out
//! visible, with three pieces:
//!
//! * **[`metrics`]** — a process-wide registry of counters and
//!   log2-bucketed histograms ([`Log2Histogram`], with p50/p95/p99/p999
//!   accessors) behind one mutex. Each simulation run publishes its whole
//!   report into it once (`SimReport::publish` in `readduo-memsim`), so
//!   no per-access code writes to it.
//! * **[`trace`]** — typed event tracing into a bounded ring buffer:
//!   sim-time events (per-bank busy spans, queue-depth counters, scrub
//!   visits, write cancellations, R→M escalations, corrective rewrites)
//!   emitted by the `memsim` engine through [`trace::SimTrace`], and
//!   wall-clock phase spans ([`trace::phase`]) from the bench harness and
//!   pool workers. Capacity is bounded by [`trace::DEFAULT_CAP`] events;
//!   overflow overwrites the oldest events and is counted, never grows.
//! * **[`export`]** — renders the ring as Chrome trace-event JSON (one
//!   track per bank/core/worker, loadable in
//!   [Perfetto](https://ui.perfetto.dev)) plus a metrics snapshot JSON,
//!   and **[`check`]** validates that JSON with an in-tree parser since
//!   the workspace is offline and dependency-free.
//!
//! The whole subsystem is gated by one switch, [`set_enabled`], which the
//! binary that owns the run sets (the bench binaries from
//! `READDUO_TELEMETRY`); the crate reads no environment. While disabled —
//! the default — every entry point collapses to a load-and-branch no-op,
//! so instrumented code paths stay bit-for-bit identical to
//! uninstrumented ones (pinned by the determinism, golden, and
//! stream-equivalence suites) and within noise of their wall-clock
//! baseline (measured by the repository benchmark's
//! `telemetry.overhead_frac` row and bounded by the ci.sh budget).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::Log2Histogram;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is on for this process: off until [`set_enabled`]
/// turns it on. A single relaxed atomic load.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry on or off for this process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
pub(crate) mod test_serial {
    use std::sync::{Mutex, MutexGuard};

    /// The enable flag and the trace/metrics registries are process-global
    /// while the test harness is threaded; any test that toggles the flag
    /// or drains global state holds this lock so a concurrent
    /// `set_enabled(false)` cannot silently drop another test's updates.
    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn guard() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_switches_the_flag() {
        let _serial = crate::test_serial::guard();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}

//! Typed event tracing into a bounded ring buffer.
//!
//! Two timelines share one collector:
//!
//! * **Sim-time** ([`SimTrace`]) — the `memsim` engine opens one
//!   `SimTrace` per run (one Perfetto *process*, pid ≥ 1, named after the
//!   workload/scheme via [`set_run_label`]) and emits events stamped in
//!   simulated nanoseconds on per-bank and per-core tracks.
//! * **Wall-clock** ([`phase`]) — the bench harness and pool workers wrap
//!   phases (trace generation, sweep legs, worker tasks) in spans stamped
//!   in nanoseconds since process start, collected under the reserved
//!   [`HARNESS_PID`] with one track per thread.
//!
//! Both buffers are rings bounded by [`DEFAULT_CAP`] events: overflow
//! overwrites the oldest event and increments a drop counter that the
//! exporter reports, so tracing a paper-scale run can lose history but
//! can never grow without bound.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity in events.
pub const DEFAULT_CAP: usize = 262_144;

/// The Perfetto process id reserved for wall-clock harness spans.
pub const HARNESS_PID: u32 = 0;

/// Event names are mostly `&'static str` literals from the engine; owned
/// strings appear only for per-bank counter tracks and run labels.
pub type Name = Cow<'static, str>;

/// What an [`Event`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span: busy interval, phase, worker task.
    Span {
        /// Duration in the track's time unit (ns).
        dur_ns: u64,
    },
    /// A point event: escalation, cancellation, scrub skip.
    Instant,
    /// A sampled counter value: queue depth.
    Counter {
        /// The counter's new value.
        value: i64,
    },
}

/// One trace event on one track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in nanoseconds (simulated or wall, per the pid's
    /// timeline).
    pub ts_ns: u64,
    /// Perfetto process: [`HARNESS_PID`] or a run id.
    pub pid: u32,
    /// Track within the process (bank, core, or thread ordinal).
    pub tid: u32,
    /// Event name.
    pub name: Name,
    /// Span / instant / counter.
    pub kind: EventKind,
}

/// A bounded ring of events: pushes past capacity overwrite the oldest.
#[derive(Debug, Default)]
struct Ring {
    buf: Vec<Event>,
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, cap: usize, e: Event) {
        if self.buf.len() < cap {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.buf.len();
            self.dropped += 1;
        }
    }

    /// Unrolls the ring into insertion order (oldest surviving first).
    fn into_ordered(mut self) -> (Vec<Event>, u64) {
        let mut out = self.buf.split_off(self.head);
        out.append(&mut self.buf);
        (out, self.dropped)
    }
}

/// The global collector: merged ring, pid allocator, and track names.
#[derive(Debug, Default)]
struct Collector {
    ring: Ring,
    next_pid: u32,
    /// pid → process (run) label.
    process_names: BTreeMap<u32, String>,
    /// (pid, tid) → track label.
    track_names: BTreeMap<(u32, u32), String>,
}

fn collector() -> &'static Mutex<Collector> {
    static C: OnceLock<Mutex<Collector>> = OnceLock::new();
    C.get_or_init(|| {
        Mutex::new(Collector {
            next_pid: HARNESS_PID + 1,
            ..Collector::default()
        })
    })
}

fn wall_origin() -> &'static Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds of wall clock since the first telemetry call.
pub fn wall_ns() -> u64 {
    wall_origin().elapsed().as_nanos() as u64
}

thread_local! {
    static RUN_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
    static THREAD_ORD: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Labels the *next* [`SimTrace::begin`] on this thread (the harness knows
/// the workload/scheme; the engine does not). No-op while disabled.
pub fn set_run_label(label: &str) {
    if !crate::enabled() {
        return;
    }
    RUN_LABEL.with(|l| *l.borrow_mut() = Some(label.to_string()));
}

/// This thread's stable track ordinal under [`HARNESS_PID`].
pub fn thread_ordinal() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    THREAD_ORD.with(|o| {
        if o.get() == u32::MAX {
            o.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        o.get()
    })
}

/// Names this thread's wall-clock track (e.g. `worker-3`). No-op while
/// disabled.
pub fn name_this_thread(label: &str) {
    if !crate::enabled() {
        return;
    }
    let tid = thread_ordinal();
    let mut c = collector().lock().expect("trace collector poisoned");
    c.track_names.insert((HARNESS_PID, tid), label.to_string());
}

/// A sim-time trace of one engine run: buffers events locally (its own
/// bounded ring — zero contention during the run) and flushes into the
/// global collector exactly once, on drop.
#[derive(Debug)]
pub struct SimTrace {
    pid: u32,
    label: String,
    ring: Ring,
    tracks: Vec<(u32, String)>,
}

impl SimTrace {
    /// Opens a run trace, or `None` while telemetry is disabled — the
    /// engine's per-event emission sites all hang off this `Option`.
    /// Consumes the pending [`set_run_label`], falling back to
    /// `default_label`.
    pub fn begin(default_label: &str) -> Option<SimTrace> {
        if !crate::enabled() {
            return None;
        }
        let label = RUN_LABEL
            .with(|l| l.borrow_mut().take())
            .unwrap_or_else(|| default_label.to_string());
        let pid = {
            let mut c = collector().lock().expect("trace collector poisoned");
            let pid = c.next_pid;
            c.next_pid += 1;
            pid
        };
        Some(SimTrace {
            pid,
            label,
            ring: Ring::default(),
            tracks: Vec::new(),
        })
    }

    /// The Perfetto process id of this run.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Names a track (bank, core) of this run.
    pub fn name_track(&mut self, tid: u32, name: String) {
        self.tracks.push((tid, name));
    }

    /// Records a complete span on `tid` covering `[start_ns, end_ns]`.
    pub fn span(&mut self, tid: u32, name: impl Into<Name>, start_ns: u64, end_ns: u64) {
        self.push(Event {
            ts_ns: start_ns,
            pid: self.pid,
            tid,
            name: name.into(),
            kind: EventKind::Span { dur_ns: end_ns.saturating_sub(start_ns) },
        });
    }

    /// Records a point event on `tid` at `ts_ns`.
    pub fn instant(&mut self, tid: u32, name: impl Into<Name>, ts_ns: u64) {
        self.push(Event {
            ts_ns,
            pid: self.pid,
            tid,
            name: name.into(),
            kind: EventKind::Instant,
        });
    }

    /// Samples a counter on `tid` at `ts_ns` (e.g. a queue depth).
    pub fn counter(&mut self, tid: u32, name: impl Into<Name>, ts_ns: u64, value: i64) {
        self.push(Event {
            ts_ns,
            pid: self.pid,
            tid,
            name: name.into(),
            kind: EventKind::Counter { value },
        });
    }

    fn push(&mut self, e: Event) {
        self.ring.push(DEFAULT_CAP, e);
    }
}

impl Drop for SimTrace {
    fn drop(&mut self) {
        let ring = std::mem::take(&mut self.ring);
        let (events, dropped) = ring.into_ordered();
        let mut c = collector().lock().expect("trace collector poisoned");
        c.process_names.insert(self.pid, std::mem::take(&mut self.label));
        for (tid, name) in self.tracks.drain(..) {
            c.track_names.insert((self.pid, tid), name);
        }
        c.ring.dropped += dropped;
        for e in events {
            c.ring.push(DEFAULT_CAP, e);
        }
    }
}

/// A wall-clock phase span: records `[construction, drop]` on this
/// thread's harness track.
#[derive(Debug)]
pub struct PhaseGuard {
    name: Name,
    start_ns: u64,
    tid: u32,
}

/// Opens a wall-clock phase span, or `None` while disabled. Bind the
/// result (`let _phase = phase("…")`) so the span closes at scope exit.
pub fn phase(name: impl Into<Name>) -> Option<PhaseGuard> {
    if !crate::enabled() {
        return None;
    }
    Some(PhaseGuard {
        name: name.into(),
        start_ns: wall_ns(),
        tid: thread_ordinal(),
    })
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let end = wall_ns();
        let mut c = collector().lock().expect("trace collector poisoned");
        c.ring.push(
            DEFAULT_CAP,
            Event {
                ts_ns: self.start_ns,
                pid: HARNESS_PID,
                tid: self.tid,
                name: std::mem::replace(&mut self.name, Name::Borrowed("")),
                kind: EventKind::Span { dur_ns: end - self.start_ns },
            },
        );
    }
}

/// Everything the exporter needs, drained destructively: events in
/// insertion order, process names, track names, and the overflow count.
pub(crate) struct Drained {
    pub events: Vec<Event>,
    pub process_names: BTreeMap<u32, String>,
    pub track_names: BTreeMap<(u32, u32), String>,
    pub dropped: u64,
}

pub(crate) fn drain() -> Drained {
    let mut c = collector().lock().expect("trace collector poisoned");
    let (events, dropped) = std::mem::take(&mut c.ring).into_ordered();
    Drained {
        events,
        process_names: std::mem::take(&mut c.process_names),
        track_names: std::mem::take(&mut c.track_names),
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_yields_no_trace() {
        let _serial = crate::test_serial::guard();
        crate::set_enabled(false);
        assert!(SimTrace::begin("x").is_none());
        assert!(phase("x").is_none());
        set_run_label("ignored"); // must not leak into a later enabled run
        crate::set_enabled(true);
        let t = SimTrace::begin("fallback").expect("enabled");
        assert_eq!(t.label, "fallback");
        crate::set_enabled(false);
        drop(t);
        let _ = drain();
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = Ring::default();
        for i in 0..10u64 {
            r.push(
                4,
                Event {
                    ts_ns: i,
                    pid: 1,
                    tid: 0,
                    name: Name::Borrowed("e"),
                    kind: EventKind::Instant,
                },
            );
        }
        let (events, dropped) = r.into_ordered();
        assert_eq!(dropped, 6);
        assert_eq!(
            events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "ring must keep the newest events in order"
        );
    }

    #[test]
    fn sim_trace_flushes_labels_and_events_on_drop() {
        let _serial = crate::test_serial::guard();
        crate::set_enabled(true);
        set_run_label("mcf/Hybrid");
        let mut t = SimTrace::begin("sim").expect("enabled");
        let pid = t.pid();
        t.name_track(1, "bank 0".into());
        t.span(1, "R", 100, 258);
        t.instant(1, "escalation", 258);
        t.counter(1, "queue.b0", 300, 2);
        drop(t);
        let mut g = phase("leg").expect("enabled");
        g.start_ns = g.start_ns.saturating_sub(1); // ensure nonzero dur not required
        drop(g);
        crate::set_enabled(false);
        let d = drain();
        assert_eq!(d.process_names.get(&pid).map(String::as_str), Some("mcf/Hybrid"));
        assert_eq!(
            d.track_names.get(&(pid, 1)).map(String::as_str),
            Some("bank 0")
        );
        let sim_events: Vec<&Event> = d.events.iter().filter(|e| e.pid == pid).collect();
        assert_eq!(sim_events.len(), 3);
        assert_eq!(sim_events[0].kind, EventKind::Span { dur_ns: 158 });
        assert!(d.events.iter().any(|e| e.pid == HARNESS_PID && e.name == "leg"));
        assert_eq!(d.dropped, 0);
    }
}

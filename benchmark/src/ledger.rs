//! The per-layer cost ledger of one traced pass.
//!
//! Each layer is timed from outside, through its public API:
//! * trace: drain every op source the pass consumes, no engine attached;
//! * core: record every device call of an untimed run, then replay the
//!   log, timed, against a freshly built device, requiring identical
//!   outcomes;
//! * dram: with a tier, record the scheme device under the tier as well;
//!   the tier's own time is the tiered replay minus the inner replay;
//! * memsim: what the plain pass leaves after trace, device and tier time.
//!
//! Micro-benchmarks of the event queue and of the erfc and BCH kernels, a
//! telemetry-on pass and simulated counts complete the ledger.

use crate::api::{self, Device, DeviceModel, ReadOutcome, ScrubOutcome, WriteOutcome};
use crate::gate::Gate;
use crate::spans::Spans;
use crate::workload::{Kind, Plan, Run};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every per-layer metric: name, unit, and which direction is better.
pub const PER_LAYER: [(&str, &str, &str); 32] = [
    ("trace.gen_s", "s", "lower"),
    ("trace.ns_per_op", "ns/op", "lower"),
    ("memsim.self_s", "s", "lower"),
    ("memsim.ns_per_op", "ns/op", "lower"),
    ("memsim.sched_ns_per_event", "ns/event", "lower"),
    ("memsim.ops", "count", "higher"),
    ("memsim.scrub_skip_rate", "ratio", "lower"),
    ("memsim.cancel_rate", "ratio", "lower"),
    ("core.device_s", "s", "lower"),
    ("core.ns_per_call", "ns/call", "lower"),
    ("core.calls", "count", "lower"),
    ("core.rm_read_rate", "ratio", "lower"),
    ("core.conversions", "count", "lower"),
    ("core.corrective_rewrites", "count", "lower"),
    ("core.verify_retries", "count", "lower"),
    ("core.lines_remapped", "count", "lower"),
    ("pcm.cells_written", "count", "lower"),
    ("math.erfc_scalar_ns_per_cell", "ns/cell", "lower"),
    ("math.erfc_batch_ns_per_cell", "ns/cell", "lower"),
    ("ecc.bch_scalar_ns_per_cw", "ns/cw", "lower"),
    ("ecc.bch_bitslice_ns_per_cw", "ns/cw", "lower"),
    ("ecc.corrected_bits", "count", "lower"),
    ("ecc.detected_uncorrectable", "count", "lower"),
    ("ecc.silent_corruptions", "count", "lower"),
    ("dram.self_s", "s", "lower"),
    ("dram.hit_rate", "ratio", "higher"),
    ("dram.promotions", "count", "lower"),
    ("dram.writebacks", "count", "lower"),
    ("dram.write_traffic_ratio", "ratio", "lower"),
    ("pool.speedup", "x", "higher"),
    ("telemetry.overhead_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
];

/// Depth of the event-queue micro-benchmark's steady state.
const SCHED_DEPTH: usize = 4096;

#[derive(Debug, Clone, Copy)]
enum Op {
    Read,
    Write,
    Scrub,
    Prefetch,
}

/// One device call and a digest of what it returned.
#[derive(Debug, Clone, Copy)]
struct Call {
    op: Op,
    line: u64,
    now_s: f64,
    digest: u64,
}

/// A call log shared with the pool thread that runs its channel.
type Log = Arc<Mutex<Vec<Call>>>;

/// Forwards every call to `dev` and logs it.
struct Recorder<D> {
    dev: D,
    log: Log,
}

impl<D> Recorder<D> {
    fn push(&self, op: Op, line: u64, now_s: f64, digest: u64) {
        let call = Call {
            op,
            line,
            now_s,
            digest,
        };
        self.log
            .lock()
            .expect("a recorder thread panicked")
            .push(call);
    }
}

impl<D: DeviceModel> DeviceModel for Recorder<D> {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let out = self.dev.on_read(line, now_s);
        self.push(Op::Read, line, now_s, api::read_outcome_digest(&out));
        out
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        let out = self.dev.on_write(line, now_s);
        self.push(Op::Write, line, now_s, api::write_outcome_digest(&out));
        out
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let out = self.dev.on_scrub(line, now_s);
        self.push(Op::Scrub, line, now_s, api::scrub_outcome_digest(&out));
        out
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        self.dev.scrub_interval_s()
    }

    fn prefetch_line(&mut self, line: u64) {
        self.dev.prefetch_line(line);
        self.push(Op::Prefetch, line, 0.0, 0);
    }
}

enum Outcome {
    Read(ReadOutcome),
    Write(WriteOutcome),
    Scrub(ScrubOutcome),
    Prefetched,
}

/// Replays `log` against `dev`. Returns the seconds spent inside the
/// device and the number of demand and scrub calls, or the first call
/// whose outcome differs from the recorded one. Outcomes are compared
/// outside the timed spans, a chunk at a time.
fn replay(log: &[Call], dev: &mut dyn DeviceModel) -> Result<(f64, u64), String> {
    const CHUNK: usize = 4096;
    let mut outs = Vec::with_capacity(CHUNK);
    let mut secs = 0.0;
    let mut calls = 0;
    for (c, chunk) in log.chunks(CHUNK).enumerate() {
        outs.clear();
        let t = Instant::now();
        for call in chunk {
            outs.push(match call.op {
                Op::Read => Outcome::Read(dev.on_read(call.line, call.now_s)),
                Op::Write => Outcome::Write(dev.on_write(call.line, call.now_s)),
                Op::Scrub => Outcome::Scrub(dev.on_scrub(call.line, call.now_s)),
                Op::Prefetch => {
                    dev.prefetch_line(call.line);
                    Outcome::Prefetched
                }
            });
        }
        secs += t.elapsed().as_secs_f64();
        for (i, (call, out)) in chunk.iter().zip(&outs).enumerate() {
            let digest = match out {
                Outcome::Read(r) => api::read_outcome_digest(r),
                Outcome::Write(w) => api::write_outcome_digest(w),
                Outcome::Scrub(s) => api::scrub_outcome_digest(s),
                Outcome::Prefetched => 0,
            };
            if digest != call.digest {
                return Err(format!(
                    "replayed call {} ({:?} of line {}) differs from the recorded one",
                    c * CHUNK + i,
                    call.op,
                    call.line
                ));
            }
            calls += u64::from(!matches!(out, Outcome::Prefetched));
        }
    }
    Ok((secs, calls))
}

/// Seconds the device layers spent over one pass, from record and replay.
#[derive(Default)]
struct DeviceTime {
    /// Scheme devices (everything under the DRAM tier).
    core_s: f64,
    /// The DRAM tier itself.
    dram_s: f64,
    /// Demand and scrub calls into the scheme devices.
    calls: u64,
}

/// Records every simulation of a pass, checks each recorded run against
/// the timed pass, and replays the logs against fresh devices.
fn record_and_replay(plan: &Plan, first: &[Run], gate: &mut Gate, spans: &mut Spans) -> DeviceTime {
    let mut time = DeviceTime::default();
    let mut i = 0;
    plan.for_each_sim(|source, sim| {
        let label = sim.label();
        let new_logs = || -> Vec<Log> { (0..plan.channels()).map(|_| Log::default()).collect() };
        let (inner_logs, outer_logs) = (new_logs(), new_logs());
        let recorded = spans.time(format!("record {label}"), |_| {
            plan.simulate(source, sim, 1, |ch| {
                let recorder = |inner: Device| -> Device {
                    Box::new(Recorder {
                        dev: inner,
                        log: Arc::clone(&inner_logs[ch]),
                    })
                };
                let dev = plan.device_with(sim, ch, recorder);
                if plan.tiered() {
                    Box::new(Recorder {
                        dev,
                        log: Arc::clone(&outer_logs[ch]),
                    })
                } else {
                    dev
                }
            })
        });
        gate.same("recorded run", &label, &first[i].report, &recorded.0);
        i += 1;
        for ch in 0..plan.channels() {
            let take = |log: &Log| std::mem::take(&mut *log.lock().expect("recording finished"));
            let (inner_log, outer_log) = (take(&inner_logs[ch]), take(&outer_logs[ch]));
            let (inner, _) = spans.time(format!("core.replay {label} c{ch}"), |_| {
                replay(&inner_log, plan.inner_device(sim, ch).as_mut())
            });
            let inner_s = match inner {
                Ok((secs, calls)) => {
                    time.core_s += secs;
                    time.calls += calls;
                    secs
                }
                Err(e) => return gate.check(&label, Err(e)),
            };
            if plan.tiered() {
                let (outer, _) = spans.time(format!("dram.replay {label}"), |_| {
                    replay(&outer_log, plan.device(sim, ch).as_mut())
                });
                match outer {
                    Ok((secs, _)) => time.dram_s += secs - inner_s,
                    Err(e) => return gate.check(&label, Err(e)),
                }
            }
            gate.check(&label, Ok(()));
        }
    });
    time
}

/// Times draining every op source the pass consumes; returns seconds and
/// the ops delivered. A sharded pass regenerates and filters the whole
/// stream once per channel, and so does this.
fn drain_sources(plan: &Plan, spans: &mut Spans) -> (f64, u64) {
    let (mut secs, mut ops) = (0.0, 0);
    for w in plan.workloads() {
        if plan.kind == Kind::Shard8 {
            for ch in 0..plan.channels() {
                let (n, s) = spans.time(format!("drain {} c{ch}", w.name), |_| {
                    let stream = api::stream(plan.seed, w, plan.instr);
                    api::drain(api::channel_filter(stream, plan.channels(), ch))
                });
                secs += s;
                ops += n;
            }
        } else {
            let (n, s) = spans.time(format!("generate {}", w.name), |_| {
                api::generate(plan.seed, w, plan.instr).total_ops() as u64
            });
            secs += s;
            ops += n;
        }
    }
    (secs, ops)
}

/// What the ledger needs from the timed passes.
pub struct Timed<'a> {
    /// Median seconds per timed pass.
    pub median_s: f64,
    /// The first timed pass.
    pub first: &'a [Run],
    /// Seconds of the sharded workload's pass on a pool of
    /// [`CROSS_CHECK_WIDTH`](crate::workload::CROSS_CHECK_WIDTH) threads.
    pub pooled_s: Option<f64>,
}

/// Runs the traced pass and returns every [`PER_LAYER`] metric, in order.
/// Metrics of a layer the workload does not use read 0.
pub fn ledger(plan: &Plan, timed: &Timed, gate: &mut Gate, spans: &mut Spans) -> Vec<f64> {
    let name = format!("workload {}", plan.kind.name());
    spans
        .time(name, |spans| {
            let (runs, traced_s) = spans.time("pass", |spans| {
                let mut runs = Vec::new();
                plan.for_each_sim(|source, sim| {
                    let label = sim.label();
                    let (report, _) = spans.time(format!("sim {label}"), |_| {
                        plan.simulate(source, sim, 1, |ch| plan.device(sim, ch))
                    });
                    runs.push(Run {
                        label,
                        report,
                        ops: source.ops(),
                    });
                });
                runs
            });
            gate.pass(&runs);
            let reports: Vec<_> = runs.iter().map(|r| r.report.clone()).collect();
            let c = api::total_counts(&reports);
            let ops = (c.reads + c.writes) as f64;

            let ((gen_s, drained), _) =
                spans.time("trace.drain", |spans| drain_sources(plan, spans));
            if plan.kind == Kind::Shard8 {
                let check = if drained == c.reads + c.writes {
                    Ok(())
                } else {
                    Err(format!(
                        "channels drained {drained} ops, engines retired {ops}"
                    ))
                };
                gate.check("source drain", check);
            }
            let (dev, _) = spans.time("core.replay", |spans| {
                record_and_replay(plan, timed.first, gate, spans)
            });
            let memsim_s = traced_s - gen_s - dev.core_s - dev.dram_s;

            let (sched, _) = spans.time("micro memsim.sched", |_| {
                api::sched_ns_per_event(plan.seed, SCHED_DEPTH)
            });
            let ((erfc_scalar, erfc_batch), _) =
                spans.time("micro math.erfc", |_| api::erfc_ns_per_cell(plan.seed));
            let ((bch_scalar, bch_bitslice), _) =
                spans.time("micro ecc.bch", |_| api::bch_ns_per_codeword(plan.seed));

            let (telemetry_runs, telemetry_s) = spans.time("telemetry.pass", |_| {
                api::set_telemetry(true);
                let runs = plan.pass(1);
                api::set_telemetry(false);
                runs
            });
            for (a, b) in timed.first.iter().zip(&telemetry_runs) {
                gate.same("telemetry-on run", &a.label, &a.report, &b.report);
            }

            let write_traffic_ratio = if plan.tiered() {
                let (untiered, _) = spans.time("dram.baseline", |_| {
                    let mut cells = 0;
                    plan.for_each_sim(|source, sim| {
                        let r = plan.simulate(source, sim, 1, |ch| plan.inner_device(sim, ch));
                        cells += api::counts(&r).cells_written;
                    });
                    cells
                });
                ratio(c.cells_written, untiered)
            } else {
                0.0
            };

            let per_op = |secs: f64| if ops > 0.0 { secs * 1e9 / ops } else { 0.0 };
            vec![
                gen_s,
                per_op(gen_s),
                memsim_s,
                per_op(memsim_s),
                sched,
                ops,
                ratio(c.scrubs_skipped, c.scrubs + c.scrubs_skipped),
                ratio(c.write_cancellations, c.writes),
                dev.core_s,
                if dev.calls > 0 {
                    dev.core_s * 1e9 / dev.calls as f64
                } else {
                    0.0
                },
                dev.calls as f64,
                ratio(c.reads_rm, c.reads),
                c.conversions as f64,
                c.corrective_rewrites as f64,
                c.verify_retries as f64,
                c.lines_remapped as f64,
                c.cells_written as f64,
                erfc_scalar,
                erfc_batch,
                bch_scalar,
                bch_bitslice,
                c.ecc_corrected_bits as f64,
                c.detected_uncorrectable as f64,
                c.silent_corruptions as f64,
                dev.dram_s,
                ratio(c.dram_hits, c.dram_hits + c.dram_misses),
                c.dram_promotions as f64,
                c.dram_writebacks as f64,
                write_traffic_ratio,
                timed.pooled_s.map_or(0.0, |pooled| timed.median_s / pooled),
                telemetry_s / traced_s - 1.0,
                traced_s / timed.median_s - 1.0,
            ]
        })
        .0
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::TINY;

    /// A recorded call log replays to identical outcomes, for every
    /// device flavour (plain, worn, tiered with its inner device).
    #[test]
    fn replayed_logs_reproduce_the_recorded_outcomes() {
        for kind in [Kind::Worn, Kind::Tiered] {
            let plan = Plan::with_volume(kind, 3, TINY);
            let first = plan.pass(1);
            let mut gate = Gate::new(&plan);
            let time = record_and_replay(&plan, &first, &mut gate, &mut Spans::new());
            assert!(gate.correct(), "{:?}", gate.notes);
            assert!(time.calls > 0 && time.core_s > 0.0);
            assert_eq!(time.dram_s != 0.0, plan.tiered());
        }
    }

    /// A replay against a device built from another seed is caught.
    #[test]
    fn replay_detects_a_different_device() {
        let plan = Plan::with_volume(Kind::Worn, 3, TINY);
        let other = Plan::with_volume(Kind::Worn, 4, TINY);
        let sim = &plan.sims()[0];
        let log = Log::default();
        plan.for_each_sim(|source, sim| {
            plan.simulate(source, sim, 1, |ch| Recorder {
                dev: plan.device(sim, ch),
                log: Arc::clone(&log),
            });
        });
        let log = log.lock().unwrap().clone();
        assert!(replay(&log, plan.device(sim, 0).as_mut()).is_ok());
        assert!(replay(&log, other.device(sim, 0).as_mut()).is_err());
    }

    #[test]
    fn ledger_covers_every_layer_with_a_nonnegative_engine_share() {
        let seconds = |f: &dyn Fn() -> Vec<Run>| {
            let t = Instant::now();
            (f(), t.elapsed().as_secs_f64())
        };
        for kind in Kind::ALL {
            let plan = Plan::with_volume(kind, 5, TINY);
            let (first, median_s) = seconds(&|| plan.pass(1));
            let pooled_s = (kind == Kind::Shard8)
                .then(|| seconds(&|| plan.pass(crate::workload::CROSS_CHECK_WIDTH)).1);
            let timed = Timed {
                median_s,
                first: &first,
                pooled_s,
            };
            let mut gate = Gate::new(&plan);
            gate.pass(&first);
            let values = ledger(&plan, &timed, &mut gate, &mut Spans::new());
            assert!(gate.correct(), "{:?}", gate.notes);
            assert_eq!(values.len(), PER_LAYER.len());
            assert!(values.iter().all(|v| v.is_finite()));
            let get = |name: &str| values[PER_LAYER.iter().position(|m| m.0 == name).unwrap()];
            // The engine's residual stands above timing noise only where it
            // is about half the pass; on worn_mcf (device ~95%) and
            // shard8_stream (trace generation ~75%) it is within noise of 0.
            if matches!(kind, Kind::Fig9 | Kind::Tiered) {
                assert!(
                    get("memsim.self_s") >= 0.0,
                    "{kind:?}: {}",
                    get("memsim.self_s")
                );
            }
            assert!(get("core.calls") > 0.0);
            assert!(get("memsim.ops") > 0.0);
        }
    }
}

//! The discrete-event simulation engine.
//!
//! The engine consumes ops through the [`OpSource`] trait, so a bounded-
//! memory [`TraceStream`] and a materialised [`Trace`] replay identically
//! ([`Simulator::run_source`] vs [`Simulator::run`]); events flow through
//! the `(at, seq)` heap in [`crate::sched`].
//!
//! [`TraceStream`]: readduo_trace::TraceStream

use std::collections::VecDeque;

use crate::config::{MemoryConfig, BUS_NS, CANCEL_PENALTY_NS, CYCLE_NS};
use crate::device::{DeviceModel, ReadMode, WriteOutcome};
use crate::sched::EventQueue;
use crate::stats::SimReport;
use readduo_telemetry::trace::SimTrace;
use readduo_trace::{OpKind, OpSource, Trace, TraceCursor};

/// How many ops past the head of a core's stream the issue-ahead line
/// prefetch targets (when the source can see that far). At eight ops per
/// core with four cores the hint lands ~32 processed events before the
/// probe it warms — comfortably past a DRAM fill — while the warmed lines
/// are far too few to be evicted again before use. Measured on the
/// fig9@10M matrix: depth 8 beats depth 1 by ~3%, deeper is noise.
const PREFETCH_DIST: usize = 8;

/// Pending events pre-reserved per engine, far above the run's high-water
/// mark (one issue per core plus a kick and a scrub tick per bank), so the
/// hot loop never grows the event heap. The 256 KiB reservation is freed
/// with the run and is part of the slack that lets the next run's device
/// tables reuse the same heap region: at 4096 entries, glibc's placement
/// split that region in a fifth to two fifths of the benchmark's worn_mcf
/// runs, adding 3 MB to peak RSS (DESIGN.md, "Zero-alloc steady state").
const EVENT_CAPACITY: usize = 8192;

/// Origin of a queued write job (for energy/lifetime attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteSource {
    Demand,
    Conversion,
    /// Rewrite ordered by an escalated read that had to repair the line
    /// through ECC (fault injection's retry path).
    Corrective,
}

/// A write sitting in (or executing from) a bank's write queue.
#[derive(Debug, Clone, Copy)]
struct WriteJob {
    outcome: WriteOutcome,
    source: WriteSource,
}

#[derive(Debug, Default)]
struct Bank {
    /// Time until which the bank array is occupied.
    busy_until: u64,
    /// The demand/conversion write currently executing, if any (the only
    /// cancellable occupancy).
    executing_write: Option<WriteJob>,
    /// Pending writes.
    queue: VecDeque<WriteJob>,
    /// Cores stalled because the queue was full.
    waiters: VecDeque<usize>,
    /// Next line (bank-local index) the scrub register points at.
    scrub_ptr: u64,
    /// Time of the earliest *live* kick for this bank. A kick event whose
    /// time does not match is superseded (an earlier kick was scheduled
    /// after it) and is dropped on pop instead of re-kicking — lazy
    /// deletion, since `BinaryHeap` cannot remove arbitrary entries.
    kick_scheduled_at: Option<u64>,
}

impl Bank {
    /// A fresh bank with its queues sized for the run: the write queue is
    /// bounded by the capacity stall (plus the cancellation push-front) and
    /// the waiter list by the core count, so neither ever reallocates.
    fn with_capacity(write_queue_cap: usize, cores: usize) -> Self {
        Self {
            queue: VecDeque::with_capacity(write_queue_cap + 1),
            waiters: VecDeque::with_capacity(cores),
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A core is ready to issue its next trace op.
    CoreIssue(usize),
    /// A bank should try to start a queued write.
    BankKick(usize),
    /// The scrub engine visits the next line of a bank.
    ScrubTick(usize),
}

/// The trace-driven simulator.
///
/// One `Simulator` instance can run many traces; per-run state lives on the
/// stack of [`run`].
///
/// [`run`]: Simulator::run
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MemoryConfig,
}

/// Per-run telemetry state: the sim-time trace plus per-bank counter
/// track names, precomputed so the hot loop never formats. `None` (the
/// default) costs one branch per emission site.
struct Tel {
    trace: SimTrace,
    queue_names: Vec<String>,
}

impl Tel {
    /// Per-channel telemetry. Single-channel runs keep the historical
    /// names (`memsim`, `bank {b}`, `queue.b{N}`); multi-channel runs
    /// qualify every track and counter with the channel so the merged
    /// trace separates the channels (`memsim.c{C}`, `c{C}.bank {b}`,
    /// `queue.c{C}.b{N}`).
    fn begin(cfg: &MemoryConfig, channel: usize, cores: usize) -> Option<Tel> {
        let banks = cfg.topology.banks_per_channel;
        let multi = cfg.topology.channels > 1;
        let label =
            if multi { format!("memsim.c{channel}") } else { "memsim".to_string() };
        let mut trace = SimTrace::begin(&label)?;
        for b in 0..banks {
            let name =
                if multi { format!("c{channel}.bank {b}") } else { format!("bank {b}") };
            trace.name_track(b as u32, name);
        }
        for c in 0..cores {
            let name =
                if multi { format!("c{channel}.core {c}") } else { format!("core {c}") };
            trace.name_track((banks + c) as u32, name);
        }
        let queue_names = (0..banks)
            .map(|b| {
                if multi { format!("queue.c{channel}.b{b}") } else { format!("queue.b{b}") }
            })
            .collect();
        Some(Tel { trace, queue_names })
    }

    /// Samples bank `b`'s write-queue depth on its counter track.
    fn queue_depth(&mut self, b: usize, now: u64, depth: usize) {
        let name = self.queue_names[b].clone();
        self.trace.counter(b as u32, name, now, depth as i64);
    }
}

fn mode_name(mode: ReadMode) -> &'static str {
    match mode {
        ReadMode::RRead => "R",
        ReadMode::MRead => "M",
        ReadMode::RmRead => "RM",
    }
}

/// One channel's engine state: its own bus, bank array, write queues,
/// scrub engine and event queue. A single-channel machine is exactly one
/// `Run`; a sharded machine is `channels` of them, each consuming the ops
/// its channel owns. `pub(crate)` so the sharded executor in
/// [`crate::shard`] and the sequential oracle in [`crate::oracle`] can
/// run it.
pub(crate) struct Run<'a, D: DeviceModel + ?Sized, S: OpSource> {
    cfg: MemoryConfig,
    /// This channel's index within the topology.
    channel: usize,
    /// Banks in this channel (`topology.banks_per_channel`).
    nbanks: usize,
    device: &'a mut D,
    source: &'a mut S,
    banks: Vec<Bank>,
    /// Cores whose streams still have ops pending (issued-and-advanced is
    /// what retires a core, matching the old cursor scan).
    live_cores: usize,
    events: EventQueue<EventKind>,
    bus_busy_until: u64,
    report: SimReport,
    scrub_period_ns: Option<u64>,
    /// Latest core-visible op completion seen so far (becomes `exec_ns`).
    exec_end: u64,
    /// Sim-time tracing, `None` unless telemetry is enabled.
    tel: Option<Tel>,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: MemoryConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Runs a materialised `trace` against `device` and returns the report.
    ///
    /// Equivalent to [`run_source`] over a [`TraceCursor`] — the two paths
    /// share every line of engine code.
    ///
    /// [`run_source`]: Simulator::run_source
    ///
    /// # Panics
    ///
    /// Panics if the trace has more cores than the configuration, or if
    /// the topology has more than one channel (multi-channel runs go
    /// through [`run_sharded`](Simulator::run_sharded)).
    pub fn run<D: DeviceModel + ?Sized>(&self, trace: &Trace, device: &mut D) -> SimReport {
        self.run_source(&mut TraceCursor::new(trace), device)
    }

    /// Runs any in-order op source (e.g. a bounded-memory
    /// [`TraceStream`](readduo_trace::TraceStream)) against `device`, and
    /// [publishes](SimReport::publish) the report it returns.
    ///
    /// # Panics
    ///
    /// Panics if the source has more cores than the configuration, or if
    /// the topology has more than one channel (multi-channel runs need one
    /// source per channel — see [`run_sharded`](Simulator::run_sharded)).
    pub fn run_source<D: DeviceModel + ?Sized, S: OpSource>(
        &self,
        source: &mut S,
        device: &mut D,
    ) -> SimReport {
        assert!(
            self.config.topology.channels == 1,
            "run/run_source drive a single channel; use run_sharded for {} channels",
            self.config.topology.channels
        );
        let report = self.channel_run(0, source, device).execute();
        report.publish();
        report
    }

    /// Builds one channel's engine over a source already filtered to that
    /// channel's lines.
    pub(crate) fn channel_run<'a, D: DeviceModel + ?Sized, S: OpSource>(
        &self,
        channel: usize,
        source: &'a mut S,
        device: &'a mut D,
    ) -> Run<'a, D, S> {
        assert!(
            source.cores() <= self.config.cores,
            "trace has {} cores but the machine only {}",
            source.cores(),
            self.config.cores
        );
        let nbanks = self.config.topology.banks_per_channel;
        let tel = Tel::begin(&self.config, channel, source.cores());
        Run {
            cfg: self.config,
            channel,
            nbanks,
            device,
            source,
            banks: (0..nbanks)
                .map(|_| Bank::with_capacity(self.config.write_queue_cap, self.config.cores))
                .collect(),
            live_cores: 0,
            events: EventQueue::with_capacity(EVENT_CAPACITY),
            bus_busy_until: 0,
            report: SimReport::default(),
            scrub_period_ns: None,
            exec_end: 0,
            tel,
        }
    }
}

impl<D: DeviceModel + ?Sized, S: OpSource> Run<'_, D, S> {
    /// Runs the channel to completion and returns its report: seeds one
    /// issue per live core and one phase-staggered scrub tick per bank,
    /// then pops and dispatches events until none is pending.
    pub(crate) fn execute(mut self) -> SimReport {
        // Seed core events.
        for core in 0..self.source.cores() {
            if let Some(op) = self.source.peek(core) {
                self.live_cores += 1;
                let at = (op.icount as f64 * CYCLE_NS) as u64;
                self.device.prefetch_line(op.line);
                self.push(at, EventKind::CoreIssue(core));
            }
        }
        // Seed scrub engines, phase-staggered across banks so ticks do not
        // synchronise.
        if let Some(s) = self.device.scrub_interval_s() {
            let period = (s * 1e9 / self.cfg.lines_per_bank as f64).max(1.0) as u64;
            self.scrub_period_ns = Some(period.max(1));
            let total_banks = self.cfg.topology.total_banks() as u64;
            for b in 0..self.nbanks {
                // Stagger tick phases so banks do not scrub in lockstep,
                // and scatter each bank's scrub register across its lines:
                // a short simulated window must sample the *whole* bank's
                // line population (mostly data outside the workload's
                // footprint), not the first few kilobytes. Phase and
                // scatter derive from the bank's *global* index so every
                // bank in the machine is distinct, and a single channel
                // reproduces the pre-topology seeding exactly.
                let g = (self.channel * self.nbanks + b) as u64;
                let phase = period * g / total_banks;
                self.banks[b].scrub_ptr =
                    (g + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.cfg.lines_per_bank;
                self.push(phase, EventKind::ScrubTick(b));
            }
        }
        while let Some((at, kind)) = self.events.pop() {
            self.dispatch(at, kind);
        }
        self.report.exec_ns = self.exec_end;
        self.report
    }

    fn dispatch(&mut self, at: u64, kind: EventKind) {
        match kind {
            EventKind::CoreIssue(core) => {
                let done = self.core_issue(core, at);
                self.exec_end = self.exec_end.max(done);
            }
            EventKind::BankKick(b) => self.bank_kick(b, at),
            EventKind::ScrubTick(b) => {
                // Once all cores drained, stop re-arming scrub ticks so
                // the run terminates; pending bank kicks still drain the
                // write queues for faithful energy/lifetime accounting.
                if self.live_cores == 0 {
                    return;
                }
                self.scrub_tick(b, at);
            }
        }
    }

    fn push(&mut self, at: u64, kind: EventKind) {
        self.events.push(at, kind);
    }

    fn secs(&self, ns: u64) -> f64 {
        ns as f64 * 1e-9
    }

    /// Issues one op for `core` at time `now`; returns the core-visible
    /// completion time of this op.
    fn core_issue(&mut self, core: usize, now: u64) -> u64 {
        let op = self.source.peek(core).expect("issue event for a drained core");
        debug_assert_eq!(
            self.cfg.topology.channel_of(op.line),
            self.channel,
            "op routed to the wrong channel"
        );
        let b = self.cfg.bank_of(op.line);
        match op.kind {
            OpKind::Read => {
                // Write cancellation: pre-empt an executing write job
                // (demand, conversion or corrective).
                if self.cfg.write_cancellation {
                    let bank = &mut self.banks[b];
                    if bank.busy_until > now {
                        if let Some(job) = bank.executing_write.take() {
                            bank.queue.push_front(job);
                            bank.busy_until = now + CANCEL_PENALTY_NS;
                            self.report.write_cancellations += 1;
                            if let Some(tel) = &mut self.tel {
                                tel.trace.instant(b as u32, "write-cancel", now);
                                tel.queue_depth(b, now, self.banks[b].queue.len());
                            }
                        }
                    }
                }
                let start = now.max(self.banks[b].busy_until);
                let out = self.device.on_read(op.line, self.secs(start));
                let array_done = start + out.latency_ns;
                let bus_start = array_done.max(self.bus_busy_until);
                let done = bus_start + BUS_NS;
                self.bus_busy_until = done;
                self.banks[b].busy_until = done;
                self.banks[b].executing_write = None;
                self.report.reads += 1;
                self.report.record_read_mode(out.mode);
                self.report.read_latency.record(done - now);
                if let Some(tel) = &mut self.tel {
                    // Bank occupancy span named by read mode, plus the
                    // core-visible latency (queueing included) on the
                    // core's own track.
                    tel.trace.span(b as u32, mode_name(out.mode), start, done);
                    tel.trace
                        .span((self.nbanks + core) as u32, "read", now, done);
                    if out.mode == ReadMode::RmRead {
                        tel.trace.instant(b as u32, "escalation", array_done);
                    }
                }
                if out.mode == ReadMode::RmRead {
                    // Escalated reads get their own tail summary: the
                    // retry path is the latency cost fault injection (and
                    // ReadDuo's banded escalation) adds over plain R-reads.
                    self.report.retry_latency.record(done - now);
                }
                self.report.energy_read_pj += out.energy_pj;
                self.report.drift_errors_seen += out.drift_errors as u64;
                if out.drift_errors > 0 {
                    self.report.reads_errored += 1;
                }
                self.report.ecc_corrected_bits += out.ecc_corrected_bits as u64;
                if out.stuck_bits > 0 {
                    self.report.stuck_bit_reads += 1;
                    self.report.stuck_bits_seen += out.stuck_bits as u64;
                }
                if out.detected_uncorrectable {
                    self.report.detected_uncorrectable += 1;
                }
                if out.silent_corruption {
                    self.report.silent_corruptions += 1;
                }
                if out.untracked {
                    self.report.untracked_reads += 1;
                }
                self.record_tier(b, &out.tier, done);
                if let Some(cw) = out.conversion {
                    self.report.conversions += 1;
                    self.record_wear(b, &cw, done);
                    // Conversion writes bypass the queue-capacity stall (the
                    // controller owns them) but share the queue.
                    self.banks[b].queue.push_back(WriteJob {
                        outcome: cw,
                        source: WriteSource::Conversion,
                    });
                    if let Some(tel) = &mut self.tel {
                        tel.trace.instant(b as u32, "conversion", done);
                        tel.queue_depth(b, done, self.banks[b].queue.len());
                    }
                }
                if let Some(cw) = out.corrective {
                    self.report.corrective_rewrites += 1;
                    // Attributed here, at scheduling: a corrective job can
                    // be cancelled by a later read and re-executed, and
                    // execution-time attribution would count it once per
                    // attempt.
                    self.report.energy_corrective_pj += cw.energy_pj;
                    self.report.cells_written_corrective += cw.cells_written as u64;
                    self.report.slc_bits_written += cw.slc_bits_written as u64;
                    self.record_wear(b, &cw, done);
                    // Corrective rewrites are controller-owned like
                    // conversions: queued on the bank, exempt from the
                    // demand-write capacity stall.
                    self.banks[b].queue.push_back(WriteJob {
                        outcome: cw,
                        source: WriteSource::Corrective,
                    });
                    if let Some(tel) = &mut self.tel {
                        tel.trace.instant(b as u32, "corrective-rewrite", done);
                        tel.queue_depth(b, done, self.banks[b].queue.len());
                    }
                }
                self.schedule_kick(b, done);
                self.advance_core(core, op.icount, done)
            }
            OpKind::Write => {
                if self.banks[b].queue.len() >= self.cfg.write_queue_cap {
                    // Stall: retry when the bank drains a slot.
                    self.banks[b].waiters.push_back(core);
                    let retry = self.banks[b].busy_until.max(now + 1);
                    if let Some(tel) = &mut self.tel {
                        tel.trace.instant(b as u32, "write-stall", now);
                    }
                    self.schedule_kick(b, retry);
                    // Do NOT advance the cursor; the core reissues this op
                    // when woken (via CoreIssue pushed by bank_kick).
                    return now;
                }
                let out = self.device.on_write(op.line, self.secs(now));
                self.report.writes += 1;
                self.report.energy_write_pj += out.energy_pj;
                self.report.cells_written_demand += out.cells_written as u64;
                self.report.slc_bits_written += out.slc_bits_written as u64;
                self.record_wear(b, &out, now);
                self.record_tier(b, &out.tier, now);
                self.banks[b].queue.push_back(WriteJob {
                    outcome: out,
                    source: WriteSource::Demand,
                });
                if let Some(tel) = &mut self.tel {
                    tel.queue_depth(b, now, self.banks[b].queue.len());
                }
                self.schedule_kick_or_run(b, now.max(self.banks[b].busy_until), now);
                // Posted write: the core moves on immediately.
                self.advance_core(core, op.icount, now)
            }
        }
    }

    /// Tallies the wear-path side of a write outcome (verify retries,
    /// dead cells, remaps, spare exhaustion), wherever the write was
    /// scheduled. Attribution happens at scheduling time like corrective
    /// traffic: a queued job that gets cancelled and re-executed must not
    /// wear its line twice. Pure counter adds while wear is disabled —
    /// every field stays zero — so wear-off runs are bit-for-bit
    /// unchanged.
    fn record_wear(&mut self, b: usize, w: &crate::device::WriteOutcome, at: u64) {
        self.report.verify_retries += w.verify_retries as u64;
        self.report.wear_cells_failed += w.cells_failed as u64;
        self.report.lines_remapped += w.remapped as u64;
        self.report.spares_exhausted_writes += w.spares_exhausted as u64;
        if let Some(tel) = &mut self.tel {
            if w.remapped {
                tel.trace.instant(b as u32, "line-remap", at);
            }
            if w.spares_exhausted {
                tel.trace.instant(b as u32, "spares-exhausted", at);
            }
        }
    }

    /// Tallies the DRAM-tier side of an access outcome (hit/miss,
    /// promotion, demotion, dirty writeback), wherever the access was
    /// dispatched. The writeback's latency is already folded into the
    /// triggering outcome by the tiered device (the migration occupies
    /// the bank); here only its traffic and wear consequences are
    /// attributed. Returns immediately while no tier is attached —
    /// `tiered` is false on every outcome then — so untiered runs are
    /// bit-for-bit unchanged.
    fn record_tier(&mut self, b: usize, t: &crate::device::TierOutcome, at: u64) {
        if !t.tiered {
            return;
        }
        if t.hit {
            self.report.dram_hits += 1;
        } else {
            self.report.dram_misses += 1;
        }
        self.report.dram_promotions += t.promotion as u64;
        self.report.dram_demotions += t.demotion as u64;
        self.report.dram_writebacks += t.writeback as u64;
        self.report.cells_written_demotion += t.writeback_cells as u64;
        self.report.slc_bits_written += t.writeback_slc_bits as u64;
        self.report.energy_demotion_pj += t.writeback_energy_pj;
        self.report.verify_retries += t.writeback_verify_retries as u64;
        self.report.wear_cells_failed += t.writeback_cells_failed as u64;
        self.report.lines_remapped += t.writeback_remapped as u64;
        self.report.spares_exhausted_writes += t.writeback_spares_exhausted as u64;
        if let Some(tel) = &mut self.tel {
            let name = if t.hit { "dram.hit" } else { "dram.miss" };
            tel.trace.instant(b as u32, name, at);
            if t.promotion {
                tel.trace.instant(b as u32, "dram.promote", at);
            }
            if t.demotion {
                tel.trace.instant(b as u32, "dram.demote", at);
            }
            if t.writeback {
                // Migration span: the demotion writeback's slice of the
                // bank time (its latency is the tail of the access).
                tel.trace.span(
                    b as u32,
                    "dram.migrate",
                    at.saturating_sub(t.writeback_latency_ns),
                    at,
                );
            }
        }
    }

    /// Advances `core` past its current op (with instruction count
    /// `issued_icount`, completed at `done`) and schedules its next issue.
    /// Returns the completion time.
    fn advance_core(&mut self, core: usize, issued_icount: u64, done: u64) -> u64 {
        self.source.advance(core);
        if let Some(next) = self.source.peek(core) {
            let delta_instr = next.icount - issued_icount;
            let at = done + (delta_instr as f64 * CYCLE_NS) as u64;
            // Lines are known ahead of dispatch; let the device warm its
            // per-line tracking state while other cores' events run (a
            // hint, never a state change). Sources that can see deeper
            // than the head give the fill several scheduling rounds of
            // work to overlap with — at paper-scale footprints every
            // probe is a DRAM miss, and one round is not always enough
            // lead time to hide it.
            match self.source.peek_line_ahead(core, PREFETCH_DIST) {
                Some(line) => self.device.prefetch_line(line),
                None => self.device.prefetch_line(next.line),
            }
            self.push(at, EventKind::CoreIssue(core));
        } else {
            self.live_cores -= 1;
        }
        done
    }

    fn schedule_kick(&mut self, b: usize, at: u64) {
        match self.banks[b].kick_scheduled_at {
            Some(t) if t <= at => {}
            _ => {
                self.banks[b].kick_scheduled_at = Some(at);
                self.push(at, EventKind::BankKick(b));
            }
        }
    }

    /// Like [`schedule_kick`], but when the kick is due *now* and no other
    /// event shares this timestamp, runs it in place instead of paying a
    /// heap push + pop: the pushed event would be the very next pop anyway
    /// (everything already queued is strictly later), so the order of
    /// simulated actions is unchanged. Posted writes to an idle bank hit
    /// this path on every single write.
    ///
    /// [`schedule_kick`]: Run::schedule_kick
    fn schedule_kick_or_run(&mut self, b: usize, at: u64, now: u64) {
        if let Some(t) = self.banks[b].kick_scheduled_at {
            if t <= at {
                return;
            }
        }
        if at == now && self.events.next_is_after(now) {
            self.banks[b].kick_scheduled_at = Some(at);
            self.bank_kick(b, at);
        } else {
            self.banks[b].kick_scheduled_at = Some(at);
            self.push(at, EventKind::BankKick(b));
        }
    }

    /// Tries to start a queued write on bank `b`.
    fn bank_kick(&mut self, b: usize, now: u64) {
        if self.banks[b].kick_scheduled_at != Some(now) {
            // Superseded event: an earlier kick was scheduled after this
            // one entered the heap, and it (or its successors) already
            // covered this bank. Re-kicking would only spawn duplicate
            // reschedules.
            return;
        }
        self.banks[b].kick_scheduled_at = None;
        if self.banks[b].busy_until > now {
            if !self.banks[b].queue.is_empty() {
                let at = self.banks[b].busy_until;
                self.schedule_kick(b, at);
            }
            return;
        }
        self.banks[b].executing_write = None;
        if let Some(job) = self.banks[b].queue.pop_front() {
            let start = now.max(self.bus_busy_until);
            // Data moves over the bus into the device, then the array
            // programs.
            self.bus_busy_until = start + BUS_NS;
            let done = start + BUS_NS + job.outcome.latency_ns;
            self.banks[b].busy_until = done;
            self.banks[b].executing_write = Some(job);
            if let Some(tel) = &mut self.tel {
                let name = match job.source {
                    WriteSource::Demand => "write",
                    WriteSource::Conversion => "conv-write",
                    WriteSource::Corrective => "fix-write",
                };
                tel.trace.span(b as u32, name, start, done);
                tel.queue_depth(b, now, self.banks[b].queue.len());
            }
            match job.source {
                WriteSource::Demand => {}
                WriteSource::Conversion => {
                    self.report.energy_conversion_pj += job.outcome.energy_pj;
                    self.report.cells_written_conversion += job.outcome.cells_written as u64;
                    self.report.slc_bits_written += job.outcome.slc_bits_written as u64;
                }
                // Corrective traffic is attributed at scheduling time (see
                // core_issue): cancellation can re-execute the job.
                WriteSource::Corrective => {}
            }
            // Wake one stalled core now that a queue slot freed.
            if let Some(core) = self.banks[b].waiters.pop_front() {
                self.push(now, EventKind::CoreIssue(core));
            }
            self.schedule_kick(b, done);
        }
    }

    /// One scrub-engine visit on bank `b`.
    fn scrub_tick(&mut self, b: usize, now: u64) {
        let period = self.scrub_period_ns.expect("scrub tick without interval");
        // Always re-arm first so cadence is stable.
        self.push(now + period, EventKind::ScrubTick(b));
        let backlog_limit = self.cfg.scrub_backlog_limit_ns;
        if self.banks[b].busy_until > now + backlog_limit {
            // The bank cannot keep up; defer this line (it will be visited
            // a whole interval later — a reliability debt the paper's W=0
            // Scrubbing configuration is precisely criticised for).
            self.report.scrubs_skipped += 1;
            if let Some(tel) = &mut self.tel {
                tel.trace.instant(b as u32, "scrub-skip", now);
            }
            return;
        }
        let local = self.banks[b].scrub_ptr;
        self.banks[b].scrub_ptr = (local + 1) % self.cfg.lines_per_bank;
        let line = self.cfg.topology.recompose(self.channel, b, local);
        let start = now.max(self.banks[b].busy_until);
        let out = self.device.on_scrub(line, self.secs(start));
        let mut dur = out.read_latency_ns;
        self.report.scrubs += 1;
        self.report.energy_scrub_pj += out.read_energy_pj;
        if let Some(rw) = out.rewrite {
            dur += rw.latency_ns;
            self.report.scrub_rewrites += 1;
            self.report.energy_scrub_pj += rw.energy_pj;
            self.report.cells_written_scrub += rw.cells_written as u64;
            self.report.slc_bits_written += rw.slc_bits_written as u64;
            self.record_wear(b, &rw, start);
        }
        self.banks[b].busy_until = start + dur;
        self.banks[b].executing_write = None;
        // The next visit's line is already decided (the pointer walks the
        // bank); warm its tracking entry while demand traffic runs.
        let next = self.cfg.topology.recompose(self.channel, b, self.banks[b].scrub_ptr);
        self.device.prefetch_line(next);
        if let Some(tel) = &mut self.tel {
            let name = if out.rewrite.is_some() { "scrub+rewrite" } else { "scrub" };
            tel.trace.span(b as u32, name, start, start + dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;
    use crate::device::{FixedLatencyDevice, ReadMode, ReadOutcome, ScrubOutcome, WriteOutcome};
    use readduo_trace::{MemOp, OpKind, Trace};

    fn cfg() -> MemoryConfig {
        MemoryConfig::small_test()
    }

    fn read(icount: u64, line: u64) -> MemOp {
        MemOp { icount, line, kind: OpKind::Read }
    }

    fn write(icount: u64, line: u64) -> MemOp {
        MemOp { icount, line, kind: OpKind::Write }
    }

    #[test]
    fn single_read_latency() {
        let mut t = Trace::new("t", 1);
        t.push(0, read(1000, 0));
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000);
        let rep = Simulator::new(cfg()).run(&t, &mut dev);
        // Issue at 1000 instr × 0.5 ns = 500 ns; device 150 + bus 8.
        assert_eq!(rep.reads, 1);
        assert_eq!(rep.read_latency.mean_ns(), 158.0);
        assert_eq!(rep.exec_ns, 500 + 158);
    }

    #[test]
    fn same_bank_reads_serialise_different_banks_overlap() {
        // Two cores read at the same instant.
        let mk = |line_a: u64, line_b: u64| {
            let mut t = Trace::new("t", 2);
            t.push(0, read(1000, line_a));
            t.push(1, read(1000, line_b));
            t
        };
        let sim = Simulator::new(cfg());
        // Same bank (lines 0 and 2 both map to bank 0 of 2).
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000);
        let same = sim.run(&mk(0, 2), &mut dev);
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000);
        let diff = sim.run(&mk(0, 1), &mut dev);
        assert!(
            same.exec_ns > diff.exec_ns,
            "bank conflict must cost time: {} vs {}",
            same.exec_ns,
            diff.exec_ns
        );
        // Different banks still share the bus, so not perfectly parallel.
        assert!(diff.read_latency.max_ns() >= 158);
    }

    #[test]
    fn posted_writes_do_not_block_core() {
        let mut t = Trace::new("t", 1);
        t.push(0, write(1000, 0));
        t.push(0, read(1001, 1));
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000);
        let rep = Simulator::new(cfg()).run(&t, &mut dev);
        assert_eq!(rep.writes, 1);
        // The read (bank 1) is not delayed by the write on bank 0.
        assert!(rep.read_latency.mean_ns() < 200.0);
    }

    #[test]
    fn full_write_queue_stalls_core() {
        let mut t = Trace::new("t", 1);
        // 12 back-to-back writes to one bank exceed the cap of 4 and the
        // core must wait for drains.
        for i in 0..12u64 {
            t.push(0, write(1000 + i, 0));
        }
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000);
        let rep = Simulator::new(cfg()).run(&t, &mut dev);
        assert_eq!(rep.writes, 12);
        // The core posts the first 5 freely, then stalls behind drains of
        // ~1008 ns each; issuing the 12th write requires ~7 drains.
        assert!(rep.exec_ns > 6 * 1000, "exec {}", rep.exec_ns);
    }

    #[test]
    fn write_cancellation_prioritises_reads() {
        let mut base = Trace::new("t", 1);
        base.push(0, write(1000, 0));
        base.push(0, read(1010, 0)); // same bank, arrives while write runs
        let mut on = cfg();
        on.write_cancellation = true;
        let mut off = cfg();
        off.write_cancellation = false;
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000);
        let rep_on = Simulator::new(on).run(&base, &mut dev);
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000);
        let rep_off = Simulator::new(off).run(&base, &mut dev);
        assert_eq!(rep_on.write_cancellations, 1);
        assert_eq!(rep_off.write_cancellations, 0);
        assert!(
            rep_on.read_latency.mean_ns() < rep_off.read_latency.mean_ns(),
            "cancellation must shorten the read: {} vs {}",
            rep_on.read_latency.mean_ns(),
            rep_off.read_latency.mean_ns()
        );
    }

    #[test]
    fn scrub_engine_visits_lines_and_occupies_banks() {
        let mut t = Trace::new("t", 1);
        // A long, sparse stream so simulated time passes.
        for i in 0..200u64 {
            t.push(0, read(i * 100_000, (i * 3) % 64));
        }
        let mut c = cfg();
        c.lines_per_bank = 1024; // scrub period = 1s·1e9/1024 ≈ 0.98 ms
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000).with_scrub(1.0, false);
        let rep = Simulator::new(c).run(&t, &mut dev);
        assert!(rep.scrubs > 0, "scrub engine never ran");
        assert_eq!(rep.scrub_rewrites, 0);
        // With rewrites every visit, energy and cell writes appear.
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000).with_scrub(1.0, true);
        let rep2 = Simulator::new(c).run(&t, &mut dev);
        assert!(rep2.scrub_rewrites > 0);
        assert!(rep2.cells_written_scrub >= 256);
        assert!(rep2.energy_scrub_pj > rep.energy_scrub_pj);
        // Scrubbing makes execution slower, never faster.
        assert!(rep2.exec_ns >= rep.exec_ns);
    }

    /// A device that always orders a conversion write after reads.
    struct ConvertingDevice;
    impl DeviceModel for ConvertingDevice {
        fn on_read(&mut self, _line: u64, _now_s: f64) -> ReadOutcome {
            ReadOutcome {
                conversion: Some(WriteOutcome::basic(1000, 256, 6, 2.0)),
                untracked: true,
                drift_errors: 3,
                ..ReadOutcome::basic(600, ReadMode::RmRead, 1.0)
            }
        }
        fn on_write(&mut self, _line: u64, _now_s: f64) -> WriteOutcome {
            WriteOutcome::basic(1000, 256, 0, 2.0)
        }
        fn on_scrub(&mut self, _line: u64, _now_s: f64) -> ScrubOutcome {
            ScrubOutcome { read_latency_ns: 150, read_energy_pj: 1.0, rewrite: None }
        }
        fn scrub_interval_s(&self) -> Option<f64> {
            None
        }
    }

    #[test]
    fn conversion_writes_are_executed_and_attributed() {
        let mut t = Trace::new("t", 1);
        t.push(0, read(1000, 0));
        t.push(0, read(100_000, 1));
        let rep = Simulator::new(cfg()).run(&t, &mut ConvertingDevice);
        assert_eq!(rep.reads_rm, 2);
        assert_eq!(rep.conversions, 2);
        assert_eq!(rep.untracked_reads, 2);
        assert_eq!(rep.cells_written_conversion, 512);
        assert_eq!(rep.slc_bits_written, 12);
        assert_eq!(rep.drift_errors_seen, 6);
        assert_eq!(rep.reads_errored, 2);
        assert!((rep.energy_conversion_pj - 4.0).abs() < 1e-12);
    }

    #[test]
    fn retry_latency_tracks_escalated_reads_only() {
        // One plain R-read (bank 1) and two escalated R-M-reads (bank 0):
        // the retry summary must cover exactly the escalated pair while
        // the overall summary covers all three.
        struct MixedDevice;
        impl DeviceModel for MixedDevice {
            fn on_read(&mut self, line: u64, _now_s: f64) -> ReadOutcome {
                if line.is_multiple_of(2) {
                    ReadOutcome {
                        drift_errors: 2,
                        ecc_corrected_bits: 2,
                        ..ReadOutcome::basic(600, ReadMode::RmRead, 2.2)
                    }
                } else {
                    ReadOutcome::basic(150, ReadMode::RRead, 2.0)
                }
            }
            fn on_write(&mut self, _line: u64, _now_s: f64) -> WriteOutcome {
                WriteOutcome::basic(1000, 256, 0, 2.0)
            }
            fn on_scrub(&mut self, _line: u64, _now_s: f64) -> ScrubOutcome {
                ScrubOutcome { read_latency_ns: 150, read_energy_pj: 1.0, rewrite: None }
            }
            fn scrub_interval_s(&self) -> Option<f64> {
                None
            }
        }
        let mut t = Trace::new("t", 1);
        t.push(0, read(1000, 0));
        t.push(0, read(100_000, 1));
        t.push(0, read(200_000, 2));
        let rep = Simulator::new(cfg()).run(&t, &mut MixedDevice);
        assert_eq!(rep.reads, 3);
        assert_eq!(rep.reads_rm, 2);
        assert_eq!(rep.retry_latency.count(), rep.reads_rm);
        assert_eq!(rep.read_latency.count(), 3);
        // Escalated reads dominate the tail: max overall == max retry, and
        // the retry mean (608 ns with an idle bus) exceeds the blended one.
        assert_eq!(rep.retry_latency.max_ns(), rep.read_latency.max_ns());
        assert_eq!(rep.retry_latency.max_ns(), 608);
        assert!(rep.retry_latency.mean_ns() > rep.read_latency.mean_ns());
        assert_eq!(rep.ecc_corrected_bits, 4);
        assert_eq!(rep.reads_errored, 2);
    }

    #[test]
    fn corrective_rewrites_execute_and_attribute() {
        // Every read escalates, repairs through ECC and schedules a
        // corrective rewrite; one read is detected-uncorrectable and one
        // is silently corrupted, and both must surface in the report.
        struct CorrectiveDevice {
            calls: u64,
        }
        impl DeviceModel for CorrectiveDevice {
            fn on_read(&mut self, _line: u64, _now_s: f64) -> ReadOutcome {
                self.calls += 1;
                ReadOutcome {
                    drift_errors: 5,
                    ecc_corrected_bits: 5,
                    corrective: Some(WriteOutcome::basic(1000, 296, 2, 3.0)),
                    detected_uncorrectable: self.calls == 2,
                    silent_corruption: self.calls == 3,
                    ..ReadOutcome::basic(600, ReadMode::RmRead, 2.2)
                }
            }
            fn on_write(&mut self, _line: u64, _now_s: f64) -> WriteOutcome {
                WriteOutcome::basic(1000, 256, 0, 2.0)
            }
            fn on_scrub(&mut self, _line: u64, _now_s: f64) -> ScrubOutcome {
                ScrubOutcome { read_latency_ns: 150, read_energy_pj: 1.0, rewrite: None }
            }
            fn scrub_interval_s(&self) -> Option<f64> {
                None
            }
        }
        let mut t = Trace::new("t", 1);
        for i in 0..3u64 {
            t.push(0, read(1000 + i * 100_000, i));
        }
        let rep = Simulator::new(cfg()).run(&t, &mut CorrectiveDevice { calls: 0 });
        assert_eq!(rep.corrective_rewrites, 3);
        assert_eq!(rep.cells_written_corrective, 3 * 296);
        assert_eq!(rep.slc_bits_written, 6);
        assert!((rep.energy_corrective_pj - 9.0).abs() < 1e-12);
        assert_eq!(rep.ecc_corrected_bits, 15);
        assert_eq!(rep.detected_uncorrectable, 1);
        assert_eq!(rep.silent_corruptions, 1);
        assert_eq!(rep.cells_written_total(), 3 * 296);
        assert!(rep.energy_total_pj() >= 9.0);
    }

    #[test]
    fn scrub_pointer_wraps_at_last_bank_local_line() {
        // A tiny bank (4 lines) visited many times: every bank's scrub
        // register must walk its local ring in order, visit the *last*
        // local line, and wrap back to 0.
        struct ScrubRecorder {
            visits: Vec<u64>,
        }
        impl DeviceModel for ScrubRecorder {
            fn on_read(&mut self, _line: u64, _now_s: f64) -> ReadOutcome {
                ReadOutcome::basic(150, ReadMode::RRead, 2.0)
            }
            fn on_write(&mut self, _line: u64, _now_s: f64) -> WriteOutcome {
                WriteOutcome::basic(1000, 256, 0, 2.0)
            }
            fn on_scrub(&mut self, line: u64, _now_s: f64) -> ScrubOutcome {
                self.visits.push(line);
                ScrubOutcome { read_latency_ns: 150, read_energy_pj: 1.0, rewrite: None }
            }
            fn scrub_interval_s(&self) -> Option<f64> {
                Some(0.1)
            }
        }
        let mut c = cfg();
        c.lines_per_bank = 4; // scrub period = 0.1 s / 4 lines = 25 ms
        // Sparse reads keep simulated time flowing for ~0.5 s.
        let mut t = Trace::new("t", 1);
        for i in 0..10u64 {
            t.push(0, read(i * 100_000_000, i % 8));
        }
        let mut dev = ScrubRecorder { visits: Vec::new() };
        let rep = Simulator::new(c).run(&t, &mut dev);
        let nb = c.topology.banks_per_channel as u64;
        assert!(rep.scrubs >= 2 * 4 * nb, "need multiple wraps");
        for b in 0..nb {
            let locals: Vec<u64> = dev
                .visits
                .iter()
                .filter(|&&l| l % nb == b)
                .map(|&l| l / nb)
                .collect();
            assert!(locals.len() > 4, "bank {b} barely scrubbed");
            assert!(locals.iter().all(|&l| l < c.lines_per_bank));
            assert!(
                locals.contains(&(c.lines_per_bank - 1)),
                "bank {b} never reached its last local line"
            );
            for w in locals.windows(2) {
                assert_eq!(
                    w[1],
                    (w[0] + 1) % c.lines_per_bank,
                    "bank {b} scrub walk must wrap modulo lines_per_bank"
                );
            }
        }
    }

    #[test]
    fn scrub_tick_with_full_write_queue_defers_and_recovers() {
        // Saturate one bank's write queue (cap 4) so the core stalls, with
        // a scrub cadence fast enough that ticks land while the bank is
        // backlogged. The tick must defer (counted as skipped), demand
        // writes must still drain, and stalled cores must still wake.
        let mut c = cfg();
        c.lines_per_bank = 4; // tick every 2.5 µs at the 1e-5 s interval
        c.scrub_backlog_limit_ns = 0; // any busy bank defers the tick
        let mut t = Trace::new("t", 1);
        for i in 0..12u64 {
            t.push(0, write(1000 + i, 0)); // all to bank 0, cap is 4
        }
        // Keep the clock running long enough for ticks to land after the
        // write burst (~13 µs of backlog) has drained.
        t.push(0, read(2_000_000, 0));
        let mut dev = FixedLatencyDevice::with_latencies(150, 1000).with_scrub(1e-5, true);
        let rep = Simulator::new(c).run(&t, &mut dev);
        assert_eq!(rep.writes, 12, "stalled writes must all retire");
        assert_eq!(rep.reads, 1);
        assert!(
            rep.scrubs_skipped > 0,
            "a tick during the write burst must be deferred, not serviced"
        );
        assert!(rep.scrubs > 0, "later ticks must still scrub");
        // Forced rewrites on every serviced visit keep accounting in sync.
        assert_eq!(rep.scrub_rewrites, rep.scrubs);
    }

    #[test]
    fn telemetry_trace_captures_bank_activity() {
        // Writes (bank spans + queue counters), escalated reads
        // (mode spans + escalation instants + conversions): the drained
        // trace must validate and carry all of them. Tracing never feeds
        // back into the report, so enabling it mid-process is safe even
        // with other tests running.
        readduo_telemetry::set_enabled(true);
        readduo_telemetry::trace::set_run_label("test/engine");
        let mut t = Trace::new("t", 1);
        t.push(0, write(1000, 0));
        t.push(0, read(2000, 0));
        t.push(0, read(100_000, 1));
        let rep = Simulator::new(cfg()).run(&t, &mut ConvertingDevice);
        readduo_telemetry::set_enabled(false);
        let json = readduo_telemetry::export::render_trace();
        let stats = readduo_telemetry::check::validate_chrome_trace(&json)
            .expect("engine trace must validate");
        assert_eq!(rep.reads, 2);
        assert!(stats.spans >= 3, "bank write span + RM read spans: {stats:?}");
        assert!(stats.counters >= 1, "queue-depth samples: {stats:?}");
        assert!(stats.names.contains("escalation"));
        assert!(stats.names.contains("conversion"));
        assert!(stats.names.contains("RM"));
        assert!(stats.process_names.iter().any(|n| n == "test/engine"));
        assert!(stats.thread_names.iter().any(|n| n == "bank 0"));
        assert!(stats.thread_names.iter().any(|n| n == "core 0"));
    }

    #[test]
    fn deterministic_runs() {
        let t = readduo_trace::TraceGenerator::new(3)
            .generate(&readduo_trace::Workload::toy(), 30_000, 2);
        let sim = Simulator::new(cfg());
        let mut d1 = FixedLatencyDevice::ideal();
        let mut d2 = FixedLatencyDevice::ideal();
        assert_eq!(sim.run(&t, &mut d1), sim.run(&t, &mut d2));
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn too_many_trace_cores_rejected() {
        let t = Trace::new("t", 8);
        let mut dev = FixedLatencyDevice::ideal();
        let _ = Simulator::new(cfg()).run(&t, &mut dev);
    }
}

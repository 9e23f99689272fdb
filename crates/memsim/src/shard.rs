//! Sharded multi-channel execution.
//!
//! A [`Topology`] with `channels > 1` splits the machine into fully
//! independent sub-simulations: each channel owns its bus, bank array,
//! write queues, scrub engine and event queue (one `Run` from
//! [`crate::engine`] per channel). Cross-channel traffic does not exist —
//! the address interleave partitions the line space — so channels can be
//! stepped concurrently without any shared simulation state, and the
//! merged report is bit-for-bit independent of the host thread count.
//!
//! # Routing model
//!
//! Each channel sees, per core, the in-order subsequence of that core's
//! ops whose lines it owns, with their instruction counts untouched.
//! Foreign ops contribute only their instruction-count gap: the engine's
//! issue scheduling charges `Δicount` cycles between owned ops, so from
//! one channel's point of view the core retires foreign memory ops at
//! IPC 1. Consequently a full write queue on one channel stalls only the
//! cores *while they issue to that channel* — the decoupled-channel model
//! of a server-scale part, where per-channel controllers do not gate each
//! other. A 1-channel topology routes every op to channel 0 and
//! reproduces the unsharded engine exactly.
//!
//! [`ChannelFilter`] states that subsequence as a filter over a replay of
//! the whole stream. [`Simulator::run_sharded`] builds the same
//! subsequences in one pass instead: it drains the stream once, appending
//! each op to an op log of the channel that owns it, and runs every
//! channel from its own log. A log record is the icount delta from the
//! previous op of the same (channel, core) as a varint, then the
//! channel-local line `line / channels` as a varint whose first byte
//! also carries the op kind.
//! `channel_of(line)` is `line % channels`, so `local × channels +
//! channel` gives the line back exactly, for every `u64` line and any
//! channel count. A channel's log holds its cores' records one core after
//! another, in fixed-size blocks that are never reallocated; a mcf stream
//! takes about 5 bytes per op.
//!
//! # Determinism
//!
//! [`Simulator::run_sharded`] fans channels out on a [`Pool`]; results
//! come back in channel order regardless of completion order, and reports
//! are folded in channel order (see [`SimReport::merge`]), so the merged
//! report is a pure function of `(config, sources, devices)`. Channels
//! share no simulation state — each has its own op log, device and
//! engine — so neither the pool's width nor the order in which channels
//! run can change any channel's report.
//! `oracle::run_sharded_reference` is the differential oracle: the same
//! per-channel engines, each fed by a [`ChannelFilter`] over its own
//! replay instead of a log, run one after another in channel order on
//! the calling thread. The `shard_equivalence` suite pins
//! `run_sharded == run_sharded_reference` across schemes, workloads,
//! channel counts and pool widths.

use crate::config::Topology;
use crate::device::DeviceModel;
use crate::engine::Simulator;
use crate::stats::SimReport;
use readduo_pool::Pool;
use readduo_trace::{MemOp, OpKind, OpSource};

/// An [`OpSource`] adapter that exposes only the ops one channel owns,
/// leaving their instruction counts untouched (foreign ops become plain
/// instructions from this channel's point of view).
#[derive(Debug)]
pub struct ChannelFilter<S> {
    inner: S,
    topo: Topology,
    channel: usize,
}

impl<S: OpSource> ChannelFilter<S> {
    /// Wraps `inner`, keeping only ops of `channel` under `topo`.
    pub fn new(inner: S, topo: Topology, channel: usize) -> Self {
        assert!(channel < topo.channels, "channel {channel} out of range");
        Self { inner, topo, channel }
    }

    /// Consumes foreign ops at the head of `core`'s stream.
    fn skip_foreign(&mut self, core: usize) {
        while let Some(op) = self.inner.peek(core) {
            if self.topo.channel_of(op.line) == self.channel {
                break;
            }
            self.inner.advance(core);
        }
    }
}

impl<S: OpSource> OpSource for ChannelFilter<S> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn peek(&mut self, core: usize) -> Option<MemOp> {
        self.skip_foreign(core);
        self.inner.peek(core)
    }

    fn advance(&mut self, core: usize) {
        self.skip_foreign(core);
        self.inner.advance(core);
    }
}

/// Bytes per op-log block. A block is allocated at full capacity and
/// never grows, so no record is ever copied and no half-used doubled
/// buffer is left behind. The size was chosen by measured peak RSS
/// (DESIGN "One generation per sharded run"): 16 KiB blocks and
/// per-(channel, core) 256 KiB blocks both left the allocator holding far
/// more than the logs.
const LOG_BLOCK: usize = 64 * 1024;

/// Longest record: a 10-byte icount delta plus a 10-byte line-and-kind.
const MAX_RECORD: usize = 20;

/// Appends `v` as a little-endian base-128 varint.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads the varint at `*pos`, advancing past it.
fn get_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Appends a local line and an op kind: the first byte holds the kind in
/// bit 0, the line's low 6 bits above it and a continuation flag in bit
/// 7; the rest of the line follows as a varint. A 1-channel line may use
/// all 64 bits, so the kind cannot simply be shifted into the line.
fn put_line(buf: &mut Vec<u8>, line: u64, kind: OpKind) {
    let rest = line >> 6;
    let more = if rest == 0 { 0 } else { 0x80 };
    buf.push(more | ((line & 0x3F) as u8) << 1 | u8::from(kind == OpKind::Write));
    if rest != 0 {
        put_varint(buf, rest);
    }
}

/// Reads what [`put_line`] wrote at `*pos`, advancing past it.
fn get_line(buf: &[u8], pos: &mut usize) -> (u64, OpKind) {
    let b = buf[*pos];
    *pos += 1;
    let kind = if b & 1 == 0 { OpKind::Read } else { OpKind::Write };
    let mut line = u64::from(b >> 1 & 0x3F);
    if b & 0x80 != 0 {
        line |= get_varint(buf, pos) << 6;
    }
    (line, kind)
}

/// One channel's ops: every core's records, core after core, as varints
/// in [`LOG_BLOCK`] blocks.
#[derive(Debug, Default)]
struct ChannelLog {
    blocks: Vec<Vec<u8>>,
    /// Where each core's records start.
    cores: Vec<CoreCursor>,
    /// Icount of the last op appended: the base of the next delta.
    last_icount: u64,
}

impl ChannelLog {
    /// Starts the records of the next core.
    fn begin_core(&mut self) {
        let (block, pos) = self.blocks.last().map_or((0, 0), |b| (self.blocks.len() - 1, b.len()));
        self.cores.push(CoreCursor { block, pos, left: 0, icount: 0, head: None });
        self.last_icount = 0;
    }

    /// Appends an op of the current core.
    fn push(&mut self, icount: u64, local_line: u64, kind: OpKind) {
        if self.blocks.last().is_none_or(|b| b.capacity() - b.len() < MAX_RECORD) {
            self.blocks.push(Vec::with_capacity(LOG_BLOCK));
        }
        let block = self.blocks.last_mut().expect("a block with room was just ensured");
        put_varint(block, icount.wrapping_sub(self.last_icount));
        put_line(block, local_line, kind);
        self.last_icount = icount;
        self.cores.last_mut().expect("begin_core precedes push").left += 1;
    }
}

/// One core's read position in a [`ChannelLog`], with its decoded head.
#[derive(Debug)]
struct CoreCursor {
    block: usize,
    pos: usize,
    /// Records not yet decoded.
    left: u64,
    icount: u64,
    head: Option<MemOp>,
}

/// An [`OpSource`] over one channel's op log: op for op what a
/// [`ChannelFilter`] over the whole stream yields for that channel.
#[derive(Debug)]
struct LogCursor {
    channels: u64,
    channel: u64,
    blocks: Vec<Vec<u8>>,
    cores: Vec<CoreCursor>,
}

impl LogCursor {
    fn new(topo: Topology, channel: usize, log: ChannelLog) -> Self {
        let mut cursor = Self {
            channels: topo.channels as u64,
            channel: channel as u64,
            blocks: log.blocks,
            cores: log.cores,
        };
        for core in 0..cursor.cores.len() {
            cursor.decode(core);
        }
        cursor
    }

    /// Decodes `core`'s next record into its head (`None` at the end, and
    /// from then on).
    fn decode(&mut self, core: usize) {
        let c = &mut self.cores[core];
        if c.left == 0 {
            c.head = None;
            return;
        }
        c.left -= 1;
        if c.pos == self.blocks[c.block].len() {
            c.block += 1;
            c.pos = 0;
        }
        let buf = &self.blocks[c.block];
        c.icount = c.icount.wrapping_add(get_varint(buf, &mut c.pos));
        let (local, kind) = get_line(buf, &mut c.pos);
        c.head = Some(MemOp { icount: c.icount, line: local * self.channels + self.channel, kind });
    }
}

impl OpSource for LogCursor {
    fn cores(&self) -> usize {
        self.cores.len()
    }

    fn peek(&mut self, core: usize) -> Option<MemOp> {
        self.cores[core].head
    }

    fn advance(&mut self, core: usize) {
        self.decode(core);
    }
}

/// Drains `source` once into one op log per channel of `topo`.
fn drain_into_logs<S: OpSource>(mut source: S, topo: Topology) -> Vec<ChannelLog> {
    let channels = topo.channels as u64;
    let mut logs: Vec<ChannelLog> = (0..topo.channels).map(|_| ChannelLog::default()).collect();
    for core in 0..source.cores() {
        logs.iter_mut().for_each(ChannelLog::begin_core);
        while let Some(op) = source.peek(core) {
            logs[topo.channel_of(op.line)].push(op.icount, op.line / channels, op.kind);
            source.advance(core);
        }
    }
    logs
}

impl Simulator {
    /// Runs all channels of the topology in parallel on `pool` and returns
    /// the merged report, [published](SimReport::publish) once per run.
    ///
    /// `source_for(0)` is called once, for a replay of the whole op
    /// stream. The run drains it into one op log per channel (see the
    /// [module docs](self)) and then runs each channel from its own log,
    /// one channel per pool task, dropping the log when the channel
    /// finishes. The logs hold the whole stream at about 5 bytes per op
    /// (mcf) until their channels run; a streamed single-channel run
    /// ([`Simulator::run_source`]) holds only its source's buffer.
    /// `device_for(ch)` builds channel `ch`'s device — schemes derive
    /// per-channel RNG seeds so channels draw independent noise.
    ///
    /// The merged report is identical at any pool size, including
    /// sequential execution, and identical to the sequential oracle
    /// `readduo_memsim::oracle::run_sharded_reference`.
    pub fn run_sharded<S, D, FS, FD>(&self, pool: &Pool, source_for: FS, device_for: FD) -> SimReport
    where
        S: OpSource,
        D: DeviceModel,
        FS: Fn(usize) -> S + Sync,
        FD: Fn(usize) -> D + Sync,
    {
        let topo = self.config().topology;
        let logs = drain_into_logs(source_for(0), topo);
        let reports = pool.map(logs, |ch, log| {
            let mut source = LogCursor::new(topo, ch, log);
            let mut device = device_for(ch);
            self.channel_run(ch, &mut source, &mut device).execute()
        });
        let report = SimReport::merged(&reports);
        report.publish();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;
    use crate::device::FixedLatencyDevice;
    use crate::oracle::run_sharded_reference;
    use readduo_trace::{Trace, TraceCursor, TraceGenerator, Workload};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn trace() -> readduo_trace::Trace {
        TraceGenerator::new(7).generate(&Workload::toy(), 30_000, 2)
    }

    /// The filter partitions each core's stream: concatenating the ops the
    /// channels see, sorted back into stream order, recovers the original
    /// stream — same ops, same icounts.
    #[test]
    fn channel_filter_partitions_streams() {
        let t = trace();
        let topo = Topology { channels: 4, banks_per_channel: 2 };
        for core in 0..t.cores() {
            let mut seen: Vec<(u64, MemOp)> = Vec::new();
            for ch in 0..topo.channels {
                let mut f = ChannelFilter::new(TraceCursor::new(&t), topo, ch);
                let mut idx = 0u64;
                while let Some(op) = f.peek(core) {
                    assert_eq!(topo.channel_of(op.line), ch, "foreign op leaked through");
                    assert_eq!(op, f.peek(core).expect("peek is idempotent"));
                    seen.push((op.icount, op));
                    f.advance(core);
                    idx += 1;
                }
                assert!(idx <= t.stream(core).len() as u64);
            }
            seen.sort_by_key(|&(ic, op)| (ic, op.line));
            let mut original: Vec<(u64, MemOp)> =
                t.stream(core).iter().map(|&op| (op.icount, op)).collect();
            original.sort_by_key(|&(ic, op)| (ic, op.line));
            assert_eq!(seen, original, "core {core} partition must be lossless");
        }
    }

    /// Every channel's op log reads back op for op what a `ChannelFilter`
    /// over the whole stream yields, `None` at each core's end included,
    /// on streams built to reach the encoding's edges: an empty core, a
    /// core long enough to cross blocks on every channel (so later cores
    /// start mid-block), icount gaps of 0, 1 and 2^32 up to `u64::MAX`,
    /// lines 0, `channels − 1`, 2^63 and `u64::MAX`, both op kinds, and a
    /// core that stays on one channel.
    #[test]
    fn op_log_round_trips_every_channel() {
        let op = |icount, line, kind| MemOp { icount, line, kind };
        let (r, w) = (OpKind::Read, OpKind::Write);
        for channels in [1usize, 3, 8] {
            let c = channels as u64;
            let topo = Topology { channels, banks_per_channel: 2 };
            // Core 0 has no ops.
            let mut t = Trace::new("edges", 4);
            // Core 1: records of 15 bytes and more, scattered over channels.
            for i in 0..200_000u64 {
                let kind = if i % 3 == 0 { w } else { r };
                t.push(1, op(i << 40, i.wrapping_mul(0x9E37_79B9_7F4A_7C15), kind));
            }
            // Core 2: gaps 0, 1 and 2^32, then the last icount there is.
            for (icount, line, kind) in [
                (0, 0, r),
                (0, c - 1, w),
                (1, 1 << 63, r),
                (1 + (1 << 32), u64::MAX, w),
                (u64::MAX, (1 << 63) + 1, r),
                (u64::MAX, u64::MAX, r),
            ] {
                t.push(2, op(icount, line, kind));
            }
            // Core 3 stays on channel 0, out to its largest line.
            for (icount, line) in [(0, 0), (0, c), (1, 5 * c), (1 << 32, u64::MAX / c * c)] {
                t.push(3, op(icount, line, w));
            }
            let logs = drain_into_logs(TraceCursor::new(&t), topo);
            assert!(
                logs.iter().all(|log| log.blocks.len() > 1),
                "channels={channels}: every channel's log must cross a block boundary"
            );
            for (ch, log) in logs.into_iter().enumerate() {
                let mut want = ChannelFilter::new(TraceCursor::new(&t), topo, ch);
                let mut got = LogCursor::new(topo, ch, log);
                assert_eq!(got.cores(), t.cores());
                for core in 0..t.cores() {
                    loop {
                        let head = want.peek(core);
                        assert_eq!(got.peek(core), head, "channels={channels} ch={ch} core={core}");
                        if head.is_none() {
                            break;
                        }
                        want.advance(core);
                        got.advance(core);
                    }
                    got.advance(core);
                    assert_eq!(got.peek(core), None, "advancing past the end is a no-op");
                }
            }
        }
    }

    /// With one channel the filter is a no-op and the sharded paths equal
    /// the plain engine bit-for-bit.
    #[test]
    fn one_channel_sharded_equals_plain_run() {
        let t = trace();
        let sim = Simulator::new(MemoryConfig::small_test());
        let mut dev = FixedLatencyDevice::ideal();
        let plain = sim.run(&t, &mut dev);
        let sharded = sim.run_sharded(
            &Pool::new(2),
            |_| TraceCursor::new(&t),
            |_| FixedLatencyDevice::ideal(),
        );
        let reference =
            run_sharded_reference(&sim, |_| TraceCursor::new(&t), |_| FixedLatencyDevice::ideal());
        assert_eq!(plain, sharded);
        assert_eq!(plain, reference);
    }

    /// Multi-channel: parallel and sequential-reference execution agree
    /// bit-for-bit, with and without a scrubbing device.
    #[test]
    fn sharded_equals_reference_across_channels() {
        let t = trace();
        for channels in [2usize, 3, 8] {
            let mut cfg = MemoryConfig::small_test().with_channels(channels);
            // Small banks keep the scrub tick period (interval / lines_per_bank)
            // at ~3 µs, so ticks fire during the run while scrub+rewrite work
            // (1150 ns) stays well under the bank's capacity. Oversubscribing a
            // bank with scrub work is a livelock: queued writes only start once
            // `busy_until` catches up to `now`, which never happens then.
            cfg.lines_per_bank = 64;
            let sim = Simulator::new(cfg);
            for scrub in [false, true] {
                let device = move |_ch: usize| {
                    let d = FixedLatencyDevice::with_latencies(150, 1000);
                    if scrub { d.with_scrub(2e-4, true) } else { d }
                };
                let reference = run_sharded_reference(&sim, |_| TraceCursor::new(&t), device);
                for workers in [1usize, 4] {
                    let calls = AtomicUsize::new(0);
                    let source_for = |_| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        TraceCursor::new(&t)
                    };
                    let sharded = sim.run_sharded(&Pool::new(workers), source_for, device);
                    assert_eq!(
                        sharded, reference,
                        "channels={channels} scrub={scrub} workers={workers}"
                    );
                    assert_eq!(
                        calls.into_inner(),
                        1,
                        "channels={channels} workers={workers}: the stream must be generated once"
                    );
                }
                assert!(reference.reads > 0);
                if scrub {
                    assert!(
                        reference.scrubs + reference.scrubs_skipped > 0,
                        "scrub device never ticked — the scrub path went untested"
                    );
                }
            }
        }
    }
}

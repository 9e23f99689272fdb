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
//! Each core's in-order op stream is replayed once *per channel* through a
//! [`ChannelFilter`], which skips every op the channel does not own.
//! Foreign ops contribute only their instruction-count gap: the engine's
//! issue scheduling charges `Δicount` cycles between owned ops, so from
//! one channel's point of view the core retires foreign memory ops at
//! IPC 1. Consequently a full write queue on one channel stalls only the
//! cores *while they issue to that channel* — the decoupled-channel model
//! of a server-scale part, where per-channel controllers do not gate each
//! other. A 1-channel topology filters nothing and reproduces the
//! unsharded engine exactly.
//!
//! # Determinism
//!
//! [`Simulator::run_sharded`] fans channels out on a [`Pool`]; results
//! come back in channel order regardless of completion order, and reports
//! are folded in channel order (see [`SimReport::merge`]), so the merged
//! report is a pure function of `(config, sources, devices)`.
//! `oracle::run_sharded_reference` is the differential oracle: the same
//! per-channel engines stepped one event at a time on the calling thread,
//! in exact `(at, channel, seq)` order — earliest event time first, ties
//! to the lowest channel, per-channel insertion order within a channel
//! (the rule of [`earliest_lane`](crate::sched::earliest_lane)). The
//! `shard_equivalence` suite pins `run_sharded == run_sharded_reference`
//! across schemes, workloads, channel counts and host thread counts.

use crate::config::Topology;
use crate::device::DeviceModel;
use crate::engine::Simulator;
use crate::stats::SimReport;
use readduo_pool::Pool;
use readduo_trace::{MemOp, OpSource};

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

impl Simulator {
    /// Runs all channels of the topology in parallel on `pool` and returns
    /// the merged report, [published](SimReport::publish) once per run.
    ///
    /// `source_for(ch)` must return a *fresh* replay of the whole op
    /// stream for every channel (each channel filters out the ops it does
    /// not own); `device_for(ch)` builds that channel's device — schemes
    /// derive per-channel RNG seeds so channels draw independent noise.
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
        let reports = pool.map((0..topo.channels).collect(), |_, ch| {
            let mut source = ChannelFilter::new(source_for(ch), topo, ch);
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
    use readduo_trace::{TraceCursor, TraceGenerator, Workload};

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
                    let sharded =
                        sim.run_sharded(&Pool::new(workers), |_| TraceCursor::new(&t), device);
                    assert_eq!(
                        sharded, reference,
                        "channels={channels} scrub={scrub} workers={workers}"
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

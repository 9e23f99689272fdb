//! The sequential differential oracle of the sharded engine.
//!
//! Hidden from the docs: it is test support, not an engine path. The
//! production runs are [`Simulator::run`], [`Simulator::run_source`] and
//! [`Simulator::run_sharded`].

use crate::device::DeviceModel;
use crate::engine::{Run, Simulator};
use crate::sched::earliest_lane;
use crate::shard::ChannelFilter;
use crate::stats::SimReport;
use readduo_trace::OpSource;

/// The sequential oracle for [`Simulator::run_sharded`]: the same
/// per-channel engines, stepped one event at a time in global
/// `(at, channel, seq)` order ([`earliest_lane`]) on the calling thread.
pub fn run_sharded_reference<S, D, FS, FD>(
    sim: &Simulator,
    source_for: FS,
    device_for: FD,
) -> SimReport
where
    S: OpSource,
    D: DeviceModel,
    FS: Fn(usize) -> S,
    FD: Fn(usize) -> D,
{
    let topo = sim.config().topology;
    let mut sources: Vec<ChannelFilter<S>> = (0..topo.channels)
        .map(|ch| ChannelFilter::new(source_for(ch), topo, ch))
        .collect();
    let mut devices: Vec<D> = (0..topo.channels).map(device_for).collect();
    let mut runs: Vec<Run<'_, D, ChannelFilter<S>>> = sources
        .iter_mut()
        .zip(devices.iter_mut())
        .enumerate()
        .map(|(ch, (s, d))| sim.channel_run(ch, s, d))
        .collect();
    for r in &mut runs {
        r.seed();
    }
    while let Some(ch) = earliest_lane(runs.iter().map(Run::next_at)) {
        runs[ch].step();
    }
    let reports: Vec<SimReport> = runs.into_iter().map(Run::finish).collect();
    SimReport::merged(&reports)
}

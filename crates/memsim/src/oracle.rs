//! The sequential differential oracle of the sharded engine.
//!
//! Hidden from the docs: it is test support, not an engine path. The
//! production runs are [`Simulator::run`], [`Simulator::run_source`] and
//! [`Simulator::run_sharded`].

use crate::device::DeviceModel;
use crate::engine::Simulator;
use crate::shard::ChannelFilter;
use crate::stats::SimReport;
use readduo_trace::OpSource;

/// The sequential oracle for [`Simulator::run_sharded`]: each channel's
/// engine, fed by a [`ChannelFilter`] over its own replay of the stream,
/// runs to completion in channel order on the calling thread, and the
/// reports merge in channel order.
///
/// Channels share no simulation state (each has its own replay, device
/// and engine), so running them one after another gives every channel
/// the report that any interleaving of their events would.
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
    let reports: Vec<SimReport> = (0..topo.channels)
        .map(|ch| {
            let mut source = ChannelFilter::new(source_for(ch), topo, ch);
            let mut device = device_for(ch);
            sim.channel_run(ch, &mut source, &mut device).execute()
        })
        .collect();
    SimReport::merged(&reports)
}

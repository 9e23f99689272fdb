//! The four workloads: what each simulates and how one pass runs it.
//!
//! A *pass* is one complete execution of a workload — every simulation it
//! names, each against a freshly built device. Timed passes run exactly
//! what a user of the figure binaries waits on; the traced ledger
//! re-runs the same simulations with the layers pulled apart.

use crate::api::{self, Device, DeviceModel, SchemeKind, SimReport, Simulator, Trace, Workload};
use std::hint::black_box;

/// Pool width of the sharded workload's cross-check pass. Every timed
/// pass runs on one thread: on a small shared host a second busy thread
/// measures the neighbours' load more than the simulator.
pub const CROSS_CHECK_WIDTH: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Figure 9: 6 headline schemes × 14 SPEC2006 workloads.
    Fig9,
    /// LWT-4 on mcf over an 8-channel topology, streamed channel by channel.
    Shard8,
    /// Select-4:2 on mcf with fault injection and accelerated wear.
    Worn,
    /// A DRAM migration tier over the headline schemes on mcf and lbm.
    Tiered,
}

impl Kind {
    /// Every workload, in the order `--bless` and the README list them.
    pub const ALL: [Kind; 4] = [Kind::Fig9, Kind::Shard8, Kind::Worn, Kind::Tiered];

    /// The workload's name on the command line and in every record.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig9 => "fig9_10m",
            Kind::Shard8 => "shard8_stream",
            Kind::Worn => "worn_mcf",
            Kind::Tiered => "tiered_mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Instructions per core at the benchmark's volume.
    pub fn instructions(self) -> u64 {
        match self {
            Kind::Fig9 | Kind::Tiered => 10_000_000,
            Kind::Shard8 => 40_000_000,
            Kind::Worn => 1_000_000,
        }
    }

    /// Channels of the simulated memory system.
    fn channels(self) -> usize {
        if self == Kind::Shard8 {
            8
        } else {
            1
        }
    }
}

/// One simulation of a pass.
#[derive(Debug, Clone)]
pub struct Sim {
    /// The SPEC2006 workload whose trace it replays.
    pub w: Workload,
    /// The readout scheme of its device.
    pub scheme: SchemeKind,
}

impl Sim {
    /// `workload/scheme`, the key of its reference digest.
    pub fn label(&self) -> String {
        format!("{}/{}", self.w.name, self.scheme)
    }
}

/// Where a simulation reads its ops from.
pub enum Source<'a> {
    /// A trace materialised once and shared by the group's schemes.
    Trace(&'a Trace),
    /// One fresh stream per channel, regenerated chunk by chunk.
    Stream,
}

impl Source<'_> {
    /// Ops a simulation of this source must retire, when known without
    /// draining the source.
    pub fn ops(&self) -> Option<u64> {
        match self {
            Source::Trace(t) => Some(t.total_ops() as u64),
            Source::Stream => None,
        }
    }
}

/// One simulation's result within a pass.
#[derive(Debug, Clone)]
pub struct Run {
    /// [`Sim::label`].
    pub label: String,
    /// The simulator's report.
    pub report: SimReport,
    /// [`Source::ops`] of the source it ran on.
    pub ops: Option<u64>,
}

/// A workload at one seed and volume.
pub struct Plan {
    /// Which workload.
    pub kind: Kind,
    /// Seed of the traces and of every device's RNG streams.
    pub seed: u64,
    /// Instructions per core.
    pub instr: u64,
    sim: Simulator,
    /// Simulations grouped by the workload trace they share, in pass order.
    groups: Vec<(Workload, Vec<SchemeKind>)>,
}

impl Plan {
    /// The workload at its benchmark volume.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Self::with_volume(kind, seed, kind.instructions())
    }

    /// The workload at `instr` instructions per core (tests run tiny
    /// volumes of the same simulations).
    pub fn with_volume(kind: Kind, seed: u64, instr: u64) -> Self {
        let groups = match kind {
            Kind::Fig9 => api::spec2006()
                .into_iter()
                .map(|w| (w, api::headline()))
                .collect(),
            Kind::Shard8 => vec![(api::workload("mcf"), vec![SchemeKind::Lwt { k: 4 }])],
            Kind::Worn => vec![(
                api::workload("mcf"),
                vec![SchemeKind::Select { k: 4, s: 2 }],
            )],
            Kind::Tiered => ["mcf", "lbm"]
                .into_iter()
                .map(|name| (api::workload(name), api::headline()))
                .collect(),
        };
        Self {
            kind,
            seed,
            instr,
            sim: api::simulator(kind.channels()),
            groups,
        }
    }

    /// Channels of the simulated memory system.
    pub fn channels(&self) -> usize {
        self.kind.channels()
    }

    /// Whether a DRAM tier sits in front of every scheme device.
    pub fn tiered(&self) -> bool {
        self.kind == Kind::Tiered
    }

    /// Every simulation of a pass, in pass order.
    pub fn sims(&self) -> Vec<Sim> {
        self.groups
            .iter()
            .flat_map(|(w, schemes)| {
                schemes.iter().map(|&scheme| Sim {
                    w: w.clone(),
                    scheme,
                })
            })
            .collect()
    }

    /// The SPEC2006 workloads of a pass, one per shared trace.
    pub fn workloads(&self) -> impl Iterator<Item = &Workload> {
        self.groups.iter().map(|(w, _)| w)
    }

    /// The scheme device of `sim` on `channel`, without the DRAM tier.
    pub fn inner_device(&self, sim: &Sim, channel: usize) -> Device {
        match self.kind {
            Kind::Worn => api::worn_device(sim.scheme, self.seed, &sim.w),
            _ => api::plain_device(sim.scheme, self.seed, &sim.w, channel),
        }
    }

    /// The complete device of `sim` on `channel`.
    pub fn device(&self, sim: &Sim, channel: usize) -> Device {
        self.device_with(sim, channel, |inner| inner)
    }

    /// [`device`](Self::device) with `wrap` applied to the scheme device
    /// before the DRAM tier goes on top.
    pub fn device_with(
        &self,
        sim: &Sim,
        channel: usize,
        wrap: impl FnOnce(Device) -> Device,
    ) -> Device {
        let inner = wrap(self.inner_device(sim, channel));
        if self.tiered() {
            Box::new(api::tiered(inner, self.seed))
        } else {
            inner
        }
    }

    /// Visits every sim in pass order with the source it reads; each
    /// group's trace is generated once, as the streamed figure matrix does
    /// for every trace under its memory budget.
    pub fn for_each_sim(&self, mut f: impl FnMut(&Source, &Sim)) {
        for (w, schemes) in &self.groups {
            let trace =
                (self.kind != Kind::Shard8).then(|| api::generate(self.seed, w, self.instr));
            let source = match &trace {
                Some(t) => Source::Trace(t),
                None => Source::Stream,
            };
            for &scheme in schemes {
                f(
                    &source,
                    &Sim {
                        w: w.clone(),
                        scheme,
                    },
                );
            }
        }
    }

    /// Runs `sim` on `source` against devices from `device_for`.
    pub fn simulate<D: DeviceModel>(
        &self,
        source: &Source,
        sim: &Sim,
        width: usize,
        device_for: impl Fn(usize) -> D + Sync,
    ) -> SimReport {
        match source {
            Source::Trace(t) => api::run(&self.sim, t, &mut device_for(0)),
            Source::Stream => api::run_sharded(
                &self.sim,
                width,
                |_| api::stream(self.seed, &sim.w, self.instr),
                device_for,
            ),
        }
    }

    /// One pass on a pool of `width` threads.
    pub fn pass(&self, width: usize) -> Vec<Run> {
        let mut runs = Vec::new();
        self.for_each_sim(|source, sim| {
            let report = self.simulate(source, sim, width, |ch| self.device(sim, ch));
            runs.push(Run {
                label: sim.label(),
                report,
                ops: source.ops(),
            });
        });
        runs
    }

    /// Runs `sim` against a chunk-by-chunk stream instead of the shared
    /// trace (single-channel workloads only).
    pub fn streamed(&self, sim: &Sim) -> SimReport {
        let mut source = api::stream(self.seed, &sim.w, self.instr);
        api::run_source(&self.sim, &mut source, &mut self.device(sim, 0))
    }

    /// Builds, then drops, every device a pass uses: the set-up cost a
    /// fresh process pays before its first simulation.
    pub fn build_devices(&self) {
        for sim in self.sims() {
            for ch in 0..self.channels() {
                drop(black_box(self.device(&sim, ch)));
            }
        }
    }

    /// Builds one device per scheme of the first group, so state the
    /// devices tabulate lazily once per process (the drift curves) exists
    /// before the first timed pass.
    pub fn warm(&self) {
        for sim in self.sims().iter().take(self.groups[0].1.len()) {
            drop(black_box(self.device(sim, 0)));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Instructions per core of the tiny test volume.
    pub(crate) const TINY: u64 = 20_000;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("fig9"), None);
    }

    #[test]
    fn passes_cover_the_issued_simulations() {
        let count = |k| Plan::with_volume(k, 1, TINY).sims().len();
        assert_eq!(count(Kind::Fig9), 84);
        assert_eq!(count(Kind::Shard8), 1);
        assert_eq!(count(Kind::Worn), 1);
        assert_eq!(count(Kind::Tiered), 12);
    }
}

//! Event-driven multi-core memory-system simulator.
//!
//! This is the reproduction of the paper's "in-house memory system
//! simulator, which models the entire memory hierarchy, the memory
//! controller and PCM based main memory" (Section IV), including:
//!
//! * a 4-core **in-order CPU** front end consuming per-core trace streams —
//!   reads block the issuing core, writes post to the controller,
//! * a **memory controller** with per-bank write queues, read priority, and
//!   **write cancellation** \[18\] (an in-flight demand write is cancelled
//!   and re-queued when a read arrives for its bank),
//! * **banked PCM** with per-bank busy intervals and a shared-per-bank data
//!   bus term, giving bank conflicts and bus contention,
//! * a **scrub engine** that walks each bank's lines at the configured
//!   `lines / S` cadence, occupying the bank for the scrub read (and the
//!   rewrite, when the scheme orders one),
//! * **energy** and **lifetime (cell-write)** accounting.
//!
//! The PCM behaviour itself — sensing mode selection, drift-error handling,
//! scrub decisions — is delegated to a [`DeviceModel`], implemented for
//! each scheme in `readduo-core`. This crate ships a simple
//! [`FixedLatencyDevice`] used for engine tests and as the *Ideal*
//! (drift-free) baseline.
//!
//! # Example
//!
//! ```
//! use readduo_memsim::{FixedLatencyDevice, MemoryConfig, Simulator};
//! use readduo_trace::{TraceGenerator, Workload};
//!
//! let trace = TraceGenerator::new(1).generate(&Workload::toy(), 50_000, 2);
//! let cfg = MemoryConfig::paper();
//! let mut device = FixedLatencyDevice::ideal();
//! let report = Simulator::new(cfg).run(&trace, &mut device);
//! assert!(report.exec_ns > 0);
//! assert_eq!(report.reads + report.writes, trace.total_ops() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod device;
pub mod engine;
#[doc(hidden)]
pub mod oracle;
pub mod sched;
pub mod shard;
pub mod stats;

pub use config::{EnergyModel, LineAddr, MemoryConfig, Topology};
pub use device::{
    DeviceModel, FixedLatencyDevice, ReadMode, ReadOutcome, ScrubOutcome, TierOutcome,
    WriteOutcome,
};
pub use engine::Simulator;
pub use sched::EventQueue;
pub use shard::ChannelFilter;
pub use stats::{LatencySummary, SimReport};

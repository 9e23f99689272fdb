//! The ReadDuo schemes — the paper's contribution.
//!
//! ReadDuo makes MLC PCM readout both *fast* and *drift-robust* by
//! combining the two sensing circuits and being smart about when each is
//! safe:
//!
//! 1. **ReadDuo-Hybrid** ([`HybridScheme`]): read with fast R-sensing;
//!    decouple the BCH-8 code's detection (≤17 errors) from its correction
//!    (≤8) and re-read with drift-proof M-sensing only in the 9–17 band.
//!    A `W = 0` scrub every 640 s keeps every line young enough that the
//!    >17 band stays below the DRAM reliability target.
//! 2. **ReadDuo-LWT-k** ([`LwtScheme`]): replace the blanket rewrites with
//!    per-line last-write tracking ([`flags::LwtFlags`]) so scrubbing can
//!    use `W = 1`; reads of un-tracked lines fall back to M-sensing, and a
//!    dynamic controller ([`conversion::ConversionController`]) converts a
//!    tunable fraction of those into redundant writes that re-enable fast
//!    reads.
//! 3. **ReadDuo-Select-(k:s)** ([`LwtScheme::select`]): additionally turn
//!    most full-line writes into differential writes — safe because the
//!    tracking already knows how long ago the last *full* write was.
//!
//! Baselines: [`ScrubbingScheme`] \[2\], [`MMetricScheme`] \[23\],
//! [`TlcScheme`] \[26\], and drift-free Ideal
//! ([`readduo_memsim::FixedLatencyDevice::ideal`]).
//!
//! The [`area`] and [`edap`] modules provide the density and
//! Energy-Delay-Area-Product models of Figure 11 and Table VII.
//!
//! # Example
//!
//! ```
//! use readduo_core::{SchemeKind};
//! use readduo_memsim::{MemoryConfig, Simulator};
//! use readduo_trace::{TraceGenerator, Workload};
//!
//! let trace = TraceGenerator::new(1).generate(&Workload::toy(), 20_000, 2);
//! let sim = Simulator::new(MemoryConfig::small_test());
//! let mut ideal = SchemeKind::Ideal.build(7);
//! let mut lwt = SchemeKind::Lwt { k: 4 }.build(7);
//! let a = sim.run(&trace, ideal.as_mut());
//! let b = sim.run(&trace, lwt.as_mut());
//! assert!(b.exec_ns >= a.exec_ns, "Ideal is a lower bound");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod common;
pub mod conversion;
pub mod edap;
pub mod fault;
pub mod flags;
pub mod linestate;
pub mod scheme;
pub mod schemes;
pub mod wear;

pub use area::{LineStorage, SubarrayArea};
pub use conversion::ConversionController;
pub use edap::EdapInputs;
pub use fault::{FaultInjector, InjectedRead};
pub use flags::LwtFlags;
pub use linestate::{LineState, LineTable};
pub use scheme::{channel_seed, DeviceSpec, SchemeKind, SpecError};
pub use schemes::{HybridScheme, LwtScheme, MMetricScheme, ScrubbingScheme, TlcScheme};
pub use wear::{WearConfig, WearTable};

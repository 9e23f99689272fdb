//! # ReadDuo — reliable MLC PCM through fast and robust hybrid readout
//!
//! This is the facade crate of a full reproduction of *ReadDuo: Constructing
//! Reliable MLC Phase Change Memory through Fast and Robust Readout*
//! (DSN 2016). It re-exports every sub-crate of the workspace so examples
//! and downstream users need a single dependency:
//!
//! * [`math`] — special functions, log-space probability, quadrature,
//! * [`pcm`] — MLC and TLC cell physics and the drift model,
//! * [`ecc`] — the BCH codec,
//! * [`trace`] — synthetic SPEC2006-like memory traces,
//! * [`memsim`] — the event-driven multi-core memory-system simulator,
//! * [`dram`] — the hybrid DRAM–PCM migration tier (hardware-managed
//!   cache with drift-age reset on demotion),
//! * [`core`] — the ReadDuo schemes (Hybrid, LWT-k, Select-(k:s)) and
//!   baselines (Ideal, Scrubbing, M-metric, TLC),
//! * [`reliability`] — the analytic drift reliability engine.
//!
//! ## Quickstart
//!
//! ```
//! use readduo::prelude::*;
//! use readduo_rng::{rngs::StdRng, SeedableRng};
//!
//! // Sense a freshly written 64-byte line with the fast R-metric.
//! let cfg = MetricConfig::r_metric();
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut line = MlcLine::new(64);
//! line.program(&[0x5Au8; 64], &cfg, &mut rng);
//! assert_eq!(line.sense(1.0, &cfg).drift_errors, 0);
//! ```
//!
//! See `examples/` for end-to-end scheme comparisons and the
//! `readduo-bench` binaries for the per-table/per-figure reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use readduo_core as core;
pub use readduo_dram as dram;
pub use readduo_ecc as ecc;
pub use readduo_math as math;
pub use readduo_memsim as memsim;
pub use readduo_pcm as pcm;
pub use readduo_reliability as reliability;
pub use readduo_rng as rng;
pub use readduo_trace as trace;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use readduo_ecc::Bch;
    pub use readduo_math::{LogProb, Normal, TruncatedNormal};
    pub use readduo_memsim::{MemoryConfig, SimReport, Simulator};
    pub use readduo_pcm::{CellLevel, MetricConfig, MlcLine, SenseTiming, TlcConfig};
    pub use readduo_reliability::{CellErrorModel, LerAnalysis, ScrubPolicy};
    pub use readduo_trace::{Trace, TraceGenerator, Workload};
}

//! MLC phase-change-memory cell physics for the ReadDuo reproduction.
//!
//! This crate is the paper's Section II turned into code:
//!
//! * [`state`] — the four storage levels of a 2-bit MLC cell and their data
//!   encoding (Table I: level 0 ↔ `01`, 1 ↔ `11`, 2 ↔ `10`, 3 ↔ `00`),
//! * [`params`] — the R-metric (Table I) and M-metric (Table II) resistance
//!   distributions and drift-coefficient statistics,
//! * [`drift`] — the empirical power-law drift model `X(t) = X₀·(t/t₀)^α`
//!   (Equations 1 and 2) in log₁₀ space,
//! * [`cell`]/[`line`](mod@line) — Monte-Carlo cell and 256-cell (64 B) line
//!   models: the ground truth the analytic reliability model is checked
//!   against (the simulator's schemes draw drift from the analytic curves,
//!   not from these),
//! * [`sensing`] — R-sensing (current mode) and M-sensing (voltage mode)
//!   with the two-round reference comparison and the paper's latencies,
//! * [`fault`] and [`wear`] — per-read drift-fault sampling and per-cell
//!   endurance for the fault-injected and worn read paths.
//!
//! # Example
//!
//! ```
//! use readduo_pcm::{MetricConfig, MlcLine};
//! use readduo_rng::{rngs::StdRng, SeedableRng};
//!
//! let cfg = MetricConfig::r_metric();
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut line = MlcLine::new(64); // 64 bytes = 256 cells
//! let data = vec![0xA5u8; 64];
//! line.program(&data, &cfg, &mut rng);
//! // Immediately after the write nothing has drifted:
//! let sensed = line.sense(1.0, &cfg);
//! assert_eq!(sensed.data, data);
//! assert_eq!(sensed.drift_errors, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod drift;
pub mod fault;
pub mod line;
pub mod params;
pub mod sensing;
pub mod state;
pub mod wear;

pub use cell::MlcCell;
pub use drift::{drift_exponent, log_metric_at, log_metric_at_u};
pub use fault::{FaultModel, LineFaults};
pub use line::{MlcLine, SensedLine};
pub use params::{LevelParams, MetricConfig, MetricKind, CELLS_PER_LINE, LINE_BYTES};
pub use sensing::{DeviceParams, SenseTiming};
pub use state::CellLevel;
pub use wear::{WearModel, ENDURANCE_MEDIAN_DEFAULT, ENDURANCE_SIGMA_LN};

//! Analytic drift-reliability engine.
//!
//! This crate turns the paper's Section III-A into code: given the Table
//! I/II drift models it computes
//!
//! * the probability that a single cell has drifted across its sensing
//!   reference `Δt` seconds after its write ([`CellErrorModel`]),
//! * the **line error rate** — the probability a 256-cell (512-bit) line
//!   accumulates more than `E` drift errors within a scrub interval
//!   ([`LerAnalysis`], reproducing Tables III and IV),
//! * the multi-interval safety conditions (ii)/(iii) that decide whether a
//!   `W = 1` scrub policy (skip rewriting error-free lines) is safe
//!   ([`conditions`], reproducing Table V),
//! * the DRAM-equivalent reliability target (25 FIT/Mbit) the whole design
//!   is calibrated against ([`target`]),
//! * and an `(E, S)` parameter search that re-derives the paper's operating
//!   points ([`search`]).
//!
//! # Example
//!
//! ```
//! use readduo_reliability::{CellErrorModel, LerAnalysis, target};
//! use readduo_pcm::MetricConfig;
//!
//! let r = CellErrorModel::new(MetricConfig::r_metric());
//! let ler = LerAnalysis::new(r);
//! // R-sensing with BCH-8 scrubbed every 8 s meets the DRAM target…
//! let p8 = ler.ler_exceeding(8, 8.0);
//! assert!(p8.to_prob() < target::ler_target(8.0));
//! // …but at 640 s it is hopeless.
//! let p640 = ler.ler_exceeding(8, 640.0);
//! assert!(p640.to_prob() > target::ler_target(640.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellprob;
pub mod conditions;
pub mod ler;
pub mod search;
pub mod target;

pub use cellprob::{CachedErrorCurve, CellErrorModel};
pub use conditions::{condition_ii, condition_iii};
pub use ler::LerAnalysis;
pub use search::find_min_code;

//! Numeric substrate for the ReadDuo reproduction.
//!
//! The ReadDuo reliability analysis (Tables III–V of the paper) needs line
//! error rates down to `1e-15` and below, computed from per-cell drift error
//! probabilities that are themselves tiny tail integrals of (truncated)
//! normal distributions. No offline crate provides the required special
//! functions, so this crate implements them from scratch:
//!
//! * [`erf`](fn@erf)/[`erfc`] accurate to ~1e-15 over the full range, plus a scaled
//!   complementary error function for extreme tails,
//! * [`Normal`] and [`TruncatedNormal`] distributions with numerically stable
//!   tail (survival) functions and log-tails,
//! * log-space probability arithmetic ([`LogProb`], `log_sum_exp`,
//!   `ln_choose`) so binomial tails over 512 trials remain representable far
//!   below `f64::MIN_POSITIVE`,
//! * [`binomial`] tail evaluation and a fast binomial *sampler* used by the
//!   Monte-Carlo simulator on every read,
//! * Gauss–Legendre and adaptive Simpson quadrature for the drift-coefficient
//!   integral,
//! * the geometric mean the benchmark harness averages normalised ratios
//!   with.
//!
//! # Example
//!
//! ```
//! use readduo_math::{Normal, binomial};
//!
//! // Probability a standard normal exceeds 6 sigma...
//! let p = Normal::standard().sf(6.0);
//! // ...and the chance at least 9 of 512 cells each independently do so.
//! let line = binomial::tail_ge(512, p, 9);
//! assert!(line < 1e-50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod erf;
pub mod integrate;
pub mod logspace;
pub mod normal;
pub mod stats;

pub use binomial::BinomialSampler;
pub use erf::{erf, erfc, erfc_scaled, erfc_slice, inverse_erf};
pub use integrate::{adaptive_simpson, gauss_legendre, GaussLegendre};
pub use logspace::{ln_choose, ln_factorial, log1mexp, log_sum_exp, LogProb};
pub use normal::{Normal, TruncatedNormal};
pub use stats::geometric_mean;

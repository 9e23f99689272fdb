//! Synthetic SPEC2006-like memory access traces.
//!
//! The paper feeds its in-house memory simulator with Pin-generated traces
//! of 14 SPEC2006 benchmarks (Table X lists their read/write operations per
//! thousand instructions). Pin and SPEC binaries are unavailable here, so
//! this crate substitutes a **deterministic synthetic trace generator**
//! parameterised per benchmark by:
//!
//! * **RPKI / WPKI** — post-cache memory reads/writes per kilo-instruction
//!   (the quantity Table X tabulates),
//! * **memory footprint** — how many distinct 64 B lines the workload
//!   touches,
//! * **locality** — a Zipf-distributed hot set plus sequential streaming,
//!   which together control the *reuse distance* between a line's write and
//!   its later reads. Reuse distance is what distinguishes the ReadDuo
//!   schemes (a read > 640 s after the line's last write cannot use
//!   R-sensing), so it is the one property the generator must model
//!   honestly.
//!
//! The substitution is faithful because the simulator only ever sees the
//! access stream — intensity, mix, locality and bank spread — never the
//! benchmark's computation.
//!
//! # Example
//!
//! ```
//! use readduo_trace::{TraceGenerator, Workload};
//!
//! let mcf = Workload::spec2006().into_iter().find(|w| w.name == "mcf").unwrap();
//! let trace = TraceGenerator::new(42).generate(&mcf, 100_000, 4);
//! assert_eq!(trace.cores(), 4);
//! assert!(trace.total_ops() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod record;
pub mod stream;
pub mod workload;
pub mod zipf;

pub use generator::TraceGenerator;
pub use record::{MemOp, OpKind, Trace};
pub use stream::{OpSource, TraceCursor, TraceStream, DEFAULT_CHUNK};
pub use workload::{Locality, Workload};
pub use zipf::Zipf;

//! # flashr-core
//!
//! A Rust reproduction of the FlashR engine (Zheng et al., PPoPP'18):
//! a matrix-oriented programming framework that evaluates matrix
//! operations lazily, fuses whole operation DAGs into a single parallel
//! pass over the data, performs two-level (I/O partition / processor-cache
//! partition) partitioning, and runs either in memory or out-of-core
//! against an SSD array.
//!
//! Layering (bottom up):
//!
//! * [`chunk`], [`part`], [`mat`] — tall-and-skinny matrices, I/O
//!   partitions and Pcache chunks (paper §3.2);
//! * [`ops`] — the GenOp kernels (paper Table 1);
//! * [`dag`] — virtual matrices and lazy evaluation (paper §3.4);
//! * [`analysis`] — static plan verification, CSE rewriting and fusion
//!   lints over the pending DAG, run before any partition is read;
//! * [`exec`] — the fused / mem-fuse / eager materialization engines
//!   (paper §3.5 and the Figure 10 ablation);
//! * [`fm`] — the user-facing `FM` matrix type mirroring the R `base`
//!   functions FlashR overrides (paper Tables 2 and 3);
//! * [`block`] — block matrices (paper §3.2.2).
//!
//! ```
//! use flashr_core::fm::FM;
//! use flashr_core::session::FlashCtx;
//!
//! let ctx = FlashCtx::in_memory();
//! let x = FM::runif(&ctx, 10_000, 4, 0.0, 1.0, 42);
//! let col_means = x.col_means().to_vec(&ctx); // lazy sink → one fused pass
//! assert!(col_means.iter().all(|&m| (m - 0.5).abs() < 0.05));
//! ```

pub mod analysis;
pub mod block;
pub mod chunk;
pub mod dag;
pub mod dtype;
pub mod element;
pub mod env;
pub mod exec;
pub mod fm;
pub mod gen;
pub mod io;
pub mod json;
pub mod mat;
pub mod metrics;
pub mod obs;
pub mod ops;
pub mod part;
pub mod session;
pub mod stats;
pub mod trace;

pub use analysis::{AnalysisReport, FootprintEstimate, Lint, PlanError, PlanErrorKind};
pub use dtype::{DType, Scalar};
pub use fm::FM;
pub use metrics::{FlightRecorder, MetricsHub, MetricsServer};
pub use session::{CtxConfig, ExecMode, FlashCtx, StorageClass};
pub use trace::{CriticalPath, PassBreakdown, PassProfile, ProfileReport, Timeline, TraceLevel};

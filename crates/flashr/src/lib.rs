//! # FlashR for Rust
//!
//! A from-scratch Rust reproduction of *FlashR: Parallelize and Scale R
//! for Machine Learning using SSDs* (Zheng et al., PPoPP 2018): a
//! matrix-oriented programming framework that executes array programs in
//! parallel and out-of-core automatically.
//!
//! Write the algorithm as if the matrix were small; the engine evaluates
//! lazily, fuses the whole operation DAG into a single parallel pass,
//! performs two-level (I/O partition / processor cache) partitioning, and
//! streams from an SSD array when the data does not fit in memory.
//!
//! ```
//! use flashr::prelude::*;
//!
//! let ctx = FlashCtx::in_memory();
//! // 100k standard-normal points in 8 dimensions — lazy, nothing computed.
//! let x = FM::runif(&ctx, 100_000, 8, 0.0, 1.0, 42);
//! // colSums, the Gramian and a sum of squares — one fused pass.
//! let stats = FM::materialize_multi(&ctx, &[&x.col_sums(), &x.crossprod(), &x.square().sum()]);
//! assert_eq!(stats.len(), 3);
//! ```
//!
//! The workspace crates, re-exported here:
//!
//! * `core` ([`flashr_core`]) — matrices, GenOps, lazy DAG, the fused
//!   executor (`FM`, `FlashCtx`);
//! * `safs` ([`flashr_safs`]) — the SAFS-like SSD-array storage substrate;
//! * `linalg` ([`flashr_linalg`]) — dense kernels (GEMM, Cholesky, eigen…);
//! * `sparse` ([`flashr_sparse`]) — CSR + semi-external SpMM;
//! * `ml` ([`flashr_ml`]) — the paper's benchmark algorithms;
//! * `data` ([`flashr_data`]) — synthetic Criteo/PageGraph-shaped datasets;
//! * `baselines` ([`flashr_baselines`]) — the paper's comparators
//!   (per-op-materializing "MLlib-like", BLAS-only-parallel "RRO-like");
//! * `rlang` ([`flashr_rlang`]) — an interpreter for the R subset FlashR
//!   programs use: the paper's Figure 2/3 listings run verbatim.

pub use flashr_baselines as baselines;
pub use flashr_core as core;
pub use flashr_data as data;
pub use flashr_linalg as linalg;
pub use flashr_ml as ml;
pub use flashr_rlang as rlang;
pub use flashr_safs as safs;
pub use flashr_sparse as sparse;

/// The working set of names for FlashR programs.
pub mod prelude {
    pub use flashr_core::analysis::{AnalysisReport, Lint, PlanError, PlanErrorKind};
    pub use flashr_core::fm::FM;
    pub use flashr_core::ops::{AggOp, BinaryOp, UnaryOp};
    pub use flashr_core::session::{
        CtxConfig, ExecMode, FlashCtx, MemBudget, MemGovernor, StorageClass,
    };
    pub use flashr_core::stats::ExecStatsSnapshot;
    pub use flashr_core::trace::flight::FlightRecorder;
    pub use flashr_core::trace::{Counters, PassProfile, ProfileReport, Timeline, TraceLevel};
    pub use flashr_core::{DType, Scalar};
    pub use flashr_linalg::Dense;
    pub use flashr_safs::{CacheCfg, CacheStatsSnapshot, Safs, SafsConfig, ThrottleCfg};
}

#[cfg(test)]
mod tests {
    /// Every `FLASHR_<NAME>` spelled in `text` (not the bare `FLASHR_*`).
    fn flashr_vars(text: &str) -> std::collections::BTreeSet<&str> {
        let name_char = |c: char| c.is_ascii_uppercase() || c == '_';
        let end = |s: &str| s.find(|c| !name_char(c)).unwrap_or(s.len());
        let names = text.match_indices("FLASHR_").map(|(i, _)| &text[i..i + end(&text[i..])]);
        names.filter(|n| *n != "FLASHR_").collect()
    }

    /// README.md's "Environment variables" table has a row for every
    /// `FLASHR_*` variable named in a source file that reads one, and no
    /// row for a variable nothing reads.
    #[test]
    fn readme_table_lists_every_environment_variable() {
        let sources = [
            include_str!("../../core/src/env.rs"),
            include_str!("../../linalg/src/simd.rs"),
            include_str!("../../bench/src/lib.rs"),
            include_str!("../../bench/src/bin/perf_probe.rs"),
            include_str!("../../bench/src/bin/shard_sweep.rs"),
        ]
        .concat();
        let read = flashr_vars(&sources);
        let rows: String = include_str!("../../../README.md")
            .lines()
            .filter(|l| l.starts_with("| `FLASHR_"))
            .flat_map(|l| l.split('|').nth(1))
            .collect();
        assert_eq!(read, flashr_vars(&rows), "left: named in the sources, right: README rows");
        assert_eq!(read.len(), 5);
    }
}

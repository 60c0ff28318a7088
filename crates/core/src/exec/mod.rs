//! DAG materialization (paper §3.5).
//!
//! `materialize` evaluates a set of targets — sink results and/or tall
//! virtual matrices — over one or more parallel passes, depending on the
//! context's [`crate::session::ExecMode`]:
//!
//! * `CacheFuse` / `MemFuse`: one fused pass over the I/O partitions for
//!   the whole DAG (all targets share the pass);
//! * `Eager`: one pass per operation, Spark-style (the "base" engine of
//!   the paper's Figure 10 ablation).

mod accum;
mod cumcoord;
mod eager;
mod fused;
mod plan;

pub use accum::SinkAcc;
pub use plan::{Plan, TallOut};

use crate::dag::Node;
use crate::mat::TasMat;
use crate::session::{ExecMode, FlashCtx};
use flashr_linalg::Dense;
use std::sync::Arc;

/// Storage request for a tall target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetStorage {
    /// Use the context's default.
    Default,
    /// Force in-memory.
    InMem,
    /// Force the SSD array.
    Em,
}

/// One thing a materialization pass must produce.
#[derive(Clone)]
pub enum Target {
    /// A sink node; yields a small dense matrix.
    Sink(Arc<Node>),
    /// A tall node; yields a materialized [`TasMat`].
    Tall { node: Arc<Node>, storage: TargetStorage },
}

/// What a target produced.
#[derive(Debug, Clone)]
pub enum TargetResult {
    Dense(Dense),
    Mat(TasMat),
}

impl TargetResult {
    /// Unwrap a sink result.
    pub fn into_dense(self) -> Dense {
        match self {
            TargetResult::Dense(d) => d,
            TargetResult::Mat(_) => panic!("expected a sink result, got a tall matrix"),
        }
    }

    /// Unwrap a tall result.
    pub fn into_mat(self) -> TasMat {
        match self {
            TargetResult::Mat(m) => m,
            TargetResult::Dense(_) => panic!("expected a tall matrix, got a sink result"),
        }
    }
}

/// Materialize the targets under the context's engine mode.
///
/// Every plan first goes through the static analyzer
/// ([`crate::analysis::analyze`]): an inconsistent DAG fails here, before
/// any partition is read (use [`crate::fm::FM::check`] for the
/// non-panicking form), and what runs is the analyzer's rewritten plan
/// (CSE, cast/cbind collapsing).
pub fn materialize(ctx: &FlashCtx, targets: &[Target]) -> Vec<TargetResult> {
    if targets.is_empty() {
        return Vec::new();
    }
    let analysis = match crate::analysis::analyze(ctx, targets) {
        Ok(a) => a,
        Err(e) => panic!("{e}"),
    };
    if let Err(e) = crate::analysis::deny_gate(&analysis.report.lints) {
        panic!("{e}");
    }

    let results = match ctx.cfg().mode {
        ExecMode::Eager => eager::run(ctx, &analysis.targets),
        ExecMode::MemFuse | ExecMode::CacheFuse => {
            fused::run(ctx, &analysis.targets, analysis.report.nodes_before)
        }
    };

    // `set.cache` requests on merged originals were honoured on their
    // canonical representatives; copy the installed caches back so the
    // user's handles become effective leaves too.
    for (orig, canon) in &analysis.cache_pairs {
        if let Some(m) = canon.cached() {
            orig.install_cache(m.clone());
        }
    }
    results
}

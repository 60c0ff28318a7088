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
pub use plan::{Plan, PlanOpts, TallOut};

use crate::dag::Node;
use crate::mat::TasMat;
use crate::session::{ExecMode, FlashCtx};
use flashr_linalg::Dense;
use std::collections::HashMap;
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
/// ([`crate::analysis::analyze`]): verification always runs (an
/// inconsistent DAG fails here, before any partition is read — use
/// [`crate::fm::FM::check`] for the non-panicking form), and the CSE
/// rewrite is applied unless [`crate::session::CtxConfig::optimize`] is
/// off.
pub fn materialize(ctx: &FlashCtx, targets: &[Target]) -> Vec<TargetResult> {
    if targets.is_empty() {
        return Vec::new();
    }
    let analysis = match crate::analysis::analyze(ctx, targets) {
        Ok(a) => a,
        Err(e) => panic!("{e}"),
    };
    let optimize = ctx.cfg().optimize;
    let (run_targets, nodes_pre) = if optimize {
        (&analysis.targets[..], Some(analysis.report.nodes_before))
    } else {
        (targets, None)
    };

    // Cost-based plan optimizer: price the plan, act on the lints, and
    // record every decision so the pass profile can show predicted vs.
    // actual byte movement. The profile store consumes the same pre-run
    // estimate, so it is priced whenever either consumer is active.
    let cost_optimize = ctx.cfg().cost_optimize;
    let track = cost_optimize || crate::obs::enabled();
    let mut opts = PlanOpts::default();
    let mut decisions: Vec<crate::analysis::optimize::Decision> = Vec::new();
    let mut readahead: Option<u64> = None;
    let mut order: Option<Vec<usize>> = None;
    let cost =
        if track { Some(crate::analysis::cost::estimate(ctx, run_targets)) } else { None };
    if cost_optimize {
        let cost = cost.as_ref().expect("cost_optimize implies a priced plan");
        let outcome = crate::analysis::optimize::plan(ctx, run_targets, cost);
        // A lint the optimizer already fixed (auto-cached W001/W004 node)
        // is exempt from FLASHR_DENY_LINTS promotion.
        if let Err(e) = crate::analysis::deny_gate(&analysis.report.lints, &outcome.auto_cache) {
            panic!("{e}");
        }
        ctx.tracer().log().named_lane("coordinator").instant(
            "optimize",
            format!("cost-optimize:{} decisions", outcome.decisions.len()),
            [("decisions", outcome.decisions.len() as u64), ("", 0)],
        );
        opts.auto_cache = outcome.auto_cache;
        opts.fuse_barriers = outcome.fuse_barriers;
        opts.pcache_step = outcome.pcache_step;
        readahead = outcome.readahead_parts;
        order = outcome.order;
        decisions = outcome.decisions;
    } else if let Err(e) =
        crate::analysis::deny_gate(&analysis.report.lints, &std::collections::HashSet::new())
    {
        panic!("{e}");
    }

    let stats_before = ctx.stats().snapshot();
    let io_before = ctx.safs().map(|s| s.stats_snapshot());
    // Pass count before the run, so the wall-clock attribution below
    // only looks at the passes this materialization recorded.
    let tracer_passes_before = if track { ctx.tracer().passes().len() } else { 0 };
    if readahead.is_some() {
        if let Some(s) = ctx.safs() {
            s.set_readahead_override(readahead);
        }
    }
    let run_start = std::time::Instant::now();
    let results = match ctx.cfg().mode {
        ExecMode::Eager => match &order {
            Some(ord) => {
                // Run materialization passes in leaf-sharing order, then
                // restore the caller's target order.
                let permuted: Vec<Target> =
                    ord.iter().map(|&i| run_targets[i].clone()).collect();
                let res = eager::run(ctx, &permuted, &opts);
                let mut out: Vec<Option<TargetResult>> = res.iter().map(|_| None).collect();
                for (&i, r) in ord.iter().zip(res) {
                    out[i] = Some(r);
                }
                out.into_iter()
                    .map(|r| r.expect("permutation covers all targets"))
                    .collect()
            }
            None => eager::run(ctx, run_targets, &opts),
        },
        ExecMode::MemFuse | ExecMode::CacheFuse => {
            fused::run(ctx, run_targets, &HashMap::new(), nodes_pre, &opts)
        }
    };
    let wall_nanos = run_start.elapsed().as_nanos() as u64;
    if readahead.is_some() {
        if let Some(s) = ctx.safs() {
            s.set_readahead_override(None);
        }
    }

    if track {
        let cost = cost.as_ref().expect("track implies a priced plan");
        let exec_delta = stats_before.delta(&ctx.stats().snapshot());
        let io_delta = match (io_before.as_ref(), ctx.safs().map(|s| s.stats_snapshot())) {
            (Some(before), Some(after)) => Some(before.delta(&after)),
            _ => None,
        };
        let io_read_delta = io_delta.as_ref().map(|d| d.read_bytes).unwrap_or(0);
        let passes = ctx.tracer().passes();
        let new_passes = &passes[tracer_passes_before.min(passes.len())..];
        let lanes = ctx.tracer().timeline().map(|t| t.snapshot()).unwrap_or_default();
        let verdict = crate::trace::CriticalPath::attribute(
            new_passes,
            &lanes,
            (exec_delta.compute_nanos, exec_delta.io_wait_nanos, exec_delta.write_stall_nanos),
        );
        if cost_optimize {
            decisions.push(calibration_decision(&verdict, cost, io_read_delta));
        }
        // Score the device-read prediction against what the SAFS
        // counters measured — the number the calibration A/B gate and
        // the `flashr_calib_prediction_error_bytes` gauge report.
        ctx.calib_state().record_prediction(cost.device_read_bytes, io_read_delta);
        fill_decision_actuals(run_targets, &mut decisions, &exec_delta, io_read_delta);
        crate::obs::record(
            ctx,
            &crate::obs::Record {
                targets: run_targets,
                cost,
                decisions: &decisions,
                verdict: &verdict,
                exec_delta: &exec_delta,
                io_delta: io_delta.as_ref(),
                wall_nanos,
            },
        );
    }

    if !decisions.is_empty() {
        let stats = ctx.stats();
        // The calibration hint is log-only: it rides in the decision list
        // for pass profiles but is not an *actionable* optimizer decision,
        // so it stays out of the counter.
        let actionable = decisions
            .iter()
            .filter(|d| !matches!(d.kind, crate::analysis::optimize::DecisionKind::Calibration))
            .count();
        stats.opt_decisions.add(actionable as u64);
        let cached: u64 = decisions
            .iter()
            .filter(|d| matches!(d.kind, crate::analysis::optimize::DecisionKind::AutoCache))
            .map(|d| d.actual_bytes.unwrap_or(0))
            .sum();
        stats.opt_cache_bytes.add(cached);
        ctx.tracer().attach_optimizer(decisions);
    }

    if optimize {
        // `set.cache` requests on merged originals were honoured on their
        // canonical representatives; copy the installed caches back so the
        // user's handles become effective leaves too.
        for (orig, canon) in &analysis.cache_pairs {
            if let Some(m) = canon.cached() {
                orig.install_cache(m.clone());
            }
        }
    }
    results
}

/// The calibration decision (recorded as a
/// [`DecisionKind::Calibration`]): where the wall clock of this
/// materialization actually went, read against the byte-based cost
/// model's predictions. With [`crate::session::CtxConfig::calibrate`]
/// the prediction is the history-fitted one and the residual it records
/// is the calibration loop's score; without, it documents the raw
/// cold-cache bound. Either way it changes no plan — the verdict lands
/// in pass profiles, bench artifacts and the profile store so mispriced
/// plans are visible.
///
/// [`DecisionKind::Calibration`]: crate::analysis::optimize::DecisionKind::Calibration
fn calibration_decision(
    verdict: &crate::trace::WallAttribution,
    cost: &crate::analysis::cost::CostEstimate,
    io_read_delta: u64,
) -> crate::analysis::optimize::Decision {
    let ms = |nanos: u64| nanos / 1_000_000;
    crate::analysis::optimize::Decision {
        kind: crate::analysis::optimize::DecisionKind::Calibration,
        node: 0,
        detail: format!(
            "{} verdict {}: compute {}ms, io-wait {}ms, write-stall {}ms, idle {}ms over \
             {} pass(es); device-read predicted {} actual {} (residual {}{})",
            verdict.source,
            verdict.bound,
            ms(verdict.compute_nanos),
            ms(verdict.io_wait_nanos),
            ms(verdict.write_stall_nanos),
            ms(verdict.idle_nanos),
            verdict.passes,
            cost.device_read_bytes,
            io_read_delta,
            cost.device_read_bytes.abs_diff(io_read_delta),
            if cost.calibrated { ", calibrated" } else { "" },
        ),
        predicted_bytes: cost.device_read_bytes,
        actual_bytes: None,
    }
}

/// Post-run bookkeeping for optimizer decisions: scrape what actually
/// happened (bytes cached, chunk bytes produced, device bytes read) from
/// the engine and I/O counter deltas and stamp it into each decision
/// record.
fn fill_decision_actuals(
    targets: &[Target],
    decisions: &mut [crate::analysis::optimize::Decision],
    exec_delta: &crate::stats::ExecStatsSnapshot,
    io_read_delta: u64,
) {
    use crate::analysis::optimize::DecisionKind;

    let nodes = reachable_by_id(targets);
    for d in decisions.iter_mut() {
        d.actual_bytes = Some(match d.kind {
            DecisionKind::AutoCache => match nodes.get(&d.node) {
                Some(n) if n.cached().is_some() => crate::analysis::cost::mat_bytes(n),
                _ => 0,
            },
            DecisionKind::FusionBarrier => nodes
                .get(&d.node)
                .map(|n| crate::analysis::cost::mat_bytes(n))
                .unwrap_or(0),
            DecisionKind::PcacheStep => exec_delta.node_chunk_bytes,
            // The graduated calibration decision scores its prediction
            // against the same measured device reads.
            DecisionKind::Readahead | DecisionKind::PassOrder | DecisionKind::Calibration => {
                io_read_delta
            }
        });
    }
}

/// Every node reachable from the targets, by id. Traverses through
/// effective leaves (a just-cached node is one) so post-run lookups still
/// find interior nodes the optimizer acted on.
fn reachable_by_id(targets: &[Target]) -> HashMap<u64, Arc<Node>> {
    let mut out: HashMap<u64, Arc<Node>> = HashMap::new();
    let mut stack: Vec<Arc<Node>> = targets
        .iter()
        .map(|t| match t {
            Target::Sink(n) | Target::Tall { node: n, .. } => n.clone(),
        })
        .collect();
    while let Some(node) = stack.pop() {
        if out.insert(node.id, node.clone()).is_some() {
            continue;
        }
        for c in node.children() {
            stack.push(c.clone());
        }
    }
    out
}

//! The cost-based plan optimizer: decisions, not warnings.
//!
//! Consumes the [`super::cost`] estimate plus the lint population and
//! turns the analyzer's advisory output into concrete plan changes,
//! gated by [`crate::session::CtxConfig::cost_optimize`]:
//!
//! * **auto-cache** (W001 → action): reused subtrees become `set.cache`
//!   byproducts of the current pass when the [`MemGovernor`]'s budget
//!   admits them. Candidates feeding a gemm pass are admitted first
//!   (a crossprod re-scans its tall operand, so caching it saves a full
//!   subtree recomputation), then by subtree bytes saved.
//! * **fusion barrier**: an auto-cached node that chain fusion would
//!   have swallowed as an interior link is forced to materialize — the
//!   matmul-aware fusion boundary (don't fuse a chain into a node a
//!   gemm pass will re-scan).
//! * **pcache step**: when fusion removes interior rows from the live
//!   working set, the chunk height is re-sized over the *live* row
//!   bytes. Applied only to sink-free plans: tall outputs are
//!   chunk-height-invariant bit-for-bit, while sink accumulation order
//!   is not.
//! * **readahead depth**: with external-memory leaves present, the
//!   SAFS readahead window is clamped so one window fits in half the
//!   page cache (deep readahead over fat partitions evicts the hot
//!   set it is trying to build).
//! * **pass order** (eager mode): targets are grouped so consecutive
//!   per-op passes share leaves, maximizing page-cache reuse between
//!   passes.
//!
//! Every decision records its predicted bytes; the executor scrapes the
//! actual bytes post-pass and the pair lands in pass profiles, trace
//! spans and the bench artifacts (`optimizer` section), so mispredicted
//! decisions are visible, not silent.
//!
//! [`MemGovernor`]: crate::session::MemGovernor

use crate::exec::Target;
use crate::json::Writer;
use crate::session::{ExecMode, FlashCtx};
use std::collections::{HashMap, HashSet};

use super::cost::CostEstimate;

/// What kind of plan change a [`Decision`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Cache a reused subtree as a byproduct of this pass.
    AutoCache,
    /// Keep a node out of chain fusion so its chunk materializes.
    FusionBarrier,
    /// Override the Pcache chunk height for this plan.
    PcacheStep,
    /// Clamp the SAFS readahead window for this plan.
    Readahead,
    /// Reorder eager per-target passes for leaf sharing.
    PassOrder,
    /// Log-only calibration hint: the critical-path analyzer's
    /// compute-vs-I/O verdict for the pass, recorded so the byte-based
    /// cost model's predictions can be read against where the wall
    /// clock actually went. Changes no plan.
    Calibration,
}

impl DecisionKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            DecisionKind::AutoCache => "auto-cache",
            DecisionKind::FusionBarrier => "fusion-barrier",
            DecisionKind::PcacheStep => "pcache-step",
            DecisionKind::Readahead => "readahead",
            DecisionKind::PassOrder => "pass-order",
            DecisionKind::Calibration => "calibration",
        }
    }
}

/// One optimizer decision: what was changed, the bytes the cost model
/// predicted for it, and (filled post-pass) the bytes actually observed.
#[derive(Debug, Clone)]
pub struct Decision {
    pub kind: DecisionKind,
    /// The node the decision anchors to (0 for plan-level decisions).
    pub node: u64,
    pub detail: String,
    /// Predicted bytes: pinned bytes for auto-cache, chunk bytes for
    /// step/barrier decisions, device-read bytes for readahead and pass
    /// ordering.
    pub predicted_bytes: u64,
    /// Scraped after the pass from `ExecStats`/`IoStats` deltas; `None`
    /// until then.
    pub actual_bytes: Option<u64>,
}

impl Decision {
    /// Write this decision as a JSON object.
    pub fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.key("kind").str(self.kind.as_str());
            w.key("node").u64(self.node);
            w.key("detail").str(&self.detail);
            w.key("predicted_bytes").u64(self.predicted_bytes);
            match self.actual_bytes {
                Some(b) => w.key("actual_bytes").u64(b),
                None => w.key("actual_bytes").null(),
            }
        });
    }
}

/// The optimizer's output: the decision log plus the concrete plan
/// inputs the executor applies.
#[derive(Debug, Clone, Default)]
pub struct OptimizerOutcome {
    pub decisions: Vec<Decision>,
    /// Node ids to materialize as `set.cache` byproducts of this pass.
    pub auto_cache: HashSet<u64>,
    /// Node ids chain discovery must not swallow as interiors.
    pub fuse_barriers: HashSet<u64>,
    /// Pcache chunk-height override (rows), when bit-safe and larger.
    pub pcache_step: Option<usize>,
    /// Readahead-window clamp (partitions), applied for this pass only.
    pub readahead_parts: Option<u64>,
    /// Permutation of target indices for the eager engine (`order[i]` is
    /// the original index run in position `i`); `None` when the natural
    /// order already groups leaf sharers.
    pub order: Option<Vec<usize>>,
}

/// Decide. `cost` must have been estimated over the same (rewritten)
/// `targets` the executor will run.
pub fn plan(ctx: &FlashCtx, targets: &[Target], cost: &CostEstimate) -> OptimizerOutcome {
    let mut out = OptimizerOutcome::default();

    // --- auto-cache (W001 → action), governor-gated -------------------
    let gov = ctx.governor();
    let mut pending_bytes = 0u64;
    let mut live_rows_added = 0usize;
    for cand in &cost.reuse {
        if !gov.would_admit(pending_bytes.saturating_add(cand.bytes)) {
            continue;
        }
        pending_bytes += cand.bytes;
        out.auto_cache.insert(cand.node.id);
        out.decisions.push(Decision {
            kind: DecisionKind::AutoCache,
            node: cand.node.id,
            detail: format!(
                "{} feeds {} consumer(s){}; caching {} B saves {} B per re-materialization",
                cand.node.label(),
                cand.consumers,
                if cand.feeds_gemm { " incl. a gemm pass" } else { "" },
                cand.bytes,
                cand.subtree_bytes
            ),
            predicted_bytes: cand.bytes,
            actual_bytes: None,
        });
        if cand.would_fuse {
            // The chunk must materialize to be cached: force a fusion
            // barrier. This is also the matmul-aware boundary — the
            // gemm-fed candidates were admitted first above.
            out.fuse_barriers.insert(cand.node.id);
            live_rows_added += cand.row_bytes;
            out.decisions.push(Decision {
                kind: DecisionKind::FusionBarrier,
                node: cand.node.id,
                detail: format!(
                    "{} would fuse as a chain interior; kept materialized for caching{}",
                    cand.node.label(),
                    if cand.feeds_gemm { " (gemm re-scan)" } else { "" }
                ),
                predicted_bytes: cand.bytes,
                actual_bytes: None,
            });
        }
    }

    // --- pcache step over live rows -----------------------------------
    // Only for sink-free cache-fuse plans: tall outputs are bit-invariant
    // under the chunk height, sink float accumulation is not. Auto-cached
    // former interiors hold live chunks again, so their rows go back into
    // the budget before comparing.
    if cost.mode == ExecMode::CacheFuse
        && ctx.cfg().fuse_chains
        && !cost.has_sink
        && live_rows_added < cost.row_bytes_total.saturating_sub(cost.row_bytes_live)
    {
        let live = cost.row_bytes_live + live_rows_added;
        let part_rows = ctx.cfg().rows_per_part as usize;
        let step = crate::part::pcache_rows(ctx.cfg().pcache_bytes, live, part_rows);
        if step > cost.pcache_step {
            out.pcache_step = Some(step);
            out.decisions.push(Decision {
                kind: DecisionKind::PcacheStep,
                node: 0,
                detail: format!(
                    "chain interiors hold no live chunk: step {} -> {} rows ({} of {} row bytes live)",
                    cost.pcache_step, step, live, cost.row_bytes_total
                ),
                predicted_bytes: cost.chunk_bytes,
                actual_bytes: None,
            });
        }
    }

    // --- readahead clamp ----------------------------------------------
    if cost.em_leaves > 0 && cost.cache_capacity > 0 && cost.max_em_part_bytes > 0 {
        if let Some(safs) = ctx.safs() {
            let current = safs.readahead_parts();
            let fit = ((cost.cache_capacity / 2) / cost.max_em_part_bytes).max(1);
            if fit < current {
                out.readahead_parts = Some(fit);
                out.decisions.push(Decision {
                    kind: DecisionKind::Readahead,
                    node: 0,
                    detail: format!(
                        "readahead {} -> {} parts so one window fits half the {} B cache \
                         (largest EM partition {} B)",
                        current, fit, cost.cache_capacity, cost.max_em_part_bytes
                    ),
                    predicted_bytes: cost.device_read_bytes,
                    actual_bytes: None,
                });
            }
        }
    }

    // --- eager pass ordering ------------------------------------------
    if cost.mode == ExecMode::Eager && targets.len() >= 2 {
        if let Some(order) = leaf_sharing_order(targets) {
            out.decisions.push(Decision {
                kind: DecisionKind::PassOrder,
                node: 0,
                detail: format!(
                    "grouped {} targets by shared leaves: order {:?}",
                    targets.len(),
                    order
                ),
                predicted_bytes: cost.device_read_bytes,
                actual_bytes: None,
            });
            out.order = Some(order);
        }
    }

    out
}

/// Stable grouping of target indices by leaf-set signature: targets
/// sharing the same materialized leaves run back to back, so the page
/// cache still holds their partitions. Returns `None` when the natural
/// order is already grouped.
fn leaf_sharing_order(targets: &[Target]) -> Option<Vec<usize>> {
    let signatures: Vec<Vec<u64>> = targets
        .iter()
        .map(|t| {
            let root = match t {
                Target::Sink(n) | Target::Tall { node: n, .. } => n,
            };
            let mut leaves: Vec<u64> = Vec::new();
            let mut seen: HashSet<u64> = HashSet::new();
            let mut stack = vec![root.clone()];
            while let Some(node) = stack.pop() {
                if !seen.insert(node.id) {
                    continue;
                }
                if node.is_effective_leaf() {
                    leaves.push(node.id);
                    continue;
                }
                for c in node.children() {
                    stack.push(c.clone());
                }
            }
            leaves.sort_unstable();
            leaves
        })
        .collect();

    // First-seen order of each signature; stable within a group.
    let mut group_of: HashMap<&[u64], usize> = HashMap::new();
    for sig in &signatures {
        let next = group_of.len();
        group_of.entry(sig.as_slice()).or_insert(next);
    }
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by_key(|&i| group_of[signatures[i].as_slice()]);
    if order.iter().enumerate().all(|(pos, &i)| pos == i) {
        None
    } else {
        Some(order)
    }
}

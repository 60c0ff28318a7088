//! Fusion lints and the per-plan footprint estimate.
//!
//! Lints flag patterns the paper warns about — work the fused engine
//! cannot make cheap:
//!
//! * **W001** `reused-uncached`: an interior node feeds two or more
//!   consumers but has no `set.cache`. Inside one fused pass the Pcache
//!   memo shares the chunk, but every *later* `materialize()` call will
//!   recompute the whole subtree; `set.cache` turns it into a leaf.
//! * **W002** `broadcast-rowvec`: an `mapply` broadcast row vector wider
//!   than [`BROADCAST_LINT_LEN`] — each worker walks the whole vector
//!   per Pcache chunk, so oversized vectors evict the chunk from L2 and
//!   defeat cache fusion.
//! * **W003** `cast-chain`: a cast feeding a cast that survived the
//!   rewrite, i.e. the inner conversion is lossy, so the chain both
//!   truncates data and doubles per-element conversion work.
//! * **W004** `em-rescan-uncached`: in eager mode the plan reads an
//!   external-memory leaf in two or more passes, but the configured
//!   page-cache budget is smaller than that leaf, so the first two
//!   passes pay full device I/O and the later ones all but the part the
//!   cache keeps. Raise the cache/memory budget or switch to a fused
//!   mode (one pass).
//!
//! The footprint estimate counts the bytes a pass moves: read from
//! materialized leaves, produced by generators and written by tall
//! outputs. What one Pcache range holds live depends on the compiled
//! kernels, which only the plan has: `Plan::live_row_bytes` reports it,
//! and `FM::explain` prints it with the step.

use super::{FootprintEstimate, Lint};
use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::exec::Target;
use crate::session::{ExecMode, FlashCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// Broadcast row vectors longer than this trigger W002.
pub const BROADCAST_LINT_LEN: usize = 16 * 1024;

fn mat_bytes(node: &Node) -> u64 {
    node.nrows * node.ncols as u64 * node.dtype.size() as u64
}

/// Run the lint pass over (already canonicalized) targets and estimate
/// the plan's data movement.
pub fn run(ctx: &FlashCtx, targets: &[Target]) -> (Vec<Lint>, FootprintEstimate) {
    let mut lints = Vec::new();
    let mut footprint = FootprintEstimate::default();

    // Reachable nodes, deduped, not descending past materialized data —
    // plus the consumer counts the fused pass would see (DAG parents and
    // target/sink reads, mirroring `Plan::build`).
    let mut order: Vec<Arc<Node>> = Vec::new();
    let mut consumers: HashMap<u64, usize> = HashMap::new();
    let mut stack: Vec<Arc<Node>> = Vec::new();
    for t in targets {
        match t {
            Target::Sink(n) => {
                for c in n.children() {
                    *consumers.entry(c.id).or_default() += 1;
                }
                stack.push(n.clone());
            }
            Target::Tall { node, .. } => {
                *consumers.entry(node.id).or_default() += 1;
                footprint.write_bytes += mat_bytes(node);
                stack.push(node.clone());
            }
        }
    }
    let mut seen: HashMap<u64, ()> = HashMap::new();
    while let Some(node) = stack.pop() {
        if seen.contains_key(&node.id) {
            continue;
        }
        seen.insert(node.id, ());
        if node.is_effective_leaf() {
            if node.cached().is_some() || matches!(node.kind, NodeKind::Leaf(_)) {
                footprint.read_bytes += mat_bytes(&node);
            } else {
                footprint.gen_bytes += mat_bytes(&node);
            }
            order.push(node);
            continue;
        }
        if node.cache_requested() && !node.is_sink() {
            footprint.write_bytes += mat_bytes(&node);
        }
        for c in node.children() {
            if !node.is_sink() {
                *consumers.entry(c.id).or_default() += 1;
            }
            stack.push(c.clone());
        }
        order.push(node);
    }

    for node in &order {
        if node.is_effective_leaf() {
            // W004: eager mode runs one pass per operation, so a leaf
            // with N consumers is read N times; if it cannot fit in the
            // page cache those are all device reads.
            if ctx.cfg().mode == ExecMode::Eager
                && consumers.get(&node.id).copied().unwrap_or(0) >= 2
            {
                let em = match (&node.kind, node.cached()) {
                    (NodeKind::Leaf(m), _) => m.is_em(),
                    (_, Some(m)) => m.is_em(),
                    _ => false,
                };
                let cache_cap = ctx.safs().map(|s| s.page_cache_capacity()).unwrap_or(0);
                if em && mat_bytes(node) > cache_cap {
                    lints.push(Lint {
                        code: "W004",
                        node: node.id,
                        message: format!(
                            "{} ({} bytes, external memory) is read by {} eager passes but the page-cache budget is {} bytes; every pass re-reads what the cache cannot hold from the device (raise the memory budget or use a fused mode)",
                            node.label(),
                            mat_bytes(node),
                            consumers[&node.id],
                            cache_cap
                        ),
                    });
                }
            }
            continue;
        }
        if !node.is_sink()
            && !node.cache_requested()
            && consumers.get(&node.id).copied().unwrap_or(0) >= 2
        {
            lints.push(Lint {
                code: "W001",
                node: node.id,
                message: format!(
                    "{} feeds {} consumers but is not cached; later plans will recompute it (consider set.cache)",
                    node.label(),
                    consumers[&node.id]
                ),
            });
        }
        if let NodeKind::Map { op, inputs } = &node.kind {
            for i in inputs {
                if let MapInput::RowVec(v) = i {
                    if v.len() > BROADCAST_LINT_LEN {
                        lints.push(Lint {
                            code: "W002",
                            node: node.id,
                            message: format!(
                                "broadcast row vector of {} entries exceeds {} and will thrash the Pcache",
                                v.len(),
                                BROADCAST_LINT_LEN
                            ),
                        });
                    }
                }
            }
            if let MapOp::Cast(to) = op {
                if let Some(MapInput::Node(input)) = inputs.first() {
                    if let NodeKind::Map { op: MapOp::Cast(mid), inputs: grand } = &input.kind {
                        if !input.is_effective_leaf() {
                            if let Some(MapInput::Node(base)) = grand.first() {
                                lints.push(Lint {
                                    code: "W003",
                                    node: node.id,
                                    message: format!(
                                        "lossy cast chain {} -> {} -> {}: the intermediate conversion truncates and doubles per-element work",
                                        base.dtype, mid, to
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    lints.sort_by(|a, b| a.code.cmp(b.code).then(a.node.cmp(&b.node)));
    (lints, footprint)
}

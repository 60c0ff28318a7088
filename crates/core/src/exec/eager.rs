//! The eager ("base") engine: every DAG operation materialized separately,
//! one full parallel pass per operation — the per-op materialization
//! behaviour the paper attributes to Spark (§4.3, Fig. 10 "base").
//!
//! Implemented by walking the DAG in topological order and invoking the
//! fused engine on a single node at a time, with all of that node's inputs
//! substituted by their already-materialized matrices. Intermediates land
//! in the context's default storage class — on the SSD array for EM runs,
//! exactly the I/O amplification the ablation measures.

use crate::dag::Node;
use crate::exec::{fused, Target, TargetResult, TargetStorage};
use crate::mat::TasMat;
use crate::session::FlashCtx;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Post-order (children first) traversal of all reachable nodes.
fn topo_order(targets: &[Target]) -> Vec<Arc<Node>> {
    let mut order = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    // Iterative post-order DFS.
    enum Frame {
        Enter(Arc<Node>),
        Exit(Arc<Node>),
    }
    let mut stack: Vec<Frame> = targets
        .iter()
        .map(|t| match t {
            Target::Sink(n) | Target::Tall { node: n, .. } => Frame::Enter(n.clone()),
        })
        .collect();
    let mut entered: HashSet<u64> = HashSet::new();
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(node) => {
                if entered.contains(&node.id) {
                    continue;
                }
                entered.insert(node.id);
                stack.push(Frame::Exit(node.clone()));
                if !node.is_effective_leaf() {
                    for c in node.children() {
                        stack.push(Frame::Enter(c.clone()));
                    }
                }
            }
            Frame::Exit(node) => {
                if seen.insert(node.id) {
                    order.push(node);
                }
            }
        }
    }
    order
}

/// Run targets under the eager engine.
pub fn run(ctx: &FlashCtx, targets: &[Target]) -> Vec<TargetResult> {
    let mut resolved: HashMap<u64, TasMat> = HashMap::new();

    for node in topo_order(targets) {
        if node.is_effective_leaf() || node.is_sink() || resolved.contains_key(&node.id) {
            continue;
        }
        // Mark each per-op materialization step: the pass spans the step
        // drives through the fused machinery nest under it in the
        // timeline view, and at every trace level a post-mortem dump
        // shows which step the eager engine was in.
        ctx.tracer().log().named_lane("coordinator").instant(
            "exec",
            format!("eager-step:{}", node.label()),
            [("node", node.id), ("", 0)],
        );
        // Materialize this single operation; its children are leaves or
        // already in `resolved`, so the "fused" pass contains one op.
        let result = fused::run_labeled(
            ctx,
            &[Target::Tall { node: node.clone(), storage: TargetStorage::Default }],
            &resolved,
            "eager-step",
            None,
        );
        let mat = match result.into_iter().next().expect("one target, one result") {
            TargetResult::Mat(m) => m,
            TargetResult::Dense(_) => unreachable!("tall target yields a matrix"),
        };
        if node.cache_requested() {
            let (cached, pin) = ctx.admit_cache(mat.clone());
            node.install_cache_pinned(cached, pin);
        }
        resolved.insert(node.id, mat);
    }

    // All tall interior nodes are materialized; evaluate each target.
    targets
        .iter()
        .map(|t| match t {
            Target::Sink(node) => fused::run_labeled(
                ctx,
                &[Target::Sink(node.clone())],
                &resolved,
                "eager-target",
                None,
            )
            .into_iter()
            .next()
            .expect("one target, one result"),
            Target::Tall { node, .. } => {
                if let Some(m) = resolved.get(&node.id) {
                    TargetResult::Mat(m.clone())
                } else {
                    // The target itself is a leaf/generator: one pass.
                    fused::run_labeled(
                        ctx,
                        std::slice::from_ref(t),
                        &resolved,
                        "eager-target",
                        None,
                    )
                    .into_iter()
                    .next()
                    .expect("one target, one result")
                }
            }
        })
        .collect()
}

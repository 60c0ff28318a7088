//! Materialization planning: DAG discovery, validation, output layout and
//! Pcache sizing.

use crate::analysis::chains::{self, CompiledChain};
use crate::dag::{Node, NodeKind};
use crate::exec::{Target, TargetStorage};
use crate::mat::TasMat;
use crate::part::{pcache_rows, Partitioner};
use crate::session::{ExecMode, FlashCtx, StorageClass};
use std::collections::HashMap;
use std::sync::Arc;

/// A tall matrix the pass must produce.
#[derive(Debug, Clone)]
pub struct TallOut {
    pub node: Arc<Node>,
    pub storage: StorageClass,
    /// Result slot in the caller's target list (`None` for `set.cache`
    /// byproducts).
    pub slot: Option<usize>,
    /// Whether to install the result as the node's cache.
    pub is_cache: bool,
}

/// The validated plan for one fused pass.
pub struct Plan {
    pub nrows: u64,
    pub parter: Partitioner,
    pub nparts: u64,
    /// Pcache chunk height in rows.
    pub pcache_step: usize,
    pub sinks: Vec<(usize, Arc<Node>)>,
    pub talls: Vec<TallOut>,
    /// Leaves whose partitions must be fetched each partition
    /// (node id → matrix), including cached and eager-resolved nodes.
    pub leaves: Vec<(u64, TasMat)>,
    /// `cum.col` nodes needing cross-partition carries.
    pub cum_nodes: Vec<Arc<Node>>,
    /// Eager-engine substitutions: node id → already-materialized matrix.
    pub resolved: HashMap<u64, TasMat>,
    /// How many consumers read each node's Pcache chunk within one range
    /// (paper §3.5.1: the per-partition use counter driving buffer
    /// recycling). Counts DAG parents plus target/sink reads. Interior
    /// nodes of compiled chains are removed — they never materialize.
    pub consumers: HashMap<u64, usize>,
    /// Compiled map kernels, root node id → kernel + inputs: one per
    /// element-wise map that is not interior to a longer chain.
    pub chains: HashMap<u64, CompiledChain>,
    /// Distinct DAG nodes the pass covers (including leaves).
    pub nnodes: usize,
}

impl Plan {
    /// Resolve a node to a materialized matrix if the pass may treat it
    /// as a leaf.
    pub fn leaf_mat<'a>(&'a self, node: &'a Node) -> Option<&'a TasMat> {
        if let Some(m) = self.resolved.get(&node.id) {
            return Some(m);
        }
        if let Some(m) = node.cached() {
            return Some(m);
        }
        match &node.kind {
            NodeKind::Leaf(m) => Some(m),
            _ => None,
        }
    }

    /// Build and validate the plan.
    pub fn build(ctx: &FlashCtx, targets: &[Target], resolved: &HashMap<u64, TasMat>) -> Plan {
        let build_t0 = ctx.tracer().timeline().map(|_| flashr_safs::now_nanos());
        let mut sinks = Vec::new();
        let mut talls: Vec<TallOut> = Vec::new();
        let mut leaves: Vec<(u64, TasMat)> = Vec::new();
        let mut cum_nodes = Vec::new();
        let mut consumers: HashMap<u64, usize> = HashMap::new();
        let mut visited: HashMap<u64, ()> = HashMap::new();
        let mut tall_nrows: Option<u64> = None;
        let mut parter: Option<Partitioner> = None;
        let mut row_bytes_total = 0usize;

        // Iterative DFS from all target roots.
        let mut reach: Vec<Arc<Node>> = Vec::new();
        let mut stack: Vec<Arc<Node>> = Vec::new();
        for (slot, t) in targets.iter().enumerate() {
            match t {
                Target::Sink(node) => {
                    assert!(node.is_sink(), "Target::Sink on a non-sink node");
                    // The sink accumulator reads each input chunk once.
                    for child in node.children() {
                        *consumers.entry(child.id).or_default() += 1;
                    }
                    sinks.push((slot, node.clone()));
                    stack.push(node.clone());
                }
                Target::Tall { node, storage } => {
                    assert!(!node.is_sink(), "Target::Tall on a sink node");
                    let storage = match storage {
                        // A zero-width result (`x %*% B` with a p×0 `B`,
                        // `x[, integer(0)]`) has no bytes to put on the
                        // array, and SAFS has no zero-length file.
                        _ if node.ncols == 0 => StorageClass::InMem,
                        TargetStorage::Default => ctx.cfg().storage,
                        TargetStorage::InMem => StorageClass::InMem,
                        TargetStorage::Em => StorageClass::Em,
                    };
                    // The output copy reads the node's chunk once.
                    *consumers.entry(node.id).or_default() += 1;
                    talls.push(TallOut {
                        node: node.clone(),
                        storage,
                        slot: Some(slot),
                        is_cache: false,
                    });
                    stack.push(node.clone());
                }
            }
        }

        while let Some(node) = stack.pop() {
            if visited.contains_key(&node.id) {
                continue;
            }
            visited.insert(node.id, ());
            reach.push(node.clone());

            let is_resolved_leaf = resolved.contains_key(&node.id) || node.cached().is_some();

            if !node.is_sink() {
                // Every tall node must share the partition dimension.
                match tall_nrows {
                    None => tall_nrows = Some(node.nrows),
                    Some(n) => {
                        if n != node.nrows {
                            panic!(
                                "{}",
                                crate::analysis::PlanError::new(
                                    &node,
                                    crate::analysis::PlanErrorKind::PartitionMismatch,
                                    format!(
                                        "matrices in one DAG must share the partition \
                                         dimension: {} rows vs {} rows",
                                        node.nrows, n
                                    ),
                                )
                            );
                        }
                    }
                }
                row_bytes_total += node.ncols * node.dtype.size();
            }

            if let Some(mat) =
                resolved.get(&node.id).or_else(|| node.cached()).or(match &node.kind {
                    NodeKind::Leaf(m) => Some(m),
                    _ => None,
                })
            {
                match parter {
                    None => parter = Some(mat.parter()),
                    Some(p) => assert_eq!(
                        p,
                        mat.parter(),
                        "matrices in one DAG must share the I/O partitioning"
                    ),
                }
                leaves.push((node.id, mat.clone()));
                continue; // do not descend past materialized data
            }

            if let NodeKind::CumCol { .. } = node.kind {
                cum_nodes.push(node.clone());
            }

            // set.cache: materialize as a byproduct of this pass.
            if node.cache_requested()
                && !node.is_sink()
                && !is_resolved_leaf
                && !matches!(node.kind, NodeKind::Leaf(_) | NodeKind::Gen(_))
                && !talls.iter().any(|t| t.node.id == node.id)
            {
                // The paper caches small reused vectors (like k-means
                // assignments) in RAM by default; `cache_storage` can
                // redirect them to the SSDs.
                *consumers.entry(node.id).or_default() += 1;
                talls.push(TallOut {
                    node: node.clone(),
                    storage: ctx.cfg().cache_storage,
                    slot: None,
                    is_cache: true,
                });
            }

            for child in node.children() {
                if !node.is_sink() {
                    // Sinks counted their inputs at target registration.
                    *consumers.entry(child.id).or_default() += 1;
                }
                stack.push(child.clone());
            }
        }

        // Kernel compilation: every element-wise map becomes a
        // strip-mined kernel, maximal single-consumer chains one kernel
        // each. Interior nodes lose their consumer entries — nothing ever
        // materializes or recycles them. The Pcache step below is still
        // sized over *all* tall nodes (including interior ones), so how
        // far a chain fuses never changes the chunking a sink folds over.
        let is_mat = |n: &Node| resolved.contains_key(&n.id) || n.is_effective_leaf();
        let chain_set = chains::discover(&reach, &consumers, &is_mat);
        for id in &chain_set.interior {
            consumers.remove(id);
        }

        let nrows = tall_nrows.expect("DAG contains no tall matrices");
        let parter = parter.unwrap_or_else(|| ctx.parter());
        let nparts = parter.nparts(nrows);

        let full_rows = parter.rows_per_part() as usize;
        let pcache_step = match ctx.cfg().mode {
            ExecMode::CacheFuse => pcache_rows(ctx.cfg().pcache_bytes, row_bytes_total, full_rows),
            // MemFuse (and the per-op passes of Eager) work on whole
            // I/O partitions.
            ExecMode::MemFuse | ExecMode::Eager => full_rows,
        };

        if let (Some(tl), Some(t0)) = (ctx.tracer().timeline(), build_t0) {
            tl.lane().complete(
                "exec",
                "plan-build",
                t0,
                flashr_safs::now_nanos(),
                [("nodes", visited.len() as u64), ("nparts", nparts)],
            );
        }
        Plan {
            nrows,
            parter,
            nparts,
            pcache_step,
            sinks,
            talls,
            leaves,
            cum_nodes,
            resolved: resolved.clone(),
            consumers,
            chains: chain_set.chains,
            nnodes: visited.len(),
        }
    }

    /// Every node the pass covers, in deterministic DFS order from the
    /// targets, without descending past materialized data.
    pub fn collect_nodes(&self) -> Vec<Arc<Node>> {
        let mut order = Vec::new();
        let mut seen: HashMap<u64, ()> = HashMap::new();
        let mut stack: Vec<Arc<Node>> = Vec::new();
        for (_, s) in self.sinks.iter().rev() {
            stack.push(s.clone());
        }
        for t in self.talls.iter().rev() {
            stack.push(t.node.clone());
        }
        while let Some(node) = stack.pop() {
            if seen.contains_key(&node.id) {
                continue;
            }
            seen.insert(node.id, ());
            let materialized = self.leaf_mat(&node).is_some();
            if !materialized {
                for child in node.children().into_iter().rev() {
                    stack.push(child.clone());
                }
            }
            order.push(node);
        }
        order
    }

    /// `id: label [shape dtype]`, with a marker for materialized data.
    fn describe(&self, node: &Node) -> String {
        let mat = if self.leaf_mat(node).is_some() && !matches!(node.kind, NodeKind::Leaf(_)) {
            " (materialized)"
        } else {
            ""
        };
        format!(
            "n{}: {} [{}x{} {:?}]{}",
            node.id,
            node.label(),
            node.nrows,
            node.ncols,
            node.dtype,
            mat
        )
    }

    /// Render the plan as an indented text tree — what R's `explain()`
    /// would print for the pending DAG.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan: {} nodes, {} parts x {} rows, pcache step {} rows, {} sink(s), {} tall output(s)\n",
            self.nnodes,
            self.nparts,
            self.parter.rows_per_part(),
            self.pcache_step,
            self.sinks.len(),
            self.talls.len(),
        ));
        let mut roots: Vec<&u64> = self.chains.keys().collect();
        roots.sort();
        for root in roots {
            let c = &self.chains[root];
            if c.len < 2 {
                continue; // a one-op kernel is the node itself, shown in the tree
            }
            out.push_str(&format!(
                "fused at n{root}: {} ({} ops, {} interior, saves {} B/row)\n",
                c.label,
                c.len,
                c.interior.len(),
                c.saved_bytes_per_row
            ));
        }
        fn walk(plan: &Plan, node: &Arc<Node>, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&plan.describe(node));
            out.push('\n');
            if plan.leaf_mat(node).is_none() {
                for child in node.children() {
                    walk(plan, child, depth + 1, out);
                }
            }
        }
        for (slot, s) in &self.sinks {
            out.push_str(&format!("sink (slot {slot}):\n"));
            walk(self, s, 1, &mut out);
        }
        for t in &self.talls {
            match t.slot {
                Some(slot) => out.push_str(&format!("tall (slot {slot}):\n")),
                None => out.push_str("tall (set.cache byproduct):\n"),
            }
            walk(self, &t.node, 1, &mut out);
        }
        out
    }

    /// Render the plan as Graphviz DOT. Nodes carry shape/dtype labels;
    /// everything evaluated inside the single fused pass sits in one
    /// cluster, materialized inputs outside it.
    pub fn explain_dot(&self) -> String {
        let nodes = self.collect_nodes();
        let mut out = String::new();
        out.push_str("digraph flashr_plan {\n");
        out.push_str("  rankdir=BT;\n");
        out.push_str("  node [shape=box, fontsize=10];\n");
        out.push_str("  subgraph cluster_fused {\n");
        out.push_str(&format!(
            "    label=\"fused pass ({} parts, pcache step {})\";\n",
            self.nparts, self.pcache_step
        ));
        for node in &nodes {
            if self.leaf_mat(node).is_some() {
                continue;
            }
            let shape = if node.is_sink() { ", shape=ellipse" } else { "" };
            out.push_str(&format!(
                "    n{} [label=\"{}\\n{}x{} {:?}\"{}];\n",
                node.id,
                node.label(),
                node.nrows,
                node.ncols,
                node.dtype,
                shape
            ));
        }
        out.push_str("  }\n");
        for node in &nodes {
            if self.leaf_mat(node).is_none() {
                continue;
            }
            out.push_str(&format!(
                "  n{} [label=\"{}\\n{}x{} {:?}\", style=filled, fillcolor=lightgrey];\n",
                node.id,
                node.label(),
                node.nrows,
                node.ncols,
                node.dtype
            ));
        }
        for node in &nodes {
            if self.leaf_mat(node).is_some() {
                continue;
            }
            for child in node.children() {
                out.push_str(&format!("  n{} -> n{};\n", child.id, node.id));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::MapInput;
    use crate::ops::{AggOp, BinaryOp};

    fn ctx() -> FlashCtx {
        let cfg = crate::session::CtxConfig { rows_per_part: 64, ..Default::default() };
        FlashCtx::with_config(cfg, None)
    }

    fn leaf(n: u64, p: usize) -> Arc<Node> {
        Node::leaf(TasMat::from_fn::<f64>(n, p, Partitioner::new(64), |r, c| (r + c as u64) as f64))
    }

    #[test]
    fn collects_sinks_talls_and_leaves() {
        let ctx = ctx();
        let a = leaf(100, 2);
        let b = leaf(100, 2);
        let sum = Node::map_binary(BinaryOp::Add, a.clone(), MapInput::Node(b.clone()), false);
        let sink = Node::sink_col(AggOp::Sum, sum.clone());
        let plan = Plan::build(
            &ctx,
            &[Target::Sink(sink), Target::Tall { node: sum, storage: TargetStorage::Default }],
            &HashMap::new(),
        );
        assert_eq!(plan.sinks.len(), 1);
        assert_eq!(plan.talls.len(), 1);
        assert_eq!(plan.leaves.len(), 2);
        assert_eq!(plan.nrows, 100);
        assert_eq!(plan.nparts, 2);
    }

    #[test]
    fn cache_flag_adds_byproduct_output() {
        let ctx = ctx();
        let a = leaf(100, 2);
        let doubled = Node::map_binary(
            BinaryOp::Mul,
            a,
            MapInput::Scalar(crate::dtype::Scalar::F64(2.0)),
            false,
        );
        doubled.set_cache(true);
        let sink = Node::sink_full(AggOp::Sum, doubled.clone());
        let plan = Plan::build(&ctx, &[Target::Sink(sink)], &HashMap::new());
        assert_eq!(plan.talls.len(), 1);
        assert!(plan.talls[0].is_cache);
        assert_eq!(plan.talls[0].node.id, doubled.id);
    }

    #[test]
    #[should_panic]
    fn mismatched_nrows_rejected() {
        let ctx = ctx();
        let a = leaf(100, 1);
        let b = leaf(64, 1);
        // Two disconnected sinks over different-height matrices in one pass.
        let s1 = Node::sink_full(AggOp::Sum, a);
        let s2 = Node::sink_full(AggOp::Sum, b);
        let _ = Plan::build(&ctx, &[Target::Sink(s1), Target::Sink(s2)], &HashMap::new());
    }

    #[test]
    fn mem_fuse_uses_full_partitions() {
        let ctx = ctx().with_mode(ExecMode::MemFuse);
        let a = leaf(100, 2);
        let s = Node::sink_full(AggOp::Sum, a);
        let plan = Plan::build(&ctx, &[Target::Sink(s)], &HashMap::new());
        assert_eq!(plan.pcache_step, 64);
    }
}

//! Materialization planning: DAG discovery, validation, output layout and
//! Pcache sizing.
//!
//! The Pcache step is sized by what one range actually holds live. The
//! executor recycles a chunk as soon as its last consumer has read it
//! (paper §3.5.1), so [`Plan::live_row_bytes`] replays the executor's
//! evaluation order under the same consumer counts and takes the peak of
//! the chunks held at once — not the sum over every node, which grows
//! with the number of branches a plan has while the live set does not.

use crate::analysis::chains::{self, CompiledChain};
use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::exec::{Target, TargetStorage};
use crate::mat::{Layout, TasMat};
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
    /// Whether to install the result as the node's cache: set for a
    /// `set.cache` byproduct and for a target whose node requests caching
    /// (the slot then returns the installed matrix itself).
    pub is_cache: bool,
}

/// Whether a pass that computes `node` must install the result as its
/// `set.cache` data: the node asks for it and is not already materialized
/// data (a leaf, a generator, an installed cache or an eager-resolved
/// intermediate).
fn keeps_cache(node: &Node, resolved: &HashMap<u64, TasMat>) -> bool {
    node.cache_requested()
        && !node.is_sink()
        && !node.is_effective_leaf()
        && !resolved.contains_key(&node.id)
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
    /// Every node the pass covers, by id, to its dense index: the index
    /// per-partition state (chunk memo, use counters, leaf buffers) is
    /// kept under. Assigned in discovery order.
    pub slots: HashMap<u64, usize>,
    /// How many reads of each node's Pcache chunk one range makes, by slot
    /// (paper §3.5.1: the per-use counter driving buffer recycling). One
    /// per DAG edge — an input a node reads twice counts twice — plus one
    /// per target, sink or `set.cache` read. Every evaluation that reads a
    /// chunk counts its read once it is done, and the read that takes the
    /// counter to 0 recycles the chunk. Interior nodes of compiled chains
    /// count 0 — they never materialize.
    pub consumers: Vec<usize>,
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

    /// Whether the pass reads `node` where it lies when it is a chain's
    /// base or a product's operand: materialized, column-major data,
    /// which `exec::fused` multiplies or maps straight out of the
    /// partition buffer instead of copying a Pcache chunk.
    fn reads_in_place(&self, node: &Node) -> bool {
        self.leaf_mat(node).is_some_and(|m| m.layout() == Layout::ColMajor)
    }

    /// `node`'s dense index. Every node an evaluation reaches was
    /// discovered by [`Plan::build`], so every such node has one.
    pub fn slot(&self, node: &Node) -> usize {
        self.slots[&node.id]
    }

    /// Build and validate the plan.
    pub fn build(ctx: &FlashCtx, targets: &[Target], resolved: &HashMap<u64, TasMat>) -> Plan {
        let build_t0 = ctx.tracer().timeline().map(|_| flashr_safs::now_nanos());
        let mut sinks = Vec::new();
        let mut talls: Vec<TallOut> = Vec::new();
        let mut leaves: Vec<(u64, TasMat)> = Vec::new();
        let mut cum_nodes = Vec::new();
        let mut consumers: HashMap<u64, usize> = HashMap::new();
        let mut slots: HashMap<u64, usize> = HashMap::new();
        let mut tall_nrows: Option<u64> = None;
        let mut parter: Option<Partitioner> = None;

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
                    // A `set.cache` node keeps its data whichever call
                    // materializes it, and only once if targeted twice.
                    let is_cache =
                        keeps_cache(node, resolved) && !talls.iter().any(|t| t.node.id == node.id);
                    talls.push(TallOut { node: node.clone(), storage, slot: Some(slot), is_cache });
                    stack.push(node.clone());
                }
            }
        }

        while let Some(node) = stack.pop() {
            if slots.contains_key(&node.id) {
                continue;
            }
            slots.insert(node.id, reach.len());
            reach.push(node.clone());

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
            if keeps_cache(&node, resolved) && !talls.iter().any(|t| t.node.id == node.id) {
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
        // materializes or recycles them, so they take no room in the live
        // set the Pcache step is sized by.
        let is_mat = |n: &Node| resolved.contains_key(&n.id) || n.is_effective_leaf();
        let chain_set = chains::discover(&reach, &consumers, &is_mat);
        let mut uses = vec![0; reach.len()];
        for (id, n) in consumers {
            if !chain_set.interior.contains(&id) {
                uses[slots[&id]] = n;
            }
        }

        let nrows = tall_nrows.expect("DAG contains no tall matrices");
        let parter = parter.unwrap_or_else(|| ctx.parter());
        let nparts = parter.nparts(nrows);

        // MemFuse (and the per-op passes of Eager) work on whole I/O
        // partitions; CacheFuse splits them into ranges whose live chunks
        // fit the budget.
        let full_rows = parter.rows_per_part() as usize;
        let mut plan = Plan {
            nrows,
            parter,
            nparts,
            pcache_step: full_rows,
            sinks,
            talls,
            leaves,
            cum_nodes,
            resolved: resolved.clone(),
            slots,
            consumers: uses,
            chains: chain_set.chains,
            nnodes: reach.len(),
        };
        if ctx.cfg().mode == ExecMode::CacheFuse {
            plan.pcache_step =
                pcache_rows(ctx.cfg().pcache_bytes, plan.live_row_bytes(), full_rows);
        }

        if let (Some(tl), Some(t0)) = (ctx.tracer().timeline(), build_t0) {
            tl.lane().complete(
                "exec",
                "plan-build",
                t0,
                flashr_safs::now_nanos(),
                [("nodes", plan.nnodes as u64), ("nparts", nparts)],
            );
        }
        plan
    }

    /// The most chunk bytes per row one Pcache range holds at once.
    ///
    /// A replay of the executor's range (`exec::fused::process_part`):
    /// the sinks' inputs, then the tall outputs, each evaluated
    /// depth-first under the same consumer counts. A chunk is held from
    /// its evaluation until the read that takes its counter to 0. A
    /// kernel's interior nodes take no room, its output is produced while
    /// its aux inputs and base are held, and a column-major leaf base —
    /// or a product's column-major leaf operand not already held — is
    /// read in place; a kernel root only a tall output reads writes into
    /// that output. Everything evaluated for a `cum.col`, and the
    /// `cum.col` itself, is held to the end of the range. Multiply by the
    /// step for bytes.
    pub fn live_row_bytes(&self) -> usize {
        let mut walk = LiveWalk {
            plan: self,
            remaining: self.consumers.clone(),
            live: vec![false; self.nnodes],
            pinned: 0,
            bytes: 0,
            peak: 0,
        };
        for (_, sink) in &self.sinks {
            sink.for_each_child(|c| walk.eval(c));
            sink.for_each_child(|c| walk.consume(c));
        }
        for t in &self.talls {
            let slot = self.slot(&t.node);
            match self.chains.get(&t.node.id) {
                Some(chain) if !walk.live[slot] && walk.remaining[slot] == 1 => {
                    walk.kernel(chain, None);
                }
                _ => walk.eval(&t.node),
            }
            walk.consume(&t.node);
        }
        walk.peak
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
            "plan: {} nodes, {} parts x {} rows, pcache step {} rows ({} B/row live), {} sink(s), {} tall output(s)\n",
            self.nnodes,
            self.nparts,
            self.parter.rows_per_part(),
            self.pcache_step,
            self.live_row_bytes(),
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

/// [`Plan::live_row_bytes`]'s replay of one range.
struct LiveWalk<'a> {
    plan: &'a Plan,
    /// Reads left per slot, as the executor counts them.
    remaining: Vec<usize>,
    /// Whether the range memo holds the slot's chunk.
    live: Vec<bool>,
    /// Depth under `cum.col` inputs, whose reads free nothing.
    pinned: usize,
    /// Bytes per row held now, and at most.
    bytes: usize,
    peak: usize,
}

impl LiveWalk<'_> {
    fn eval(&mut self, node: &Arc<Node>) {
        let slot = self.plan.slot(node);
        if self.live[slot] {
            return;
        }
        let plan = self.plan;
        if plan.leaf_mat(node).is_some() {
            self.produce(slot, node);
        } else if let Some(chain) = plan.chains.get(&node.id) {
            self.kernel(chain, Some((slot, node.as_ref())));
        } else if let Some(a) =
            product_operand(node).filter(|a| plan.reads_in_place(a) && !self.live[plan.slot(a)])
        {
            self.produce(slot, node);
            self.consume(a);
        } else if let NodeKind::CumCol { input, .. } = &node.kind {
            self.pinned += 1;
            self.eval(input);
            self.pinned -= 1;
            self.produce(slot, node);
        } else {
            node.for_each_child(|c| self.eval(c));
            self.produce(slot, node);
            node.for_each_child(|c| self.consume(c));
        }
    }

    /// One kernel run, producing `root`'s chunk or, with `None`, writing
    /// into a tall output.
    fn kernel(&mut self, chain: &CompiledChain, root: Option<(usize, &Node)>) {
        for a in &chain.aux {
            self.eval(a);
        }
        if !self.plan.reads_in_place(&chain.base) {
            self.eval(&chain.base);
        }
        if let Some((slot, node)) = root {
            self.produce(slot, node);
        }
        for a in &chain.aux {
            self.consume(a);
        }
        self.consume(&chain.base);
    }

    fn produce(&mut self, slot: usize, node: &Node) {
        self.live[slot] = true;
        self.bytes += node.ncols * node.dtype.size();
        self.peak = self.peak.max(self.bytes);
    }

    fn consume(&mut self, node: &Node) {
        if self.pinned > 0 || matches!(node.kind, NodeKind::CumCol { .. }) {
            return;
        }
        let slot = self.plan.slot(node);
        let count = &mut self.remaining[slot];
        if *count == 0 {
            return;
        }
        *count -= 1;
        if *count == 0 && std::mem::take(&mut self.live[slot]) {
            self.bytes -= node.ncols * node.dtype.size();
        }
    }
}

/// A product's tall operand.
fn product_operand(node: &Node) -> Option<&Arc<Node>> {
    match &node.kind {
        NodeKind::Map { op: MapOp::MatMul(_), inputs } => match inputs.first() {
            Some(MapInput::Node(a)) => Some(a),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_dags;
    use crate::fm::FM;
    use crate::ops::{AggOp, BinaryOp};

    fn ctx() -> FlashCtx {
        let cfg = crate::session::CtxConfig { rows_per_part: 64, ..Default::default() };
        let ctx = FlashCtx::with_config(cfg, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        ctx
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

    /// The step of the CacheFuse plan over `fms`, at the default budget.
    fn cache_fuse_step(ctx: &FlashCtx, fms: &[FM]) -> usize {
        let targets: Vec<Target> = fms.iter().filter_map(FM::pending_target).collect();
        Plan::build(ctx, &targets, &HashMap::new()).pcache_step
    }

    #[test]
    fn the_pcache_step_does_not_shrink_with_the_branch_count() {
        // A GMM E-step has a branch per component, but a range holds only
        // a few branches' chunks at once: a sum over every node would cut
        // the step about k-fold (23 rows at k = 10).
        let cfg = crate::session::CtxConfig { rows_per_part: 4096, ..Default::default() };
        let ctx = FlashCtx::with_config(cfg, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        let x = FM::runif(&ctx, 4096, 32, 0.0, 1.0, 3).materialize(&ctx);
        let steps: Vec<usize> = [2, 10, 20]
            .iter()
            .map(|&k| cache_fuse_step(&ctx, &test_dags::gmm_e_step(&x, k)))
            .collect();
        assert!(2 * steps[2] >= steps[0], "steps at k = 2, 10, 20: {steps:?}");
        assert!(steps[1] > 100, "steps at k = 2, 10, 20: {steps:?}");
    }

    #[test]
    fn the_live_set_counts_what_recycling_leaves() {
        let ctx = ctx();
        let a = leaf(100, 2);
        // sum(sqrt(a)): the kernel reads `a` in place and its 2-column
        // output is all the range holds.
        let s = Node::sink_full(AggOp::Sum, Node::map_unary(crate::ops::UnaryOp::Sqrt, a.clone()));
        let plan = Plan::build(&ctx, &[Target::Sink(s)], &HashMap::new());
        assert_eq!(plan.live_row_bytes(), 16);
        // Two rowSums of `a`, read by one sink each and by a cbind: the
        // leaf chunk goes after the second rowSums, the rowSums stay for
        // the cbind, so at most leaf + rowSums + rowSums = 32 B/row or
        // rowSums + rowSums + cbind = 32 B/row are live.
        let r1 = Node::agg_row(AggOp::Sum, a.clone());
        let r2 = Node::agg_row(AggOp::Max, a);
        let both = Node::bind_cols(vec![r1.clone(), r2.clone()]);
        let plan = Plan::build(
            &ctx,
            &[
                Target::Sink(Node::sink_full(AggOp::Sum, r1)),
                Target::Sink(Node::sink_full(AggOp::Sum, r2)),
                Target::Tall { node: both, storage: TargetStorage::InMem },
            ],
            &HashMap::new(),
        );
        assert_eq!(plan.live_row_bytes(), 32);
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

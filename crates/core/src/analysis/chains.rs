//! Map-chain discovery: compile every element-wise `Map` node into a
//! [`FusedMapKernel`], fusing maximal single-consumer chains into one
//! kernel (paper §3.4–3.5). This is the only way the executor runs a
//! unary, binary or cast map.
//!
//! A node is a *link* when it is an element-wise `Map` that is not
//! already materialized: its spine input (operand 0) is a tall node and
//! its other operand, if any, is a scalar, a row vector, or another tall
//! node — materialized or lazy — which the executor evaluates like any
//! other node and hands to the kernel as an auxiliary chunk. A link is
//! *interior* to a chain when its only consumer is the link above it,
//! through the spine, and it is not independently wanted (`set.cache`,
//! tall target, sink input — all of which show up as extra consumer
//! counts). Everything else — `Select`, `Bind`, `MatMul`, cumulative
//! ops, aggregations, multi-consumer nodes — ends a chain; a link with
//! no interior below it compiles to a one-step kernel.
//!
//! Discovery runs at plan-build time, after the CSE rewrite
//! ([`crate::analysis::cse`]) has merged duplicate subtrees: CSE can
//! therefore *shorten* chains (a shared `sqrt(x+1)` has two consumers
//! and becomes a barrier), which is the correct trade — the shared
//! intermediate is computed once instead of twice inline.

use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::dtype::Scalar;
use crate::ops::fused_map::{ChainLink, ChainOpSpec, ChainOperand, FusedMapKernel};
use crate::ops::{BinaryOp, UnaryOp};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A discovered chain, compiled and ready to execute: the kernel plus
/// the inputs the executor must resolve (spine base + auxiliary chunk
/// operands, in kernel aux-index order).
pub struct CompiledChain {
    pub kernel: FusedMapKernel,
    /// The chain's spine input (evaluated like any other node).
    pub base: Arc<Node>,
    /// Tall operands of `BinChunk` links (evaluated before the sweep).
    pub aux: Vec<Arc<Node>>,
    /// Number of ops in the kernel; a chain proper has ≥ 2.
    pub len: usize,
    /// Ids of the chain's interior nodes (never materialized).
    pub interior: Vec<u64>,
    /// Bytes of intermediate chunks skipped per matrix row — the sum of
    /// `ncols × dtype.size` over interior nodes.
    pub saved_bytes_per_row: u64,
    /// Display label: `chain[mapply:Add->sapply:Sqrt]`, or the node's
    /// own label for a one-op kernel.
    pub label: String,
}

/// The discovery result the plan stores.
#[derive(Default)]
pub struct ChainSet {
    /// Chain-root node id → compiled chain.
    pub chains: HashMap<u64, CompiledChain>,
    /// All interior node ids (for consumer-counter fixup and memo skip).
    pub interior: HashSet<u64>,
}

/// One fusible link, before aux-index assignment.
enum RawOp {
    Unary(UnaryOp),
    Cast,
    BinScalar { op: BinaryOp, swapped: bool, s: Scalar },
    BinRowVec { op: BinaryOp, swapped: bool, v: Arc<Vec<f64>> },
    BinChunk { op: BinaryOp, swapped: bool, aux: Arc<Node> },
}

/// Classify `node` as a link: returns the micro-op and the spine input
/// it applies to, or `None` if the node is materialized or not an
/// element-wise map.
fn link_of(node: &Node, is_mat: &dyn Fn(&Node) -> bool) -> Option<(RawOp, Arc<Node>)> {
    if is_mat(node) {
        return None;
    }
    let NodeKind::Map { op, inputs } = &node.kind else { return None };
    let MapInput::Node(spine) = inputs.first()? else { return None };
    let raw = match op {
        MapOp::Unary(u) => RawOp::Unary(*u),
        MapOp::Cast(_) => RawOp::Cast,
        MapOp::Binary { op, swapped } => match inputs.get(1)? {
            MapInput::Scalar(s) => RawOp::BinScalar { op: *op, swapped: *swapped, s: *s },
            MapInput::RowVec(v) => RawOp::BinRowVec { op: *op, swapped: *swapped, v: v.clone() },
            MapInput::Node(b) => RawOp::BinChunk { op: *op, swapped: *swapped, aux: b.clone() },
        },
        // Shape-changing / non-element-wise maps end a chain.
        MapOp::MatMul(_)
        | MapOp::InnerProd { .. }
        | MapOp::Select(_)
        | MapOp::Bind
        | MapOp::GroupCols { .. } => return None,
    };
    Some((raw, spine.clone()))
}

/// Discover and compile all chains among `nodes` (the plan's reachable
/// tall nodes). `consumers` is the plan's consumer-count map (every DAG
/// edge plus target/cache registrations); `is_mat` says whether a node
/// already has materialized data this pass can read.
pub fn discover(
    nodes: &[Arc<Node>],
    consumers: &HashMap<u64, usize>,
    is_mat: &dyn Fn(&Node) -> bool,
) -> ChainSet {
    // Pass 1: which nodes are fusible links at all?
    let mut fusible: HashMap<u64, (RawOp, Arc<Node>)> = HashMap::new();
    for n in nodes {
        if let Some(link) = link_of(n, is_mat) {
            fusible.insert(n.id, link);
        }
    }

    // Pass 2: interior nodes — fusible, sole-consumer, not wanted
    // independently. `consumers` counts every edge (spine + aux) plus
    // one extra for tall targets, sink registrations and `set.cache`
    // byproducts, so `== 1` certifies "only my chain parent reads me".
    let mut interior: HashSet<u64> = HashSet::new();
    for n in nodes {
        if !fusible.contains_key(&n.id) {
            continue;
        }
        let (_, spine) = &fusible[&n.id];
        if fusible.contains_key(&spine.id)
            && !spine.cache_requested()
            && consumers.get(&spine.id).copied().unwrap_or(0) == 1
        {
            interior.insert(spine.id);
        }
    }

    // Pass 3: assemble chains from each root (fusible, not interior),
    // walking the spine down through interior links.
    let mut chains: HashMap<u64, CompiledChain> = HashMap::new();
    for n in nodes {
        if !fusible.contains_key(&n.id) || interior.contains(&n.id) || chains.contains_key(&n.id) {
            continue;
        }
        // Root → base order first: walk the spine down while the child
        // is interior (interior nodes are fusible by construction).
        let mut spine_nodes: Vec<&Arc<Node>> = vec![n];
        loop {
            let cur_id = spine_nodes.last().unwrap().id;
            let spine = &fusible[&cur_id].1;
            if !interior.contains(&spine.id) {
                break;
            }
            spine_nodes.push(spine);
        }
        // Compile bottom-up (base → root).
        let mut links: Vec<ChainLink> = Vec::with_capacity(spine_nodes.len());
        let mut aux: Vec<Arc<Node>> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        let mut saved = 0u64;
        let mut interior_ids: Vec<u64> = Vec::new();
        let base = fusible[&spine_nodes.last().unwrap().id].1.clone();
        for link_node in spine_nodes.iter().rev() {
            let (raw, spine) = &fusible[&link_node.id];
            let op = match raw {
                RawOp::Unary(u) => ChainOpSpec::Unary(*u),
                RawOp::Cast => ChainOpSpec::Cast,
                RawOp::BinScalar { op, swapped, s } => ChainOpSpec::Binary {
                    op: *op,
                    swapped: *swapped,
                    operand: ChainOperand::Scalar(*s),
                },
                RawOp::BinRowVec { op, swapped, v } => ChainOpSpec::Binary {
                    op: *op,
                    swapped: *swapped,
                    operand: ChainOperand::RowVec(v.clone()),
                },
                RawOp::BinChunk { op, swapped, aux: a } => {
                    aux.push(a.clone());
                    ChainOpSpec::Binary {
                        op: *op,
                        swapped: *swapped,
                        operand: ChainOperand::Chunk { aux: aux.len() - 1, recycle: a.ncols == 1 },
                    }
                }
            };
            links.push(ChainLink { op, in_dtype: spine.dtype, out_dtype: link_node.dtype });
            labels.push(link_node.label());
            if link_node.id != n.id {
                // Every non-root chain member is interior.
                interior_ids.push(link_node.id);
                saved += (link_node.ncols * link_node.dtype.size()) as u64;
            }
        }

        let label = match labels.len() {
            1 => labels.remove(0),
            _ => format!("chain[{}]", labels.join("->")),
        };
        chains.insert(
            n.id,
            CompiledChain {
                kernel: FusedMapKernel::compile(&links),
                base,
                aux,
                len: links.len(),
                interior: interior_ids,
                saved_bytes_per_row: saved,
                label,
            },
        );
    }

    // Every interior node has a fusible parent, and the walk from that
    // parent's root collects it, so `interior` is exactly the union of
    // the per-chain interior lists.
    debug_assert_eq!(
        chains.values().map(|c| c.interior.len()).sum::<usize>(),
        interior.len(),
        "orphaned interior node"
    );

    ChainSet { chains, interior }
}

//! Plan rewriting: hash-consing CSE, dead-node pruning and collapsing.
//!
//! The rewrite is *identity-preserving*: a node whose subtree contains no
//! duplicate work maps to itself (same `Arc`), so handles the user still
//! holds — and their `set.cache` flags and installed caches — stay valid.
//! Only nodes whose children were re-pointed are rebuilt, and structural
//! duplicates are merged onto one canonical representative so the fused
//! pass evaluates (and the eager engine materializes) each distinct
//! computation once.
//!
//! Merging is keyed by a structural hash and confirmed by
//! `structural_eq` — a hash collision can cost a missed merge, never a
//! wrong one. Floats are compared and hashed by bit pattern, which is
//! conservative (`0.0`/`-0.0` do not merge) but never unsound. Leaves and
//! already-cached nodes are identity-keyed: their data lives outside the
//! DAG and two distinct leaves are never assumed equal. Generator nodes
//! are deterministic functions of their spec, so equal specs merge.

use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::exec::Target;
use crate::gen::GenSpec;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Outcome of rewriting one target set.
pub struct Rewrite {
    /// Targets re-rooted on the canonical DAG, slot for slot.
    pub targets: Vec<Target>,
    pub nodes_before: usize,
    pub nodes_after: usize,
    /// Duplicate subtrees merged onto a canonical node.
    pub merged: usize,
    /// Redundant casts and single-input `cbind`s removed.
    pub collapsed: usize,
    /// `(original, canonical)` pairs whose cache must be copied back
    /// after materialization (see [`crate::analysis::Analysis`]).
    pub cache_pairs: Vec<(Arc<Node>, Arc<Node>)>,
}

fn hash_f64<H: Hasher>(v: f64, h: &mut H) {
    v.to_bits().hash(h);
}

fn hash_gen<H: Hasher>(spec: &GenSpec, h: &mut H) {
    match spec {
        GenSpec::Runif { seed, lo, hi } => {
            0u8.hash(h);
            seed.hash(h);
            hash_f64(*lo, h);
            hash_f64(*hi, h);
        }
        GenSpec::Rnorm { seed, mean, sd } => {
            1u8.hash(h);
            seed.hash(h);
            hash_f64(*mean, h);
            hash_f64(*sd, h);
        }
        GenSpec::Seq { start, step } => {
            2u8.hash(h);
            hash_f64(*start, h);
            hash_f64(*step, h);
        }
        GenSpec::Const { value } => {
            3u8.hash(h);
            hash_f64(*value, h);
        }
    }
}

fn gen_eq(a: &GenSpec, b: &GenSpec) -> bool {
    // Bit-level float comparison: conservative and reflexive (a spec
    // always merges with an identical one, NaN included).
    match (a, b) {
        (
            GenSpec::Runif { seed: s1, lo: l1, hi: h1 },
            GenSpec::Runif { seed: s2, lo: l2, hi: h2 },
        ) => s1 == s2 && l1.to_bits() == l2.to_bits() && h1.to_bits() == h2.to_bits(),
        (
            GenSpec::Rnorm { seed: s1, mean: m1, sd: d1 },
            GenSpec::Rnorm { seed: s2, mean: m2, sd: d2 },
        ) => s1 == s2 && m1.to_bits() == m2.to_bits() && d1.to_bits() == d2.to_bits(),
        (GenSpec::Seq { start: a1, step: p1 }, GenSpec::Seq { start: a2, step: p2 }) => {
            a1.to_bits() == a2.to_bits() && p1.to_bits() == p2.to_bits()
        }
        (GenSpec::Const { value: v1 }, GenSpec::Const { value: v2 }) => {
            v1.to_bits() == v2.to_bits()
        }
        _ => false,
    }
}

fn dense_bits_eq(a: &flashr_linalg::Dense, b: &flashr_linalg::Dense) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().map(|v| v.to_bits()).eq(b.as_slice().iter().map(|v| v.to_bits()))
}

fn hash_dense<H: Hasher>(d: &flashr_linalg::Dense, h: &mut H) {
    d.rows().hash(h);
    d.cols().hash(h);
    for v in d.as_slice() {
        hash_f64(*v, h);
    }
}

fn hash_map_input<H: Hasher>(i: &MapInput, h: &mut H) {
    match i {
        MapInput::Node(n) => {
            0u8.hash(h);
            n.id.hash(h); // canonical by construction
        }
        MapInput::Scalar(s) => {
            1u8.hash(h);
            s.dtype().hash(h);
            hash_f64(s.to_f64(), h);
        }
        MapInput::RowVec(v) => {
            2u8.hash(h);
            v.len().hash(h);
            for x in v.iter() {
                hash_f64(*x, h);
            }
        }
    }
}

fn map_input_eq(a: &MapInput, b: &MapInput) -> bool {
    match (a, b) {
        (MapInput::Node(x), MapInput::Node(y)) => Arc::ptr_eq(x, y),
        (MapInput::Scalar(x), MapInput::Scalar(y)) => {
            x.dtype() == y.dtype() && x.to_f64().to_bits() == y.to_f64().to_bits()
        }
        (MapInput::RowVec(x), MapInput::RowVec(y)) => {
            Arc::ptr_eq(x, y) || x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits()))
        }
        _ => false,
    }
}

fn hash_map_op<H: Hasher>(op: &MapOp, h: &mut H) {
    match op {
        MapOp::Unary(u) => {
            0u8.hash(h);
            u.hash(h);
        }
        MapOp::Binary { op, swapped } => {
            1u8.hash(h);
            op.hash(h);
            swapped.hash(h);
        }
        MapOp::Cast(dt) => {
            2u8.hash(h);
            dt.hash(h);
        }
        MapOp::MatMul(b) => {
            3u8.hash(h);
            hash_dense(b, h);
        }
        MapOp::InnerProd { b, f1, f2 } => {
            4u8.hash(h);
            hash_dense(b, h);
            f1.hash(h);
            f2.hash(h);
        }
        MapOp::Select(idx) => {
            5u8.hash(h);
            idx.hash(h);
        }
        MapOp::Bind => 6u8.hash(h),
        MapOp::GroupCols { labels, op, ngroups } => {
            7u8.hash(h);
            labels.hash(h);
            op.hash(h);
            ngroups.hash(h);
        }
    }
}

fn map_op_eq(a: &MapOp, b: &MapOp) -> bool {
    match (a, b) {
        (MapOp::Unary(x), MapOp::Unary(y)) => x == y,
        (MapOp::Binary { op: x, swapped: sx }, MapOp::Binary { op: y, swapped: sy }) => {
            x == y && sx == sy
        }
        (MapOp::Cast(x), MapOp::Cast(y)) => x == y,
        (MapOp::MatMul(x), MapOp::MatMul(y)) => Arc::ptr_eq(x, y) || dense_bits_eq(x, y),
        (
            MapOp::InnerProd { b: bx, f1: f1x, f2: f2x },
            MapOp::InnerProd { b: by, f1: f1y, f2: f2y },
        ) => f1x == f1y && f2x == f2y && (Arc::ptr_eq(bx, by) || dense_bits_eq(bx, by)),
        (MapOp::Select(x), MapOp::Select(y)) => x == y,
        (MapOp::Bind, MapOp::Bind) => true,
        (
            MapOp::GroupCols { labels: lx, op: ox, ngroups: nx },
            MapOp::GroupCols { labels: ly, op: oy, ngroups: ny },
        ) => ox == oy && nx == ny && lx == ly,
        _ => false,
    }
}

/// Structural hash of a node whose children are already canonical.
fn structural_hash(node: &Node) -> u64 {
    let mut h = DefaultHasher::new();
    node.nrows.hash(&mut h);
    node.ncols.hash(&mut h);
    node.dtype.hash(&mut h);
    match &node.kind {
        NodeKind::Leaf(_) => {
            // Identity-keyed; never bucketed, but keep the arm total.
            0u8.hash(&mut h);
            node.id.hash(&mut h);
        }
        NodeKind::Gen(spec) => {
            1u8.hash(&mut h);
            hash_gen(spec, &mut h);
        }
        NodeKind::Map { op, inputs } => {
            2u8.hash(&mut h);
            hash_map_op(op, &mut h);
            inputs.len().hash(&mut h);
            for i in inputs {
                hash_map_input(i, &mut h);
            }
        }
        NodeKind::AggRow { op, input } => {
            3u8.hash(&mut h);
            op.hash(&mut h);
            input.id.hash(&mut h);
        }
        NodeKind::CumRow { op, input } => {
            4u8.hash(&mut h);
            op.hash(&mut h);
            input.id.hash(&mut h);
        }
        NodeKind::CumCol { op, input } => {
            5u8.hash(&mut h);
            op.hash(&mut h);
            input.id.hash(&mut h);
        }
        NodeKind::SinkFull { op, input } => {
            6u8.hash(&mut h);
            op.hash(&mut h);
            input.id.hash(&mut h);
        }
        NodeKind::SinkCol { op, input } => {
            7u8.hash(&mut h);
            op.hash(&mut h);
            input.id.hash(&mut h);
        }
        NodeKind::SinkGramian { a, b } => {
            8u8.hash(&mut h);
            a.id.hash(&mut h);
            b.id.hash(&mut h);
        }
        NodeKind::SinkGroupBy { data, labels, op, ngroups } => {
            9u8.hash(&mut h);
            data.id.hash(&mut h);
            labels.id.hash(&mut h);
            op.hash(&mut h);
            ngroups.hash(&mut h);
        }
    }
    h.finish()
}

/// Structural equality of two nodes whose children are already canonical
/// (children compared by pointer). Confirms bucket hits so a hash
/// collision can never merge distinct computations.
fn structural_eq(a: &Node, b: &Node) -> bool {
    if (a.nrows, a.ncols, a.dtype) != (b.nrows, b.ncols, b.dtype) {
        return false;
    }
    match (&a.kind, &b.kind) {
        (NodeKind::Leaf(_), NodeKind::Leaf(_)) => a.id == b.id,
        (NodeKind::Gen(x), NodeKind::Gen(y)) => gen_eq(x, y),
        (NodeKind::Map { op: ox, inputs: ix }, NodeKind::Map { op: oy, inputs: iy }) => {
            map_op_eq(ox, oy)
                && ix.len() == iy.len()
                && ix.iter().zip(iy).all(|(x, y)| map_input_eq(x, y))
        }
        (NodeKind::AggRow { op: ox, input: x }, NodeKind::AggRow { op: oy, input: y })
        | (NodeKind::SinkFull { op: ox, input: x }, NodeKind::SinkFull { op: oy, input: y })
        | (NodeKind::SinkCol { op: ox, input: x }, NodeKind::SinkCol { op: oy, input: y }) => {
            ox == oy && Arc::ptr_eq(x, y)
        }
        (NodeKind::CumRow { op: ox, input: x }, NodeKind::CumRow { op: oy, input: y })
        | (NodeKind::CumCol { op: ox, input: x }, NodeKind::CumCol { op: oy, input: y }) => {
            ox == oy && Arc::ptr_eq(x, y)
        }
        (NodeKind::SinkGramian { a: ax, b: bx }, NodeKind::SinkGramian { a: ay, b: by }) => {
            Arc::ptr_eq(ax, ay) && Arc::ptr_eq(bx, by)
        }
        (
            NodeKind::SinkGroupBy { data: dx, labels: lx, op: ox, ngroups: nx },
            NodeKind::SinkGroupBy { data: dy, labels: ly, op: oy, ngroups: ny },
        ) => ox == oy && nx == ny && Arc::ptr_eq(dx, dy) && Arc::ptr_eq(lx, ly),
        _ => false,
    }
}

/// Whether casting from `from` through `mid` loses no information, i.e.
/// `cast(cast(x, mid), to)` ≡ `cast(x, to)` for every value of `x`.
fn lossless(from: crate::dtype::DType, mid: crate::dtype::DType) -> bool {
    use crate::dtype::DType::*;
    matches!((from, mid), (U8, _) | (I32, I64) | (I32, F64) | (F32, F64)) || from == mid
}

struct Rewriter {
    /// original node id → canonical node.
    map: HashMap<u64, Arc<Node>>,
    /// structural hash → canonical nodes with that hash.
    buckets: HashMap<u64, Vec<Arc<Node>>>,
    merged: usize,
    collapsed: usize,
    cache_pairs: Vec<(Arc<Node>, Arc<Node>)>,
}

impl Rewriter {
    fn new() -> Rewriter {
        Rewriter {
            map: HashMap::new(),
            buckets: HashMap::new(),
            merged: 0,
            collapsed: 0,
            cache_pairs: Vec::new(),
        }
    }

    /// Canonicalize `node`, canonicalizing its subtree first.
    fn canon(&mut self, node: &Arc<Node>) -> Arc<Node> {
        if let Some(c) = self.map.get(&node.id) {
            return c.clone();
        }

        // Materialized data is identity: a Leaf's (or cached node's) data
        // lives outside the DAG, so two distinct handles are never merged
        // — but uncached generators are pure functions of their spec and
        // go through the bucket below like any other node.
        let cached_leaf = node.cached().is_some() || matches!(node.kind, NodeKind::Leaf(_));
        let canonical = if cached_leaf {
            node.clone()
        } else {
            let rebuilt = self.rebuild(node);
            match rebuilt {
                // Collapsed to an existing node (identity cast, cast-of-
                // cast, cbind-of-one): already canonical.
                Rebuilt::Collapsed(c) => c,
                Rebuilt::Node(candidate) => {
                    let h = structural_hash(&candidate);
                    let bucket = self.buckets.entry(h).or_default();
                    if let Some(existing) = bucket.iter().find(|e| structural_eq(e, &candidate)) {
                        if !Arc::ptr_eq(existing, node) {
                            self.merged += 1;
                        }
                        existing.clone()
                    } else {
                        bucket.push(candidate.clone());
                        candidate
                    }
                }
            }
        };

        if node.cache_requested() && !Arc::ptr_eq(&canonical, node) {
            // Make the pass cache the canonical node, then copy the
            // result back onto the user's handle (the engine installs
            // caches on the nodes it actually evaluates).
            canonical.set_cache(true);
            self.cache_pairs.push((node.clone(), canonical.clone()));
        }
        self.map.insert(node.id, canonical.clone());
        canonical
    }

    /// Re-parent `node` onto canonical children, applying local
    /// simplifications. Returns the node itself when nothing changed.
    fn rebuild(&mut self, node: &Arc<Node>) -> Rebuilt {
        match &node.kind {
            NodeKind::Leaf(_) => Rebuilt::Node(node.clone()),
            NodeKind::Gen(_) => Rebuilt::Node(node.clone()),
            NodeKind::Map { op, inputs } => {
                let mut changed = false;
                let new_inputs: Vec<MapInput> = inputs
                    .iter()
                    .map(|i| match i {
                        MapInput::Node(n) => {
                            let c = self.canon(n);
                            changed |= !Arc::ptr_eq(&c, n);
                            MapInput::Node(c)
                        }
                        other => other.clone(),
                    })
                    .collect();

                // cast collapsing: identity casts and lossless chains.
                if let MapOp::Cast(to) = op {
                    if let Some(MapInput::Node(input)) = new_inputs.first() {
                        if input.dtype == *to {
                            self.collapsed += 1;
                            return Rebuilt::Collapsed(input.clone());
                        }
                        if let NodeKind::Map { op: MapOp::Cast(mid), inputs: grand } = &input.kind {
                            if !input.is_effective_leaf() && !input.cache_requested() {
                                if let Some(MapInput::Node(base)) = grand.first() {
                                    if lossless(base.dtype, *mid) {
                                        self.collapsed += 1;
                                        if base.dtype == *to {
                                            return Rebuilt::Collapsed(base.clone());
                                        }
                                        return Rebuilt::Node(Node::raw(
                                            NodeKind::Map {
                                                op: MapOp::Cast(*to),
                                                inputs: vec![MapInput::Node(base.clone())],
                                            },
                                            node.nrows,
                                            node.ncols,
                                            *to,
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }

                // cbind of a single input is the input (dtypes already
                // promoted by the constructor).
                if matches!(op, MapOp::Bind) && new_inputs.len() == 1 {
                    if let Some(MapInput::Node(only)) = new_inputs.first() {
                        if only.dtype == node.dtype && only.ncols == node.ncols {
                            self.collapsed += 1;
                            return Rebuilt::Collapsed(only.clone());
                        }
                    }
                }

                if !changed {
                    Rebuilt::Node(node.clone())
                } else {
                    Rebuilt::Node(Node::raw(
                        NodeKind::Map { op: op.clone(), inputs: new_inputs },
                        node.nrows,
                        node.ncols,
                        node.dtype,
                    ))
                }
            }
            NodeKind::AggRow { op, input } => {
                let c = self.canon(input);
                if Arc::ptr_eq(&c, input) {
                    Rebuilt::Node(node.clone())
                } else {
                    Rebuilt::Node(Node::raw(
                        NodeKind::AggRow { op: *op, input: c },
                        node.nrows,
                        node.ncols,
                        node.dtype,
                    ))
                }
            }
            NodeKind::CumRow { op, input } => {
                let c = self.canon(input);
                if Arc::ptr_eq(&c, input) {
                    Rebuilt::Node(node.clone())
                } else {
                    Rebuilt::Node(Node::raw(
                        NodeKind::CumRow { op: *op, input: c },
                        node.nrows,
                        node.ncols,
                        node.dtype,
                    ))
                }
            }
            NodeKind::CumCol { op, input } => {
                let c = self.canon(input);
                if Arc::ptr_eq(&c, input) {
                    Rebuilt::Node(node.clone())
                } else {
                    Rebuilt::Node(Node::raw(
                        NodeKind::CumCol { op: *op, input: c },
                        node.nrows,
                        node.ncols,
                        node.dtype,
                    ))
                }
            }
            NodeKind::SinkFull { op, input } => {
                let c = self.canon(input);
                if Arc::ptr_eq(&c, input) {
                    Rebuilt::Node(node.clone())
                } else {
                    Rebuilt::Node(Node::raw(
                        NodeKind::SinkFull { op: *op, input: c },
                        node.nrows,
                        node.ncols,
                        node.dtype,
                    ))
                }
            }
            NodeKind::SinkCol { op, input } => {
                let c = self.canon(input);
                if Arc::ptr_eq(&c, input) {
                    Rebuilt::Node(node.clone())
                } else {
                    Rebuilt::Node(Node::raw(
                        NodeKind::SinkCol { op: *op, input: c },
                        node.nrows,
                        node.ncols,
                        node.dtype,
                    ))
                }
            }
            NodeKind::SinkGramian { a, b } => {
                let (ca, cb) = (self.canon(a), self.canon(b));
                if Arc::ptr_eq(&ca, a) && Arc::ptr_eq(&cb, b) {
                    Rebuilt::Node(node.clone())
                } else {
                    Rebuilt::Node(Node::raw(
                        NodeKind::SinkGramian { a: ca, b: cb },
                        node.nrows,
                        node.ncols,
                        node.dtype,
                    ))
                }
            }
            NodeKind::SinkGroupBy { data, labels, op, ngroups } => {
                let (cd, cl) = (self.canon(data), self.canon(labels));
                if Arc::ptr_eq(&cd, data) && Arc::ptr_eq(&cl, labels) {
                    Rebuilt::Node(node.clone())
                } else {
                    Rebuilt::Node(Node::raw(
                        NodeKind::SinkGroupBy { data: cd, labels: cl, op: *op, ngroups: *ngroups },
                        node.nrows,
                        node.ncols,
                        node.dtype,
                    ))
                }
            }
        }
    }
}

enum Rebuilt {
    /// A (possibly re-parented) node to hash-cons.
    Node(Arc<Node>),
    /// The node simplified away to an existing canonical node.
    Collapsed(Arc<Node>),
}

/// Rewrite a target set into an equivalent, canonicalized one.
pub fn rewrite(targets: &[Target]) -> Rewrite {
    let nodes_before = super::count_nodes(targets);
    let mut rw = Rewriter::new();
    let targets: Vec<Target> = targets
        .iter()
        .map(|t| match t {
            Target::Sink(n) => Target::Sink(rw.canon(n)),
            Target::Tall { node, storage } => {
                Target::Tall { node: rw.canon(node), storage: *storage }
            }
        })
        .collect();
    let nodes_after = super::count_nodes(&targets);
    Rewrite {
        targets,
        nodes_before,
        nodes_after,
        merged: rw.merged,
        collapsed: rw.collapsed,
        cache_pairs: rw.cache_pairs,
    }
}

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
//!
//! Two exact rewrites of tall-by-small products (`%*%`) ride along:
//!
//! * **Negation folds into the small operand.** `(−A) %*% B` becomes
//!   `A %*% (−B)`: R parses `-X %*% t(w)` as the former, which negates
//!   the whole tall operand. IEEE negation is exact and a product's sign
//!   is the XOR of its factors' signs, so `(−x)·b` and `x·(−b)` are the
//!   same number, fused or not, and every output's chain sees the same
//!   terms; only the sign of a NaN can differ.
//! * **Sibling products merge.** Every product of one canonical tall
//!   operand becomes a column selection of one product against the
//!   column-stacked right-hand sides, so the operand is read once. The
//!   tall tile computes each output as its own chain whatever the output
//!   count (`flashr_linalg::simd::gemm_tall_f64`), so the selected
//!   columns carry the bits the separate products had.
//!
//! Neither touches a product that is a tall target or has `set.cache`
//! requested or installed, nor a negation that does; integer operands
//! reach a product through a cast, which stops the fold.

use super::{IdHasher, IdMap, IdSet};
use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::dtype::DType;
use crate::exec::Target;
use crate::gen::GenSpec;
use crate::ops::UnaryOp;
use flashr_linalg::Dense;
use std::collections::hash_map::Entry;
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
    /// Products of a negated operand rewritten as products of the
    /// operand by the negated small matrix.
    pub folded: usize,
    /// Products replaced by a column selection of one wider product of
    /// the same tall operand.
    pub products_merged: usize,
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

fn dense_bits_eq(a: &Dense, b: &Dense) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().map(|v| v.to_bits()).eq(b.as_slice().iter().map(|v| v.to_bits()))
}

fn hash_dense<H: Hasher>(d: &Dense, h: &mut H) {
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
    let mut h = IdHasher::default();
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
fn lossless(from: DType, mid: DType) -> bool {
    use DType::*;
    matches!((from, mid), (U8, _) | (I32, I64) | (I32, F64) | (F32, F64)) || from == mid
}

struct Rewriter {
    /// original node id → canonical node.
    map: IdMap<Arc<Node>>,
    /// structural hash → the first canonical node with that hash.
    buckets: IdMap<Arc<Node>>,
    /// Canonical nodes whose structural hash another one already holds
    /// in `buckets`, with that hash (a collision: rare).
    collisions: Vec<(u64, Arc<Node>)>,
    merged: usize,
    collapsed: usize,
    folded: usize,
    cache_pairs: Vec<(Arc<Node>, Arc<Node>)>,
    /// Ids of the tall targets, whose products are left as they are.
    talls: IdSet,
    /// Whether rebuilt nodes are hash-consed: off for the walk that only
    /// re-parents an already canonical DAG onto merged products.
    hash_cons: bool,
    /// Canonical products, in the order they were first built.
    products: Vec<Arc<Node>>,
    /// Products to replace: node id → (merge group, its columns there).
    subst: IdMap<(usize, Arc<Vec<usize>>)>,
    groups: Vec<MergeGroup>,
}

/// Sibling products of one tall operand, merged into one.
struct MergeGroup {
    /// The shared operand, canonical before the merge.
    input: Arc<Node>,
    /// Every product's right-hand side, side by side.
    b: Arc<Dense>,
    /// The merged product, once built.
    merged: Option<Arc<Node>>,
}

impl Rewriter {
    fn new(talls: IdSet, hash_cons: bool) -> Rewriter {
        Rewriter {
            map: IdMap::default(),
            buckets: IdMap::default(),
            collisions: Vec::new(),
            merged: 0,
            collapsed: 0,
            folded: 0,
            cache_pairs: Vec::new(),
            talls,
            hash_cons,
            products: Vec::new(),
            subst: IdMap::default(),
            groups: Vec::new(),
        }
    }

    fn canon_targets(&mut self, targets: &[Target]) -> Vec<Target> {
        targets
            .iter()
            .map(|t| match t {
                Target::Sink(n) => Target::Sink(self.canon(n)),
                Target::Tall { node, storage } => {
                    Target::Tall { node: self.canon(node), storage: *storage }
                }
            })
            .collect()
    }

    /// The canonical node structurally equal to `candidate`, whose
    /// structural hash is `h`, if there is one.
    fn find(&self, h: u64, candidate: &Node) -> Option<Arc<Node>> {
        let first = self.buckets.get(&h)?;
        if structural_eq(first, candidate) {
            return Some(first.clone());
        }
        let mut rest = self.collisions.iter();
        rest.find(|(k, e)| *k == h && structural_eq(e, candidate)).map(|(_, e)| e.clone())
    }

    /// Canonicalize `node`, canonicalizing its subtree first.
    fn canon(&mut self, node: &Arc<Node>) -> Arc<Node> {
        if let Some(c) = self.map.get(&node.id) {
            return c.clone();
        }
        if let Some((group, idx)) = self.subst.get(&node.id).cloned() {
            let merged = self.merged_product(group);
            let select = Node::raw(
                NodeKind::Map { op: MapOp::Select(idx), inputs: vec![MapInput::Node(merged)] },
                node.nrows,
                node.ncols,
                DType::F64,
            );
            self.map.insert(node.id, select.clone());
            return select;
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
                Rebuilt::Node(candidate) if !self.hash_cons => candidate,
                Rebuilt::Node(candidate) => {
                    let h = structural_hash(&candidate);
                    if let Some(existing) = self.find(h, &candidate) {
                        if !Arc::ptr_eq(&existing, node) {
                            self.merged += 1;
                        }
                        existing
                    } else {
                        match self.buckets.entry(h) {
                            Entry::Vacant(slot) => {
                                slot.insert(candidate.clone());
                            }
                            Entry::Occupied(_) => self.collisions.push((h, candidate.clone())),
                        }
                        if matches!(&candidate.kind, NodeKind::Map { op: MapOp::MatMul(_), .. }) {
                            self.products.push(candidate.clone());
                        }
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
                // The inputs are copied only once a child changed.
                let mut changed: Option<Vec<MapInput>> = None;
                for (k, input) in inputs.iter().enumerate() {
                    if let MapInput::Node(n) = input {
                        let c = self.canon(n);
                        if !Arc::ptr_eq(&c, n) {
                            changed.get_or_insert_with(|| inputs.clone())[k] = MapInput::Node(c);
                        }
                    }
                }
                let new_inputs = changed.as_deref().unwrap_or(inputs);

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

                // (−A) %*% B is A %*% (−B), bit for bit.
                if let (MapOp::MatMul(b), Some(MapInput::Node(input))) = (op, new_inputs.first()) {
                    if let Some((base, odd)) = negated_operand(input) {
                        if !self.talls.contains(&node.id) && !node.cache_requested() {
                            self.folded += 1;
                            let b = if odd { Arc::new(negated(b)) } else { b.clone() };
                            return Rebuilt::Node(Node::raw(
                                NodeKind::Map {
                                    op: MapOp::MatMul(b),
                                    inputs: vec![MapInput::Node(base)],
                                },
                                node.nrows,
                                node.ncols,
                                node.dtype,
                            ));
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

                match changed {
                    None => Rebuilt::Node(node.clone()),
                    Some(inputs) => Rebuilt::Node(Node::raw(
                        NodeKind::Map { op: op.clone(), inputs },
                        node.nrows,
                        node.ncols,
                        node.dtype,
                    )),
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

    /// Plan the merge of `products`, the ones a first walk built: each
    /// eligible product of an operand with two or more of them gets a
    /// column range of its group's merged product. Returns how many
    /// products will be replaced.
    fn plan_merges(&mut self, products: &[Arc<Node>]) -> usize {
        let eligible: Vec<(&Arc<Node>, u64, &Dense)> = products
            .iter()
            .filter_map(|p| {
                let NodeKind::Map { op: MapOp::MatMul(b), inputs } = &p.kind else { return None };
                let Some(MapInput::Node(input)) = inputs.first() else { return None };
                let keep = b.cols() == 0 || self.talls.contains(&p.id) || p.cache_requested();
                (!keep).then_some((input, p.id, b.as_ref()))
            })
            .collect();
        let mut replaced = 0;
        for (i, (input, _, _)) in eligible.iter().enumerate() {
            // Each operand once, at its first product.
            if eligible[..i].iter().any(|(o, _, _)| Arc::ptr_eq(o, input)) {
                continue;
            }
            let members: Vec<(u64, &Dense)> = eligible[i..]
                .iter()
                .filter(|(o, _, _)| Arc::ptr_eq(o, input))
                .map(|&(_, id, b)| (id, b))
                .collect();
            if members.len() < 2 {
                continue;
            }
            // Row r of the merged right-hand side is every member's row r.
            let ncols: usize = members.iter().map(|(_, b)| b.cols()).sum();
            let mut data = Vec::with_capacity(input.ncols * ncols);
            for r in 0..input.ncols {
                for (_, b) in &members {
                    data.extend_from_slice(&b.as_slice()[r * b.cols()..(r + 1) * b.cols()]);
                }
            }
            let group = self.groups.len();
            let mut c0 = 0;
            for (id, b) in &members {
                self.subst.insert(*id, (group, Arc::new((c0..c0 + b.cols()).collect())));
                c0 += b.cols();
            }
            replaced += members.len();
            let b = Arc::new(Dense::from_vec(input.ncols, ncols, data));
            self.groups.push(MergeGroup { input: Arc::clone(input), b, merged: None });
        }
        replaced
    }

    /// Group `g`'s merged product, over this pass's canonical operand.
    fn merged_product(&mut self, g: usize) -> Arc<Node> {
        if let Some(m) = &self.groups[g].merged {
            return m.clone();
        }
        let input = self.groups[g].input.clone();
        let input = self.canon(&input);
        let b = self.groups[g].b.clone();
        let (nrows, k) = (input.nrows, b.cols());
        let merged = Node::raw(
            NodeKind::Map { op: MapOp::MatMul(b), inputs: vec![MapInput::Node(input)] },
            nrows,
            k,
            DType::F64,
        );
        self.groups[g].merged = Some(merged.clone());
        merged
    }
}

/// `node` without its leading f64 negations, and whether their number
/// is odd; `None` when it has none. A negation with a cache installed or
/// requested, or not in f64, stops the walk.
fn negated_operand(node: &Arc<Node>) -> Option<(Arc<Node>, bool)> {
    let mut cur = node;
    let mut odd = false;
    while let NodeKind::Map { op: MapOp::Unary(UnaryOp::Neg), inputs } = &cur.kind {
        if cur.dtype != DType::F64 || cur.is_effective_leaf() || cur.cache_requested() {
            break;
        }
        let Some(MapInput::Node(inner)) = inputs.first() else { break };
        cur = inner;
        odd = !odd;
    }
    (!Arc::ptr_eq(cur, node)).then(|| (cur.clone(), odd))
}

/// `−b`, element by element.
fn negated(b: &Dense) -> Dense {
    Dense::from_vec(b.rows(), b.cols(), b.as_slice().iter().map(|v| -v).collect())
}

enum Rebuilt {
    /// A (possibly re-parented) node to hash-cons.
    Node(Arc<Node>),
    /// The node simplified away to an existing canonical node.
    Collapsed(Arc<Node>),
}

/// Rewrite a target set into an equivalent, canonicalized one.
///
/// A first walk hash-conses, collapses and folds negations into
/// products; when it built two or more eligible products of one operand,
/// a second walk over its result replaces them by column selections of
/// their merged product (re-parenting what reads them).
pub fn rewrite(targets: &[Target]) -> Rewrite {
    let nodes_before = super::count_nodes(targets);
    let mut rw = Rewriter::new(tall_ids(targets), true);
    let mut targets = rw.canon_targets(targets);
    let mut products_merged = 0;
    if rw.products.len() >= 2 {
        let mut merge = Rewriter::new(tall_ids(&targets), false);
        products_merged = merge.plan_merges(&rw.products);
        if products_merged > 0 {
            targets = merge.canon_targets(&targets);
            // A pair's canonical node may itself have been re-parented.
            for (_, canon) in &mut rw.cache_pairs {
                if let Some(c) = merge.map.get(&canon.id) {
                    *canon = c.clone();
                }
            }
            rw.cache_pairs.append(&mut merge.cache_pairs);
            rw.merged += merge.merged;
            rw.collapsed += merge.collapsed;
            rw.folded += merge.folded;
        }
    }
    let nodes_after = super::count_nodes(&targets);
    Rewrite {
        targets,
        nodes_before,
        nodes_after,
        merged: rw.merged,
        collapsed: rw.collapsed,
        folded: rw.folded,
        products_merged,
        cache_pairs: rw.cache_pairs,
    }
}

/// Ids of the tall targets' nodes.
fn tall_ids(targets: &[Target]) -> IdSet {
    targets
        .iter()
        .filter_map(|t| match t {
            Target::Tall { node, .. } => Some(node.id),
            Target::Sink(_) => None,
        })
        .collect()
}

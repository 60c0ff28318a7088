//! Lazy evaluation: virtual matrices and the operation DAG (paper §3.4).
//!
//! Every matrix operation returns a *virtual matrix* — an [`Node`] in a
//! DAG — instead of computing data. Tall nodes share the partition
//! dimension of their inputs; *sink* nodes (aggregations, groupbys,
//! Gramians) change the partition dimension, form the edge of the DAG and
//! materialize to small in-memory matrices (`flashr_linalg::Dense`).
//!
//! Nodes are immutable and shared (`Arc`); `set.cache` is a flag examined
//! at materialization time, and a cached node carries its materialized
//! [`TasMat`] in a `OnceLock` so later DAGs treat it as a leaf.

use crate::dtype::{DType, Scalar};
use crate::gen::GenSpec;
use crate::mat::TasMat;
use crate::ops::{AggOp, BinaryOp, UnaryOp};
use crate::session::CachePin;
use flashr_linalg::Dense;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static NODE_IDS: AtomicU64 = AtomicU64::new(1);

/// A map-operation input: a tall node, a scalar, or a broadcast row
/// vector (a small materialized sink result, e.g. column means).
#[derive(Debug, Clone)]
pub enum MapInput {
    Node(Arc<Node>),
    Scalar(Scalar),
    RowVec(Arc<Vec<f64>>),
}

/// The fused-map operation family: everything whose output partition `i`
/// depends only on input partitions `i` (paper Fig. 5 a–f).
#[derive(Debug, Clone)]
pub enum MapOp {
    /// `sapply`.
    Unary(UnaryOp),
    /// `mapply` with broadcasting; `swapped` evaluates `op(b, a)`.
    Binary { op: BinaryOp, swapped: bool },
    /// dtype conversion.
    Cast(DType),
    /// `X %*% B` with a small dense `B` (f64 fast path).
    MatMul(Arc<Dense>),
    /// Generalized `inner.prod(X, B, f1, f2)`.
    InnerProd { b: Arc<Dense>, f1: BinaryOp, f2: BinaryOp },
    /// Column selection `X[, idx]`.
    Select(Arc<Vec<usize>>),
    /// Column binding `cbind(...)`.
    Bind,
    /// `groupby.col`: reduce column groups per row (paper Table 1).
    GroupCols { labels: Arc<Vec<usize>>, op: AggOp, ngroups: usize },
}

/// Node kinds; see the module docs.
#[derive(Debug)]
pub enum NodeKind {
    /// A materialized matrix (in memory or on SSDs).
    Leaf(TasMat),
    /// A lazily generated matrix (`runif.matrix` & co).
    Gen(GenSpec),
    /// Partition-parallel map (Fig. 5 a–f).
    Map { op: MapOp, inputs: Vec<MapInput> },
    /// `agg.row` over a tall matrix: per-row over columns, n×1 output.
    AggRow { op: AggOp, input: Arc<Node> },
    /// `cum.row`: cumulative across the columns of each row.
    CumRow { op: BinaryOp, input: Arc<Node> },
    /// `cum.col`: cumulative down the rows (cross-partition carry).
    CumCol { op: BinaryOp, input: Arc<Node> },
    /// `agg` over everything → 1×1 sink.
    SinkFull { op: AggOp, input: Arc<Node> },
    /// `agg.col` → 1×p sink.
    SinkCol { op: AggOp, input: Arc<Node> },
    /// `t(A) %*% B` for two tall matrices → p×k sink (crossprod/Gramian).
    SinkGramian { a: Arc<Node>, b: Arc<Node> },
    /// `groupby.row(data, labels, op)` → ngroups×p sink.
    SinkGroupBy { data: Arc<Node>, labels: Arc<Node>, op: AggOp, ngroups: usize },
}

/// One virtual matrix.
#[derive(Debug)]
pub struct Node {
    pub id: u64,
    pub kind: NodeKind,
    /// Rows of the (tall) virtual matrix; for sinks, rows of the *output*.
    pub nrows: u64,
    pub ncols: usize,
    pub dtype: DType,
    cache_flag: AtomicBool,
    cached: OnceLock<CacheSlot>,
}

/// A node's installed materialization plus the memory-budget pin that
/// keeps it accounted (None for EM/spilled/unbudgeted results).
#[derive(Debug)]
struct CacheSlot {
    mat: TasMat,
    _pin: Option<CachePin>,
}

impl Node {
    fn new(kind: NodeKind, nrows: u64, ncols: usize, dtype: DType) -> Arc<Node> {
        Arc::new(Node {
            id: NODE_IDS.fetch_add(1, Ordering::Relaxed),
            kind,
            nrows,
            ncols,
            dtype,
            cache_flag: AtomicBool::new(false),
            cached: OnceLock::new(),
        })
    }

    /// Rebuild a node with an explicit kind/shape/dtype signature and no
    /// validation. Used by the plan rewriter (`crate::analysis::cse`) to
    /// re-parent nodes onto canonical children — the inputs were already
    /// validated when the original node was constructed — and by tests
    /// that need to forge ill-shaped nodes for the verifier.
    #[doc(hidden)]
    pub fn raw(kind: NodeKind, nrows: u64, ncols: usize, dtype: DType) -> Arc<Node> {
        Node::new(kind, nrows, ncols, dtype)
    }

    /// Wrap a materialized matrix.
    pub fn leaf(mat: TasMat) -> Arc<Node> {
        let (nrows, ncols, dtype) = (mat.nrows(), mat.ncols(), mat.dtype());
        Node::new(NodeKind::Leaf(mat), nrows, ncols, dtype)
    }

    /// A lazily generated matrix.
    pub fn gen(spec: GenSpec, nrows: u64, ncols: usize) -> Arc<Node> {
        let dt = spec.dtype();
        Node::new(NodeKind::Gen(spec), nrows, ncols, dt)
    }

    /// `sapply`: unary map. Integer inputs to float-only functions are
    /// cast to f64 first (R promotion).
    pub fn map_unary(op: UnaryOp, input: Arc<Node>) -> Arc<Node> {
        let input = if op.needs_float() && !input.dtype.is_float() {
            Node::cast(input, DType::F64)
        } else {
            input
        };
        let (nrows, ncols) = (input.nrows, input.ncols);
        let dtype = op.out_dtype(input.dtype);
        Node::new(
            NodeKind::Map { op: MapOp::Unary(op), inputs: vec![MapInput::Node(input)] },
            nrows,
            ncols,
            dtype,
        )
    }

    /// `mapply`: binary map with broadcasting. Operand dtypes are
    /// promoted by inserting cast nodes. When `b` is a node it must have
    /// the same rows and either the same columns or one column.
    pub fn map_binary(op: BinaryOp, a: Arc<Node>, b: MapInput, swapped: bool) -> Arc<Node> {
        let (a, b) = match b {
            MapInput::Node(bn) => {
                assert_eq!(a.nrows, bn.nrows, "mapply row mismatch: {} vs {}", a.nrows, bn.nrows);
                assert!(
                    bn.ncols == a.ncols || bn.ncols == 1,
                    "mapply col mismatch: {} vs {}",
                    a.ncols,
                    bn.ncols
                );
                let common = DType::promote(a.dtype, bn.dtype);
                (Node::cast(a, common), MapInput::Node(Node::cast(bn, common)))
            }
            MapInput::Scalar(s) => {
                let common = DType::promote(a.dtype, s.dtype());
                (Node::cast(a, common), MapInput::Scalar(s))
            }
            MapInput::RowVec(v) => {
                assert_eq!(v.len(), a.ncols, "sweep stats length mismatch");
                let common = DType::promote(a.dtype, DType::F64);
                (Node::cast(a, common), MapInput::RowVec(v))
            }
        };
        let dtype = op.out_dtype(a.dtype);
        let (nrows, ncols) = (a.nrows, a.ncols);
        Node::new(
            NodeKind::Map { op: MapOp::Binary { op, swapped }, inputs: vec![MapInput::Node(a), b] },
            nrows,
            ncols,
            dtype,
        )
    }

    /// dtype cast (no-op node elided).
    pub fn cast(input: Arc<Node>, to: DType) -> Arc<Node> {
        if input.dtype == to {
            return input;
        }
        let (nrows, ncols) = (input.nrows, input.ncols);
        Node::new(
            NodeKind::Map { op: MapOp::Cast(to), inputs: vec![MapInput::Node(input)] },
            nrows,
            ncols,
            to,
        )
    }

    /// `X %*% B` with small dense `B` (input is cast to f64).
    pub fn matmul_small(input: Arc<Node>, b: Dense) -> Arc<Node> {
        assert_eq!(input.ncols, b.rows(), "matmul inner dimension mismatch");
        let input = Node::cast(input, DType::F64);
        let (nrows, k) = (input.nrows, b.cols());
        Node::new(
            NodeKind::Map { op: MapOp::MatMul(Arc::new(b)), inputs: vec![MapInput::Node(input)] },
            nrows,
            k,
            DType::F64,
        )
    }

    /// Generalized `inner.prod(X, B, f1, f2)`.
    pub fn inner_prod_small(input: Arc<Node>, b: Dense, f1: BinaryOp, f2: BinaryOp) -> Arc<Node> {
        assert_eq!(input.ncols, b.rows(), "inner.prod inner dimension mismatch");
        let (nrows, k, dtype) = (input.nrows, b.cols(), input.dtype);
        Node::new(
            NodeKind::Map {
                op: MapOp::InnerProd { b: Arc::new(b), f1, f2 },
                inputs: vec![MapInput::Node(input)],
            },
            nrows,
            k,
            dtype,
        )
    }

    /// Column selection.
    pub fn select(input: Arc<Node>, idx: Vec<usize>) -> Arc<Node> {
        for &c in &idx {
            assert!(c < input.ncols, "column {c} out of range");
        }
        let (nrows, k, dtype) = (input.nrows, idx.len(), input.dtype);
        Node::new(
            NodeKind::Map { op: MapOp::Select(Arc::new(idx)), inputs: vec![MapInput::Node(input)] },
            nrows,
            k,
            dtype,
        )
    }

    /// Column binding; dtypes promote to the widest input.
    pub fn bind_cols(inputs: Vec<Arc<Node>>) -> Arc<Node> {
        assert!(!inputs.is_empty(), "cbind of nothing");
        let nrows = inputs[0].nrows;
        let mut dtype = inputs[0].dtype;
        for n in &inputs {
            assert_eq!(n.nrows, nrows, "cbind row mismatch");
            dtype = DType::promote(dtype, n.dtype);
        }
        let ncols = inputs.iter().map(|n| n.ncols).sum();
        let inputs = inputs.into_iter().map(|n| MapInput::Node(Node::cast(n, dtype))).collect();
        Node::new(NodeKind::Map { op: MapOp::Bind, inputs }, nrows, ncols, dtype)
    }

    /// `groupby.col`: column labels must be in `[0, ngroups)`.
    pub fn group_cols(
        input: Arc<Node>,
        labels: Vec<usize>,
        op: AggOp,
        ngroups: usize,
    ) -> Arc<Node> {
        assert_eq!(labels.len(), input.ncols, "one label per column required");
        assert!(!op.is_positional(), "which.min/which.max are not defined for groupby.col");
        for &g in &labels {
            assert!(g < ngroups, "column label {g} outside [0, {ngroups})");
        }
        let nrows = input.nrows;
        let dtype = op.out_dtype(input.dtype);
        Node::new(
            NodeKind::Map {
                op: MapOp::GroupCols { labels: Arc::new(labels), op, ngroups },
                inputs: vec![MapInput::Node(input)],
            },
            nrows,
            ngroups,
            dtype,
        )
    }

    /// `agg.row`.
    pub fn agg_row(op: AggOp, input: Arc<Node>) -> Arc<Node> {
        let nrows = input.nrows;
        let dtype = op.out_dtype(input.dtype);
        Node::new(NodeKind::AggRow { op, input }, nrows, 1, dtype)
    }

    /// `cum.row`.
    pub fn cum_row(op: BinaryOp, input: Arc<Node>) -> Arc<Node> {
        let (nrows, ncols, dtype) = (input.nrows, input.ncols, input.dtype);
        Node::new(NodeKind::CumRow { op, input }, nrows, ncols, dtype)
    }

    /// `cum.col`.
    pub fn cum_col(op: BinaryOp, input: Arc<Node>) -> Arc<Node> {
        let (nrows, ncols, dtype) = (input.nrows, input.ncols, input.dtype);
        Node::new(NodeKind::CumCol { op, input }, nrows, ncols, dtype)
    }

    /// `agg` over all elements → scalar sink.
    pub fn sink_full(op: AggOp, input: Arc<Node>) -> Arc<Node> {
        let dtype = op.out_dtype(input.dtype);
        Node::new(NodeKind::SinkFull { op, input }, 1, 1, dtype)
    }

    /// `agg.col` → 1×p sink.
    pub fn sink_col(op: AggOp, input: Arc<Node>) -> Arc<Node> {
        let ncols = input.ncols;
        let dtype = op.out_dtype(input.dtype);
        Node::new(NodeKind::SinkCol { op, input }, 1, ncols, dtype)
    }

    /// `t(A) %*% B` → p×k sink (both inputs cast to f64).
    pub fn sink_gramian(a: Arc<Node>, b: Arc<Node>) -> Arc<Node> {
        assert_eq!(a.nrows, b.nrows, "crossprod row mismatch");
        let a = Node::cast(a, DType::F64);
        let b = Node::cast(b, DType::F64);
        let (p, k) = (a.ncols, b.ncols);
        Node::new(NodeKind::SinkGramian { a, b }, p as u64, k, DType::F64)
    }

    /// `groupby.row(data, labels, op)` → ngroups×p sink. Labels are cast
    /// to i64 and must hold values in `[0, ngroups)`.
    pub fn sink_groupby(
        data: Arc<Node>,
        labels: Arc<Node>,
        op: AggOp,
        ngroups: usize,
    ) -> Arc<Node> {
        assert_eq!(labels.ncols, 1, "groupby labels must be one column");
        assert_eq!(data.nrows, labels.nrows, "groupby label length mismatch");
        assert!(ngroups > 0, "ngroups must be positive");
        let labels = Node::cast(labels, DType::I64);
        let p = data.ncols;
        Node::new(
            NodeKind::SinkGroupBy { data, labels, op, ngroups },
            ngroups as u64,
            p,
            DType::F64,
        )
    }

    /// Whether the node changes the partition dimension (edge of a DAG).
    pub fn is_sink(&self) -> bool {
        matches!(
            self.kind,
            NodeKind::SinkFull { .. }
                | NodeKind::SinkCol { .. }
                | NodeKind::SinkGramian { .. }
                | NodeKind::SinkGroupBy { .. }
        )
    }

    /// Tall-node child references (sinks report their tall inputs).
    pub fn children(&self) -> Vec<&Arc<Node>> {
        let mut out = Vec::new();
        self.for_each_child(|c| out.push(c));
        out
    }

    /// [`Node::children`] without the vector: `f` on each child edge, in
    /// order (an input read twice is passed twice).
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Arc<Node>)) {
        match &self.kind {
            NodeKind::Leaf(_) | NodeKind::Gen(_) => {}
            NodeKind::Map { inputs, .. } => {
                for i in inputs {
                    if let MapInput::Node(n) = i {
                        f(n);
                    }
                }
            }
            NodeKind::AggRow { input, .. }
            | NodeKind::CumRow { input, .. }
            | NodeKind::CumCol { input, .. }
            | NodeKind::SinkFull { input, .. }
            | NodeKind::SinkCol { input, .. } => f(input),
            NodeKind::SinkGramian { a, b } => {
                f(a);
                f(b);
            }
            NodeKind::SinkGroupBy { data, labels, .. } => {
                f(data);
                f(labels);
            }
        }
    }

    /// Request caching of this node's data at next materialization
    /// (R's `set.cache`).
    pub fn set_cache(&self, v: bool) {
        self.cache_flag.store(v, Ordering::Relaxed);
    }

    /// Whether `set.cache` was requested.
    pub fn cache_requested(&self) -> bool {
        self.cache_flag.load(Ordering::Relaxed)
    }

    /// The cached materialization, if any.
    pub fn cached(&self) -> Option<&TasMat> {
        self.cached.get().map(|slot| &slot.mat)
    }

    /// Install the cached materialization (idempotent; first write wins).
    pub fn install_cache(&self, mat: TasMat) {
        self.install_cache_pinned(mat, None);
    }

    /// Install the cached materialization together with its memory
    /// pin, released when this node (the last DAG referencing it) is
    /// dropped.
    pub fn install_cache_pinned(&self, mat: TasMat, pin: Option<CachePin>) {
        let _ = self.cached.set(CacheSlot { mat, _pin: pin });
    }

    /// Whether the executor can treat this node as a leaf.
    pub fn is_effective_leaf(&self) -> bool {
        self.cached.get().is_some() || matches!(self.kind, NodeKind::Leaf(_) | NodeKind::Gen(_))
    }

    /// Short operator label in the paper's R-level vocabulary, used by
    /// `explain()` output and op-level trace profiles.
    pub fn label(&self) -> String {
        match &self.kind {
            NodeKind::Leaf(m) => {
                if m.is_em() {
                    "leaf(em)".into()
                } else {
                    "leaf".into()
                }
            }
            NodeKind::Gen(_) => "gen".into(),
            NodeKind::Map { op, .. } => match op {
                MapOp::Unary(u) => format!("sapply:{u:?}"),
                MapOp::Binary { op, .. } => format!("mapply:{op:?}"),
                MapOp::Cast(dt) => format!("cast:{dt:?}"),
                MapOp::MatMul(_) => "matmul".into(),
                MapOp::InnerProd { .. } => "inner.prod".into(),
                MapOp::Select(_) => "select".into(),
                MapOp::Bind => "cbind".into(),
                MapOp::GroupCols { op, .. } => format!("groupby.col:{op:?}"),
            },
            NodeKind::AggRow { op, .. } => format!("agg.row:{op:?}"),
            NodeKind::CumRow { op, .. } => format!("cum.row:{op:?}"),
            NodeKind::CumCol { op, .. } => format!("cum.col:{op:?}"),
            NodeKind::SinkFull { op, .. } => format!("agg:{op:?}"),
            NodeKind::SinkCol { op, .. } => format!("agg.col:{op:?}"),
            NodeKind::SinkGramian { .. } => "crossprod".into(),
            NodeKind::SinkGroupBy { op, .. } => format!("groupby.row:{op:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::Partitioner;

    fn leaf_f64(n: u64, p: usize) -> Arc<Node> {
        Node::leaf(TasMat::from_fn::<f64>(n, p, Partitioner::new(64), |r, c| r as f64 + c as f64))
    }

    fn leaf_i32(n: u64, p: usize) -> Arc<Node> {
        Node::leaf(TasMat::from_fn::<i32>(n, p, Partitioner::new(64), |r, c| r as i32 + c as i32))
    }

    #[test]
    fn unary_float_promotion_inserts_cast() {
        let a = leaf_i32(10, 2);
        let s = Node::map_unary(UnaryOp::Sqrt, a);
        assert_eq!(s.dtype, DType::F64);
        // child of the map should be a cast node
        let child = s.children()[0].clone();
        assert!(matches!(child.kind, NodeKind::Map { op: MapOp::Cast(DType::F64), .. }));
    }

    #[test]
    fn binary_promotes_operands() {
        let a = leaf_i32(10, 2);
        let b = leaf_f64(10, 2);
        let s = Node::map_binary(BinaryOp::Add, a, MapInput::Node(b), false);
        assert_eq!(s.dtype, DType::F64);
        assert_eq!(s.ncols, 2);
    }

    #[test]
    fn predicates_are_u8() {
        let a = leaf_f64(10, 2);
        let b = leaf_f64(10, 2);
        let s = Node::map_binary(BinaryOp::Lt, a, MapInput::Node(b), false);
        assert_eq!(s.dtype, DType::U8);
    }

    #[test]
    fn sink_shapes() {
        let a = leaf_f64(100, 4);
        let b = leaf_f64(100, 3);
        let g = Node::sink_gramian(a.clone(), b);
        assert_eq!((g.nrows, g.ncols), (4, 3));
        assert!(g.is_sink());

        let sc = Node::sink_col(AggOp::Sum, a.clone());
        assert_eq!((sc.nrows, sc.ncols), (1, 4));

        let labels =
            Node::leaf(TasMat::from_fn::<i64>(100, 1, Partitioner::new(64), |r, _| (r % 5) as i64));
        let gb = Node::sink_groupby(a.clone(), labels, AggOp::Sum, 5);
        assert_eq!((gb.nrows, gb.ncols), (5, 4));

        let sf = Node::sink_full(AggOp::Sum, a);
        assert_eq!((sf.nrows, sf.ncols), (1, 1));
    }

    #[test]
    fn agg_row_shape_and_dtype() {
        let a = leaf_i32(50, 3);
        let r = Node::agg_row(AggOp::Sum, a.clone());
        assert_eq!((r.nrows, r.ncols), (50, 1));
        assert_eq!(r.dtype, DType::I64);
        let w = Node::agg_row(AggOp::WhichMin, a);
        assert_eq!(w.dtype, DType::I64);
    }

    #[test]
    #[should_panic]
    fn mapply_shape_mismatch_panics() {
        let a = leaf_f64(10, 2);
        let b = leaf_f64(20, 2);
        let _ = Node::map_binary(BinaryOp::Add, a, MapInput::Node(b), false);
    }

    #[test]
    fn cache_flag_roundtrip() {
        let a = leaf_f64(10, 1);
        assert!(!a.cache_requested());
        a.set_cache(true);
        assert!(a.cache_requested());
    }

    #[test]
    fn bind_cols_promotes_and_sums_width() {
        let a = leaf_i32(10, 2);
        let b = leaf_f64(10, 3);
        let n = Node::bind_cols(vec![a, b]);
        assert_eq!(n.ncols, 5);
        assert_eq!(n.dtype, DType::F64);
    }
}

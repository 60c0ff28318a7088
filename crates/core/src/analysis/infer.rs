//! Shape/dtype inference and plan verification.
//!
//! Re-derives every node's shape and dtype from its inputs using the
//! same rules the executor kernels assume (`UnaryOp::out_dtype`,
//! `BinaryOp::out_dtype`, `AggOp::out_dtype`, R-style promotion), and
//! compares them against what the node records. A disagreement means the
//! DAG was forged or corrupted and would otherwise surface as a panic
//! deep inside a worker thread; here it becomes a [`PlanError`] naming
//! the node before any partition is read.

use super::{PlanError, PlanErrorKind};
use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::dtype::DType;
use crate::exec::Target;
use crate::ops::inner_prod_supported;
use std::collections::HashSet;
use std::sync::Arc;

/// The signature inference derives for a node: what its shape and dtype
/// *should* be given its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sig {
    pub nrows: u64,
    pub ncols: usize,
    pub dtype: DType,
}

impl Sig {
    fn of(node: &Node) -> Sig {
        Sig { nrows: node.nrows, ncols: node.ncols, dtype: node.dtype }
    }
}

impl std::fmt::Display for Sig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{} {}", self.nrows, self.ncols, self.dtype)
    }
}

fn err(node: &Node, kind: PlanErrorKind, detail: String) -> PlanError {
    PlanError::new(node, kind, detail)
}

fn expect_sig(node: &Node, inferred: Sig) -> Result<(), PlanError> {
    let found = Sig::of(node);
    if (found.nrows, found.ncols) != (inferred.nrows, inferred.ncols) {
        return Err(err(
            node,
            PlanErrorKind::ShapeMismatch,
            format!("node records {found} but inputs infer {inferred}"),
        ));
    }
    if found.dtype != inferred.dtype {
        return Err(err(
            node,
            PlanErrorKind::DTypeMismatch,
            format!("node records dtype {} but inputs infer {}", found.dtype, inferred.dtype),
        ));
    }
    Ok(())
}

/// Infer the signature a node should have from its (already verified)
/// inputs, checking op-specific operand constraints on the way.
pub fn infer(node: &Node) -> Result<Sig, PlanError> {
    match &node.kind {
        NodeKind::Leaf(m) => Ok(Sig { nrows: m.nrows(), ncols: m.ncols(), dtype: m.dtype() }),
        NodeKind::Gen(spec) => {
            Ok(Sig { nrows: node.nrows, ncols: node.ncols, dtype: spec.dtype() })
        }
        NodeKind::Map { op, inputs } => infer_map(node, op, inputs),
        NodeKind::AggRow { op, input } => {
            Ok(Sig { nrows: input.nrows, ncols: 1, dtype: op.out_dtype(input.dtype) })
        }
        NodeKind::CumRow { input, .. } | NodeKind::CumCol { input, .. } => Ok(Sig::of(input)),
        NodeKind::SinkFull { op, input } => {
            Ok(Sig { nrows: 1, ncols: 1, dtype: op.out_dtype(input.dtype) })
        }
        NodeKind::SinkCol { op, input } => {
            Ok(Sig { nrows: 1, ncols: input.ncols, dtype: op.out_dtype(input.dtype) })
        }
        NodeKind::SinkGramian { a, b } => {
            if a.nrows != b.nrows {
                return Err(err(
                    node,
                    PlanErrorKind::ShapeMismatch,
                    format!(
                        "crossprod inputs disagree on rows: n{} is {}x{}, n{} is {}x{}",
                        a.id, a.nrows, a.ncols, b.id, b.nrows, b.ncols
                    ),
                ));
            }
            for side in [a, b] {
                if side.dtype != DType::F64 {
                    return Err(err(
                        node,
                        PlanErrorKind::DTypeMismatch,
                        format!("crossprod input n{} must be f64, found {}", side.id, side.dtype),
                    ));
                }
            }
            Ok(Sig { nrows: a.ncols as u64, ncols: b.ncols, dtype: DType::F64 })
        }
        NodeKind::SinkGroupBy { data, labels, op, ngroups } => {
            if op.is_positional() {
                return Err(err(
                    node,
                    PlanErrorKind::BadOperand,
                    format!("groupby.row cannot fold {op:?}: it has no per-group position"),
                ));
            }
            if labels.ncols != 1 {
                return Err(err(
                    node,
                    PlanErrorKind::BadOperand,
                    format!(
                        "groupby labels must be one column, found {}x{}",
                        labels.nrows, labels.ncols
                    ),
                ));
            }
            if labels.nrows != data.nrows {
                return Err(err(
                    node,
                    PlanErrorKind::ShapeMismatch,
                    format!("groupby label length {} != data rows {}", labels.nrows, data.nrows),
                ));
            }
            if labels.dtype != DType::I64 {
                return Err(err(
                    node,
                    PlanErrorKind::DTypeMismatch,
                    format!("groupby labels must be i64, found {}", labels.dtype),
                ));
            }
            if *ngroups == 0 {
                return Err(err(
                    node,
                    PlanErrorKind::BadOperand,
                    "ngroups must be positive".into(),
                ));
            }
            Ok(Sig { nrows: *ngroups as u64, ncols: data.ncols, dtype: DType::F64 })
        }
    }
}

fn infer_map(node: &Node, op: &MapOp, inputs: &[MapInput]) -> Result<Sig, PlanError> {
    let first = match inputs.first() {
        Some(MapInput::Node(n)) => n,
        _ => {
            return Err(err(
                node,
                PlanErrorKind::BadOperand,
                "first map input must be a matrix".into(),
            ))
        }
    };
    match op {
        MapOp::Unary(u) => {
            if u.needs_float() && !first.dtype.is_float() {
                return Err(err(
                    node,
                    PlanErrorKind::DTypeMismatch,
                    format!("{u:?} requires a float input, found {} (insert a cast)", first.dtype),
                ));
            }
            Ok(Sig { nrows: first.nrows, ncols: first.ncols, dtype: u.out_dtype(first.dtype) })
        }
        MapOp::Binary { op, .. } => {
            match inputs.get(1) {
                Some(MapInput::Node(b)) => {
                    if b.nrows != first.nrows || (b.ncols != first.ncols && b.ncols != 1) {
                        return Err(err(
                            node,
                            PlanErrorKind::ShapeMismatch,
                            format!(
                                "mapply operands disagree: n{} is {}x{}, n{} is {}x{}",
                                first.id, first.nrows, first.ncols, b.id, b.nrows, b.ncols
                            ),
                        ));
                    }
                    if b.dtype != first.dtype {
                        return Err(err(
                            node,
                            PlanErrorKind::DTypeMismatch,
                            format!(
                                "mapply operands must share a promoted dtype: {} vs {}",
                                first.dtype, b.dtype
                            ),
                        ));
                    }
                }
                Some(MapInput::RowVec(v)) => {
                    if v.len() != first.ncols {
                        return Err(err(
                            node,
                            PlanErrorKind::ShapeMismatch,
                            format!(
                                "broadcast row vector has {} entries for {} columns",
                                v.len(),
                                first.ncols
                            ),
                        ));
                    }
                }
                Some(MapInput::Scalar(_)) => {}
                None => {
                    return Err(err(
                        node,
                        PlanErrorKind::BadOperand,
                        "mapply needs two operands".into(),
                    ))
                }
            }
            Ok(Sig { nrows: first.nrows, ncols: first.ncols, dtype: op.out_dtype(first.dtype) })
        }
        MapOp::Cast(to) => Ok(Sig { nrows: first.nrows, ncols: first.ncols, dtype: *to }),
        MapOp::MatMul(b) => {
            if first.ncols != b.rows() {
                return Err(err(
                    node,
                    PlanErrorKind::ShapeMismatch,
                    format!(
                        "matmul inner dimension mismatch: {}x{} %*% {}x{}",
                        first.nrows,
                        first.ncols,
                        b.rows(),
                        b.cols()
                    ),
                ));
            }
            if first.dtype != DType::F64 {
                return Err(err(
                    node,
                    PlanErrorKind::DTypeMismatch,
                    format!("matmul input must be f64, found {}", first.dtype),
                ));
            }
            Ok(Sig { nrows: first.nrows, ncols: b.cols(), dtype: DType::F64 })
        }
        MapOp::InnerProd { b, f1, f2 } => {
            if first.ncols != b.rows() {
                return Err(err(
                    node,
                    PlanErrorKind::ShapeMismatch,
                    format!(
                        "inner.prod inner dimension mismatch: {}x{} vs {}x{}",
                        first.nrows,
                        first.ncols,
                        b.rows(),
                        b.cols()
                    ),
                ));
            }
            if !inner_prod_supported(*f1, *f2) {
                return Err(err(
                    node,
                    PlanErrorKind::BadOperand,
                    format!(
                        "inner.prod has no kernel for ({f1:?}, {f2:?}): f1 must be arithmetic \
                         (not Rem or Pow) and f2 an associative combiner (Add, Mul, Min, Max)"
                    ),
                ));
            }
            Ok(Sig { nrows: first.nrows, ncols: b.cols(), dtype: first.dtype })
        }
        MapOp::Select(idx) => {
            if let Some(&c) = idx.iter().find(|&&c| c >= first.ncols) {
                return Err(err(
                    node,
                    PlanErrorKind::BadOperand,
                    format!("column {} selected from a {}-column matrix", c, first.ncols),
                ));
            }
            Ok(Sig { nrows: first.nrows, ncols: idx.len(), dtype: first.dtype })
        }
        MapOp::Bind => {
            let mut ncols = 0usize;
            for (i, input) in inputs.iter().enumerate() {
                let n = match input {
                    MapInput::Node(n) => n,
                    _ => {
                        return Err(err(
                            node,
                            PlanErrorKind::BadOperand,
                            format!("cbind input {i} is not a matrix"),
                        ))
                    }
                };
                if n.nrows != first.nrows {
                    return Err(err(
                        node,
                        PlanErrorKind::ShapeMismatch,
                        format!("cbind row mismatch: {} vs {}", first.nrows, n.nrows),
                    ));
                }
                if n.dtype != node.dtype {
                    return Err(err(
                        node,
                        PlanErrorKind::DTypeMismatch,
                        format!(
                            "cbind inputs must be pre-promoted to {}, input n{} is {}",
                            node.dtype, n.id, n.dtype
                        ),
                    ));
                }
                ncols += n.ncols;
            }
            Ok(Sig { nrows: first.nrows, ncols, dtype: node.dtype })
        }
        MapOp::GroupCols { labels, op, ngroups } => {
            if labels.len() != first.ncols {
                return Err(err(
                    node,
                    PlanErrorKind::ShapeMismatch,
                    format!(
                        "groupby.col needs one label per column: {} labels for {} columns",
                        labels.len(),
                        first.ncols
                    ),
                ));
            }
            if let Some(&g) = labels.iter().find(|&&g| g >= *ngroups) {
                return Err(err(
                    node,
                    PlanErrorKind::BadOperand,
                    format!("column label {g} outside [0, {ngroups})"),
                ));
            }
            Ok(Sig { nrows: first.nrows, ncols: *ngroups, dtype: op.out_dtype(first.dtype) })
        }
    }
}

/// Verify every reachable node of a plan: per-node inference plus the
/// global partition-dimension agreement the fused pass requires.
pub fn verify(targets: &[Target]) -> Result<(), PlanError> {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack: Vec<Arc<Node>> = Vec::new();
    for t in targets {
        match t {
            Target::Sink(n) => {
                if !n.is_sink() {
                    return Err(err(
                        n,
                        PlanErrorKind::BadOperand,
                        "sink target on a non-sink node".into(),
                    ));
                }
                stack.push(n.clone());
            }
            Target::Tall { node, .. } => {
                if node.is_sink() {
                    return Err(err(
                        node,
                        PlanErrorKind::BadOperand,
                        "tall target on a sink node".into(),
                    ));
                }
                stack.push(node.clone());
            }
        }
    }

    // (nrows, id of the node that established it)
    let mut part_dim: Option<(u64, u64)> = None;
    while let Some(node) = stack.pop() {
        if !seen.insert(node.id) {
            continue;
        }
        if !node.is_sink() {
            match part_dim {
                None => part_dim = Some((node.nrows, node.id)),
                Some((n, first_id)) => {
                    if n != node.nrows {
                        return Err(err(
                            &node,
                            PlanErrorKind::PartitionMismatch,
                            format!(
                                "tall matrices in one DAG must share the partition dimension: n{} has {} rows, n{} has {}",
                                first_id, n, node.id, node.nrows
                            ),
                        ));
                    }
                }
            }
        }
        // Materialized data is trusted as-is; do not descend past it
        // (mirrors the engine, which treats it as a leaf).
        if node.is_effective_leaf() {
            if let NodeKind::Leaf(_) = &node.kind {
                expect_sig(&node, infer(&node)?)?;
            }
            continue;
        }
        expect_sig(&node, infer(&node)?)?;
        for c in node.children() {
            stack.push(c.clone());
        }
    }
    Ok(())
}

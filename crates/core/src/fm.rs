//! The user-facing FlashR matrix type: [`FM`].
//!
//! `FM` mirrors the R `base` matrix surface FlashR overrides (paper
//! Tables 2 and 3). Operations on tall matrices are lazy — they extend
//! the DAG — and nothing computes until [`FM::materialize`] /
//! [`FM::materialize_multi`] / a value extraction runs, matching the
//! paper's materialization triggers (§3.4): `materialize`, `as.vector` /
//! `as.matrix`, element access on a sink, and `unique`/`table`.
//!
//! Three value states:
//! * `Tall` — a virtual (or leaf) tall matrix, possibly a transposed
//!   *view* (transpose never copies, §3.1);
//! * `Sink` — a lazy aggregation result (paper's sink matrices);
//! * `Small` — a materialized small dense matrix held in memory (what
//!   sink matrices become, and the currency of p×p math).

use crate::analysis::{AnalysisReport, PlanError, PlanErrorKind};
use crate::dag::{MapInput, Node, NodeKind};
use crate::dtype::{DType, Scalar};
use crate::exec::{self, Target, TargetStorage};
use crate::gen::GenSpec;
use crate::mat::TasMat;
use crate::ops::{AggOp, BinaryOp, UnaryOp};
use crate::session::FlashCtx;
use flashr_linalg::Dense;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A FlashR matrix handle (cheap to clone).
#[derive(Clone)]
pub enum FM {
    /// Tall virtual matrix; `transposed` makes it a wide *view*.
    Tall { node: Arc<Node>, transposed: bool },
    /// A lazy sink (not yet materialized aggregation result).
    Sink { node: Arc<Node> },
    /// A small materialized matrix.
    Small(Dense),
}

impl std::fmt::Debug for FM {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FM::Tall { node, transposed } => write!(
                f,
                "FM::Tall({}x{} {:?}{})",
                node.nrows,
                node.ncols,
                node.dtype,
                if *transposed { ", transposed" } else { "" }
            ),
            FM::Sink { node } => write!(f, "FM::Sink({}x{})", node.nrows, node.ncols),
            FM::Small(d) => write!(f, "FM::Small({}x{})", d.rows(), d.cols()),
        }
    }
}

// ---------------------------------------------------------------------
// Creation (paper Table 3)
// ---------------------------------------------------------------------

impl FM {
    /// `runif.matrix`: uniform random matrix on `[lo, hi)` (lazy).
    pub fn runif(_ctx: &FlashCtx, nrows: u64, ncols: usize, lo: f64, hi: f64, seed: u64) -> FM {
        FM::Tall {
            node: Node::gen(GenSpec::Runif { seed, lo, hi }, nrows, ncols),
            transposed: false,
        }
    }

    /// `rnorm.matrix`: normal random matrix (lazy).
    pub fn rnorm(_ctx: &FlashCtx, nrows: u64, ncols: usize, mean: f64, sd: f64, seed: u64) -> FM {
        FM::Tall {
            node: Node::gen(GenSpec::Rnorm { seed, mean, sd }, nrows, ncols),
            transposed: false,
        }
    }

    /// Constant-filled tall matrix (lazy).
    pub fn constant(nrows: u64, ncols: usize, value: f64) -> FM {
        FM::Tall { node: Node::gen(GenSpec::Const { value }, nrows, ncols), transposed: false }
    }

    /// `rep.int(1, n)` as a column.
    pub fn ones(nrows: u64, ncols: usize) -> FM {
        FM::constant(nrows, ncols, 1.0)
    }

    /// All-zero tall matrix.
    pub fn zeros(nrows: u64, ncols: usize) -> FM {
        FM::constant(nrows, ncols, 0.0)
    }

    /// `seq(start, by=step)` as an n×1 column (lazy).
    pub fn seq(nrows: u64, start: f64, step: f64) -> FM {
        FM::Tall { node: Node::gen(GenSpec::Seq { start, step }, nrows, 1), transposed: false }
    }

    /// Wrap a materialized tall matrix.
    pub fn from_tas(mat: TasMat) -> FM {
        FM::Tall { node: Node::leaf(mat), transposed: false }
    }

    /// An n×1 column from an f64 vector.
    pub fn from_vec(ctx: &FlashCtx, data: &[f64]) -> FM {
        FM::from_tas(TasMat::from_col_major::<f64>(data.len() as u64, 1, ctx.parter(), data))
    }

    /// A tall matrix from column-major f64 data.
    pub fn from_col_major(ctx: &FlashCtx, nrows: u64, ncols: usize, data: &[f64]) -> FM {
        FM::from_tas(TasMat::from_col_major::<f64>(nrows, ncols, ctx.parter(), data))
    }

    /// A tall matrix from row-major f64 data (kept row-major physically —
    /// exercises the row-major leaf path).
    pub fn from_row_major(ctx: &FlashCtx, nrows: u64, ncols: usize, data: &[f64]) -> FM {
        FM::from_tas(TasMat::from_row_major::<f64>(nrows, ncols, ctx.parter(), data))
    }

    /// A small in-memory matrix.
    pub fn from_dense(d: Dense) -> FM {
        FM::Small(d)
    }
}

// ---------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------

impl FM {
    /// Rows (`dim(x)[1]`).
    pub fn nrow(&self) -> u64 {
        match self {
            FM::Tall { node, transposed: false } => node.nrows,
            FM::Tall { node, transposed: true } => node.ncols as u64,
            FM::Sink { node } => node.nrows,
            FM::Small(d) => d.rows() as u64,
        }
    }

    /// Columns (`dim(x)[2]`).
    pub fn ncol(&self) -> u64 {
        match self {
            FM::Tall { node, transposed: false } => node.ncols as u64,
            FM::Tall { node, transposed: true } => node.nrows,
            FM::Sink { node } => node.ncols as u64,
            FM::Small(d) => d.cols() as u64,
        }
    }

    /// `length(x)`.
    pub fn len(&self) -> u64 {
        self.nrow() * self.ncol()
    }

    /// Whether the matrix holds zero elements (never true; R semantics
    /// keep at least one row). Present for clippy's `len` convention.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element dtype.
    pub fn dtype(&self) -> DType {
        match self {
            FM::Tall { node, .. } | FM::Sink { node } => node.dtype,
            FM::Small(_) => DType::F64,
        }
    }

    /// Whether this handle is a small materialized matrix.
    pub fn is_small(&self) -> bool {
        matches!(self, FM::Small(_))
    }

    /// Whether this is a (possibly virtual) tall matrix.
    pub fn is_tall(&self) -> bool {
        matches!(self, FM::Tall { .. })
    }

    /// The [`PlanError`] describing an operation applied to a sink that
    /// must be materialized first.
    fn sink_misuse(node: &Node, what: &str) -> PlanError {
        PlanError::new(
            node,
            PlanErrorKind::NotMaterialized,
            format!("{what} on an unmaterialized sink; call materialize() first"),
        )
    }

    fn tall_node(&self, what: &str) -> (&Arc<Node>, bool) {
        match self {
            FM::Tall { node, transposed } => (node, *transposed),
            FM::Sink { node } => panic!("{}", FM::sink_misuse(node, what)),
            other => panic!("{what} requires a tall matrix, got {other:?}"),
        }
    }

    fn untransposed(&self, what: &str) -> &Arc<Node> {
        let (node, transposed) = self.tall_node(what);
        assert!(!transposed, "{what} on a transposed matrix: transpose back or materialize first");
        node
    }

    /// `t(x)`: transpose without copying (view flip on talls).
    /// Panics on an unmaterialized sink; see [`FM::try_t`].
    pub fn t(&self) -> FM {
        self.try_t().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`FM::t`]: transposing an unmaterialized sink is a
    /// [`PlanError`] instead of a panic.
    pub fn try_t(&self) -> Result<FM, PlanError> {
        match self {
            FM::Tall { node, transposed } => {
                Ok(FM::Tall { node: node.clone(), transposed: !transposed })
            }
            FM::Sink { node } => Err(FM::sink_misuse(node, "t()")),
            FM::Small(d) => Ok(FM::Small(d.transpose())),
        }
    }

    /// `set.cache`: keep this virtual matrix's data when it is next
    /// computed, so later DAGs reuse it (paper §3.5).
    pub fn set_cache(&self, v: bool) -> &FM {
        if let FM::Tall { node, .. } = self {
            node.set_cache(v);
        }
        self
    }
}

// ---------------------------------------------------------------------
// Element-wise operations (paper Table 2: sapply/mapply overrides)
// ---------------------------------------------------------------------

macro_rules! unary_method {
    ($name:ident, $op:expr) => {
        /// Element-wise; lazy on tall matrices.
        pub fn $name(&self) -> FM {
            self.unary($op)
        }
    };
}

impl FM {
    /// Generic `sapply` with a predefined unary function.
    /// Panics on an unmaterialized sink; see [`FM::try_unary`].
    pub fn unary(&self, op: UnaryOp) -> FM {
        self.try_unary(op).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`FM::unary`]: applying an element-wise op to an
    /// unmaterialized sink is a [`PlanError`] instead of a panic.
    pub fn try_unary(&self, op: UnaryOp) -> Result<FM, PlanError> {
        match self {
            FM::Tall { node, transposed } => {
                Ok(FM::Tall { node: Node::map_unary(op, node.clone()), transposed: *transposed })
            }
            FM::Sink { node } => Err(FM::sink_misuse(node, "element-wise op")),
            FM::Small(d) => {
                let mut out = d.clone();
                for v in out.as_mut_slice().iter_mut() {
                    *v = unary_f64(op, *v);
                }
                Ok(FM::Small(out))
            }
        }
    }

    unary_method!(sqrt, UnaryOp::Sqrt);
    unary_method!(exp, UnaryOp::Exp);
    unary_method!(ln, UnaryOp::Ln);
    unary_method!(log2, UnaryOp::Log2);
    unary_method!(log10, UnaryOp::Log10);
    unary_method!(log1p, UnaryOp::Log1p);
    unary_method!(abs, UnaryOp::Abs);
    unary_method!(floor, UnaryOp::Floor);
    unary_method!(ceil, UnaryOp::Ceil);
    unary_method!(round, UnaryOp::Round);
    unary_method!(sign, UnaryOp::Sign);
    unary_method!(recip, UnaryOp::Recip);
    unary_method!(square, UnaryOp::Square);
    unary_method!(sigmoid, UnaryOp::Sigmoid);
    unary_method!(not, UnaryOp::Not);

    /// Generic `mapply` with a predefined binary function and R-style
    /// broadcasting (`other` may be same-shape, one column, 1×p small, or
    /// effectively scalar).
    /// Panics on unmaterialized sink operands; see [`FM::try_binary`].
    pub fn binary(&self, op: BinaryOp, other: &FM, swapped: bool) -> FM {
        self.try_binary(op, other, swapped).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`FM::binary`]: a sink operand is a [`PlanError`]
    /// instead of a panic.
    pub fn try_binary(&self, op: BinaryOp, other: &FM, swapped: bool) -> Result<FM, PlanError> {
        if let FM::Sink { node } = self {
            return Err(FM::sink_misuse(node, "element-wise op"));
        }
        if let FM::Sink { node } = other {
            return Err(FM::sink_misuse(node, "element-wise op"));
        }
        Ok(match (self, other) {
            (FM::Tall { node: a, transposed: ta }, FM::Tall { node: b, transposed: tb }) => {
                assert_eq!(
                    ta, tb,
                    "element-wise op between differently oriented matrices; transpose one first"
                );
                // Column recycling: allow b with one (untransposed) column.
                FM::Tall {
                    node: Node::map_binary(op, a.clone(), MapInput::Node(b.clone()), swapped),
                    transposed: *ta,
                }
            }
            (FM::Tall { node, transposed }, FM::Small(d)) => {
                let input = small_to_input(d, node, *transposed);
                FM::Tall {
                    node: Node::map_binary(op, node.clone(), input, swapped),
                    transposed: *transposed,
                }
            }
            (FM::Small(d), FM::Tall { node, transposed }) => {
                // a ⊕ B with small a: swap operand order.
                let input = small_to_input(d, node, *transposed);
                FM::Tall {
                    node: Node::map_binary(op, node.clone(), input, !swapped),
                    transposed: *transposed,
                }
            }
            (FM::Small(a), FM::Small(b)) => FM::Small(small_binary(op, a, b, swapped)),
            _ => unreachable!("sink operands rejected above"),
        })
    }

    /// Element-wise with a scalar.
    /// Panics on an unmaterialized sink; see [`FM::try_binary_scalar`].
    pub fn binary_scalar(&self, op: BinaryOp, s: f64, swapped: bool) -> FM {
        self.try_binary_scalar(op, s, swapped).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`FM::binary_scalar`]: an unmaterialized sink is a
    /// [`PlanError`] instead of a panic.
    pub fn try_binary_scalar(&self, op: BinaryOp, s: f64, swapped: bool) -> Result<FM, PlanError> {
        match self {
            FM::Tall { node, transposed } => Ok(FM::Tall {
                node: Node::map_binary(op, node.clone(), MapInput::Scalar(Scalar::F64(s)), swapped),
                transposed: *transposed,
            }),
            FM::Sink { node } => Err(FM::sink_misuse(node, "element-wise op")),
            FM::Small(d) => {
                let sd = Dense::filled(d.rows(), d.cols(), s);
                Ok(FM::Small(small_binary(op, d, &sd, swapped)))
            }
        }
    }

    /// `pmin`.
    pub fn pmin(&self, other: &FM) -> FM {
        self.binary(BinaryOp::Min, other, false)
    }

    /// `pmax`.
    pub fn pmax(&self, other: &FM) -> FM {
        self.binary(BinaryOp::Max, other, false)
    }

    /// `x > y` and friends (yield logical/U8 matrices).
    pub fn gt(&self, other: &FM) -> FM {
        self.binary(BinaryOp::Gt, other, false)
    }
    pub fn ge(&self, other: &FM) -> FM {
        self.binary(BinaryOp::Ge, other, false)
    }
    pub fn lt(&self, other: &FM) -> FM {
        self.binary(BinaryOp::Lt, other, false)
    }
    pub fn le(&self, other: &FM) -> FM {
        self.binary(BinaryOp::Le, other, false)
    }
    pub fn eq(&self, other: &FM) -> FM {
        self.binary(BinaryOp::Eq, other, false)
    }
    pub fn ne(&self, other: &FM) -> FM {
        self.binary(BinaryOp::Ne, other, false)
    }

    /// dtype conversion.
    /// Panics on an unmaterialized sink; see [`FM::try_cast`].
    pub fn cast(&self, to: DType) -> FM {
        self.try_cast(to).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`FM::cast`]: casting an unmaterialized sink is a
    /// [`PlanError`] instead of a panic.
    pub fn try_cast(&self, to: DType) -> Result<FM, PlanError> {
        match self {
            FM::Tall { node, transposed } => {
                Ok(FM::Tall { node: Node::cast(node.clone(), to), transposed: *transposed })
            }
            FM::Small(d) => Ok(FM::Small(d.clone())),
            FM::Sink { node } => Err(FM::sink_misuse(node, "cast")),
        }
    }

    /// `sweep(x, 2, stats, op)`: apply `op` column-wise with a per-column
    /// statistic.
    pub fn sweep_cols(&self, stats: &[f64], op: BinaryOp) -> FM {
        let node = self.untransposed("sweep");
        assert_eq!(stats.len(), node.ncols, "sweep stats length mismatch");
        FM::Tall {
            node: Node::map_binary(
                op,
                node.clone(),
                MapInput::RowVec(Arc::new(stats.to_vec())),
                false,
            ),
            transposed: false,
        }
    }
}

/// One element of a small matrix through the f64 element function the
/// map kernels run.
fn unary_f64(op: UnaryOp, x: f64) -> f64 {
    match op {
        // The one unary op with a logical result, which `eval_f64` leaves
        // to its callers.
        UnaryOp::Not => f64::from(u8::from(x == 0.0)),
        _ => op.eval_f64(x),
    }
}

fn small_binary(op: BinaryOp, a: &Dense, b: &Dense, swapped: bool) -> Dense {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "small matrix shape mismatch");
    let vals = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let (x, y) = if swapped { (y, x) } else { (x, y) };
            if op.is_predicate() {
                f64::from(op.eval_pred(x, y))
            } else {
                op.eval(x, y)
            }
        })
        .collect();
    Dense::from_vec(a.rows(), a.cols(), vals)
}

/// Interpret a small operand against a tall one: 1×p (row vector) sweeps
/// columns, 1×1 is a scalar.
fn small_to_input(d: &Dense, tall: &Arc<Node>, transposed: bool) -> MapInput {
    assert!(!transposed, "element-wise op with small operand on a transposed matrix");
    if d.rows() == 1 && d.cols() == 1 {
        MapInput::Scalar(Scalar::F64(d.at(0, 0)))
    } else if d.rows() == 1 && d.cols() == tall.ncols {
        MapInput::RowVec(Arc::new(d.row(0).to_vec()))
    } else {
        panic!(
            "small operand {}x{} does not broadcast against tall {}x{}",
            d.rows(),
            d.cols(),
            tall.nrows,
            tall.ncols
        )
    }
}

// ---------------------------------------------------------------------
// Aggregations (lazy sinks and per-row talls)
// ---------------------------------------------------------------------

impl FM {
    fn sink_full(&self, op: AggOp) -> FM {
        match self {
            FM::Tall { node, .. } => FM::Sink { node: Node::sink_full(op, node.clone()) },
            FM::Small(d) => {
                let mut acc = op.identity();
                for v in d.as_slice() {
                    acc = op.fold(acc, *v);
                }
                if op == AggOp::Mean {
                    acc /= d.as_slice().len() as f64;
                }
                FM::Small(Dense::from_vec(1, 1, vec![acc]))
            }
            FM::Sink { node } => panic!("{}", FM::sink_misuse(node, "aggregation")),
        }
    }

    /// `sum(x)` (lazy sink).
    pub fn sum(&self) -> FM {
        self.sink_full(AggOp::Sum)
    }
    /// `min(x)`.
    pub fn min_all(&self) -> FM {
        self.sink_full(AggOp::Min)
    }
    /// `max(x)`.
    pub fn max_all(&self) -> FM {
        self.sink_full(AggOp::Max)
    }
    /// `mean(x)`.
    pub fn mean_all(&self) -> FM {
        self.sink_full(AggOp::Mean)
    }
    /// `any(x != 0)`.
    pub fn any_nz(&self) -> FM {
        self.sink_full(AggOp::Any)
    }
    /// `all(x != 0)`.
    pub fn all_nz(&self) -> FM {
        self.sink_full(AggOp::All)
    }

    fn agg_cols(&self, op: AggOp) -> FM {
        // colSums of a transposed view is rowSums of the underlying.
        match self {
            FM::Tall { node, transposed: false } => {
                FM::Sink { node: Node::sink_col(op, node.clone()) }
            }
            FM::Tall { node, transposed: true } => {
                FM::Tall { node: Node::agg_row(op, node.clone()), transposed: false }
            }
            FM::Small(d) => {
                let mut out = Dense::zeros(1, d.cols());
                for c in 0..d.cols() {
                    let mut acc = op.identity();
                    for r in 0..d.rows() {
                        acc = op.fold(acc, d.at(r, c));
                    }
                    if op == AggOp::Mean {
                        acc /= d.rows() as f64;
                    }
                    out.set(0, c, acc);
                }
                FM::Small(out)
            }
            FM::Sink { node } => panic!("{}", FM::sink_misuse(node, "aggregation")),
        }
    }

    fn agg_rows(&self, op: AggOp) -> FM {
        match self {
            FM::Tall { node, transposed: false } => {
                FM::Tall { node: Node::agg_row(op, node.clone()), transposed: false }
            }
            FM::Tall { node, transposed: true } => {
                // rowSums of a transposed view = colSums of the tall.
                FM::Sink { node: Node::sink_col(op, node.clone()) }
            }
            FM::Small(d) => {
                let mut out = Dense::zeros(d.rows(), 1);
                for r in 0..d.rows() {
                    let mut acc = op.identity();
                    for c in 0..d.cols() {
                        acc = op.fold(acc, d.at(r, c));
                    }
                    if op == AggOp::Mean {
                        acc /= d.cols() as f64;
                    }
                    out.set(r, 0, acc);
                }
                FM::Small(out)
            }
            FM::Sink { node } => panic!("{}", FM::sink_misuse(node, "aggregation")),
        }
    }

    /// `colSums(x)` (lazy sink on talls).
    pub fn col_sums(&self) -> FM {
        self.agg_cols(AggOp::Sum)
    }
    /// `colMeans(x)`.
    pub fn col_means(&self) -> FM {
        self.agg_cols(AggOp::Mean)
    }
    /// Per-column minimum.
    pub fn col_min(&self) -> FM {
        self.agg_cols(AggOp::Min)
    }
    /// Per-column maximum.
    pub fn col_max(&self) -> FM {
        self.agg_cols(AggOp::Max)
    }

    /// `rowSums(x)` (lazy tall n×1).
    pub fn row_sums(&self) -> FM {
        self.agg_rows(AggOp::Sum)
    }
    /// `rowMeans(x)`.
    pub fn row_means(&self) -> FM {
        self.agg_rows(AggOp::Mean)
    }
    /// Per-row minimum.
    pub fn row_min(&self) -> FM {
        self.agg_rows(AggOp::Min)
    }
    /// Per-row maximum.
    pub fn row_max(&self) -> FM {
        self.agg_rows(AggOp::Max)
    }
    /// Per-row `which.min` (0-based column index), as the paper's k-means
    /// uses to assign points to clusters.
    pub fn row_which_min(&self) -> FM {
        self.agg_rows(AggOp::WhichMin)
    }
    /// Per-row `which.max`.
    pub fn row_which_max(&self) -> FM {
        self.agg_rows(AggOp::WhichMax)
    }

    /// `crossprod(x)` = `t(x) %*% x` (lazy p×p sink).
    pub fn crossprod(&self) -> FM {
        let node = self.untransposed("crossprod");
        FM::Sink { node: Node::sink_gramian(node.clone(), node.clone()) }
    }

    /// `crossprod(x, y)` = `t(x) %*% y` (lazy p×k sink).
    pub fn crossprod_with(&self, other: &FM) -> FM {
        let a = self.untransposed("crossprod");
        let b = other.untransposed("crossprod");
        FM::Sink { node: Node::sink_gramian(a.clone(), b.clone()) }
    }

    /// `groupby.col(x, labels, op)`: reduce column groups per row
    /// (lazy n×k tall; paper Table 1). `labels[c]` assigns column `c` to
    /// a group in `[0, ngroups)`.
    pub fn groupby_col(&self, labels: &[usize], op: AggOp, ngroups: usize) -> FM {
        let node = self.untransposed("groupby.col");
        FM::Tall {
            node: Node::group_cols(node.clone(), labels.to_vec(), op, ngroups),
            transposed: false,
        }
    }

    /// `groupby.row(x, labels, op)` → lazy k×p sink. `labels` is an n×1
    /// integer matrix with values in `[0, ngroups)`.
    pub fn groupby_row(&self, labels: &FM, op: AggOp, ngroups: usize) -> FM {
        let data = self.untransposed("groupby.row");
        let lab = labels.untransposed("groupby labels");
        FM::Sink { node: Node::sink_groupby(data.clone(), lab.clone(), op, ngroups) }
    }
}

// ---------------------------------------------------------------------
// Matrix multiplication and structural ops
// ---------------------------------------------------------------------

impl FM {
    /// `x %*% y`. Supported shapes (paper's usage patterns):
    /// * tall `%*%` small → lazy tall (Fig. 5 e/f);
    /// * `t(tall) %*% tall` → lazy Gramian sink (Fig. 5 g/h/i);
    /// * small `%*%` small → immediate dense multiply.
    pub fn matmul(&self, other: &FM) -> FM {
        match (self, other) {
            (FM::Tall { node, transposed: false }, FM::Small(b)) => {
                FM::Tall { node: Node::matmul_small(node.clone(), b.clone()), transposed: false }
            }
            (FM::Tall { node: a, transposed: true }, FM::Tall { node: b, transposed: false }) => {
                FM::Sink { node: Node::sink_gramian(a.clone(), b.clone()) }
            }
            (FM::Small(a), FM::Small(b)) => FM::Small(flashr_linalg::matmul(a, b)),
            (FM::Small(a), FM::Tall { node, transposed: true }) => {
                // (k×n_small is impossible unless a is 1×n... ) Support
                // small %*% t(tall) via (tall %*% t(small))ᵀ when small is
                // a row vector: a (m×p) with tall (n×p) → m×n is huge.
                panic!(
                    "small ({}x{}) %*% t(tall {}x{}) would be a wide result; restructure the expression",
                    a.rows(),
                    a.cols(),
                    node.nrows,
                    node.ncols
                )
            }
            (a, b) => panic!("unsupported %*% shapes: {a:?} %*% {b:?}"),
        }
    }

    /// Generalized `inner.prod(x, b, f1, f2)` with a small dense `b`.
    pub fn inner_prod(&self, b: Dense, f1: BinaryOp, f2: BinaryOp) -> FM {
        let node = self.untransposed("inner.prod");
        FM::Tall { node: Node::inner_prod_small(node.clone(), b, f1, f2), transposed: false }
    }

    /// Column selection `x[, idx]` (lazy).
    pub fn cols(&self, idx: &[usize]) -> FM {
        let node = self.untransposed("column selection");
        FM::Tall { node: Node::select(node.clone(), idx.to_vec()), transposed: false }
    }

    /// Single column `x[, j]` (lazy).
    pub fn col(&self, j: usize) -> FM {
        self.cols(&[j])
    }

    /// `cbind(...)` (lazy).
    pub fn cbind(parts: &[&FM]) -> FM {
        let nodes: Vec<Arc<Node>> = parts.iter().map(|p| p.untransposed("cbind").clone()).collect();
        FM::Tall { node: Node::bind_cols(nodes), transposed: false }
    }

    /// `rbind(a, b)`: eager (repartitions), returns a leaf-backed tall.
    pub fn rbind(ctx: &FlashCtx, a: &FM, b: &FM) -> FM {
        let am = a.materialize(ctx).tall_mat(ctx);
        let bm = b.materialize(ctx).tall_mat(ctx);
        assert_eq!(am.ncols(), bm.ncols(), "rbind column mismatch");
        let n = am.nrows() + bm.nrows();
        let p = am.ncols();
        let da = am.to_dense_f64();
        let db = bm.to_dense_f64();
        let mat = TasMat::from_fn::<f64>(n, p, ctx.parter(), |r, c| {
            if r < am.nrows() {
                da.at(r as usize, c)
            } else {
                db.at((r - am.nrows()) as usize, c)
            }
        });
        FM::from_tas(mat)
    }

    /// `cumsum` down each column (lazy; single-pass cross-partition).
    pub fn cumsum_col(&self) -> FM {
        let node = self.untransposed("cumsum");
        FM::Tall { node: Node::cum_col(BinaryOp::Add, node.clone()), transposed: false }
    }

    /// `cumprod` down each column.
    pub fn cumprod_col(&self) -> FM {
        let node = self.untransposed("cumprod");
        FM::Tall { node: Node::cum_col(BinaryOp::Mul, node.clone()), transposed: false }
    }

    /// Cumulative min down each column.
    pub fn cummin_col(&self) -> FM {
        let node = self.untransposed("cummin");
        FM::Tall { node: Node::cum_col(BinaryOp::Min, node.clone()), transposed: false }
    }

    /// Cumulative max down each column.
    pub fn cummax_col(&self) -> FM {
        let node = self.untransposed("cummax");
        FM::Tall { node: Node::cum_col(BinaryOp::Max, node.clone()), transposed: false }
    }

    /// `cum.row`: cumulative across the columns of each row.
    pub fn cum_row(&self, op: BinaryOp) -> FM {
        let node = self.untransposed("cum.row");
        FM::Tall { node: Node::cum_row(op, node.clone()), transposed: false }
    }
}

// ---------------------------------------------------------------------
// Materialization and extraction (paper §3.4 triggers)
// ---------------------------------------------------------------------

impl FM {
    /// Force computation of this matrix (R's `materialize`). Sinks become
    /// small matrices; talls become leaf-backed.
    pub fn materialize(&self, ctx: &FlashCtx) -> FM {
        FM::materialize_multi(ctx, &[self]).pop().expect("one input, one output")
    }

    /// Materialize several virtual matrices in a *single* fused pass over
    /// the data — how the paper's k-means computes assignments, counts
    /// and new centers together.
    pub fn materialize_multi(ctx: &FlashCtx, fms: &[&FM]) -> Vec<FM> {
        let mut targets = Vec::new();
        let mut mapping: Vec<Option<usize>> = Vec::with_capacity(fms.len());
        for fm in fms {
            match fm {
                FM::Small(_) => mapping.push(None),
                FM::Sink { node } => {
                    mapping.push(Some(targets.len()));
                    targets.push(Target::Sink(node.clone()));
                }
                FM::Tall { node, .. } => {
                    if matches!(node.kind, NodeKind::Leaf(_)) || node.cached().is_some() {
                        mapping.push(None); // already materialized
                    } else {
                        mapping.push(Some(targets.len()));
                        targets.push(Target::Tall {
                            node: node.clone(),
                            storage: TargetStorage::Default,
                        });
                    }
                }
            }
        }
        let mut results = exec::materialize(ctx, &targets).into_iter();
        let mut taken: HashMap<usize, exec::TargetResult> = HashMap::new();
        let mut out = Vec::with_capacity(fms.len());
        for (fm, slot) in fms.iter().zip(mapping) {
            match slot {
                None => out.push((*fm).clone()),
                Some(idx) => {
                    let r = taken
                        .remove(&idx)
                        .unwrap_or_else(|| results.next().expect("result count mismatch"));
                    match (fm, r) {
                        (FM::Sink { .. }, exec::TargetResult::Dense(d)) => out.push(FM::Small(d)),
                        (FM::Tall { transposed, .. }, exec::TargetResult::Mat(m)) => {
                            out.push(FM::Tall { node: Node::leaf(m), transposed: *transposed });
                        }
                        _ => unreachable!("target kind mismatch"),
                    }
                }
            }
        }
        out
    }

    /// The exec target this matrix's pending computation would run as.
    /// `None` for already-materialized data (small dense results, leaves,
    /// cached nodes) — there is nothing to plan.
    pub(crate) fn pending_target(&self) -> Option<Target> {
        match self {
            FM::Small(_) => None,
            FM::Sink { node } => Some(Target::Sink(node.clone())),
            FM::Tall { node, .. } => {
                if matches!(node.kind, NodeKind::Leaf(_)) || node.cached().is_some() {
                    return None;
                }
                Some(Target::Tall { node: node.clone(), storage: TargetStorage::Default })
            }
        }
    }

    /// The plan the engine would run to materialize this matrix, without
    /// running it.
    fn pending_plan(&self, ctx: &FlashCtx) -> Option<exec::Plan> {
        let target = self.pending_target()?;
        Some(exec::Plan::build(ctx, &[target], &HashMap::new()))
    }

    /// Run the static analyzer over the pending DAG without executing
    /// anything: shape/dtype verification, then the CSE rewrite and the
    /// lint pass on the rewritten plan. An inconsistent DAG (mismatched
    /// `mapply` dims, bad `inner.prod` inner dimension, ...) comes back
    /// as a typed [`PlanError`] naming the offending node — before any
    /// partition is read. Already-materialized matrices return an empty
    /// report.
    pub fn check(&self, ctx: &FlashCtx) -> Result<AnalysisReport, PlanError> {
        match self.pending_target() {
            None => Ok(AnalysisReport::default()),
            Some(t) => {
                let analysis = crate::analysis::analyze(ctx, std::slice::from_ref(&t))?;
                crate::analysis::deny_gate(&analysis.report.lints)?;
                Ok(analysis.report)
            }
        }
    }

    /// Machine-readable form of [`FM::check`], as one JSON object:
    /// `{"ok":true,"report":{...}}` on success,
    /// `{"ok":false,"error":{...}}` when verification fails or
    /// `FLASHR_DENY_LINTS` promotes a lint. Already-materialized
    /// matrices report `{"ok":true,"report":null}`.
    pub fn check_json(&self, ctx: &FlashCtx) -> String {
        let pending = self.pending_target().is_some();
        crate::json::object(|w| match self.check(ctx) {
            Ok(report) => {
                w.key("ok").bool(true);
                if pending {
                    w.key("report").raw(&report.to_json());
                } else {
                    w.key("report").null();
                }
            }
            Err(e) => {
                w.key("ok").bool(false);
                w.key("error").raw(&e.to_json());
            }
        })
    }

    /// Render the pending DAG as an indented text tree (R's `explain()`):
    /// the fused pass the engine would run, with per-node shapes, dtypes
    /// and materialization markers, followed by the analyzer's summary
    /// (CSE node counts, footprint estimate, lints).
    pub fn explain(&self, ctx: &FlashCtx) -> String {
        match self.pending_plan(ctx) {
            Some(plan) => {
                let mut out = plan.explain();
                match self.check(ctx) {
                    Ok(report) => out.push_str(&report.summary()),
                    Err(e) => out.push_str(&format!("analysis: FAILED — {e}\n")),
                }
                out
            }
            None => "already materialized (no pending DAG)\n".to_string(),
        }
    }

    /// Render the pending DAG as Graphviz DOT, with the fused pass as a
    /// cluster and materialized inputs outside it.
    pub fn explain_dot(&self, ctx: &FlashCtx) -> String {
        match self.pending_plan(ctx) {
            Some(plan) => plan.explain_dot(),
            None => "digraph flashr_plan {\n}\n".to_string(),
        }
    }

    /// The backing [`TasMat`] if this tall matrix is already materialized
    /// (leaf or cached), without forcing computation.
    pub fn leaf_mat_opt(&self) -> Option<TasMat> {
        match self {
            FM::Tall { node, .. } => {
                if let Some(m) = node.cached() {
                    return Some(m.clone());
                }
                match &node.kind {
                    NodeKind::Leaf(m) => Some(m.clone()),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// The backing [`TasMat`] of a materialized tall matrix.
    pub fn tall_mat(&self, ctx: &FlashCtx) -> TasMat {
        match self {
            FM::Tall { node, .. } => {
                if let Some(m) = node.cached() {
                    return m.clone();
                }
                if let NodeKind::Leaf(m) = &node.kind {
                    return m.clone();
                }
                match &self.materialize(ctx) {
                    FM::Tall { node, .. } => match &node.kind {
                        NodeKind::Leaf(m) => m.clone(),
                        _ => unreachable!("materialize returns leaves"),
                    },
                    _ => unreachable!(),
                }
            }
            other => panic!("tall_mat on {other:?}"),
        }
    }

    /// Extract a 1×1 result (`as.vector` on a scalar sink).
    pub fn value(&self, ctx: &FlashCtx) -> f64 {
        let d = self.to_dense(ctx);
        assert_eq!((d.rows(), d.cols()), (1, 1), "value() needs a 1x1 result");
        d.at(0, 0)
    }

    /// Materialize into a small dense matrix (`as.matrix`). Talls are
    /// copied wholesale — intended for small-ish matrices and tests.
    pub fn to_dense(&self, ctx: &FlashCtx) -> Dense {
        match self {
            FM::Small(d) => d.clone(),
            FM::Sink { .. } => match self.materialize(ctx) {
                FM::Small(d) => d,
                _ => unreachable!(),
            },
            FM::Tall { transposed, .. } => {
                let d = self.tall_mat(ctx).to_dense_f64();
                if *transposed {
                    d.transpose()
                } else {
                    d
                }
            }
        }
    }

    /// Flatten to an f64 vector (`as.vector`): column-major like R.
    pub fn to_vec(&self, ctx: &FlashCtx) -> Vec<f64> {
        let d = self.to_dense(ctx);
        let mut out = Vec::with_capacity(d.rows() * d.cols());
        for c in 0..d.cols() {
            for r in 0..d.rows() {
                out.push(d.at(r, c));
            }
        }
        out
    }

    /// One element (forces computation of its partition).
    pub fn get(&self, ctx: &FlashCtx, r: u64, c: u64) -> f64 {
        match self {
            FM::Small(d) => d.at(r as usize, c as usize),
            FM::Sink { .. } => self.to_dense(ctx).at(r as usize, c as usize),
            FM::Tall { transposed, .. } => {
                let (rr, cc) = if *transposed { (c, r) } else { (r, c) };
                self.tall_mat(ctx).get(rr, cc as usize).to_f64()
            }
        }
    }

    /// `unique(x)` on a column: materializes immediately (output size is
    /// data-dependent, paper §3.4), returns sorted distinct values.
    pub fn unique(&self, ctx: &FlashCtx) -> Vec<f64> {
        let mut vals: Vec<f64> = self.table(ctx).into_iter().map(|(v, _)| v).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vals
    }

    /// `table(x)`: value → count, sorted by value. Materializes
    /// immediately.
    pub fn table(&self, ctx: &FlashCtx) -> Vec<(f64, u64)> {
        let mat = match self {
            FM::Small(d) => {
                let mut counts: HashMap<u64, (f64, u64)> = HashMap::new();
                for v in d.as_slice() {
                    let e = counts.entry(v.to_bits()).or_insert((*v, 0));
                    e.1 += 1;
                }
                let mut out: Vec<(f64, u64)> = counts.into_values().collect();
                out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                return out;
            }
            _ => self.materialize(ctx).tall_mat(ctx),
        };
        let mut counts: HashMap<u64, (f64, u64)> = HashMap::new();
        let mut pool = crate::chunk::BufPool::new();
        for (part, buf) in mat.scan(0..mat.nparts()) {
            let rows = mat.parter().part_rows(part, mat.nrows());
            let chunk = mat.pcache_chunk(&buf, part, 0, rows, &mut pool);
            for c in 0..chunk.cols() {
                for r in 0..rows {
                    let v = chunk.get_f64(r, c);
                    let e = counts.entry(v.to_bits()).or_insert((v, 0));
                    e.1 += 1;
                }
            }
        }
        let mut out: Vec<(f64, u64)> = counts.into_values().collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        out
    }
}

// ---------------------------------------------------------------------
// Statistics and row access conveniences
// ---------------------------------------------------------------------

impl FM {
    /// `prod(x)` (lazy sink).
    pub fn prod_all(&self) -> FM {
        self.sink_full(AggOp::Prod)
    }

    /// Per-column population variances (one fused pass).
    pub fn col_vars(&self, ctx: &FlashCtx) -> Vec<f64> {
        let n = self.nrow() as f64;
        let out = FM::materialize_multi(ctx, &[&self.col_sums(), &self.square().col_sums()]);
        let s = out[0].to_dense(ctx);
        let s2 = out[1].to_dense(ctx);
        (0..s.cols()).map(|j| (s2.at(0, j) / n - (s.at(0, j) / n).powi(2)).max(0.0)).collect()
    }

    /// Per-column standard deviations (one fused pass).
    pub fn col_sds(&self, ctx: &FlashCtx) -> Vec<f64> {
        self.col_vars(ctx).into_iter().map(f64::sqrt).collect()
    }

    /// R's `scale(x, center, scale)`: subtract column means and/or divide
    /// by column standard deviations. One pass for the statistics; the
    /// normalization itself stays lazy.
    pub fn scale(&self, ctx: &FlashCtx, center: bool, scale: bool) -> FM {
        let n = self.nrow() as f64;
        let out = FM::materialize_multi(ctx, &[&self.col_sums(), &self.square().col_sums()]);
        let s = out[0].to_dense(ctx);
        let s2 = out[1].to_dense(ctx);
        let means: Vec<f64> = (0..s.cols()).map(|j| s.at(0, j) / n).collect();
        let sds: Vec<f64> = (0..s.cols())
            .map(|j| (s2.at(0, j) / n - means[j] * means[j]).max(0.0).sqrt().max(1e-300))
            .collect();
        let mut cur = self.clone();
        if center {
            cur = cur.sweep_cols(&means, BinaryOp::Sub);
        }
        if scale {
            cur = cur.sweep_cols(&sds, BinaryOp::Div);
        }
        cur
    }

    /// Gather specific rows, in the order asked, into a small dense
    /// matrix. Each touched I/O partition is read once, in partition
    /// order through [`TasMat::scan`]'s read-ahead window. Intended for
    /// sampling-style access, not bulk reshuffles.
    pub fn gather_rows(&self, ctx: &FlashCtx, rows: &[u64]) -> Dense {
        self.untransposed("gather_rows");
        let p = self.ncol() as usize;
        let mat = self.tall_mat(ctx);
        let parter = mat.parter();
        let mut by_part: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < mat.nrows(), "row {r} out of range");
            by_part.entry(r / parter.rows_per_part()).or_default().push(i);
        }
        let mut out = Dense::zeros(rows.len(), p);
        let mut pool = crate::chunk::BufPool::new();
        for (part, buf) in mat.scan(by_part.keys().copied()) {
            let part_rows = parter.part_rows(part, mat.nrows());
            let chunk = mat.pcache_chunk(&buf, part, 0, part_rows, &mut pool);
            for &i in &by_part[&part] {
                let local = (rows[i] - part * parter.rows_per_part()) as usize;
                for j in 0..p {
                    out.set(i, j, chunk.get_f64(local, j));
                }
            }
        }
        out
    }

    /// The first `n` rows as a dense matrix (R's `head`).
    pub fn head(&self, ctx: &FlashCtx, n: u64) -> Dense {
        let n = n.min(self.nrow());
        let rows: Vec<u64> = (0..n).collect();
        self.gather_rows(ctx, &rows)
    }
}

// ---------------------------------------------------------------------
// Operator overloading (R's `+`, `-`, `*`, `/` overrides)
// ---------------------------------------------------------------------

macro_rules! fm_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait<&FM> for &FM {
            type Output = FM;
            fn $method(self, rhs: &FM) -> FM {
                self.binary($op, rhs, false)
            }
        }
        impl std::ops::$trait<f64> for &FM {
            type Output = FM;
            fn $method(self, rhs: f64) -> FM {
                self.binary_scalar($op, rhs, false)
            }
        }
        impl std::ops::$trait<&FM> for f64 {
            type Output = FM;
            fn $method(self, rhs: &FM) -> FM {
                rhs.binary_scalar($op, self, true)
            }
        }
    };
}

fm_binop!(Add, add, BinaryOp::Add);
fm_binop!(Sub, sub, BinaryOp::Sub);
fm_binop!(Mul, mul, BinaryOp::Mul);
fm_binop!(Div, div, BinaryOp::Div);

impl std::ops::Neg for &FM {
    type Output = FM;
    fn neg(self) -> FM {
        self.unary(UnaryOp::Neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CtxConfig;

    fn ctx() -> FlashCtx {
        FlashCtx::with_config(
            CtxConfig { rows_per_part: 64, nthreads: 4, ..Default::default() },
            None,
        )
    }

    #[test]
    fn runif_materializes_in_range() {
        let ctx = ctx();
        let x = FM::runif(&ctx, 500, 3, -1.0, 2.0, 7);
        let d = x.to_dense(&ctx);
        for r in 0..500 {
            for c in 0..3 {
                let v = d.at(r, c);
                assert!((-1.0..2.0).contains(&v));
            }
        }
    }

    #[test]
    fn elementwise_pipeline() {
        let ctx = ctx();
        let x = FM::from_vec(&ctx, &[1.0, 4.0, 9.0, 16.0]);
        let y = (&x.sqrt() * 2.0).materialize(&ctx);
        assert_eq!(y.to_vec(&ctx), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn scalar_ops_and_swapped() {
        let ctx = ctx();
        let x = FM::from_vec(&ctx, &[1.0, 2.0, 4.0]);
        let r = (8.0 / &x).to_vec(&ctx);
        assert_eq!(r, vec![8.0, 4.0, 2.0]);
        let s = (&x - 1.0).to_vec(&ctx);
        assert_eq!(s, vec![0.0, 1.0, 3.0]);
    }

    #[test]
    fn sums_and_means() {
        let ctx = ctx();
        let x = FM::seq(100, 1.0, 1.0); // 1..=100
        assert_eq!(x.sum().value(&ctx), 5050.0);
        assert_eq!(x.mean_all().value(&ctx), 50.5);
        assert_eq!(x.min_all().value(&ctx), 1.0);
        assert_eq!(x.max_all().value(&ctx), 100.0);
    }

    #[test]
    fn col_and_row_aggregates() {
        let ctx = ctx();
        // 100×2: col0 = 1..100, col1 = all 2
        let mut data = Vec::new();
        data.extend((1..=100).map(|v| v as f64));
        data.extend(std::iter::repeat_n(2.0, 100));
        let x = FM::from_col_major(&ctx, 100, 2, &data);
        let cs = x.col_sums().to_vec(&ctx);
        assert_eq!(cs, vec![5050.0, 200.0]);
        let rs = x.row_sums().to_vec(&ctx);
        assert_eq!(rs[0], 3.0);
        assert_eq!(rs[99], 102.0);
        let cm = x.col_means().to_vec(&ctx);
        assert_eq!(cm, vec![50.5, 2.0]);
    }

    #[test]
    fn transpose_swaps_aggregates() {
        let ctx = ctx();
        let x = FM::from_col_major(&ctx, 80, 2, &(0..160).map(|v| v as f64).collect::<Vec<_>>());
        let t = x.t();
        assert_eq!(t.nrow(), 2);
        assert_eq!(t.ncol(), 80);
        // rowSums of the transpose == colSums of x
        let a = t.row_sums().to_vec(&ctx);
        let b = x.col_sums().to_vec(&ctx);
        assert_eq!(a, b);
        // double transpose is identity
        let d = t.t().to_dense(&ctx);
        assert_eq!(d.at(5, 1), x.to_dense(&ctx).at(5, 1));
    }

    #[test]
    fn crossprod_matches_dense() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 300, 4, 0.0, 1.0, 3);
        let g = x.crossprod().to_dense(&ctx);
        let d = x.to_dense(&ctx);
        let want = flashr_linalg::syrk(&d);
        assert!(g.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn tall_times_small() {
        let ctx = ctx();
        let x = FM::seq(70, 0.0, 1.0); // 70×1
        let b = Dense::from_vec(1, 2, vec![2.0, -1.0]);
        let y = x.matmul(&FM::Small(b));
        assert_eq!(y.ncol(), 2);
        let d = y.to_dense(&ctx);
        assert_eq!(d.at(10, 0), 20.0);
        assert_eq!(d.at(10, 1), -10.0);
    }

    #[test]
    fn gramian_via_transposed_matmul() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 200, 3, 0.0, 1.0, 11);
        let g1 = x.t().matmul(&x).to_dense(&ctx);
        let g2 = x.crossprod().to_dense(&ctx);
        assert!(g1.max_abs_diff(&g2) < 1e-12);
    }

    #[test]
    fn groupby_row_sums() {
        let ctx = ctx();
        let x = FM::constant(90, 2, 1.0);
        let labels =
            FM::seq(90, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 3.0, false).cast(DType::I64);
        let g = x.groupby_row(&labels, AggOp::Sum, 3).to_dense(&ctx);
        for grp in 0..3 {
            assert_eq!(g.at(grp, 0), 30.0);
            assert_eq!(g.at(grp, 1), 30.0);
        }
    }

    #[test]
    fn multi_sink_single_pass() {
        let ctx = ctx();
        let x = FM::runif(&ctx, 1000, 2, 0.0, 1.0, 5);
        let before = ctx.stats().snapshot();
        let s = x.sum();
        let cs = x.col_sums();
        let out = FM::materialize_multi(&ctx, &[&s, &cs]);
        let after = ctx.stats().snapshot();
        assert_eq!(before.delta(&after).passes, 1, "multi-sink must fuse into one pass");
        let total = out[0].value(&ctx);
        let per_col = out[1].to_vec(&ctx);
        assert!((total - (per_col[0] + per_col[1])).abs() < 1e-9);
    }

    #[test]
    fn set_cache_reuses_data() {
        let ctx = ctx();
        let x = FM::runif(&ctx, 500, 2, 0.0, 1.0, 1);
        let y = &x * 3.0;
        y.set_cache(true);
        let s1 = y.sum().value(&ctx);
        // Second DAG over y should reuse the cache (node is now a leaf).
        match &y {
            FM::Tall { node, .. } => assert!(node.cached().is_some(), "cache not installed"),
            _ => unreachable!(),
        }
        let s2 = y.sum().value(&ctx);
        // Thread-partial merge order is nondeterministic → tolerance.
        assert!((s1 - s2).abs() < 1e-9);
    }

    #[test]
    fn cumsum_across_partitions() {
        let ctx = ctx();
        let x = FM::constant(200, 1, 1.0);
        let c = x.cumsum_col().to_dense(&ctx);
        assert_eq!(c.at(0, 0), 1.0);
        assert_eq!(c.at(63, 0), 64.0);
        assert_eq!(c.at(64, 0), 65.0); // crosses the partition boundary
        assert_eq!(c.at(199, 0), 200.0);
    }

    #[test]
    fn select_and_bind() {
        let ctx = ctx();
        let x = FM::from_col_major(&ctx, 70, 2, &(0..140).map(|v| v as f64).collect::<Vec<_>>());
        let c1 = x.col(1);
        assert_eq!(c1.ncol(), 1);
        assert_eq!(c1.to_vec(&ctx)[0], 70.0);
        let both = FM::cbind(&[&c1, &x.col(0)]);
        assert_eq!(both.ncol(), 2);
        let d = both.to_dense(&ctx);
        assert_eq!(d.at(0, 0), 70.0);
        assert_eq!(d.at(0, 1), 0.0);
    }

    #[test]
    fn comparisons_produce_logical() {
        let ctx = ctx();
        let x = FM::seq(10, 0.0, 1.0);
        let y = FM::constant(10, 1, 5.0);
        let gt = x.gt(&y);
        assert_eq!(gt.dtype(), DType::U8);
        let v = gt.to_vec(&ctx);
        assert_eq!(v.iter().sum::<f64>(), 4.0); // 6,7,8,9
        assert_eq!(x.ne(&y).sum().value(&ctx), 9.0);
    }

    #[test]
    fn unique_and_table() {
        let ctx = ctx();
        let x = FM::seq(90, 0.0, 1.0).binary_scalar(BinaryOp::Rem, 3.0, false);
        let u = x.unique(&ctx);
        assert_eq!(u, vec![0.0, 1.0, 2.0]);
        let t = x.table(&ctx);
        assert_eq!(t, vec![(0.0, 30), (1.0, 30), (2.0, 30)]);
    }

    #[test]
    fn sweep_divides_columns() {
        let ctx = ctx();
        let x = FM::constant(50, 2, 10.0);
        let s = x.sweep_cols(&[2.0, 5.0], BinaryOp::Div).to_dense(&ctx);
        assert_eq!(s.at(0, 0), 5.0);
        assert_eq!(s.at(0, 1), 2.0);
    }

    #[test]
    fn small_matrix_ops() {
        let a = FM::from_dense(Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = FM::from_dense(Dense::eye(2));
        let s = (&a + &b).to_dense(&FlashCtx::in_memory());
        assert_eq!(s.at(0, 0), 2.0);
        assert_eq!(s.at(1, 1), 5.0);
        let total = a.sum();
        assert_eq!(total.value(&FlashCtx::in_memory()), 10.0);
    }

    #[test]
    fn which_min_rows() {
        let ctx = ctx();
        // col0 = seq, col1 = constant 50 → argmin is 0 for rows < 50.
        let mut data: Vec<f64> = (0..100).map(|v| v as f64).collect();
        data.extend(std::iter::repeat_n(50.0, 100));
        let x = FM::from_col_major(&ctx, 100, 2, &data);
        let w = x.row_which_min().to_vec(&ctx);
        assert_eq!(w[10], 0.0);
        assert_eq!(w[60], 1.0);
    }

    #[test]
    fn inner_prod_euclidean() {
        let ctx = ctx();
        let x = FM::from_col_major(&ctx, 3, 1, &[0.0, 1.0, 2.0]);
        // one center at 1.0 → squared distances 1, 0, 1
        let centers = Dense::from_vec(1, 1, vec![1.0]);
        let d = x.inner_prod(centers, BinaryOp::EuclidSq, BinaryOp::Add).to_vec(&ctx);
        assert_eq!(d, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn row_major_leaves_work() {
        let ctx = ctx();
        let data: Vec<f64> = (0..120).map(|v| v as f64).collect();
        let rm = FM::from_row_major(&ctx, 60, 2, &data);
        let cm = FM::from_col_major(
            &ctx,
            60,
            2,
            &(0..60)
                .map(|r| (r * 2) as f64)
                .chain((0..60).map(|r| (r * 2 + 1) as f64))
                .collect::<Vec<_>>(),
        );
        assert_eq!(rm.col_sums().to_vec(&ctx), cm.col_sums().to_vec(&ctx));
        let d = (&rm - &cm).abs().sum().value(&ctx);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn groupby_col_reduces_column_groups() {
        let ctx = ctx();
        // 4 columns: constants 1, 2, 3, 4; group evens/odds.
        let x = FM::cbind(&[
            &FM::constant(100, 1, 1.0),
            &FM::constant(100, 1, 2.0),
            &FM::constant(100, 1, 3.0),
            &FM::constant(100, 1, 4.0),
        ]);
        let g = x.groupby_col(&[0, 1, 0, 1], AggOp::Sum, 2);
        assert_eq!(g.ncol(), 2);
        let d = g.to_dense(&ctx);
        assert_eq!(d.at(0, 0), 4.0); // 1 + 3
        assert_eq!(d.at(0, 1), 6.0); // 2 + 4
                                     // Fuses: one pass with a downstream sink.
        let before = ctx.stats().snapshot();
        let total = x.groupby_col(&[0, 0, 1, 1], AggOp::Max, 2).sum().value(&ctx);
        assert_eq!(before.delta(&ctx.stats().snapshot()).passes, 1);
        assert_eq!(total, 100.0 * (2.0 + 4.0));
    }

    #[test]
    fn scale_standardizes_columns() {
        let ctx = ctx();
        let x = &(&FM::rnorm(&ctx, 20_000, 2, 0.0, 1.0, 31) * 3.0) + 7.0;
        let z = x.scale(&ctx, true, true);
        let means = z.col_means().to_vec(&ctx);
        let vars = z.col_vars(&ctx);
        for m in means {
            assert!(m.abs() < 1e-9, "mean {m}");
        }
        for v in vars {
            assert!((v - 1.0).abs() < 1e-9, "var {v}");
        }
    }

    #[test]
    fn col_vars_match_construction() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 40_000, 2, 5.0, 2.0, 8);
        let v = x.col_vars(&ctx);
        assert!((v[0] - 4.0).abs() < 0.15, "var {}", v[0]);
        let sd = x.col_sds(&ctx);
        assert!((sd[1] - 2.0).abs() < 0.05);
    }

    #[test]
    fn gather_rows_and_head() {
        let ctx = ctx();
        let x = FM::seq(500, 0.0, 1.0);
        let g = x.gather_rows(&ctx, &[0, 64, 499, 7]);
        assert_eq!(g.at(0, 0), 0.0);
        assert_eq!(g.at(1, 0), 64.0);
        assert_eq!(g.at(2, 0), 499.0);
        assert_eq!(g.at(3, 0), 7.0);
        let h = x.head(&ctx, 3);
        assert_eq!(h.rows(), 3);
        assert_eq!(h.at(2, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "gather_rows on a transposed matrix")]
    fn head_of_a_transpose_names_the_operation() {
        let ctx = ctx();
        FM::seq(500, 0.0, 1.0).t().head(&ctx, 2);
    }

    #[test]
    fn prod_all_multiplies() {
        let ctx = ctx();
        let x = FM::from_vec(&ctx, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.prod_all().value(&ctx), 24.0);
    }

    #[test]
    fn rbind_concatenates() {
        let ctx = ctx();
        let a = FM::constant(70, 1, 1.0);
        let b = FM::constant(30, 1, 2.0);
        let ab = FM::rbind(&ctx, &a, &b);
        assert_eq!(ab.nrow(), 100);
        assert_eq!(ab.sum().value(&ctx), 130.0);
    }
}

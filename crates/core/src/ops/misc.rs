//! Structural chunk kernels: the element cast, column selection and
//! column binding (`cbind`). All keep the partition dimension, so they
//! fuse like any other map operation.

use crate::chunk::{BufPool, Chunk};
use crate::element::Element;
use crate::ops::agg::AggOp;

/// Slice-level cast behind the map kernels' cast step: float sources
/// round-trip through `f64`, integer sources through `i64` (R promotion
/// semantics, exact for same-family conversions).
#[inline(always)]
pub(crate) fn cast_slice<S: Element, D: Element>(src: &[S], dst: &mut [D]) {
    if S::DTYPE.is_float() {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = D::from_f64(s.to_f64());
        }
    } else {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = D::from_i64(s.to_i64());
        }
    }
}

/// Select columns (R's `X[, idx]`); indices may repeat or reorder.
pub fn select_cols(input: &Chunk, idx: &[usize], pool: &mut BufPool) -> Chunk {
    let rows = input.rows();
    for &c in idx {
        assert!(c < input.cols(), "column index {c} out of range ({} cols)", input.cols());
    }
    let mut out = Chunk::alloc(input.dtype(), rows, idx.len(), pool);
    crate::dispatch!(input.dtype(), T, {
        let dst = out.slice_mut::<T>();
        for (o, &c) in idx.iter().enumerate() {
            dst[o * rows..(o + 1) * rows].copy_from_slice(input.col::<T>(c));
        }
    });
    out
}

/// Concatenate chunks column-wise (R's `cbind`); all inputs must share
/// rows and dtype (the FM layer promotes dtypes beforehand).
pub fn bind_cols(inputs: &[&Chunk], pool: &mut BufPool) -> Chunk {
    assert!(!inputs.is_empty(), "cbind of nothing");
    let rows = inputs[0].rows();
    let dtype = inputs[0].dtype();
    let total: usize = inputs.iter().map(|c| c.cols()).sum();
    for c in inputs {
        assert_eq!(c.rows(), rows, "cbind row mismatch");
        assert_eq!(c.dtype(), dtype, "cbind dtype mismatch");
    }
    let mut out = Chunk::alloc(dtype, rows, total, pool);
    crate::dispatch!(dtype, T, {
        let dst = out.slice_mut::<T>();
        let mut at = 0usize;
        for input in inputs {
            let n = input.cols() * rows;
            dst[at..at + n].copy_from_slice(input.slice::<T>());
            at += n;
        }
    });
    out
}

/// `groupby.col` (paper Table 1): split the *columns* into groups by
/// `labels` and reduce each group per row — `out[r, g] = f(in[r, c])`
/// over all `c` with `labels[c] == g`. Keeps the partition dimension, so
/// it fuses like a map operation.
pub fn group_cols(
    input: &Chunk,
    labels: &[usize],
    op: AggOp,
    ngroups: usize,
    pool: &mut BufPool,
) -> Chunk {
    assert_eq!(labels.len(), input.cols(), "one label per column required");
    assert!(!op.is_positional(), "which.min/which.max are not defined for groupby.col");
    for &g in labels {
        assert!(g < ngroups, "column label {g} outside [0, {ngroups})");
    }
    let rows = input.rows();
    let out_dtype = op.out_dtype(input.dtype());
    // f64 accumulators per (row, group), folded column-by-column.
    let mut acc = vec![op.identity(); rows * ngroups];
    let mut counts = vec![0u64; ngroups];
    crate::dispatch!(input.dtype(), T, {
        for (c, &g) in labels.iter().enumerate() {
            counts[g] += 1;
            let col = input.col::<T>(c);
            let dst = &mut acc[g * rows..(g + 1) * rows];
            for r in 0..rows {
                dst[r] = op.fold(dst[r], col[r].to_f64());
            }
        }
    });
    if op == AggOp::Mean {
        for g in 0..ngroups {
            let n = counts[g].max(1) as f64;
            for v in &mut acc[g * rows..(g + 1) * rows] {
                *v /= n;
            }
        }
    }
    if op == AggOp::Count {
        for g in 0..ngroups {
            let n = counts[g] as f64;
            for v in &mut acc[g * rows..(g + 1) * rows] {
                *v = n;
            }
        }
    }
    let mut out = Chunk::alloc(out_dtype, rows, ngroups, pool);
    crate::dispatch!(out_dtype, O, {
        let dst = out.slice_mut::<O>();
        for (d, a) in dst.iter_mut().zip(&acc) {
            *d = O::from_f64(*a);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::ops::fused_map::one_link::cast;

    #[test]
    fn cast_float_to_int_truncates() {
        let c = Chunk::from_slice::<f64>(3, 1, &[1.9, -2.7, 3.0]);
        let i = cast(&c, DType::I64);
        assert_eq!(i.slice::<i64>(), &[1, -2, 3]);
    }

    #[test]
    fn cast_int_to_float_is_exact() {
        let c = Chunk::from_slice::<i32>(2, 2, &[1, 2, 3, 4]);
        let f = cast(&c, DType::F32);
        assert_eq!(f.slice::<f32>(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn cast_same_dtype_preserves_values() {
        // A same-dtype cast never reaches a kernel (compiling one is
        // refused): the DAG layer hands back the input node itself.
        use crate::dag::Node;
        use crate::mat::TasMat;
        use crate::part::Partitioner;
        let x = Node::leaf(TasMat::from_fn::<f64>(2, 1, Partitioner::new(64), |r, _| r as f64));
        assert!(std::sync::Arc::ptr_eq(&Node::cast(x.clone(), DType::F64), &x));
    }

    #[test]
    fn big_i64_to_i32_wraps_not_saturates_via_f64() {
        let c = Chunk::from_slice::<i64>(1, 1, &[1i64 << 40]);
        let d = cast(&c, DType::F64);
        assert_eq!(d.get_f64(0, 0), (1i64 << 40) as f64);
    }

    #[test]
    fn select_reorders_and_repeats() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<f64>(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = select_cols(&c, &[2, 0, 0], &mut pool);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.col::<f64>(0), &[5.0, 6.0]);
        assert_eq!(s.col::<f64>(1), &[1.0, 2.0]);
        assert_eq!(s.col::<f64>(2), &[1.0, 2.0]);
    }

    #[test]
    fn bind_concatenates() {
        let mut pool = BufPool::new();
        let a = Chunk::from_slice::<i64>(2, 1, &[1, 2]);
        let b = Chunk::from_slice::<i64>(2, 2, &[3, 4, 5, 6]);
        let out = bind_cols(&[&a, &b], &mut pool);
        assert_eq!(out.cols(), 3);
        assert_eq!(out.slice::<i64>(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn group_cols_sums_and_means() {
        let mut pool = BufPool::new();
        // 2 rows × 4 cols, col-major: cols [1,2],[3,4],[5,6],[7,8]
        let c = Chunk::from_slice::<f64>(2, 4, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let out = group_cols(&c, &[0, 1, 0, 1], AggOp::Sum, 2, &mut pool);
        assert_eq!(out.cols(), 2);
        assert_eq!(out.col::<f64>(0), &[6.0, 8.0]); // cols 0+2
        assert_eq!(out.col::<f64>(1), &[10.0, 12.0]); // cols 1+3
        let m = group_cols(&c, &[0, 1, 0, 1], AggOp::Mean, 2, &mut pool);
        assert_eq!(m.col::<f64>(0), &[3.0, 4.0]);
    }

    #[test]
    fn group_cols_min_max_and_empty_group() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<f64>(1, 3, &[5.0, -1.0, 3.0]);
        let out = group_cols(&c, &[0, 0, 0], AggOp::Min, 2, &mut pool);
        assert_eq!(out.get_f64(0, 0), -1.0);
        assert_eq!(out.get_f64(0, 1), f64::INFINITY); // empty group keeps identity
        let mx = group_cols(&c, &[1, 1, 1], AggOp::Max, 2, &mut pool);
        assert_eq!(mx.get_f64(0, 1), 5.0);
    }

    #[test]
    #[should_panic]
    fn group_cols_rejects_positional_ops() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<f64>(1, 2, &[1.0, 2.0]);
        let _ = group_cols(&c, &[0, 1], AggOp::WhichMin, 2, &mut pool);
    }

    #[test]
    #[should_panic]
    fn select_out_of_range_panics() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<f64>(1, 2, &[1.0, 2.0]);
        let _ = select_cols(&c, &[5], &mut pool);
    }
}

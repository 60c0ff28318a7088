//! Cumulative GenOps (`cum.row`, `cum.col`, paper Table 1).
//!
//! For a tall matrix, cumulating *along rows* (`cum.row`: across the
//! columns of each row) is partition-local. Cumulating *down the rows of
//! each column* (`cum.col`) crosses partitions: the executor carries the
//! last row of each partition to the next (paper §3.3 operation *j*,
//! single-pass parallel prefix over sequential dispatch).
//!
//! Only associative functions are admitted.

use crate::chunk::{BufPool, Chunk};
use crate::element::Element;
use crate::ops::binary::{arith_col_fn_level, BinaryOp, ColSrc};
use crate::ops::simd::SimdLevel;

fn check_assoc(op: BinaryOp) {
    assert!(
        matches!(op, BinaryOp::Add | BinaryOp::Mul | BinaryOp::Min | BinaryOp::Max),
        "cumulative ops require an associative function, got {op:?}"
    );
}

/// One column of `cum.col`, monomorphized over `(OP, T)` so the serial
/// prefix loop contains no enum dispatch. Returns the carry (last row).
fn cum_col_one<T: Element, const OP: u8>(d: &mut [T], s: &[T], carry: Option<T>) -> T {
    let op = BinaryOp::from_u8(OP);
    let mut run = carry;
    for (dv, &sv) in d.iter_mut().zip(s) {
        let v = match run {
            Some(acc) => op.eval(acc, sv),
            None => sv,
        };
        *dv = v;
        run = Some(v);
    }
    run.expect("chunk with zero rows")
}

type CumColFn<T> = fn(&mut [T], &[T], Option<T>) -> T;

/// Resolve the associative op to its prefix kernel once per chunk.
fn cum_col_fn<T: Element>(op: BinaryOp) -> CumColFn<T> {
    macro_rules! arm {
        ($v:ident) => {
            cum_col_one::<T, { BinaryOp::$v as u8 }>
        };
    }
    match op {
        BinaryOp::Add => arm!(Add),
        BinaryOp::Mul => arm!(Mul),
        BinaryOp::Min => arm!(Min),
        BinaryOp::Max => arm!(Max),
        _ => unreachable!("check_assoc admits Add/Mul/Min/Max only"),
    }
}

/// `cum.row`: `out[r, c] = f(out[r, c-1], in[r, c])`, entirely inside one
/// chunk. Column `c` is an element-wise fold of output column `c-1` with
/// input column `c` — exactly the binary column kernel, so the resolver
/// hands us the monomorphized kernel, compiled for the active level,
/// once instead of dispatching the op per element.
pub fn cum_row_chunk(op: BinaryOp, input: &Chunk, pool: &mut BufPool) -> Chunk {
    check_assoc(op);
    let rows = input.rows();
    let cols = input.cols();
    let mut out = Chunk::alloc(input.dtype(), rows, cols, pool);
    crate::dispatch!(input.dtype(), T, {
        let f = arith_col_fn_level::<T>(op, SimdLevel::active());
        let src = input.slice::<T>();
        let dst = out.slice_mut::<T>();
        // Column 0 copies; column c folds with column c-1 of the output.
        dst[..rows].copy_from_slice(&src[..rows]);
        for c in 1..cols {
            let (prev, cur) = dst.split_at_mut(c * rows);
            let prev = &prev[(c - 1) * rows..];
            let cur = &mut cur[..rows];
            let s = &src[c * rows..(c + 1) * rows];
            f(cur, prev, ColSrc::Slice(s), false);
        }
    });
    out
}

/// `cum.col` over one partition: `out[r, c] = f(out[r-1, c], in[r, c])`
/// down the rows, starting from `carry` (the running value after the
/// previous partition). Returns the output chunk and the new carry (the
/// last row).
///
/// The carry travels as f64 (exact for f64 matrices; integer matrices
/// cumulate in their own type inside the partition and cast at the seam).
pub fn cum_col_chunk(
    op: BinaryOp,
    input: &Chunk,
    carry: Option<&[f64]>,
    pool: &mut BufPool,
) -> (Chunk, Vec<f64>) {
    check_assoc(op);
    let rows = input.rows();
    let cols = input.cols();
    if let Some(c) = carry {
        assert_eq!(c.len(), cols, "carry width mismatch");
    }
    let mut out = Chunk::alloc(input.dtype(), rows, cols, pool);
    let mut new_carry = vec![0.0f64; cols];
    crate::dispatch!(input.dtype(), T, {
        let f = cum_col_fn::<T>(op);
        let src = input.slice::<T>();
        let dst = out.slice_mut::<T>();
        for c in 0..cols {
            let s = &src[c * rows..(c + 1) * rows];
            let d = &mut dst[c * rows..(c + 1) * rows];
            let run = carry.map(|vals| T::from_f64(vals[c]));
            new_carry[c] = f(d, s, run).to_f64();
        }
    });
    (out, new_carry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cum_row_sums_across_columns() {
        let mut pool = BufPool::new();
        // rows: [1,2,3] and [10,20,30]
        let c = Chunk::from_slice::<f64>(2, 3, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        let out = cum_row_chunk(BinaryOp::Add, &c, &mut pool);
        assert_eq!(out.col::<f64>(0), &[1.0, 10.0]);
        assert_eq!(out.col::<f64>(1), &[3.0, 30.0]);
        assert_eq!(out.col::<f64>(2), &[6.0, 60.0]);
    }

    #[test]
    fn cum_col_without_carry() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<i64>(4, 1, &[1, 2, 3, 4]);
        let (out, carry) = cum_col_chunk(BinaryOp::Add, &c, None, &mut pool);
        assert_eq!(out.slice::<i64>(), &[1, 3, 6, 10]);
        assert_eq!(carry, vec![10.0]);
    }

    #[test]
    fn cum_col_chains_partitions() {
        let mut pool = BufPool::new();
        let full =
            Chunk::from_slice::<f64>(6, 2, &[1., 2., 3., 4., 5., 6., 1., 1., 1., 1., 1., 1.]);
        let (whole, _) = cum_col_chunk(BinaryOp::Add, &full, None, &mut pool);

        let first = full.slice_rows(0, 3, &mut pool);
        let second = full.slice_rows(3, 6, &mut pool);
        let (o1, carry) = cum_col_chunk(BinaryOp::Add, &first, None, &mut pool);
        let (o2, _) = cum_col_chunk(BinaryOp::Add, &second, Some(&carry), &mut pool);
        for c in 0..2 {
            for r in 0..3 {
                assert_eq!(o1.get_f64(r, c), whole.get_f64(r, c));
                assert_eq!(o2.get_f64(r, c), whole.get_f64(3 + r, c));
            }
        }
    }

    #[test]
    fn cum_prod_and_min() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<f64>(3, 1, &[2.0, 3.0, 4.0]);
        let (p, _) = cum_col_chunk(BinaryOp::Mul, &c, None, &mut pool);
        assert_eq!(p.slice::<f64>(), &[2.0, 6.0, 24.0]);
        let m = Chunk::from_slice::<f64>(4, 1, &[3.0, 1.0, 2.0, 0.5]);
        let (mn, carry) = cum_col_chunk(BinaryOp::Min, &m, None, &mut pool);
        assert_eq!(mn.slice::<f64>(), &[3.0, 1.0, 1.0, 0.5]);
        assert_eq!(carry, vec![0.5]);
    }

    #[test]
    #[should_panic]
    fn non_associative_rejected() {
        let mut pool = BufPool::new();
        let c = Chunk::from_slice::<f64>(2, 1, &[1.0, 2.0]);
        let _ = cum_row_chunk(BinaryOp::Sub, &c, &mut pool);
    }
}

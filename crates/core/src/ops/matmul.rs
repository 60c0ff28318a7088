//! Inner-product GenOps on chunks: tall × small multiplication.
//!
//! `X %*% B` with tall `X` and small `B` keeps the partition dimension
//! (paper Fig. 5 operations e/f): each output chunk depends only on its
//! input chunk plus the shared read-only `B`. Floating point goes through
//! the BLAS-style strided GEMM; the generalized `inner.prod(A, B, f1, f2)`
//! (paper Table 1) runs the predefined function pair through one
//! register-tiled kernel — this is how k-means computes Euclidean
//! distances in one fused pass.

use crate::chunk::{BufPool, Chunk};
use crate::dtype::DType;
use crate::element::Element;
use crate::ops::binary::BinaryOp;
use crate::ops::simd::{pick, versioned, SimdLevel};
use flashr_linalg::{gemm_strided, Dense};

/// `out = chunk %*% b` (f64 fast path through the strided GEMM kernel).
///
/// `chunk` must be f64 `rows × p`; `b` is row-major `p × k`.
pub fn matmul_chunk(input: &Chunk, b: &Dense, pool: &mut BufPool) -> Chunk {
    assert_eq!(input.dtype(), DType::F64, "BLAS path requires f64 (cast first)");
    assert_eq!(input.cols(), b.rows(), "inner dimensions disagree");
    let rows = input.rows();
    matmul_strided(input.slice::<f64>(), rows, rows, b, pool)
}

/// `out = A %*% b` for `A` read where it lies: `rows × b.rows()`, column
/// `j` at `a[j·col_stride..][..rows]`, so a Pcache range of a
/// column-major partition buffer multiplies without being copied out.
/// The same kernel as [`matmul_chunk`], so the same bits.
pub fn matmul_strided(
    a: &[f64],
    col_stride: usize,
    rows: usize,
    b: &Dense,
    pool: &mut BufPool,
) -> Chunk {
    let k = b.cols();
    let mut out = Chunk::alloc(DType::F64, rows, k, pool);
    // A: col-major rows×p → rsa=1, csa=col_stride. B: row-major p×k.
    // C: col-major rows×k → rsc=1, csc=rows.
    gemm_strided(
        rows,
        k,
        b.rows(),
        1.0,
        a,
        1,
        col_stride,
        b.as_slice(),
        b.cols(),
        1,
        0.0,
        out.slice_mut::<f64>(),
        1,
        rows,
    );
    out
}

/// Rows × outputs of one `inner.prod` register tile.
const MR: usize = 8;
const NR: usize = 4;

/// One `M`-row × `N`-output tile of `inner.prod`: rows `r0..r0 + M` of
/// the column-major `rows × p` input against columns `j0..j0 + N` of `b`,
/// with the accumulators in registers across the whole `kk` loop and
/// `out` written once. Each element folds in the textbook order — `f1` at
/// `kk = 0`, then `f2(acc, f1(x, b))` for `kk` ascending — so no tile
/// shape changes a bit.
#[inline(always)]
fn ip_tile<T: Element, const F1: u8, const F2: u8, const M: usize, const N: usize>(
    x: &[T],
    rows: usize,
    p: usize,
    b: &Dense,
    (r0, j0): (usize, usize),
    out: &mut [T],
) {
    let (f1, f2) = (BinaryOp::from_u8(F1), BinaryOp::from_u8(F2));
    let strip = |kk: usize| &x[kk * rows + r0..kk * rows + r0 + M];
    let mut acc = [[T::zero(); M]; N];
    for (jb, a) in acc.iter_mut().enumerate() {
        let bv = T::from_f64(b.at(0, j0 + jb));
        for (av, &xv) in a.iter_mut().zip(strip(0)) {
            *av = f1.eval(xv, bv);
        }
    }
    for kk in 1..p {
        let xs = strip(kk);
        for (jb, a) in acc.iter_mut().enumerate() {
            let bv = T::from_f64(b.at(kk, j0 + jb));
            for (av, &xv) in a.iter_mut().zip(xs) {
                *av = f2.eval(*av, f1.eval(xv, bv));
            }
        }
    }
    for (jb, a) in acc.iter().enumerate() {
        out[(j0 + jb) * rows + r0..][..M].copy_from_slice(a);
    }
}

type IpFn<T> = fn(&[T], usize, usize, &Dense, &mut [T]);

/// The whole chunk, compiled for AVX2 (`VEX`) or the baseline: `MR × NR`
/// tiles, each row block's `k % NR` outputs one at a time, then the
/// `rows % MR` tail rows one element at a time.
fn ip_kernel<T: Element, const F1: u8, const F2: u8, const VEX: bool>(
    x: &[T],
    rows: usize,
    p: usize,
    b: &Dense,
    out: &mut [T],
) {
    versioned::<VEX, _>(
        #[inline(always)]
        || {
            let k = b.cols();
            let (body_rows, body_k) = (rows - rows % MR, k - k % NR);
            for r0 in (0..body_rows).step_by(MR) {
                for j0 in (0..body_k).step_by(NR) {
                    ip_tile::<T, F1, F2, MR, NR>(x, rows, p, b, (r0, j0), out);
                }
                for j0 in body_k..k {
                    ip_tile::<T, F1, F2, MR, 1>(x, rows, p, b, (r0, j0), out);
                }
            }
            for r0 in body_rows..rows {
                for j0 in 0..k {
                    ip_tile::<T, F1, F2, 1, 1>(x, rows, p, b, (r0, j0), out);
                }
            }
        },
    );
}

/// The kernel for `(f1, f2)` at `level`, or `None` for a pair `inner.prod`
/// does not define: `f1` must be arithmetic other than `Rem`/`Pow`, `f2`
/// one of the associative combiners `Add`, `Mul`, `Min`, `Max`.
fn ip_fn<T: Element>(f1: BinaryOp, f2: BinaryOp, level: SimdLevel) -> Option<IpFn<T>> {
    let vex = level.vex();
    macro_rules! pairs {
        ($($a:ident),*; $b:tt) => {
            $(pairs!(@row $a $b);)*
        };
        (@row $a:ident [$($b:ident),*]) => {
            $(if (f1, f2) == (BinaryOp::$a, BinaryOp::$b) {
                return Some(pick!(vex, ip_kernel::<T, { BinaryOp::$a as u8 }, { BinaryOp::$b as u8 }>));
            })*
        };
    }
    pairs!(Add, Sub, Mul, Div, Min, Max, EuclidSq; [Add, Mul, Min, Max]);
    None
}

/// Whether `inner.prod(x, b, f1, f2)` has a kernel: `analysis::infer`
/// checks it, so a pass never meets a pair [`inner_prod_chunk`] lacks.
pub fn inner_prod_supported(f1: BinaryOp, f2: BinaryOp) -> bool {
    ip_fn::<f64>(f1, f2, SimdLevel::Scalar).is_some()
}

/// Generalized inner product at a SIMD level (both give the same bits):
/// `out[r, j] = fold_f2 over k of f1(chunk[r, k], b[k, j])`, in the
/// chunk's own dtype. `(f1, f2)` must be [`inner_prod_supported`]; a
/// zero-column input leaves the output unwritten.
pub fn inner_prod_chunk(
    level: SimdLevel,
    input: &Chunk,
    b: &Dense,
    f1: BinaryOp,
    f2: BinaryOp,
    pool: &mut BufPool,
) -> Chunk {
    assert_eq!(input.cols(), b.rows(), "inner dimensions disagree");
    let (rows, p) = (input.rows(), input.cols());
    let mut out = Chunk::alloc(input.dtype(), rows, b.cols(), pool);
    if p > 0 {
        crate::dispatch!(input.dtype(), T, {
            let Some(kernel) = ip_fn::<T>(f1, f2, level) else {
                unreachable!("analysis::infer rejects inner.prod({f1:?}, {f2:?})")
            };
            kernel(input.slice::<T>(), rows, p, b, out.slice_mut::<T>());
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_reference() {
        let mut pool = BufPool::new();
        // chunk 3x2 col-major: rows [1,3], [2,4], [5,6]... careful:
        // values: col0 = [1,2,5], col1 = [3,4,6]
        let x = Chunk::from_slice::<f64>(3, 2, &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        let b = Dense::from_vec(2, 2, vec![1.0, 0.5, 2.0, -1.0]);
        let out = matmul_chunk(&x, &b, &mut pool);
        // row0 = [1,3] → [1*1+3*2, 1*0.5+3*-1] = [7, -2.5]
        assert_eq!(out.get_f64(0, 0), 7.0);
        assert_eq!(out.get_f64(0, 1), -2.5);
        // row2 = [5,6] → [17, -3.5]
        assert_eq!(out.get_f64(2, 0), 17.0);
        assert_eq!(out.get_f64(2, 1), -3.5);
    }

    #[test]
    fn inner_prod_mul_add_equals_matmul() {
        let mut pool = BufPool::new();
        let x = Chunk::from_slice::<f64>(4, 3, &(0..12).map(|v| v as f64).collect::<Vec<_>>());
        let b = Dense::from_fn(3, 2, |r, c| (r * 2 + c) as f64 - 2.0);
        let blas = matmul_chunk(&x, &b, &mut pool);
        let gen =
            inner_prod_chunk(SimdLevel::Scalar, &x, &b, BinaryOp::Mul, BinaryOp::Add, &mut pool);
        for r in 0..4 {
            for c in 0..2 {
                assert!((blas.get_f64(r, c) - gen.get_f64(r, c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn euclidean_distance_mode() {
        let mut pool = BufPool::new();
        // one data point (2, 3); centers (0,0) and (2,4) as columns of b.
        let x = Chunk::from_slice::<f64>(1, 2, &[2.0, 3.0]);
        let centers = Dense::from_vec(2, 2, vec![0.0, 2.0, 0.0, 4.0]); // p×k: b[k][j]
        let d = inner_prod_chunk(
            SimdLevel::Scalar,
            &x,
            &centers,
            BinaryOp::EuclidSq,
            BinaryOp::Add,
            &mut pool,
        );
        assert_eq!(d.get_f64(0, 0), 13.0); // 4 + 9
        assert_eq!(d.get_f64(0, 1), 1.0); // 0 + 1
    }

    #[test]
    fn integer_inner_prod() {
        let mut pool = BufPool::new();
        let x = Chunk::from_slice::<i64>(2, 2, &[1, 2, 3, 4]);
        let b = Dense::from_vec(2, 1, vec![10.0, 100.0]);
        let out =
            inner_prod_chunk(SimdLevel::Scalar, &x, &b, BinaryOp::Mul, BinaryOp::Add, &mut pool);
        assert_eq!(out.dtype(), DType::I64);
        // row0 = [1,3] → 1*10 + 3*100 = 310
        assert_eq!(out.slice::<i64>(), &[310, 420]);
    }

    #[test]
    fn min_combiner() {
        let mut pool = BufPool::new();
        let x = Chunk::from_slice::<f64>(1, 3, &[5.0, 1.0, 3.0]);
        let b = Dense::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let out =
            inner_prod_chunk(SimdLevel::Scalar, &x, &b, BinaryOp::Mul, BinaryOp::Min, &mut pool);
        assert_eq!(out.get_f64(0, 0), 1.0);
    }

    /// Every `(f1, f2)` pair the kernel defines.
    fn pairs() -> Vec<(BinaryOp, BinaryOp)> {
        let all = BinaryOp::ALL;
        all.iter()
            .flat_map(|&f1| all.iter().map(move |&f2| (f1, f2)))
            .filter(|&(f1, f2)| inner_prod_supported(f1, f2))
            .collect()
    }

    /// The textbook per-element fold the tile must reproduce bit for bit.
    fn textbook<T: Element>(x: &Chunk, b: &Dense, f1: BinaryOp, f2: BinaryOp) -> Chunk {
        let (rows, p, src) = (x.rows(), x.cols(), x.slice::<T>());
        let mut out = vec![T::zero(); rows * b.cols()];
        for j in 0..b.cols() {
            for r in 0..rows {
                let term = |kk: usize| f1.eval(src[kk * rows + r], T::from_f64(b.at(kk, j)));
                out[j * rows + r] = (1..p).fold(term(0), |acc, kk| f2.eval(acc, term(kk)));
            }
        }
        Chunk::from_slice::<T>(rows, b.cols(), &out)
    }

    #[test]
    fn the_kernel_defines_seven_element_functions_by_four_combiners() {
        assert_eq!(pairs().len(), 28);
        assert!(!inner_prod_supported(BinaryOp::Rem, BinaryOp::Add));
        assert!(!inner_prod_supported(BinaryOp::Pow, BinaryOp::Add));
        assert!(!inner_prod_supported(BinaryOp::Lt, BinaryOp::Add));
        assert!(!inner_prod_supported(BinaryOp::Mul, BinaryOp::Sub));
    }

    /// The tile, its 1-output tail and its 1-row tail against the
    /// textbook fold, across the block boundaries of both: every row count
    /// either side of 8, every output count either side of 4.
    #[test]
    fn tile_matches_the_textbook_fold_bit_for_bit() {
        let pairs = pairs();
        let mut rng = flashr_testkit::Rng::new(0x1d7e);
        let mut pool = BufPool::new();
        let mut shape = 0;
        for rows in [0usize, 1, 7, 8, 9, 17, 655] {
            for k in [1usize, 3, 4, 5, 16, 17] {
                for p in [1usize, 2, 32] {
                    let vals = rng.vec_f64(rows * p, -3.0..3.0);
                    let b = Dense::from_vec(p, k, rng.vec_f64(p * k, -3.0..3.0));
                    let rotating = pairs[shape % pairs.len()];
                    shape += 1;
                    for (f1, f2) in [
                        (BinaryOp::EuclidSq, BinaryOp::Add),
                        (BinaryOp::Mul, BinaryOp::Add),
                        rotating,
                    ] {
                        for dtype in [DType::F64, DType::F32, DType::I64, DType::U8] {
                            crate::dispatch!(dtype, T, {
                                let data: Vec<T> =
                                    vals.iter().map(|&v| T::from_f64(v * 7.0)).collect();
                                let x = Chunk::from_slice::<T>(rows, p, &data);
                                let want = textbook::<T>(&x, &b, f1, f2);
                                for level in SimdLevel::available() {
                                    let got = inner_prod_chunk(level, &x, &b, f1, f2, &mut pool);
                                    assert!(
                                        got.as_bytes() == want.as_bytes(),
                                        "{rows}x{p} by {p}x{k}, {f1:?}/{f2:?} on {dtype:?} at {}",
                                        level.name()
                                    );
                                }
                            });
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn non_associative_combiner_rejected() {
        let mut pool = BufPool::new();
        let x = Chunk::from_slice::<f64>(1, 1, &[1.0]);
        let b = Dense::eye(1);
        let _ =
            inner_prod_chunk(SimdLevel::Scalar, &x, &b, BinaryOp::Mul, BinaryOp::Sub, &mut pool);
    }
}

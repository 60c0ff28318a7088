//! Property tests for the SIMD dispatch levels (`FLASHR_SIMD`).
//!
//! A level is a *compilation*: `Scalar` runs each portable kernel as
//! built for the x86-64 baseline, `Avx2` runs the same Rust built a
//! second time with AVX2+FMA enabled (`flashr_linalg::simd::as_avx2`).
//! Two contracts follow, checked here across both levels (on a host
//! without AVX2 the second resolves to the first and the comparisons are
//! trivially true):
//!
//! * **Same bytes** for every element-wise link — every `UnaryOp`, every
//!   `BinaryOp` in both operand orders against a slice and against a
//!   constant, every cast pair, every dtype — and for every reduction
//!   fold, the dot product and the Gramian tile. This is the test of the
//!   mechanism: if a level ever selected a different body, or the
//!   compiler fused a multiply into an add, it fails here.
//! * **Bounded reassociation** against a reference that shares nothing
//!   with the engine: `flashr_testkit::oracle` folds strictly left to
//!   right, and the lane kernels (8 `f64` partials) and the
//!   register-blocked gemm (FMA at `Avx2`) may drift from it by at most
//!   `n · ε · Σ|terms|` — the forward error bound of a length-`n` float
//!   summation (Higham, *Accuracy and Stability of Numerical
//!   Algorithms*, §4.2). Anything beyond that is a kernel bug.
//!
//! Inputs come from `flashr_testkit`, so a failure reproduces from the
//! case seed its runner prints.

use flashr_core::chunk::{BufPool, Chunk};
use flashr_core::dtype::{DType, Scalar};
use flashr_core::element::Element;
use flashr_core::ops::fused_map::{ChainLink, ChainOpSpec, ChainOperand, FusedMapKernel};
use flashr_core::ops::simd::fold_col;
use flashr_core::ops::{agg_row, inner_prod_chunk, inner_prod_supported, AggOp, BinaryOp, UnaryOp};
use flashr_linalg::simd::{dot_f64, gramian_f64, SimdLevel};
use flashr_linalg::{gemm_strided_level, Dense};
use flashr_testkit::oracle::{assert_close, Mat};
use flashr_testkit::{cases, Rng};

const LEVELS: [SimdLevel; 2] = [SimdLevel::Scalar, SimdLevel::Avx2];

const DTYPES: [DType; 5] = [DType::U8, DType::I32, DType::I64, DType::F32, DType::F64];

/// Empty, one element, one short of / exactly / one past a lane block,
/// and a strip boundary (1024) with a ragged tail.
const LENS: [usize; 6] = [0, 1, 7, 8, 9, 1037];

/// One column of `dtype`, `rows` long: the values where vector and
/// scalar instructions are most likely to part ways (both zeros, halves
/// for `Round`, NaN, infinities, range ends, a subnormal) first, random
/// ones after. Integer dtypes take them through the saturating cast.
fn column(rng: &mut Rng, dtype: DType, rows: usize) -> Chunk {
    const AWKWARD: [f64; 20] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        2.5,
        -3.5,
        0.49999999999999994,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        255.0,
        2147483647.0,
        -2147483648.0,
        9.2e18,
        1e300,
        -1e300,
        5e-324,
        4503599627370497.0,
    ];
    let vals: Vec<f64> = (0..rows)
        .map(|i| AWKWARD.get(i).copied().unwrap_or_else(|| rng.f64(-300.0..300.0)))
        .collect();
    flashr_core::dispatch!(dtype, T, {
        let v: Vec<T> = vals.iter().map(|&x| <T as Element>::from_f64(x)).collect();
        Chunk::from_slice::<T>(rows, 1, &v)
    })
}

/// Run one chain at both levels and require the same output bytes.
fn assert_levels_identical(links: &[ChainLink], base: &Chunk, auxes: &[&Chunk]) {
    let run = |level| {
        let kernel = FusedMapKernel::compile_with_level(level, links);
        kernel.run(base, auxes, &mut BufPool::new()).as_bytes().to_vec()
    };
    let (scalar, avx2) = (run(SimdLevel::Scalar), run(SimdLevel::Avx2));
    assert!(
        scalar == avx2,
        "scalar and avx2 outputs differ over {} rows of {:?} (links {links:?})",
        base.rows(),
        base.dtype(),
    );
}

#[test]
fn every_unary_op_same_bytes_at_both_levels() {
    let mut rng = Rng::new(0x51d0);
    for dtype in DTYPES {
        for rows in LENS {
            let base = column(&mut rng, dtype, rows);
            for op in UnaryOp::ALL {
                let link = ChainLink {
                    op: ChainOpSpec::Unary(op),
                    in_dtype: dtype,
                    out_dtype: op.out_dtype(dtype),
                };
                assert_levels_identical(&[link], &base, &[]);
            }
        }
    }
}

#[test]
fn every_binary_op_same_bytes_at_both_levels() {
    let mut rng = Rng::new(0x51d1);
    // Constants reach the kernel through `T::from_scalar`: a fraction, a
    // zero (integer division by it is defined) and a negative.
    let consts = [Scalar::F64(2.5), Scalar::I64(0), Scalar::I64(-3)];
    for dtype in DTYPES {
        for rows in LENS {
            let base = column(&mut rng, dtype, rows);
            let other = column(&mut rng, dtype, rows);
            for op in BinaryOp::ALL {
                for swapped in [false, true] {
                    let link = |operand| ChainLink {
                        op: ChainOpSpec::Binary { op, swapped, operand },
                        in_dtype: dtype,
                        out_dtype: op.out_dtype(dtype),
                    };
                    let slice = link(ChainOperand::Chunk { aux: 0, recycle: false });
                    assert_levels_identical(&[slice], &base, &[&other]);
                    for c in consts {
                        assert_levels_identical(&[link(ChainOperand::Scalar(c))], &base, &[]);
                    }
                }
            }
        }
    }
}

#[test]
fn every_cast_pair_same_bytes_at_both_levels() {
    let mut rng = Rng::new(0x51d2);
    for from in DTYPES {
        for rows in LENS {
            let base = column(&mut rng, from, rows);
            for to in DTYPES.into_iter().filter(|&to| to != from) {
                let link = ChainLink { op: ChainOpSpec::Cast, in_dtype: from, out_dtype: to };
                assert_levels_identical(&[link], &base, &[]);
            }
        }
    }
}

/// The `inner.prod` register tile at both levels: every `(f1, f2)` pair
/// the kernel defines gives the same bytes on `F64`, `F32` and `I64`,
/// over shapes that cross the 8-row and 4-output blocks and their tails.
#[test]
fn every_inner_prod_pair_same_bytes_at_both_levels() {
    let mut rng = Rng::new(0x51d5);
    let all = BinaryOp::ALL;
    let pairs: Vec<(BinaryOp, BinaryOp)> = all
        .iter()
        .flat_map(|&f1| all.iter().map(move |&f2| (f1, f2)))
        .filter(|&(f1, f2)| inner_prod_supported(f1, f2))
        .collect();
    assert_eq!(pairs.len(), 28, "7 element functions × 4 combiners");
    for dtype in [DType::F64, DType::F32, DType::I64] {
        for (rows, p, k) in [(1037, 3, 9), (21, 32, 4), (8, 1, 1), (7, 5, 17)] {
            let cols: Vec<Chunk> = (0..p).map(|_| column(&mut rng, dtype, rows)).collect();
            let x = flashr_core::dispatch!(dtype, T, {
                let v: Vec<T> = cols.iter().flat_map(|c| c.slice::<T>().to_vec()).collect();
                Chunk::from_slice::<T>(rows, p, &v)
            });
            let b = Dense::from_fn(p, k, |_, _| rng.f64(-3.0..3.0));
            for &(f1, f2) in &pairs {
                let run = |level| {
                    inner_prod_chunk(level, &x, &b, f1, f2, &mut BufPool::new()).as_bytes().to_vec()
                };
                assert!(
                    run(SimdLevel::Scalar) == run(SimdLevel::Avx2),
                    "inner.prod({f1:?}, {f2:?}) on {rows}×{p} {dtype:?} by {p}×{k} differs across levels"
                );
            }
        }
    }
}

/// Random integer chain: every op here is exact on integers, so the
/// *values* (not just the rounding) must match across levels.
fn random_int_links(rng: &mut Rng, dtype: DType) -> Vec<ChainLink> {
    let n_links = rng.usize(1..6);
    let mut links = Vec::with_capacity(n_links);
    for _ in 0..n_links {
        let c = rng.below(7) as i64 - 3;
        let scalar = match dtype {
            DType::I32 => Scalar::I32(c as i32),
            _ => Scalar::I64(c),
        };
        let op = match rng.below(6) {
            0 => ChainOpSpec::Unary(UnaryOp::Neg),
            1 => ChainOpSpec::Unary(UnaryOp::Abs),
            2 => ChainOpSpec::Binary {
                op: BinaryOp::Add,
                swapped: rng.bool(),
                operand: ChainOperand::Scalar(scalar),
            },
            3 => ChainOpSpec::Binary {
                op: BinaryOp::Mul,
                swapped: rng.bool(),
                operand: ChainOperand::Scalar(scalar),
            },
            4 => ChainOpSpec::Binary {
                op: BinaryOp::Max,
                swapped: false,
                operand: ChainOperand::Scalar(scalar),
            },
            _ => ChainOpSpec::Binary {
                op: BinaryOp::Min,
                swapped: false,
                operand: ChainOperand::Scalar(scalar),
            },
        };
        links.push(ChainLink { op, in_dtype: dtype, out_dtype: dtype });
    }
    links
}

#[test]
fn integer_chains_bit_identical_across_levels() {
    cases(32, |rng, _| {
        for &dtype in &[DType::I32, DType::I64] {
            let rows = rng.usize(1..2001); // odd sizes exercise tails
            let links = random_int_links(rng, dtype);
            let base = match dtype {
                DType::I32 => {
                    let v: Vec<i32> = (0..rows).map(|_| rng.below(1000) as i32 - 500).collect();
                    Chunk::from_slice::<i32>(rows, 1, &v)
                }
                _ => {
                    let v: Vec<i64> = (0..rows).map(|_| rng.below(1000) as i64 - 500).collect();
                    Chunk::from_slice::<i64>(rows, 1, &v)
                }
            };
            assert_levels_identical(&links, &base, &[]);
        }
    });
}

#[test]
fn integer_reductions_bit_identical_across_levels() {
    cases(32, |rng, _| {
        let rows = rng.usize(1..5001);
        let v: Vec<i64> = (0..rows).map(|_| rng.below(2001) as i64 - 1000).collect();
        let reference = Mat::from_row_major(rows, 1, v.iter().map(|&x| x as f64).collect());
        for &op in &[AggOp::Sum, AggOp::Min, AggOp::Max] {
            let want = reference.agg_all(op);
            for level in LEVELS {
                let got = fold_col::<i64>(level, op, op.identity(), &v);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "i64 {op:?} differs from the oracle at {} (n={rows})",
                    level.name()
                );
            }
        }
    });
}

#[test]
fn float_elementwise_bit_identical_across_levels() {
    // Multi-link chains: the strips ping-pong through scratch buffers
    // between steps compiled at the same level.
    let f = |op, in_dtype, out_dtype| ChainLink { op, in_dtype, out_dtype };
    cases(32, |rng, _| {
        let rows = rng.usize(1..3001);
        let n_links = rng.usize(1..6);
        let mut links = Vec::new();
        for _ in 0..n_links {
            let c = rng.f64(-2.0..2.0);
            let op = match rng.below(8) {
                0 => ChainOpSpec::Unary(UnaryOp::Neg),
                1 => ChainOpSpec::Unary(UnaryOp::Abs),
                2 => ChainOpSpec::Unary(UnaryOp::Sqrt),
                3 => ChainOpSpec::Unary(UnaryOp::Square),
                4 => ChainOpSpec::Binary {
                    op: BinaryOp::Add,
                    swapped: rng.bool(),
                    operand: ChainOperand::Scalar(Scalar::F64(c)),
                },
                5 => ChainOpSpec::Binary {
                    op: BinaryOp::Mul,
                    swapped: rng.bool(),
                    operand: ChainOperand::Scalar(Scalar::F64(c)),
                },
                6 => ChainOpSpec::Binary {
                    op: BinaryOp::Max,
                    swapped: false,
                    operand: ChainOperand::Scalar(Scalar::F64(c)),
                },
                _ => ChainOpSpec::Binary {
                    op: BinaryOp::Div,
                    swapped: false,
                    operand: ChainOperand::Scalar(Scalar::F64(if c == 0.0 { 1.0 } else { c })),
                },
            };
            links.push(f(op, DType::F64, DType::F64));
        }
        let base = Chunk::from_slice::<f64>(rows, 1, &rng.vec_f64(rows, -50.0..50.0));
        assert_levels_identical(&links, &base, &[]);
    });
}

#[test]
fn float_cast_chains_bit_identical_across_levels() {
    // Casts round; rounding is exact per element, so they too must be
    // bit-identical. f64 → f32 → f64 and f64 → i32 → f64 round trips.
    cases(16, |rng, _| {
        let rows = rng.usize(1..2001);
        let links = vec![
            ChainLink { op: ChainOpSpec::Cast, in_dtype: DType::F64, out_dtype: DType::F32 },
            ChainLink { op: ChainOpSpec::Cast, in_dtype: DType::F32, out_dtype: DType::F64 },
            ChainLink { op: ChainOpSpec::Cast, in_dtype: DType::F64, out_dtype: DType::I32 },
            ChainLink { op: ChainOpSpec::Cast, in_dtype: DType::I32, out_dtype: DType::F64 },
        ];
        let base = Chunk::from_slice::<f64>(rows, 1, &rng.vec_f64(rows, -500.0..500.0));
        assert_levels_identical(&links, &base, &[]);
    });
}

#[test]
fn float_sum_within_reassociation_bound() {
    cases(32, |rng, _| {
        let rows = rng.usize(1..20_001);
        let v = rng.vec_f64(rows, -5e5..5e5);
        let reference = Mat::from_row_major(rows, 1, v.clone());
        let want = reference.agg_all(AggOp::Sum);
        let lanes = fold_col::<f64>(SimdLevel::Scalar, AggOp::Sum, 0.0, &v);
        assert_close(lanes, want, rows, reference.abs_sum(), "f64 lane sum");
        // One body, one lane association: the levels agree to the bit
        // even where they drift from the strict fold. Lengths around the
        // lane block too.
        for n in LENS.into_iter().chain([rows]).filter(|&n| n <= rows) {
            let at = |level| fold_col::<f64>(level, AggOp::Sum, 0.25, &v[..n]);
            assert_eq!(at(SimdLevel::Avx2).to_bits(), at(SimdLevel::Scalar).to_bits(), "n={n}");
            let vf: Vec<f32> = v[..n].iter().map(|&x| x as f32).collect();
            let at = |level| fold_col::<f32>(level, AggOp::Mean, 0.25, &vf);
            assert_eq!(at(SimdLevel::Avx2).to_bits(), at(SimdLevel::Scalar).to_bits(), "f32 n={n}");
        }
    });
}

#[test]
fn float_min_max_exact_across_levels() {
    // Min/max never round: both levels must match the oracle's
    // left-to-right fold bit-for-bit.
    cases(32, |rng, _| {
        let rows = rng.usize(1..20_001);
        let v = rng.vec_f64(rows, -5e5..5e5);
        let reference = Mat::from_row_major(rows, 1, v.clone());
        for &op in &[AggOp::Min, AggOp::Max] {
            let want = reference.agg_all(op);
            for level in LEVELS {
                let got = fold_col::<f64>(level, op, op.identity(), &v);
                assert_eq!(got.to_bits(), want.to_bits(), "{op:?} differs at {}", level.name());
            }
        }
    });
}

/// `agg.row`, every op × dtype: the same bytes at both levels, over rows
/// that mix NaN, ±0 and ±∞; and a tie goes to the first column.
#[test]
fn agg_row_same_bytes_at_both_levels() {
    const OPS: [AggOp; 10] = {
        use AggOp::*;
        [Sum, Prod, Min, Max, Mean, Any, All, Count, WhichMin, WhichMax]
    };
    let mut rng = Rng::new(0xa9_0c);
    let mut pool = BufPool::new();
    for dtype in DTYPES {
        for rows in LENS {
            for cols in [1usize, 2, 3, 9] {
                // The awkward values lead a row-major `rows × cols`, so the
                // first rows each mix several of them.
                let long = column(&mut rng, dtype, rows * cols);
                let x = flashr_core::dispatch!(dtype, T, {
                    let v = long.slice::<T>();
                    let cm: Vec<T> =
                        (0..rows * cols).map(|i| v[(i % rows) * cols + i / rows]).collect();
                    Chunk::from_slice::<T>(rows, cols, &cm)
                });
                // Columns 0 and 2 repeated after column 1: every row ties.
                let ties = flashr_core::dispatch!(dtype, T, {
                    let v = x.slice::<T>();
                    let c = |j: usize| &v[j.min(cols - 1) * rows..][..rows];
                    let tied: Vec<T> = [c(0), c(1), c(2), c(0), c(1), c(2)].concat();
                    Chunk::from_slice::<T>(rows, 6, &tied)
                });
                for op in OPS {
                    for input in [&x, &ties] {
                        let scalar = agg_row(SimdLevel::Scalar, op, input, &mut pool);
                        let avx2 = agg_row(SimdLevel::Avx2, op, input, &mut pool);
                        assert!(
                            scalar.as_bytes() == avx2.as_bytes(),
                            "agg.row {op:?} over {rows} x {} {dtype:?} differs between levels",
                            input.cols()
                        );
                        if op.is_positional() && std::ptr::eq(input, &ties) {
                            assert!(
                                scalar.slice::<i64>().iter().all(|&i| i < 3),
                                "{op:?} over {rows} rows of {dtype:?}: a tie left the first column"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The dot product, and the Gramian tile over a `p × k` block (`p, k` in
/// 2..6, `crossprod` or `crossprod_with`) that it is the 1 × 1 instance of.
#[test]
fn dot_within_reassociation_bound() {
    cases(16, |rng, _| {
        let n = rng.usize(1..10_001);
        let a = Mat::from_row_major(n, 1, rng.vec_f64(n, -50.0..50.0));
        let b = Mat::from_row_major(n, 1, rng.vec_f64(n, -50.0..50.0));
        let want = a.crossprod(&b).at(0, 0);
        let scale = a.abs().crossprod(&b.abs()).at(0, 0);
        let (a, b) = (a.col_major(), b.col_major());
        let scalar = dot_f64(SimdLevel::Scalar, &a, &b);
        assert_close(scalar, want, n, scale, "dot");
        assert_eq!(dot_f64(SimdLevel::Avx2, &a, &b).to_bits(), scalar.to_bits(), "n={n}");

        let (p, k, sym) = (rng.usize(2..6), rng.usize(2..6), rng.bool());
        let a = Mat::from_row_major(n, p, rng.vec_f64(n * p, -50.0..50.0));
        let b = if sym {
            a.clone()
        } else {
            Mat::from_row_major(n, k, rng.vec_f64(n * k, -50.0..50.0))
        };
        let (want, scale) = (a.crossprod(&b), a.abs().crossprod(&b.abs()));
        let (ca, cb) = (a.col_major(), b.col_major());
        let gramian = |level| {
            let mut acc = vec![0.0; p * b.cols];
            gramian_f64(level, n, &ca, (!sym).then_some(&cb[..]), &mut acc);
            acc
        };
        let scalar = gramian(SimdLevel::Scalar);
        for (o, got) in scalar.iter().enumerate() {
            let (i, j) = (o / b.cols, o % b.cols);
            assert_close(*got, want.at(i, j), n, scale.at(i, j), "gramian");
        }
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(gramian(SimdLevel::Avx2)), bits(scalar), "n={n} p={p} sym={sym}");
    });
}

#[test]
fn gemm_within_reassociation_bound() {
    // Each output element is a length-k dot product; the register tile
    // re-associates it (and fuses the multiply-adds at `Avx2`), so
    // per-element error against the oracle's left-to-right product is
    // bounded by `k · ε · Σ|a_il · b_lj|`. Every shape runs in the
    // executor's column-major layout and again with row-major B and C,
    // which the tile takes transposed at 4 × 8 and over; the last two
    // shapes are narrower and take the small-shape loop there.
    let mut rng = Rng::new(8);
    for &(m, n, k) in
        &[(17usize, 13usize, 29usize), (64, 64, 64), (33, 47, 5), (33, 5, 47), (3, 9, 11)]
    {
        // Column-major buffers (rs = 1, cs = rows) are the transposes of
        // row-major n×k / k×m ones.
        let a = Mat::from_row_major(k, m, rng.vec_f64(m * k, -5.0..5.0)).t();
        let b = Mat::from_row_major(n, k, rng.vec_f64(k * n, -5.0..5.0)).t();
        let want = a.matmul(&b);
        let scale = a.abs().matmul(&b.abs());
        // A column-major transpose is the row-major original.
        let (a, b, b_rows) = (a.col_major(), b.col_major(), b.t().col_major());
        // (layout, B, rsb, csb, rsc, csc): C(i, j) at i·rsc + j·csc.
        let layouts = [("column-major", &b, 1, k, 1, m), ("row-major C", &b_rows, n, 1, n, 1)];
        for level in LEVELS {
            for &(layout, b, rsb, csb, rsc, csc) in &layouts {
                let mut c = vec![0.0f64; m * n];
                gemm_strided_level(
                    level, m, n, k, 1.0, &a, 1, m, b, rsb, csb, 0.0, &mut c, rsc, csc,
                );
                for j in 0..n {
                    for i in 0..m {
                        let what =
                            format!("gemm[{i},{j}] of {m}x{n}x{k} {layout} at {}", level.name());
                        assert_close(c[i * rsc + j * csc], want.at(i, j), k, scale.at(i, j), &what);
                    }
                }
            }
        }
    }
}

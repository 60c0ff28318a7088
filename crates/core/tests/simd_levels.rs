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
//!   fold and the dot product. This is the test of the mechanism: if a
//!   level ever selected a different body, or the compiler fused a
//!   multiply into an add, it fails here.
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
use flashr_core::ops::{AggOp, BinaryOp, UnaryOp};
use flashr_linalg::gemm_strided_level;
use flashr_linalg::simd::{dot_f64, SimdLevel};
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
    });
}

#[test]
fn gemm_within_reassociation_bound() {
    // Each output element is a length-k dot product; the register-blocked
    // kernel re-associates it (and fuses the multiply-adds at `Avx2`), so
    // per-element error against the oracle's left-to-right product is
    // bounded by `k · ε · Σ|a_il · b_lj|`. The last two shapes take the
    // tall-and-skinny axpy path and the small-shape loop.
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
        let (a, b) = (a.col_major(), b.col_major());
        for level in LEVELS {
            let mut c = vec![0.0f64; m * n];
            gemm_strided_level(level, m, n, k, 1.0, &a, 1, m, &b, 1, k, 0.0, &mut c, 1, m);
            for j in 0..n {
                for i in 0..m {
                    let what = format!("gemm[{i},{j}] of {m}x{n}x{k} at {}", level.name());
                    assert_close(c[j * m + i], want.at(i, j), k, scale.at(i, j), &what);
                }
            }
        }
    }
}

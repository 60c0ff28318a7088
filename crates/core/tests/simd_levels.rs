//! Property tests for the SIMD dispatch levels (`FLASHR_SIMD`).
//!
//! The kernel layer promises two numerics contracts, checked here across
//! every dispatch level the host offers (`SimdLevel::available()`):
//!
//! * **Bit-identity** for all elementwise work and for every integer
//!   reduction: the AVX2 paths use only exactly-rounded instructions
//!   (add/sub/mul/div/sqrt/min/max and integer lanes), so switching
//!   `FLASHR_SIMD` may never change a single output bit.
//! * **Bounded reassociation** for float reductions and gemm: the lane
//!   kernels re-associate sums (8 f64 partials / register-blocked
//!   panels), which is allowed to drift from the strict left-to-right
//!   `off` fold by at most `n · ε · Σ|terms|` — the classic forward
//!   error bound for a length-`n` float summation with machine epsilon
//!   `ε` (Higham, *Accuracy and Stability of Numerical Algorithms*,
//!   §4.2). Anything beyond that bound is a kernel bug, not rounding.
//!
//! Inputs come from `flashr_testkit`, so a failure reproduces from the
//! case seed its runner prints.

use flashr_core::chunk::{BufPool, Chunk};
use flashr_core::dtype::{DType, Scalar};
use flashr_core::ops::fused_map::{ChainLink, ChainOpSpec, ChainOperand, FusedMapKernel};
use flashr_core::ops::simd::fold_col;
use flashr_core::ops::{AggOp, BinaryOp, UnaryOp};
use flashr_linalg::simd::{dot_f64, SimdLevel};
use flashr_linalg::gemm_strided_level;
use flashr_testkit::{cases, Rng};

/// Levels to exercise: every one the host supports. `available()`
/// always contains Off and Scalar; Avx2 joins when the CPU has it.
fn levels() -> Vec<SimdLevel> {
    SimdLevel::available()
}

/// Forward error bound for a re-associated length-`n` summation:
/// `n · ε · Σ|x_i|`. Both sides of a comparison must sit within this of
/// each other since each is within half the bound of the true sum.
fn sum_bound(n: usize, abs_sum: f64) -> f64 {
    2.0 * n as f64 * f64::EPSILON * abs_sum
}

/// Run one chain at every level and return the raw output bytes.
fn run_chain_all_levels(links: &[ChainLink], base: &Chunk) -> Vec<(SimdLevel, Vec<u8>)> {
    levels()
        .into_iter()
        .map(|level| {
            let kernel = FusedMapKernel::compile_with_level(level, links);
            let mut pool = BufPool::new();
            let out = kernel.run(base, &[], &mut pool);
            (level, out.as_bytes().to_vec())
        })
        .collect()
}

fn assert_all_levels_identical(links: &[ChainLink], base: &Chunk) {
    let outs = run_chain_all_levels(links, base);
    let (l0, ref want) = outs[0];
    for (level, got) in &outs[1..] {
        assert_eq!(
            got,
            want,
            "chain output differs between {} and {} (links {links:?})",
            level.name(),
            l0.name(),
        );
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
            assert_all_levels_identical(&links, &base);
        }
    });
}

#[test]
fn integer_reductions_bit_identical_across_levels() {
    cases(32, |rng, _| {
        let rows = rng.usize(1..5001);
        let v: Vec<i64> = (0..rows).map(|_| rng.below(2001) as i64 - 1000).collect();
        for &op in &[AggOp::Sum, AggOp::Min, AggOp::Max] {
            let want = fold_col::<i64>(SimdLevel::Off, op, op.identity(), &v);
            for level in levels() {
                let got = fold_col::<i64>(level, op, op.identity(), &v);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "i64 {op:?} differs at {} (n={rows})",
                    level.name()
                );
            }
        }
    });
}

#[test]
fn float_elementwise_bit_identical_across_levels() {
    // Covers the AVX2 explicit paths (mul/add/abs/sqrt/min/max/neg…):
    // all exactly-rounded, so float chains are bit-identical too.
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
        assert_all_levels_identical(&links, &base);
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
        assert_all_levels_identical(&links, &base);
    });
}

#[test]
fn float_sum_within_reassociation_bound() {
    cases(32, |rng, _| {
        let rows = rng.usize(1..20_001);
        let v = rng.vec_f64(rows, -5e5..5e5);
        let abs_sum: f64 = v.iter().map(|x| x.abs()).sum();
        let bound = sum_bound(rows, abs_sum);
        let want = fold_col::<f64>(SimdLevel::Off, AggOp::Sum, 0.0, &v);
        for level in levels() {
            let got = fold_col::<f64>(level, AggOp::Sum, 0.0, &v);
            assert!(
                (got - want).abs() <= bound,
                "f64 sum at {}: |{got} - {want}| > bound {bound} (n={rows})",
                level.name()
            );
        }
        // Scalar and Avx2 share the 8-partial lane association, so they
        // are bit-identical to *each other* even where they drift from
        // the strict Off fold.
        let lanes = fold_col::<f64>(SimdLevel::Scalar, AggOp::Sum, 0.0, &v);
        for level in levels() {
            if level != SimdLevel::Off {
                let got = fold_col::<f64>(level, AggOp::Sum, 0.0, &v);
                assert_eq!(got.to_bits(), lanes.to_bits(), "lane sum differs at {}", level.name());
            }
        }
    });
}

#[test]
fn float_min_max_exact_across_levels() {
    // Min/max never round: every level must agree bit-for-bit.
    cases(32, |rng, _| {
        let rows = rng.usize(1..20_001);
        let v = rng.vec_f64(rows, -5e5..5e5);
        for &op in &[AggOp::Min, AggOp::Max] {
            let want = fold_col::<f64>(SimdLevel::Off, op, op.identity(), &v);
            for level in levels() {
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
        let a = rng.vec_f64(n, -50.0..50.0);
        let b = rng.vec_f64(n, -50.0..50.0);
        let abs_sum: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let bound = sum_bound(n, abs_sum);
        let want = dot_f64(SimdLevel::Off, &a, &b);
        for level in levels() {
            let got = dot_f64(level, &a, &b);
            assert!(
                (got - want).abs() <= bound,
                "dot at {}: |{got} - {want}| > bound {bound} (n={n})",
                level.name()
            );
        }
    });
}

#[test]
fn gemm_within_reassociation_bound() {
    // Each output element is a length-k dot product; the register-blocked
    // kernel re-associates it, so per-element error vs the naive triple
    // loop is bounded by `k · ε · Σ|a_il · b_lj|`.
    let mut rng = Rng::new(8);
    for &(m, n, k) in &[(17usize, 13usize, 29usize), (64, 64, 64), (33, 47, 5)] {
        let a = rng.vec_f64(m * k, -5.0..5.0);
        let b = rng.vec_f64(k * n, -5.0..5.0);
        // Column-major: rs = 1, cs = rows.
        let naive = |i: usize, j: usize| -> (f64, f64) {
            let mut acc = 0.0;
            let mut abs = 0.0;
            for l in 0..k {
                let t = a[l * m + i] * b[j * k + l];
                acc += t;
                abs += t.abs();
            }
            (acc, abs)
        };
        for level in levels() {
            let mut c = vec![0.0f64; m * n];
            gemm_strided_level(level, m, n, k, 1.0, &a, 1, m, &b, 1, k, 0.0, &mut c, 1, m);
            for j in 0..n {
                for i in 0..m {
                    let (want, abs) = naive(i, j);
                    let got = c[j * m + i];
                    let bound = sum_bound(k, abs);
                    assert!(
                        (got - want).abs() <= bound,
                        "gemm[{i},{j}] at {}: |{got} - {want}| > bound {bound}",
                        level.name()
                    );
                }
            }
        }
    }
}

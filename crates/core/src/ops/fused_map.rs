//! Strip-mined kernels for element-wise maps — the one way a unary,
//! binary or cast `Map` node executes (paper §3.4–3.5).
//!
//! The plan layer compiles every element-wise map, fusing maximal
//! single-consumer chains ([`crate::analysis::chains`]), into a
//! [`FusedMapKernel`]: a short program of micro-ops ([`ChainLink`]s)
//! executed strip-mined over each Pcache chunk, so a chain like
//! `sqrt((x - mu) / sd)^2` moves one chunk instead of four. A strip is
//! [`STRIP_ELEMS`] elements (8 KiB at f64), small enough that the
//! ping-pong scratch buffers stay in L1 while every op of the chain runs
//! over it; only the final result is written back, producing **one**
//! output chunk per kernel instead of one per node. Step functions take
//! raw byte slices, so the first micro-op reads the source chunk in
//! place and the last writes the destination partition in place — a
//! chain of `n` steps touches `n + 1` strips of memory, not `n + 3`, and
//! a single op touches two.
//!
//! Dispatch discipline: each link is resolved **once at compile time**
//! to a monomorphized step function over `(op, dtype)` (const-generic
//! `OP`, concrete element type via [`crate::dispatch!`]), collected into
//! a function-pointer row. The strip loop calls through bare `fn`
//! pointers; inner loops contain zero enum matching. The step bodies are
//! the element kernels ([`crate::ops::unary::unary_typed`],
//! [`crate::ops::binary::arith_col`] / [`pred_col`],
//! [`crate::ops::misc::cast_slice`]), each inlined into its step so the
//! const generics fold. The SIMD dispatch level picks, per link and at
//! the same moment, which *compilation* of that one body the row points
//! at — the baseline one or the AVX2 one ([`crate::ops::simd`]) — so
//! results are the same bits at **every** dispatch level and however far
//! a chain fuses.

use crate::chunk::{BufPool, Chunk};
use crate::dtype::{DType, Scalar};
use crate::element::Element;
use crate::ops::binary::{arith_col_at, pred_col, BinaryOp, ColSrc};
use crate::ops::misc::cast_slice;
use crate::ops::simd::{pick, versioned, SimdLevel};
use crate::ops::unary::{unary_typed, UnaryOp};
use flashr_safs::IoBuf;
use std::sync::Arc;

/// Elements per strip. 1024 × 8 B = 8 KiB at f64 — two scratch strips
/// plus the source strip fit comfortably in a 32 KiB L1d.
pub const STRIP_ELEMS: usize = 1024;

/// The non-spine operand of a fused binary link.
#[derive(Debug, Clone)]
pub enum ChainOperand {
    /// A scalar constant (kept as the original [`Scalar`] so integer
    /// chains convert it through `i64`, not `f64`).
    Scalar(Scalar),
    /// A per-column constant row vector (`sweep`).
    RowVec(Arc<Vec<f64>>),
    /// Another chunk, resolved by the executor: `aux` indexes the
    /// kernel's auxiliary-input row; `recycle` marks a one-column
    /// operand broadcast across columns (R's vector recycling).
    Chunk { aux: usize, recycle: bool },
}

/// What one fused link computes.
#[derive(Debug, Clone)]
pub enum ChainOpSpec {
    Unary(UnaryOp),
    /// Convert `in_dtype` → `out_dtype` (the link dtypes carry the pair).
    Cast,
    Binary {
        op: BinaryOp,
        swapped: bool,
        operand: ChainOperand,
    },
}

/// One micro-op of a chain program, with its dtype transition.
#[derive(Debug, Clone)]
pub struct ChainLink {
    pub op: ChainOpSpec,
    pub in_dtype: DType,
    pub out_dtype: DType,
}

/// Per-strip constant operand, resolved per column by the executor.
#[derive(Clone, Copy)]
enum KonstVal {
    None,
    /// Scalar operand: converted via `T::from_scalar`.
    Scalar(Scalar),
    /// Row-vector operand for the current column: converted via
    /// `T::from_f64`.
    F64(f64),
}

/// Everything a step function may need besides the strip buffers.
struct StripCtx<'a> {
    konst: KonstVal,
    swapped: bool,
    aux: Option<&'a Chunk>,
    aux_col: usize,
    /// Strip start row within the chunk (offsets into aux columns).
    s0: usize,
}

/// A monomorphized micro-op: read `len` elements from `src`, write `len`
/// to `dst`. The slices are raw bytes so steps can run directly over the
/// source chunk and the destination partition; callers guarantee the
/// slices are element-aligned and big enough (the helpers assert it).
type StepFn = fn(&StripCtx<'_>, &[u8], &mut [u8], usize);

/// View the leading `len` elements of an element-aligned byte slice.
/// Sound: strip sources are either 8-aligned scratch buffers or chunk /
/// partition buffers offset by whole elements (`IoBuf` storage is
/// `u64`-aligned and every element size divides 8).
#[inline(always)]
fn in_slice<T: Element>(bytes: &[u8], len: usize) -> &[T] {
    debug_assert!(len * size_of::<T>() <= bytes.len());
    debug_assert_eq!(bytes.as_ptr() as usize % align_of::<T>(), 0);
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, len) }
}

#[inline(always)]
fn out_slice<T: Element>(bytes: &mut [u8], len: usize) -> &mut [T] {
    debug_assert!(len * size_of::<T>() <= bytes.len());
    debug_assert_eq!(bytes.as_ptr() as usize % align_of::<T>(), 0);
    unsafe { std::slice::from_raw_parts_mut(bytes.as_mut_ptr() as *mut T, len) }
}

/// Per-kernel constant storage for one step.
#[derive(Clone)]
enum Konst {
    None,
    Scalar(Scalar),
    RowVec(Arc<Vec<f64>>),
}

struct Step {
    f: StepFn,
    konst: Konst,
    aux: Option<usize>,
    recycle: bool,
    swapped: bool,
}

/// A compiled chain: a function-pointer row executed strip-mined.
pub struct FusedMapKernel {
    steps: Vec<Step>,
    in_dtype: DType,
    out_dtype: DType,
}

// ------------------------------------------------------------- step fns

fn operand<'a, T: Element>(ctx: &StripCtx<'a>, len: usize) -> ColSrc<'a, T> {
    match ctx.aux {
        Some(ch) => ColSrc::Slice(&ch.col::<T>(ctx.aux_col)[ctx.s0..ctx.s0 + len]),
        None => ColSrc::Const(match ctx.konst {
            KonstVal::Scalar(s) => T::from_scalar(s),
            KonstVal::F64(x) => T::from_f64(x),
            KonstVal::None => unreachable!("binary step without an operand"),
        }),
    }
}

// Every step takes `VEX`: whether its body runs as compiled for AVX2
// (`versioned`). The builders below choose it, once per link.

fn step_unary<T: Element, const OP: u8, const VEX: bool>(
    _ctx: &StripCtx<'_>,
    src: &[u8],
    dst: &mut [u8],
    len: usize,
) {
    let (s, d) = (in_slice::<T>(src, len), out_slice::<T>(dst, len));
    versioned::<VEX, _>(
        #[inline(always)]
        || unary_typed::<T>(UnaryOp::from_u8(OP), s, d),
    );
}

/// `Not` is the one unary op that changes dtype (`T` → U8).
fn step_not<T: Element, const VEX: bool>(
    _ctx: &StripCtx<'_>,
    src: &[u8],
    dst: &mut [u8],
    len: usize,
) {
    let (s, d) = (in_slice::<T>(src, len), out_slice::<u8>(dst, len));
    versioned::<VEX, _>(
        #[inline(always)]
        || {
            for (d, s) in d.iter_mut().zip(s) {
                *d = u8::from(*s == T::zero());
            }
        },
    );
}

fn step_cast<S: Element, D: Element, const VEX: bool>(
    _ctx: &StripCtx<'_>,
    src: &[u8],
    dst: &mut [u8],
    len: usize,
) {
    let (s, d) = (in_slice::<S>(src, len), out_slice::<D>(dst, len));
    versioned::<VEX, _>(
        #[inline(always)]
        || cast_slice::<S, D>(s, d),
    );
}

fn step_arith<T: Element, const OP: u8, const VEX: bool>(
    ctx: &StripCtx<'_>,
    src: &[u8],
    dst: &mut [u8],
    len: usize,
) {
    let b = operand::<T>(ctx, len);
    arith_col_at::<T, OP, VEX>(out_slice::<T>(dst, len), in_slice::<T>(src, len), b, ctx.swapped);
}

fn step_pred<T: Element, const OP: u8, const VEX: bool>(
    ctx: &StripCtx<'_>,
    src: &[u8],
    dst: &mut [u8],
    len: usize,
) {
    let b = operand::<T>(ctx, len);
    let (s, d) = (in_slice::<T>(src, len), out_slice::<u8>(dst, len));
    versioned::<VEX, _>(
        #[inline(always)]
        || pred_col::<T, OP>(d, s, b, ctx.swapped),
    );
}

// ---------------------------------------------------- step fn builders

fn unary_step_fn(op: UnaryOp, dtype: DType, level: SimdLevel) -> StepFn {
    let vex = level.vex();
    crate::dispatch!(dtype, T, {
        macro_rules! arm {
            ($v:ident) => {
                pick!(vex, step_unary::<T, { UnaryOp::$v as u8 }>)
            };
        }
        let f: StepFn = match op {
            UnaryOp::Neg => arm!(Neg),
            UnaryOp::Abs => arm!(Abs),
            UnaryOp::Sqrt => arm!(Sqrt),
            UnaryOp::Exp => arm!(Exp),
            UnaryOp::Ln => arm!(Ln),
            UnaryOp::Log2 => arm!(Log2),
            UnaryOp::Log10 => arm!(Log10),
            UnaryOp::Log1p => arm!(Log1p),
            UnaryOp::Floor => arm!(Floor),
            UnaryOp::Ceil => arm!(Ceil),
            UnaryOp::Round => arm!(Round),
            UnaryOp::Sign => arm!(Sign),
            UnaryOp::Recip => arm!(Recip),
            UnaryOp::Square => arm!(Square),
            UnaryOp::Sigmoid => arm!(Sigmoid),
            UnaryOp::Not => pick!(vex, step_not::<T>),
        };
        f
    })
}

fn cast_step_fn(from: DType, to: DType, level: SimdLevel) -> StepFn {
    let vex = level.vex();
    crate::dispatch!(from, S, {
        crate::dispatch!(to, D, {
            let f: StepFn = pick!(vex, step_cast::<S, D>);
            f
        })
    })
}

fn arith_step_fn(op: BinaryOp, dtype: DType, level: SimdLevel) -> StepFn {
    let vex = level.vex();
    crate::dispatch!(dtype, T, {
        macro_rules! arm {
            ($v:ident) => {
                pick!(vex, step_arith::<T, { BinaryOp::$v as u8 }>)
            };
        }
        let f: StepFn = match op {
            BinaryOp::Add => arm!(Add),
            BinaryOp::Sub => arm!(Sub),
            BinaryOp::Mul => arm!(Mul),
            BinaryOp::Div => arm!(Div),
            BinaryOp::Rem => arm!(Rem),
            BinaryOp::Pow => arm!(Pow),
            BinaryOp::Min => arm!(Min),
            BinaryOp::Max => arm!(Max),
            BinaryOp::EuclidSq => arm!(EuclidSq),
            _ => unreachable!("predicates use pred_step_fn"),
        };
        f
    })
}

fn pred_step_fn(op: BinaryOp, dtype: DType, level: SimdLevel) -> StepFn {
    let vex = level.vex();
    crate::dispatch!(dtype, T, {
        macro_rules! arm {
            ($v:ident) => {
                pick!(vex, step_pred::<T, { BinaryOp::$v as u8 }>)
            };
        }
        let f: StepFn = match op {
            BinaryOp::Eq => arm!(Eq),
            BinaryOp::Ne => arm!(Ne),
            BinaryOp::Lt => arm!(Lt),
            BinaryOp::Le => arm!(Le),
            BinaryOp::Gt => arm!(Gt),
            BinaryOp::Ge => arm!(Ge),
            BinaryOp::And => arm!(And),
            BinaryOp::Or => arm!(Or),
            _ => unreachable!("arithmetic ops use arith_step_fn"),
        };
        f
    })
}

// ------------------------------------------------------------ compiler

impl FusedMapKernel {
    /// Compile a chain program (links ordered base → root) into a
    /// function-pointer row at the process-wide SIMD dispatch level.
    pub fn compile(links: &[ChainLink]) -> FusedMapKernel {
        Self::compile_with_level(SimdLevel::active(), links)
    }

    /// [`FusedMapKernel::compile`] with an explicit dispatch level — the
    /// entry point the kernel-bandwidth probe and the cross-level
    /// property tests use to compare levels within one process. All
    /// `(op, dtype, level)` resolution happens here.
    pub fn compile_with_level(level: SimdLevel, links: &[ChainLink]) -> FusedMapKernel {
        assert!(!links.is_empty(), "empty chain");
        let mut steps = Vec::with_capacity(links.len());
        for (i, l) in links.iter().enumerate() {
            if i > 0 {
                assert_eq!(links[i - 1].out_dtype, l.in_dtype, "chain dtype mismatch");
            }
            let step = match &l.op {
                ChainOpSpec::Unary(u) => {
                    debug_assert_eq!(l.out_dtype, u.out_dtype(l.in_dtype));
                    Step {
                        f: unary_step_fn(*u, l.in_dtype, level),
                        konst: Konst::None,
                        aux: None,
                        recycle: false,
                        swapped: false,
                    }
                }
                ChainOpSpec::Cast => {
                    assert_ne!(l.in_dtype, l.out_dtype, "identity cast in chain");
                    Step {
                        f: cast_step_fn(l.in_dtype, l.out_dtype, level),
                        konst: Konst::None,
                        aux: None,
                        recycle: false,
                        swapped: false,
                    }
                }
                ChainOpSpec::Binary { op, swapped, operand } => {
                    debug_assert_eq!(l.out_dtype, op.out_dtype(l.in_dtype));
                    let f = if op.is_predicate() {
                        pred_step_fn(*op, l.in_dtype, level)
                    } else {
                        arith_step_fn(*op, l.in_dtype, level)
                    };
                    let (konst, aux, recycle) = match operand {
                        ChainOperand::Scalar(s) => (Konst::Scalar(*s), None, false),
                        ChainOperand::RowVec(v) => (Konst::RowVec(v.clone()), None, false),
                        ChainOperand::Chunk { aux, recycle } => (Konst::None, Some(*aux), *recycle),
                    };
                    Step { f, konst, aux, recycle, swapped: *swapped }
                }
            };
            steps.push(step);
        }
        FusedMapKernel {
            steps,
            in_dtype: links[0].in_dtype,
            out_dtype: links.last().unwrap().out_dtype,
        }
    }

    /// Run the whole chain over `base`, producing the root's chunk.
    pub fn run(&self, base: &Chunk, auxes: &[&Chunk], pool: &mut BufPool) -> Chunk {
        let (rows, cols) = (base.rows(), base.cols());
        let mut out = pool.take(rows * cols * self.out_dtype.size());
        self.run_into(base, auxes, &mut out, rows, 0, pool);
        Chunk::from_iobuf(out, self.out_dtype, rows, cols)
    }

    /// Run the chain writing straight into a column-major destination
    /// buffer with column stride `col_stride` rows, starting at row
    /// `row_off` — lets the executor hand a chain the tall output buffer
    /// as its destination, skipping the root chunk entirely.
    ///
    /// The first step reads the base chunk in place and the last step
    /// writes the destination in place; scratch strips only carry the
    /// interior of chains with ≥ 2 steps.
    pub fn run_into(
        &self,
        base: &Chunk,
        auxes: &[&Chunk],
        dst: &mut IoBuf,
        col_stride: usize,
        row_off: usize,
        pool: &mut BufPool,
    ) {
        debug_assert_eq!(base.dtype(), self.in_dtype, "chain base dtype mismatch");
        let (rows, cols) = (base.rows(), base.cols());
        self.run_strided_into(
            base.as_bytes(),
            rows,
            0,
            rows,
            cols,
            auxes,
            dst,
            col_stride,
            row_off,
            pool,
        );
    }

    /// The fully strided sweep both entry points lower to: read the base
    /// in place from a column-major source buffer (stride `base_stride`
    /// rows, first row `base_off`), write the destination in place. With
    /// both sides strided, an n-step chain over an in-memory leaf moves
    /// exactly n+1 strips of data and the executor copies nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn run_strided_into(
        &self,
        base_bytes: &[u8],
        base_stride: usize,
        base_off: usize,
        rows: usize,
        cols: usize,
        auxes: &[&Chunk],
        dst: &mut IoBuf,
        col_stride: usize,
        row_off: usize,
        pool: &mut BufPool,
    ) {
        debug_assert!(base_off + rows <= base_stride || cols == 0);
        debug_assert!(row_off + rows <= col_stride);
        let in_esz = self.in_dtype.size();
        let out_esz = self.out_dtype.size();
        let nsteps = self.steps.len();
        // Scratch strips are sized in *bytes* for the widest element, so
        // every dtype along the chain views them evenly.
        let mut a = pool.take(STRIP_ELEMS * 8);
        let mut b = pool.take(STRIP_ELEMS * 8);
        let dst_bytes = dst.as_mut_bytes();
        for c in 0..cols {
            let mut s0 = 0usize;
            while s0 < rows {
                let len = STRIP_ELEMS.min(rows - s0);
                let b0 = (c * base_stride + base_off + s0) * in_esz;
                let src0 = &base_bytes[b0..b0 + len * in_esz];
                let d0 = (c * col_stride + row_off + s0) * out_esz;
                for (i, step) in self.steps.iter().enumerate() {
                    let ctx = StripCtx {
                        konst: match &step.konst {
                            Konst::None => KonstVal::None,
                            Konst::Scalar(s) => KonstVal::Scalar(*s),
                            Konst::RowVec(v) => KonstVal::F64(v[c]),
                        },
                        swapped: step.swapped,
                        aux: step.aux.map(|i| auxes[i]),
                        aux_col: if step.recycle { 0 } else { c },
                        s0,
                    };
                    let src: &[u8] = if i == 0 { src0 } else { a.as_bytes() };
                    if i + 1 == nsteps {
                        (step.f)(&ctx, src, &mut dst_bytes[d0..d0 + len * out_esz], len);
                    } else {
                        (step.f)(&ctx, src, b.as_mut_bytes(), len);
                        std::mem::swap(&mut a, &mut b);
                    }
                }
                s0 += len;
            }
        }
        pool.put(a);
        pool.put(b);
    }
}

/// One-op kernels over whole chunks: how the unit tests of the element
/// kernels (`ops::{unary, binary, misc}`) reach them the way the
/// executor does.
#[cfg(test)]
pub(crate) mod one_link {
    use super::*;

    /// The second operand of [`binary`].
    pub(crate) enum Rhs<'a> {
        /// Same shape, or a single column recycled.
        Chunk(&'a Chunk),
        Scalar(Scalar),
        /// One constant per column.
        RowVec(&'a [f64]),
    }

    fn run(op: ChainOpSpec, input: &Chunk, out_dtype: DType, auxes: &[&Chunk]) -> Chunk {
        let link = ChainLink { op, in_dtype: input.dtype(), out_dtype };
        FusedMapKernel::compile(&[link]).run(input, auxes, &mut BufPool::new())
    }

    pub(crate) fn unary(op: UnaryOp, input: &Chunk) -> Chunk {
        run(ChainOpSpec::Unary(op), input, op.out_dtype(input.dtype()), &[])
    }

    pub(crate) fn cast(input: &Chunk, to: DType) -> Chunk {
        run(ChainOpSpec::Cast, input, to, &[])
    }

    pub(crate) fn binary(op: BinaryOp, a: &Chunk, b: Rhs<'_>, swapped: bool) -> Chunk {
        let (operand, auxes) = match b {
            Rhs::Chunk(ch) => {
                assert_eq!(ch.dtype(), a.dtype(), "binary operands must share a dtype");
                assert!(ch.cols() == a.cols() || ch.cols() == 1, "binary operand col mismatch");
                (ChainOperand::Chunk { aux: 0, recycle: ch.cols() == 1 }, vec![ch])
            }
            Rhs::Scalar(s) => (ChainOperand::Scalar(s), vec![]),
            Rhs::RowVec(v) => {
                assert_eq!(v.len(), a.cols(), "row-vector operand length mismatch");
                (ChainOperand::RowVec(Arc::new(v.to_vec())), vec![])
            }
        };
        run(ChainOpSpec::Binary { op, swapped, operand }, a, op.out_dtype(a.dtype()), &auxes)
    }
}

#[cfg(test)]
mod tests {
    use super::one_link::{binary, cast, unary, Rhs};
    use super::*;

    fn f64_chunk(rows: usize, cols: usize) -> Chunk {
        let vals: Vec<f64> = (0..rows * cols).map(|i| (i as f64) * 0.37 - 40.0).collect();
        Chunk::from_slice::<f64>(rows, cols, &vals)
    }

    fn demo_links() -> Vec<ChainLink> {
        vec![
            ChainLink {
                op: ChainOpSpec::Binary {
                    op: BinaryOp::Mul,
                    swapped: false,
                    operand: ChainOperand::Scalar(Scalar::F64(2.5)),
                },
                in_dtype: DType::F64,
                out_dtype: DType::F64,
            },
            ChainLink {
                op: ChainOpSpec::Binary {
                    op: BinaryOp::Add,
                    swapped: false,
                    operand: ChainOperand::Scalar(Scalar::F64(1.0)),
                },
                in_dtype: DType::F64,
                out_dtype: DType::F64,
            },
            ChainLink {
                op: ChainOpSpec::Unary(UnaryOp::Abs),
                in_dtype: DType::F64,
                out_dtype: DType::F64,
            },
            ChainLink {
                op: ChainOpSpec::Unary(UnaryOp::Sqrt),
                in_dtype: DType::F64,
                out_dtype: DType::F64,
            },
        ]
    }

    /// (Named for the per-node chunk interpreter this test once compared
    /// against; the reference is now the same four ops as four one-op
    /// kernels with a whole chunk between each, and the arithmetic
    /// written out.)
    #[test]
    fn chain_matches_interpreter_bit_for_bit() {
        let mut pool = BufPool::new();
        // sqrt(abs(x * 2.5 + 1.0)), 3000 rows so strips split mid-column.
        let x = f64_chunk(3000, 3);
        let kernel = FusedMapKernel::compile(&demo_links());
        let fused = kernel.run(&x, &[], &mut pool);

        let s1 = binary(BinaryOp::Mul, &x, Rhs::Scalar(Scalar::F64(2.5)), false);
        let s2 = binary(BinaryOp::Add, &s1, Rhs::Scalar(Scalar::F64(1.0)), false);
        let s3 = unary(UnaryOp::Abs, &s2);
        let stepwise = unary(UnaryOp::Sqrt, &s3);
        let f = fused.slice::<f64>();
        assert_eq!(f.len(), x.slice::<f64>().len());
        for ((a, b), v) in f.iter().zip(stepwise.slice::<f64>()).zip(x.slice::<f64>()) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), (v * 2.5 + 1.0).abs().sqrt().to_bits());
        }
    }

    #[test]
    fn chain_bit_identical_across_simd_levels() {
        // The chain above compiled at every available dispatch level must
        // agree to the bit: the levels are two compilations of one body.
        let mut pool = BufPool::new();
        let x = f64_chunk(3000, 3);
        let want = FusedMapKernel::compile_with_level(SimdLevel::Scalar, &demo_links()).run(
            &x,
            &[],
            &mut pool,
        );
        for level in SimdLevel::available() {
            let got =
                FusedMapKernel::compile_with_level(level, &demo_links()).run(&x, &[], &mut pool);
            for (a, b) in want.slice::<f64>().iter().zip(got.slice::<f64>()) {
                assert_eq!(a.to_bits(), b.to_bits(), "level={}", level.name());
            }
        }
    }

    #[test]
    fn chain_crossing_dtype_boundaries() {
        let mut pool = BufPool::new();
        // (i32 -> f64 cast) then predicate (U8 boundary) then cast to i32.
        let vals: Vec<i32> = (0..500).map(|i| i - 250).collect();
        let x = Chunk::from_slice::<i32>(500, 1, &vals);
        let links = vec![
            ChainLink { op: ChainOpSpec::Cast, in_dtype: DType::I32, out_dtype: DType::F64 },
            ChainLink {
                op: ChainOpSpec::Binary {
                    op: BinaryOp::Gt,
                    swapped: false,
                    operand: ChainOperand::Scalar(Scalar::F64(0.0)),
                },
                in_dtype: DType::F64,
                out_dtype: DType::U8,
            },
            ChainLink { op: ChainOpSpec::Cast, in_dtype: DType::U8, out_dtype: DType::I32 },
        ];
        let kernel = FusedMapKernel::compile(&links);
        let fused = kernel.run(&x, &[], &mut pool);

        let s1 = cast(&x, DType::F64);
        let s2 = binary(BinaryOp::Gt, &s1, Rhs::Scalar(Scalar::F64(0.0)), false);
        let stepwise = cast(&s2, DType::I32);
        assert_eq!(fused.slice::<i32>(), stepwise.slice::<i32>());
        let want: Vec<i32> = vals.iter().map(|&v| i32::from(v > 0)).collect();
        assert_eq!(fused.slice::<i32>(), &want[..]);
    }

    #[test]
    fn chunk_operand_with_column_recycling() {
        let mut pool = BufPool::new();
        let x = f64_chunk(2000, 4);
        let y = f64_chunk(2000, 1);
        let links = vec![ChainLink {
            op: ChainOpSpec::Binary {
                op: BinaryOp::Sub,
                swapped: true,
                operand: ChainOperand::Chunk { aux: 0, recycle: true },
            },
            in_dtype: DType::F64,
            out_dtype: DType::F64,
        }];
        let kernel = FusedMapKernel::compile(&links);
        let fused = kernel.run(&x, &[&y], &mut pool);
        // swapped: y - x, with y's one column recycled across x's four.
        let (xs, ys) = (x.slice::<f64>(), y.slice::<f64>());
        let want: Vec<f64> = xs.iter().enumerate().map(|(i, xv)| ys[i % 2000] - xv).collect();
        assert_eq!(fused.slice::<f64>(), &want[..]);
    }

    #[test]
    fn row_vector_operand_resolves_per_column() {
        let mut pool = BufPool::new();
        let x = f64_chunk(1500, 3);
        let v = Arc::new(vec![2.0, 4.0, 8.0]);
        let links = vec![ChainLink {
            op: ChainOpSpec::Binary {
                op: BinaryOp::Div,
                swapped: false,
                operand: ChainOperand::RowVec(v.clone()),
            },
            in_dtype: DType::F64,
            out_dtype: DType::F64,
        }];
        let kernel = FusedMapKernel::compile(&links);
        let fused = kernel.run(&x, &[], &mut pool);
        let want: Vec<f64> =
            x.slice::<f64>().iter().enumerate().map(|(i, xv)| xv / v[i / 1500]).collect();
        assert_eq!(fused.slice::<f64>(), &want[..]);
    }

    #[test]
    fn run_into_writes_at_row_offset() {
        let mut pool = BufPool::new();
        let x = f64_chunk(100, 2);
        let links = vec![ChainLink {
            op: ChainOpSpec::Unary(UnaryOp::Neg),
            in_dtype: DType::F64,
            out_dtype: DType::F64,
        }];
        let kernel = FusedMapKernel::compile(&links);
        // Destination partition: 300 rows per column, chunk lands at 100.
        let mut dst = IoBuf::zeroed(300 * 2 * 8);
        kernel.run_into(&x, &[], &mut dst, 300, 100, &mut pool);
        let d = dst.typed::<f64>();
        let s = x.slice::<f64>();
        for c in 0..2 {
            for r in 0..100 {
                assert_eq!(d[c * 300 + 100 + r], -s[c * 100 + r]);
            }
        }
    }
}

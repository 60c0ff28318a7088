//! Randomized property tests for map-chain fusion: arbitrary chains of
//! unary / binary / cast links must match the naive oracle
//! (`flashr_testkit::oracle`) **bit for bit** and be bit-identical
//! between the fused and eager engines — a chain runs the same element
//! kernels however far it fuses, so any bit difference is a wiring bug,
//! not a rounding question.

use flashr_core::dtype::DType;
use flashr_core::fm::FM;
use flashr_core::ops::{AggOp, BinaryOp, UnaryOp};
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx};
use flashr_core::trace::TraceLevel;
use flashr_testkit::oracle::{assert_close, assert_same, Mat};
use flashr_testkit::{cases, Rng};

fn ctx(mode: ExecMode, nthreads: usize) -> FlashCtx {
    let cfg = CtxConfig { nthreads, mode, rows_per_part: 64, ..CtxConfig::default() };
    FlashCtx::with_config(cfg, None)
}

/// The oracle's copy of a tall matrix (generated inputs have no other
/// source of values than the engine's own leaf).
fn reference(ctx: &FlashCtx, x: &FM) -> Mat {
    // Column-major rows×cols is row-major cols×rows.
    Mat::from_row_major(x.ncol() as usize, x.nrow() as usize, x.to_vec(ctx)).t()
}

const UNARIES: &[UnaryOp] = &[
    UnaryOp::Abs,
    UnaryOp::Sqrt,
    UnaryOp::Square,
    UnaryOp::Sigmoid,
    UnaryOp::Floor,
    UnaryOp::Neg,
    UnaryOp::Round,
    UnaryOp::Sign,
];

const SCALAR_OPS: &[(BinaryOp, f64)] = &[
    (BinaryOp::Add, 0.5),
    (BinaryOp::Mul, 1.5),
    (BinaryOp::Sub, 0.25),
    (BinaryOp::Div, 2.0),
    (BinaryOp::Max, 0.1),
    (BinaryOp::Min, 3.0),
];

const CASTS: &[DType] = &[DType::F32, DType::I32, DType::I64, DType::F64];

/// Append `len` random element-wise links to `x`, on the engine and on
/// the oracle. `y` is a materialized same-shape operand (exercises
/// chunk-operand links); the predicate arm crosses the U8 dtype boundary
/// mid-chain. Ends on a cast back to F64 so `to_vec` comparisons are
/// uniform (elided when already F64).
fn random_chain(rng: &mut Rng, x: (&FM, &Mat), y: (&FM, &Mat), len: usize) -> (FM, Mat) {
    let (mut cur, mut want) = (x.0.clone(), x.1.clone());
    for _ in 0..len {
        (cur, want) = match rng.below(6) {
            0 => {
                let u = UNARIES[rng.usize(0..UNARIES.len())];
                (cur.unary(u), want.unary(u))
            }
            1 => {
                let (op, s) = SCALAR_OPS[rng.usize(0..SCALAR_OPS.len())];
                let swapped = rng.bool();
                (cur.binary_scalar(op, s, swapped), want.binary_scalar(op, s, swapped))
            }
            2 => {
                let stats: Vec<f64> = (0..cur.ncol()).map(|c| 0.25 + 0.5 * c as f64).collect();
                (cur.sweep_cols(&stats, BinaryOp::Sub), want.sweep_cols(&stats, BinaryOp::Sub))
            }
            3 => {
                let to = CASTS[rng.usize(0..CASTS.len())];
                (cur.cast(to), want.cast(to))
            }
            4 => (cur.binary(BinaryOp::Add, y.0, false), want.binary(BinaryOp::Add, y.1, false)),
            _ => (
                cur.binary_scalar(BinaryOp::Gt, 0.4, false),
                want.binary_scalar(BinaryOp::Gt, 0.4, false),
            ),
        };
    }
    (cur.cast(DType::F64), want.cast(DType::F64))
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// (The name is from when the middle arm was the engine with fusion
/// switched off; the unfused reference is now the oracle, which
/// evaluates op by op.)
#[test]
fn random_chains_bit_identical_fused_vs_unfused_vs_eager() {
    let fused = ctx(ExecMode::CacheFuse, 2);
    let eager = ctx(ExecMode::Eager, 2);
    cases(20, |rng, trial| {
        let trial = trial as u64;
        let x = FM::runif(&fused, 500, 3, -1.0, 1.0, 100 + trial);
        let y = FM::runif(&fused, 500, 3, 0.0, 1.0, 200 + trial).materialize(&fused);
        let (xr, yr) = (reference(&fused, &x), reference(&fused, &y));
        let len = rng.usize(2..9);
        let (chain, want) = random_chain(rng, (&x, &xr), (&y, &yr), len);
        let a = chain.materialize(&fused).to_vec(&fused);
        let c = chain.materialize(&eager).to_vec(&eager);
        // Max/Min against a constant never sees two zeros of opposite sign
        // here, but the oracle's contract leaves that sign free.
        assert_same(&a, &want, true, &format!("trial {trial} fused vs oracle"));
        assert_bits_eq(&a, &c, &format!("trial {trial} fused vs eager"));
    });
}

#[test]
fn random_chains_feeding_sinks_bit_identical() {
    // Sinks accumulate in pass order, so bit-identity across engines
    // needs matching chunking: MemFuse and Eager both run
    // whole-partition steps. Single-threaded so merge order is
    // deterministic too. CacheFuse folds shorter Pcache ranges, so it is
    // held to the oracle's left-to-right sum within the reduction bound.
    let fused = ctx(ExecMode::CacheFuse, 1);
    let mf_fused = ctx(ExecMode::MemFuse, 1);
    let eager = ctx(ExecMode::Eager, 1);
    cases(10, |rng, trial| {
        let trial = trial as u64;
        let x = FM::runif(&fused, 700, 2, 0.0, 1.0, 300 + trial);
        let y = FM::runif(&fused, 700, 2, 0.0, 1.0, 400 + trial).materialize(&fused);
        let (xr, yr) = (reference(&fused, &x), reference(&fused, &y));
        let len = rng.usize(3..8);
        let (chain, want) = random_chain(rng, (&x, &xr), (&y, &yr), len);
        let s_f = chain.sum().value(&fused);
        let what = format!("trial {trial}: fused sum vs oracle");
        assert_close(s_f, want.agg_all(AggOp::Sum), 1400, want.abs_sum(), &what);
        let s_m = chain.clone().sum().value(&mf_fused);
        let s_e = chain.sum().value(&eager);
        assert_eq!(s_m.to_bits(), s_e.to_bits(), "trial {trial}: {s_m} vs {s_e}");
    });
}

#[test]
fn fusion_reduces_chunk_allocations_and_bytes() {
    let fused = ctx(ExecMode::CacheFuse, 2);
    let eager = ctx(ExecMode::Eager, 2);
    let build = |x: &FM| {
        x.binary_scalar(BinaryOp::Mul, 2.0, false)
            .binary_scalar(BinaryOp::Add, 1.0, false)
            .unary(UnaryOp::Sqrt)
            .unary(UnaryOp::Square)
    };
    // A materialized row-major leaf: the chain's base is a chunk copied
    // out of it, so "one chunk per chain per range" is a count above zero.
    let data: Vec<f64> = (0..8000).map(|i| (i % 97) as f64 / 97.0).collect();
    let x = FM::from_row_major(&fused, 2000, 4, &data);
    let want = Mat::from_row_major(2000, 4, data)
        .binary_scalar(BinaryOp::Mul, 2.0, false)
        .binary_scalar(BinaryOp::Add, 1.0, false)
        .unary(UnaryOp::Sqrt)
        .unary(UnaryOp::Square);

    let before = fused.stats().snapshot();
    let vf = build(&x).materialize(&fused).to_vec(&fused);
    let df = before.delta(&fused.stats().snapshot());

    let before = eager.stats().snapshot();
    let ve = build(&x).materialize(&eager).to_vec(&eager);
    let de = before.delta(&eager.stats().snapshot());

    assert_same(&vf, &want, false, "fused vs oracle");
    assert_bits_eq(&vf, &ve, "fused vs eager");
    // 2000 rows at 64 per partition, one Pcache range each: 32 ranges.
    // The four-op chain writes straight into the tall output, so the only
    // chunk a range allocates is the chain's base — not one per node.
    assert_eq!(df.node_chunks, 32, "one chunk per chain per range");
    assert_eq!(df.fused_chains, 32);
    // Four nodes' worth of 4-column f64 chunks never existed: the three
    // interior links and the root.
    assert_eq!(df.fused_saved_bytes, 4 * 2000 * 4 * 8);
    // Eager runs the four ops as four passes of one-op kernels, each
    // writing a whole matrix for the next to read in place: no chain, and
    // the data crosses memory four times instead of once.
    assert_eq!((df.passes, de.passes), (1, 4));
    assert_eq!(de.parts, 4 * df.parts);
    assert_eq!(de.fused_chains, 0, "a one-op kernel is not a chain");
    assert_eq!(de.node_chunks, 32, "only the row-major leaf is copied out");
}

#[test]
fn chain_crossing_predicate_boundary_fuses() {
    // gt → U8, cast back up, scale: three links spanning two dtype
    // boundaries compile into one kernel.
    let fused = ctx(ExecMode::CacheFuse, 2);
    let x = FM::runif(&fused, 1000, 3, 0.0, 1.0, 7);
    let chain = x.binary_scalar(BinaryOp::Gt, 0.5, false).cast(DType::F64).binary_scalar(
        BinaryOp::Mul,
        3.0,
        false,
    );
    let want = reference(&fused, &x)
        .binary_scalar(BinaryOp::Gt, 0.5, false)
        .cast(DType::F64)
        .binary_scalar(BinaryOp::Mul, 3.0, false);

    let before = fused.stats().snapshot();
    let a = chain.materialize(&fused).to_vec(&fused);
    let d = before.delta(&fused.stats().snapshot());
    assert!(d.fused_chains > 0, "predicate chain must fuse");
    assert_same(&a, &want, false, "predicate chain");
}

#[test]
fn chain_root_feeding_both_tall_and_sink() {
    // The root has two consumers (tall target + sink input); the chain
    // still fuses — only *interior* links must be single-consumer — but
    // the direct-to-tall shortcut must not steal the sink's chunk.
    let fused = ctx(ExecMode::CacheFuse, 2);
    let x = FM::runif(&fused, 900, 2, 0.0, 1.0, 13);
    let build = |x: &FM| {
        x.binary_scalar(BinaryOp::Add, 0.25, false).unary(UnaryOp::Sqrt).binary_scalar(
            BinaryOp::Mul,
            0.5,
            false,
        )
    };
    let chain = build(&x);
    let want = reference(&fused, &x)
        .binary_scalar(BinaryOp::Add, 0.25, false)
        .unary(UnaryOp::Sqrt)
        .binary_scalar(BinaryOp::Mul, 0.5, false);

    let outs = FM::materialize_multi(&fused, &[&chain, &chain.sum()]);
    assert_same(&outs[0].to_vec(&fused), &want, false, "tall output");
    assert_close(
        outs[1].value(&fused),
        want.agg_all(AggOp::Sum),
        1800,
        want.abs_sum(),
        "sink output",
    );
    // The sink alone folds the same chunks in the same order.
    assert_eq!(outs[1].value(&fused).to_bits(), build(&x).sum().value(&fused).to_bits());
}

#[test]
fn lazy_second_operand_fuses_into_its_consumer() {
    // `sqrt(x) + square(x)`: the `Add`'s second operand is computed in the
    // same pass. It is an auxiliary input of the kernel, not a barrier, so
    // the `Add` and its spine (`sqrt`) run as one two-op chain.
    let data: Vec<f64> = (0..600).map(|i| (i % 41) as f64 * 0.37).collect();
    let want = Mat::from_row_major(300, 2, data.clone());
    let want = want.unary(UnaryOp::Sqrt).binary(BinaryOp::Add, &want.unary(UnaryOp::Square), false);
    for mode in [ExecMode::Eager, ExecMode::MemFuse, ExecMode::CacheFuse] {
        let ctx = ctx(mode, 2).with_trace(TraceLevel::Op);
        let x = FM::from_row_major(&ctx, 300, 2, &data);
        let total = (&x.sqrt() + &x.square()).sum().value(&ctx);
        assert_close(total, want.agg_all(AggOp::Sum), 600, want.abs_sum(), &format!("{mode:?}"));
        if mode == ExecMode::Eager {
            continue; // one op per pass by definition
        }
        let passes = ctx.tracer().passes();
        assert_eq!(passes.len(), 1, "{mode:?}");
        let add = passes[0]
            .ops
            .iter()
            .find(|o| o.label.contains("mapply:Add"))
            .expect("the Add's kernel");
        assert_eq!(add.label, "chain[sapply:Sqrt->mapply:Add]", "{mode:?}");
        assert_eq!(add.chain_len, 2, "{mode:?}");
        let square =
            passes[0].ops.iter().find(|o| o.label == "sapply:Square").expect("the aux kernel");
        assert_eq!(
            square.chain_len, 0,
            "a one-op kernel keeps its node's label and is not a chain"
        );
    }
}

//! Randomized property tests for map-chain fusion: arbitrary chains of
//! unary / binary / cast links must be **bit-identical** between
//! `fuse_chains` on and off and between the fused and eager engines —
//! the fused kernels reuse the interpreter's element kernels, so any
//! bit difference is a wiring bug, not a rounding question.

use flashr_core::dtype::DType;
use flashr_core::fm::FM;
use flashr_core::ops::{BinaryOp, UnaryOp};
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx};
use flashr_testkit::{cases, Rng};

fn ctx(mode: ExecMode, nthreads: usize, fuse_chains: bool) -> FlashCtx {
    let cfg = CtxConfig { nthreads, mode, rows_per_part: 64, fuse_chains, ..CtxConfig::default() };
    FlashCtx::with_config(cfg, None)
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

/// Append `len` random element-wise links to `x`. `y` is a materialized
/// same-shape operand (exercises chunk-operand links); the predicate arm
/// crosses the U8 dtype boundary mid-chain. Ends on a cast back to F64
/// so `to_vec` comparisons are uniform (elided when already F64).
fn random_chain(rng: &mut Rng, x: &FM, y: &FM, len: usize) -> FM {
    let mut cur = x.clone();
    for _ in 0..len {
        cur = match rng.below(6) {
            0 => {
                let u = UNARIES[rng.usize(0..UNARIES.len())];
                cur.unary(u)
            }
            1 => {
                let (op, s) = SCALAR_OPS[rng.usize(0..SCALAR_OPS.len())];
                cur.binary_scalar(op, s, rng.bool())
            }
            2 => {
                let stats: Vec<f64> = (0..cur.ncol()).map(|c| 0.25 + 0.5 * c as f64).collect();
                cur.sweep_cols(&stats, BinaryOp::Sub)
            }
            3 => cur.cast(CASTS[rng.usize(0..CASTS.len())]),
            4 => cur.binary(BinaryOp::Add, y, false),
            _ => cur.binary_scalar(BinaryOp::Gt, 0.4, false),
        };
    }
    cur.cast(DType::F64)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

#[test]
fn random_chains_bit_identical_fused_vs_unfused_vs_eager() {
    let fused = ctx(ExecMode::CacheFuse, 2, true);
    let unfused = ctx(ExecMode::CacheFuse, 2, false);
    let eager = ctx(ExecMode::Eager, 2, true); // fuse flag is inert in eager mode
    cases(20, |rng, trial| {
        let trial = trial as u64;
        let x = FM::runif(&fused, 500, 3, -1.0, 1.0, 100 + trial);
        let y = FM::runif(&fused, 500, 3, 0.0, 1.0, 200 + trial).materialize(&fused);
        let len = rng.usize(2..9);
        let chain = random_chain(rng, &x, &y, len);
        let a = chain.materialize(&fused).to_vec(&fused);
        let b = chain.materialize(&unfused).to_vec(&unfused);
        let c = chain.materialize(&eager).to_vec(&eager);
        assert_bits_eq(&a, &b, &format!("trial {trial} fused vs unfused"));
        assert_bits_eq(&a, &c, &format!("trial {trial} fused vs eager"));
    });
}

#[test]
fn random_chains_feeding_sinks_bit_identical() {
    // Sinks accumulate in pass order, so bit-identity across engines
    // needs matching chunking: fused-vs-unfused share the Pcache step
    // (fusion does not change it by design), and MemFuse-vs-Eager both
    // run whole-partition steps. Single-threaded so merge order is
    // deterministic too.
    let fused = ctx(ExecMode::CacheFuse, 1, true);
    let unfused = ctx(ExecMode::CacheFuse, 1, false);
    let mf_fused = ctx(ExecMode::MemFuse, 1, true);
    let eager = ctx(ExecMode::Eager, 1, false);
    cases(10, |rng, trial| {
        let trial = trial as u64;
        let x = FM::runif(&fused, 700, 2, 0.0, 1.0, 300 + trial);
        let y = FM::runif(&fused, 700, 2, 0.0, 1.0, 400 + trial).materialize(&fused);
        let len = rng.usize(3..8);
        let chain = random_chain(rng, &x, &y, len);
        let s_f = chain.sum().value(&fused);
        let s_u = chain.sum().value(&unfused);
        assert_eq!(s_f.to_bits(), s_u.to_bits(), "trial {trial}: {s_f} vs {s_u}");
        let s_m = chain.clone().sum().value(&mf_fused);
        let s_e = chain.sum().value(&eager);
        assert_eq!(s_m.to_bits(), s_e.to_bits(), "trial {trial}: {s_m} vs {s_e}");
    });
}

#[test]
fn fusion_reduces_chunk_allocations_and_bytes() {
    let fused = ctx(ExecMode::CacheFuse, 2, true);
    let unfused = ctx(ExecMode::CacheFuse, 2, false);
    let build = |x: &FM| {
        x.binary_scalar(BinaryOp::Mul, 2.0, false)
            .binary_scalar(BinaryOp::Add, 1.0, false)
            .unary(UnaryOp::Sqrt)
            .unary(UnaryOp::Square)
    };
    let x = FM::runif(&fused, 2000, 4, 0.0, 1.0, 42);

    let before = fused.stats().snapshot();
    let vf = build(&x).materialize(&fused).to_vec(&fused);
    let df = before.delta(&fused.stats().snapshot());

    let before = unfused.stats().snapshot();
    let vu = build(&x).materialize(&unfused).to_vec(&unfused);
    let du = before.delta(&unfused.stats().snapshot());

    assert_bits_eq(&vf, &vu, "fused vs unfused");
    assert!(
        df.node_chunks < du.node_chunks,
        "fused must allocate fewer chunks: {} vs {}",
        df.node_chunks,
        du.node_chunks
    );
    assert!(
        df.node_chunk_bytes < du.node_chunk_bytes,
        "fused must move fewer bytes: {} vs {}",
        df.node_chunk_bytes,
        du.node_chunk_bytes
    );
    assert!(df.fused_chains > 0, "chains must actually run fused");
    assert!(df.fused_saved_bytes > 0);
    assert_eq!(du.fused_chains, 0, "fuse_chains=false must not fuse");
    assert_eq!(du.fused_saved_bytes, 0);
}

#[test]
fn chain_crossing_predicate_boundary_fuses() {
    // gt → U8, cast back up, scale: three links spanning two dtype
    // boundaries compile into one kernel.
    let fused = ctx(ExecMode::CacheFuse, 2, true);
    let unfused = ctx(ExecMode::CacheFuse, 2, false);
    let x = FM::runif(&fused, 1000, 3, 0.0, 1.0, 7);
    let chain = x.binary_scalar(BinaryOp::Gt, 0.5, false).cast(DType::F64).binary_scalar(
        BinaryOp::Mul,
        3.0,
        false,
    );

    let before = fused.stats().snapshot();
    let a = chain.materialize(&fused).to_vec(&fused);
    let d = before.delta(&fused.stats().snapshot());
    assert!(d.fused_chains > 0, "predicate chain must fuse");

    let b = chain.materialize(&unfused).to_vec(&unfused);
    assert_bits_eq(&a, &b, "predicate chain");
}

#[test]
fn chain_root_feeding_both_tall_and_sink() {
    // The root has two consumers (tall target + sink input); the chain
    // still fuses — only *interior* links must be single-consumer — but
    // the direct-to-tall shortcut must not steal the sink's chunk.
    let fused = ctx(ExecMode::CacheFuse, 2, true);
    let unfused = ctx(ExecMode::CacheFuse, 2, false);
    let x = FM::runif(&fused, 900, 2, 0.0, 1.0, 13);
    let chain = x.binary_scalar(BinaryOp::Add, 0.25, false).unary(UnaryOp::Sqrt).binary_scalar(
        BinaryOp::Mul,
        0.5,
        false,
    );
    let total = chain.sum();

    let outs_f = FM::materialize_multi(&fused, &[&chain, &total]);
    let outs_u = FM::materialize_multi(&unfused, &[&chain, &total]);
    assert_bits_eq(&outs_f[0].to_vec(&fused), &outs_u[0].to_vec(&unfused), "tall output");
    assert_eq!(
        outs_f[1].value(&fused).to_bits(),
        outs_u[1].value(&unfused).to_bits(),
        "sink output"
    );
}

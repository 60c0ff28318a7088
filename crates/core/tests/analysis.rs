//! Static plan analyzer tests: shape/dtype inference vs actual execution,
//! CSE equivalence and pass reduction, rewrite idempotence, pre-flight
//! rejection of forged plans, and the lint catalogue.

use flashr_core::analysis::{cse, infer, promote_denied, PlanErrorKind};
use flashr_core::dag::{MapInput, MapOp, Node, NodeKind};
use flashr_core::dtype::DType;
use flashr_core::exec::{Target, TargetStorage};
use flashr_core::fm::FM;
use flashr_core::json;
use flashr_core::ops::{AggOp, BinaryOp, UnaryOp};
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx, StorageClass};
use flashr_linalg::Dense;
use flashr_safs::SafsConfig;
use flashr_testkit::cases;
use flashr_testkit::oracle::{assert_close, assert_same, Mat};
use std::sync::Arc;

fn im_ctx() -> FlashCtx {
    FlashCtx::with_config(CtxConfig { rows_per_part: 64, nthreads: 4, ..Default::default() }, None)
}

fn em_ctx(tag: &str) -> FlashCtx {
    let dir =
        std::env::temp_dir().join(format!("flashr-analysis-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let safs = flashr_safs::Safs::open(SafsConfig::striped_under(dir, 2)).unwrap();
    FlashCtx::with_config(
        CtxConfig {
            rows_per_part: 64,
            nthreads: 2,
            storage: StorageClass::Em,
            ..Default::default()
        },
        Some(safs),
    )
}

fn tall_node(fm: &FM) -> Arc<Node> {
    match fm {
        FM::Tall { node, .. } => node.clone(),
        _ => panic!("expected a tall matrix"),
    }
}

/// Property (a): for randomized DAGs, the analyzer's inferred signature
/// matches both the recorded node signature and the shape the eager
/// engine actually produces.
#[test]
fn inference_matches_eager_execution_shapes() {
    let ctx = im_ctx().with_mode(ExecMode::Eager);
    cases(12, |rng, seed| {
        let seed = seed as u64;
        let nrows = 64 * (1 + rng.below(4));
        let ncols = (1 + rng.below(3)) as usize;
        // Pool of same-height tall matrices the generator draws operands from.
        let mut pool: Vec<FM> = vec![FM::runif(&ctx, nrows, ncols, 0.5, 2.0, 1000 + seed)];
        for step in 0..10 {
            let a = pool[rng.below(pool.len() as u64) as usize].clone();
            let next = match rng.below(6) {
                0 => a.abs(),
                1 => a.abs().sqrt(),
                2 => &a + ((step + 1) as f64),
                3 => &a * 0.5,
                4 => a.row_sums(),
                5 => {
                    let b = pool[rng.below(pool.len() as u64) as usize].clone();
                    // Element-wise needs matching widths (or a 1-col rhs).
                    if b.ncol() == a.ncol() || b.ncol() == 1 {
                        &a + &b
                    } else {
                        &b + &a.row_sums()
                    }
                }
                _ => unreachable!(),
            };
            pool.push(next);
        }
        for fm in &pool {
            let node = tall_node(fm);
            // The plan passes the full verifier...
            fm.check(&ctx).expect("randomized DAG must verify");
            // ...per-node inference agrees with the recorded signature...
            let sig = infer::infer(&node).expect("inference succeeds");
            assert_eq!((sig.nrows, sig.ncols, sig.dtype), (node.nrows, node.ncols, node.dtype));
            // ...and with what the eager engine actually materializes.
            let m = fm.materialize(&ctx);
            assert_eq!(m.nrow(), sig.nrows, "seed {seed}: rows diverge from inference");
            assert_eq!(m.ncol(), sig.ncols as u64, "seed {seed}: cols diverge from inference");
        }
    });
}

/// Property (b): the CSE rewrite changes no bit of the results (held to
/// the oracle), and a program that spells a subtree twice costs what the
/// program that spells it once costs — in eager passes and EM bytes read.
#[test]
fn cse_is_bit_identical_and_saves_passes_and_bytes() {
    let em = em_ctx("cse-ab").with_mode(ExecMode::Eager);
    let x = FM::runif(&em, 1000, 2, 0.0, 1.0, 42).materialize(&em);

    let run = |build: &dyn Fn() -> FM| {
        let before_exec = em.stats().snapshot();
        let before_io = em.safs().unwrap().stats_snapshot();
        let total = build().sum().value(&em);
        let tall = build().to_vec(&em);
        let exec = before_exec.delta(&em.stats().snapshot());
        let io = before_io.delta(&em.safs().unwrap().stats_snapshot());
        (total, tall, exec.passes, io.read_bytes)
    };
    let twice = || &x.sqrt() + &x.sqrt();
    let once = || {
        let s = x.sqrt();
        &s + &s
    };

    let report = twice().check(&em).expect("the plan verifies");
    assert_eq!(report.merged, 1, "the second sqrt(x) merges into the first");
    assert_eq!(report.nodes_before, report.nodes_after + 1);

    let (t_twice, v_twice, passes_twice, read_twice) = run(&twice);
    let (t_once, v_once, passes_once, read_once) = run(&once);

    let xr = Mat::from_row_major(2, 1000, x.to_vec(&em)).t();
    let want = xr.unary(UnaryOp::Sqrt).binary(BinaryOp::Add, &xr.unary(UnaryOp::Sqrt), false);
    assert_same(&v_twice, &want, false, "CSE'd plan vs oracle");
    assert_close(t_twice, want.agg_all(AggOp::Sum), 2000, want.abs_sum(), "CSE'd sum vs oracle");
    assert_eq!(t_twice.to_bits(), t_once.to_bits(), "CSE must be bit-identical");
    assert_eq!(v_twice, v_once, "CSE must be bit-identical");
    // sqrt, add and the sink for the sum; sqrt and add for the tall: the
    // merged sqrt is one pass and one read of `x` less in each.
    assert_eq!(passes_once, 5);
    assert_eq!(passes_twice, passes_once, "the duplicate subtree must cost no pass");
    assert_eq!(read_twice, read_once, "the duplicate subtree must cost no byte");
}

/// Property (c): the rewrite is idempotent — a second application finds
/// nothing left to merge or collapse.
#[test]
fn rewrite_is_idempotent() {
    let ctx = im_ctx();
    let x = FM::runif(&ctx, 256, 3, 0.0, 1.0, 7);
    let y = &x.sqrt() + &x.sqrt();
    let z = &y.abs() * 2.0;
    let targets = vec![
        Target::Tall { node: tall_node(&z), storage: TargetStorage::Default },
        Target::Sink(match &y.sum() {
            FM::Sink { node } => node.clone(),
            _ => unreachable!(),
        }),
    ];

    let first = cse::rewrite(&targets);
    assert!(first.merged > 0, "the duplicated sqrt must merge");
    let second = cse::rewrite(&first.targets);
    assert_eq!(second.merged, 0, "second rewrite must find nothing to merge");
    assert_eq!(second.collapsed, 0, "second rewrite must find nothing to collapse");
    assert_eq!(second.nodes_before, second.nodes_after);
    assert_eq!(first.nodes_after, second.nodes_after);
}

/// A forged mapply with disagreeing operand widths is rejected by
/// `FM::check` with a typed error naming the node — and without reading
/// a single partition from the SSDs.
#[test]
fn check_rejects_mismatched_mapply_before_any_io() {
    let em = em_ctx("badmap");
    let a = FM::runif(&em, 512, 3, 0.0, 1.0, 1).materialize(&em);
    let b = FM::runif(&em, 512, 2, 0.0, 1.0, 2).materialize(&em);
    let forged = Node::raw(
        NodeKind::Map {
            op: MapOp::Binary { op: BinaryOp::Add, swapped: false },
            inputs: vec![MapInput::Node(tall_node(&a)), MapInput::Node(tall_node(&b))],
        },
        512,
        3,
        DType::F64,
    );
    let forged_id = forged.id;
    let fm = FM::Tall { node: forged, transposed: false };

    let before = em.safs().unwrap().stats_snapshot();
    let before_passes = em.stats().snapshot();
    let err = fm.check(&em).expect_err("mismatched mapply dims must be rejected");
    assert_eq!(err.node, forged_id, "error must name the forged node");
    assert_eq!(err.kind, PlanErrorKind::ShapeMismatch);
    assert!(err.detail.contains("mapply"), "got: {}", err.detail);
    let io = before.delta(&em.safs().unwrap().stats_snapshot());
    assert_eq!(io.read_bytes, 0, "verification must not read any partition");
    assert_eq!(before_passes.delta(&em.stats().snapshot()).passes, 0);
}

/// A forged `inner.prod` with a bad inner dimension is likewise caught
/// up front.
#[test]
fn check_rejects_bad_inner_prod_dimension() {
    let ctx = im_ctx();
    let x = FM::runif(&ctx, 256, 3, 0.0, 1.0, 3);
    // 3-column input against a 4-row small operand: inner dim mismatch.
    let b = Arc::new(Dense::filled(4, 2, 1.0));
    let forged = Node::raw(
        NodeKind::Map {
            op: MapOp::InnerProd { b, f1: BinaryOp::Mul, f2: BinaryOp::Add },
            inputs: vec![MapInput::Node(tall_node(&x))],
        },
        256,
        2,
        DType::F64,
    );
    let forged_id = forged.id;
    let fm = FM::Tall { node: forged, transposed: false };
    let err = fm.check(&ctx).expect_err("bad inner dimension must be rejected");
    assert_eq!(err.node, forged_id);
    assert_eq!(err.kind, PlanErrorKind::ShapeMismatch);
    assert!(err.detail.contains("inner.prod"), "got: {}", err.detail);
}

/// A forged non-associative `inner.prod` combiner is a BadOperand.
#[test]
fn check_rejects_non_associative_combiner() {
    let ctx = im_ctx();
    let x = FM::runif(&ctx, 256, 3, 0.0, 1.0, 3);
    let b = Arc::new(Dense::filled(3, 2, 1.0));
    let forged = Node::raw(
        NodeKind::Map {
            op: MapOp::InnerProd { b, f1: BinaryOp::Mul, f2: BinaryOp::Sub },
            inputs: vec![MapInput::Node(tall_node(&x))],
        },
        256,
        2,
        DType::F64,
    );
    let forged_id = forged.id;
    let fm = FM::Tall { node: forged, transposed: false };
    let err = fm.check(&ctx).expect_err("non-associative combiner must be rejected");
    assert_eq!(err.node, forged_id);
    assert_eq!(err.kind, PlanErrorKind::BadOperand);
}

/// Operating on an unmaterialized sink yields a typed NotMaterialized
/// error from the fallible API (and a panic with the same rendering from
/// the infallible one).
#[test]
fn sink_misuse_is_a_typed_error() {
    let ctx = im_ctx();
    let s = FM::runif(&ctx, 256, 2, 0.0, 1.0, 4).sum();
    let err = s.try_cast(DType::F32).expect_err("casting a sink must fail");
    assert_eq!(err.kind, PlanErrorKind::NotMaterialized);
    let err = s.try_binary_scalar(BinaryOp::Add, 1.0, false).expect_err("sink + scalar must fail");
    assert_eq!(err.kind, PlanErrorKind::NotMaterialized);
    let err = s.try_unary(UnaryOp::Sqrt).expect_err("sqrt of a sink must fail");
    assert_eq!(err.kind, PlanErrorKind::NotMaterialized);
    let rendered = err.to_string();
    assert!(rendered.contains("not-materialized"), "got: {rendered}");
}

/// Lint catalogue: W001 reused-but-uncached, W002 oversized broadcast
/// row vector, W003 lossy cast chain.
#[test]
fn lints_fire_on_fusion_unfriendly_patterns() {
    let ctx = im_ctx();

    // W001: an uncached interior node feeding two consumers.
    let x = FM::runif(&ctx, 256, 2, 0.0, 1.0, 5);
    let shared = x.sqrt();
    let reused = &shared + &shared;
    let report = reused.check(&ctx).unwrap();
    assert!(report.lints.iter().any(|l| l.code == "W001"), "expected W001, got {:?}", report.lints);
    // set.cache silences it.
    shared.set_cache(true);
    let report = reused.check(&ctx).unwrap();
    assert!(!report.lints.iter().any(|l| l.code == "W001"));

    // W002: a broadcast row vector far beyond the Pcache-friendly size.
    let wide = FM::constant(256, 20_000, 1.0);
    let row = FM::Small(Dense::filled(1, 20_000, 2.0));
    let broadcast = &wide + &row;
    let report = broadcast.check(&ctx).unwrap();
    assert!(report.lints.iter().any(|l| l.code == "W002"), "expected W002, got {:?}", report.lints);

    // W003: a lossy f64 → i32 → f64 chain survives the rewrite and lints.
    let chained = x.cast(DType::I32).cast(DType::F64);
    let report = chained.check(&ctx).unwrap();
    assert!(report.lints.iter().any(|l| l.code == "W003"), "expected W003, got {:?}", report.lints);
}

/// The footprint estimate tracks leaf bytes and target bytes.
#[test]
fn footprint_estimate_reflects_plan_bytes() {
    let ctx = im_ctx();
    let x = FM::runif(&ctx, 1024, 2, 0.0, 1.0, 6).materialize(&ctx);
    let report = (&x + 1.0).check(&ctx).unwrap();
    let leaf_bytes = 1024 * 2 * 8;
    assert_eq!(report.footprint.read_bytes, leaf_bytes);
    assert_eq!(report.footprint.write_bytes, leaf_bytes, "the tall target is written back");
    assert_eq!(report.footprint.gen_bytes, 0);
    assert!(report.footprint.working_set_bytes > 0);

    // A generated input counts as generator bytes, not reads.
    let report = (&FM::constant(1024, 2, 1.0) + 1.0).sum().check(&ctx).unwrap();
    assert_eq!(report.footprint.read_bytes, 0);
    assert_eq!(report.footprint.gen_bytes, leaf_bytes);
    assert_eq!(report.footprint.write_bytes, 0, "a sink writes no tall output");
}

/// Cast simplification: a cast to the node's own dtype disappears, and
/// lossless widening chains collapse to a single cast.
#[test]
fn redundant_casts_collapse() {
    let ctx = im_ctx();
    let x = FM::runif(&ctx, 256, 2, 0.0, 1.0, 8);

    // The FM layer already refuses to build identity casts, so forge one
    // (as a corrupted plan would contain) and let the rewriter erase it.
    let forged = Node::raw(
        NodeKind::Map { op: MapOp::Cast(DType::F64), inputs: vec![MapInput::Node(tall_node(&x))] },
        256,
        2,
        DType::F64,
    );
    let fm = FM::Tall { node: forged, transposed: false };
    let report = (&fm + 1.0).check(&ctx).unwrap();
    assert!(report.collapsed >= 1, "identity cast must collapse: {report:?}");

    // A lossless widening chain (u8 → i32 → i64) folds to a single cast.
    let mask = x.gt(&FM::constant(256, 2, 0.5)); // u8 predicate
    let chained = mask.cast(DType::I32).cast(DType::I64);
    let report = chained.check(&ctx).unwrap();
    assert!(report.collapsed >= 1, "lossless cast chain must collapse: {report:?}");
    assert!(
        !report.lints.iter().any(|l| l.code == "W003"),
        "a lossless chain is not W003 material: {:?}",
        report.lints
    );

    // Results survive the collapse unchanged.
    let a = chained.cast(DType::F64).sum().value(&ctx);
    let b = mask.cast(DType::I64).cast(DType::F64).sum().value(&ctx);
    assert_eq!(a.to_bits(), b.to_bits());
}

/// `FM::explain` carries the analyzer summary so plans can be inspected
/// without running them.
#[test]
fn explain_includes_analysis_summary() {
    let ctx = im_ctx();
    let x = FM::runif(&ctx, 256, 2, 0.0, 1.0, 9);
    let text = (&x.sqrt() + &x.sqrt()).sum().explain(&ctx);
    assert!(text.contains("analysis:"), "missing analysis summary:\n{text}");
    assert!(text.contains("footprint:"), "missing footprint line:\n{text}");
    assert!(text.contains("merged"), "missing CSE counts:\n{text}");
}

/// Multi-sink materialization still works with the analyzer in the loop,
/// and `set.cache` handles installed on pre-rewrite nodes stay usable.
#[test]
fn cache_handles_survive_the_rewrite() {
    let ctx = im_ctx();
    let x = FM::runif(&ctx, 512, 2, 0.0, 1.0, 10);
    let y = x.sqrt();
    let dup = x.sqrt(); // merges with y under CSE
    dup.set_cache(true);
    let s = (&y + &dup).sum().value(&ctx);
    assert!(s.is_finite());
    // The duplicate handle's cache request was honoured through its
    // canonical representative.
    match &dup {
        FM::Tall { node, .. } => assert!(node.cached().is_some(), "cache must be installed"),
        _ => unreachable!(),
    }
}

/// W004: eager mode re-reads an EM leaf in several passes while the
/// page-cache budget cannot hold it; a sufficient memory budget (or a
/// fused mode) silences the lint.
#[test]
fn w004_flags_em_rescans_beyond_cache_budget() {
    let ctx = em_ctx("w004");
    let eager = ctx.with_mode(ExecMode::Eager);
    // An EM leaf consumed twice: two eager passes, two device scans.
    let x = FM::runif(&eager, 1024, 4, 0.0, 1.0, 2).materialize(&eager);
    let reused = &x.sqrt() + &x.square();
    let report = reused.check(&eager).unwrap();
    assert!(
        report.lints.iter().any(|l| l.code == "W004"),
        "expected W004 with no cache budget, got {:?}",
        report.lints
    );

    // Same plan under a budget that holds the leaf: no W004.
    let budgeted = eager.with_mem_budget(flashr_core::session::MemBudget::new(64 * 1024 * 1024));
    let x2 = FM::runif(&budgeted, 1024, 4, 0.0, 1.0, 2).materialize(&budgeted);
    let reused2 = &x2.sqrt() + &x2.square();
    let report = reused2.check(&budgeted).unwrap();
    assert!(
        !report.lints.iter().any(|l| l.code == "W004"),
        "a sufficient cache budget must silence W004: {:?}",
        report.lints
    );

    // Fused mode reads the leaf once per materialization: no W004.
    let report = reused.check(&ctx).unwrap();
    assert!(!report.lints.iter().any(|l| l.code == "W004"));
}

/// `promote_denied` is the whole deny policy: only listed codes are
/// promoted, `ALL` lists every code, and the error names the lint's node.
#[test]
fn denied_lints_become_plan_errors_on_their_node() {
    let ctx = im_ctx();
    let x = FM::runif(&ctx, 256, 2, 0.0, 1.0, 5);
    let shared = x.sqrt();
    let mut lints = (&shared + &shared).check(&ctx).unwrap().lints;
    lints.extend(x.cast(DType::I32).cast(DType::F64).check(&ctx).unwrap().lints);
    let codes: Vec<&str> = lints.iter().map(|l| l.code).collect();
    assert_eq!(codes, ["W001", "W003"]);
    let deny = |codes: &[&str]| {
        let denied: Vec<String> = codes.iter().map(|c| c.to_string()).collect();
        promote_denied(&lints, &denied)
    };

    let e = deny(&["W001"]).unwrap_err();
    assert_eq!(e.kind, PlanErrorKind::LintDenied);
    assert_eq!((e.node, e.op.as_str()), (tall_node(&shared).id, "W001"));
    // The list is consulted, not just "any lint fired".
    assert_eq!(deny(&["W003"]).unwrap_err().op, "W003");
    assert!(deny(&["W002", "W004"]).is_ok());
    assert!(deny(&[]).is_ok(), "an empty list promotes nothing");
    for l in &lints {
        let e = promote_denied(std::slice::from_ref(l), &["ALL".to_string()]).unwrap_err();
        assert_eq!((e.node, e.op.as_str()), (l.node, l.code), "ALL promotes every code");
    }
}

/// One deny path: under `FLASHR_DENY_LINTS=W001`, `FM::check`,
/// `FM::check_json` and `materialize` refuse the same plan with the same
/// error, and all three accept a plan without the lint. The variable is
/// only ever set on a child process (this test, re-run alone).
#[test]
fn deny_lints_env_reaches_check_check_json_and_materialize() {
    const CHILD: &str = "DENY_LINTS_TEST_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "deny_lints_env_reaches_check_check_json_and_materialize"])
            .env("FLASHR_DENY_LINTS", "w001")
            .env(CHILD, "1")
            .output()
            .expect("re-run this test binary");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success() && text.contains("1 passed"), "child failed:\n{text}");
        return;
    }
    let ctx = im_ctx();
    let x = FM::runif(&ctx, 256, 2, 0.0, 1.0, 5);
    let shared = x.sqrt();
    let reused = &shared + &shared;

    let err = reused.check(&ctx).unwrap_err();
    assert_eq!((err.kind, err.node), (PlanErrorKind::LintDenied, tall_node(&shared).id));
    let v = json::parse(&reused.check_json(&ctx)).expect("strict JSON");
    assert_eq!(v["ok"].as_bool(), Some(false));
    assert_eq!(v["error"]["kind"].as_str(), Some("lint-denied"));
    assert_eq!(v["error"]["node"].as_u64(), Some(err.node));
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reused.materialize(&ctx)))
        .unwrap_err();
    assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));

    let clean = x.sqrt().sum();
    assert!(clean.check(&ctx).is_ok());
    assert!(clean.check_json(&ctx).starts_with("{\"ok\":true"));
    assert!(clean.value(&ctx).is_finite());
}

/// Property: `FM::check_json` always emits strict JSON. Randomized
/// chains — including non-finite scalar constants, reuse diamonds,
/// reductions and gramians, on both in-memory and EM contexts — must
/// parse under `json::parse` (which rejects bare `NaN`/`Infinity` tokens,
/// so every float either renders finite or as `null`), carry the
/// `report.lints` / `report.footprint` sections, and keep the
/// footprint's key set stable.
#[test]
fn check_json_round_trips_through_the_strict_reader() {
    const FOOTPRINT_KEYS: [&str; 4] =
        ["gen_bytes", "read_bytes", "working_set_bytes", "write_bytes"];
    let im = im_ctx();
    let em = em_ctx("check-json");
    let consts = [0.5, -1.5, f64::NAN, f64::INFINITY];
    cases(24, |rng, case| {
        let ctx = if case % 2 == 0 { &im } else { &em };
        let x = FM::rnorm(ctx, 256, 4, 0.0, 1.0, case as u64 + 1).materialize(ctx);
        let mut y = &x + 0.0;
        for _ in 0..1 + rng.below(5) {
            y = match rng.below(4) {
                0 => &y + consts[rng.below(4) as usize],
                1 => &y * consts[rng.below(4) as usize],
                2 => y.abs(),
                _ => y.sqrt(),
            };
        }
        let fm = match rng.below(4) {
            0 => y.sum(),
            1 => y.crossprod(),
            2 => &(&y * 2.0) + &y,
            _ => y,
        };
        let doc = fm.check_json(ctx);
        let v = json::parse(&doc)
            .unwrap_or_else(|e| panic!("case {case}: check_json is not strict JSON ({e}): {doc}"));
        assert_eq!(v["ok"].as_bool(), Some(true), "case {case}: {doc}");
        for key in ["nodes_before", "nodes_after", "merged", "collapsed", "lints", "footprint"] {
            assert!(v["report"].get(key).is_some(), "case {case}: report lost key {key}");
        }
        for lint in v["report"]["lints"].as_array().expect("lints is an array") {
            for key in ["code", "node", "message"] {
                assert!(lint.get(key).is_some(), "case {case}: lint lost key {key}");
            }
        }
        let json::Value::Object(fp) = &v["report"]["footprint"] else {
            panic!("case {case}: no footprint")
        };
        let got: Vec<&str> = fp.keys().map(|s| s.as_str()).collect();
        assert_eq!(got, FOOTPRINT_KEYS, "case {case}: footprint key set drifted");
    });
}

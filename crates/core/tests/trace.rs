//! Integration tests for the execution tracing layer: pass counters
//! across the Fig. 10 engine modes, `explain()` rendering, trace-level
//! gating, and the JSON metrics export.

use flashr_core::fm::FM;
use flashr_core::ops::{BinaryOp, UnaryOp};
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx, StorageClass};
use flashr_core::trace::TraceLevel;
use flashr_safs::SafsConfig;

fn ctx_with(mode: ExecMode, trace: TraceLevel) -> FlashCtx {
    let cfg = CtxConfig { nthreads: 2, mode, rows_per_part: 64, trace, ..CtxConfig::default() };
    FlashCtx::with_config(cfg, None)
}

/// A 4-op DAG over one generated leaf: gen -> x2 -> +1 -> sqrt, then a
/// full-sum sink.
fn four_op_sum(ctx: &FlashCtx) -> f64 {
    let x = FM::runif(ctx, 1000, 4, 0.0, 1.0, 7);
    let y = x
        .binary_scalar(BinaryOp::Mul, 2.0, false)
        .binary_scalar(BinaryOp::Add, 1.0, false)
        .unary(UnaryOp::Sqrt);
    y.sum().value(ctx)
}

#[test]
fn pass_counters_across_engine_modes() {
    // Same DAG under all three Fig. 10 configurations; results agree and
    // the pass counters expose the engines' different data movement.
    let fused = ctx_with(ExecMode::CacheFuse, TraceLevel::Off);
    let memfuse = ctx_with(ExecMode::MemFuse, TraceLevel::Off);
    let eager = ctx_with(ExecMode::Eager, TraceLevel::Off);

    let a = fused.stats().snapshot();
    let v_fused = four_op_sum(&fused);
    let d_fused = a.delta(&fused.stats().snapshot());

    let a = memfuse.stats().snapshot();
    let v_memfuse = four_op_sum(&memfuse);
    let d_memfuse = a.delta(&memfuse.stats().snapshot());

    let a = eager.stats().snapshot();
    let v_eager = four_op_sum(&eager);
    let d_eager = a.delta(&eager.stats().snapshot());

    assert!((v_fused - v_memfuse).abs() < 1e-9);
    assert!((v_fused - v_eager).abs() < 1e-9);

    // Fused engines: the whole DAG is one pass.
    assert_eq!(d_fused.passes, 1, "cache-fuse runs one pass");
    assert_eq!(d_memfuse.passes, 1, "mem-fuse runs one pass");
    // Eager: one pass per interior op (scale, shift, sqrt) plus the sink.
    assert_eq!(d_eager.passes, 4, "eager runs one pass per op");
    // Eager moves strictly more partitions for the same answer.
    assert!(d_eager.parts > d_fused.parts);
    // All modes actually processed partitions (1000 rows / 64 = 16 parts).
    assert_eq!(d_fused.parts, 16);
    assert_eq!(d_memfuse.parts, 16);
    assert!(d_fused.pcache_chunks >= d_fused.parts);
}

#[test]
fn trace_off_records_nothing() {
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Off);
    four_op_sum(&ctx);
    assert!(ctx.tracer().passes().is_empty());
    let report = ctx.profile_report();
    assert!(report.passes.is_empty());
    // The always-on counters still flow into the report.
    assert_eq!(report.exec.passes, 1);
}

#[test]
fn trace_summary_records_no_passes() {
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Summary);
    four_op_sum(&ctx);
    assert!(ctx.tracer().passes().is_empty());
}

#[test]
fn trace_pass_records_profiles_without_ops() {
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Pass);
    four_op_sum(&ctx);
    let passes = ctx.tracer().passes();
    assert_eq!(passes.len(), 1);
    let p = &passes[0];
    assert_eq!(p.engine, "fused");
    assert_eq!(p.mode, "CacheFuse");
    assert_eq!(p.nparts, 16);
    assert_eq!(p.sinks, 1);
    assert_eq!(p.talls, 0);
    // gen + 3 maps + sink
    assert_eq!(p.nodes, 5);
    assert!(!p.workers.is_empty());
    assert_eq!(p.workers.iter().map(|w| w.parts).sum::<u64>(), 16);
    assert_eq!(p.pcache_chunks(), 16); // 4 f64 cols * 64 rows fits one chunk
    let (local, remote) = p.numa_split();
    assert_eq!(local + remote, 16);
    assert!(p.wall_nanos > 0);
    // Op timings require TraceLevel::Op.
    assert!(p.ops.is_empty());
}

#[test]
fn trace_op_records_per_node_timings() {
    // Chain fusion compiles scale -> shift -> sqrt into one kernel, so
    // the per-node trace shows gen + a single chain root standing in for
    // all three maps.
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Op);
    four_op_sum(&ctx);
    let passes = ctx.tracer().passes();
    assert_eq!(passes.len(), 1);
    let ops = &passes[0].ops;
    assert_eq!(ops.len(), 2, "ops: {ops:?}");
    let labels: Vec<&str> = ops.iter().map(|o| o.label.as_str()).collect();
    assert!(labels.contains(&"gen"), "labels: {labels:?}");
    let chain = ops.iter().find(|o| o.label.starts_with("chain[")).expect("chain profile");
    assert_eq!(chain.chain_len, 3, "three fused ops");
    assert!(chain.label.contains("mapply:Mul"), "label: {}", chain.label);
    assert!(chain.label.contains("sapply:Sqrt"), "label: {}", chain.label);
    assert!(chain.saved_bytes > 0, "interior chunks were skipped");
    for op in ops {
        assert_eq!(op.chunks, 16, "each node evaluates once per chunk range");
    }
}

#[test]
fn trace_op_unfused_shows_every_node() {
    // Give every map a second consumer (its own sum) and nothing fuses:
    // each node is its own one-op kernel and the trace shows each under
    // its node's label, none of them a chain.
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Op);
    let x = FM::runif(&ctx, 1000, 4, 0.0, 1.0, 7);
    let scale = x.binary_scalar(BinaryOp::Mul, 2.0, false);
    let shift = scale.binary_scalar(BinaryOp::Add, 1.0, false);
    let root = shift.unary(UnaryOp::Sqrt);
    FM::materialize_multi(&ctx, &[&scale.sum(), &shift.sum(), &root.sum()]);
    let passes = ctx.tracer().passes();
    assert_eq!(passes.len(), 1);
    let ops = &passes[0].ops;
    // gen, scale, shift, sqrt (the sinks accumulate outside eval()).
    let mut labels: Vec<&str> = ops.iter().map(|o| o.label.as_str()).collect();
    labels.sort_unstable();
    assert_eq!(labels, ["gen", "mapply:Add", "mapply:Mul", "sapply:Sqrt"]);
    for op in ops {
        assert_eq!(op.chunks, 16, "each node evaluates once per chunk range");
        assert_eq!(op.chain_len, 0, "a one-op kernel is not a chain");
        assert_eq!(op.saved_bytes, 0, "nothing was skipped");
    }
    assert_eq!(ctx.stats().snapshot().fused_chains, 0);
    // And `explain()` announces no fusion for such a plan.
    assert!(!scale.explain(&ctx).contains("fused at"), "{}", scale.explain(&ctx));
}

#[test]
fn eager_passes_are_labeled() {
    let ctx = ctx_with(ExecMode::Eager, TraceLevel::Pass);
    four_op_sum(&ctx);
    let passes = ctx.tracer().passes();
    assert_eq!(passes.len(), 4);
    assert_eq!(passes.iter().filter(|p| p.engine == "eager-step").count(), 3);
    assert_eq!(passes.iter().filter(|p| p.engine == "eager-target").count(), 1);
    // Pass ids are the context's monotonic pass counter.
    let ids: Vec<u64> = passes.iter().map(|p| p.pass_id).collect();
    assert_eq!(ids, vec![1, 2, 3, 4]);
}

#[test]
fn em_pass_profile_shows_io_and_compute() {
    let dir = std::env::temp_dir().join(format!("flashr-trace-em-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let safs = flashr_safs::Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    let cfg = CtxConfig {
        nthreads: 2,
        rows_per_part: 64,
        storage: StorageClass::Em,
        trace: TraceLevel::Pass,
        ..CtxConfig::default()
    };
    let ctx = FlashCtx::with_config(cfg, Some(safs));

    // Materialize onto the SSD array, then aggregate it back off.
    let x = FM::runif(&ctx, 2000, 4, 0.0, 1.0, 11).materialize(&ctx);
    let s = x.sum().value(&ctx);
    assert!(s.is_finite());

    let passes = ctx.tracer().passes();
    assert_eq!(passes.len(), 2);
    // Pass 1 writes the EM matrix; pass 2 reads it back.
    let write_pass = &passes[0];
    let read_pass = &passes[1];
    assert_eq!(write_pass.talls, 1);
    assert_eq!(read_pass.sinks, 1);
    for p in [write_pass, read_pass] {
        assert!(
            p.io_wait_nanos() + p.compute_nanos() > 0,
            "EM pass must show nonzero io-wait+compute: {p:?}"
        );
    }
    // Reading EM leaves actually waits on the I/O threads.
    assert!(read_pass.io_wait_nanos() > 0, "EM read pass must wait on I/O");

    // The report carries SAFS I/O stats with populated histograms.
    let report = ctx.profile_report();
    let io = report.io.expect("EM context has I/O stats");
    assert!(io.read_reqs > 0 && io.write_reqs > 0);
    assert!(io.read_lat.count() > 0 && io.write_lat.count() > 0);
    assert!(io.max_queue_depth >= 1);
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_renders_the_pending_dag() {
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Off);
    let x = FM::runif(&ctx, 1000, 4, 0.0, 1.0, 7);
    let y = x.binary_scalar(BinaryOp::Mul, 2.0, false).binary_scalar(BinaryOp::Add, 1.0, false);
    let s = y.col_sums();

    let text = s.explain(&ctx);
    assert!(text.starts_with("plan: 4 nodes, 16 parts x 64 rows"), "got: {text}");
    assert!(text.contains("sink (slot 0):"), "got: {text}");
    assert!(text.contains("agg.col:Sum [1x4 F64]"), "got: {text}");
    assert!(text.contains("mapply:Add [1000x4 F64]"), "got: {text}");
    assert!(text.contains("mapply:Mul [1000x4 F64]"), "got: {text}");
    assert!(text.contains("gen [1000x4 F64]"), "got: {text}");
    // Indentation deepens along the chain.
    let sink_line = text.lines().find(|l| l.contains("agg.col")).unwrap();
    let gen_line = text.lines().find(|l| l.contains("gen")).unwrap();
    let indent = |l: &str| l.len() - l.trim_start().len();
    assert!(indent(gen_line) > indent(sink_line));

    // Materialized matrices have no pending DAG.
    let mat = y.materialize(&ctx);
    assert!(mat.explain(&ctx).contains("already materialized"));
}

#[test]
fn explain_dot_is_valid_dot() {
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Off);
    let x = FM::runif(&ctx, 1000, 4, 0.0, 1.0, 7);
    let leafed = x.materialize(&ctx); // a real leaf, drawn outside the cluster
    let s = leafed.binary_scalar(BinaryOp::Mul, 3.0, false).col_sums();

    let dot = s.explain_dot(&ctx);
    assert!(dot.starts_with("digraph flashr_plan {"), "got: {dot}");
    assert!(dot.trim_end().ends_with('}'), "got: {dot}");
    assert!(dot.contains("subgraph cluster_fused"), "got: {dot}");
    assert!(dot.contains("leaf"), "got: {dot}");
    assert!(dot.contains("->"), "got: {dot}");
    assert!(dot.contains("1000x4 F64"), "got: {dot}");
    // Balanced braces make it parseable DOT.
    assert_eq!(
        dot.chars().filter(|&c| c == '{').count(),
        dot.chars().filter(|&c| c == '}').count()
    );
    // Every edge endpoint is a declared node.
    for line in dot.lines().filter(|l| l.contains("->")) {
        let edge = line.trim().trim_end_matches(';');
        let (from, to) = edge.split_once(" -> ").expect("edge syntax");
        for id in [from, to] {
            assert!(
                dot.lines().any(|l| l.trim_start().starts_with(&format!("{id} ["))),
                "edge endpoint {id} not declared in: {dot}"
            );
        }
    }
}

#[test]
fn profile_report_json_parses() {
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Op);
    four_op_sum(&ctx);
    let json = ctx.profile_report().to_json();
    if let Err(e) = flashr_core::json::parse(&json) {
        panic!("{e}: {json}");
    }
    assert!(json.contains("\"engine\":\"fused\""));
    assert!(json.contains("\"io\":null"));
    assert!(json.contains("\"ops\":["));
}

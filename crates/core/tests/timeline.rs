//! Integration tests for the span log: begin/end pairing and nesting
//! invariants, per-lane monotonic timestamps, the event budget, what
//! each trace level keeps (and that none keeps a span twice), span
//! emission across the exec/io/cache categories on an external-memory
//! run — to every context on the runtime — and the Chrome-trace /
//! profile-report JSON validated against the strict reader.

use flashr_core::fm::FM;
use flashr_core::json::{self, Value};
use flashr_core::ops::{BinaryOp, UnaryOp};
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx, StorageClass};
use flashr_core::trace::{json_escape, json_f64, EventKind, Timeline, TraceLevel};
use flashr_safs::{CacheCfg, SafsConfig};

fn ctx_with(mode: ExecMode, trace: TraceLevel) -> FlashCtx {
    let cfg = CtxConfig { nthreads: 2, mode, rows_per_part: 64, trace, ..CtxConfig::default() };
    FlashCtx::with_config(cfg, None)
}

/// gen -> x2 -> +1 -> sqrt, then a full-sum sink: one fused pass.
fn four_op_sum(ctx: &FlashCtx) -> f64 {
    let x = FM::runif(ctx, 1000, 4, 0.0, 1.0, 7);
    let y = x
        .binary_scalar(BinaryOp::Mul, 2.0, false)
        .binary_scalar(BinaryOp::Add, 1.0, false)
        .unary(UnaryOp::Sqrt);
    y.sum().value(ctx)
}

#[test]
fn off_level_records_zero_events() {
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Off);
    four_op_sum(&ctx);
    // No timeline is even allocated: the hot path pays one None check.
    assert!(ctx.tracer().timeline().is_none());
    assert_eq!(ctx.tracer().dropped_events(), 0);
    // The Chrome export is still a valid (empty) document.
    let doc = ctx.export_chrome_trace();
    let v = json::parse(&doc).expect("empty trace doc parses");
    assert_eq!(v["traceEvents"].as_array().expect("traceEvents array").len(), 0);
    // No recorded passes => no critical-path rows either.
    let report = ctx.profile_report();
    assert!(report.passes.is_empty());
    assert_eq!(report.dropped_events, 0);
    assert_eq!(report.critical_path_table(), "");
}

#[test]
fn pass_levels_below_timeline_allocate_no_timeline() {
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Pass);
    four_op_sum(&ctx);
    assert!(ctx.tracer().timeline().is_none());
    // But pass profiles alone still yield an aggregate breakdown; the
    // span-derived task statistics read zero.
    let report = ctx.profile_report();
    assert_eq!(report.passes.len(), 1);
    assert_eq!((report.passes[0].median_task_nanos, report.passes[0].stragglers), (0, 0));
    assert!(report.critical_path_table().contains("bound"));
}

#[test]
fn spans_pair_nest_and_stay_monotonic() {
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Timeline);
    four_op_sum(&ctx);
    let tl = ctx.tracer().timeline().expect("timeline level allocates one");
    let lanes = tl.snapshot();
    assert!(!lanes.is_empty());

    // The coordinator lane carries exactly one pass window.
    let coord = lanes.iter().find(|l| l.name == "coordinator").expect("coordinator lane");
    let pass_begin = coord
        .events
        .iter()
        .find(|e| e.kind == EventKind::Begin && e.name == "pass")
        .expect("pass begin");
    let pass_end = coord
        .events
        .iter()
        .find(|e| e.kind == EventKind::End && e.name == "pass")
        .expect("pass end");
    assert!(pass_begin.ts_ns <= pass_end.ts_ns);

    let mut saw_task = false;
    for lane in &lanes {
        // Begin/End events pair up like a well-formed bracket sequence
        // and their record-time timestamps never go backwards.
        let mut stack: Vec<&str> = Vec::new();
        let mut last_ts = 0u64;
        for ev in &lane.events {
            match ev.kind {
                EventKind::Begin => {
                    assert!(ev.ts_ns >= last_ts, "lane {} went backwards", lane.name);
                    last_ts = ev.ts_ns;
                    stack.push(ev.name.as_ref());
                }
                EventKind::End => {
                    assert!(ev.ts_ns >= last_ts, "lane {} went backwards", lane.name);
                    last_ts = ev.ts_ns;
                    let open = stack.pop().unwrap_or_else(|| {
                        panic!("end '{}' without begin on lane {}", ev.name, lane.name)
                    });
                    assert_eq!(open, ev.name.as_ref(), "mismatched nesting on lane {}", lane.name);
                }
                _ => {}
            }
            if ev.kind == EventKind::Begin && ev.name == "task" {
                saw_task = true;
                // Every task span lives inside the pass window.
                assert!(ev.ts_ns >= pass_begin.ts_ns && ev.ts_ns <= pass_end.ts_ns);
                assert!(ev.args.contains(&("pass", 1)), "task tagged with its pass");
            }
        }
        assert!(stack.is_empty(), "unmatched begins {:?} on lane {}", stack, lane.name);
    }
    assert!(saw_task, "workers emitted task spans");
    assert_eq!(tl.dropped_events(), 0);
}

#[test]
fn eager_sub_passes_each_get_their_own_task_statistics() {
    // One worker: every eager sub-pass's task spans share its lane.
    let cfg = CtxConfig {
        nthreads: 1,
        mode: ExecMode::Eager,
        rows_per_part: 64,
        trace: TraceLevel::Timeline,
        ..CtxConfig::default()
    };
    let ctx = FlashCtx::with_config(cfg, None);
    four_op_sum(&ctx);
    let passes = ctx.profile_report().passes;
    assert!(passes.len() > 1, "eager runs one sub-pass per op: {}", passes.len());
    for p in &passes {
        assert!(p.median_task_nanos > 0, "pass {} ({}) found no task spans", p.pass_id, p.engine);
        assert!(p.stragglers < p.nparts, "pass {}: {} stragglers", p.pass_id, p.stragglers);
    }
}

#[test]
fn event_budget_enforces_cap_and_counts_drops() {
    let tl = Timeline::new(8);
    let lane = tl.named_lane("w");
    for i in 0..20u64 {
        lane.counter("c", i, i);
    }
    assert_eq!(tl.total_events(), 8, "lane capped at its budget");
    assert_eq!(tl.dropped_events(), 12, "overflow counted, not silently lost");
    let kept: Vec<u64> = tl.snapshot()[0].events.iter().map(|e| e.ts_ns).collect();
    assert_eq!(kept, (12..20).collect::<Vec<u64>>(), "the oldest are evicted, the newest kept");
}

/// How many events called `name` of `kind` the context's span log
/// holds, every one of them on a lane whose name starts with `lane`.
fn count(ctx: &FlashCtx, name: &str, kind: EventKind, lane: &str) -> usize {
    let mut n = 0;
    for l in ctx.tracer().log().snapshot() {
        let here = l.events.iter().filter(|e| e.name == name && e.kind == kind).count();
        assert!(here == 0 || l.name.starts_with(lane), "{name} {kind:?} on lane {}", l.name);
        n += here;
    }
    n
}

#[test]
fn no_level_records_a_span_twice() {
    use EventKind::{Begin, Complete, End};
    // 1000 rows in 64-row partitions: 16 tasks per pass; two passes.
    for level in [TraceLevel::Off, TraceLevel::Pass] {
        let ctx = ctx_with(ExecMode::CacheFuse, level);
        four_op_sum(&ctx);
        four_op_sum(&ctx);
        assert_eq!(count(&ctx, "pass", Complete, "coordinator"), 2, "{level:?}");
        assert_eq!(count(&ctx, "task", Complete, "flashr-w"), 32, "{level:?}");
        let lanes = ctx.tracer().log().snapshot();
        let mut kinds = lanes.iter().flat_map(|l| &l.events).map(|e| e.kind);
        assert!(!kinds.any(|k| matches!(k, Begin | End)), "{level:?}: pairs are timeline detail");
    }
    let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Timeline);
    four_op_sum(&ctx);
    for (name, lane, n) in [("pass", "coordinator", 1), ("task", "flashr-w", 16)] {
        assert_eq!(count(&ctx, name, Begin, lane), n);
        assert_eq!(count(&ctx, name, End, lane), n);
        assert_eq!(count(&ctx, name, Complete, lane), 0, "{name}: a pair, not also an interval");
    }
}

/// `{:?}` on the log, the recorder and a timeline-level tracer used to
/// take the lane registry's lock twice on one thread. A deadlock cannot
/// fail an assertion, so a watchdog waits for the formatting thread.
#[test]
fn debug_formatting_returns() {
    let (done, watchdog) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let ctx = ctx_with(ExecMode::CacheFuse, TraceLevel::Timeline);
        four_op_sum(&ctx);
        let log = ctx.tracer().timeline().expect("timeline level");
        let text = format!("{log:?} {:?} {:?}", ctx.flight_recorder(), ctx.tracer());
        let _ = done.send(text);
    });
    let text = watchdog
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("formatting the span log deadlocked");
    assert!(text.starts_with("Timeline(4 lanes, "), "{text}");
    assert!(text.contains(" FlightRecorder(Timeline(4 lanes, "), "{text}");
    assert!(text.contains(" Tracer {"), "{text}");
}

fn em_ctx(tag: &str, trace: TraceLevel) -> (FlashCtx, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("flashr-timeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let safs = flashr_safs::Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    safs.set_page_cache(Some(CacheCfg::with_capacity(8 << 20)));
    let cfg = CtxConfig { nthreads: 2, rows_per_part: 64, trace, ..CtxConfig::default() };
    (FlashCtx::with_config(CtxConfig { storage: StorageClass::Em, ..cfg }, Some(safs)), dir)
}

#[test]
fn derived_contexts_share_the_runtimes_spans() {
    let (parent, dir) = em_ctx("derived", TraceLevel::Timeline);
    let safs_events = |ctx: &FlashCtx| {
        let lanes = ctx.tracer().log().snapshot();
        lanes.iter().flat_map(|l| &l.events).filter(|e| matches!(e.cat, "io" | "cache")).count()
    };
    let x = FM::runif(&parent, 2000, 4, 0.0, 1.0, 11).materialize(&parent);
    let seen = safs_events(&parent);
    assert!(seen > 0, "the parent records its own I/O");

    // A derived context (what `with_mode`, `with_trace`, … build) shares
    // the runtime: a pass on either is seen by both.
    let derived = parent.with_mode(ExecMode::Eager);
    assert!(x.sum().value(&derived).is_finite());
    assert!(safs_events(&derived) > 0, "the derived context records the pass it ran");
    assert!(safs_events(&parent) > seen, "…and so does the parent");
    let seen = safs_events(&parent);
    assert!(x.sum().value(&parent).is_finite());
    assert!(safs_events(&parent) > seen);

    // Dropping the derived context takes only its own registration back.
    let seen = safs_events(&parent);
    drop(derived);
    assert!(x.sum().value(&parent).is_finite());
    assert!(safs_events(&parent) > seen, "the parent lost its SAFS spans to a dropped context");
    drop((x, parent));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn em_run_emits_spans_across_categories() {
    let dir = std::env::temp_dir().join(format!("flashr-timeline-em-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let safs = flashr_safs::Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    // A page cache so reads take the cached path (hit/miss instants).
    safs.set_page_cache(Some(CacheCfg::with_capacity(8 << 20)));
    let cfg = CtxConfig {
        nthreads: 2,
        rows_per_part: 64,
        storage: StorageClass::Em,
        trace: TraceLevel::Timeline,
        ..CtxConfig::default()
    };
    let ctx = FlashCtx::with_config(cfg, Some(safs));

    // Write a matrix to the SSD array, then read it back twice so the
    // second pass sees cache hits.
    let x = FM::runif(&ctx, 2000, 4, 0.0, 1.0, 11).materialize(&ctx);
    assert!(x.sum().value(&ctx).is_finite());
    assert!(x.sum().value(&ctx).is_finite());

    let tl = ctx.tracer().timeline().expect("timeline on");
    let lanes = tl.snapshot();
    let has = |cat: &str| lanes.iter().flat_map(|l| &l.events).any(|e| e.cat == cat);
    assert!(has("exec"), "executor spans recorded");
    assert!(has("io"), "SAFS I/O spans recorded");
    assert!(has("cache"), "page-cache spans recorded");
    // The I/O threads surface as their own named lanes, one group per
    // storage shard (`safs-s<shard>t<thread>`).
    assert!(lanes.iter().any(|l| l.name.starts_with("safs-s0t")), "shard 0 io lanes");
    assert!(lanes.iter().any(|l| l.name.starts_with("safs-s1t")), "shard 1 io lanes");

    // Per-pass critical-path rows ride in the profile report.
    let report = ctx.profile_report();
    assert!(!report.passes.is_empty());
    let table = report.critical_path_table();
    assert!(table.contains("bound"), "table: {table}");

    // The merged Chrome export parses and has >= 1 span per category.
    let doc = ctx.export_chrome_trace();
    let v = json::parse(&doc).expect("chrome trace parses");
    let evs = v["traceEvents"].as_array().expect("traceEvents");
    for cat in ["exec", "io", "cache"] {
        assert!(
            evs.iter().any(|e| e["cat"].as_str() == Some(cat)),
            "no {cat} span in exported trace"
        );
    }
    // Report JSON also parses, breakdown columns intact.
    let rj = json::parse(&report.to_json()).expect("report json parses");
    let rows = rj["passes"].as_array().expect("passes array");
    assert!(!rows.is_empty());
    assert!(rows[0]["bound"].as_str().is_some());
    assert!(rows[0]["wall_nanos"].as_u64().is_some());

    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_escape_edge_cases_roundtrip() {
    // Control chars, quotes/backslashes, DEL, and non-BMP scalars must
    // all survive a round-trip through the reader.
    for s in [
        "a\"b\\c\nd\u{1}e\u{7f}",
        "emoji \u{1F600} and beyond \u{10FFFF}",
        "tab\tret\rnl\n",
        "\u{0}\u{1f}",
        "plain ascii",
    ] {
        let mut out = String::new();
        json_escape(s, &mut out);
        let v =
            json::parse(&out).unwrap_or_else(|e| panic!("escaped {s:?} -> {out} unparsable: {e}"));
        assert_eq!(v.as_str(), Some(s), "round-trip of {s:?}");
    }
}

#[test]
fn json_f64_nonfinite_becomes_null() {
    for (x, null) in [
        (f64::NAN, true),
        (f64::INFINITY, true),
        (f64::NEG_INFINITY, true),
        (0.55, false),
        (-3.25, false),
        (0.0, false),
        (1e300, false),
        (f64::MIN_POSITIVE, false),
    ] {
        let mut out = String::new();
        json_f64(x, &mut out);
        let v = json::parse(&out).expect("json_f64 output parses");
        assert_eq!(v == Value::Null, null, "value {x}");
        if !null {
            assert!((v.as_f64().expect("number") - x).abs() < 1e-12);
        }
    }
}

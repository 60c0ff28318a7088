//! Integration tests for the always-on metrics layer: engine counters
//! surfacing in the Prometheus exposition after a materialization,
//! allocation-free hot-path recording (checked with a counting global
//! allocator), the HTTP scrape listener end-to-end, and a forced flight
//! recorder dump carrying exec spans plus a metrics snapshot.
//!
//! The panic-triggered dump lives in its own binary
//! (`tests/flight_recorder.rs`): the panic hook dumps every live
//! recorder in the process, so it must not share a process with tests
//! that build contexts of their own.

use flashr_core::fm::FM;
use flashr_core::json;
use flashr_core::metrics::serve::{MetricsServer, RenderFn};
use flashr_core::ops::BinaryOp;
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// System allocator wrapped with a per-thread allocation counter, so a
/// test can assert that a code region allocates nothing on its thread
/// without being confused by concurrent test threads.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the TLS slot may already be gone during thread
        // teardown; those allocations are not ours to count.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn small_ctx() -> FlashCtx {
    let cfg = CtxConfig {
        nthreads: 2,
        mode: ExecMode::CacheFuse,
        rows_per_part: 64,
        ..CtxConfig::default()
    };
    FlashCtx::with_config(cfg, None)
}

/// A two-op materialization so the exec counters move.
fn run_once(ctx: &FlashCtx) -> f64 {
    let x = FM::runif(ctx, 1000, 4, 0.0, 1.0, 7);
    x.binary_scalar(BinaryOp::Mul, 2.0, false).sum().value(ctx)
}

#[test]
fn handle_updates_are_visible_in_metrics_text() {
    let ctx = small_ctx();
    let reqs = ctx.metrics().counter("test_requests_total", "test counter", &[("op", "read")]);
    let depth = ctx.metrics().gauge("test_depth", "test gauge", &[]);
    let lat = ctx.metrics().histogram("test_latency_ns", "test histogram", &[]);
    reqs.add(3);
    depth.set(7);
    lat.record(100);
    lat.record(200_000);
    let text = ctx.metrics_text();
    assert!(text.contains("# TYPE test_requests_total counter"), "{text}");
    assert!(text.contains("test_requests_total{op=\"read\"} 3\n"), "{text}");
    assert!(text.contains("test_depth 7\n"), "{text}");
    assert!(text.contains("# TYPE test_latency_ns histogram"), "{text}");
    assert!(text.contains("test_latency_ns_count 2\n"), "{text}");
    assert!(text.contains("test_latency_ns_sum 200100\n"), "{text}");
    // Later updates show up on the next render without re-registering.
    reqs.inc();
    let text = ctx.metrics_text();
    assert!(text.contains("test_requests_total{op=\"read\"} 4\n"), "{text}");
}

#[test]
fn engine_counters_flow_into_the_exposition() {
    let ctx = small_ctx();
    run_once(&ctx);
    let text = ctx.metrics_text();
    // 1000 rows / 64 rows-per-part = 16 partitions in one pass.
    assert!(text.contains("flashr_exec_passes_total 1\n"), "{text}");
    assert!(text.contains("flashr_exec_parts_total 16\n"), "{text}");
    // The NUMA split accounts for every partition.
    let numa: u64 = ["local", "remote"]
        .iter()
        .map(|k| {
            let needle = format!("flashr_exec_parts_numa_total{{numa=\"{k}\"}} ");
            text.lines()
                .find_map(|l| l.strip_prefix(&needle))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(numa, 16, "{text}");
    // The always-on worker time breakdown moved.
    let compute = text
        .lines()
        .find_map(|l| l.strip_prefix("flashr_exec_compute_nanos_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("compute nanos exported");
    assert!(compute > 0, "{text}");
    // The governor source reports even with no budget set.
    assert!(text.contains("flashr_mem_budget_bytes 0\n"), "{text}");
    // No '# TYPE' line repeats (one family header per name).
    let mut seen = std::collections::HashSet::new();
    for l in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        assert!(seen.insert(l.to_string()), "duplicate family header: {l}");
    }
}

#[test]
fn hot_path_recording_does_not_allocate() {
    let ctx = small_ctx();
    // Registration (interning, label clones) pays its allocations here.
    let c = ctx.metrics().counter("hot_total", "hot-path counter", &[("lane", "w0")]);
    let g = ctx.metrics().gauge("hot_depth", "hot-path gauge", &[]);
    let h = ctx.metrics().histogram("hot_ns", "hot-path histogram", &[]);
    // Warm up so lazy TLS or one-time setup is done.
    c.inc();
    g.set(1);
    h.record(1);
    let before = allocs_on_this_thread();
    for i in 0..10_000u64 {
        c.inc();
        c.add(2);
        g.set(i);
        h.record(i);
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "hot-path recording must not allocate");
}

#[test]
fn scrape_listener_serves_the_context_exposition() {
    let ctx = small_ctx();
    run_once(&ctx);
    // Bind directly (not via FLASHR_METRICS_ADDR) so parallel tests in
    // this binary don't race over the env-claimed address.
    let hub = ctx.metrics().clone();
    let render: RenderFn = Arc::new(move || hub.render_text());
    let srv = MetricsServer::start("127.0.0.1:0", render).expect("bind scrape listener");
    let mut s = TcpStream::connect(srv.addr()).expect("connect");
    write!(s, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
    assert!(resp.contains("# TYPE flashr_exec_passes_total counter"), "{resp}");
    assert!(resp.contains("flashr_exec_passes_total 1\n"), "{resp}");
    assert!(resp.contains("flashr_metrics_scrapes_total"), "{resp}");
}

#[test]
fn forced_flight_dump_carries_exec_spans_and_metrics() {
    let ctx = small_ctx();
    run_once(&ctx);
    let path = std::env::temp_dir().join(format!("flashr-flight-forced-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    ctx.flight_recorder().set_dump_path(&path);
    let written = ctx.flight_recorder().dump_now("forced").expect("dump written");
    assert_eq!(written, path);
    let doc = json::parse(&std::fs::read_to_string(&path).expect("dump readable"))
        .expect("dump parses as JSON");
    assert_eq!(doc["reason"].as_str(), Some("forced"));
    let lanes = doc["lanes"].as_array().expect("lanes array");
    let exec_events = lanes
        .iter()
        .flat_map(|l| l["events"].as_array().cloned().unwrap_or_default())
        .filter(|e| e["cat"].as_str() == Some("exec"))
        .count();
    assert!(exec_events >= 1, "expected exec spans in {doc:?}");
    // Worker task spans and the coordinator pass span both survive.
    let names: Vec<String> = lanes
        .iter()
        .flat_map(|l| l["events"].as_array().cloned().unwrap_or_default())
        .filter_map(|e| e["name"].as_str().map(str::to_string))
        .collect();
    assert!(names.iter().any(|n| n == "task"), "{names:?}");
    assert!(names.iter().any(|n| n == "pass"), "{names:?}");
    let metrics_text = doc["metrics_text"].as_str().expect("metrics snapshot embedded");
    assert!(metrics_text.contains("flashr_exec_passes_total"), "{metrics_text}");
    // A second forced dump is refused (one dump per recorder).
    assert!(ctx.flight_recorder().dump_now("again").is_none());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flight_recorder_is_bounded_at_off_trace_level() {
    let ctx = small_ctx();
    assert!(ctx.tracer().timeline().is_none(), "trace defaults off in tests");
    for _ in 0..4 {
        run_once(&ctx);
    }
    let fr = ctx.flight_recorder();
    // Events were recorded even though tracing is off…
    assert!(fr.total_events() > 0);
    // …but every lane stays within the ring budget.
    let budget = std::env::var("FLASHR_FLIGHT_EVENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(flashr_core::metrics::flight::DEFAULT_EVENTS_PER_LANE);
    // 3 lanes max here (2 workers + coordinator).
    assert!(fr.total_events() <= budget * 3, "{} events", fr.total_events());
}

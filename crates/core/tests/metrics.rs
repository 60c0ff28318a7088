//! Integration tests for the always-on metrics layer: engine counters
//! surfacing in the Prometheus exposition after a materialization, the
//! exposition's family list, allocation-free hot-path recording (checked
//! with a counting global allocator), the HTTP scrape listener
//! end-to-end, and a forced flight recorder dump carrying exec spans
//! plus a metrics snapshot.
//!
//! The panic-triggered dump lives in its own binary
//! (`tests/flight_recorder.rs`): the panic hook dumps every live
//! recorder in the process, so it must not share a process with tests
//! that build contexts of their own.

use flashr_core::fm::FM;
use flashr_core::json;
use flashr_core::metrics::serve::{MetricsServer, RenderFn};
use flashr_core::ops::BinaryOp;
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx, StorageClass};
use flashr_core::trace::timeline::RECENT_EVENTS_PER_LANE;
use flashr_core::trace::{Timeline, TraceLevel};
use flashr_safs::{CacheCfg, Safs, SafsConfig, NO_ARGS};
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

/// What `scripts/check_prometheus` and dashboards key on: every family
/// an external-memory context exposes, with its type. The list is
/// generated from the stat structs' declarations, so it is pinned here.
#[test]
fn exposition_families_are_a_fixed_contract() {
    let dir = std::env::temp_dir().join(format!("flashr-metrics-families-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = SafsConfig::striped_under(&dir, 2).with_cache(CacheCfg::with_capacity(1 << 20));
    let cfg = CtxConfig { storage: StorageClass::Em, ..small_ctx().cfg().clone() };
    let ctx = FlashCtx::with_config(cfg, Some(Safs::open(cached).unwrap()));
    let x = FM::runif(&ctx, 1000, 4, 0.0, 1.0, 7).materialize(&ctx);
    assert!(x.sum().value(&ctx).is_finite());
    let text = ctx.metrics_text();
    let mut families: Vec<&str> = text.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
    families.sort_unstable();
    let expected = "\
        flashr_cache_capacity_bytes gauge
        flashr_cache_events_total counter
        flashr_cache_resident_bytes gauge
        flashr_exec_compute_nanos_total counter
        flashr_exec_fused_chains_total counter
        flashr_exec_fused_saved_bytes_total counter
        flashr_exec_io_wait_nanos_total counter
        flashr_exec_nanos_total counter
        flashr_exec_node_chunk_bytes_total counter
        flashr_exec_node_chunks_total counter
        flashr_exec_parts_numa_total counter
        flashr_exec_parts_total counter
        flashr_exec_passes_total counter
        flashr_exec_pcache_chunks_total counter
        flashr_exec_write_stall_nanos_total counter
        flashr_io_bytes_total counter
        flashr_io_latency_ns histogram
        flashr_io_nanos_total counter
        flashr_io_queue_depth gauge
        flashr_io_queue_depth_max gauge
        flashr_io_requests_total counter
        flashr_io_retries_total counter
        flashr_io_shard_bytes_total counter
        flashr_io_shard_latency_ns histogram
        flashr_io_shard_queue_depth gauge
        flashr_io_shard_queue_depth_max gauge
        flashr_io_shard_requests_total counter
        flashr_io_shard_retries_total counter
        flashr_io_throttle_wait_nanos_total counter
        flashr_mem_budget_bytes gauge
        flashr_mem_overcommits_total counter
        flashr_mem_pinned_bytes gauge
        flashr_mem_spills_total counter
        flashr_metrics_scrapes_total counter
        flashr_simd_level gauge";
    assert_eq!(families, expected.lines().map(str::trim).collect::<Vec<_>>());
    // Labels ride along: the shard index in front, the declared one after.
    assert!(text.contains("flashr_io_shard_bytes_total{shard=\"1\",op=\"write\"} "), "{text}");
    assert!(text.contains("flashr_cache_events_total{shard=\"0\",event=\"evict\"} "), "{text}");
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The path every pass pays at `FLASHR_TRACE=off`: once a thread's lane
/// exists, recording into the span log touches no allocator — its buffer
/// is allocated whole and evicts in place.
#[test]
fn hot_path_recording_does_not_allocate() {
    let log = Timeline::for_level(TraceLevel::Off);
    // Lane creation (name, pre-allocated buffer) pays its allocations here.
    let lane = log.named_lane("flashr-w0");
    let before = allocs_on_this_thread();
    for part in 0..4 * RECENT_EVENTS_PER_LANE as u64 {
        let args = [("part", part), ("pass", 1)];
        let t0 = lane.open("exec", "task", args);
        lane.begin("exec", "compute", NO_ARGS);
        lane.end("exec", "compute");
        lane.complete_detail("exec", "mapply:Add", 10, NO_ARGS);
        lane.close("exec", "task", t0, args);
        // Finding the lane again by name does not allocate either.
        log.named_lane("flashr-w0").counter("io-queue-depth", t0, part);
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "hot-path recording must not allocate");
    assert_eq!(lane.len(), RECENT_EVENTS_PER_LANE, "full, evicting its oldest");
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
    // …but every lane stays within the summary budget: 3 lanes max
    // here (2 workers + coordinator).
    assert!(fr.total_events() <= RECENT_EVENTS_PER_LANE * 3, "{} events", fr.total_events());
}

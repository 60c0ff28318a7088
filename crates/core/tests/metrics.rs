//! Integration tests for the always-on counters: engine counters
//! surfacing in the profile JSON after a materialization, the JSON's
//! counter and pass key sets, allocation-free hot-path recording (checked with a
//! counting global allocator), and a forced flight recorder dump
//! carrying exec spans plus the counters.
//!
//! The panic-triggered dump lives in its own binary
//! (`tests/flight_recorder.rs`): the panic hook dumps every live
//! recorder in the process, so it must not share a process with tests
//! that build contexts of their own.

use flashr_core::fm::FM;
use flashr_core::json::{self, Value};
use flashr_core::ops::BinaryOp;
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx, StorageClass};
use flashr_core::trace::timeline::RECENT_EVENTS_PER_LANE;
use flashr_core::trace::{Timeline, TraceLevel};
use flashr_safs::{CacheCfg, Safs, SafsConfig, NO_ARGS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// The profile JSON of `ctx`, parsed.
fn profile(ctx: &FlashCtx) -> Value {
    json::parse(&ctx.profile_report().to_json()).expect("profile JSON parses")
}

/// An object's member names, sorted.
fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(m) => m.keys().map(String::as_str).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn engine_counters_flow_into_the_profile_json() {
    let ctx = small_ctx();
    run_once(&ctx);
    let doc = profile(&ctx);
    let exec = &doc["exec"];
    // 1000 rows / 64 rows-per-part = 16 partitions in one pass.
    assert_eq!(exec["passes"].as_u64(), Some(1), "{exec:?}");
    assert_eq!(exec["parts"].as_u64(), Some(16), "{exec:?}");
    // The always-on worker time breakdown moved.
    assert!(exec["compute_nanos"].as_u64().is_some_and(|n| n > 0), "{exec:?}");
    // The governor section reports even with no budget set.
    assert_eq!(doc["mem"]["budget_bytes"].as_u64(), Some(0), "{doc:?}");
}

/// What CI and `scripts/bench_check` key on: every counter section an
/// external-memory context renders, by member name. The names come from
/// the stat structs' declarations, so they are pinned here: renaming or
/// dropping a counter fails this test.
#[test]
fn profile_counter_sections_are_a_fixed_contract() {
    let dir = std::env::temp_dir().join(format!("flashr-counter-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = SafsConfig::striped_under(&dir, 2).with_cache(CacheCfg::with_capacity(1 << 20));
    let cfg = CtxConfig { storage: StorageClass::Em, ..small_ctx().cfg().clone() };
    let ctx = FlashCtx::with_config(cfg, Some(Safs::open(cached).unwrap()));
    let x = FM::runif(&ctx, 1000, 4, 0.0, 1.0, 7).materialize(&ctx);
    assert!(x.sum().value(&ctx).is_finite());
    let doc = profile(&ctx);
    let exec = [
        "compute_nanos",
        "exec_nanos",
        "fused_chains",
        "fused_saved_bytes",
        "io_wait_nanos",
        "node_chunk_bytes",
        "node_chunks",
        "parts",
        "passes",
        "pcache_chunks",
        "write_stall_nanos",
    ];
    assert_eq!(keys(&doc["exec"]), exec);
    let io = [
        "cache",
        "cache_capacity_bytes",
        "cur_queue_depth",
        "io_retries",
        "max_queue_depth",
        "read_bytes",
        "read_lat",
        "read_nanos",
        "read_reqs",
        "throttle_wait_nanos",
        "write_bytes",
        "write_lat",
        "write_nanos",
        "write_reqs",
    ];
    assert_eq!(keys(&doc["io"]), io);
    assert_eq!(doc["io"]["cache_capacity_bytes"].as_u64(), Some(1 << 20));
    let cache = [
        "bypasses",
        "coalesced",
        "evictions",
        "hits",
        "inserts",
        "invalidations",
        "misses",
        "readahead_hits",
        "readahead_issued",
        "resident_bytes",
    ];
    assert_eq!(keys(&doc["io"]["cache"]), cache);
    let shard = [
        "cur_queue_depth",
        "lat",
        "max_queue_depth",
        "read_bytes",
        "read_reqs",
        "retries",
        "write_bytes",
        "write_reqs",
    ];
    let shards = doc["io_shards"].as_array().expect("io_shards array");
    assert_eq!(shards.len(), 2);
    for s in shards {
        assert_eq!(keys(s), shard);
        assert!(s["write_bytes"].as_u64().is_some_and(|b| b > 0), "both shards wrote: {s:?}");
    }
    assert_eq!(keys(&doc["mem"]), ["budget_bytes", "overcommits", "pinned_bytes", "spills"]);
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `passes[]` object's members at `timeline`, where every one of
/// them is filled; its four parts of worker time add up to
/// `workers × wall` unless the busy parts already exceed it.
#[test]
fn profile_pass_object_is_a_fixed_contract() {
    let ctx = small_ctx().with_trace(TraceLevel::Timeline);
    run_once(&ctx);
    let doc = profile(&ctx);
    let passes = doc["passes"].as_array().expect("passes array");
    assert_eq!(passes.len(), 1);
    let p = &passes[0];
    let members = [
        "bound",
        "cache_hits",
        "cache_misses",
        "compute_nanos",
        "engine",
        "idle_nanos",
        "io_wait_nanos",
        "median_task_nanos",
        "mode",
        "nodes",
        "nodes_pre_cse",
        "nparts",
        "ops",
        "pass_id",
        "pcache_chunks",
        "pcache_step",
        "simd",
        "sinks",
        "stragglers",
        "talls",
        "utilization",
        "wall_nanos",
        "workers",
        "write_stall_nanos",
    ];
    assert_eq!(keys(p), members);
    let n = |k: &str| p[k].as_u64().unwrap_or_else(|| panic!("{k}: {p:?}"));
    let busy = n("compute_nanos") + n("io_wait_nanos") + n("write_stall_nanos");
    let capacity = p["workers"].as_array().expect("workers array").len() as u64 * n("wall_nanos");
    assert_eq!(busy + n("idle_nanos"), busy.max(capacity), "{p:?}");
    assert!(n("median_task_nanos") > 0, "{p:?}");
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
fn forced_flight_dump_carries_exec_spans_and_metrics() {
    let ctx = small_ctx();
    run_once(&ctx);
    let path =
        std::env::temp_dir().join(format!("flashr-flight-forced-{}.json", std::process::id()));
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
    assert_eq!(doc["counters"]["exec"]["passes"].as_u64(), Some(1), "{doc:?}");
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

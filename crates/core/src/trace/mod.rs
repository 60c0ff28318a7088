//! Execution tracing: per-pass profiles, JSON metrics export, and the
//! `FLASHR_TRACE` gate.
//!
//! The paper's evaluation constantly asks "how many passes did that DAG
//! take, and where did the time go — I/O or compute?" (§4.3, Fig. 10).
//! This module makes those questions answerable from inside a process:
//!
//! * [`TraceLevel`] — the `FLASHR_TRACE=off|summary|pass|op` gate, read
//!   once per context from the environment (or set explicitly on
//!   [`crate::session::CtxConfig`]).
//! * [`PassProfile`] — one record per materialization pass: engine, node
//!   count, partitions, per-worker I/O-wait vs compute split, NUMA
//!   local/remote claims, Pcache chunk counts, and (at `op` level)
//!   per-node operator timings.
//! * [`ProfileReport`] — everything a context observed, serialized to
//!   JSON by a hand-rolled writer (flashr-core takes no serialization
//!   dependency).
//! * [`timeline`] — at `FLASHR_TRACE=timeline`, per-thread tracks of
//!   timestamped spans (executor tasks, I/O request lifecycles, cache
//!   waits), exportable as a Chrome/Perfetto trace ([`chrome`],
//!   [`Tracer::export_chrome_trace`], `FLASHR_TRACE_OUT=<path>`) and
//!   mined by the [`critical`] analyzer for per-pass
//!   compute/io-wait/write-stall/idle attribution.
//!
//! Cost model: when tracing is `off` the engine pays one branch per
//! pass and nothing per partition or chunk — `Instant::now()` is only
//! reached behind an `Option` that is `None` when disabled, and the
//! timeline collector is not even allocated below
//! [`TraceLevel::Timeline`].

pub mod chrome;
pub mod critical;
pub mod timeline;

pub use crate::json::{json_escape, json_f64};
pub use critical::{CriticalPath, PassBreakdown, WallAttribution};
pub use timeline::{EventKind, Lane, LaneSnapshot, SpanEvent, Timeline};

use crate::stats::ExecStatsSnapshot;
use flashr_safs::sync::Mutex;
use flashr_safs::{
    CacheStatsSnapshot, IoStatsSnapshot, LatencyHistoSnapshot, ShardStatsSnapshot, LAT_BUCKETS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How much the engine records. Levels are ordered: each one includes
/// everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing beyond the always-on [`crate::stats::ExecStats`]
    /// counters.
    Off,
    /// Keep aggregate counters available for [`ProfileReport`] export,
    /// but record no per-pass profiles.
    Summary,
    /// Record a [`PassProfile`] per materialization pass (per-worker
    /// I/O-wait vs compute split, NUMA locality, chunk counts).
    Pass,
    /// Additionally record per-node operator timings inside each pass.
    Op,
    /// Additionally collect the span [`timeline`]: per-task executor
    /// spans, SAFS I/O request lifecycles, cache waits and queue-depth
    /// counters, exportable to Chrome/Perfetto.
    Timeline,
}

impl TraceLevel {
    /// Parse a `FLASHR_TRACE` value. Unknown strings are `None`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TraceLevel::Off),
            "summary" => Some(TraceLevel::Summary),
            "pass" => Some(TraceLevel::Pass),
            "op" => Some(TraceLevel::Op),
            "timeline" => Some(TraceLevel::Timeline),
            _ => None,
        }
    }

    /// Read `FLASHR_TRACE` from the environment (unset or unparsable
    /// values mean [`TraceLevel::Off`]).
    pub fn from_env() -> TraceLevel {
        std::env::var("FLASHR_TRACE").ok().and_then(|v| TraceLevel::parse(&v)).unwrap_or(TraceLevel::Off)
    }
}

/// What one worker thread did during one pass.
#[derive(Debug, Clone, Default)]
pub struct WorkerProfile {
    pub tid: usize,
    /// I/O partitions this worker processed.
    pub parts: u64,
    /// Partitions claimed from the worker's own (simulated) NUMA node.
    pub local_parts: u64,
    /// Partitions stolen from another node.
    pub remote_parts: u64,
    /// Nanoseconds blocked on leaf reads.
    pub io_wait_nanos: u64,
    /// Nanoseconds inside partition evaluation.
    pub compute_nanos: u64,
    /// Nanoseconds blocked on external-memory output writes (the
    /// `max_pending_writes` bound and the end-of-pass drain).
    pub write_stall_nanos: u64,
    /// Pcache chunk ranges evaluated.
    pub pcache_chunks: u64,
}

/// Accumulated timing for one DAG node within one pass (`op` level).
///
/// `nanos` is *inclusive*: producing a node's chunk includes producing
/// any not-yet-memoized inputs, so a parent's time covers its children
/// the first time they are evaluated.
#[derive(Debug, Clone)]
pub struct OpProfile {
    pub node_id: u64,
    pub label: String,
    /// Chunks evaluated for this node (memoized hits are not re-counted).
    pub chunks: u64,
    pub nanos: u64,
    /// When the node is the root of a fused map chain: number of ops the
    /// chain covers (0 for ordinary nodes). A ≥ 2 value means this one
    /// profile stands in for `chain_len` interpreter ops.
    pub chain_len: u64,
    /// Bytes of intermediate chunks the chain skipped allocating across
    /// all evaluations (0 for ordinary nodes).
    pub saved_bytes: u64,
}

/// One materialization pass, as observed by the fused engine.
#[derive(Debug, Clone)]
pub struct PassProfile {
    /// 1-based index in the context's pass counter.
    pub pass_id: u64,
    /// `"fused"`, `"eager-step"` or `"eager-target"`.
    pub engine: &'static str,
    /// The context's [`crate::session::ExecMode`] at the time.
    pub mode: &'static str,
    /// Distinct DAG nodes the plan covered (including leaves).
    pub nodes: usize,
    /// Distinct nodes the *submitted* DAG had before the analyzer's CSE
    /// rewrite. Equal to `nodes` when nothing merged (or when the
    /// analyzer was bypassed, e.g. eager sub-passes).
    pub nodes_pre_cse: usize,
    pub nparts: u64,
    /// Pcache chunk height in rows.
    pub pcache_step: usize,
    pub sinks: usize,
    pub talls: usize,
    pub wall_nanos: u64,
    /// Page-cache counter deltas over this pass (all zero when the
    /// context has no SAFS runtime or no cache installed).
    pub cache: CacheStatsSnapshot,
    pub workers: Vec<WorkerProfile>,
    /// Per-node timings; empty below [`TraceLevel::Op`].
    pub ops: Vec<OpProfile>,
    /// Cost-optimizer decisions applied to this pass (predicted vs.
    /// actual bytes); empty when `cost_optimize` is off.
    pub optimizer: Vec<crate::analysis::optimize::Decision>,
    /// SIMD dispatch level the pass's kernels were compiled at
    /// (`"off"`, `"scalar"` or `"avx2"`).
    pub simd: &'static str,
}

impl PassProfile {
    /// Summed worker I/O-wait.
    pub fn io_wait_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.io_wait_nanos).sum()
    }

    /// Summed worker compute time.
    pub fn compute_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.compute_nanos).sum()
    }

    /// Summed worker write-stall time.
    pub fn write_stall_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.write_stall_nanos).sum()
    }

    /// Summed Pcache chunks.
    pub fn pcache_chunks(&self) -> u64 {
        self.workers.iter().map(|w| w.pcache_chunks).sum()
    }

    /// Summed NUMA-local and NUMA-remote partition claims.
    pub fn numa_split(&self) -> (u64, u64) {
        (
            self.workers.iter().map(|w| w.local_parts).sum(),
            self.workers.iter().map(|w| w.remote_parts).sum(),
        )
    }
}

/// Retain at most this many pass profiles per context; iterative
/// algorithms can run tens of thousands of passes and the tracer must
/// not grow without bound.
const MAX_PASSES: usize = 4096;

/// Per-context trace collector. Shared by all clones of a
/// [`crate::session::FlashCtx`].
#[derive(Debug)]
pub struct Tracer {
    level: TraceLevel,
    passes: Mutex<Vec<PassProfile>>,
    dropped: AtomicU64,
    /// Allocated only at [`TraceLevel::Timeline`]; below that the span
    /// layer costs nothing.
    timeline: Option<Arc<Timeline>>,
}

impl Tracer {
    pub fn new(level: TraceLevel) -> Tracer {
        let timeline =
            (level >= TraceLevel::Timeline).then(|| Arc::new(Timeline::with_env_budget()));
        Tracer { level, passes: Mutex::new(Vec::new()), dropped: AtomicU64::new(0), timeline }
    }

    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// The span collector; `None` below [`TraceLevel::Timeline`].
    pub fn timeline(&self) -> Option<&Arc<Timeline>> {
        self.timeline.as_ref()
    }

    /// Events discarded because a timeline lane hit its budget (0 when
    /// the timeline is off).
    pub fn dropped_events(&self) -> u64 {
        self.timeline.as_ref().map(|t| t.dropped_events()).unwrap_or(0)
    }

    /// Export the recorded span timeline as Chrome `trace_event` JSON
    /// (an empty but valid document when the timeline is off).
    pub fn export_chrome_trace(&self) -> String {
        match &self.timeline {
            Some(tl) => chrome::export_single("flashr", tl),
            None => chrome::export_chrome_trace(&[]),
        }
    }

    /// Whether recording at `level` is active (the one branch the engine
    /// pays when tracing is off).
    pub fn enabled(&self, level: TraceLevel) -> bool {
        self.level >= level
    }

    /// Deposit one finished pass profile (bounded; overflow counts as
    /// dropped instead of growing).
    pub(crate) fn record_pass(&self, profile: PassProfile) {
        let mut passes = self.passes.lock();
        if passes.len() >= MAX_PASSES {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            passes.push(profile);
        }
    }

    /// Copy out the recorded profiles.
    pub fn passes(&self) -> Vec<PassProfile> {
        self.passes.lock().clone()
    }

    /// Attach the cost-optimizer's decision log (with actuals scraped
    /// post-pass) to the most recently recorded pass. No-op when no pass
    /// was recorded (trace level below `Pass`).
    pub(crate) fn attach_optimizer(&self, decisions: Vec<crate::analysis::optimize::Decision>) {
        if let Some(last) = self.passes.lock().last_mut() {
            last.optimizer = decisions;
        }
    }

    /// Profiles dropped because the per-context cap was reached.
    pub fn dropped_passes(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Forget everything recorded so far (the level stays).
    pub fn clear(&self) {
        self.passes.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
        if let Some(tl) = &self.timeline {
            tl.clear();
        }
    }
}

/// Everything a context observed, ready for JSON export.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    pub exec: ExecStatsSnapshot,
    /// SAFS I/O counters and latency histograms; `None` for in-memory
    /// contexts.
    pub io: Option<IoStatsSnapshot>,
    /// Per-shard (emulated device) I/O counters in shard order; empty
    /// for in-memory contexts.
    pub io_shards: Vec<ShardStatsSnapshot>,
    pub passes: Vec<PassProfile>,
    pub dropped_passes: u64,
    /// Per-pass wall-clock attribution (compute / io-wait / write-stall
    /// / idle, stragglers, late readahead); one row per recorded pass.
    pub critical_path: Vec<PassBreakdown>,
    /// Timeline events discarded at the per-lane budget (0 when the
    /// timeline is off).
    pub dropped_events: u64,
}

impl ProfileReport {
    /// Serialize to JSON. Hand-rolled: flashr-core takes no
    /// serialization dependency.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        o.push('{');
        o.push_str("\"exec\":");
        exec_json(&self.exec, &mut o);
        o.push_str(",\"io\":");
        match &self.io {
            Some(io) => io_json(io, &mut o),
            None => o.push_str("null"),
        }
        o.push_str(",\"io_shards\":[");
        for (i, s) in self.io_shards.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            shard_json(s, &mut o);
        }
        o.push(']');
        o.push_str(",\"dropped_passes\":");
        push_u64(self.dropped_passes, &mut o);
        o.push_str(",\"dropped_events\":");
        push_u64(self.dropped_events, &mut o);
        o.push_str(",\"passes\":[");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            pass_json(p, &mut o);
        }
        o.push_str("],\"critical_path\":[");
        for (i, b) in self.critical_path.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            breakdown_json(b, &mut o);
        }
        o.push_str("]}");
        o
    }

    /// The per-pass critical-path table (same rendering in every bench
    /// bin; empty string when no passes were recorded).
    pub fn critical_path_table(&self) -> String {
        if self.critical_path.is_empty() {
            return String::new();
        }
        CriticalPath::table(&self.critical_path)
    }
}

fn push_u64(v: u64, out: &mut String) {
    out.push_str(itoa(v).as_str());
}

fn itoa(v: u64) -> String {
    format!("{v}")
}

fn field_u64(name: &str, v: u64, first: bool, out: &mut String) {
    if !first {
        out.push(',');
    }
    json_escape(name, out);
    out.push(':');
    push_u64(v, out);
}

pub(crate) fn exec_json(e: &ExecStatsSnapshot, out: &mut String) {
    out.push('{');
    field_u64("passes", e.passes, true, out);
    field_u64("parts", e.parts, false, out);
    field_u64("pcache_chunks", e.pcache_chunks, false, out);
    field_u64("local_parts", e.local_parts, false, out);
    field_u64("remote_parts", e.remote_parts, false, out);
    field_u64("exec_nanos", e.exec_nanos, false, out);
    field_u64("node_chunks", e.node_chunks, false, out);
    field_u64("node_chunk_bytes", e.node_chunk_bytes, false, out);
    field_u64("fused_chains", e.fused_chains, false, out);
    field_u64("fused_saved_bytes", e.fused_saved_bytes, false, out);
    field_u64("io_wait_nanos", e.io_wait_nanos, false, out);
    field_u64("compute_nanos", e.compute_nanos, false, out);
    field_u64("write_stall_nanos", e.write_stall_nanos, false, out);
    field_u64("opt_decisions", e.opt_decisions, false, out);
    field_u64("opt_cache_bytes", e.opt_cache_bytes, false, out);
    out.push('}');
}

fn histo_json(h: &LatencyHistoSnapshot, out: &mut String) {
    out.push('{');
    field_u64("count", h.count(), true, out);
    field_u64("p50_ns", h.quantile_upper_ns(0.50), false, out);
    field_u64("p95_ns", h.quantile_upper_ns(0.95), false, out);
    field_u64("p99_ns", h.quantile_upper_ns(0.99), false, out);
    // Sparse bucket list: [[lower_bound_ns, count], ...]
    out.push_str(",\"buckets\":[");
    let mut first = true;
    for i in 0..LAT_BUCKETS {
        if h.buckets[i] == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let (lo, _) = flashr_safs::LatencyHisto::bucket_bounds(i);
        out.push('[');
        push_u64(lo, out);
        out.push(',');
        push_u64(h.buckets[i], out);
        out.push(']');
    }
    out.push_str("]}");
}

pub(crate) fn io_json(io: &IoStatsSnapshot, out: &mut String) {
    out.push('{');
    field_u64("read_bytes", io.read_bytes, true, out);
    field_u64("write_bytes", io.write_bytes, false, out);
    field_u64("read_reqs", io.read_reqs, false, out);
    field_u64("write_reqs", io.write_reqs, false, out);
    field_u64("read_nanos", io.read_nanos, false, out);
    field_u64("write_nanos", io.write_nanos, false, out);
    field_u64("throttle_wait_nanos", io.throttle_wait_nanos, false, out);
    field_u64("io_retries", io.io_retries, false, out);
    field_u64("cur_queue_depth", io.cur_queue_depth, false, out);
    field_u64("max_queue_depth", io.max_queue_depth, false, out);
    out.push_str(",\"cache\":");
    cache_json(&io.cache, out);
    out.push_str(",\"read_lat\":");
    histo_json(&io.read_lat, out);
    out.push_str(",\"write_lat\":");
    histo_json(&io.write_lat, out);
    out.push('}');
}

/// Serialize one storage shard's counters (also used by benchmark
/// artifacts).
pub fn shard_json(s: &ShardStatsSnapshot, out: &mut String) {
    out.push('{');
    field_u64("read_reqs", s.read_reqs, true, out);
    field_u64("write_reqs", s.write_reqs, false, out);
    field_u64("read_bytes", s.read_bytes, false, out);
    field_u64("write_bytes", s.write_bytes, false, out);
    field_u64("retries", s.retries, false, out);
    field_u64("cur_queue_depth", s.cur_queue_depth, false, out);
    field_u64("max_queue_depth", s.max_queue_depth, false, out);
    out.push_str(",\"lat\":");
    histo_json(&s.lat, out);
    out.push('}');
}

/// Serialize page-cache counters (also used by benchmark artifacts).
pub fn cache_json(c: &CacheStatsSnapshot, out: &mut String) {
    out.push('{');
    field_u64("hits", c.hits, true, out);
    field_u64("misses", c.misses, false, out);
    field_u64("coalesced", c.coalesced, false, out);
    field_u64("bypasses", c.bypasses, false, out);
    field_u64("inserts", c.inserts, false, out);
    field_u64("evictions", c.evictions, false, out);
    field_u64("invalidations", c.invalidations, false, out);
    field_u64("readahead_issued", c.readahead_issued, false, out);
    field_u64("readahead_hits", c.readahead_hits, false, out);
    field_u64("resident_bytes", c.resident_bytes, false, out);
    out.push('}');
}

fn pass_json(p: &PassProfile, out: &mut String) {
    out.push('{');
    field_u64("pass_id", p.pass_id, true, out);
    out.push_str(",\"engine\":");
    json_escape(p.engine, out);
    out.push_str(",\"mode\":");
    json_escape(p.mode, out);
    out.push_str(",\"simd\":");
    json_escape(p.simd, out);
    field_u64("nodes", p.nodes as u64, false, out);
    field_u64("nodes_pre_cse", p.nodes_pre_cse as u64, false, out);
    field_u64("nparts", p.nparts, false, out);
    field_u64("pcache_step", p.pcache_step as u64, false, out);
    field_u64("sinks", p.sinks as u64, false, out);
    field_u64("talls", p.talls as u64, false, out);
    field_u64("wall_nanos", p.wall_nanos, false, out);
    field_u64("io_wait_nanos", p.io_wait_nanos(), false, out);
    field_u64("compute_nanos", p.compute_nanos(), false, out);
    field_u64("write_stall_nanos", p.write_stall_nanos(), false, out);
    field_u64("pcache_chunks", p.pcache_chunks(), false, out);
    let (local, remote) = p.numa_split();
    field_u64("local_parts", local, false, out);
    field_u64("remote_parts", remote, false, out);
    field_u64("cache_hits", p.cache.hits, false, out);
    field_u64("cache_misses", p.cache.misses, false, out);
    field_u64("cache_readahead", p.cache.readahead_issued, false, out);
    out.push_str(",\"workers\":[");
    for (i, w) in p.workers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        field_u64("tid", w.tid as u64, true, out);
        field_u64("parts", w.parts, false, out);
        field_u64("local_parts", w.local_parts, false, out);
        field_u64("remote_parts", w.remote_parts, false, out);
        field_u64("io_wait_nanos", w.io_wait_nanos, false, out);
        field_u64("compute_nanos", w.compute_nanos, false, out);
        field_u64("write_stall_nanos", w.write_stall_nanos, false, out);
        field_u64("pcache_chunks", w.pcache_chunks, false, out);
        out.push('}');
    }
    out.push_str("],\"ops\":[");
    for (i, op) in p.ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        field_u64("node_id", op.node_id, true, out);
        out.push_str(",\"label\":");
        json_escape(&op.label, out);
        field_u64("chunks", op.chunks, false, out);
        field_u64("nanos", op.nanos, false, out);
        field_u64("chain_len", op.chain_len, false, out);
        field_u64("saved_bytes", op.saved_bytes, false, out);
        out.push('}');
    }
    out.push_str("],\"optimizer\":[");
    for (i, d) in p.optimizer.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        d.write_json(out);
    }
    out.push_str("]}");
}

fn breakdown_json(b: &PassBreakdown, out: &mut String) {
    out.push('{');
    field_u64("pass_id", b.pass_id, true, out);
    out.push_str(",\"engine\":");
    json_escape(b.engine, out);
    field_u64("nworkers", b.nworkers as u64, false, out);
    field_u64("wall_nanos", b.wall_nanos, false, out);
    field_u64("compute_nanos", b.compute_nanos, false, out);
    field_u64("io_wait_nanos", b.io_wait_nanos, false, out);
    field_u64("write_stall_nanos", b.write_stall_nanos, false, out);
    field_u64("idle_nanos", b.idle_nanos, false, out);
    field_u64("tasks", b.tasks, false, out);
    field_u64("median_task_nanos", b.median_task_nanos, false, out);
    field_u64("stragglers", b.stragglers, false, out);
    field_u64("readahead_late", b.readahead_late, false, out);
    out.push_str(",\"bound\":");
    json_escape(b.bound, out);
    out.push_str(",\"utilization\":");
    json_f64(b.utilization(), out);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("0"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("Summary"), Some(TraceLevel::Summary));
        assert_eq!(TraceLevel::parse(" pass "), Some(TraceLevel::Pass));
        assert_eq!(TraceLevel::parse("OP"), Some(TraceLevel::Op));
        assert_eq!(TraceLevel::parse("timeline"), Some(TraceLevel::Timeline));
        assert_eq!(TraceLevel::parse("bogus"), None);
        assert!(TraceLevel::Timeline > TraceLevel::Op);
        assert!(TraceLevel::Op > TraceLevel::Pass);
        assert!(TraceLevel::Pass > TraceLevel::Summary);
        assert!(TraceLevel::Summary > TraceLevel::Off);
    }

    #[test]
    fn tracer_gating() {
        let t = Tracer::new(TraceLevel::Pass);
        assert!(t.enabled(TraceLevel::Summary));
        assert!(t.enabled(TraceLevel::Pass));
        assert!(!t.enabled(TraceLevel::Op));
        let off = Tracer::new(TraceLevel::Off);
        assert!(!off.enabled(TraceLevel::Summary));
    }

    #[test]
    fn tracer_caps_recorded_passes() {
        let t = Tracer::new(TraceLevel::Pass);
        let p = PassProfile {
            pass_id: 1,
            engine: "fused",
            mode: "CacheFuse",
            nodes: 1,
            nodes_pre_cse: 1,
            nparts: 1,
            pcache_step: 64,
            sinks: 1,
            talls: 0,
            wall_nanos: 1,
            cache: CacheStatsSnapshot::default(),
            workers: Vec::new(),
            ops: Vec::new(),
            optimizer: Vec::new(),
            simd: "off",
        };
        for _ in 0..(MAX_PASSES + 10) {
            t.record_pass(p.clone());
        }
        assert_eq!(t.passes().len(), MAX_PASSES);
        assert_eq!(t.dropped_passes(), 10);
        t.clear();
        assert!(t.passes().is_empty());
        assert_eq!(t.dropped_passes(), 0);
    }

    #[test]
    fn report_json_is_wellformed() {
        let t = Tracer::new(TraceLevel::Op);
        t.record_pass(PassProfile {
            pass_id: 1,
            engine: "fused",
            mode: "CacheFuse",
            nodes: 3,
            nodes_pre_cse: 3,
            nparts: 2,
            pcache_step: 64,
            sinks: 1,
            talls: 1,
            wall_nanos: 12345,
            cache: CacheStatsSnapshot::default(),
            workers: vec![WorkerProfile {
                tid: 0,
                parts: 2,
                local_parts: 2,
                remote_parts: 0,
                io_wait_nanos: 10,
                compute_nanos: 100,
                write_stall_nanos: 5,
                pcache_chunks: 4,
            }],
            ops: vec![OpProfile {
                node_id: 7,
                label: "mapply:Add \"x\"".into(),
                chunks: 4,
                nanos: 50,
                chain_len: 0,
                saved_bytes: 0,
            }],
            optimizer: Vec::new(),
            simd: "avx2",
        });
        let report = ProfileReport {
            exec: ExecStatsSnapshot { passes: 1, parts: 2, ..Default::default() },
            io: None,
            io_shards: vec![ShardStatsSnapshot { read_reqs: 3, ..Default::default() }],
            passes: t.passes(),
            dropped_passes: 0,
            critical_path: Vec::new(),
            dropped_events: 0,
        };
        let json = report.to_json();
        assert!(json.contains("\"engine\":\"fused\""));
        assert!(json.contains("\"simd\":\"avx2\""));
        assert!(json.contains("\"write_stall_nanos\":5"));
        assert!(json.contains("\"dropped_events\":0"));
        assert!(json.contains("\"critical_path\":[]"));
        assert!(json.contains("\"io\":null"));
        assert!(json.contains("\"io_shards\":[{\"read_reqs\":3,"));
        // escaping: the label's quotes must be escaped
        assert!(json.contains("mapply:Add \\\"x\\\""));
        crate::json::parse(&json).expect("strict JSON");
    }
}

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
//!   JSON with [`crate::json::Writer`].
//! * [`timeline`] — the context's one span log: per-thread tracks of
//!   timestamped spans (executor tasks, I/O request lifecycles, cache
//!   waits). Below `FLASHR_TRACE=timeline` it keeps a short summary for
//!   the flight recorder; at it, the full task stream, exportable as a
//!   Chrome/Perfetto trace ([`chrome`], [`Tracer::export_chrome_trace`],
//!   `FLASHR_TRACE_OUT=<path>`) and mined by the [`critical`] analyzer
//!   for per-pass compute/io-wait/write-stall/idle attribution.
//!
//! Cost model: when tracing is `off` the engine pays, beside the
//! always-on counters, two summary events per pass and one per
//! partition into pre-allocated lane buffers, and nothing per chunk.

pub mod chrome;
pub mod critical;
pub mod timeline;

pub use crate::json::{json_escape, json_f64};
pub use critical::{CriticalPath, PassBreakdown};
pub use timeline::{EventKind, Lane, LaneSnapshot, SpanEvent, Timeline};

use crate::json::{self, Writer};
use crate::stats::ExecStatsSnapshot;
use flashr_safs::sync::Mutex;
use flashr_safs::{
    CacheStatsSnapshot, IoStatsSnapshot, LatencyHistoSnapshot, ShardStatsSnapshot, Stat, StatValue,
    LAT_BUCKETS,
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

    /// The default level of a context, from the environment.
    pub fn from_env() -> TraceLevel {
        let out = crate::env::trace_out().map(|p| p.to_string_lossy().into_owned());
        TraceLevel::from_vars(crate::env::trace().as_deref(), out.as_deref())
    }

    /// The rule behind [`TraceLevel::from_env`]: `trace` is the value of
    /// `FLASHR_TRACE` (unset or unparsable means [`TraceLevel::Off`]),
    /// and a non-empty `out` (`FLASHR_TRACE_OUT`) raises the level to
    /// [`TraceLevel::Timeline`], since only that level has a trace to
    /// write.
    pub fn from_vars(trace: Option<&str>, out: Option<&str>) -> TraceLevel {
        let level = trace.and_then(TraceLevel::parse).unwrap_or(TraceLevel::Off);
        if out.is_some_and(|o| !o.is_empty()) {
            level.max(TraceLevel::Timeline)
        } else {
            level
        }
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
    /// chain covers, always ≥ 2 — this one profile stands in for
    /// `chain_len` nodes. 0 for every other node, a map that runs as a
    /// one-op kernel included.
    pub chain_len: u64,
    /// Bytes of chunks the node's kernel skipped allocating across all
    /// evaluations: a chain's interior nodes, and the root's own chunk
    /// when it wrote straight into a tall output (0 for nodes that are
    /// not element-wise maps).
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
    /// SIMD dispatch level the pass's kernels were compiled at
    /// (`"scalar"` or `"avx2"`).
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
    /// The context's span log, at the detail `level` asks for.
    log: Arc<Timeline>,
}

impl Tracer {
    pub fn new(level: TraceLevel) -> Tracer {
        Tracer {
            level,
            passes: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            log: Arc::new(Timeline::for_level(level)),
        }
    }

    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// The span log every level records into (see [`timeline`] for what
    /// each level keeps).
    pub fn log(&self) -> &Arc<Timeline> {
        &self.log
    }

    /// The span log when it holds the full-detail timeline; `None`
    /// below [`TraceLevel::Timeline`].
    pub fn timeline(&self) -> Option<&Arc<Timeline>> {
        self.enabled(TraceLevel::Timeline).then_some(&self.log)
    }

    /// Events evicted because a timeline lane hit its budget (0 when
    /// the timeline is off: the summary below it evicts by design).
    pub fn dropped_events(&self) -> u64 {
        self.timeline().map(|t| t.dropped_events()).unwrap_or(0)
    }

    /// Export the recorded span timeline as Chrome `trace_event` JSON
    /// (an empty but valid document when the timeline is off).
    pub fn export_chrome_trace(&self) -> String {
        match self.timeline() {
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

    /// Profiles dropped because the per-context cap was reached.
    pub fn dropped_passes(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Forget everything recorded so far (the level stays).
    pub fn clear(&self) {
        self.passes.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
        self.log.clear();
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
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            exec_json(&self.exec, w.key("exec"));
            match &self.io {
                Some(io) => io_json(io, w.key("io")),
                None => w.key("io").null(),
            }
            w.key("io_shards").arr(|w| self.io_shards.iter().for_each(|s| shard_json(s, w)));
            w.key("dropped_passes").u64(self.dropped_passes);
            w.key("dropped_events").u64(self.dropped_events);
            w.key("passes").arr(|w| self.passes.iter().for_each(|p| pass_json(p, w)));
            w.key("critical_path")
                .arr(|w| self.critical_path.iter().for_each(|b| breakdown_json(b, w)));
        })
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

/// The scalar statistics as members, in declaration order.
fn scalar_members(stats: &[Stat], w: &mut Writer) {
    for s in stats {
        if let StatValue::Counter(v) | StatValue::Gauge(v) = s.value {
            w.key(s.field).u64(v);
        }
    }
}

/// The histogram statistics as members, in declaration order.
fn histo_members(stats: &[Stat], w: &mut Writer) {
    for s in stats {
        if let StatValue::Histogram(h) = &s.value {
            histo_json(h, w.key(s.field));
        }
    }
}

pub(crate) fn exec_json(e: &ExecStatsSnapshot, w: &mut Writer) {
    w.obj(|w| scalar_members(&e.stats(), w));
}

fn histo_json(h: &LatencyHistoSnapshot, w: &mut Writer) {
    w.obj(|w| {
        w.key("count").u64(h.count());
        w.key("p50_ns").u64(h.quantile_upper_ns(0.50));
        w.key("p95_ns").u64(h.quantile_upper_ns(0.95));
        w.key("p99_ns").u64(h.quantile_upper_ns(0.99));
        // Sparse bucket list: [[lower_bound_ns, count], ...]
        w.key("buckets").arr(|w| {
            for i in (0..LAT_BUCKETS).filter(|&i| h.buckets[i] != 0) {
                w.arr(|w| {
                    w.u64(flashr_safs::LatencyHisto::bucket_bounds(i).0);
                    w.u64(h.buckets[i]);
                });
            }
        });
    });
}

pub(crate) fn io_json(io: &IoStatsSnapshot, w: &mut Writer) {
    w.obj(|w| {
        let stats = io.stats();
        scalar_members(&stats, w);
        cache_json(&io.cache, w.key("cache"));
        histo_members(&stats, w);
    });
}

/// Serialize one storage shard's counters (also used by benchmark
/// artifacts).
pub fn shard_json(s: &ShardStatsSnapshot, w: &mut Writer) {
    w.obj(|w| {
        let stats = s.stats();
        scalar_members(&stats, w);
        histo_members(&stats, w);
    });
}

/// Serialize page-cache counters (also used by benchmark artifacts).
pub fn cache_json(c: &CacheStatsSnapshot, w: &mut Writer) {
    w.obj(|w| scalar_members(&c.stats(), w));
}

fn pass_json(p: &PassProfile, w: &mut Writer) {
    w.obj(|w| {
        w.key("pass_id").u64(p.pass_id);
        w.key("engine").str(p.engine);
        w.key("mode").str(p.mode);
        w.key("simd").str(p.simd);
        let (local, remote) = p.numa_split();
        for (key, v) in [
            ("nodes", p.nodes as u64),
            ("nodes_pre_cse", p.nodes_pre_cse as u64),
            ("nparts", p.nparts),
            ("pcache_step", p.pcache_step as u64),
            ("sinks", p.sinks as u64),
            ("talls", p.talls as u64),
            ("wall_nanos", p.wall_nanos),
            ("io_wait_nanos", p.io_wait_nanos()),
            ("compute_nanos", p.compute_nanos()),
            ("write_stall_nanos", p.write_stall_nanos()),
            ("pcache_chunks", p.pcache_chunks()),
            ("local_parts", local),
            ("remote_parts", remote),
            ("cache_hits", p.cache.hits),
            ("cache_misses", p.cache.misses),
            ("cache_readahead", p.cache.readahead_issued),
        ] {
            w.key(key).u64(v);
        }
        w.key("workers").arr(|w| {
            for wp in &p.workers {
                w.obj(|w| {
                    for (key, v) in [
                        ("tid", wp.tid as u64),
                        ("parts", wp.parts),
                        ("local_parts", wp.local_parts),
                        ("remote_parts", wp.remote_parts),
                        ("io_wait_nanos", wp.io_wait_nanos),
                        ("compute_nanos", wp.compute_nanos),
                        ("write_stall_nanos", wp.write_stall_nanos),
                        ("pcache_chunks", wp.pcache_chunks),
                    ] {
                        w.key(key).u64(v);
                    }
                });
            }
        });
        w.key("ops").arr(|w| {
            for op in &p.ops {
                w.obj(|w| {
                    w.key("node_id").u64(op.node_id);
                    w.key("label").str(&op.label);
                    w.key("chunks").u64(op.chunks);
                    w.key("nanos").u64(op.nanos);
                    w.key("chain_len").u64(op.chain_len);
                    w.key("saved_bytes").u64(op.saved_bytes);
                });
            }
        });
    });
}

fn breakdown_json(b: &PassBreakdown, w: &mut Writer) {
    w.obj(|w| {
        w.key("pass_id").u64(b.pass_id);
        w.key("engine").str(b.engine);
        for (key, v) in [
            ("nworkers", b.nworkers as u64),
            ("wall_nanos", b.wall_nanos),
            ("compute_nanos", b.compute_nanos),
            ("io_wait_nanos", b.io_wait_nanos),
            ("write_stall_nanos", b.write_stall_nanos),
            ("idle_nanos", b.idle_nanos),
            ("tasks", b.tasks),
            ("median_task_nanos", b.median_task_nanos),
            ("stragglers", b.stragglers),
            ("readahead_late", b.readahead_late),
        ] {
            w.key(key).u64(v);
        }
        w.key("bound").str(b.bound);
        w.key("utilization").f64(b.utilization());
    });
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
    fn trace_out_raises_the_default_level_to_timeline() {
        use TraceLevel::{Off, Pass, Timeline};
        assert_eq!(TraceLevel::from_vars(None, None), Off);
        assert_eq!(TraceLevel::from_vars(Some("pass"), None), Pass);
        assert_eq!(TraceLevel::from_vars(Some("bogus"), None), Off);
        // README: `FLASHR_TRACE_OUT` "raises the level to `timeline`".
        assert_eq!(TraceLevel::from_vars(None, Some("t.json")), Timeline);
        assert_eq!(TraceLevel::from_vars(Some("pass"), Some("t.json")), Timeline);
        assert_eq!(TraceLevel::from_vars(Some("off"), Some("t.json")), Timeline);
        assert_eq!(TraceLevel::from_vars(Some("pass"), Some("")), Pass, "empty means unset");
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
        json::parse(&json).expect("strict JSON");
    }
}

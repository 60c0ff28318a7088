//! Execution tracing: per-pass profiles, JSON metrics export, and the
//! `FLASHR_TRACE` gate.
//!
//! The paper's evaluation constantly asks "how many passes did that DAG
//! take, and where did the time go — I/O or compute?" (§4.3, Fig. 10).
//! This module makes those questions answerable from inside a process:
//!
//! * [`TraceLevel`] — the `FLASHR_TRACE=off|pass|timeline` gate, read
//!   once per context from the environment (or set explicitly on
//!   [`crate::session::CtxConfig`]).
//! * [`PassProfile`] — one record per materialization pass: engine, node
//!   count, partitions, per-worker I/O-wait vs compute split, Pcache
//!   chunk counts and per-node operator timings.
//! * [`Counters`] — the always-on counters at one instant, rendered once:
//!   as the profile JSON's `exec`/`io`/`io_shards`/`mem` sections.
//! * [`ProfileReport`] — everything a context observed, serialized to
//!   JSON with [`crate::json::Writer`].
//! * [`timeline`] — the context's one span log: per-thread tracks of
//!   timestamped spans (executor tasks, I/O request lifecycles, cache
//!   waits). Below `FLASHR_TRACE=timeline` it keeps a short summary for
//!   the flight recorder; at it, the full task stream, exportable as a
//!   Chrome/Perfetto trace ([`chrome`], [`Tracer::export_chrome_trace`],
//!   `FLASHR_TRACE_OUT=<path>`) and mined by
//!   [`FlashCtx::profile_report`](crate::session::FlashCtx::profile_report)
//!   for each pass's median task time and stragglers.
//! * [`flight`] — the flight recorder: the newest events of every lane
//!   plus the [`Counters`], dumped on a panic or a device I/O error.
//!
//! Cost model: when tracing is `off` the engine pays, beside the
//! always-on counters, two summary events per pass and one per
//! partition into pre-allocated lane buffers, and nothing per chunk.

pub mod chrome;
pub mod flight;
pub mod timeline;

pub use crate::json::{json_escape, json_f64};
pub use timeline::{EventKind, Lane, LaneSnapshot, SpanEvent, Timeline};

use crate::json::{self, Writer};
use crate::session::{MemGovernor, MemSnapshot};
use crate::stats::{ExecStats, ExecStatsSnapshot};
use flashr_safs::sync::Mutex;
use flashr_safs::{
    CacheStatsSnapshot, IoStatsSnapshot, LatencyHistoSnapshot, Safs, ShardStatsSnapshot, Stat,
    StatValue, LAT_BUCKETS,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How much the engine records. Levels are ordered: each one includes
/// everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing beyond the always-on [`crate::stats::ExecStats`]
    /// counters.
    Off,
    /// Record a [`PassProfile`] per materialization pass (per-worker
    /// I/O-wait vs compute split, chunk counts, per-node operator
    /// timings).
    Pass,
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
            "pass" => Some(TraceLevel::Pass),
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
    /// Nanoseconds blocked on leaf reads.
    pub io_wait_nanos: u64,
    /// Nanoseconds inside partition evaluation.
    pub compute_nanos: u64,
    /// Nanoseconds blocked on external-memory output writes (the
    /// pending-write bound and the end-of-pass drain).
    pub write_stall_nanos: u64,
    /// Pcache chunk ranges evaluated.
    pub pcache_chunks: u64,
}

/// Accumulated timing for one DAG node within one pass.
///
/// `nanos` is *inclusive*: producing a node's chunk includes producing
/// any not-yet-memoized inputs, so a parent's time covers its children
/// the first time they are evaluated.
#[derive(Debug, Clone, Default)]
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
    /// Per-node timings, by node id.
    pub ops: Vec<OpProfile>,
    /// SIMD dispatch level the pass's kernels were compiled at
    /// (`"scalar"` or `"avx2"`).
    pub simd: &'static str,
    /// Median `task`-span duration, and the tasks slower than
    /// [`STRAGGLER_FACTOR`] × it. Filled from the span log by
    /// [`FlashCtx::profile_report`](crate::session::FlashCtx::profile_report);
    /// 0 below [`TraceLevel::Timeline`].
    pub median_task_nanos: u64,
    pub stragglers: u64,
}

/// A task slower than `STRAGGLER_FACTOR` × its pass's median task time
/// is a straggler.
pub const STRAGGLER_FACTOR: u64 = 2;

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

    /// Worker time the other three sums leave of `workers × wall`:
    /// scheduler idle at the tail of the pass, claim contention and span
    /// gaps.
    pub fn idle_nanos(&self) -> u64 {
        let busy = self.compute_nanos() + self.io_wait_nanos() + self.write_stall_nanos();
        (self.workers.len() as u64 * self.wall_nanos).saturating_sub(busy)
    }

    /// The largest of the four parts of worker time: `"compute"`,
    /// `"io-wait"`, `"write-stall"` or `"idle"`.
    pub fn bound(&self) -> &'static str {
        [
            ("compute", self.compute_nanos()),
            ("io-wait", self.io_wait_nanos()),
            ("write-stall", self.write_stall_nanos()),
            ("idle", self.idle_nanos()),
        ]
        .into_iter()
        .max_by_key(|&(_, v)| v)
        .map_or("compute", |(n, _)| n)
    }

    /// Fraction of worker time spent computing (NaN without workers or
    /// wall time, serialized as `null`).
    pub fn utilization(&self) -> f64 {
        self.compute_nanos() as f64 / (self.workers.len() as f64 * self.wall_nanos as f64)
    }
}

/// Fill every pass's `median_task_nanos` and `stragglers` from the span
/// log in one walk: each lane's `task` Begin/End pairs are stack-matched
/// and each duration is credited to the pass its Begin names.
pub(crate) fn fill_task_stats(passes: &mut [PassProfile], lanes: &[LaneSnapshot]) {
    let mut durs: HashMap<u64, Vec<u64>> = HashMap::new();
    for lane in lanes {
        let mut open: Vec<(u64, Option<u64>)> = Vec::new(); // (begin_ts, pass)
        for ev in lane.events.iter().filter(|e| e.name == "task") {
            match ev.kind {
                EventKind::Begin => {
                    let pass = ev.args.iter().find(|(k, _)| *k == "pass").map(|&(_, v)| v);
                    open.push((ev.ts_ns, pass));
                }
                EventKind::End => {
                    if let Some((t0, Some(pass))) = open.pop() {
                        durs.entry(pass).or_default().push(ev.ts_ns.saturating_sub(t0));
                    }
                }
                _ => {}
            }
        }
    }
    for p in passes {
        let Some(d) = durs.get_mut(&p.pass_id) else { continue };
        d.sort_unstable();
        let median = d[d.len() / 2];
        p.median_task_nanos = median;
        p.stragglers =
            d.iter().filter(|&&t| median > 0 && t > STRAGGLER_FACTOR * median).count() as u64;
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

/// A context's always-on counters at one instant: the sections the
/// profile JSON and the flight dump both carry.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub exec: ExecStatsSnapshot,
    /// SAFS I/O counters and latency histograms; `None` for in-memory
    /// contexts.
    pub io: Option<IoStatsSnapshot>,
    /// Configured page-cache capacity (0 = no cache installed).
    pub cache_capacity_bytes: u64,
    /// Per-shard (emulated device) I/O counters in shard order; empty
    /// for in-memory contexts.
    pub io_shards: Vec<ShardStatsSnapshot>,
    pub mem: MemSnapshot,
}

impl Counters {
    /// Snapshot the three sources every context has.
    pub fn read(exec: &ExecStats, governor: &MemGovernor, safs: Option<&Safs>) -> Counters {
        Counters {
            exec: exec.snapshot(),
            io: safs.map(|s| s.stats_snapshot()),
            cache_capacity_bytes: safs.map(|s| s.page_cache_capacity()).unwrap_or(0),
            io_shards: safs.map(|s| s.shard_stats_snapshots()).unwrap_or_default(),
            mem: governor.snapshot(),
        }
    }

    /// The `exec`, `io`, `io_shards` and `mem` members of the enclosing
    /// object.
    fn members(&self, w: &mut Writer) {
        exec_json(&self.exec, w.key("exec"));
        match &self.io {
            Some(io) => io_json(io, self.cache_capacity_bytes, w.key("io")),
            None => w.key("io").null(),
        }
        w.key("io_shards").arr(|w| self.io_shards.iter().for_each(|s| shard_json(s, w)));
        w.key("mem").obj(|w| {
            w.key("budget_bytes").u64(self.mem.budget_bytes);
            w.key("pinned_bytes").u64(self.mem.pinned_bytes);
            w.key("spills").u64(self.mem.spills);
            w.key("overcommits").u64(self.mem.overcommits);
        });
    }
}

/// Everything a context observed, ready for JSON export.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    pub counters: Counters,
    pub passes: Vec<PassProfile>,
    pub dropped_passes: u64,
    /// Timeline events discarded at the per-lane budget (0 when the
    /// timeline is off).
    pub dropped_events: u64,
}

impl ProfileReport {
    /// Serialize to JSON: the [`Counters`] sections, then the passes.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            self.counters.members(w);
            w.key("dropped_passes").u64(self.dropped_passes);
            w.key("dropped_events").u64(self.dropped_events);
            w.key("passes").arr(|w| self.passes.iter().for_each(|p| pass_json(p, w)));
        })
    }

    /// The per-pass critical-path table, the heaviest 12 passes by wall
    /// time (same rendering in every bench bin; empty string when no
    /// passes were recorded).
    pub fn critical_path_table(&self) -> String {
        if self.passes.is_empty() {
            return String::new();
        }
        let mut o = String::from(
            "pass  engine        wall_ms   comp%    io%    wr%  idle%  tasks  straggler  bound\n",
        );
        // Iterative workloads record thousands of near-identical passes.
        let mut order: Vec<&PassProfile> = self.passes.iter().collect();
        order.sort_by_key(|p| std::cmp::Reverse(p.wall_nanos));
        let shown = order.len().min(12);
        for p in &order[..shown] {
            let denom = (p.workers.len() as u64 * p.wall_nanos).max(1) as f64;
            let pct = |n: u64| 100.0 * n as f64 / denom;
            o.push_str(&format!(
                "{:>4}  {:<12} {:>8.2} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>6} {:>10}  {}\n",
                p.pass_id,
                p.engine,
                p.wall_nanos as f64 / 1e6,
                pct(p.compute_nanos()),
                pct(p.io_wait_nanos()),
                pct(p.write_stall_nanos()),
                pct(p.idle_nanos()),
                p.nparts,
                p.stragglers,
                p.bound(),
            ));
        }
        if order.len() > shown {
            o.push_str(&format!(
                "({} more passes omitted; sorted by wall time)\n",
                order.len() - shown
            ));
        }
        o
    }
}

/// The scalar statistics as members, in declaration order.
fn scalar_members(stats: &[Stat], w: &mut Writer) {
    for s in stats {
        if let StatValue::Scalar(v) = s.value {
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

fn exec_json(e: &ExecStatsSnapshot, w: &mut Writer) {
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

fn io_json(io: &IoStatsSnapshot, cache_capacity_bytes: u64, w: &mut Writer) {
    w.obj(|w| {
        let stats = io.stats();
        scalar_members(&stats, w);
        w.key("cache_capacity_bytes").u64(cache_capacity_bytes);
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
            ("idle_nanos", p.idle_nanos()),
            ("pcache_chunks", p.pcache_chunks()),
            ("cache_hits", p.cache.hits),
            ("cache_misses", p.cache.misses),
            ("median_task_nanos", p.median_task_nanos),
            ("stragglers", p.stragglers),
        ] {
            w.key(key).u64(v);
        }
        w.key("bound").str(p.bound());
        w.key("utilization").f64(p.utilization());
        w.key("workers").arr(|w| {
            for wp in &p.workers {
                w.obj(|w| {
                    for (key, v) in [
                        ("tid", wp.tid as u64),
                        ("parts", wp.parts),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("0"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse(" pass "), Some(TraceLevel::Pass));
        assert_eq!(TraceLevel::parse("Timeline"), Some(TraceLevel::Timeline));
        assert_eq!(TraceLevel::parse("bogus"), None);
        assert_eq!(TraceLevel::parse("summary"), None);
        assert_eq!(TraceLevel::parse("op"), None);
        assert!(TraceLevel::Timeline > TraceLevel::Pass);
        assert!(TraceLevel::Pass > TraceLevel::Off);
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
        assert!(t.enabled(TraceLevel::Off));
        assert!(t.enabled(TraceLevel::Pass));
        assert!(!t.enabled(TraceLevel::Timeline));
        let off = Tracer::new(TraceLevel::Off);
        assert!(!off.enabled(TraceLevel::Pass));
    }

    fn pass(pass_id: u64, wall: u64, workers: Vec<WorkerProfile>) -> PassProfile {
        PassProfile {
            pass_id,
            engine: "fused",
            mode: "CacheFuse",
            nodes: 1,
            nodes_pre_cse: 1,
            nparts: 4,
            pcache_step: 64,
            sinks: 1,
            talls: 0,
            wall_nanos: wall,
            cache: CacheStatsSnapshot::default(),
            workers,
            ops: Vec::new(),
            simd: "scalar",
            median_task_nanos: 0,
            stragglers: 0,
        }
    }

    fn worker(compute: u64, io: u64, ws: u64, parts: u64) -> WorkerProfile {
        WorkerProfile {
            parts,
            io_wait_nanos: io,
            compute_nanos: compute,
            write_stall_nanos: ws,
            ..Default::default()
        }
    }

    fn report(passes: Vec<PassProfile>) -> ProfileReport {
        ProfileReport { passes, ..Default::default() }
    }

    #[test]
    fn tracer_caps_recorded_passes() {
        let t = Tracer::new(TraceLevel::Pass);
        for _ in 0..(MAX_PASSES + 10) {
            t.record_pass(pass(1, 1, Vec::new()));
        }
        assert_eq!(t.passes().len(), MAX_PASSES);
        assert_eq!(t.dropped_passes(), 10);
        t.clear();
        assert!(t.passes().is_empty());
        assert_eq!(t.dropped_passes(), 0);
    }

    #[test]
    fn report_json_is_wellformed() {
        let op = OpProfile {
            node_id: 7,
            label: "mapply:Add \"x\"".into(),
            chunks: 4,
            nanos: 50,
            ..Default::default()
        };
        let p = PassProfile {
            simd: "avx2",
            ops: vec![op],
            ..pass(1, 12345, vec![WorkerProfile { pcache_chunks: 4, ..worker(100, 10, 5, 2) }])
        };
        let report = ProfileReport {
            counters: Counters {
                exec: ExecStatsSnapshot { passes: 1, parts: 2, ..Default::default() },
                io_shards: vec![ShardStatsSnapshot { read_reqs: 3, ..Default::default() }],
                ..Default::default()
            },
            ..report(vec![p])
        };
        let json = report.to_json();
        assert!(json.contains("\"engine\":\"fused\""));
        assert!(json.contains("\"simd\":\"avx2\""));
        assert!(json.contains("\"write_stall_nanos\":5"));
        // 1 worker × 12345 wall − (100 + 10 + 5)
        assert!(json.contains("\"idle_nanos\":12230"));
        assert!(json.contains("\"bound\":\"idle\""));
        assert!(json.contains("\"dropped_events\":0"));
        assert!(json.contains("\"io\":null"));
        assert!(json.contains("\"io_shards\":[{\"read_reqs\":3,"));
        assert!(json.contains("\"mem\":{\"budget_bytes\":0,"));
        // escaping: the label's quotes must be escaped
        assert!(json.contains("mapply:Add \\\"x\\\""));
        json::parse(&json).expect("strict JSON");
    }

    fn event(
        name: &'static str,
        kind: EventKind,
        ts_ns: u64,
        args: [(&'static str, u64); 2],
    ) -> SpanEvent {
        SpanEvent { ts_ns, dur_ns: 0, kind, cat: "exec", name: name.into(), args }
    }

    /// `(begin, end)` task spans of `pass` as Begin/End events.
    fn tasks(pass: u64, spans: &[(u64, u64)]) -> Vec<SpanEvent> {
        let tagged = [("part", 0), ("pass", pass)];
        let untagged = [("", 0), ("", 0)];
        let pair = |&(t0, t1): &(u64, u64)| {
            [
                event("task", EventKind::Begin, t0, tagged),
                event("task", EventKind::End, t1, untagged),
            ]
        };
        spans.iter().flat_map(pair).collect()
    }

    #[test]
    fn aggregate_attribution_without_timeline() {
        let p = pass(1, 1000, vec![worker(600, 100, 50, 2), worker(500, 200, 0, 2)]);
        assert_eq!(p.workers.len(), 2);
        assert_eq!(p.compute_nanos(), 1100);
        assert_eq!(p.io_wait_nanos(), 300);
        assert_eq!(p.write_stall_nanos(), 50);
        // 2 workers × 1000 wall − (1100+300+50) = 550 idle
        assert_eq!(p.idle_nanos(), 550);
        assert_eq!(p.bound(), "compute");
        assert_eq!(p.nparts, 4);
        assert_eq!(p.stragglers, 0);
        assert!((p.utilization() - 0.55).abs() < 1e-9);
    }

    #[test]
    fn stragglers_from_spans() {
        // Four tasks of 100ns and one of 900ns → median 100, one straggler.
        let mut evs = vec![event("pass", EventKind::Begin, 0, [("pass", 7), ("", 0)])];
        evs.extend(tasks(7, &[(10, 110), (210, 310), (410, 510), (610, 710), (1000, 1900)]));
        evs.push(event("pass", EventKind::End, 2000, [("", 0), ("", 0)]));
        let lanes = vec![LaneSnapshot { name: "w0".into(), events: evs }];

        let mut passes = vec![pass(7, 2000, vec![worker(100, 1800, 0, 5)])];
        fill_task_stats(&mut passes, &lanes);
        let p = &passes[0];
        assert_eq!(p.median_task_nanos, 100);
        assert_eq!(p.stragglers, 1);
        assert_eq!(p.bound(), "io-wait");
    }

    #[test]
    fn one_walk_credits_each_pass_only_its_own_tasks() {
        // Two eager sub-passes run back to back on one worker lane: pass 1
        // has three 100ns tasks, pass 2 two 300ns tasks and one 1000ns one.
        let mut evs = tasks(1, &[(0, 100), (100, 200), (200, 300)]);
        evs.extend(tasks(2, &[(400, 700), (700, 1000), (1000, 2000)]));
        let lanes = vec![LaneSnapshot { name: "flashr-w0".into(), events: evs }];
        let mut passes = vec![pass(1, 300, Vec::new()), pass(2, 1600, Vec::new())];
        passes.iter_mut().for_each(|p| p.engine = "eager-step");
        fill_task_stats(&mut passes, &lanes);
        assert_eq!((passes[0].median_task_nanos, passes[0].stragglers), (100, 0));
        assert_eq!((passes[1].median_task_nanos, passes[1].stragglers), (300, 1));
    }

    #[test]
    fn table_renders_and_caps() {
        let passes = (1..=20).map(|i| pass(i, i * 1000, vec![worker(500, 100, 0, 2)])).collect();
        let table = report(passes).critical_path_table();
        assert!(table.contains("bound"));
        assert!(table.contains("8 more passes omitted"));
        // Heaviest pass (20) must be shown, lightest (1) omitted.
        assert!(table.contains("\n  20  fused"));
        assert!(!table.contains("\n   1  fused"));
        assert_eq!(report(Vec::new()).critical_path_table(), "");
    }
}

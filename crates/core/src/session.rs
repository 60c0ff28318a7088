//! The FlashR execution context: threads, engine mode, partitioning and
//! the optional SSD array.

use crate::mat::TasMat;
use crate::part::Partitioner;
use crate::stats::ExecStats;
use crate::trace::flight::{self, CounterSources, FlightRecorder};
use crate::trace::timeline::claim_trace_out;
use crate::trace::{fill_task_stats, Counters, ProfileReport, TraceLevel, Tracer};
use flashr_safs::{CacheCfg, Safs, SafsConfig, SafsResult, SpanSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How DAGs are materialized — exactly the three configurations the
/// paper's Figure 10 ablates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// "base": every operation materialized separately, one full pass per
    /// operation (Spark-style).
    Eager,
    /// "+mem-fuse": one pass over I/O partitions, whole-partition
    /// intermediates (fused in memory, not in cache).
    MemFuse,
    /// "+cache-fuse" (default): Pcache partitioning with depth-first
    /// chaining through the CPU cache.
    CacheFuse,
}

impl ExecMode {
    /// The variant's name, as profiles and store records spell it.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Eager => "Eager",
            ExecMode::MemFuse => "MemFuse",
            ExecMode::CacheFuse => "CacheFuse",
        }
    }
}

/// Where materialized matrices are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageClass {
    /// One in-memory buffer per I/O partition.
    InMem,
    /// The SSD array (requires a [`Safs`] runtime on the context).
    Em,
}

/// Tunables for a [`FlashCtx`].
#[derive(Debug, Clone)]
pub struct CtxConfig {
    /// Worker threads for materialization.
    pub nthreads: usize,
    /// Engine mode (Fig. 10 ablation axis).
    pub mode: ExecMode,
    /// Pcache budget in bytes (sized against L2): what one Pcache range
    /// holds live at once, which sets the step (`Plan::live_row_bytes`).
    pub pcache_bytes: usize,
    /// Rows per I/O partition (power of two).
    pub rows_per_part: u64,
    /// Default placement of materialized tall matrices.
    pub storage: StorageClass,
    /// Placement of `set.cache` byproducts (the paper caches reused
    /// vectors in memory by default but supports caching on SSDs).
    pub cache_storage: StorageClass,
    /// Tracing level (defaults to [`TraceLevel::from_env`]: the
    /// `FLASHR_TRACE` environment variable, off when unset).
    pub trace: TraceLevel,
    /// Upper bound on in-flight asynchronous external-memory output
    /// writes per worker. When the bound is reached the worker waits for
    /// the *oldest* write only, keeping the remaining slots streaming.
    pub max_pending_writes: usize,
    /// Optional global memory budget. On an EM context this sizes the
    /// SAFS page cache and bounds `set.cache` pinning (over-budget
    /// cached matrices spill to SAFS temporaries); `None` keeps the
    /// historical unlimited behavior.
    pub mem_budget: Option<MemBudget>,
}

impl Default for CtxConfig {
    fn default() -> Self {
        CtxConfig {
            nthreads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            mode: ExecMode::CacheFuse,
            pcache_bytes: 256 * 1024,
            rows_per_part: Partitioner::DEFAULT_ROWS,
            storage: StorageClass::InMem,
            cache_storage: StorageClass::InMem,
            trace: TraceLevel::from_env(),
            max_pending_writes: 8,
            mem_budget: None,
        }
    }
}

/// A global memory budget shared by the SAFS page cache and `set.cache`
/// materializations (paper §3.2.1: FlashR keeps both under one
/// memory-size knob so EM sessions degrade gracefully instead of
/// swapping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemBudget {
    /// Total bytes the session may pin (0 = unlimited, the historical
    /// behavior). On EM contexts half backs the SAFS page cache and the
    /// rest pinned `set.cache` matrices.
    pub total_bytes: u64,
}

impl MemBudget {
    /// A budget of `total_bytes`, split evenly between the page cache
    /// and pinned materializations.
    pub fn new(total_bytes: u64) -> Self {
        MemBudget { total_bytes }
    }

    pub(crate) fn cache_bytes(&self) -> u64 {
        self.total_bytes / 2
    }

    pub(crate) fn pin_bytes(&self) -> u64 {
        self.total_bytes - self.cache_bytes()
    }
}

struct GovInner {
    /// Pinnable budget in bytes; 0 means "unlimited" (every pin
    /// succeeds and nothing spills).
    budget: u64,
    pinned: AtomicU64,
    spills: AtomicU64,
    overcommits: AtomicU64,
}

/// Tracks how much memory `set.cache` materializations have pinned and
/// decides when a cached matrix must spill to a SAFS temporary instead.
///
/// Cheap to clone; all clones share the same accounting.
#[derive(Clone)]
pub struct MemGovernor {
    inner: Arc<GovInner>,
}

impl MemGovernor {
    pub(crate) fn new(budget: u64) -> Self {
        MemGovernor {
            inner: Arc::new(GovInner {
                budget,
                pinned: AtomicU64::new(0),
                spills: AtomicU64::new(0),
                overcommits: AtomicU64::new(0),
            }),
        }
    }

    /// Try to reserve `bytes` of the pin budget. `None` means the caller
    /// should spill instead. With an unlimited budget every pin succeeds.
    pub fn try_pin(&self, bytes: u64) -> Option<CachePin> {
        if self.inner.budget == 0 {
            self.inner.pinned.fetch_add(bytes, Ordering::Relaxed);
            return Some(CachePin { gov: self.inner.clone(), bytes });
        }
        let mut cur = self.inner.pinned.load(Ordering::Relaxed);
        loop {
            let next = cur.checked_add(bytes)?;
            if next > self.inner.budget {
                return None;
            }
            match self.inner.pinned.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(CachePin { gov: self.inner.clone(), bytes }),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Reserve `bytes` unconditionally (used when there is nowhere to
    /// spill to); counts an overcommit when this bursts the budget.
    pub(crate) fn force_pin(&self, bytes: u64) -> CachePin {
        let prev = self.inner.pinned.fetch_add(bytes, Ordering::Relaxed);
        if self.inner.budget > 0 && prev.saturating_add(bytes) > self.inner.budget {
            self.inner.overcommits.fetch_add(1, Ordering::Relaxed);
        }
        CachePin { gov: self.inner.clone(), bytes }
    }

    pub(crate) fn note_spill(&self) {
        self.inner.spills.fetch_add(1, Ordering::Relaxed);
    }

    /// The pinnable budget in bytes (0 = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.inner.budget
    }

    /// Bytes currently pinned by live `set.cache` matrices.
    pub fn pinned_bytes(&self) -> u64 {
        self.inner.pinned.load(Ordering::Relaxed)
    }

    /// How many cached matrices spilled to SAFS temporaries.
    pub fn spills(&self) -> u64 {
        self.inner.spills.load(Ordering::Relaxed)
    }

    /// How many pins burst the budget because no SAFS runtime was
    /// available to spill to.
    pub fn overcommits(&self) -> u64 {
        self.inner.overcommits.load(Ordering::Relaxed)
    }

    /// Copy out the four readings above.
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            budget_bytes: self.budget_bytes(),
            pinned_bytes: self.pinned_bytes(),
            spills: self.spills(),
            overcommits: self.overcommits(),
        }
    }
}

/// Point-in-time copy of a [`MemGovernor`]'s accounting (the profile
/// JSON's `mem` section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// The pinnable budget in bytes (0 = unlimited).
    pub budget_bytes: u64,
    /// Bytes currently pinned by live `set.cache` matrices.
    pub pinned_bytes: u64,
    /// Cached matrices spilled to SAFS temporaries.
    pub spills: u64,
    /// Pins admitted above budget because nothing could spill.
    pub overcommits: u64,
}

impl std::fmt::Debug for MemGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemGovernor")
            .field("budget", &self.inner.budget)
            .field("pinned", &self.pinned_bytes())
            .field("spills", &self.spills())
            .finish()
    }
}

/// RAII reservation of pin budget; releases its bytes on drop (i.e.
/// when the cached matrix it guards is dropped or uncached).
pub struct CachePin {
    gov: Arc<GovInner>,
    bytes: u64,
}

impl Drop for CachePin {
    fn drop(&mut self) {
        self.gov.pinned.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for CachePin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CachePin({} bytes)", self.bytes)
    }
}

/// A FlashR session. Cheap to clone (shared internals).
#[derive(Clone)]
pub struct FlashCtx {
    inner: Arc<CtxInner>,
}

struct CtxInner {
    cfg: CtxConfig,
    safs: Option<Safs>,
    stats: Arc<ExecStats>,
    tracer: Tracer,
    governor: MemGovernor,
    flight: Arc<FlightRecorder>,
    /// Cross-pass recycler for tall-output partition buffers.
    part_bufs: Arc<crate::chunk::PartBufPool>,
}

impl Drop for CtxInner {
    fn drop(&mut self) {
        // This context's spans end here; others on the runtime go on.
        if let Some(s) = &self.safs {
            s.remove_span_sink(&self.span_sink());
        }
        // `FLASHR_TRACE_OUT=<path>`: dump the Chrome trace when the last
        // clone of the context goes away. First context wins the path
        // (claimed once per process) so multi-context programs don't
        // overwrite each other; programs wanting a merged view export
        // explicitly via [`FlashCtx::export_chrome_trace`].
        let Some(tl) = self.tracer.timeline() else { return };
        if tl.total_events() == 0 {
            return;
        }
        if let Some(path) = claim_trace_out() {
            let _ = std::fs::write(&path, crate::trace::chrome::export_single("flashr", tl));
        }
    }
}

impl CtxInner {
    /// The context's span log as the SAFS runtime addresses it.
    fn span_sink(&self) -> Arc<dyn SpanSink> {
        self.tracer.log().clone()
    }
}

impl FlashCtx {
    /// An in-memory context with default settings.
    pub fn in_memory() -> FlashCtx {
        FlashCtx::with_config(CtxConfig::default(), None)
    }

    /// A context backed by an SSD array; materialized matrices default to
    /// external memory.
    pub fn on_ssds(safs_cfg: SafsConfig) -> SafsResult<FlashCtx> {
        let safs = Safs::open(safs_cfg)?;
        let cfg = CtxConfig { storage: StorageClass::Em, ..CtxConfig::default() };
        Ok(FlashCtx::with_config(cfg, Some(safs)))
    }

    /// Full control.
    pub fn with_config(cfg: CtxConfig, safs: Option<Safs>) -> FlashCtx {
        assert!(cfg.nthreads >= 1, "need at least one worker thread");
        if cfg.storage == StorageClass::Em || cfg.cache_storage == StorageClass::Em {
            assert!(safs.is_some(), "EM storage requires a SAFS runtime");
        }
        let tracer = Tracer::new(cfg.trace);
        let governor = match (&cfg.mem_budget, &safs) {
            (Some(b), Some(s)) if b.total_bytes > 0 => {
                // Hand the cache share to the SAFS page cache and keep the
                // rest as the pin budget.
                s.set_page_cache(Some(CacheCfg::with_capacity(b.cache_bytes())));
                MemGovernor::new(b.pin_bytes())
            }
            // No SSD array: the whole budget bounds pinning.
            (Some(b), None) => MemGovernor::new(b.total_bytes),
            _ => MemGovernor::new(0),
        };
        let stats = Arc::new(ExecStats::default());
        let sources =
            CounterSources { exec: stats.clone(), governor: governor.clone(), safs: safs.clone() };
        let flight = FlightRecorder::new(tracer.log().clone(), Some(sources));
        flight::register_panic_dump(&flight);
        let inner = Arc::new(CtxInner {
            cfg,
            safs,
            stats,
            tracer,
            governor,
            flight,
            part_bufs: Arc::new(crate::chunk::PartBufPool::new()),
        });
        if let Some(s) = &inner.safs {
            // The SAFS I/O threads record request lifecycle and cache
            // spans on their own (thread-named) lanes of this context's
            // log, beside those of every other context on the runtime;
            // `CtxInner::drop` takes the registration back.
            s.add_span_sink(inner.span_sink());
        }
        FlashCtx { inner }
    }

    /// The configuration.
    pub fn cfg(&self) -> &CtxConfig {
        &self.inner.cfg
    }

    /// The partitioner every matrix in this context uses.
    pub fn parter(&self) -> Partitioner {
        Partitioner::new(self.inner.cfg.rows_per_part)
    }

    /// The SSD array, if any.
    pub fn safs(&self) -> Option<&Safs> {
        self.inner.safs.as_ref()
    }

    /// Engine statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.inner.stats
    }

    /// The trace collector (shared by all clones of this context).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The fault flight recorder (shared by all clones).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.inner.flight
    }

    /// Everything this context observed — engine counters, SAFS I/O
    /// counters and latency histograms (if on SSDs), the memory
    /// governor's accounting, and the recorded pass profiles (with their
    /// task statistics at [`TraceLevel::Timeline`]) — ready for
    /// [`ProfileReport::to_json`].
    pub fn profile_report(&self) -> ProfileReport {
        let inner = &self.inner;
        let mut passes = inner.tracer.passes();
        if let Some(tl) = inner.tracer.timeline() {
            fill_task_stats(&mut passes, &tl.snapshot());
        }
        ProfileReport {
            counters: Counters::read(&inner.stats, &inner.governor, inner.safs.as_ref()),
            passes,
            dropped_passes: inner.tracer.dropped_passes(),
            dropped_events: inner.tracer.dropped_events(),
        }
    }

    /// The timeline (if tracing at [`TraceLevel::Timeline`]) serialized
    /// as a Chrome `trace_event` JSON document for Perfetto /
    /// `chrome://tracing`. Empty document when timeline tracing is off.
    pub fn export_chrome_trace(&self) -> String {
        self.inner.tracer.export_chrome_trace()
    }

    /// A copy of this context with a different engine mode.
    pub fn with_mode(&self, mode: ExecMode) -> FlashCtx {
        let cfg = CtxConfig { mode, ..self.inner.cfg.clone() };
        FlashCtx::with_config(cfg, self.inner.safs.clone())
    }

    /// A copy of this context with a different default storage class.
    pub fn with_storage(&self, storage: StorageClass) -> FlashCtx {
        let cfg = CtxConfig { storage, ..self.inner.cfg.clone() };
        FlashCtx::with_config(cfg, self.inner.safs.clone())
    }

    /// A copy of this context with a different trace level (fresh
    /// tracer; the original's recordings are untouched).
    pub fn with_trace(&self, trace: TraceLevel) -> FlashCtx {
        let cfg = CtxConfig { trace, ..self.inner.cfg.clone() };
        FlashCtx::with_config(cfg, self.inner.safs.clone())
    }

    /// A copy of this context with a memory budget (resizes the SAFS
    /// page cache and starts fresh pin accounting).
    pub fn with_mem_budget(&self, budget: MemBudget) -> FlashCtx {
        let cfg = CtxConfig { mem_budget: Some(budget), ..self.inner.cfg.clone() };
        FlashCtx::with_config(cfg, self.inner.safs.clone())
    }

    /// The memory governor bounding `set.cache` pinning.
    pub fn governor(&self) -> &MemGovernor {
        &self.inner.governor
    }

    /// The cross-pass recycler tall outputs draw their partition buffers
    /// from (result matrices return buffers here on drop).
    pub fn part_buf_pool(&self) -> &Arc<crate::chunk::PartBufPool> {
        &self.inner.part_bufs
    }

    /// Admission control for a freshly materialized `set.cache` matrix:
    /// pin it in memory if the budget allows, otherwise spill it to a
    /// SAFS-backed temporary (it re-enters memory through the page
    /// cache). EM results are already on the array and need no pin.
    pub(crate) fn admit_cache(&self, mat: TasMat) -> (TasMat, Option<CachePin>) {
        if mat.is_em() {
            return (mat, None);
        }
        let bytes = mat
            .nrows()
            .saturating_mul(mat.ncols() as u64)
            .saturating_mul(mat.dtype().size() as u64);
        if let Some(pin) = self.inner.governor.try_pin(bytes) {
            return (mat, Some(pin));
        }
        match &self.inner.safs {
            Some(safs) => {
                self.inner.governor.note_spill();
                (mat.to_em(safs), None)
            }
            // Nowhere to spill: keep it in memory and record the
            // overcommit.
            None => {
                let pin = self.inner.governor.force_pin(bytes);
                (mat, Some(pin))
            }
        }
    }
}

impl std::fmt::Debug for FlashCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlashCtx")
            .field("cfg", &self.inner.cfg)
            .field("safs", &self.inner.safs.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let ctx = FlashCtx::in_memory();
        assert!(ctx.cfg().nthreads >= 1);
        assert_eq!(ctx.cfg().mode, ExecMode::CacheFuse);
        assert_eq!(ctx.cfg().storage, StorageClass::InMem);
        assert!(ctx.safs().is_none());
    }

    #[test]
    fn mode_and_storage_overrides() {
        let ctx = FlashCtx::in_memory();
        let eager = ctx.with_mode(ExecMode::Eager);
        assert_eq!(eager.cfg().mode, ExecMode::Eager);
        // original untouched
        assert_eq!(ctx.cfg().mode, ExecMode::CacheFuse);
    }

    #[test]
    fn try_pin_admits_up_to_the_budget_exactly() {
        let gov = MemGovernor::new(1024);
        let held = gov.try_pin(1000).expect("within budget");
        assert!(gov.try_pin(25).is_none(), "one byte over the remaining 24");
        let rest = gov.try_pin(24).expect("exactly the remaining bytes");
        assert_eq!(gov.pinned_bytes(), 1024);
        assert!(gov.try_pin(1).is_none(), "budget is full");
        drop(held);
        assert_eq!(gov.pinned_bytes(), 24, "dropping a pin restores its headroom");
        assert!(gov.try_pin(1001).is_none());
        assert!(gov.try_pin(1000).is_some());
        drop(rest);

        let unlimited = MemGovernor::new(0);
        let pin = unlimited.try_pin(u64::MAX / 2).expect("budget 0 admits anything");
        assert_eq!(unlimited.pinned_bytes(), u64::MAX / 2);
        drop(pin);
        assert_eq!(unlimited.pinned_bytes(), 0);
    }

    #[test]
    #[should_panic]
    fn em_storage_without_safs_panics() {
        let cfg = CtxConfig { storage: StorageClass::Em, ..CtxConfig::default() };
        let _ = FlashCtx::with_config(cfg, None);
    }
}

//! The SAFS runtime: shard set, storage backend and file factory.

use crate::aio::IoReq;
use crate::backend::{open_backend, BackendKind, ShardStatsSnapshot, StorageBackend, WorkerEnv};
use crate::cache::{CacheCfg, CacheStatsSnapshot, PageCache};
use crate::config::SafsConfig;
use crate::error::{SafsError, SafsResult};
use crate::file::{FileInner, SafsFile};
use crate::layout::Striping;
use crate::span::{SinkSet, SpanSink, SpanSinkCell};
use crate::stats::{IoStats, IoStatsSnapshot};
use crate::sync::Mutex;
use std::fs;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A running SAFS instance.
///
/// Cheap to clone; all clones (and all [`SafsFile`]s created from them)
/// share the same shards, backend workers and statistics. The workers
/// shut down when the last handle and the last file are dropped.
#[derive(Clone)]
pub struct Safs {
    inner: Arc<RtInner>,
}

pub(crate) struct RtInner {
    cfg: SafsConfig,
    backend: Box<dyn StorageBackend>,
    stats: Arc<IoStats>,
    name_counter: AtomicU64,
    page_cache: Mutex<Option<Arc<PageCache>>>,
    span_sink: Arc<SpanSinkCell>,
    /// Injected transient read faults remaining (testing hook).
    faults: Arc<AtomicU64>,
}

impl Drop for RtInner {
    fn drop(&mut self) {
        self.backend.shutdown();
    }
}

impl RtInner {
    pub(crate) fn submit(&self, shard: usize, req: IoReq) {
        self.backend.submit(shard, req);
    }

    pub(crate) fn disk_dir(&self, shard: usize) -> &std::path::Path {
        &self.cfg.disks[shard]
    }

    pub(crate) fn ndisks(&self) -> usize {
        self.cfg.disks.len()
    }

    /// The installed page cache, if any (cheap clone of an `Arc`).
    pub(crate) fn page_cache(&self) -> Option<Arc<PageCache>> {
        self.page_cache.lock().clone()
    }

    /// The registered span sinks, if any (one relaxed load when there
    /// are none).
    pub(crate) fn span_sink(&self) -> Option<Arc<SinkSet>> {
        self.span_sink.get()
    }
}

/// Deterministic per-file striping seed derived from the file name.
fn name_seed(name: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

impl Safs {
    /// Start a runtime over the configured shards, creating the shard
    /// root directories if needed and spawning the backend's worker
    /// threads.
    pub fn open(cfg: SafsConfig) -> SafsResult<Safs> {
        cfg.validate()?;
        for dir in &cfg.disks {
            fs::create_dir_all(dir)
                .map_err(|e| SafsError::io(format!("creating shard root {}", dir.display()), e))?;
        }
        let stats = Arc::new(IoStats::default());
        let span_sink = Arc::new(SpanSinkCell::default());
        let faults = Arc::new(AtomicU64::new(0));
        let backend = open_backend(
            &cfg,
            WorkerEnv {
                stats: stats.clone(),
                span_sink: span_sink.clone(),
                faults: faults.clone(),
            },
        )?;
        let cache_cfg = cfg.cache;
        let safs = Safs {
            inner: Arc::new(RtInner {
                cfg,
                backend,
                stats,
                name_counter: AtomicU64::new(0),
                page_cache: Mutex::new(None),
                span_sink,
                faults,
            }),
        };
        safs.set_page_cache(cache_cfg);
        Ok(safs)
    }

    /// Install (or, with `None` / zero capacity, remove) the user-space
    /// page cache. Replacing a cache discards its resident data, so this
    /// is meant for session setup, not steady state.
    pub fn set_page_cache(&self, cfg: Option<CacheCfg>) {
        let cache = cfg.filter(|c| c.capacity_bytes > 0).map(|c| Arc::new(PageCache::new(c)));
        *self.inner.page_cache.lock() = cache;
    }

    /// Register a receiver for I/O and cache lifecycle spans, beside
    /// any already registered: every context on this runtime has its
    /// own. The sinks are shared with the backend workers, so this takes
    /// effect immediately; with none registered the hot paths pay one
    /// relaxed atomic load.
    pub fn add_span_sink(&self, sink: Arc<dyn SpanSink>) {
        self.inner.span_sink.add(sink);
    }

    /// Unregister a sink passed to [`Safs::add_span_sink`].
    pub fn remove_span_sink(&self, sink: &Arc<dyn SpanSink>) {
        self.inner.span_sink.remove(sink);
    }

    /// Capacity of the installed page cache in bytes (0 when none).
    pub fn page_cache_capacity(&self) -> u64 {
        self.inner.page_cache.lock().as_ref().map(|c| c.capacity_bytes()).unwrap_or(0)
    }

    /// The page cache's readahead window in partitions (0 when no cache
    /// is installed).
    pub fn readahead_parts(&self) -> u64 {
        self.inner.page_cache.lock().as_ref().map(|c| c.readahead_parts()).unwrap_or(0)
    }

    /// Page-cache counters (all zero when no cache is installed).
    pub fn cache_stats_snapshot(&self) -> CacheStatsSnapshot {
        self.inner.page_cache.lock().as_ref().map(|c| c.stats_snapshot()).unwrap_or_default()
    }

    /// Per-shard page-cache counters in shard order (empty when no cache
    /// is installed). Feeds the metrics exposition's `shard="<i>"` series.
    pub fn cache_shard_snapshots(&self) -> Vec<CacheStatsSnapshot> {
        self.inner.page_cache.lock().as_ref().map(|c| c.shard_snapshots()).unwrap_or_default()
    }

    /// Create a file of `nparts` equally sized partitions.
    pub fn create(&self, name: &str, part_bytes: u64, nparts: u64) -> SafsResult<SafsFile> {
        self.create_bytes(
            name,
            part_bytes,
            part_bytes.checked_mul(nparts).expect("file size overflow"),
        )
    }

    /// Create a file of `total_bytes` split into `part_bytes` partitions
    /// (the last partition may be short).
    pub fn create_bytes(
        &self,
        name: &str,
        part_bytes: u64,
        total_bytes: u64,
    ) -> SafsResult<SafsFile> {
        if part_bytes == 0 {
            return Err(SafsError::Config("part_bytes must be > 0".into()));
        }
        if total_bytes == 0 {
            return Err(SafsError::Config("total_bytes must be > 0".into()));
        }
        let striping = Striping::new(self.inner.ndisks(), name_seed(name));
        FileInner::create(self.inner.clone(), name, part_bytes, total_bytes, striping)
    }

    /// Open a previously created file by name.
    pub fn open_file(&self, name: &str) -> SafsResult<SafsFile> {
        let striping = Striping::new(self.inner.ndisks(), name_seed(name));
        FileInner::open(self.inner.clone(), name, striping)
    }

    /// Whether a file of this name exists on the array.
    pub fn exists(&self, name: &str) -> bool {
        self.inner.disk_dir(0).join(format!("{name}.meta")).exists()
    }

    /// A fresh unique file name with the given prefix (used by the matrix
    /// engine for anonymous temporaries).
    pub fn unique_name(&self, prefix: &str) -> String {
        let n = self.inner.name_counter.fetch_add(1, Ordering::Relaxed);
        format!("{prefix}-{}-{n}", std::process::id())
    }

    /// Aggregate I/O statistics since the runtime started, including the
    /// page cache's counters when one is installed.
    pub fn stats_snapshot(&self) -> IoStatsSnapshot {
        let mut snap = self.inner.stats.snapshot();
        if let Some(c) = self.inner.page_cache.lock().as_ref() {
            snap.cache = c.stats_snapshot();
        }
        snap
    }

    /// Per-shard I/O counters in shard order: requests, bytes, retries,
    /// latency histogram and queue-depth gauges for each emulated device.
    pub fn shard_stats_snapshots(&self) -> Vec<ShardStatsSnapshot> {
        self.inner.backend.shard_stats()
    }

    /// Which storage backend this runtime drives.
    pub fn backend_kind(&self) -> BackendKind {
        self.inner.backend.kind()
    }

    /// Completion barrier: block until every request submitted before
    /// this call has completed on every shard.
    pub fn flush(&self) {
        self.inner.backend.flush();
    }

    /// Testing hook for the retry path: make the next `n` backend read
    /// attempts fail with a synthetic transient error (`Interrupted`).
    /// Faults are consumed per *attempt*, so with the default
    /// [`RetryCfg`](crate::RetryCfg) a single injected fault is absorbed
    /// by one retry while `max_attempts` consecutive faults surface as a
    /// final I/O error.
    pub fn inject_read_faults(&self, n: u64) {
        self.inner.faults.fetch_add(n, Ordering::Relaxed);
    }

    /// Read-ahead depth of a sequential scan, in partitions per reader
    /// (see [`SafsConfig::dispatch_batch`]).
    pub fn dispatch_batch(&self) -> usize {
        self.inner.cfg.dispatch_batch
    }

    /// Number of disks in the array.
    pub fn ndisks(&self) -> usize {
        self.inner.ndisks()
    }

    /// Number of shards (synonym for [`ndisks`](Safs::ndisks): one shard
    /// root per emulated device).
    pub fn nshards(&self) -> usize {
        self.inner.ndisks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RetryCfg;

    fn tmp_cfg(tag: &str, ndisks: usize) -> SafsConfig {
        let dir = std::env::temp_dir().join(format!("safs-rt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Build the disk list explicitly so the CI shard-count override
        // cannot change what this test exercises.
        SafsConfig {
            disks: (0..ndisks).map(|d| dir.join(format!("disk{d}"))).collect(),
            ..SafsConfig::single_dir(&dir)
        }
    }

    #[test]
    fn open_creates_disk_dirs() {
        let cfg = tmp_cfg("dirs", 3);
        let disks = cfg.disks.clone();
        let _safs = Safs::open(cfg).unwrap();
        for d in &disks {
            assert!(d.is_dir());
        }
    }

    #[test]
    fn unique_names_are_unique() {
        let safs = Safs::open(tmp_cfg("names", 1)).unwrap();
        let a = safs.unique_name("tmp");
        let b = safs.unique_name("tmp");
        assert_ne!(a, b);
    }

    #[test]
    fn rejects_empty_config() {
        let cfg = SafsConfig { disks: vec![], ..tmp_cfg("empty", 1) };
        assert!(matches!(Safs::open(cfg), Err(SafsError::NoShards)));
    }

    #[test]
    fn rejects_duplicate_roots() {
        let mut cfg = tmp_cfg("dup", 2);
        cfg.disks[1] = cfg.disks[0].clone();
        assert!(matches!(Safs::open(cfg), Err(SafsError::DuplicateShardRoot(_))));
    }

    #[test]
    fn shutdown_joins_threads() {
        let safs = Safs::open(tmp_cfg("shutdown", 2)).unwrap();
        let f = safs.create("x", 128, 2).unwrap();
        f.write_part(0, &[1u8; 128]).unwrap();
        drop(f);
        drop(safs); // must not hang
    }

    #[test]
    fn both_backends_roundtrip() {
        for (tag, kind) in [("bk-sim", BackendKind::Sim), ("bk-dir", BackendKind::Direct)] {
            let safs = Safs::open(tmp_cfg(tag, 2).with_backend(kind)).unwrap();
            assert_eq!(safs.backend_kind(), kind);
            let f = safs.create("m", 256, 3).unwrap();
            for p in 0..3u64 {
                f.write_part(p, &[p as u8 + 1; 256]).unwrap();
            }
            safs.flush();
            for p in 0..3u64 {
                assert_eq!(f.read_part(p).unwrap().as_bytes(), &[p as u8 + 1; 256][..]);
            }
        }
    }

    #[test]
    fn shard_stats_cover_all_shards() {
        let safs = Safs::open(tmp_cfg("shstats", 4)).unwrap();
        let f = safs.create("spread", 512, 16).unwrap();
        for p in 0..16u64 {
            f.write_part(p, &[7u8; 512]).unwrap();
        }
        for p in 0..16u64 {
            f.read_part(p).unwrap();
        }
        let shards = safs.shard_stats_snapshots();
        assert_eq!(shards.len(), 4);
        // Permuted round-robin striping spreads 16 partitions evenly.
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.read_reqs, 4, "shard {i}");
            assert_eq!(s.write_reqs, 4, "shard {i}");
            assert_eq!(s.read_bytes, 4 * 512, "shard {i}");
            assert_eq!(s.lat.count(), 8, "shard {i}");
        }
        let agg = safs.stats_snapshot();
        assert_eq!(shards.iter().map(|s| s.read_reqs).sum::<u64>(), agg.read_reqs);
        assert_eq!(shards.iter().map(|s| s.read_bytes).sum::<u64>(), agg.read_bytes);
    }

    #[test]
    fn injected_transient_faults_are_retried() {
        let safs = Safs::open(
            tmp_cfg("retry-ok", 1).with_retry(RetryCfg { max_attempts: 3, base_backoff_us: 1 }),
        )
        .unwrap();
        let f = safs.create("r", 128, 1).unwrap();
        f.write_part(0, &[5u8; 128]).unwrap();
        safs.inject_read_faults(2);
        let got = f.read_part(0).unwrap();
        assert_eq!(got.as_bytes(), &[5u8; 128][..]);
        let snap = safs.stats_snapshot();
        assert_eq!(snap.io_retries, 2);
        assert_eq!(safs.shard_stats_snapshots()[0].retries, 2);
    }

    #[test]
    fn exhausted_retries_surface_an_io_error() {
        let safs = Safs::open(
            tmp_cfg("retry-fail", 1).with_retry(RetryCfg { max_attempts: 2, base_backoff_us: 1 }),
        )
        .unwrap();
        let f = safs.create("r", 128, 1).unwrap();
        f.write_part(0, &[5u8; 128]).unwrap();
        safs.inject_read_faults(2);
        assert!(matches!(f.read_part(0), Err(SafsError::Io { .. })));
        assert_eq!(safs.stats_snapshot().io_retries, 1, "one retry between two attempts");
        // The fault budget is spent; the next read succeeds.
        assert_eq!(f.read_part(0).unwrap().as_bytes(), &[5u8; 128][..]);
    }
}

//! Runtime configuration for the SAFS substrate.

use crate::backend::{BackendKind, RetryCfg};
use crate::cache::CacheCfg;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Emulated device-bandwidth limit applied per disk.
///
/// The FlashR paper evaluates on a 24-SSD array capable of ~12 GB/s reads.
/// Reproductions run on arbitrary hosts, so instead of depending on the
/// physical device we optionally *throttle* completions to a configured
/// bandwidth. Setting `bytes_per_sec` well below the host's real storage
/// speed makes the external-memory/in-memory performance ratio a
/// deterministic function of the workload's computation-to-I/O ratio — the
/// quantity Figures 9 and 10 of the paper study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleCfg {
    /// Sustained bandwidth per disk, in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed per-request latency in microseconds (seek/command overhead).
    pub latency_us: f64,
}

impl ThrottleCfg {
    /// A profile resembling one SATA SSD of the paper's local array
    /// (~500 MB/s per device; 24 devices give the paper's ~12 GB/s).
    pub fn sata_ssd() -> Self {
        ThrottleCfg { bytes_per_sec: 500.0 * 1024.0 * 1024.0, latency_us: 60.0 }
    }

    /// A profile resembling one of the EC2 i3.16xlarge NVMe devices
    /// (8 devices, ~16 GB/s aggregate).
    pub fn nvme_ssd() -> Self {
        ThrottleCfg { bytes_per_sec: 2.0 * 1024.0 * 1024.0 * 1024.0, latency_us: 20.0 }
    }
}

/// `FLASHR_SAFS_SHARDS` override for [`SafsConfig::striped_under`]:
/// parseable positive integer or nothing.
fn shards_from_env() -> Option<usize> {
    std::env::var("FLASHR_SAFS_SHARDS").ok()?.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Configuration for a [`Safs`](crate::Safs) runtime.
#[derive(Debug, Clone)]
pub struct SafsConfig {
    /// One directory per shard (emulated device). Directories may live
    /// on distinct physical devices to get true parallel I/O.
    pub disks: Vec<PathBuf>,
    /// I/O threads servicing each shard's request queue.
    pub io_threads_per_disk: usize,
    /// Read-ahead depth of a sequential scan, in partitions per reader
    /// (the "SAFS block size" of paper §3.3): the executor claims
    /// partitions one at a time and keeps `dispatch_batch − 1` reads per
    /// worker in flight beyond those being computed, so a pass holds at
    /// most `nthreads × dispatch_batch` partitions of each leaf; a
    /// single-threaded scan (row sampling) keeps `dispatch_batch` reads
    /// in flight. `1` reads nothing ahead.
    pub dispatch_batch: usize,
    /// Optional bandwidth emulation, one throttle per shard (applied by
    /// the `Sim` backend only).
    pub throttle: Option<ThrottleCfg>,
    /// Optional user-space page cache (SA-cache, paper §3.2.1). `None`
    /// or a zero capacity leaves every read going straight to the
    /// device.
    pub cache: Option<CacheCfg>,
    /// Which storage backend drives the shards. Defaults to the value of
    /// `FLASHR_BACKEND` (`sim` | `direct`), falling back to `Sim`.
    pub backend: BackendKind,
    /// Bounded retry-with-backoff policy for transient I/O errors.
    pub retry: RetryCfg,
}

impl SafsConfig {
    /// All shards inside subdirectories of `root` (`disk0`, `disk1`, ...).
    ///
    /// The shard count honours the `FLASHR_SAFS_SHARDS` environment
    /// variable when set (CI uses it to run the whole test suite over a
    /// wider array); explicit layouts built from [`SafsConfig`] fields
    /// directly are never overridden.
    pub fn striped_under(root: impl AsRef<Path>, ndisks: usize) -> Self {
        let root = root.as_ref();
        let ndisks = shards_from_env().unwrap_or(ndisks).max(1);
        SafsConfig {
            disks: (0..ndisks).map(|d| root.join(format!("disk{d}"))).collect(),
            ..SafsConfig::defaults_for(vec![])
        }
    }

    /// A single-directory instance (no striping) — convenient for tests.
    pub fn single_dir(dir: impl AsRef<Path>) -> Self {
        SafsConfig::defaults_for(vec![dir.as_ref().to_path_buf()])
    }

    /// The default knobs around an explicit shard-root list.
    fn defaults_for(disks: Vec<PathBuf>) -> Self {
        SafsConfig {
            disks,
            io_threads_per_disk: 2,
            dispatch_batch: 4,
            throttle: None,
            cache: None,
            backend: BackendKind::from_env(),
            retry: RetryCfg::default(),
        }
    }

    /// Builder-style: set the throttle profile.
    pub fn with_throttle(mut self, t: ThrottleCfg) -> Self {
        self.throttle = Some(t);
        self
    }

    /// Builder-style: install a page cache at runtime open.
    pub fn with_cache(mut self, c: CacheCfg) -> Self {
        self.cache = Some(c);
        self
    }

    /// Builder-style: set I/O threads per disk.
    pub fn with_io_threads(mut self, n: usize) -> Self {
        self.io_threads_per_disk = n.max(1);
        self
    }

    /// Builder-style: set the read-ahead depth ([`Self::dispatch_batch`]).
    pub fn with_dispatch_batch(mut self, n: usize) -> Self {
        self.dispatch_batch = n.max(1);
        self
    }

    /// Builder-style: pick the storage backend explicitly (overrides the
    /// `FLASHR_BACKEND` default).
    pub fn with_backend(mut self, b: BackendKind) -> Self {
        self.backend = b;
        self
    }

    /// Builder-style: set the transient-error retry policy.
    pub fn with_retry(mut self, r: RetryCfg) -> Self {
        self.retry = r;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), crate::SafsError> {
        if self.disks.is_empty() {
            return Err(crate::SafsError::NoShards);
        }
        let mut seen = HashSet::new();
        for d in &self.disks {
            if !seen.insert(d.clone()) {
                return Err(crate::SafsError::DuplicateShardRoot(d.clone()));
            }
            if d.exists() && !d.is_dir() {
                return Err(crate::SafsError::ShardRootNotDir(d.clone()));
            }
        }
        if self.io_threads_per_disk == 0 {
            return Err(crate::SafsError::Config("io_threads_per_disk must be >= 1".into()));
        }
        if self.retry.max_attempts == 0 {
            return Err(crate::SafsError::Config("retry.max_attempts must be >= 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SafsError;

    fn base(disks: Vec<PathBuf>) -> SafsConfig {
        SafsConfig { disks, ..SafsConfig::single_dir("unused") }
    }

    #[test]
    fn validate_rejects_zero_shards() {
        assert!(matches!(base(vec![]).validate(), Err(SafsError::NoShards)));
    }

    #[test]
    fn validate_rejects_duplicate_shard_roots() {
        let cfg =
            base(vec![PathBuf::from("/tmp/a"), PathBuf::from("/tmp/b"), PathBuf::from("/tmp/a")]);
        match cfg.validate() {
            Err(SafsError::DuplicateShardRoot(p)) => assert_eq!(p, PathBuf::from("/tmp/a")),
            other => panic!("expected DuplicateShardRoot, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_file_as_shard_root() {
        let file = std::env::temp_dir().join(format!("safs-cfg-notdir-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let cfg = base(vec![file.clone()]);
        match cfg.validate() {
            Err(SafsError::ShardRootNotDir(p)) => assert_eq!(p, file),
            other => panic!("expected ShardRootNotDir, got {other:?}"),
        }
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn validate_accepts_nonexistent_roots() {
        // Roots that don't exist yet are fine: `Safs::open` creates them.
        let cfg = base(vec![std::env::temp_dir().join("safs-cfg-not-yet-created")]);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_retry_attempts() {
        let mut cfg = base(vec![PathBuf::from("/tmp/one")]);
        cfg.retry.max_attempts = 0;
        assert!(matches!(cfg.validate(), Err(SafsError::Config(_))));
    }

    #[test]
    fn striped_under_names_disk_subdirs() {
        // Only meaningful when CI's FLASHR_SAFS_SHARDS override is unset.
        if std::env::var("FLASHR_SAFS_SHARDS").is_ok() {
            return;
        }
        let cfg = SafsConfig::striped_under("/tmp/root", 3);
        assert_eq!(cfg.disks.len(), 3);
        assert_eq!(cfg.disks[2], PathBuf::from("/tmp/root/disk2"));
    }
}

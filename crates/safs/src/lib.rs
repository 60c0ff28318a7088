//! # flashr-safs
//!
//! A user-space storage substrate modelled on SAFS (Zheng et al., SC'13),
//! the filesystem FlashR uses to drive arrays of SSDs.
//!
//! The real SAFS stripes file data across many SSDs, issues asynchronous
//! direct I/O from dedicated per-device threads, and exposes the array as a
//! single high-throughput address space. This crate reproduces that
//! architecture at partition granularity:
//!
//! * a [`Safs`] runtime owns a set of *disks* (directories, which may be
//!   placed on distinct physical devices),
//! * a [`SafsFile`] is striped across all disks with a per-file permuted
//!   round-robin mapping (an even, deterministic "hash" placement, §3.2.1
//!   of the FlashR paper),
//! * every disk runs a pool of I/O threads draining a request queue, so
//!   reads and writes are asynchronous and overlap with computation,
//! * an optional [`ThrottleCfg`] emulates a configured device bandwidth,
//!   which lets benchmarks reproduce the paper's in-memory/external-memory
//!   performance ratios deterministically on any host.
//!
//! I/O is partition-granular: callers read and write whole I/O partitions
//! (the unit the FlashR scheduler dispatches to worker threads).
//!
//! ```
//! use flashr_safs::{Safs, SafsConfig};
//!
//! let dir = std::env::temp_dir().join("safs-doc-example");
//! let safs = Safs::open(SafsConfig::single_dir(&dir)).unwrap();
//! let file = safs.create("doc", 4096, 3).unwrap();
//! file.write_part(0, &vec![7u8; 4096]).unwrap();
//! let buf = file.read_part(0).unwrap();
//! assert!(buf.as_bytes().iter().all(|&b| b == 7));
//! file.delete().unwrap();
//! ```

mod aio;
pub mod backend;
mod cache;
mod config;
mod error;
mod file;
mod iobuf;
mod layout;
pub mod metrics;
mod runtime;
mod span;
mod stats;
pub mod sync;
mod throttle;

pub use aio::{IoReq, IoTicket};
pub use backend::{
    BackendKind, DirectBackend, RetryCfg, ShardStats, ShardStatsSnapshot, SimBackend,
    StorageBackend,
};
pub use cache::{CacheCfg, CacheStatsSnapshot, CachedFetch, PageCache, PendingRead};
pub use config::{SafsConfig, ThrottleCfg};
pub use error::{SafsError, SafsResult};
pub use file::SafsFile;
pub use iobuf::{IoBuf, Pod};
pub use layout::Striping;
pub use metrics::{Counter, Gauge, Log2Histogram, Log2HistogramSnapshot, Stat, StatValue};
pub use runtime::Safs;
pub use span::{now_nanos, SpanArgs, SpanSink, NO_ARGS};
pub use stats::{IoStats, IoStatsSnapshot, LatencyHisto, LatencyHistoSnapshot, LAT_BUCKETS};

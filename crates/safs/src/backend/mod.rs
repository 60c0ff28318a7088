//! Pluggable storage backends and the sharded I/O layout.
//!
//! SAFS proper drives an SSD *array*: every device owns its own request
//! queue, its own I/O threads and its own statistics, and file data is
//! striped across all of them (Zheng et al., SC'13 §3). This module is
//! that architecture made explicit:
//!
//! * [`StorageBackend`] — the contract the runtime programs against:
//!   asynchronous submit/complete of partition-granular requests,
//!   addressed by *shard* (one SAFS root directory = one emulated
//!   device), a completion barrier ([`StorageBackend::flush`]) and
//!   per-shard statistics.
//! * [`SimBackend`] — the original simulated aio-thread engine
//!   (refactored out of `aio.rs`): per-shard worker threads with the
//!   per-shard bandwidth [`Throttle`](crate::throttle) emulation that
//!   makes the paper's scaling figures deterministic on any host.
//! * [`DirectBackend`] — a thread-pool backend for real files: the same
//!   per-shard queues and workers, but positional reads/writes run at
//!   host-device speed with no throttle in the path. (`O_DIRECT`-style:
//!   the request shapes are partition-granular and positional, but the
//!   open flag itself is not set — the crate has no libc dependency and
//!   [`IoBuf`](crate::IoBuf) makes no alignment guarantee.)
//!
//! Selection is per-runtime via [`SafsConfig::backend`](crate::SafsConfig)
//! or the `FLASHR_BACKEND` environment variable (`sim` | `direct`).
//!
//! Every shard keeps its own [`ShardStats`] — request/byte counters, a
//! [`LatencyHisto`](crate::LatencyHisto) and queue-depth gauges — on top of the aggregate
//! [`IoStats`](crate::IoStats), so the timeline, the flight recorder
//! and the Prometheus exposition all see per-shard lanes.
//!
//! Transient device errors are retried with bounded exponential backoff
//! ([`RetryCfg`]); each retry is counted (`io_retries`) and emitted as
//! an `io-retry` span, and only the *final* failure surfaces as the
//! `io-error` span that triggers the flight-recorder dump.

mod direct;
mod sim;
mod worker;

pub use direct::DirectBackend;
pub use sim::SimBackend;
pub(crate) use worker::WorkerEnv;

use crate::aio::IoReq;
use crate::config::SafsConfig;
use crate::error::SafsResult;
use std::io;
use std::time::Duration;

/// Which storage backend a runtime drives its shards with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Simulated aio-thread engine with per-shard bandwidth throttling
    /// (the default; deterministic device emulation for benchmarks).
    #[default]
    Sim,
    /// Thread-pool backend doing positional I/O against real files at
    /// host speed (no throttle emulation).
    Direct,
}

impl BackendKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Direct => "direct",
        }
    }

    /// Parse a backend name (case-insensitive). `aio` is accepted as an
    /// alias for `sim`, `odirect`/`o_direct` for `direct`.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sim" | "aio" | "throttled" => Some(BackendKind::Sim),
            "direct" | "odirect" | "o_direct" => Some(BackendKind::Direct),
            _ => None,
        }
    }

    /// The backend selected by `FLASHR_BACKEND`, or the default (`Sim`)
    /// when the variable is unset or unparseable.
    pub fn from_env() -> BackendKind {
        std::env::var("FLASHR_BACKEND").ok().and_then(|s| BackendKind::parse(&s)).unwrap_or_default()
    }
}

/// Bounded retry policy for transient backend I/O errors.
///
/// A worker re-attempts a failed read/write while the error is
/// transient (interrupted / would-block / timed-out) and attempts
/// remain, sleeping `base_backoff_us * 2^(attempt-1)` between tries.
/// `max_attempts == 1` disables retry entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryCfg {
    /// Total attempts per request, including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds; doubles per
    /// subsequent retry.
    pub base_backoff_us: u64,
}

impl Default for RetryCfg {
    fn default() -> Self {
        RetryCfg { max_attempts: 3, base_backoff_us: 100 }
    }
}

/// Whether an I/O error is worth retrying: spurious kernel-level
/// interruptions rather than hard device/media faults.
pub(crate) fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Run `attempt` under the retry policy. `on_retry(attempt_no, err)` is
/// called before each backoff sleep (attempt_no counts from 1); the
/// final error — transient or not — is returned unretried.
pub(crate) fn with_retries<T>(
    retry: RetryCfg,
    mut attempt: impl FnMut() -> io::Result<T>,
    mut on_retry: impl FnMut(u32, &io::Error),
) -> io::Result<T> {
    let max = retry.max_attempts.max(1);
    let mut backoff = Duration::from_micros(retry.base_backoff_us);
    for n in 1..=max {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) if n < max && is_transient(&e) => {
                on_retry(n, &e);
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on the final attempt")
}

const SHARD_REQS: &str = "Requests completed, by storage shard and direction.";
const SHARD_BYTES: &str = "Bytes moved, by storage shard and direction.";

crate::stat_struct! {
    /// Per-shard I/O counters: one instance per shard, updated by that
    /// shard's workers only (plus queue-depth bumps from submitters).
    pub struct ShardStats;
    /// Point-in-time copy of one shard's [`ShardStats`].
    pub struct ShardStatsSnapshot {
        read_reqs: counter => "flashr_io_shard_requests_total", SHARD_REQS, "op" = "read";
        write_reqs: counter => "flashr_io_shard_requests_total", SHARD_REQS, "op" = "write";
        read_bytes: counter => "flashr_io_shard_bytes_total", SHARD_BYTES, "op" = "read";
        write_bytes: counter => "flashr_io_shard_bytes_total", SHARD_BYTES, "op" = "write";
        /// Transient errors this shard's workers retried.
        retries: counter => "flashr_io_shard_retries_total",
            "Transient I/O errors retried, by storage shard.";
        /// Device latency of this shard's requests (reads and writes).
        lat: histogram => "flashr_io_shard_latency_ns",
            "Per-request device latency by storage shard (log2 buckets, ns).";
        /// Requests in flight on this shard's queue.
        cur_queue_depth: gauge => "flashr_io_shard_queue_depth",
            "Requests in flight on this storage shard's queue.";
        /// Deepest this shard's queue has run.
        max_queue_depth: gauge => "flashr_io_shard_queue_depth_max",
            "Deepest this storage shard's queue has run.";
    }
}

impl ShardStats {
    pub(crate) fn record_read(&self, bytes: u64, nanos: u64) {
        self.read_reqs.inc();
        self.read_bytes.add(bytes);
        self.lat.record(nanos);
    }

    pub(crate) fn record_write(&self, bytes: u64, nanos: u64) {
        self.write_reqs.inc();
        self.write_bytes.add(bytes);
        self.lat.record(nanos);
    }

    pub(crate) fn record_retry(&self) {
        self.retries.inc();
    }

    pub(crate) fn queue_enter(&self) {
        self.max_queue_depth.fetch_max(self.cur_queue_depth.inc());
    }

    pub(crate) fn queue_exit(&self) {
        self.cur_queue_depth.dec();
    }

    pub(crate) fn depth(&self) -> u64 {
        self.cur_queue_depth.get()
    }
}

impl ShardStatsSnapshot {
    /// Requests completed in either direction.
    pub fn requests(&self) -> u64 {
        self.read_reqs + self.write_reqs
    }
}

/// Counter-span name for one shard's queue depth. Span names must be
/// `&'static str`, so the first shards get fixed names and any overflow
/// shares one.
pub(crate) fn shard_depth_counter(shard: usize) -> &'static str {
    const NAMES: [&str; 8] = [
        "io-queue-depth-s0",
        "io-queue-depth-s1",
        "io-queue-depth-s2",
        "io-queue-depth-s3",
        "io-queue-depth-s4",
        "io-queue-depth-s5",
        "io-queue-depth-s6",
        "io-queue-depth-s7",
    ];
    NAMES.get(shard).copied().unwrap_or("io-queue-depth-s8plus")
}

/// The contract a storage backend fulfils for the runtime. One backend
/// instance serves one [`Safs`](crate::Safs); requests are addressed by
/// shard index (the striping layer's disk index).
pub trait StorageBackend: Send + Sync {
    /// Which implementation this is.
    fn kind(&self) -> BackendKind;

    /// Number of shards (== configured root directories).
    fn nshards(&self) -> usize;

    /// Enqueue a request on `shard`. Completion is delivered through the
    /// request's `done` channel; the caller observes it via
    /// [`IoTicket`](crate::IoTicket).
    fn submit(&self, shard: usize, req: IoReq);

    /// Completion barrier: block until every request submitted before
    /// this call has completed on every shard.
    fn flush(&self);

    /// Per-shard counters, in shard order.
    fn shard_stats(&self) -> Vec<ShardStatsSnapshot>;

    /// Close the queues and join the worker threads. Called exactly once
    /// when the runtime drops; submitting after shutdown panics.
    fn shutdown(&self);
}

/// Construct the backend selected by `cfg.backend`.
pub(crate) fn open_backend(
    cfg: &SafsConfig,
    env: WorkerEnv,
) -> SafsResult<Box<dyn StorageBackend>> {
    Ok(match cfg.backend {
        BackendKind::Sim => Box::new(SimBackend::open(cfg, env)?),
        BackendKind::Direct => Box::new(DirectBackend::open(cfg, env)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn backend_kind_parsing() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("AIO"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("direct"), Some(BackendKind::Direct));
        assert_eq!(BackendKind::parse(" ODirect "), Some(BackendKind::Direct));
        assert_eq!(BackendKind::parse("io_uring"), None);
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn retry_recovers_from_transient_errors() {
        let fails = AtomicU32::new(2);
        let mut retried = 0u32;
        let r = with_retries(
            RetryCfg { max_attempts: 3, base_backoff_us: 1 },
            || {
                if fails.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1)).is_ok() {
                    Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
                } else {
                    Ok(42)
                }
            },
            |_, _| retried += 1,
        );
        assert_eq!(r.unwrap(), 42);
        assert_eq!(retried, 2);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let mut retried = 0u32;
        let r: io::Result<()> = with_retries(
            RetryCfg { max_attempts: 3, base_backoff_us: 1 },
            || Err(io::Error::new(io::ErrorKind::Interrupted, "always")),
            |_, _| retried += 1,
        );
        assert!(r.is_err());
        assert_eq!(retried, 2, "two retries between three attempts");
    }

    #[test]
    fn permanent_errors_fail_immediately() {
        let mut retried = 0u32;
        let r: io::Result<()> = with_retries(
            RetryCfg { max_attempts: 5, base_backoff_us: 1 },
            || Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short file")),
            |_, _| retried += 1,
        );
        assert!(r.is_err());
        assert_eq!(retried, 0, "UnexpectedEof is not transient");
    }

    #[test]
    fn shard_stats_snapshot_and_delta() {
        let s = ShardStats::default();
        s.queue_enter();
        s.record_read(100, 10);
        s.record_retry();
        let a = s.snapshot();
        assert_eq!(a.read_reqs, 1);
        assert_eq!(a.read_bytes, 100);
        assert_eq!(a.retries, 1);
        assert_eq!(a.cur_queue_depth, 1);
        s.record_write(50, 5);
        s.queue_exit();
        let b = s.snapshot();
        let d = a.delta(&b);
        assert_eq!(d.write_reqs, 1);
        assert_eq!(d.write_bytes, 50);
        assert_eq!(d.read_reqs, 0);
        assert_eq!(d.requests(), 1);
        assert_eq!(b.max_queue_depth, 1);
        assert_eq!(b.cur_queue_depth, 0);
    }

    #[test]
    fn shard_depth_counter_names_are_static_per_shard() {
        assert_eq!(shard_depth_counter(0), "io-queue-depth-s0");
        assert_eq!(shard_depth_counter(7), "io-queue-depth-s7");
        assert_eq!(shard_depth_counter(8), "io-queue-depth-s8plus");
        assert_eq!(shard_depth_counter(100), "io-queue-depth-s8plus");
    }
}

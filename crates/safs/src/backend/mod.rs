//! The SAFS I/O engine and the sharded layout.
//!
//! SAFS proper drives an SSD *array*: every device owns its own request
//! queue, its own I/O threads and its own statistics, and file data is
//! striped across all of them (Zheng et al., SC'13 §3). This module is
//! that engine: one `ShardSet` per runtime, one request queue and
//! `io_threads_per_disk` worker threads per shard (one SAFS root
//! directory = one emulated device), doing positional reads and writes
//! through the kernel page cache. When
//! [`SafsConfig::throttle`](crate::SafsConfig::throttle) is set, each
//! shard also gets its own `Throttle` pacing completions to the
//! configured per-device bandwidth, so striping over N shards scales
//! emulated bandwidth by N on any host.
//!
//! Every shard keeps its own [`ShardStats`] — request/byte counters, a
//! [`LatencyHisto`](crate::LatencyHisto) and queue-depth gauges — on top of the aggregate
//! [`IoStats`](crate::IoStats), so the timeline, the flight recorder
//! and the profile JSON all see per-shard lanes.
//!
//! Transient device errors are retried with bounded exponential backoff
//! ([`RETRY_ATTEMPTS`] tries); each retry is counted (`io_retries`) and
//! emitted as an `io-retry` span, and only the *final* failure surfaces
//! as the `io-error` span that triggers the flight-recorder dump.

mod worker;

pub(crate) use worker::ShardSet;

use std::io;
use std::time::Duration;

/// Attempts per device request, including the first: a worker
/// re-attempts a failed read or write while the error is transient
/// (interrupted / would-block / timed-out), so [`RETRY_ATTEMPTS`]
/// consecutive transient faults surface as the request's error.
pub const RETRY_ATTEMPTS: u32 = 3;

/// Sleep before the first retry; it doubles before each later one.
pub(crate) const RETRY_BACKOFF: Duration = Duration::from_micros(100);

/// Whether an I/O error is worth retrying: spurious kernel-level
/// interruptions rather than hard device/media faults.
pub(crate) fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Run `attempt` up to `max` (≥ 1) times, sleeping `backoff`
/// before the first retry and doubling it per retry.
/// `on_retry(attempt_no, err)` is called before each backoff sleep
/// (attempt_no counts from 1); the final error — transient or not — is
/// returned unretried. The workers pass [`RETRY_ATTEMPTS`] and
/// [`RETRY_BACKOFF`].
pub(crate) fn with_retries<T>(
    max: u32,
    mut backoff: Duration,
    mut attempt: impl FnMut() -> io::Result<T>,
    mut on_retry: impl FnMut(u32, &io::Error),
) -> io::Result<T> {
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

crate::stat_struct! {
    /// Per-shard I/O counters: one instance per shard, updated by that
    /// shard's workers only (plus queue-depth bumps from submitters).
    pub struct ShardStats;
    /// Point-in-time copy of one shard's [`ShardStats`].
    pub struct ShardStatsSnapshot {
        // Requests completed on this shard, by direction.
        read_reqs: counter;
        write_reqs: counter;
        // Bytes moved on this shard, by direction.
        read_bytes: counter;
        write_bytes: counter;
        /// Transient errors this shard's workers retried.
        retries: counter;
        /// Device latency of this shard's requests (reads and writes).
        lat: histogram;
        /// Requests in flight on this shard's queue.
        cur_queue_depth: gauge;
        /// Deepest this shard's queue has run.
        max_queue_depth: gauge;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn retry_recovers_from_transient_errors() {
        let fails = AtomicU32::new(2);
        let mut retried = 0u32;
        let r = with_retries(
            3,
            Duration::from_micros(1),
            || {
                if fails
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
                {
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
            3,
            Duration::from_micros(1),
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
            5,
            Duration::from_micros(1),
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

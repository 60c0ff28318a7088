//! I/O accounting.
//!
//! FlashR's evaluation reasons about the ratio of computation to I/O;
//! these counters are how the benchmarks (and tests) observe how many
//! bytes a DAG materialization actually moved — and, since the tracing
//! layer landed, what the *shape* of the latency distribution is and how
//! deep the per-disk queues run.

use crate::cache::CacheStatsSnapshot;
use crate::metrics::{Log2Histogram, Log2HistogramSnapshot};

/// Number of log2 latency buckets. Bucket `i` counts requests whose
/// latency in nanoseconds falls in `[2^i, 2^(i+1))` (bucket 0 also
/// absorbs 0 ns); the last bucket absorbs everything slower than
/// ~`2^39` ns (≈ 9 minutes).
pub const LAT_BUCKETS: usize = 40;

/// Lock-free log2-bucketed latency histogram: the I/O-latency
/// instantiation of the generic [`Log2Histogram`] — cheap enough to
/// stay always-on in the I/O threads.
pub type LatencyHisto = Log2Histogram<LAT_BUCKETS>;

/// Point-in-time copy of a [`LatencyHisto`].
pub type LatencyHistoSnapshot = Log2HistogramSnapshot<LAT_BUCKETS>;

const IO_BYTES: &str = "Bytes moved through the (emulated) SSD array.";
const IO_REQS: &str = "Requests completed by the I/O threads.";
const IO_NANOS: &str = "Device-side nanoseconds summed over requests.";
const IO_LAT: &str = "Per-request device latency (log2 buckets, nanoseconds).";

crate::stat_struct! {
    /// Monotonic counters, updated by the I/O threads, plus queue-depth
    /// gauges updated at submit/complete time.
    pub struct IoStats;
    /// A point-in-time copy of [`IoStats`].
    pub struct IoStatsSnapshot {
        read_bytes: counter => "flashr_io_bytes_total", IO_BYTES, "op" = "read";
        write_bytes: counter => "flashr_io_bytes_total", IO_BYTES, "op" = "write";
        read_reqs: counter => "flashr_io_requests_total", IO_REQS, "op" = "read";
        write_reqs: counter => "flashr_io_requests_total", IO_REQS, "op" = "write";
        read_nanos: counter => "flashr_io_nanos_total", IO_NANOS, "op" = "read";
        write_nanos: counter => "flashr_io_nanos_total", IO_NANOS, "op" = "write";
        read_lat: histogram => "flashr_io_latency_ns", IO_LAT, "op" = "read";
        write_lat: histogram => "flashr_io_latency_ns", IO_LAT, "op" = "write";
        /// Nanoseconds I/O threads spent blocked in the bandwidth
        /// throttle (0 when no throttle is configured).
        throttle_wait_nanos: counter => "flashr_io_throttle_wait_nanos_total",
            "Nanoseconds I/O threads slept in the bandwidth throttle.";
        /// Transient I/O errors the backend workers retried (each
        /// eventual success or final failure is one request; this counts
        /// the extra attempts).
        io_retries: counter => "flashr_io_retries_total",
            "Transient I/O errors retried by the backend workers.";
        /// Requests submitted but not yet completed.
        cur_queue_depth: gauge => "flashr_io_queue_depth",
            "Requests currently in flight across the I/O queues.";
        /// Deepest the queues have run since the runtime started.
        max_queue_depth: gauge => "flashr_io_queue_depth_max",
            "Deepest the I/O queues have run since the runtime started.";
    }
    plus {
        /// Page-cache counters (all zero when no cache is installed).
        /// Populated by [`Safs::stats_snapshot`](crate::Safs::stats_snapshot);
        /// [`IoStats::snapshot`] itself knows nothing about the cache.
        cache: CacheStatsSnapshot,
    }
}

impl IoStats {
    pub(crate) fn record_read(&self, bytes: u64, nanos: u64) {
        self.read_bytes.add(bytes);
        self.read_reqs.inc();
        self.read_nanos.add(nanos);
        self.read_lat.record(nanos);
    }

    pub(crate) fn record_write(&self, bytes: u64, nanos: u64) {
        self.write_bytes.add(bytes);
        self.write_reqs.inc();
        self.write_nanos.add(nanos);
        self.write_lat.record(nanos);
    }

    /// The I/O thread slept in the throttle for this long.
    pub(crate) fn record_throttle_wait(&self, nanos: u64) {
        self.throttle_wait_nanos.add(nanos);
    }

    /// A transient I/O error was retried.
    pub(crate) fn record_retry(&self) {
        self.io_retries.inc();
    }

    /// A request entered an I/O queue.
    pub(crate) fn queue_enter(&self) {
        self.max_queue_depth.fetch_max(self.cur_queue_depth.inc());
    }

    /// A request left an I/O queue (completed or failed).
    pub(crate) fn queue_exit(&self) {
        self.cur_queue_depth.dec();
    }

    /// Current in-flight request count (for queue-depth counter spans).
    pub(crate) fn depth(&self) -> u64 {
        self.cur_queue_depth.get()
    }
}

impl IoStatsSnapshot {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = IoStats::default();
        s.record_read(100, 5);
        s.record_read(50, 5);
        s.record_write(30, 1);
        let snap = s.snapshot();
        assert_eq!(snap.read_bytes, 150);
        assert_eq!(snap.read_reqs, 2);
        assert_eq!(snap.write_bytes, 30);
        assert_eq!(snap.write_reqs, 1);
        assert_eq!(snap.total_bytes(), 180);
        assert_eq!(snap.read_lat.count(), 2);
        assert_eq!(snap.write_lat.count(), 1);
    }

    #[test]
    fn delta_between_snapshots() {
        let s = IoStats::default();
        s.record_read(10, 1);
        let a = s.snapshot();
        s.record_read(25, 2);
        s.record_write(5, 1);
        let b = s.snapshot();
        let d = a.delta(&b);
        assert_eq!(d.read_bytes, 25);
        assert_eq!(d.write_bytes, 5);
        assert_eq!(d.read_reqs, 1);
        assert_eq!(d.read_lat.count(), 1);
    }

    #[test]
    fn swapped_delta_saturates_instead_of_panicking() {
        let s = IoStats::default();
        s.record_read(10, 1);
        let a = s.snapshot();
        s.record_read(10, 1);
        let b = s.snapshot();
        // Wrong order: later.delta(&earlier) must not underflow.
        let d = b.delta(&a);
        assert_eq!(d.read_bytes, 0);
        assert_eq!(d.read_reqs, 0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(LatencyHisto::bucket_of(0), 0);
        assert_eq!(LatencyHisto::bucket_of(1), 0);
        assert_eq!(LatencyHisto::bucket_of(2), 1);
        assert_eq!(LatencyHisto::bucket_of(3), 1);
        assert_eq!(LatencyHisto::bucket_of(4), 2);
        assert_eq!(LatencyHisto::bucket_of(1023), 9);
        assert_eq!(LatencyHisto::bucket_of(1024), 10);
        assert_eq!(LatencyHisto::bucket_of(u64::MAX), LAT_BUCKETS - 1);
        // bounds are [2^i, 2^(i+1)) with bucket 0 starting at 0
        assert_eq!(LatencyHisto::bucket_bounds(0), (0, 2));
        assert_eq!(LatencyHisto::bucket_bounds(10), (1024, 2048));
        assert_eq!(LatencyHisto::bucket_bounds(LAT_BUCKETS - 1).1, u64::MAX);
        // every recordable value lands inside its bucket's bounds
        for nanos in [0u64, 1, 2, 7, 1 << 20, u64::MAX] {
            let b = LatencyHisto::bucket_of(nanos);
            let (lo, hi) = LatencyHisto::bucket_bounds(b);
            assert!(nanos >= lo && nanos < hi || b == LAT_BUCKETS - 1, "{nanos} in [{lo},{hi})");
        }
    }

    #[test]
    fn histogram_quantiles() {
        let h = LatencyHisto::default();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1 << 20); // one slow outlier
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile_upper_ns(0.5), 128);
        assert_eq!(s.quantile_upper_ns(0.95), 128);
        assert_eq!(s.quantile_upper_ns(1.0), 1 << 21);
        assert_eq!(LatencyHistoSnapshot::default().quantile_upper_ns(0.5), 0);
    }

    #[test]
    fn queue_depth_gauges() {
        let s = IoStats::default();
        s.queue_enter();
        s.queue_enter();
        assert_eq!(s.snapshot().cur_queue_depth, 2);
        assert_eq!(s.snapshot().max_queue_depth, 2);
        s.queue_exit();
        let snap = s.snapshot();
        assert_eq!(snap.cur_queue_depth, 1);
        assert_eq!(snap.max_queue_depth, 2, "high-water mark persists");
    }
}

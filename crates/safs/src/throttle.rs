//! Per-disk bandwidth emulation.
//!
//! Each disk gets one [`Throttle`]. Completions are delayed so that the
//! long-run throughput of the disk matches the configured profile, even
//! when several I/O threads service the same disk concurrently. The
//! implementation is a virtual-time pacer: each request reserves the next
//! `latency + bytes/bandwidth` window of the disk's timeline and sleeps
//! until its window closes.
//!
//! A window opens when the device is free *and* the request has reached
//! it — at the instant its shard thread dequeued it, which the caller
//! passes in — never at the time of the charge: the host's real
//! `read`/`write` that ran in between is part of the emulated service
//! time, not an addition to it. A busy device therefore completes a
//! request every `latency + bytes/bandwidth` whatever the host copy
//! costs (as long as the copy is the shorter of the two), and an idle one
//! banks no credit: the window never opens before the dequeue.

use crate::config::ThrottleCfg;
use crate::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug)]
pub(crate) struct Throttle {
    cfg: ThrottleCfg,
    /// The instant at which the emulated device becomes idle.
    next_free: Mutex<Instant>,
}

impl Throttle {
    pub(crate) fn new(cfg: ThrottleCfg) -> Self {
        Throttle { cfg, next_free: Mutex::new(Instant::now()) }
    }

    /// Account for a request of `bytes` that reached the device at
    /// `dequeued` and block until the emulated device would have
    /// completed it. Returns how long the calling thread actually slept,
    /// so callers can account throttle waits separately from device
    /// service time.
    pub(crate) fn charge(&self, bytes: u64, dequeued: Instant) -> Duration {
        let wait = self.reserve(bytes, dequeued, Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        wait
    }

    /// Reserve the device's next window for a request of `bytes` that
    /// reached it at `dequeued`, and return how long a caller charging at
    /// `now` waits for that window to close: the window opens at
    /// `max(next_free, dequeued)` and lasts `latency + bytes/bandwidth`.
    fn reserve(&self, bytes: u64, dequeued: Instant, now: Instant) -> Duration {
        let service = Duration::from_secs_f64(
            self.cfg.latency_us * 1e-6 + bytes as f64 / self.cfg.bytes_per_sec,
        );
        let mut next_free = self.next_free.lock();
        *next_free = (*next_free).max(dequeued) + service;
        next_free.saturating_duration_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 128 KiB at 16 MiB/s: a 1/128 s window, exact in nanoseconds.
    const BYTES: u64 = 128 * 1024;
    const WINDOW: Duration = Duration::from_nanos(7_812_500);

    fn throttle() -> Throttle {
        Throttle::new(ThrottleCfg { bytes_per_sec: 16.0 * 1024.0 * 1024.0, latency_us: 0.0 })
    }

    /// Requests that reach a busy device back to back close one window
    /// apart: four 256 KiB requests at 10 MiB/s take 100 ms.
    #[test]
    fn sustains_configured_bandwidth() {
        let t =
            Throttle::new(ThrottleCfg { bytes_per_sec: 10.0 * 1024.0 * 1024.0, latency_us: 0.0 });
        let t0 = Instant::now();
        let deadlines: Vec<Instant> = (0..4).map(|_| t0 + t.reserve(256 * 1024, t0, t0)).collect();
        let window = deadlines[0] - t0;
        assert_eq!(window, Duration::from_millis(25));
        for (i, deadline) in deadlines.iter().enumerate() {
            assert_eq!(*deadline, t0 + window * (i as u32 + 1), "request {i}");
        }
    }

    #[test]
    fn concurrent_charges_serialize() {
        let t = std::sync::Arc::new(Throttle::new(ThrottleCfg {
            bytes_per_sec: 20.0 * 1024.0 * 1024.0,
            latency_us: 0.0,
        }));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || t.charge(512 * 1024, Instant::now()));
            }
        });
        // 2 MB at 20 MB/s = 100 ms even with 4 concurrent threads.
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.08, "parallel charges bypassed the throttle: {elapsed}");
    }

    /// The host's real read or write runs inside the emulated window,
    /// not before it: a busy device completes one request per window
    /// whatever the host operation cost. Each request here reaches the
    /// device as the one before it completes and is charged after a 2 ms
    /// host operation; charging from the charge instant instead would
    /// close request `i`'s window at `i × (window + 2 ms)`, 25 % late.
    #[test]
    fn host_time_counts_inside_the_window() {
        const N: u32 = 12;
        let host = Duration::from_millis(2);
        let t = throttle();
        let t0 = Instant::now();
        let mut dequeued = t0;
        for i in 1..=N {
            let charged = dequeued + host;
            let wait = t.reserve(BYTES, dequeued, charged);
            assert_eq!(wait, WINDOW - host, "request {i}");
            dequeued = charged + wait;
            assert_eq!(dequeued, t0 + WINDOW * i, "request {i}");
        }
    }

    /// An idle device banks no credit: after a pause a request's window
    /// still opens at its dequeue, never at the earlier instant the
    /// device fell free, and a dequeue in the past opens it in the past.
    #[test]
    fn idle_device_opens_the_window_at_the_dequeue() {
        let t = throttle();
        let t0 = Instant::now();
        let dequeued = t0 + 3 * WINDOW;
        assert_eq!(t.reserve(BYTES, dequeued, dequeued), WINDOW);
        // A host operation longer than the window leaves nothing to wait for.
        let dequeued = dequeued + 2 * WINDOW;
        let charged = dequeued + WINDOW + Duration::from_millis(5);
        assert_eq!(t.reserve(BYTES, dequeued, charged), Duration::ZERO);
        // The device is free again once that window closed.
        let dequeued = charged;
        assert_eq!(t.reserve(BYTES, dequeued, dequeued), WINDOW);
    }
}

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
        let service = Duration::from_secs_f64(
            self.cfg.latency_us * 1e-6 + bytes as f64 / self.cfg.bytes_per_sec,
        );
        let deadline = {
            let mut next_free = self.next_free.lock();
            let start = (*next_free).max(dequeued);
            *next_free = start + service;
            *next_free
        };
        let now = Instant::now();
        if deadline > now {
            let wait = deadline - now;
            std::thread::sleep(wait);
            wait
        } else {
            Duration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustains_configured_bandwidth() {
        // 10 MB/s, no latency; 1 MB over 4 requests should take ~100ms.
        let t =
            Throttle::new(ThrottleCfg { bytes_per_sec: 10.0 * 1024.0 * 1024.0, latency_us: 0.0 });
        let start = Instant::now();
        for _ in 0..4 {
            t.charge(256 * 1024, Instant::now());
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.08, "elapsed {elapsed} too fast");
        assert!(elapsed < 0.5, "elapsed {elapsed} too slow");
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
    /// whatever the host operation cost. Charging from the time of the
    /// charge instead reads `N × (window + 2 ms)`, 25 % over.
    #[test]
    fn host_time_counts_inside_the_window() {
        const N: u32 = 12;
        // 8 ms per request: 128 KiB at 16 000 KiB/s.
        let window = Duration::from_millis(8);
        let t = Throttle::new(ThrottleCfg { bytes_per_sec: 16_000.0 * 1024.0, latency_us: 0.0 });
        let start = Instant::now();
        for _ in 0..N {
            let dequeued = Instant::now();
            std::thread::sleep(Duration::from_millis(2)); // the "real" operation
            t.charge(128 * 1024, dequeued);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let want = (window * N).as_secs_f64();
        assert!(
            (elapsed - want).abs() <= 0.15 * want,
            "{N} requests of {window:?} each took {elapsed:.4} s, want {want:.4} s ± 15 %"
        );
    }

    /// An idle device banks no credit: after a pause a request's window
    /// still opens at its dequeue, never at the earlier instant the
    /// device fell free, and a dequeue in the past opens it in the past.
    #[test]
    fn idle_device_opens_the_window_at_the_dequeue() {
        let window = Duration::from_millis(20);
        // 20 ms per request: 64 KiB at 3200 KiB/s.
        let t = Throttle::new(ThrottleCfg { bytes_per_sec: 3200.0 * 1024.0, latency_us: 0.0 });
        std::thread::sleep(3 * window);
        let dequeued = Instant::now();
        let slept = t.charge(64 * 1024, dequeued);
        assert!(dequeued.elapsed() >= window, "window opened before the dequeue: slept {slept:?}");
        assert!(slept <= window, "slept {slept:?} for a {window:?} window");
        // A host operation longer than the window leaves nothing to wait for.
        let dequeued = Instant::now();
        std::thread::sleep(window + Duration::from_millis(5));
        assert_eq!(t.charge(64 * 1024, dequeued), Duration::ZERO);
    }
}

//! Per-disk bandwidth emulation.
//!
//! Each disk gets one [`Throttle`]. Completions are delayed so that the
//! long-run throughput of the disk matches the configured profile, even
//! when several I/O threads service the same disk concurrently. The
//! implementation is a virtual-time pacer: each request reserves the next
//! `latency + bytes/bandwidth` window of the disk's timeline and sleeps
//! until its window closes.

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

    /// Account for a request of `bytes` and block until the emulated
    /// device would have completed it. Returns how long the calling
    /// thread actually slept, so callers can account throttle waits
    /// separately from device service time.
    pub(crate) fn charge(&self, bytes: u64) -> Duration {
        let service = Duration::from_secs_f64(
            self.cfg.latency_us * 1e-6 + bytes as f64 / self.cfg.bytes_per_sec,
        );
        let deadline = {
            let mut next_free = self.next_free.lock();
            let start = (*next_free).max(Instant::now());
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
        let t = Throttle::new(ThrottleCfg { bytes_per_sec: 10.0 * 1024.0 * 1024.0, latency_us: 0.0 });
        let start = Instant::now();
        for _ in 0..4 {
            t.charge(256 * 1024);
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
                s.spawn(move || t.charge(512 * 1024));
            }
        });
        // 2 MB at 20 MB/s = 100 ms even with 4 concurrent threads.
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.08, "parallel charges bypassed the throttle: {elapsed}");
    }
}

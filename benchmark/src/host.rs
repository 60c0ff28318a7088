//! What the host was doing while a run lasted. The reference host is a
//! nested VM on a shared machine and has two states (NOISE.md): *quiet*,
//! and *contended*, in which a neighbour takes part of the cores the VM
//! runs on and the same step takes 1.4–1.6 times as long. For hours at a
//! time it is contended five sixths of the time. No statistic of a run
//! that saw no quiet stretch recovers the quiet time, so the benchmark
//! corrects nothing; it reports which state a run met, so that two sets of
//! runs that met different states are not read as a regression.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one pass of a fixed kernel takes now: sixteen independent
/// multiply-add chains over an array that stays in the first-level cache.
/// It keeps the core's arithmetic units busy, which is what a neighbour on
/// the same core takes away: on the reference host it takes 2.4–2.5 ms in
/// the quiet state and 3.0–3.3 ms in the contended one, where a chain of
/// dependent integer operations slowed down a third as much. A run samples
/// it before every step and reports the median as `host.probe_ms`. The
/// number means something only beside others from the same host.
pub fn probe() -> f64 {
    let data = [1.0f64; 2048];
    let t = Instant::now();
    let mut acc = [0.0f64; 16];
    for _ in 0..400 {
        for chunk in black_box(&data).chunks_exact(16) {
            for (a, &x) in acc.iter_mut().zip(chunk) {
                *a = x.mul_add(1.000001, *a);
            }
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

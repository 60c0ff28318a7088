//! Lock-free metric primitives — counter, gauge, log2-bucketed histogram
//! — and [`stat_struct!`](crate::stat_struct), which declares a statistics struct from them.
//!
//! These are the storage cells of every counter the workspace keeps
//! ([`IoStats`](crate::IoStats), the page cache's and the shards'
//! counters here, `ExecStats` in `flashr_core`). They live in this crate
//! — the bottom of the dependency stack — so every layer can record into
//! them; the profile JSON that renders them lives upstream in core.
//!
//! Every recording operation is a handful of relaxed atomic ops with no
//! allocation and no locking, cheap enough to stay enabled in release
//! builds on the hottest paths (per-request I/O accounting, per-partition
//! executor bookkeeping).

use crate::stats::LatencyHistoSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// One statistic of a snapshot: its JSON member name and value.
/// Produced by the `stats()` method [`stat_struct!`](crate::stat_struct) generates.
#[derive(Debug, Clone)]
pub struct Stat {
    pub field: &'static str,
    pub value: StatValue,
}

/// A statistic's value: a counter or gauge reading, or a histogram.
#[derive(Debug, Clone)]
pub enum StatValue {
    Scalar(u64),
    // Boxed: the 40-bucket snapshot is ~an order of magnitude larger
    // than a scalar, and most statistics are scalars.
    Histogram(Box<LatencyHistoSnapshot>),
}

/// Declare a statistics struct once: the live struct of atomic cells,
/// its `Copy` snapshot struct, `snapshot()`, the saturating `delta()`
/// (gauges carry the later value, histograms subtract bucket-wise), the
/// pointwise `merge()` and the `stats()` list the profile JSON loops
/// over, all in declaration order.
///
/// Each field is `name: kind;` with `kind` one of `counter`
/// ([`Counter`]), `gauge` ([`Gauge`]) or `histogram`
/// ([`LatencyHisto`](crate::LatencyHisto)). Fields after `plus` exist in the snapshot only: its owner
/// fills them in, and their type supplies `delta` and `merge`.
#[macro_export]
macro_rules! stat_struct {
    (
        $(#[$live_meta:meta])*
        pub struct $Live:ident;
        $(#[$snap_meta:meta])*
        pub struct $Snap:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $kind:ident
            );* $(;)?
        }
        $(plus { $( $(#[$pmeta:meta])* $pfield:ident : $pty:ty ),* $(,)? })?
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        pub struct $Live {
            $( $(#[$fmeta])* $fvis $field: $crate::stat_struct!(@cell $kind), )*
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $Snap {
            $( $(#[$fmeta])* pub $field: $crate::stat_struct!(@value $kind), )*
            $($( $(#[$pmeta])* pub $pfield: $pty, )*)?
        }

        impl $Live {
            /// Copy out the current values.
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $field: $crate::stat_struct!(@read $kind self.$field), )*
                    $($( $pfield: Default::default(), )*)?
                }
            }
        }

        impl $Snap {
            /// Movement between two snapshots (`later - self`).
            ///
            /// Ordering contract: `self` must be the *earlier* snapshot.
            /// Counters are monotonic, so in-order arguments yield exact
            /// deltas; accidentally swapped arguments saturate to 0
            /// instead of panicking on underflow. Gauges are not deltas:
            /// the result carries `later`'s values unchanged.
            pub fn delta(&self, later: &$Snap) -> $Snap {
                $Snap {
                    $( $field: $crate::stat_struct!(@delta $kind self.$field, later.$field), )*
                    $($( $pfield: self.$pfield.delta(&later.$pfield), )*)?
                }
            }

            /// Pointwise sum of two snapshots (shard aggregation;
            /// associative and commutative, so shards fold in any order).
            pub fn merge(&self, other: &$Snap) -> $Snap {
                $Snap {
                    $( $field: $crate::stat_struct!(@merge $kind self.$field, other.$field), )*
                    $($( $pfield: self.$pfield.merge(&other.$pfield), )*)?
                }
            }

            /// Every declared statistic with its member name, in
            /// declaration order (`plus` fields are not included).
            pub fn stats(&self) -> Vec<$crate::Stat> {
                vec![$(
                    $crate::Stat {
                        field: stringify!($field),
                        value: $crate::stat_struct!(@stat $kind self.$field),
                    },
                )*]
            }
        }
    };
    (@cell counter) => { $crate::Counter };
    (@cell gauge) => { $crate::Gauge };
    (@cell histogram) => { $crate::LatencyHisto };
    (@value histogram) => { $crate::LatencyHistoSnapshot };
    (@value $scalar:ident) => { u64 };
    (@read histogram $cell:expr) => { $cell.snapshot() };
    (@read $scalar:ident $cell:expr) => { $cell.get() };
    (@delta counter $a:expr, $b:expr) => { $b.saturating_sub($a) };
    (@delta gauge $a:expr, $b:expr) => { $b };
    (@delta histogram $a:expr, $b:expr) => { $a.delta(&$b) };
    (@merge histogram $a:expr, $b:expr) => { $a.merge(&$b) };
    (@merge $scalar:ident $a:expr, $b:expr) => { $a + $b };
    (@stat histogram $v:expr) => { $crate::StatValue::Histogram(Box::new($v)) };
    (@stat $scalar:ident $v:expr) => { $crate::StatValue::Scalar($v) };
}

/// A monotonically increasing counter; recording is one relaxed
/// `fetch_add`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`; returns the new value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, resident
/// bytes, budget). Stored as `u64`; `dec`/`sub` saturate at zero rather
/// than wrapping, so a racy underflow reads as empty, not as 2^64.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    #[inline]
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Raise the gauge to `v` if it is below (high-water marks).
    #[inline]
    pub fn fetch_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free log2-bucketed histogram with `N` buckets.
///
/// Bucket `i` counts observations whose value falls in `[2^i, 2^(i+1))`
/// (bucket 0 also absorbs 0); the last bucket absorbs everything from
/// `2^(N-1)` up to `u64::MAX`. Recording is two relaxed `fetch_add`s
/// (bucket + running sum) on a bucket selected by a leading-zeros
/// computation — cheap enough to stay always-on in the I/O threads.
///
/// The SAFS latency histograms are `Log2Histogram<40>` (≈ 9-minute
/// ceiling); `N = 64` covers the full `u64` range exactly.
#[derive(Debug)]
pub struct Log2Histogram<const N: usize> {
    buckets: [AtomicU64; N],
    sum: AtomicU64,
}

impl<const N: usize> Default for Log2Histogram<N> {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl<const N: usize> Log2Histogram<N> {
    /// Bucket index for a value.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            return 0;
        }
        ((63 - value.leading_zeros()) as usize).min(N - 1)
    }

    /// Inclusive-exclusive bounds of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i >= N - 1 || i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
        (lo, hi)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copy out the bucket counts and running sum.
    pub fn snapshot(&self) -> Log2HistogramSnapshot<N> {
        let mut buckets = [0u64; N];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        Log2HistogramSnapshot { buckets, sum: self.sum.load(Ordering::Relaxed) }
    }
}

/// Point-in-time copy of a [`Log2Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2HistogramSnapshot<const N: usize> {
    pub buckets: [u64; N],
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
}

impl<const N: usize> Default for Log2HistogramSnapshot<N> {
    fn default() -> Self {
        Log2HistogramSnapshot { buckets: [0; N], sum: 0 }
    }
}

impl<const N: usize> Log2HistogramSnapshot<N> {
    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`.
    /// Returns 0 for an empty histogram.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Log2Histogram::<N>::bucket_bounds(i).1;
            }
        }
        Log2Histogram::<N>::bucket_bounds(N - 1).1
    }

    /// Bucket movement between two snapshots (`later - self`, saturating;
    /// `self` must be the earlier snapshot for exact deltas).
    pub fn delta(&self, later: &Log2HistogramSnapshot<N>) -> Log2HistogramSnapshot<N> {
        let mut buckets = [0u64; N];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = later.buckets[i].saturating_sub(self.buckets[i]);
        }
        Log2HistogramSnapshot { buckets, sum: later.sum.saturating_sub(self.sum) }
    }

    /// Pointwise sum of two snapshots. Merging is associative and
    /// commutative (bucket-wise and sum-wise addition), so shard- or
    /// lane-level snapshots can be aggregated in any order.
    pub fn merge(&self, other: &Log2HistogramSnapshot<N>) -> Log2HistogramSnapshot<N> {
        let mut buckets = [0u64; N];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i].wrapping_add(other.buckets[i]);
        }
        Log2HistogramSnapshot { buckets, sum: self.sum.wrapping_add(other.sum) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type H64 = Log2Histogram<64>;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.sub(100); // saturates at zero instead of wrapping
        assert_eq!(g.get(), 0);
        g.fetch_max(7);
        g.fetch_max(3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_boundaries_powers_of_two() {
        // Exact powers of two open a new bucket; one below stays put.
        assert_eq!(H64::bucket_of(0), 0);
        assert_eq!(H64::bucket_of(1), 0);
        for i in 1..64usize {
            let p = 1u64 << i;
            assert_eq!(H64::bucket_of(p), i, "2^{i}");
            assert_eq!(H64::bucket_of(p - 1), i - 1, "2^{i}-1");
        }
        assert_eq!(H64::bucket_of(u64::MAX), 63);
        // With N < 64 the top bucket absorbs the tail.
        assert_eq!(Log2Histogram::<40>::bucket_of(u64::MAX), 39);
        assert_eq!(Log2Histogram::<40>::bucket_of(1u64 << 39), 39);
        // Bounds: [2^i, 2^(i+1)), last bucket capped at u64::MAX.
        assert_eq!(H64::bucket_bounds(0), (0, 2));
        assert_eq!(H64::bucket_bounds(10), (1024, 2048));
        assert_eq!(H64::bucket_bounds(63), (1u64 << 63, u64::MAX));
        // Every recordable value lands inside its bucket's bounds (modulo
        // the saturating last bucket).
        for v in [0u64, 1, 2, 7, 1 << 20, (1 << 40) + 3, u64::MAX] {
            let b = H64::bucket_of(v);
            let (lo, hi) = H64::bucket_bounds(b);
            assert!(v >= lo && (v < hi || b == 63), "{v} in [{lo},{hi})");
        }
    }

    #[test]
    fn concurrent_recording_sums_exactly() {
        let h = std::sync::Arc::new(H64::default());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), THREADS * PER_THREAD);
        // Sum of 0..80000 = n*(n-1)/2.
        let n = THREADS * PER_THREAD;
        assert_eq!(snap.sum, n * (n - 1) / 2);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = H64::default();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[0, 1, 5, 1 << 20]);
        let b = mk(&[2, 2, u64::MAX]);
        let c = mk(&[1 << 40, 7]);
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b).merge(&c).count(), a.count() + b.count() + c.count());
        let empty = Log2HistogramSnapshot::<64>::default();
        assert_eq!(a.merge(&empty), a, "empty snapshot is the identity");
    }

    #[test]
    fn sum_tracks_recorded_values() {
        let h = H64::default();
        h.record(100);
        h.record(28);
        let s = h.snapshot();
        assert_eq!(s.sum, 128);
        h.record(u64::MAX); // top bucket, sum wraps rather than panics
        assert_eq!(h.snapshot().buckets[63], 1);
    }
}

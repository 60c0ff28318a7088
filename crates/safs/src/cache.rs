//! SA-cache: a sharded user-space page cache for SAFS partitions.
//!
//! The original SAFS pairs asynchronous direct I/O with a scalable
//! user-space page cache (paper §3.2.1) so the iterative algorithms
//! FlashR targets — KMeans, GMM, logistic regression — serve the matrix
//! they re-read every iteration from RAM after the first pass. This
//! module reproduces that layer at partition granularity:
//!
//! * **Sharding.** Entries are distributed over two shards by partition
//!   index (`part % 2`), striping the lock: concurrent workers on
//!   neighbouring partitions contend on different shards.
//! * **CLOCK eviction.** Each shard runs a second-chance ring over its
//!   resident entries: a hit only sets a reference bit (no list
//!   splicing under the lock like LRU), and the clock hand gives every
//!   referenced entry one more revolution before eviction.
//! * **Single-flight misses.** Concurrent readers of one partition
//!   coalesce onto a single device read. The first becomes the
//!   *completer* and owns the I/O; the rest block on the shard condvar
//!   until the buffer is published.
//! * **Admission.** A file that fits the capacity is admitted at its
//!   first miss. A larger file is counted instead: its partitions bypass
//!   the cache until the file has missed `2 × nparts` times (two full
//!   scans), so a one- or two-shot stream admits nothing. After that an
//!   admitted partition may evict only unreferenced entries of *other*
//!   files, never its own file's resident partitions; when no such room
//!   exists it is served and not kept. A cyclic scan therefore keeps a
//!   stable resident subset, the shape of Belady's optimum on a loop. The
//!   per-file miss count, kept by file uid, stands in for 2Q's ghost set
//!   (Johnson & Shasha, VLDB 1994). Capacity 0 means "no cache": the
//!   runtime never installs one and every read goes straight to the
//!   device, bit-identical to the pre-cache behaviour.
//!
//! The cache reads nothing ahead: the matrix engine's read-ahead window
//! (`flashr_core::mat::ReadAhead`) already keeps the next partitions of
//! a scan in flight, within the executor's byte bound.
//!
//! Throttle interaction: the emulated-bandwidth throttle is charged by
//! the I/O threads when a request actually touches a device
//! (`aio::io_thread_main`). Cache hits never submit a request, so they
//! are never charged — a throttled external-memory benchmark observes
//! the cache's benefit instead of having the throttle hide it.

use crate::aio::IoTicket;
use crate::error::SafsResult;
use crate::iobuf::IoBuf;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, PoisonError};

/// Cache key: (per-process file uid, partition index). The uid is minted
/// per `FileInner` instance (see `file.rs`), so independently opened
/// handles never alias and a deleted file's entries cannot be revived.
pub(crate) type CacheKey = (u64, u64);

/// Page-cache tunables; see the module docs for the mechanisms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheCfg {
    /// Total capacity in bytes, split evenly across shards. 0 disables
    /// the cache (the runtime installs none).
    pub capacity_bytes: u64,
}

impl CacheCfg {
    /// A cache of `bytes` capacity.
    pub fn with_capacity(bytes: u64) -> CacheCfg {
        CacheCfg { capacity_bytes: bytes }
    }
}

/// Shards of every page cache, each behind its own lock.
const SHARDS: usize = 2;

crate::stat_struct! {
    /// Monotonic page-cache counters (relaxed atomics, like
    /// [`IoStats`](crate::IoStats)) plus the resident-bytes gauge; one
    /// instance per shard.
    pub struct CacheStats;
    /// Point-in-time copy of `CacheStats`.
    pub struct CacheStatsSnapshot {
        /// Lookups served from a resident entry.
        hits: counter;
        /// Lookups that became the owning device read. A miss of an
        /// admitted partition for which no room could be made is served
        /// and not kept, so it is a miss without an insert.
        misses: counter;
        /// Lookups that blocked on another reader's in-flight I/O.
        coalesced: counter;
        /// Reads of a file larger than the capacity that skipped the
        /// cache during its first two scans.
        bypasses: counter;
        /// Buffers published into the cache.
        inserts: counter;
        /// Entries evicted by the CLOCK hand.
        evictions: counter;
        /// Entries dropped because their partition was rewritten or the
        /// file was deleted/dropped.
        invalidations: counter;
        /// No longer incremented: the cache reads nothing ahead. Kept
        /// only because the benchmark's ledger still reads it.
        readahead_issued: counter;
        /// No longer incremented; see `readahead_issued`.
        readahead_hits: counter;
        /// Bytes resident in the shard; only changed under its lock.
        resident_bytes: gauge;
    }
}

impl CacheStatsSnapshot {
    /// Total lookups that did not bypass the cache.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }
}

/// One cache entry.
enum Slot {
    /// Published data; `referenced` is the CLOCK second-chance bit.
    Resident { buf: Arc<IoBuf>, referenced: bool },
    /// A device read is outstanding; its reader `complete`s or `abort`s
    /// this placeholder.
    InFlight,
}

#[derive(Default)]
struct ShardInner {
    map: HashMap<CacheKey, Slot>,
    /// CLOCK ring over resident keys. Invalidated keys go stale here and
    /// are discarded when the hand meets them.
    ring: Vec<CacheKey>,
    hand: usize,
}

#[derive(Default)]
struct Shard {
    inner: Mutex<ShardInner>,
    cond: Condvar,
    /// Per-shard counters; shard-scoped so concurrent workers on
    /// different partitions never share a counter cache line.
    /// Bypasses are not shard-scoped and are accounted on shard 0.
    stats: CacheStats,
}

/// How [`PageCache::admit`] lets a read of one file through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Straight to the device: a file larger than the capacity in its
    /// first two scans.
    Bypass,
    /// Through the cache; a miss is kept and evicts by CLOCK (the file
    /// fits the capacity).
    Whole,
    /// Through the cache; a miss is kept only in the room that other
    /// files' entries can give.
    Partial,
}

/// What a [`PageCache::lookup`] resolved to.
pub(crate) enum Lookup {
    /// Resident — serve from RAM.
    Hit(Arc<IoBuf>),
    /// Absent — the caller owns the miss: an in-flight placeholder now
    /// holds the key, and the caller must `complete` or `abort` it.
    MustRead,
    /// Another reader owns the in-flight read — call `wait_shared`.
    Shared,
}

/// The user-space page cache. One instance lives on a [`Safs`](crate::Safs)
/// runtime and is shared by every file on the array.
pub struct PageCache {
    cfg: CacheCfg,
    shard_budget: u64,
    shards: Vec<Shard>,
    /// Misses so far of each file larger than the capacity, by uid; an
    /// entry goes with the file's entries (`invalidate_file`).
    file_misses: Mutex<HashMap<u64, u64>>,
}

impl PageCache {
    /// Build a cache of two shards.
    pub fn new(cfg: CacheCfg) -> PageCache {
        PageCache {
            shard_budget: cfg.capacity_bytes / SHARDS as u64,
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            file_misses: Mutex::default(),
            cfg,
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    /// Aggregate counters across all shards plus the resident-bytes
    /// gauge.
    pub fn stats_snapshot(&self) -> CacheStatsSnapshot {
        self.shard_snapshots().iter().fold(CacheStatsSnapshot::default(), |a, s| a.merge(s))
    }

    /// Per-shard counters, in shard order, each with that shard's
    /// resident bytes.
    pub fn shard_snapshots(&self) -> Vec<CacheStatsSnapshot> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    fn shard(&self, key: CacheKey) -> &Shard {
        &self.shards[(key.1 % self.shards.len() as u64) as usize]
    }

    /// Admission of one read of file `uid` (`file_bytes` long, in
    /// `nparts` partitions). A file that fits is admitted whole. A larger
    /// one bypasses until it has missed `2 × nparts` times, and each of
    /// those reads counts as one of its misses; after that its
    /// partitions are admitted one by one.
    pub(crate) fn admit(&self, uid: u64, file_bytes: u64, nparts: u64) -> Admission {
        if file_bytes <= self.cfg.capacity_bytes {
            return Admission::Whole;
        }
        {
            let mut misses = self.file_misses.lock();
            let seen = misses.entry(uid).or_insert(0);
            if *seen >= 2 * nparts {
                return Admission::Partial;
            }
            *seen += 1;
        }
        self.shards[0].stats.bypasses.inc();
        Admission::Bypass
    }

    /// Resolve `key`: hit, owned miss, or shared wait.
    pub(crate) fn lookup(&self, key: CacheKey) -> Lookup {
        let shard = self.shard(key);
        let mut g = shard.inner.lock();
        match g.map.get_mut(&key) {
            Some(Slot::Resident { buf, referenced }) => {
                *referenced = true;
                shard.stats.hits.inc();
                Lookup::Hit(buf.clone())
            }
            Some(Slot::InFlight) => {
                shard.stats.coalesced.inc();
                Lookup::Shared
            }
            None => {
                g.map.insert(key, Slot::InFlight);
                shard.stats.misses.inc();
                Lookup::MustRead
            }
        }
    }

    /// Block until another reader's in-flight read resolves: the
    /// published buffer, or `None` when the owner aborted (retry the
    /// lookup).
    pub(crate) fn wait_shared(&self, key: CacheKey) -> Option<Arc<IoBuf>> {
        let shard = self.shard(key);
        let mut g = shard.inner.lock();
        loop {
            match g.map.get_mut(&key) {
                Some(Slot::Resident { buf, referenced }) => {
                    *referenced = true;
                    return Some(buf.clone());
                }
                Some(Slot::InFlight) => {}
                None => return None,
            }
            g = shard.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publish a completed read and wake waiters. Room is made first, so
    /// the evicted buffers go before the new one is kept. A partition
    /// admitted whole evicts by CLOCK. One admitted partially is kept only
    /// if evicting other files' entries makes room for it; otherwise its
    /// placeholder is cleared and the buffer is served uncached.
    pub(crate) fn complete(&self, key: CacheKey, buf: IoBuf, admission: Admission) -> Arc<IoBuf> {
        let arc = Arc::new(buf);
        let len = arc.len() as u64;
        let shard = self.shard(key);
        let mut evicted = Vec::new();
        {
            let mut g = shard.inner.lock();
            let kept = match admission {
                Admission::Partial => {
                    self.make_room_locked(&mut g, key.0, len, &shard.stats, &mut evicted)
                }
                _ => {
                    self.evict_locked(&mut g, |_| false, len, &shard.stats, &mut evicted);
                    true
                }
            };
            if kept {
                match g.map.insert(key, Slot::Resident { buf: arc.clone(), referenced: false }) {
                    Some(Slot::Resident { buf: old, .. }) => {
                        // Replaced in place (benign race); the ring slot stands.
                        shard.stats.resident_bytes.sub(old.len() as u64);
                    }
                    _ => g.ring.push(key),
                }
                shard.stats.resident_bytes.add(len);
                shard.stats.inserts.inc();
            } else if matches!(g.map.get(&key), Some(Slot::InFlight)) {
                g.map.remove(&key);
            }
        }
        shard.cond.notify_all();
        // An evicted buffer no reader holds goes now, its pages with it.
        for buf in evicted.into_iter().filter_map(|b| Arc::try_unwrap(b).ok()) {
            buf.free_pages();
        }
        arc
    }

    /// Evict entries of files other than `uid` until `len` more bytes
    /// fit the shard budget. Evicts nothing and returns false when even
    /// evicting all of them would not make the room: only the file's own
    /// resident partitions stand in the way, and those are never evicted
    /// for it.
    fn make_room_locked(
        &self,
        g: &mut ShardInner,
        uid: u64,
        len: u64,
        stats: &CacheStats,
        evicted: &mut Vec<Arc<IoBuf>>,
    ) -> bool {
        let own: u64 = g
            .map
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Resident { buf, .. } if k.0 == uid => Some(buf.len() as u64),
                _ => None,
            })
            .sum();
        if own + len > self.shard_budget {
            return false;
        }
        self.evict_locked(g, |k| k.0 == uid, len, stats, evicted);
        true
    }

    /// CLOCK sweep until `room` more bytes fit the shard budget. Never
    /// evicts a resident key `keep` holds, and gives up after two
    /// revolutions of the ring as it stood, so a partition larger than
    /// the budget overshoots instead of spinning. Two revolutions reach
    /// every entry twice, so they evict every entry `keep` does not hold
    /// if needed. The evicted buffers go to `evicted`, to be dropped
    /// outside the lock.
    fn evict_locked(
        &self,
        g: &mut ShardInner,
        keep: impl Fn(CacheKey) -> bool,
        room: u64,
        stats: &CacheStats,
        evicted: &mut Vec<Arc<IoBuf>>,
    ) {
        let limit = 2 * g.ring.len() + 1;
        let mut sweeps = 0usize;
        while stats.resident_bytes.get() + room > self.shard_budget && !g.ring.is_empty() {
            if sweeps > limit {
                break;
            }
            if g.hand >= g.ring.len() {
                g.hand = 0;
            }
            let k = g.ring[g.hand];
            let referenced = match g.map.get_mut(&k) {
                Some(Slot::Resident { referenced, .. }) => Some(referenced),
                _ => None,
            };
            match referenced {
                // In-flight or invalidated: the ring entry is stale.
                None => {
                    g.ring.swap_remove(g.hand);
                }
                Some(_) if keep(k) => {
                    g.hand += 1;
                    sweeps += 1;
                }
                Some(referenced) if *referenced => {
                    *referenced = false;
                    g.hand += 1;
                    sweeps += 1;
                }
                Some(_) => {
                    if let Some(Slot::Resident { buf, .. }) = g.map.remove(&k) {
                        stats.resident_bytes.sub(buf.len() as u64);
                        evicted.push(buf);
                    }
                    g.ring.swap_remove(g.hand);
                    stats.evictions.inc();
                }
            }
        }
    }

    /// Remove an in-flight placeholder (failed or abandoned read) and
    /// wake waiters so they retry.
    pub(crate) fn abort(&self, key: CacheKey) {
        let shard = self.shard(key);
        {
            let mut g = shard.inner.lock();
            if matches!(g.map.get(&key), Some(Slot::InFlight)) {
                g.map.remove(&key);
            }
        }
        shard.cond.notify_all();
    }

    /// Drop a resident entry (its partition was rewritten). In-flight
    /// reads are left alone: a read racing a write has no defined
    /// ordering either way.
    pub(crate) fn invalidate(&self, key: CacheKey) {
        let shard = self.shard(key);
        let mut g = shard.inner.lock();
        let len = match g.map.get(&key) {
            Some(Slot::Resident { buf, .. }) => Some(buf.len() as u64),
            _ => None,
        };
        if let Some(len) = len {
            g.map.remove(&key);
            shard.stats.resident_bytes.sub(len);
            shard.stats.invalidations.inc();
            // The stale ring slot is discarded by the next clock sweep.
        }
    }

    /// Drop every resident entry of a file (deleted, or its last handle
    /// dropped), and its miss count. Placeholders are left for their
    /// readers to resolve.
    pub(crate) fn invalidate_file(&self, uid: u64) {
        self.file_misses.lock().remove(&uid);
        for shard in &self.shards {
            let mut g = shard.inner.lock();
            let doomed: Vec<CacheKey> = g
                .map
                .iter()
                .filter(|(k, slot)| k.0 == uid && matches!(slot, Slot::Resident { .. }))
                .map(|(k, _)| *k)
                .collect();
            for k in doomed {
                if let Some(Slot::Resident { buf, .. }) = g.map.remove(&k) {
                    shard.stats.resident_bytes.sub(buf.len() as u64);
                }
                shard.stats.invalidations.inc();
            }
        }
    }
}

/// A partition read in progress — the one partition-fetch type, for
/// in-memory partitions, cache hits and device reads alike.
pub enum CachedFetch {
    /// Available now: an in-memory partition, a cache hit, or a miss
    /// coalesced onto another reader's device read.
    Ready(Arc<IoBuf>),
    /// A device read that bypasses the cache (no cache installed, or a
    /// file larger than the cache in its first two scans).
    Direct(IoTicket),
    /// A device read this caller completes into the cache, or serves
    /// uncached when its admission finds no room.
    Pending(PendingRead),
}

impl CachedFetch {
    /// Block until the partition bytes are available.
    pub fn wait(self) -> SafsResult<Arc<IoBuf>> {
        match self {
            CachedFetch::Ready(buf) => Ok(buf),
            CachedFetch::Direct(ticket) => Ok(Arc::new(ticket.wait()?)),
            CachedFetch::Pending(p) => p.wait(),
        }
    }
}

/// An owned in-flight read whose completion publishes the partition into
/// the cache. Dropping without waiting clears the placeholder so blocked
/// readers retry instead of hanging.
pub struct PendingRead {
    ticket: IoTicket,
    claim: Claim,
    /// When tracing: where to report the blocking wait as a
    /// `cache`/`miss-wait` span.
    span: Option<Arc<crate::span::SinkSet>>,
}

/// The in-flight placeholder a [`PendingRead`] owns. Dropped before it
/// is published (the read failed, or its reader went away), it clears
/// the placeholder.
struct Claim {
    cache: Arc<PageCache>,
    key: CacheKey,
    admission: Admission,
    published: bool,
}

impl Claim {
    fn publish(mut self, buf: IoBuf) -> Arc<IoBuf> {
        self.published = true;
        self.cache.complete(self.key, buf, self.admission)
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if !self.published {
            self.cache.abort(self.key);
        }
    }
}

impl PendingRead {
    pub(crate) fn new(
        cache: Arc<PageCache>,
        key: CacheKey,
        admission: Admission,
        ticket: IoTicket,
        span: Option<Arc<crate::span::SinkSet>>,
    ) -> PendingRead {
        PendingRead { ticket, claim: Claim { cache, key, admission, published: false }, span }
    }

    /// Wait for the device, publish into the cache, wake coalesced
    /// readers. On failure the placeholder is cleared instead.
    pub fn wait(self) -> SafsResult<Arc<IoBuf>> {
        let PendingRead { ticket, claim, span } = self;
        let t0 = span.as_ref().map(|_| crate::span::now_nanos());
        let result = ticket.wait();
        if let (Some(sink), Some(t0)) = (&span, t0) {
            let end = crate::span::now_nanos();
            sink.span("cache", "miss-wait", t0, end, [("part", claim.key.1), ("", 0)]);
        }
        Ok(claim.publish(result?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache of one shard, so every entry shares one CLOCK ring and
    /// the whole budget.
    fn one_shard(capacity_bytes: u64) -> PageCache {
        PageCache {
            cfg: CacheCfg::with_capacity(capacity_bytes),
            shard_budget: capacity_bytes,
            shards: vec![Shard::default()],
            file_misses: Mutex::default(),
        }
    }

    fn buf(len: usize, fill: u8) -> IoBuf {
        IoBuf::from_bytes(&vec![fill; len])
    }

    #[test]
    fn miss_then_hit() {
        let c = one_shard(1 << 20);
        let key = (1, 0);
        assert!(matches!(c.lookup(key), Lookup::MustRead));
        let published = c.complete(key, buf(64, 7), Admission::Whole);
        assert_eq!(published.as_bytes(), &[7u8; 64][..]);
        match c.lookup(key) {
            Lookup::Hit(b) => assert_eq!(b.as_bytes(), &[7u8; 64][..]),
            _ => panic!("expected hit"),
        }
        let s = c.stats_snapshot();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(s.resident_bytes, 64);
    }

    #[test]
    fn concurrent_miss_coalesces() {
        let c = one_shard(1 << 20);
        let key = (1, 3);
        assert!(matches!(c.lookup(key), Lookup::MustRead));
        // Second reader of the same partition shares the in-flight read.
        assert!(matches!(c.lookup(key), Lookup::Shared));
        c.complete(key, buf(32, 1), Admission::Whole);
        assert_eq!(c.wait_shared(key).expect("the published buffer").len(), 32);
        let s = c.stats_snapshot();
        assert_eq!(s.misses, 1, "one owner per partition");
        assert_eq!(s.coalesced, 1);
    }

    #[test]
    fn abort_unblocks_to_retry() {
        let c = one_shard(1 << 20);
        let key = (9, 0);
        assert!(matches!(c.lookup(key), Lookup::MustRead));
        c.abort(key);
        assert!(c.wait_shared(key).is_none());
        // The retry becomes the new owner.
        assert!(matches!(c.lookup(key), Lookup::MustRead));
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        // Budget for exactly two 64-byte partitions on one shard.
        let c = one_shard(128);
        for p in 0..2u64 {
            assert!(matches!(c.lookup((1, p)), Lookup::MustRead));
            c.complete((1, p), buf(64, p as u8), Admission::Whole);
        }
        // Touch partition 0 so its reference bit protects it.
        assert!(matches!(c.lookup((1, 0)), Lookup::Hit(_)));
        assert!(matches!(c.lookup((1, 2)), Lookup::MustRead));
        c.complete((1, 2), buf(64, 2), Admission::Whole);
        let s = c.stats_snapshot();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= 128);
        // The referenced partition survived; the untouched one did not.
        assert!(matches!(c.lookup((1, 0)), Lookup::Hit(_)));
        assert!(matches!(c.lookup((1, 1)), Lookup::MustRead));
    }

    #[test]
    fn admission_filter_by_size() {
        // A file that fits is admitted whole, a larger one after two scans.
        let c = PageCache::new(CacheCfg::with_capacity(1024));
        assert_eq!(c.admit(1, 1024, 4), Admission::Whole);
        for _ in 0..2 * 3 {
            assert_eq!(c.admit(2, 1025, 3), Admission::Bypass);
        }
        assert_eq!(c.admit(2, 1025, 3), Admission::Partial);
        assert_eq!(c.stats_snapshot().bypasses, 6);
        // The count goes with the file.
        c.invalidate_file(2);
        assert_eq!(c.admit(2, 1025, 3), Admission::Bypass);
    }

    #[test]
    fn a_partial_admission_evicts_other_files_only() {
        // Room for two 64-byte partitions: one of file 1, one of file 2.
        let c = one_shard(128);
        for uid in [1, 2] {
            assert!(matches!(c.lookup((uid, 0)), Lookup::MustRead));
            c.complete((uid, 0), buf(64, uid as u8), Admission::Partial);
        }
        // File 1's next partition evicts file 2's entry, not its own.
        assert!(matches!(c.lookup((1, 1)), Lookup::MustRead));
        c.complete((1, 1), buf(64, 1), Admission::Partial);
        assert!(matches!(c.lookup((2, 0)), Lookup::MustRead));
        c.abort((2, 0));
        // A third finds only its own file resident: served, not kept.
        assert!(matches!(c.lookup((1, 2)), Lookup::MustRead));
        assert_eq!(c.complete((1, 2), buf(64, 1), Admission::Partial).len(), 64);
        let s = c.stats_snapshot();
        assert_eq!((s.inserts, s.evictions, s.resident_bytes), (3, 1, 128));
        assert!(matches!(c.lookup((1, 0)), Lookup::Hit(_)));
        assert!(matches!(c.lookup((1, 1)), Lookup::Hit(_)));
        assert!(matches!(c.lookup((1, 2)), Lookup::MustRead), "the placeholder was cleared");
    }

    #[test]
    fn invalidate_drops_resident() {
        let c = one_shard(1 << 20);
        assert!(matches!(c.lookup((4, 0)), Lookup::MustRead));
        c.complete((4, 0), buf(16, 3), Admission::Whole);
        c.invalidate((4, 0));
        assert_eq!(c.stats_snapshot().resident_bytes, 0);
        assert!(matches!(c.lookup((4, 0)), Lookup::MustRead));
    }

    #[test]
    fn invalidate_file_sweeps_all_parts() {
        let c = PageCache::new(CacheCfg::with_capacity(1 << 20));
        for p in 0..4u64 {
            assert!(matches!(c.lookup((7, p)), Lookup::MustRead));
            c.complete((7, p), buf(16, p as u8), Admission::Whole);
        }
        assert!(matches!(c.lookup((8, 0)), Lookup::MustRead));
        c.complete((8, 0), buf(16, 9), Admission::Whole);
        c.invalidate_file(7);
        let s = c.stats_snapshot();
        assert_eq!(s.resident_bytes, 16, "the other file's entry survives");
        assert!(matches!(c.lookup((8, 0)), Lookup::Hit(_)));
    }

    #[test]
    fn snapshot_delta_saturates() {
        let c = one_shard(1 << 20);
        assert!(matches!(c.lookup((1, 0)), Lookup::MustRead));
        c.complete((1, 0), buf(8, 0), Admission::Whole);
        let a = c.stats_snapshot();
        let _ = c.lookup((1, 0));
        let b = c.stats_snapshot();
        assert_eq!(a.delta(&b).hits, 1);
        assert_eq!(b.delta(&a).hits, 0, "swapped order saturates");
    }
}

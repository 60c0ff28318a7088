//! SA-cache: a sharded user-space page cache for SAFS partitions.
//!
//! The original SAFS pairs asynchronous direct I/O with a scalable
//! user-space page cache (paper §3.2.1) so the iterative algorithms
//! FlashR targets — KMeans, GMM, logistic regression — serve the matrix
//! they re-read every iteration from RAM after the first pass. This
//! module reproduces that layer at partition granularity:
//!
//! * **Sharding.** Entries are distributed over shards by partition
//!   index (`part % shards`), the same round-robin placement the matrix
//!   engine uses to tag partitions with simulated NUMA nodes, so
//!   concurrent workers on different partitions contend on different
//!   locks and a shard's entries stay node-local.
//! * **CLOCK eviction.** Each shard runs a second-chance ring over its
//!   resident entries: a hit only sets a reference bit (no list
//!   splicing under the lock like LRU), and the clock hand gives every
//!   referenced entry one more revolution before eviction.
//! * **Single-flight misses.** Concurrent readers of one partition
//!   coalesce onto a single device read. The first becomes the
//!   *completer* and owns the I/O; the rest block on the shard condvar
//!   until the buffer is published (or adopt the in-flight ticket, see
//!   readahead below).
//! * **Readahead.** A per-file sequential-run detector grants a bounded
//!   window of asynchronous readahead through the normal
//!   [`IoTicket`](crate::IoTicket) path. Readahead tickets are *parked*
//!   inside in-flight entries and adopted by the next reader of that
//!   partition, which unifies readahead with the single-flight
//!   protocol: a partition is never read twice because readahead and a
//!   demand miss raced.
//! * **Admission.** Files larger than the cache capacity bypass the
//!   cache entirely, so one streaming pass over a huge matrix cannot
//!   evict an iterative hot set that fits. Capacity 0 means "no cache":
//!   the runtime never installs one and every read goes straight to the
//!   device, bit-identical to the pre-cache behaviour.
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
    /// Number of shards; match the context's simulated NUMA nodes.
    pub shards: usize,
    /// Partitions to read ahead once a sequential run is detected;
    /// 0 disables readahead.
    pub readahead_parts: u64,
    /// Consecutive in-order accesses before readahead triggers.
    pub seq_run: u64,
}

impl CacheCfg {
    /// A cache of `bytes` capacity with default sharding and readahead.
    pub fn with_capacity(bytes: u64) -> CacheCfg {
        CacheCfg { capacity_bytes: bytes, shards: 2, readahead_parts: 8, seq_run: 3 }
    }

    /// Builder-style: set the shard count (clamped to ≥ 1).
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Builder-style: set the readahead window and trigger run length.
    pub fn with_readahead(mut self, parts: u64, seq_run: u64) -> Self {
        self.readahead_parts = parts;
        self.seq_run = seq_run.max(1);
        self
    }
}

const CACHE_EVENTS: &str = "Page-cache events by shard and kind.";

crate::stat_struct! {
    /// Monotonic page-cache counters (relaxed atomics, like
    /// [`IoStats`](crate::IoStats)) plus the resident-bytes gauge; one
    /// instance per shard.
    pub struct CacheStats;
    /// Point-in-time copy of [`CacheStats`].
    pub struct CacheStatsSnapshot {
        /// Lookups served from a resident entry.
        hits: counter => "flashr_cache_events_total", CACHE_EVENTS, "event" = "hit";
        /// Lookups that became the owning device read.
        misses: counter => "flashr_cache_events_total", CACHE_EVENTS, "event" = "miss";
        /// Lookups that blocked on another reader's in-flight I/O.
        coalesced: counter => "flashr_cache_events_total", CACHE_EVENTS, "event" = "coalesced";
        /// Reads that skipped the cache via the admission filter.
        bypasses: counter => "flashr_cache_events_total", CACHE_EVENTS, "event" = "bypass";
        /// Buffers published into the cache.
        inserts: counter => "flashr_cache_events_total", CACHE_EVENTS, "event" = "insert";
        /// Entries evicted by the CLOCK hand.
        evictions: counter => "flashr_cache_events_total", CACHE_EVENTS, "event" = "evict";
        /// Entries dropped because their partition was rewritten or the
        /// file was deleted/dropped.
        invalidations: counter =>
            "flashr_cache_events_total", CACHE_EVENTS, "event" = "invalidate";
        /// Readahead requests submitted to the device.
        readahead_issued: counter =>
            "flashr_cache_events_total", CACHE_EVENTS, "event" = "readahead_issued";
        /// Parked readahead tickets adopted by a subsequent reader.
        readahead_hits: counter =>
            "flashr_cache_events_total", CACHE_EVENTS, "event" = "readahead_hit";
        /// Bytes resident in the shard; only changed under its lock.
        resident_bytes: gauge =>
            "flashr_cache_resident_bytes", "Resident page-cache bytes by shard.";
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
    /// A device read is outstanding. `ticket` is `Some` only for parked
    /// readahead — a demand reader keeps its own ticket and `complete`s
    /// or `abort`s this placeholder.
    InFlight { ticket: Option<IoTicket> },
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
    /// different partitions never share a counter cache line, and so the
    /// metrics exposition can carry per-shard series (`shard="0"`).
    /// Admission-filter bypasses are not shard-scoped and are accounted
    /// on shard 0.
    stats: CacheStats,
}

/// Per-file sequential-access detector state.
struct SeqState {
    next: u64,
    run: u64,
}

/// What a [`PageCache::lookup`] resolved to.
pub(crate) enum Lookup {
    /// Resident — serve from RAM.
    Hit(Arc<IoBuf>),
    /// Absent — the caller owns the miss: an in-flight placeholder now
    /// holds the key, and the caller must `complete` or `abort` it.
    MustRead,
    /// A parked readahead ticket was adopted — the caller waits on the
    /// device completion and publishes the result.
    Adopted(IoTicket),
    /// Another reader owns the in-flight read — call `wait_shared`.
    Shared,
}

/// How a [`PageCache::wait_shared`] ended.
pub(crate) enum SharedOutcome {
    /// The completer published the buffer.
    Ready(Arc<IoBuf>),
    /// A readahead ticket was parked while we waited; we adopted it.
    Adopted(IoTicket),
    /// The owning reader aborted — retry the lookup.
    Gone,
}

/// The user-space page cache. One instance lives on a [`Safs`](crate::Safs)
/// runtime and is shared by every file on the array.
pub struct PageCache {
    cfg: CacheCfg,
    shard_budget: u64,
    shards: Vec<Shard>,
    seq: Mutex<HashMap<u64, SeqState>>,
}

impl PageCache {
    /// Build a cache; `cfg.shards` is clamped to ≥ 1.
    pub fn new(cfg: CacheCfg) -> PageCache {
        let nshards = cfg.shards.max(1);
        PageCache {
            shard_budget: cfg.capacity_bytes / nshards as u64,
            shards: (0..nshards).map(|_| Shard::default()).collect(),
            seq: Mutex::new(HashMap::new()),
            cfg: CacheCfg { shards: nshards, ..cfg },
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    /// Configured readahead window in partitions.
    pub fn readahead_parts(&self) -> u64 {
        self.cfg.readahead_parts
    }

    /// Aggregate counters across all shards plus the resident-bytes
    /// gauge.
    pub fn stats_snapshot(&self) -> CacheStatsSnapshot {
        self.shard_snapshots().iter().fold(CacheStatsSnapshot::default(), |a, s| a.merge(s))
    }

    /// Per-shard counters, in shard order, each with that shard's
    /// resident bytes (the metrics exposition has these as
    /// `shard="<i>"` series).
    pub fn shard_snapshots(&self) -> Vec<CacheStatsSnapshot> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    fn shard(&self, key: CacheKey) -> &Shard {
        &self.shards[(key.1 % self.cfg.shards as u64) as usize]
    }

    /// Admission filter: only files whose hot set can actually fit are
    /// cached; larger files stream past the cache.
    pub(crate) fn admits(&self, file_bytes: u64) -> bool {
        file_bytes <= self.cfg.capacity_bytes
    }

    /// Count one admission-filter bypass (not shard-scoped; accounted on
    /// shard 0).
    pub(crate) fn note_bypass(&self) {
        self.shards[0].stats.bypasses.inc();
    }

    /// Resolve `key`: hit, owned miss, adopted readahead, or shared wait.
    pub(crate) fn lookup(&self, key: CacheKey) -> Lookup {
        let shard = self.shard(key);
        let mut g = shard.inner.lock();
        match g.map.get_mut(&key) {
            Some(Slot::Resident { buf, referenced }) => {
                *referenced = true;
                shard.stats.hits.inc();
                Lookup::Hit(buf.clone())
            }
            Some(Slot::InFlight { ticket }) => match ticket.take() {
                Some(t) => {
                    shard.stats.readahead_hits.inc();
                    Lookup::Adopted(t)
                }
                None => {
                    shard.stats.coalesced.inc();
                    Lookup::Shared
                }
            },
            None => {
                g.map.insert(key, Slot::InFlight { ticket: None });
                shard.stats.misses.inc();
                Lookup::MustRead
            }
        }
    }

    /// Block until another reader's in-flight read resolves.
    pub(crate) fn wait_shared(&self, key: CacheKey) -> SharedOutcome {
        let shard = self.shard(key);
        let mut g = shard.inner.lock();
        loop {
            match g.map.get_mut(&key) {
                Some(Slot::Resident { buf, referenced }) => {
                    *referenced = true;
                    return SharedOutcome::Ready(buf.clone());
                }
                Some(Slot::InFlight { ticket }) => {
                    if let Some(t) = ticket.take() {
                        return SharedOutcome::Adopted(t);
                    }
                }
                None => return SharedOutcome::Gone,
            }
            g = shard.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publish a completed read, evicting to budget, and wake waiters.
    pub(crate) fn complete(&self, key: CacheKey, buf: IoBuf) -> Arc<IoBuf> {
        let arc = Arc::new(buf);
        let len = arc.len() as u64;
        let shard = self.shard(key);
        {
            let mut g = shard.inner.lock();
            match g.map.insert(key, Slot::Resident { buf: arc.clone(), referenced: false }) {
                Some(Slot::Resident { buf: old, .. }) => {
                    // Replaced in place (benign race); the ring slot stands.
                    shard.stats.resident_bytes.sub(old.len() as u64);
                }
                _ => g.ring.push(key),
            }
            shard.stats.resident_bytes.add(len);
            shard.stats.inserts.inc();
            self.evict_locked(&mut g, key, &shard.stats);
        }
        shard.cond.notify_all();
        arc
    }

    /// CLOCK sweep to the shard budget. Never evicts `protect` (the key
    /// just inserted) and gives up after two full revolutions, so an
    /// over-budget single partition overshoots instead of spinning.
    fn evict_locked(&self, g: &mut ShardInner, protect: CacheKey, stats: &CacheStats) {
        let mut sweeps = 0usize;
        while stats.resident_bytes.get() > self.shard_budget && !g.ring.is_empty() {
            if sweeps > 2 * g.ring.len() + 1 {
                break;
            }
            if g.hand >= g.ring.len() {
                g.hand = 0;
            }
            let k = g.ring[g.hand];
            if k == protect {
                g.hand += 1;
                sweeps += 1;
                continue;
            }
            let evict_len = match g.map.get_mut(&k) {
                Some(Slot::Resident { referenced, buf }) => {
                    if *referenced {
                        *referenced = false;
                        None
                    } else {
                        Some(buf.len() as u64)
                    }
                }
                // In-flight or invalidated: the ring entry is stale.
                _ => Some(u64::MAX),
            };
            match evict_len {
                None => {
                    g.hand += 1;
                    sweeps += 1;
                }
                Some(u64::MAX) => {
                    g.ring.swap_remove(g.hand);
                }
                Some(len) => {
                    g.map.remove(&k);
                    stats.resident_bytes.sub(len);
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
            if matches!(g.map.get(&key), Some(Slot::InFlight { .. })) {
                g.map.remove(&key);
            }
        }
        shard.cond.notify_all();
    }

    /// Feed the sequential detector with an access to `part` of file
    /// `uid` and return the partitions to read ahead. Placeholders for
    /// the returned partitions are already inserted; the caller submits
    /// the reads and parks each ticket with [`park_readahead`](Self::park_readahead).
    pub(crate) fn plan_readahead(&self, uid: u64, part: u64, nparts: u64) -> Vec<u64> {
        if self.cfg.readahead_parts == 0 {
            return Vec::new();
        }
        let window = {
            let mut seq = self.seq.lock();
            let st = seq.entry(uid).or_insert(SeqState { next: u64::MAX, run: 0 });
            if part == st.next {
                st.run += 1;
            } else {
                st.run = 1;
            }
            st.next = part + 1;
            if st.run >= self.cfg.seq_run {
                self.cfg.readahead_parts
            } else {
                0
            }
        };
        let mut out = Vec::new();
        for p in part + 1..(part + 1 + window).min(nparts) {
            let key = (uid, p);
            let shard = self.shard(key);
            let mut g = shard.inner.lock();
            if let std::collections::hash_map::Entry::Vacant(e) = g.map.entry(key) {
                e.insert(Slot::InFlight { ticket: None });
                out.push(p);
            }
        }
        out
    }

    /// Park a submitted readahead ticket in its placeholder for the next
    /// reader to adopt. If the placeholder vanished (aborted) the ticket
    /// is dropped and the read completes into the void.
    pub(crate) fn park_readahead(&self, key: CacheKey, ticket: IoTicket) {
        let shard = self.shard(key);
        {
            let mut g = shard.inner.lock();
            if let Some(Slot::InFlight { ticket: slot }) = g.map.get_mut(&key) {
                if slot.is_none() {
                    *slot = Some(ticket);
                    shard.stats.readahead_issued.inc();
                }
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

    /// Drop every resident entry and unclaimed readahead ticket of a
    /// file (deleted, or its last handle dropped). Placeholders owned by
    /// an active completer are left for it to resolve.
    pub(crate) fn invalidate_file(&self, uid: u64) {
        for shard in &self.shards {
            {
                let mut g = shard.inner.lock();
                let doomed: Vec<CacheKey> = g
                    .map
                    .iter()
                    .filter(|(k, slot)| {
                        k.0 == uid
                            && match slot {
                                Slot::Resident { .. } => true,
                                Slot::InFlight { ticket } => ticket.is_some(),
                            }
                    })
                    .map(|(k, _)| *k)
                    .collect();
                for k in doomed {
                    if let Some(Slot::Resident { buf, .. }) = g.map.remove(&k) {
                        shard.stats.resident_bytes.sub(buf.len() as u64);
                    }
                    shard.stats.invalidations.inc();
                }
            }
            shard.cond.notify_all();
        }
        self.seq.lock().remove(&uid);
    }
}

/// A cache-aware partition read in progress, returned by
/// [`SafsFile::fetch_part_cached`](crate::SafsFile::fetch_part_cached).
pub enum CachedFetch {
    /// Served from the cache (hit, or coalesced onto another reader).
    Ready(Arc<IoBuf>),
    /// Bypassed the cache (no cache installed, or the admission filter
    /// rejected the file).
    Direct(IoTicket),
    /// A device read this caller completes into the cache.
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

    /// Whether the bytes are already available without blocking.
    pub fn is_ready(&self) -> bool {
        matches!(self, CachedFetch::Ready(_))
    }
}

/// An owned in-flight read whose completion publishes the partition into
/// the cache. Dropping without waiting clears the placeholder so blocked
/// readers retry instead of hanging.
pub struct PendingRead {
    cache: Arc<PageCache>,
    key: CacheKey,
    ticket: Option<IoTicket>,
    /// When tracing: where to report the blocking wait, and what to call
    /// it ("miss-wait" for demand misses, "ra-wait" for adopted
    /// readahead — the latter flags readahead that arrived late).
    span: Option<(Arc<crate::span::SinkSet>, &'static str)>,
}

impl PendingRead {
    pub(crate) fn new(cache: Arc<PageCache>, key: CacheKey, ticket: IoTicket) -> PendingRead {
        PendingRead { cache, key, ticket: Some(ticket), span: None }
    }

    /// Attach a span sink; the blocking part of `wait()` is reported to
    /// it as a completed `cache`/`kind` span.
    pub(crate) fn with_span(
        mut self,
        sink: Option<Arc<crate::span::SinkSet>>,
        kind: &'static str,
    ) -> PendingRead {
        self.span = sink.map(|s| (s, kind));
        self
    }

    /// Wait for the device, publish into the cache, wake coalesced
    /// readers. On failure the placeholder is cleared instead.
    pub fn wait(mut self) -> SafsResult<Arc<IoBuf>> {
        let ticket = self.ticket.take().expect("PendingRead waited twice");
        let t0 = self.span.as_ref().map(|_| crate::span::now_nanos());
        let result = ticket.wait();
        if let (Some((sink, kind)), Some(t0)) = (&self.span, t0) {
            sink.span("cache", kind, t0, crate::span::now_nanos(), [("part", self.key.1), ("", 0)]);
        }
        match result {
            Ok(buf) => Ok(self.cache.complete(self.key, buf)),
            Err(e) => {
                self.cache.abort(self.key);
                Err(e)
            }
        }
    }
}

impl Drop for PendingRead {
    fn drop(&mut self) {
        if self.ticket.is_some() {
            self.cache.abort(self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(len: usize, fill: u8) -> IoBuf {
        IoBuf::from_bytes(&vec![fill; len])
    }

    #[test]
    fn miss_then_hit() {
        let c = PageCache::new(CacheCfg::with_capacity(1 << 20).with_shards(1));
        let key = (1, 0);
        assert!(matches!(c.lookup(key), Lookup::MustRead));
        let published = c.complete(key, buf(64, 7));
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
        let c = PageCache::new(CacheCfg::with_capacity(1 << 20).with_shards(1));
        let key = (1, 3);
        assert!(matches!(c.lookup(key), Lookup::MustRead));
        // Second reader of the same partition shares the in-flight read.
        assert!(matches!(c.lookup(key), Lookup::Shared));
        c.complete(key, buf(32, 1));
        match c.wait_shared(key) {
            SharedOutcome::Ready(b) => assert_eq!(b.len(), 32),
            _ => panic!("expected published buffer"),
        }
        let s = c.stats_snapshot();
        assert_eq!(s.misses, 1, "one owner per partition");
        assert_eq!(s.coalesced, 1);
    }

    #[test]
    fn abort_unblocks_to_retry() {
        let c = PageCache::new(CacheCfg::with_capacity(1 << 20).with_shards(1));
        let key = (9, 0);
        assert!(matches!(c.lookup(key), Lookup::MustRead));
        c.abort(key);
        assert!(matches!(c.wait_shared(key), SharedOutcome::Gone));
        // The retry becomes the new owner.
        assert!(matches!(c.lookup(key), Lookup::MustRead));
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        // Budget for exactly two 64-byte partitions on one shard.
        let c = PageCache::new(CacheCfg::with_capacity(128).with_shards(1));
        for p in 0..2u64 {
            assert!(matches!(c.lookup((1, p)), Lookup::MustRead));
            c.complete((1, p), buf(64, p as u8));
        }
        // Touch partition 0 so its reference bit protects it.
        assert!(matches!(c.lookup((1, 0)), Lookup::Hit(_)));
        assert!(matches!(c.lookup((1, 2)), Lookup::MustRead));
        c.complete((1, 2), buf(64, 2));
        let s = c.stats_snapshot();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= 128);
        // The referenced partition survived; the untouched one did not.
        assert!(matches!(c.lookup((1, 0)), Lookup::Hit(_)));
        assert!(matches!(c.lookup((1, 1)), Lookup::MustRead));
    }

    #[test]
    fn admission_filter_by_size() {
        let c = PageCache::new(CacheCfg::with_capacity(1024));
        assert!(c.admits(1024));
        assert!(!c.admits(1025));
    }

    #[test]
    fn invalidate_drops_resident() {
        let c = PageCache::new(CacheCfg::with_capacity(1 << 20).with_shards(1));
        assert!(matches!(c.lookup((4, 0)), Lookup::MustRead));
        c.complete((4, 0), buf(16, 3));
        c.invalidate((4, 0));
        assert_eq!(c.stats_snapshot().resident_bytes, 0);
        assert!(matches!(c.lookup((4, 0)), Lookup::MustRead));
    }

    #[test]
    fn invalidate_file_sweeps_all_parts() {
        let c = PageCache::new(CacheCfg::with_capacity(1 << 20).with_shards(2));
        for p in 0..4u64 {
            assert!(matches!(c.lookup((7, p)), Lookup::MustRead));
            c.complete((7, p), buf(16, p as u8));
        }
        assert!(matches!(c.lookup((8, 0)), Lookup::MustRead));
        c.complete((8, 0), buf(16, 9));
        c.invalidate_file(7);
        let s = c.stats_snapshot();
        assert_eq!(s.resident_bytes, 16, "the other file's entry survives");
        assert!(matches!(c.lookup((8, 0)), Lookup::Hit(_)));
    }

    #[test]
    fn readahead_triggers_after_sequential_run() {
        let c = PageCache::new(CacheCfg::with_capacity(1 << 20).with_readahead(4, 3));
        assert!(c.plan_readahead(1, 0, 100).is_empty());
        assert!(c.plan_readahead(1, 1, 100).is_empty());
        // Third in-order access grants the window.
        assert_eq!(c.plan_readahead(1, 2, 100), vec![3, 4, 5, 6]);
        // Next step only extends by the new tail partition.
        assert_eq!(c.plan_readahead(1, 3, 100), vec![7]);
        // A random jump resets the run.
        assert!(c.plan_readahead(1, 42, 100).is_empty());
    }

    #[test]
    fn readahead_respects_file_end() {
        let c = PageCache::new(CacheCfg::with_capacity(1 << 20).with_readahead(8, 1));
        assert_eq!(c.plan_readahead(1, 8, 10), vec![9]);
    }

    #[test]
    fn snapshot_delta_saturates() {
        let c = PageCache::new(CacheCfg::with_capacity(1 << 20).with_shards(1));
        assert!(matches!(c.lookup((1, 0)), Lookup::MustRead));
        c.complete((1, 0), buf(8, 0));
        let a = c.stats_snapshot();
        let _ = c.lookup((1, 0));
        let b = c.stats_snapshot();
        assert_eq!(a.delta(&b).hits, 1);
        assert_eq!(b.delta(&a).hits, 0, "swapped order saturates");
    }
}

//! Concurrency and correctness stress for the SA-cache page cache:
//! bit-identical reads under contention, single-flight coalescing,
//! warm-cache zero-device-read scans, capacity-0 passthrough, admission
//! (whole, partial after two scans, and own-file protection) and write
//! and delete invalidation.

use flashr_safs::{CacheCfg, Safs, SafsConfig, ThrottleCfg};
use flashr_testkit::{Rng, TempDir};
use std::sync::Arc;

fn tmp_root(tag: &str) -> TempDir {
    TempDir::new(&format!("safs-cache-stress-{tag}"))
}

/// Deterministic partition payload: every byte derives from (part, idx).
fn pattern(part: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (part as usize * 31 + i * 7) as u8).collect()
}

fn make_file(safs: &Safs, name: &str, part_bytes: u64, nparts: u64) -> flashr_safs::SafsFile {
    let f = safs.create(name, part_bytes, nparts).unwrap();
    for p in 0..nparts {
        f.write_part(p, &pattern(p, part_bytes as usize)).unwrap();
    }
    f
}

#[test]
fn concurrent_reads_are_bit_identical_and_evict() {
    const PART: u64 = 4096;
    const NPARTS: u64 = 8;
    const NFILES: u64 = 8;
    // Each file fits (8 parts ≤ 8-part capacity) so admission accepts,
    // but the working set is 8 files — plenty of CLOCK eviction churn.
    let cache = CacheCfg::with_capacity(NPARTS * PART);
    let root = tmp_root("concurrent");
    let safs = Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache)).unwrap();
    let files: Vec<Arc<flashr_safs::SafsFile>> =
        (0..NFILES).map(|i| Arc::new(make_file(&safs, &format!("x{i}"), PART, NPARTS))).collect();

    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let files = &files;
            scope.spawn(move || {
                let mut rng = Rng::new(t);
                for _ in 0..400 {
                    let file = &files[rng.below(NFILES) as usize];
                    let part = rng.below(NPARTS);
                    let buf = file.read_part_cached(part).unwrap();
                    assert_eq!(buf.as_bytes(), &pattern(part, PART as usize)[..]);
                }
            });
        }
    });

    let c = safs.cache_stats_snapshot();
    assert!(c.hits > 0, "expected cache hits, got {c:?}");
    assert!(c.evictions > 0, "8-file working set over an 8-part cache must evict, got {c:?}");
    // Cached reads must agree with the direct device path.
    for file in &files {
        for part in 0..NPARTS {
            let direct = file.read_part(part).unwrap();
            let cached = file.read_part_cached(part).unwrap();
            assert_eq!(direct.as_bytes(), cached.as_bytes());
        }
    }
}

#[test]
fn single_flight_coalesces_concurrent_misses() {
    const PART: u64 = 64 * 1024; // large enough that reads take a while
    const NPARTS: u64 = 8;
    let cache = CacheCfg::with_capacity(NPARTS * PART);
    let root = tmp_root("coalesce");
    let safs = Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache)).unwrap();
    let file = Arc::new(make_file(&safs, "x", PART, NPARTS));
    let before = safs.stats_snapshot();

    // Many threads all demand the same small set of partitions at once.
    std::thread::scope(|scope| {
        for _ in 0..16 {
            let file = file.clone();
            scope.spawn(move || {
                for part in 0..NPARTS {
                    let buf = file.read_part_cached(part).unwrap();
                    assert_eq!(buf.as_bytes(), &pattern(part, PART as usize)[..]);
                }
            });
        }
    });

    let io = before.delta(&safs.stats_snapshot());
    let c = io.cache;
    assert_eq!(c.misses, NPARTS, "one miss per distinct partition, got {c:?}");
    assert_eq!(io.read_reqs, NPARTS, "one device read per distinct partition");
    assert!(c.coalesced + c.hits >= 15 * NPARTS, "other readers hit or coalesced: {c:?}");
}

#[test]
fn warm_cache_scan_issues_zero_device_reads() {
    const PART: u64 = 4096;
    const NPARTS: u64 = 32;
    let cache = CacheCfg::with_capacity(NPARTS * PART);
    // Throttle on: cache hits must not be charged as device I/O
    // (ISSUE 3 satellite: ThrottleCfg interaction).
    let throttle = ThrottleCfg { bytes_per_sec: 64.0 * 1024.0 * 1024.0, latency_us: 5.0 };
    let root = tmp_root("warm");
    let safs =
        Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache).with_throttle(throttle))
            .unwrap();
    let file = make_file(&safs, "x", PART, NPARTS);

    // Cold scan: populates the cache.
    for p in 0..NPARTS {
        file.read_part_cached(p).unwrap();
    }
    let warm_before = safs.stats_snapshot();
    for p in 0..NPARTS {
        let buf = file.read_part_cached(p).unwrap();
        assert_eq!(buf.as_bytes(), &pattern(p, PART as usize)[..]);
    }
    let warm = warm_before.delta(&safs.stats_snapshot());
    assert_eq!(warm.read_reqs, 0, "warm scan must not touch the device: {warm:?}");
    assert_eq!(warm.read_bytes, 0);
    assert_eq!(warm.cache.hits, NPARTS);
}

#[test]
fn capacity_zero_is_passthrough() {
    const PART: u64 = 4096;
    const NPARTS: u64 = 16;
    let cache = CacheCfg::with_capacity(0);
    let root = tmp_root("zerocap");
    let safs = Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache)).unwrap();
    assert_eq!(safs.page_cache_capacity(), 0, "zero capacity must install no cache");
    let file = make_file(&safs, "x", PART, NPARTS);

    let before = safs.stats_snapshot();
    for p in 0..NPARTS {
        let buf = file.read_part_cached(p).unwrap();
        assert_eq!(buf.as_bytes(), &pattern(p, PART as usize)[..]);
    }
    for p in 0..NPARTS {
        file.read_part_cached(p).unwrap();
    }
    let io = before.delta(&safs.stats_snapshot());
    // Every read goes to the device, exactly as without a cache.
    assert_eq!(io.read_reqs, 2 * NPARTS);
    assert_eq!(io.cache.hits + io.cache.misses + io.cache.coalesced, 0);
}

#[test]
fn oversized_file_bypasses_admission() {
    const PART: u64 = 4096;
    const NPARTS: u64 = 16;
    // Cache smaller than the file: a full-file scan would only churn, so
    // admission sends it straight to the device.
    let cache = CacheCfg::with_capacity(4 * PART);
    let root = tmp_root("bypass");
    let safs = Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache)).unwrap();
    let file = make_file(&safs, "x", PART, NPARTS);

    let before = safs.stats_snapshot();
    for p in 0..NPARTS {
        file.read_part_cached(p).unwrap();
    }
    let io = before.delta(&safs.stats_snapshot());
    assert_eq!(io.cache.bypasses, NPARTS, "oversized file must bypass: {:?}", io.cache);
    assert_eq!(io.cache.hits + io.cache.misses, 0);
    assert_eq!(io.read_reqs, NPARTS);
}

#[test]
fn write_invalidates_cached_partition() {
    const PART: u64 = 4096;
    let cache = CacheCfg::with_capacity(8 * PART);
    let root = tmp_root("inval");
    let safs = Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache)).unwrap();
    let file = make_file(&safs, "x", PART, 4);

    let old = file.read_part_cached(1).unwrap();
    assert_eq!(old.as_bytes(), &pattern(1, PART as usize)[..]);
    let fresh = vec![0xABu8; PART as usize];
    file.write_part(1, &fresh).unwrap();
    let new = file.read_part_cached(1).unwrap();
    assert_eq!(new.as_bytes(), &fresh[..], "stale cache entry served after overwrite");
    assert!(safs.cache_stats_snapshot().invalidations > 0);
}

/// One scan of `file`, partition by partition, returning the partitions
/// the cache served (those that issued no device read).
fn scan_hits(safs: &Safs, file: &flashr_safs::SafsFile) -> Vec<u64> {
    let mut hits = Vec::new();
    for p in 0..file.nparts() {
        let before = safs.stats_snapshot();
        let buf = file.read_part_cached(p).unwrap();
        assert_eq!(buf.as_bytes(), &pattern(p, file.part_bytes() as usize)[..]);
        if before.delta(&safs.stats_snapshot()).read_reqs == 0 {
            hits.push(p);
        }
    }
    hits
}

#[test]
fn cyclic_scans_of_a_larger_file_keep_a_stable_resident_subset() {
    const PART: u64 = 4096;
    const NPARTS: u64 = 16;
    const CAP_PARTS: u64 = 4;
    // A file 4× the cache, scanned six times.
    let cache = CacheCfg::with_capacity(CAP_PARTS * PART);
    let root = tmp_root("cyclic");
    let safs = Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache)).unwrap();
    let file = make_file(&safs, "x", PART, NPARTS);

    let mut resident = Vec::new();
    for scan in 1..=6 {
        let before = safs.cache_stats_snapshot();
        let hits = scan_hits(&safs, &file);
        let c = before.delta(&safs.cache_stats_snapshot());
        match scan {
            // Two scans count the file's misses and keep nothing.
            1 | 2 => {
                assert_eq!(
                    (c.bypasses, c.inserts, c.lookups()),
                    (NPARTS, 0, 0),
                    "scan {scan}: {c:?}"
                );
                assert!(hits.is_empty());
            }
            // The third admits what fits and serves the rest uncached.
            3 => {
                assert_eq!((c.bypasses, c.misses, c.inserts), (0, NPARTS, CAP_PARTS), "{c:?}");
                assert!(hits.is_empty());
            }
            _ => {
                assert_eq!(
                    hits.len() as u64,
                    CAP_PARTS,
                    "scan {scan}: capacity ÷ file of a scan hits"
                );
                assert_eq!((c.inserts, c.evictions), (0, 0), "scan {scan}: {c:?}");
                if scan > 4 {
                    assert_eq!(hits, resident, "scan {scan}: the resident set moved");
                }
                resident = hits;
            }
        }
    }
    assert_eq!(safs.cache_stats_snapshot().resident_bytes, CAP_PARTS * PART);
}

#[test]
fn a_larger_file_never_evicts_its_own_partitions() {
    const PART: u64 = 4096;
    const NPARTS: u64 = 16;
    let cache = CacheCfg::with_capacity(4 * PART);
    let root = tmp_root("own");
    let safs = Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache)).unwrap();
    let big = make_file(&safs, "big", PART, NPARTS);
    let small = make_file(&safs, "small", PART, 2);
    // The small file fits: its two partitions go in at their first miss.
    for p in 0..2 {
        small.read_part_cached(p).unwrap();
    }
    // Scans in both directions: whatever the big file finds resident of
    // its own stays, and only the small file's entries make it room.
    for scan in 0..6 {
        for i in 0..NPARTS {
            let p = if scan % 2 == 0 { i } else { NPARTS - 1 - i };
            big.read_part_cached(p).unwrap();
        }
    }
    let c = safs.cache_stats_snapshot();
    assert_eq!(c.evictions, 2, "only the small file's two entries were evicted: {c:?}");
    assert_eq!(c.inserts, 2 + 4, "{c:?}");
    assert_eq!(c.resident_bytes, 4 * PART);
}

#[test]
fn a_fitting_file_is_admitted_at_its_first_miss() {
    const PART: u64 = 4096;
    const NPARTS: u64 = 4;
    let cache = CacheCfg::with_capacity(NPARTS * PART);
    let root = tmp_root("fits");
    let safs = Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache)).unwrap();
    let file = make_file(&safs, "x", PART, NPARTS);
    assert!(scan_hits(&safs, &file).is_empty());
    let c = safs.cache_stats_snapshot();
    assert_eq!((c.bypasses, c.misses, c.inserts), (0, NPARTS, NPARTS), "{c:?}");
    assert_eq!(scan_hits(&safs, &file), (0..NPARTS).collect::<Vec<_>>());
}

#[test]
fn write_and_delete_invalidate_a_partly_admitted_file() {
    const PART: u64 = 4096;
    const NPARTS: u64 = 8;
    let cache = CacheCfg::with_capacity(2 * PART);
    let root = tmp_root("partial-inval");
    let safs = Safs::open(SafsConfig::striped_under(&root, 2).with_cache(cache)).unwrap();
    let file = make_file(&safs, "x", PART, NPARTS);
    for _ in 0..3 {
        scan_hits(&safs, &file);
    }
    let resident = scan_hits(&safs, &file);
    assert_eq!(resident.len(), 2, "a quarter of the file is resident");

    // A write drops the rewritten partition; the next read sees the new bytes.
    let p = resident[0];
    let fresh = vec![0xABu8; PART as usize];
    file.write_part(p, &fresh).unwrap();
    assert_eq!(safs.cache_stats_snapshot().resident_bytes, PART);
    assert_eq!(file.read_part_cached(p).unwrap().as_bytes(), &fresh[..], "stale entry served");

    // Deleting the file drops every entry it has.
    file.delete().unwrap();
    let c = safs.cache_stats_snapshot();
    assert_eq!(c.resident_bytes, 0, "{c:?}");
    assert!(c.invalidations >= 2, "{c:?}");
    assert!(file.read_part_cached(resident[1]).is_err(), "a deleted file reads nothing");
}

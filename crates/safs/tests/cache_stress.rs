//! Concurrency and correctness stress for the SA-cache page cache
//! (ISSUE 3): bit-identical reads under contention, single-flight
//! coalescing, warm-cache zero-device-read scans, capacity-0
//! passthrough, admission bypass, and write invalidation.

use flashr_safs::{CacheCfg, Safs, SafsConfig, ThrottleCfg};
use flashr_testkit::Rng;
use std::sync::Arc;

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("safs-cache-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
    let cache = CacheCfg::with_capacity(NPARTS * PART).with_shards(2);
    let safs =
        Safs::open(SafsConfig::striped_under(tmp_root("concurrent"), 2).with_cache(cache)).unwrap();
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
    let safs =
        Safs::open(SafsConfig::striped_under(tmp_root("coalesce"), 2).with_cache(cache)).unwrap();
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
    let cache = CacheCfg::with_capacity(NPARTS * PART).with_shards(2);
    // Throttle on: cache hits must not be charged as device I/O
    // (ISSUE 3 satellite: ThrottleCfg interaction).
    let throttle = ThrottleCfg { bytes_per_sec: 64.0 * 1024.0 * 1024.0, latency_us: 5.0 };
    let safs = Safs::open(
        SafsConfig::striped_under(tmp_root("warm"), 2).with_cache(cache).with_throttle(throttle),
    )
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
    let safs =
        Safs::open(SafsConfig::striped_under(tmp_root("zerocap"), 2).with_cache(cache)).unwrap();
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
    let safs =
        Safs::open(SafsConfig::striped_under(tmp_root("bypass"), 2).with_cache(cache)).unwrap();
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
    let safs =
        Safs::open(SafsConfig::striped_under(tmp_root("inval"), 2).with_cache(cache)).unwrap();
    let file = make_file(&safs, "x", PART, 4);

    let old = file.read_part_cached(1).unwrap();
    assert_eq!(old.as_bytes(), &pattern(1, PART as usize)[..]);
    let fresh = vec![0xABu8; PART as usize];
    file.write_part(1, &fresh).unwrap();
    let new = file.read_part_cached(1).unwrap();
    assert_eq!(new.as_bytes(), &fresh[..], "stale cache entry served after overwrite");
    assert!(safs.cache_stats_snapshot().invalidations > 0);
}

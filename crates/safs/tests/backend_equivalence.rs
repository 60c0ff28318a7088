//! Property tests: the throttle changes timing, never bytes. A file
//! written and read back under any shard count ∈ {1, 2, 4}, with or
//! without the per-shard bandwidth throttle, is bit-identical to the
//! same file under every other combination — with and without a
//! deliberately undersized page cache forcing eviction churn on the
//! read path.

use flashr_safs::{CacheCfg, IoBuf, Safs, SafsConfig, ThrottleCfg};
use flashr_testkit::{cases, TempDir};

const CASES: usize = 8;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Throttled (fast enough to keep the suite quick) and unthrottled.
const THROTTLES: [Option<ThrottleCfg>; 2] =
    [Some(ThrottleCfg { bytes_per_sec: 1e9, latency_us: 1.0 }), None];

fn label(throttle: Option<ThrottleCfg>) -> &'static str {
    if throttle.is_some() {
        "throttled"
    } else {
        "unthrottled"
    }
}

/// A runtime of `shards` shards under a fresh directory, which goes with
/// the guard.
fn fresh(tag: &str, shards: usize, throttle: Option<ThrottleCfg>) -> (TempDir, Safs) {
    let dir = TempDir::new(&format!("safs-beq-{tag}-{shards}-{}", label(throttle)));
    let safs = Safs::open(SafsConfig { throttle, ..SafsConfig::striped_under(&dir, shards) });
    (dir, safs.unwrap())
}

/// Deterministic payload for partition `p` of length `len`.
fn payload(p: u64, len: usize, seed: u64) -> Vec<u8> {
    (0..len).map(|i| ((i as u64).wrapping_mul(167) ^ p.wrapping_mul(43) ^ seed) as u8).collect()
}

/// Write the matrix (async), flush, read every partition back.
fn write_and_read_back(safs: &Safs, part_bytes: u64, total: u64, seed: u64) -> Vec<Vec<u8>> {
    let f = safs.create_bytes("m", part_bytes, total).unwrap();
    let mut writes = Vec::new();
    for p in 0..f.nparts() {
        let len = f.part_len(p).unwrap();
        writes.push(f.write_part_async(p, IoBuf::from_bytes(&payload(p, len, seed))).unwrap());
    }
    for w in writes {
        w.wait().unwrap();
    }
    safs.flush();
    (0..f.nparts()).map(|p| f.read_part(p).unwrap().as_bytes().to_vec()).collect()
}

#[test]
fn all_shard_and_backend_combinations_are_bit_identical() {
    cases(CASES, |rng, _| {
        let part_bytes = rng.u64(64..2048);
        let nparts = rng.u64(1..24);
        let tail = rng.u64(0..2048);
        let seed = rng.next_u64();
        let total = (part_bytes * nparts + tail % part_bytes).max(1);
        let reference = payload_matrix(part_bytes, total, seed);
        for shards in SHARD_COUNTS {
            for throttle in THROTTLES {
                let (_dir, safs) = fresh("grid", shards, throttle);
                let got = write_and_read_back(&safs, part_bytes, total, seed);
                assert_eq!(&got, &reference, "shards={} {}", shards, label(throttle));
            }
        }
    });
}

#[test]
fn cached_reads_survive_eviction_churn_on_every_combination() {
    cases(CASES, |rng, _| {
        let nparts = rng.u64(4..32);
        let seed = rng.next_u64();
        let part_bytes = 1024u64;
        let total = part_bytes * nparts;
        let reference = payload_matrix(part_bytes, total, seed);
        for shards in SHARD_COUNTS {
            for throttle in THROTTLES {
                let (_dir, safs) = fresh("churn", shards, throttle);
                // A cache holding only ~2 partitions: every scan past it
                // evicts, so reads mix hits, misses and re-reads.
                safs.set_page_cache(Some(CacheCfg::with_capacity(2 * part_bytes)));
                let f = safs.create_bytes("m", part_bytes, total).unwrap();
                for p in 0..f.nparts() {
                    let len = f.part_len(p).unwrap();
                    f.write_part(p, &payload(p, len, seed)).unwrap();
                }
                // Two interleaved scans (forward then strided) through
                // the cached path to churn the CLOCK hand.
                for pass in 0..2u64 {
                    for p in 0..f.nparts() {
                        let p = if pass == 0 { p } else { (p * 7) % f.nparts() };
                        let got = f.read_part_cached(p).unwrap();
                        assert_eq!(
                            got.as_bytes(),
                            reference[p as usize].as_slice(),
                            "pass={} part={} shards={} {}",
                            pass,
                            p,
                            shards,
                            label(throttle)
                        );
                    }
                }
            }
        }
    });
}

/// The reference bytes for every partition of the matrix.
fn payload_matrix(part_bytes: u64, total: u64, seed: u64) -> Vec<Vec<u8>> {
    let nparts = total.div_ceil(part_bytes);
    (0..nparts)
        .map(|p| {
            let len = if p == nparts - 1 && !total.is_multiple_of(part_bytes) {
                (total % part_bytes) as usize
            } else {
                part_bytes as usize
            };
            payload(p, len, seed)
        })
        .collect()
}

/// Reopening under a *different* shard count must not silently produce
/// garbage: the on-disk layout is owned by the shard set that wrote it,
/// and the metadata pins the geometry. One fixed scenario, so no generated
/// cases.
#[test]
fn reopen_under_same_layout_is_identical_across_backends() {
    let part_bytes = 512u64;
    let total = part_bytes * 9;
    for shards in SHARD_COUNTS {
        let dir = TempDir::new(&format!("safs-beq-reopen-{shards}"));
        let cfg = SafsConfig::striped_under(&dir, shards);
        // Write throttled…
        {
            let safs = Safs::open(SafsConfig { throttle: THROTTLES[0], ..cfg.clone() }).unwrap();
            let f = safs.create_bytes("m", part_bytes, total).unwrap();
            for p in 0..f.nparts() {
                f.write_part(p, &payload(p, part_bytes as usize, 3)).unwrap();
            }
        }
        // …reopen and read unthrottled: same strips, same bytes.
        let safs = Safs::open(SafsConfig { throttle: None, ..cfg }).unwrap();
        let f = safs.open_file("m").unwrap();
        for p in 0..f.nparts() {
            assert_eq!(
                f.read_part(p).unwrap().as_bytes(),
                payload(p, part_bytes as usize, 3).as_slice(),
                "shards={shards} part={p}"
            );
        }
    }
}

//! Transient I/O errors through the whole observability stack: bounded
//! retry-with-backoff in the backend workers, retry counters in the
//! profile JSON, and the flight recorder dumping only when the
//! retry budget is exhausted — never for a retry that went on to
//! succeed.

use flashr_core::json;
use flashr_core::session::{CtxConfig, FlashCtx, StorageClass};
use flashr_safs::{Safs, SafsConfig, SafsError, RETRY_ATTEMPTS};
use flashr_testkit::TempDir;

/// An EM context on a two-shard array under the returned directory,
/// which goes when the guard drops.
fn em_ctx(tag: &str) -> (TempDir, FlashCtx, Safs) {
    let dir = TempDir::new(&format!("io-retry-{tag}"));
    let safs = Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    let ctx = FlashCtx::with_config(
        CtxConfig {
            nthreads: 2,
            rows_per_part: 64,
            storage: StorageClass::Em,
            ..CtxConfig::default()
        },
        Some(safs.clone()),
    );
    (dir, ctx, safs)
}

#[test]
fn recovered_retries_count_but_do_not_dump() {
    let (_dir, ctx, safs) = em_ctx("ok");
    let f = safs.create("retry-ok", 4096, 4).unwrap();
    for p in 0..4 {
        f.write_part(p, &vec![p as u8; 4096]).unwrap();
    }
    // One fault fewer than the attempt budget: the read succeeds and the
    // only trace is the retry counters.
    let faults = u64::from(RETRY_ATTEMPTS - 1);
    safs.inject_read_faults(faults);
    for p in 0..4 {
        assert_eq!(f.read_part(p).unwrap().as_bytes(), &vec![p as u8; 4096][..]);
    }
    let snap = safs.stats_snapshot();
    assert_eq!(snap.io_retries, faults);
    assert_eq!(snap.read_reqs, 4, "retries are attempts, not extra requests");
    assert_eq!(
        safs.shard_stats_snapshots().iter().map(|s| s.retries).sum::<u64>(),
        faults,
        "shard counters agree with the aggregate"
    );

    // The counter is visible in the profile-report JSON, per shard too.
    let doc = json::parse(&ctx.profile_report().to_json()).unwrap();
    assert_eq!(doc["io"]["io_retries"].as_u64(), Some(faults), "{doc:?}");
    let shards = doc["io_shards"].as_array().expect("io_shards array");
    assert_eq!(shards.len(), 2, "{doc:?}");
    let shard_retries = shards.iter().filter_map(|s| s["retries"].as_u64()).sum::<u64>();
    assert_eq!(shard_retries, faults, "{doc:?}");

    // A recovered retry is not a fault: no flight-recorder dump.
    assert!(!ctx.flight_recorder().dumped());
}

#[test]
fn exhausted_retries_error_and_dump_flight_recorder() {
    let (_dir, ctx, safs) = em_ctx("fail");
    let path =
        std::env::temp_dir().join(format!("flashr-io-retry-dump-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    ctx.flight_recorder().set_dump_path(&path);

    let f = safs.create("retry-fail", 4096, 1).unwrap();
    f.write_part(0, &vec![9u8; 4096]).unwrap();
    // Every attempt fails: the error surfaces to the caller and the
    // device emits an `io-error` span, which trips the recorder.
    safs.inject_read_faults(u64::from(RETRY_ATTEMPTS));
    assert!(matches!(f.read_part(0), Err(SafsError::Io { .. })));
    assert!(ctx.flight_recorder().dumped(), "final failure must dump");

    let doc = json::parse(&std::fs::read_to_string(&path).expect("dump written")).unwrap();
    assert_eq!(doc["reason"].as_str(), Some("io-error"));
    // The embedded counters carry the retry counter: one retry happened
    // between each two failed attempts.
    let retries = u64::from(RETRY_ATTEMPTS - 1);
    assert_eq!(doc["counters"]["io"]["io_retries"].as_u64(), Some(retries), "{doc:?}");
    let _ = std::fs::remove_file(&path);
}

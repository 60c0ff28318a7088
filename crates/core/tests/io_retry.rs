//! Transient I/O errors through the whole observability stack: bounded
//! retry-with-backoff in the backend workers, retry counters in the
//! metrics exposition, and the flight recorder dumping only when the
//! retry budget is exhausted — never for a retry that went on to
//! succeed.

use flashr_core::json;
use flashr_core::session::{CtxConfig, FlashCtx, StorageClass};
use flashr_safs::{RetryCfg, Safs, SafsConfig, SafsError};

fn em_ctx(tag: &str, retry: RetryCfg) -> (FlashCtx, Safs) {
    let dir = std::env::temp_dir().join(format!("flashr-io-retry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Explicit disk list so the CI shard-count override can't change the
    // geometry under the test.
    let cfg = SafsConfig {
        disks: (0..2).map(|d| dir.join(format!("disk{d}"))).collect(),
        ..SafsConfig::single_dir(&dir)
    }
    .with_retry(retry);
    let safs = Safs::open(cfg).unwrap();
    let ctx = FlashCtx::with_config(
        CtxConfig { nthreads: 2, rows_per_part: 64, storage: StorageClass::Em, ..CtxConfig::default() },
        Some(safs.clone()),
    );
    (ctx, safs)
}

#[test]
fn recovered_retries_count_but_do_not_dump() {
    let (ctx, safs) = em_ctx("ok", RetryCfg { max_attempts: 3, base_backoff_us: 1 });
    let f = safs.create("retry-ok", 4096, 4).unwrap();
    for p in 0..4 {
        f.write_part(p, &vec![p as u8; 4096]).unwrap();
    }
    // Two injected transient faults fit inside the 3-attempt budget, so
    // the read succeeds and the only trace is the retry counters.
    safs.inject_read_faults(2);
    for p in 0..4 {
        assert_eq!(f.read_part(p).unwrap().as_bytes(), &vec![p as u8; 4096][..]);
    }
    let snap = safs.stats_snapshot();
    assert_eq!(snap.io_retries, 2);
    assert_eq!(snap.read_reqs, 4, "retries are attempts, not extra requests");
    assert_eq!(
        safs.shard_stats_snapshots().iter().map(|s| s.retries).sum::<u64>(),
        2,
        "shard counters agree with the aggregate"
    );

    // The counter is visible in the Prometheus exposition, per shard too.
    let text = ctx.metrics_text();
    assert!(text.contains("flashr_io_retries_total 2"), "{text}");
    assert!(text.contains("flashr_io_shard_retries_total{shard="), "{text}");

    // …and in the profile-report JSON.
    let doc = json::parse(&ctx.profile_report().to_json()).unwrap();
    assert_eq!(doc["io"]["io_retries"].as_u64(), Some(2), "{doc:?}");
    assert_eq!(doc["io_shards"].as_array().map(Vec::len), Some(2), "{doc:?}");

    // A recovered retry is not a fault: no flight-recorder dump.
    assert!(!ctx.flight_recorder().dumped());
}

#[test]
fn exhausted_retries_error_and_dump_flight_recorder() {
    let (ctx, safs) = em_ctx("fail", RetryCfg { max_attempts: 2, base_backoff_us: 1 });
    let path = std::env::temp_dir()
        .join(format!("flashr-io-retry-dump-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    ctx.flight_recorder().set_dump_path(&path);

    let f = safs.create("retry-fail", 4096, 1).unwrap();
    f.write_part(0, &vec![9u8; 4096]).unwrap();
    // Both attempts fail: the error surfaces to the caller and the
    // device emits an `io-error` span, which trips the recorder.
    safs.inject_read_faults(2);
    assert!(matches!(f.read_part(0), Err(SafsError::Io { .. })));
    assert!(ctx.flight_recorder().dumped(), "final failure must dump");

    let doc = json::parse(&std::fs::read_to_string(&path).expect("dump written")).unwrap();
    assert_eq!(doc["reason"].as_str(), Some("io-error"));
    // The embedded metrics snapshot carries the retry counter: one retry
    // happened between the two failed attempts.
    let metrics = doc["metrics_text"].as_str().expect("metrics embedded");
    assert!(metrics.contains("flashr_io_retries_total 1"), "{metrics}");
    let _ = std::fs::remove_file(&path);
}

//! The panic-triggered flight recorder dump, in a binary of its own.
//!
//! The process-wide panic hook dumps *every* live recorder, so this test
//! must not share a process with other tests that build contexts — a
//! stray `#[should_panic]` elsewhere would consume this recorder's
//! once-only dump (or this panic would dump theirs).

use flashr_core::fm::FM;
use flashr_core::json::{self, Value};
use flashr_core::ops::BinaryOp;
use flashr_core::session::{CtxConfig, ExecMode, FlashCtx};

#[test]
fn panic_dumps_recent_exec_spans_and_metrics() {
    let cfg = CtxConfig {
        nthreads: 2,
        mode: ExecMode::CacheFuse,
        rows_per_part: 64,
        ..CtxConfig::default()
    };
    let ctx = FlashCtx::with_config(cfg, None);
    let path =
        std::env::temp_dir().join(format!("flashr-flight-panic-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    ctx.flight_recorder().set_dump_path(&path);

    // A materialization so the rings hold real exec spans…
    let x = FM::runif(&ctx, 1000, 4, 0.0, 1.0, 7);
    let _ = x.binary_scalar(BinaryOp::Mul, 2.0, false).sum().value(&ctx);
    assert!(!ctx.flight_recorder().dumped());

    // …then a panic anywhere in the process trips the hook.
    let unwound = std::panic::catch_unwind(|| panic!("materialization went sideways"));
    assert!(unwound.is_err());
    assert!(ctx.flight_recorder().dumped(), "panic hook should have dumped");

    let doc = json::parse(&std::fs::read_to_string(&path).expect("dump written"))
        .expect("dump parses as JSON");
    assert_eq!(doc["reason"].as_str(), Some("panic"));
    assert!(doc["ts_ns"].as_u64().is_some(), "{doc:?}");
    let lanes = doc["lanes"].as_array().expect("lanes array");
    let exec_events: Vec<&Value> = lanes
        .iter()
        .flat_map(|l| l["events"].as_array().map(|e| e.iter()).into_iter().flatten())
        .filter(|e| e["cat"].as_str() == Some("exec"))
        .collect();
    assert!(!exec_events.is_empty(), "expected at least one exec span in {doc:?}");
    // Task spans carry their partition and pass ids for post-mortems.
    assert!(
        exec_events
            .iter()
            .any(|e| e["name"].as_str() == Some("task") && e["args"]["pass"].as_u64() == Some(1)),
        "{doc:?}"
    );
    // The dump embeds the counters, read at dump time.
    let exec = &doc["counters"]["exec"];
    assert_eq!(exec["passes"].as_u64(), Some(1), "{doc:?}");
    assert_eq!(exec["parts"].as_u64(), Some(16), "{doc:?}");
    let _ = std::fs::remove_file(&path);
}

//! Call frames go at return. A closure defined in a call is bound in the
//! frame it captures; unless the call returns it, the frame's bindings
//! are dropped when the call returns, so neither the frame nor a pending
//! sink bound in it outlives the call.

use flashr_core::session::{CtxConfig, FlashCtx};
use flashr_core::TraceLevel;
use flashr_rlang::{Interp, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread holds.
struct CountingAlloc;

thread_local! {
    /// Bytes this thread allocated minus the bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the slot may already be gone during thread teardown.
        let _ = LIVE.try_with(|l| l.set(l.get() + layout.size() as isize));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|l| l.set(l.get() - layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// One worker, so every pass runs on the calling thread and its
/// allocations are the ones counted, and no pass profiles kept whatever
/// `FLASHR_TRACE` says.
fn interp(rows_per_part: u64) -> Interp {
    let cfg =
        CtxConfig { nthreads: 1, rows_per_part, trace: TraceLevel::Off, ..Default::default() };
    let ctx = FlashCtx::with_config(cfg, None);
    ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
    Interp::new(ctx)
}

/// Figure 2, one step and one line-search trial: `grad` and `cost` are
/// closures bound in the frame of `logistic.regression` they capture.
const FIGURE2: &str = r#"
logistic.regression <- function(X, y) {
  grad <- function(X, y, w)
    (t(X) %*% (1/(1+exp(-X%*%t(w)))-y))/length(y)
  cost <- function(X, y, w)
    sum(y*(-X%*%t(w))+log(1+exp(X%*%t(w))))/length(y)
  theta <- matrix(rep(0, num.features), nrow=1)
  g <- grad(X, y, theta)
  l <- cost(X, y, theta)
  eta <- 1
  delta <- 0.5 * (-g) %*% t(g)
  if (as.vector(cost(X, y, theta+eta*(-g))) > as.vector(l)+as.vector(delta)[1]*eta)
    eta <- eta * 0.2
  theta + (-g) * eta
}
theta <- logistic.regression(X, y)
theta[1, 1]
"#;

#[test]
fn figure2_evaluations_leave_no_frame_behind() {
    let mut r = interp(1024);
    r.eval_str(
        r#"
num.features <- 4
X <- materialize(rnorm.matrix(256, num.features, seed = 1))
truth <- matrix(c(1.5, -1, 0.5, 2), nrow = 1)
y <- materialize(sigmoid(X %*% t(truth)) > runif.matrix(256, 1, seed = 2))
"#,
    )
    .unwrap();
    let mut eval = || match r.eval_str(FIGURE2).unwrap() {
        Value::Num(w) => assert!(w > 0.0, "theta[1, 1] = {w}"),
        other => panic!("{other:?}"),
    };
    // Warm the chunk-buffer pool and the interpreter's tables.
    for _ in 0..50 {
        eval();
    }
    let before = live_bytes();
    for _ in 0..1000 {
        eval();
    }
    // A leaked frame holds its bindings, `X`'s and `y`'s handles, the
    // two closures and the pending sinks: kilobytes an evaluation.
    let grown = live_bytes() - before;
    assert!(grown < 16 << 10, "{grown} B more live after 1 000 evaluations");
}

#[test]
fn a_sink_bound_in_a_finished_call_is_not_computed() {
    // `s` is dead once `f` returns. With the closure `h` bound in `f`'s
    // frame the frame used to survive, and the next pass computed `s`
    // too: the `sum` pass must read only `X`, 8 partitions of 1 024 × 2.
    let bodies = [
        "f <- function() { s <- colSums(X * 3); 1 }",
        "f <- function() { h <- function() 1; s <- colSums(X * 3); h() }",
    ];
    for body in bodies {
        let mut r = interp(1024);
        r.eval_str("X <- materialize(rnorm.matrix(8192, 2, seed = 5))").unwrap();
        r.eval_str(body).unwrap();
        r.eval_str("f()").unwrap();
        let before = r.ctx().stats().snapshot();
        r.eval_str("as.vector(sum(X))").unwrap();
        let d = before.delta(&r.ctx().stats().snapshot());
        assert_eq!((d.passes, d.node_chunks, d.node_chunk_bytes), (1, 8, 131_072), "{body}");
    }
}

#[test]
fn a_returned_closure_keeps_its_frame() {
    let mut r = interp(1024);
    let got = r
        .eval_str(
            r#"
counter <- function(start) {
  base <- start * 2
  function(k) base + k
}
add <- counter(5)
nested <- function() {
  inner <- function() { v <- 7; function() v }
  inner()
}
get <- nested()
c(add(1), get())
"#,
        )
        .unwrap();
    match got {
        Value::Vec(v) => assert_eq!(v.as_ref(), &[11.0, 7.0]),
        other => panic!("{other:?}"),
    }
}

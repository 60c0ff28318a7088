//! The workspace's one thread pool, and the parallel-for over it.
//!
//! Helper threads are spawned when first needed, named once
//! (`flashr-pool-<n>`) and then live for the process, parked on a
//! condition variable between calls. [`run`]`(n, f)` runs `f(0)` on the
//! calling thread and `f(1..n)` on idle helpers, spawning the helpers it
//! is short of; the pool never shrinks. So every call has exactly `n`
//! participants, concurrent callers never wait for each other's work, and
//! a stream of calls no wider than the widest before it starts no thread.
//! If the OS refuses a new thread, the caller runs that participant's
//! index itself after its own.
//!
//! A call made from inside a participant — a kernel the executor's
//! worker calls, say — runs all of its indices inline, in order, so
//! nested parallelism never oversubscribes the CPUs. A panic in any
//! participant is re-raised on the caller, with its own payload, once
//! every participant has finished; the helper that caught it goes back
//! to the pool.
//!
//! [`for_each_chunk_mut`] and [`map_range`] split their items into one
//! contiguous block per participant — at most `available_parallelism` of
//! them — so what each index computes never depends on the thread that
//! ran it, and `syrk`'s panel partials fold in index order.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Threads a parallel-for may use. Read once: on Linux
/// `available_parallelism` parses cgroup files on every call.
fn max_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Lock, ignoring poison: every critical section here leaves its data
/// consistent, and participants' panics are caught outside the locks.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Whether this thread is running a participant of a [`run`] call:
    /// always on a helper, for the duration of the call on its caller.
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread a participant until dropped (unwinding
/// included), then restores what it was.
struct Inside(bool);

impl Inside {
    fn enter() -> Inside {
        Inside(INSIDE.replace(true))
    }
}

impl Drop for Inside {
    fn drop(&mut self) {
        INSIDE.set(self.0);
    }
}

type Payload = Box<dyn Any + Send>;

/// One [`run`] call's bookkeeping, shared with the helpers running it.
struct Call {
    /// Helper indices not finished yet, and the first panic caught.
    state: Mutex<(usize, Option<Payload>)>,
    done: Condvar,
}

impl Call {
    /// Run one participant, keeping its panic if it is the call's first.
    fn participate(&self, f: impl FnOnce()) {
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(f)) {
            lock(&self.state).1.get_or_insert(payload);
        }
    }
}

/// A helper index of a call, waiting for a thread.
struct Job {
    call: Arc<Call>,
    /// The caller's closure, type-erased; `run` knows its type.
    f: *const (),
    run: unsafe fn(*const (), usize),
    idx: usize,
}

// SAFETY: `call` and `idx` are `Send`, and `run` is a plain function
// pointer. `f` is only ever called through, by one helper: it points to a
// closure that is `Sync` (`submit`'s bound), so calling it from another
// thread is sound, and that closure outlives the job, since `run` neither
// returns nor unwinds before every helper it queued a job for has
// reported.
unsafe impl Send for Job {}

/// # Safety
/// `f` must point to a live `F`.
unsafe fn call_as<F: Fn(usize)>(f: *const (), idx: usize) {
    unsafe { (*f.cast::<F>())(idx) }
}

struct Queue {
    jobs: VecDeque<Job>,
    /// Helper threads alive.
    threads: usize,
    /// Helpers running a job.
    busy: usize,
}

impl Queue {
    /// Helpers neither running a job nor spoken for by a queued one.
    fn idle(&self) -> usize {
        self.threads.saturating_sub(self.busy + self.jobs.len())
    }
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue { jobs: VecDeque::new(), threads: 0, busy: 0 });
static WAKE: Condvar = Condvar::new();

/// Queue indices `1..=want` of a call for helpers, spawning the helpers
/// the pool is short of. Returns how many it queued: fewer than `want`
/// only when the OS refused a thread.
fn submit<F: Fn(usize) + Sync>(call: &Arc<Call>, f: &F, want: usize) -> usize {
    let mut q = lock(&QUEUE);
    while q.idle() < want {
        let name = format!("flashr-pool-{}", q.threads + 1);
        if std::thread::Builder::new().name(name).spawn(helper).is_err() {
            break;
        }
        q.threads += 1;
    }
    let got = want.min(q.idle());
    // Set before any helper can take a job: the pool lock is held.
    lock(&call.state).0 = got;
    let f = (f as *const F).cast::<()>();
    q.jobs.extend((1..=got).map(|idx| Job { call: call.clone(), f, run: call_as::<F>, idx }));
    drop(q);
    (0..got).for_each(|_| WAKE.notify_one());
    got
}

/// A helper's life: take a job, run it, report it, park when there is
/// none.
fn helper() {
    INSIDE.set(true);
    let mut q = lock(&QUEUE);
    loop {
        let Some(Job { call, f, run, idx }) = q.jobs.pop_front() else {
            q = WAKE.wait(q).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        q.busy += 1;
        drop(q);
        // SAFETY: `submit` paired `f` with the `call_as` of its own type,
        // and the closure is live until the report below (see `Job`).
        call.participate(|| unsafe { run(f, idx) });
        q = lock(&QUEUE);
        // Idle again before the caller can see its call finish, so the
        // caller's next call counts this helper as free.
        q.busy -= 1;
        let mut state = lock(&call.state);
        state.0 -= 1;
        if state.0 == 0 {
            call.done.notify_one();
        }
    }
}

/// Run `f(0)`, …, `f(n − 1)`, one participant each: `f(0)` on the
/// calling thread, the rest on pool helpers (see the module docs). From
/// inside a participant, or with `n ≤ 1`, every index runs inline in
/// order. Returns when all have finished; a panic in any of them is then
/// re-raised with the first payload caught.
pub fn run<F: Fn(usize) + Sync>(n: usize, f: F) {
    let nested = INSIDE.get();
    let _inside = Inside::enter();
    if nested || n <= 1 {
        (0..n).for_each(f);
        return;
    }
    let call = Arc::new(Call { state: Mutex::new((0, None)), done: Condvar::new() });
    let queued = submit(&call, &f, n - 1);
    (0..1).chain(queued + 1..n).for_each(|idx| call.participate(|| f(idx)));
    let mut state = lock(&call.state);
    while state.0 > 0 {
        state = call.done.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
    if let Some(payload) = state.1.take() {
        drop(state);
        std::panic::resume_unwind(payload);
    }
}

/// Call `f(idx, chunk)` once for every `chunk_len`-sized chunk of `slice`
/// (the last may be shorter), `idx` counting chunks from 0. An empty slice
/// has no chunks, whatever `chunk_len` is.
pub fn for_each_chunk_mut<T: Send>(
    slice: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if slice.is_empty() {
        return;
    }
    assert!(chunk_len != 0, "chunk_len must not be zero");
    let nchunks = slice.len().div_ceil(chunk_len);
    let per_block = nchunks.div_ceil(max_threads().min(nchunks));
    let blocks: Vec<Mutex<&mut [T]>> =
        slice.chunks_mut(per_block * chunk_len).map(Mutex::new).collect();
    run(blocks.len(), |block| {
        for (i, chunk) in lock(&blocks[block]).chunks_mut(chunk_len).enumerate() {
            f(block * per_block + i, chunk);
        }
    });
}

/// `(0..n).map(f)` computed in parallel; results are in index order
/// whatever thread produced them.
pub fn map_range<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for_each_chunk_mut(&mut out, 1, |i, slot| slot[0] = Some(f(i)));
    // Every index was visited exactly once, so nothing is dropped here.
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn ragged_tail_is_visited_once_with_the_right_index() {
        // 10 full chunks of 7 and a tail of 3.
        let mut data = vec![0u32; 73];
        let visits: Vec<AtomicU32> = (0..11).map(|_| AtomicU32::new(0)).collect();
        for_each_chunk_mut(&mut data, 7, |i, chunk| {
            visits[i].fetch_add(1, Ordering::Relaxed);
            assert_eq!(chunk.len(), if i == 10 { 3 } else { 7 });
            chunk.fill(i as u32 + 1);
        });
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        for (pos, v) in data.iter().enumerate() {
            assert_eq!(*v, (pos / 7) as u32 + 1, "element {pos} written by the wrong chunk");
        }
    }

    #[test]
    fn map_range_keeps_index_order_and_nothing_has_no_chunks() {
        let want: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(map_range(1000, |i| i * i), want);
        assert!(map_range(0, |i| i).is_empty());
        for_each_chunk_mut(&mut [0u8; 0], 0, |_, _| panic!("no chunk to visit"));
    }

    #[test]
    fn a_single_block_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut one = vec![1u8, 2, 3];
        for_each_chunk_mut(&mut one, 8, |i, chunk| {
            assert_eq!((i, chunk.len()), (0, 3));
            assert_eq!(std::thread::current().id(), caller);
            chunk.reverse();
        });
        assert_eq!(one, [3, 2, 1]);
        assert_eq!(map_range(1, |_| std::thread::current().id()), [caller]);
    }

    #[test]
    fn a_panic_in_any_block_reaches_the_caller() {
        // The last index is in the last block, which is a helper's
        // whenever more than one thread is available.
        let res = std::panic::catch_unwind(|| map_range(64, |i| assert!(i != 63, "boom")));
        let payload = res.expect_err("the panic must not be swallowed");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
    }

    /// Who ran each index of a `run(n, …)` call.
    fn runners(n: usize) -> Vec<ThreadId> {
        let ids: Vec<Mutex<Option<ThreadId>>> = (0..n).map(|_| Mutex::new(None)).collect();
        run(n, |i| *lock(&ids[i]) = Some(std::thread::current().id()));
        ids.into_iter()
            .flat_map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }

    #[test]
    fn index_zero_runs_on_the_caller_and_the_rest_on_helpers() {
        let caller = std::thread::current().id();
        let ids = runners(4);
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|&id| id != caller), "{ids:?}");
        assert_eq!(runners(1), [caller], "one participant is the caller alone");
    }

    #[test]
    fn a_call_from_inside_a_participant_runs_inline() {
        // A failed assertion in a participant reaches the caller.
        run(3, |_| {
            let me = std::thread::current().id();
            assert!(runners(4).iter().all(|&id| id == me), "a nested run left its participant");
            let ids = map_range(16, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == me), "a nested map_range left its participant");
        });
    }

    #[test]
    fn a_helper_survives_a_panic_and_the_pool_keeps_working() {
        let res = std::panic::catch_unwind(|| run(3, |i| assert!(i != 2, "helper {i} failed")));
        let payload = res.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("helper 2 failed"));
        // The caller's own panic waits for its helpers, then surfaces.
        let res = std::panic::catch_unwind(|| run(3, |i| assert!(i != 0, "caller failed")));
        assert!(res.is_err());
        let hits = AtomicU32::new(0);
        run(3, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn concurrent_callers_each_get_every_participant_at_once() {
        // Each call's participants meet at a barrier, so a call finishes
        // only if all of its indices run at the same time: a queued index
        // with no thread to run it would hang the test, not fail it.
        let (done, watchdog) = mpsc::channel();
        for _ in 0..4 {
            let done = done.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let meet = Barrier::new(3);
                    run(3, |_| {
                        meet.wait();
                    });
                }
                let _ = done.send(());
            });
        }
        for _ in 0..4 {
            watchdog.recv_timeout(Duration::from_secs(30)).expect("a concurrent call hung");
        }
    }
}

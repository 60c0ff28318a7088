//! The workspace's one parallel-for, over `std::thread::scope`.
//!
//! There is no pool and no work stealing: a call splits its items into one
//! contiguous block per thread — at most `available_parallelism` threads —
//! runs the first block on the calling thread and joins the rest before
//! returning. A call with a single block spawns nothing, so kernels called
//! from the executor's workers on small operands stay on that worker. A
//! panic in any block is re-raised on the caller.

use std::sync::OnceLock;

/// Threads a call may use. Read once: on Linux `available_parallelism`
/// parses cgroup files on every call.
fn max_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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
    let run_block = |block: usize, part: &mut [T]| {
        for (i, chunk) in part.chunks_mut(chunk_len).enumerate() {
            f(block * per_block + i, chunk);
        }
    };
    let mut blocks = slice.chunks_mut(per_block * chunk_len).enumerate();
    let (_, first) = blocks.next().expect("slice is not empty");
    std::thread::scope(|s| {
        let run_block = &run_block;
        let spawned: Vec<_> =
            blocks.map(|(block, part)| s.spawn(move || run_block(block, part))).collect();
        run_block(0, first);
        for handle in spawned {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// `(0..n).map(f)` computed in parallel; results are in index order
/// whatever thread produced them.
pub fn map_range<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for_each_chunk_mut(&mut out, 1, |i, slot| slot[0] = Some(f(i)));
    out.into_iter().map(|v| v.expect("every index is visited once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

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
        // The last index is in the last block, which is a spawned thread
        // whenever more than one thread is available.
        let res = std::panic::catch_unwind(|| map_range(64, |i| assert!(i != 63, "boom")));
        let payload = res.expect_err("the panic must not be swallowed");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
    }
}

//! Stand-in for the part of `rayon` the flashr crates use:
//! `slice.par_chunks_mut(n).enumerate().for_each(f)` and
//! `(a..b).into_par_iter().map(f).collect()`.
//!
//! There is no pool: each call splits its items into one contiguous block
//! per thread and runs the blocks under `std::thread::scope`, with at most
//! `available_parallelism` threads and the first block on the calling
//! thread. A call with a single item therefore spawns nothing.
//!
//! This is benchmark-build code, not the published crate: the registry is
//! unreachable where the benchmark is built, and parent and change must be
//! measured against identical dependency code.

use std::ops::Range;
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

/// Threads a call may use. Read once: on Linux `available_parallelism`
/// parses cgroup files on every call.
fn max_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Items per block when `items` are spread over the allowed threads.
fn block_len(items: usize) -> usize {
    items.div_ceil(max_threads().min(items).max(1))
}

pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ParChunksMut { slice: self, chunk_size }
    }
}

pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn enumerate(self) -> EnumeratedChunksMut<'a, T> {
        EnumeratedChunksMut(self)
    }
}

pub struct EnumeratedChunksMut<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> EnumeratedChunksMut<'_, T> {
    /// Call `f((index, chunk))` once for every chunk; the last chunk may
    /// be shorter than `chunk_size`.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let ParChunksMut { slice, chunk_size } = self.0;
        let nchunks = slice.len().div_ceil(chunk_size);
        if nchunks == 0 {
            return;
        }
        let per_block = block_len(nchunks);
        let run_block = |block: usize, part: &mut [T]| {
            for (i, chunk) in part.chunks_mut(chunk_size).enumerate() {
                f((block * per_block + i, chunk));
            }
        };
        let mut blocks = slice.chunks_mut(per_block * chunk_size).enumerate();
        let (_, first) = blocks.next().expect("nchunks > 0");
        std::thread::scope(|s| {
            for (block, part) in blocks {
                let run_block = &run_block;
                s.spawn(move || run_block(block, part));
            }
            run_block(0, first);
        });
    }
}

pub trait IntoParallelIterator {
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange(self)
    }
}

pub struct ParRange(Range<usize>);

impl ParRange {
    pub fn map<R, F>(self, f: F) -> ParMap<F>
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
    {
        ParMap { range: self.0, f }
    }
}

pub struct ParMap<F> {
    range: Range<usize>,
    f: F,
}

impl<R, F> ParMap<F>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    /// Results arrive in index order, whatever thread computed them.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let ParMap { range, f } = self;
        if range.is_empty() {
            return std::iter::empty().collect();
        }
        let per_block = block_len(range.len());
        let run_block = |lo: usize| -> Vec<R> { (lo..(lo + per_block).min(range.end)).map(&f).collect() };
        let mut starts = range.clone().step_by(per_block);
        let first = starts.next().expect("range is not empty");
        let blocks: Vec<Vec<R>> = std::thread::scope(|s| {
            let handles: Vec<_> = starts
                .map(|lo| {
                    let run_block = &run_block;
                    s.spawn(move || run_block(lo))
                })
                .collect();
            let mut blocks = vec![run_block(first)];
            for h in handles {
                // Re-raise a worker's panic on the caller, as rayon does.
                blocks.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            blocks
        });
        blocks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn par_chunks_mut_visits_every_chunk_once_with_its_index() {
        // 10 full chunks of 7 and a ragged tail of 3.
        let mut data = vec![0u32; 73];
        let visits: Vec<AtomicU32> = (0..11).map(|_| AtomicU32::new(0)).collect();
        data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
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
    fn par_chunks_mut_handles_empty_and_single_chunk_slices() {
        let mut empty: Vec<u8> = Vec::new();
        empty.par_chunks_mut(4).enumerate().for_each(|_| panic!("no chunk to visit"));
        let mut one = vec![1u8, 2, 3];
        one.par_chunks_mut(8).enumerate().for_each(|(i, c)| {
            assert_eq!((i, c.len()), (0, 3));
            c.reverse();
        });
        assert_eq!(one, [3, 2, 1]);
    }

    #[test]
    fn map_collect_preserves_order() {
        let got: Vec<usize> = (3..1003).into_par_iter().map(|i| i * i).collect();
        let want: Vec<usize> = (3..1003).map(|i| i * i).collect();
        assert_eq!(got, want);
        let none: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn a_panic_in_a_worker_reaches_the_caller() {
        let res = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..64).into_par_iter().map(|i| if i == 63 { panic!("boom") } else { i }).collect();
        });
        assert!(res.is_err());
    }
}

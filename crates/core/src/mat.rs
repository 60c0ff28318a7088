//! Tall-and-skinny (TAS) matrices — the physical storage format (§3.2.1).
//!
//! A [`TasMat`] is partitioned on its long dimension into I/O partitions
//! whose elements are stored contiguously regardless of the element layout
//! inside the partition. The store is either NUMA-tagged in-memory
//! partition buffers or a striped SAFS file on the SSD array. Wide
//! matrices are *views*: transposition never copies (handled a level up,
//! in the `fm` API).

use crate::chunk::{BufPool, Chunk, PartBufPool};
use crate::dtype::{DType, Scalar};
use crate::element::Element;
use crate::part::Partitioner;
use flashr_safs::{CachedFetch, IoBuf, IoTicket, Safs, SafsFile, SafsResult};
use std::collections::VecDeque;
use std::sync::Arc;

/// Element order inside one I/O partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Each column of the partition is contiguous (preferred; vectorizes).
    ColMajor,
    /// Each row of the partition is contiguous (how row-wise loaders
    /// produce data).
    RowMajor,
}

/// Where a matrix's partitions live.
#[derive(Clone)]
pub enum Store {
    /// One buffer per I/O partition, tagged round-robin across simulated
    /// NUMA nodes (node = partition index mod #nodes).
    InMem(Arc<Vec<Arc<IoBuf>>>),
    /// A striped file on the SSD array.
    Em(SafsFile),
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Store::InMem(parts) => write!(f, "InMem({} parts)", parts.len()),
            Store::Em(file) => write!(f, "Em({})", file.name()),
        }
    }
}

/// A materialized tall-and-skinny matrix.
#[derive(Debug, Clone)]
pub struct TasMat {
    inner: Arc<TasInner>,
}

#[derive(Debug)]
struct TasInner {
    nrows: u64,
    ncols: usize,
    dtype: DType,
    layout: Layout,
    parter: Partitioner,
    store: Store,
    /// When set, uniquely-owned in-memory partition buffers return here
    /// on drop so the next pass's tall outputs reuse warm memory instead
    /// of paying the allocator (see [`PartBufPool`]).
    recycle: Option<Arc<PartBufPool>>,
}

impl Drop for TasInner {
    fn drop(&mut self) {
        let Some(pool) = self.recycle.take() else { return };
        if let Store::InMem(parts) = &mut self.store {
            let arc = std::mem::replace(parts, Arc::new(Vec::new()));
            // Both `try_unwrap`s fail whenever anything else still holds
            // the data (cloned stores, shared chunks, caller-held part
            // buffers) — recycling never invalidates a live reference.
            if let Ok(vec) = Arc::try_unwrap(arc) {
                for p in vec {
                    if let Ok(buf) = Arc::try_unwrap(p) {
                        pool.put(buf);
                    }
                }
            }
        }
    }
}

/// A partition read that may still be in flight.
pub enum PartFetch {
    /// In-memory partition, available immediately.
    Ready(Arc<IoBuf>),
    /// External-memory partition, pending on the I/O engine.
    Pending(IoTicket),
    /// External-memory partition routed through the SAFS page cache
    /// (hit, coalesced miss or readahead adoption).
    Cached(CachedFetch),
}

impl PartFetch {
    /// Block until the partition bytes are available. The I/O error goes
    /// to the caller, who knows which partition of which matrix this
    /// fetch was for.
    pub fn try_wait(self) -> SafsResult<Arc<IoBuf>> {
        match self {
            PartFetch::Ready(buf) => Ok(buf),
            PartFetch::Pending(ticket) => ticket.wait().map(Arc::new),
            PartFetch::Cached(fetch) => fetch.wait(),
        }
    }
}

/// A bounded read-ahead window over an ordered sequence of partitions
/// (paper §3.3: with sequential dispatch the next partitions' reads are
/// already in flight while the current one computes).
///
/// Partitions are handed out strictly one at a time, and each claim tops
/// the window up so that `depth` fetches beyond the claimed partition
/// stay issued. Claiming and reading ahead are separate on purpose: a
/// consumer only ever takes the next partition, so sharing one window
/// (behind a lock) among several workers keeps the device queue full
/// without letting any of them hoard partitions, and the fetches held —
/// `depth` plus one per consumer — are the window's byte bound.
pub struct ReadAhead<I, F> {
    /// Partitions not yet issued, in dispatch order.
    parts: I,
    /// Issued and not yet claimed, oldest first.
    issued: VecDeque<(u64, F)>,
    depth: usize,
}

impl<I: Iterator<Item = u64>, F> ReadAhead<I, F> {
    /// A window over `parts` that keeps `depth` fetches issued beyond
    /// the partition last claimed (`0`: every claim issues its own).
    pub fn new(parts: I, depth: usize) -> Self {
        ReadAhead { parts, issued: VecDeque::new(), depth }
    }

    /// Claim the next partition with its fetch — issued by an earlier
    /// claim, or now — and top the window up; `None` once the sequence
    /// is exhausted. `issue` starts the fetch of one partition.
    pub fn claim(&mut self, mut issue: impl FnMut(u64) -> F) -> Option<(u64, F)> {
        let claimed = match self.issued.pop_front() {
            Some(slot) => slot,
            None => self.parts.next().map(|part| (part, issue(part)))?,
        };
        while self.issued.len() < self.depth {
            let Some(part) = self.parts.next() else { break };
            self.issued.push_back((part, issue(part)));
        }
        Some(claimed)
    }
}

impl TasMat {
    /// Assemble an in-memory matrix from per-partition buffers (used by
    /// the materializer). Buffer `i` must hold partition `i` in `layout`
    /// order with exactly `part_rows(i) × ncols` elements.
    pub fn assemble_in_mem(
        nrows: u64,
        ncols: usize,
        dtype: DType,
        layout: Layout,
        parter: Partitioner,
        parts: Vec<Arc<IoBuf>>,
    ) -> TasMat {
        TasMat::assemble_in_mem_pooled(nrows, ncols, dtype, layout, parter, parts, None)
    }

    /// [`Self::assemble_in_mem`] with a recycle hook: when the matrix
    /// drops while holding the last reference to its partition buffers,
    /// they return to `recycle` for the next pass's tall outputs.
    pub fn assemble_in_mem_pooled(
        nrows: u64,
        ncols: usize,
        dtype: DType,
        layout: Layout,
        parter: Partitioner,
        parts: Vec<Arc<IoBuf>>,
        recycle: Option<Arc<PartBufPool>>,
    ) -> TasMat {
        assert_eq!(parts.len() as u64, parter.nparts(nrows), "partition count mismatch");
        for (i, p) in parts.iter().enumerate() {
            let rows = parter.part_rows(i as u64, nrows);
            assert_eq!(p.len(), rows * ncols * dtype.size(), "partition {i} byte size mismatch");
        }
        TasMat {
            inner: Arc::new(TasInner {
                nrows,
                ncols,
                dtype,
                layout,
                parter,
                store: Store::InMem(Arc::new(parts)),
                recycle,
            }),
        }
    }

    /// Wrap an existing SAFS file as a matrix (used by the materializer
    /// and by `load`-style readers).
    pub fn from_em_file(
        nrows: u64,
        ncols: usize,
        dtype: DType,
        layout: Layout,
        parter: Partitioner,
        file: SafsFile,
    ) -> TasMat {
        let expect = nrows * ncols as u64 * dtype.size() as u64;
        assert_eq!(file.total_bytes(), expect, "file size does not match matrix shape");
        TasMat {
            inner: Arc::new(TasInner {
                nrows,
                ncols,
                dtype,
                layout,
                parter,
                store: Store::Em(file),
                recycle: None,
            }),
        }
    }

    /// Build an in-memory matrix from a generator (row, col) → T.
    pub fn from_fn<T: Element>(
        nrows: u64,
        ncols: usize,
        parter: Partitioner,
        mut f: impl FnMut(u64, usize) -> T,
    ) -> TasMat {
        let nparts = parter.nparts(nrows);
        let mut parts = Vec::with_capacity(nparts as usize);
        for part in 0..nparts {
            let (r0, r1) = parter.part_range(part, nrows);
            let rows = (r1 - r0) as usize;
            let mut buf = IoBuf::zeroed(rows * ncols * T::DTYPE.size());
            {
                let s = buf.typed_mut::<T>();
                for c in 0..ncols {
                    for r in 0..rows {
                        s[c * rows + r] = f(r0 + r as u64, c);
                    }
                }
            }
            parts.push(Arc::new(buf));
        }
        TasMat::assemble_in_mem(nrows, ncols, T::DTYPE, Layout::ColMajor, parter, parts)
    }

    /// Build an in-memory matrix from a column-major element vector.
    pub fn from_col_major<T: Element>(
        nrows: u64,
        ncols: usize,
        parter: Partitioner,
        data: &[T],
    ) -> TasMat {
        assert_eq!(data.len() as u64, nrows * ncols as u64, "element count mismatch");
        TasMat::from_fn(nrows, ncols, parter, |r, c| data[c * nrows as usize + r as usize])
    }

    /// Build an in-memory matrix from a row-major element vector,
    /// *preserving* the row-major partition layout (exercises the
    /// engine's row-major leaf path).
    pub fn from_row_major<T: Element>(
        nrows: u64,
        ncols: usize,
        parter: Partitioner,
        data: &[T],
    ) -> TasMat {
        assert_eq!(data.len() as u64, nrows * ncols as u64, "element count mismatch");
        let nparts = parter.nparts(nrows);
        let mut parts = Vec::with_capacity(nparts as usize);
        for part in 0..nparts {
            let (r0, r1) = parter.part_range(part, nrows);
            let rows = (r1 - r0) as usize;
            let mut buf = IoBuf::zeroed(rows * ncols * T::DTYPE.size());
            {
                let s = buf.typed_mut::<T>();
                s.copy_from_slice(&data[r0 as usize * ncols..r1 as usize * ncols]);
            }
            parts.push(Arc::new(buf));
        }
        TasMat::assemble_in_mem(nrows, ncols, T::DTYPE, Layout::RowMajor, parter, parts)
    }

    /// Rows.
    pub fn nrows(&self) -> u64 {
        self.inner.nrows
    }

    /// Columns.
    pub fn ncols(&self) -> usize {
        self.inner.ncols
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.inner.dtype
    }

    /// Partition-internal element order.
    pub fn layout(&self) -> Layout {
        self.inner.layout
    }

    /// The partitioning this matrix was built with.
    pub fn parter(&self) -> Partitioner {
        self.inner.parter
    }

    /// Number of I/O partitions.
    pub fn nparts(&self) -> u64 {
        self.inner.parter.nparts(self.inner.nrows)
    }

    /// Whether the matrix lives on the SSD array.
    pub fn is_em(&self) -> bool {
        matches!(self.inner.store, Store::Em(_))
    }

    /// The backing store.
    pub fn store(&self) -> &Store {
        &self.inner.store
    }

    /// Begin fetching partition `part` (asynchronous for EM stores).
    pub fn fetch_part(&self, part: u64) -> PartFetch {
        self.try_fetch_part(part)
            .unwrap_or_else(|e| panic!("read submit for partition {part} failed: {e}"))
    }

    /// [`Self::fetch_part`] with a failed submit handed to the caller.
    pub fn try_fetch_part(&self, part: u64) -> SafsResult<PartFetch> {
        Ok(match &self.inner.store {
            Store::InMem(parts) => PartFetch::Ready(parts[part as usize].clone()),
            Store::Em(file) => match file.fetch_part_cached(part)? {
                // No cache installed (or bypassed): the plain async path.
                CachedFetch::Direct(ticket) => PartFetch::Pending(ticket),
                fetch => PartFetch::Cached(fetch),
            },
        })
    }

    /// Synchronously read partition `part`.
    pub fn read_part(&self, part: u64) -> Arc<IoBuf> {
        self.fetch_part(part)
            .try_wait()
            .unwrap_or_else(|e| panic!("read of partition {part} failed: {e}"))
    }

    /// Strided in-place view parameters for the Pcache chunk `[r0, r1)`
    /// of partition `part`: `(col_stride_rows, row_off)` into the raw
    /// partition buffer. `Some` only for column-major stores — chain
    /// kernels use this to read the leaf directly (no chunk copy);
    /// row-major callers fall back to [`Self::pcache_chunk`].
    pub fn pcache_stride(&self, part: u64, r0: usize, r1: usize) -> Option<(usize, usize)> {
        if !matches!(self.inner.layout, Layout::ColMajor) {
            return None;
        }
        let part_rows = self.inner.parter.part_rows(part, self.inner.nrows);
        assert!(r0 <= r1 && r1 <= part_rows, "pcache range out of partition");
        Some((part_rows, r0))
    }

    /// Extract the Pcache chunk `[r0, r1)` (partition-local rows) of
    /// partition `part` from its raw buffer, converting to column-major.
    ///
    /// Zero-copy when the range spans a whole column-major partition.
    pub fn pcache_chunk(
        &self,
        part_buf: &Arc<IoBuf>,
        part: u64,
        r0: usize,
        r1: usize,
        pool: &mut BufPool,
    ) -> Chunk {
        let part_rows = self.inner.parter.part_rows(part, self.inner.nrows);
        assert!(r0 <= r1 && r1 <= part_rows, "pcache range out of partition");
        let rows = r1 - r0;
        let ncols = self.inner.ncols;
        let dtype = self.inner.dtype;
        match self.inner.layout {
            Layout::ColMajor => {
                if r0 == 0 && r1 == part_rows {
                    return Chunk::shared(part_buf.clone(), dtype, rows, ncols);
                }
                let mut out = Chunk::alloc(dtype, rows, ncols, pool);
                crate::dispatch!(dtype, T, {
                    let src = part_buf.typed::<T>();
                    let dst = out.slice_mut::<T>();
                    for c in 0..ncols {
                        dst[c * rows..(c + 1) * rows]
                            .copy_from_slice(&src[c * part_rows + r0..c * part_rows + r1]);
                    }
                });
                out
            }
            Layout::RowMajor => {
                let mut out = Chunk::alloc(dtype, rows, ncols, pool);
                crate::dispatch!(dtype, T, {
                    let src = part_buf.typed::<T>();
                    let dst = out.slice_mut::<T>();
                    for (ri, r) in (r0..r1).enumerate() {
                        let row = &src[r * ncols..(r + 1) * ncols];
                        for (c, &v) in row.iter().enumerate() {
                            dst[c * rows + ri] = v;
                        }
                    }
                });
                out
            }
        }
    }

    /// Random element access (test/debug convenience; reads the whole
    /// partition on EM stores).
    pub fn get(&self, r: u64, c: usize) -> Scalar {
        assert!(r < self.inner.nrows && c < self.inner.ncols, "index out of range");
        let part = r / self.inner.parter.rows_per_part();
        let local = (r - part * self.inner.parter.rows_per_part()) as usize;
        let buf = self.read_part(part);
        let part_rows = self.inner.parter.part_rows(part, self.inner.nrows);
        let idx = match self.inner.layout {
            Layout::ColMajor => c * part_rows + local,
            Layout::RowMajor => local * self.inner.ncols + c,
        };
        crate::dispatch!(self.inner.dtype, T, {
            let v: T = buf.typed::<T>()[idx];
            crate::chunk::scalar_of(v)
        })
    }

    /// Copy the whole matrix into a row-major f64 [`flashr_linalg::Dense`]
    /// (intended for small matrices and test assertions).
    pub fn to_dense_f64(&self) -> flashr_linalg::Dense {
        let n = self.inner.nrows as usize;
        let p = self.inner.ncols;
        let mut out = flashr_linalg::Dense::zeros(n, p);
        let mut pool = BufPool::new();
        for part in 0..self.nparts() {
            let (g0, g1) = self.inner.parter.part_range(part, self.inner.nrows);
            let buf = self.read_part(part);
            let chunk = self.pcache_chunk(&buf, part, 0, (g1 - g0) as usize, &mut pool);
            for c in 0..p {
                for r in 0..chunk.rows() {
                    out.set(g0 as usize + r, c, chunk.get_f64(r, c));
                }
            }
        }
        out
    }

    /// Copy this matrix into a fresh EM matrix on `safs`.
    pub fn to_em(&self, safs: &Safs) -> TasMat {
        let name = safs.unique_name("tas");
        let elem = self.inner.dtype.size() as u64;
        let part_bytes = self.inner.parter.rows_per_part() * self.inner.ncols as u64 * elem;
        let total = self.inner.nrows * self.inner.ncols as u64 * elem;
        let file = safs.create_bytes(&name, part_bytes, total).expect("EM matrix create failed");
        file.set_delete_on_drop(true);
        let mut pending = Vec::new();
        for part in 0..self.nparts() {
            let buf = self.read_part(part);
            pending.push(
                file.write_part_async(part, IoBuf::from_bytes(buf.as_bytes()))
                    .expect("EM write submit failed"),
            );
        }
        for t in pending {
            t.wait().expect("EM write failed");
        }
        TasMat::from_em_file(
            self.inner.nrows,
            self.inner.ncols,
            self.inner.dtype,
            self.inner.layout,
            self.inner.parter,
            file,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parter() -> Partitioner {
        Partitioner::new(64)
    }

    /// Claims come in sequence order, each partition is issued exactly
    /// once, and after every claim the window holds `depth` issued
    /// partitions (fewer only once the sequence runs out).
    #[test]
    fn read_ahead_hands_out_in_order_and_keeps_depth_issued() {
        for depth in [0usize, 1, 3, 20] {
            let mut issued = Vec::new();
            let mut window = ReadAhead::new((1..30u64).step_by(2), depth);
            let mut claimed = Vec::new();
            while let Some((part, fetch)) = window.claim(|p| {
                issued.push(p);
                p * 10
            }) {
                assert_eq!(fetch, part * 10, "a claim gets its own partition's fetch");
                claimed.push(part);
                let want_ahead = depth.min(15 - claimed.len());
                assert_eq!(issued.len() - claimed.len(), want_ahead, "depth {depth} after {part}");
            }
            let all: Vec<u64> = (1..30).step_by(2).collect();
            assert_eq!(claimed, all, "depth {depth}");
            assert_eq!(issued, all, "depth {depth}");
            assert!(window.claim(|_| unreachable!("nothing left to issue")).is_none());
        }
    }

    #[test]
    fn from_fn_and_get() {
        let m = TasMat::from_fn::<f64>(200, 3, parter(), |r, c| r as f64 * 10.0 + c as f64);
        assert_eq!(m.nparts(), 4);
        assert_eq!(m.get(0, 0).to_f64(), 0.0);
        assert_eq!(m.get(199, 2).to_f64(), 1992.0);
        assert_eq!(m.get(64, 1).to_f64(), 641.0); // first row of partition 1
    }

    #[test]
    fn row_major_and_col_major_agree() {
        let n = 150u64;
        let p = 4usize;
        let rm: Vec<i32> = (0..n as i32 * p as i32).collect();
        let a = TasMat::from_row_major::<i32>(n, p, parter(), &rm);
        let b = TasMat::from_fn::<i32>(n, p, parter(), |r, c| (r as i32) * p as i32 + c as i32);
        for r in [0u64, 1, 63, 64, 149] {
            for c in 0..p {
                assert_eq!(a.get(r, c), b.get(r, c), "({r},{c})");
            }
        }
    }

    #[test]
    fn pcache_chunk_full_partition_is_shared() {
        let m = TasMat::from_fn::<f64>(128, 2, parter(), |r, c| (r + c as u64) as f64);
        let buf = m.read_part(0);
        let mut pool = BufPool::new();
        let chunk = m.pcache_chunk(&buf, 0, 0, 64, &mut pool);
        // Shared chunk: same allocation.
        assert_eq!(chunk.as_bytes().as_ptr(), buf.as_bytes().as_ptr());
        assert_eq!(chunk.get_f64(5, 1), 6.0);
    }

    #[test]
    fn pcache_chunk_subrange_copies_correctly() {
        let m = TasMat::from_fn::<i64>(100, 3, parter(), |r, c| (r * 100 + c as u64) as i64);
        let buf = m.read_part(1); // rows 64..100
        let mut pool = BufPool::new();
        let chunk = m.pcache_chunk(&buf, 1, 10, 20, &mut pool);
        assert_eq!(chunk.rows(), 10);
        // global row 74..84
        assert_eq!(chunk.get(0, 0).to_i64(), 7400);
        assert_eq!(chunk.get(9, 2).to_i64(), 8302);
    }

    #[test]
    fn row_major_pcache_transposes() {
        let data: Vec<f32> = (0..60).map(|x| x as f32).collect();
        let m = TasMat::from_row_major::<f32>(20, 3, parter(), &data);
        let buf = m.read_part(0);
        let mut pool = BufPool::new();
        let chunk = m.pcache_chunk(&buf, 0, 5, 10, &mut pool);
        // global row 7, col 2 → data[7*3+2]=23
        assert_eq!(chunk.get_f64(2, 2), 23.0);
    }

    #[test]
    fn to_dense_roundtrip() {
        let m = TasMat::from_fn::<f64>(70, 2, parter(), |r, c| r as f64 - c as f64);
        let d = m.to_dense_f64();
        assert_eq!(d.rows(), 70);
        assert_eq!(d.at(69, 1), 68.0);
    }

    #[test]
    fn em_roundtrip() {
        let dir = std::env::temp_dir().join(format!("core-mat-em-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let safs = Safs::open(flashr_safs::SafsConfig::striped_under(dir, 3)).unwrap();
        let m = TasMat::from_fn::<f64>(300, 5, parter(), |r, c| (r * 7 + c as u64) as f64);
        let em = m.to_em(&safs);
        assert!(em.is_em());
        assert_eq!(em.nparts(), 5);
        for &(r, c) in &[(0u64, 0usize), (63, 4), (64, 0), (299, 3)] {
            assert_eq!(em.get(r, c), m.get(r, c), "({r},{c})");
        }
    }
}

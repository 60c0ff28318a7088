//! Pcache chunks: the unit of fused computation.
//!
//! The FlashR executor splits each I/O partition into *processor-cache
//! (Pcache) partitions* sized to fit in L1/L2 (paper §3.5.1) and streams
//! them through the operation DAG. A [`Chunk`] is one such block:
//! column-major, typed, 8-byte aligned. Kernels therefore always see
//! per-column contiguous slices, the layout the paper prefers for
//! vectorization (§3.2.1).
//!
//! Chunks either own their buffer or share a whole partition buffer
//! (zero-copy when a chunk spans an entire column-major partition).
//! [`BufPool`] recycles owned buffers so the memory feeding the next
//! operation is already resident in cache (paper §3.5.1, buffer
//! recycling).

use crate::dtype::{DType, Scalar};
use crate::element::Element;
use flashr_safs::sync::Mutex;
use flashr_safs::IoBuf;
use std::collections::HashMap;
use std::sync::Arc;

/// Backing storage of a chunk.
#[derive(Debug, Clone)]
enum ChunkData {
    Owned(IoBuf),
    Shared(Arc<IoBuf>),
}

/// A column-major typed block of `rows × cols` elements.
#[derive(Debug, Clone)]
pub struct Chunk {
    data: ChunkData,
    dtype: DType,
    rows: usize,
    cols: usize,
}

impl Chunk {
    /// Allocate an owned, uninitialized-content chunk (bytes are reused
    /// from `pool` when possible; contents are unspecified).
    pub fn alloc(dtype: DType, rows: usize, cols: usize, pool: &mut BufPool) -> Chunk {
        let bytes = rows * cols * dtype.size();
        let buf = pool.take(bytes);
        Chunk { data: ChunkData::Owned(buf), dtype, rows, cols }
    }

    /// Allocate a zero-filled chunk.
    pub fn zeroed(dtype: DType, rows: usize, cols: usize) -> Chunk {
        let bytes = rows * cols * dtype.size();
        Chunk { data: ChunkData::Owned(IoBuf::zeroed(bytes)), dtype, rows, cols }
    }

    /// Wrap a whole shared partition buffer (zero-copy). The buffer must
    /// hold exactly `rows × cols` elements in column-major order.
    pub fn shared(buf: Arc<IoBuf>, dtype: DType, rows: usize, cols: usize) -> Chunk {
        assert_eq!(buf.len(), rows * cols * dtype.size(), "shared buffer size mismatch");
        Chunk { data: ChunkData::Shared(buf), dtype, rows, cols }
    }

    /// Wrap an owned buffer produced elsewhere (the fused map kernels
    /// write their output strips straight into a pool buffer). The
    /// buffer must hold exactly `rows × cols` elements, column-major.
    pub(crate) fn from_iobuf(buf: IoBuf, dtype: DType, rows: usize, cols: usize) -> Chunk {
        assert_eq!(buf.len(), rows * cols * dtype.size(), "owned buffer size mismatch");
        Chunk { data: ChunkData::Owned(buf), dtype, rows, cols }
    }

    /// Build a chunk from typed values (column-major order).
    pub fn from_slice<T: Element>(rows: usize, cols: usize, values: &[T]) -> Chunk {
        assert_eq!(values.len(), rows * cols);
        let mut c = Chunk::zeroed(T::DTYPE, rows, cols);
        c.slice_mut::<T>().copy_from_slice(values);
        c
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Rows in this chunk.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns in this chunk.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn bytes(&self) -> &[u8] {
        match &self.data {
            ChunkData::Owned(b) => b.as_bytes(),
            ChunkData::Shared(b) => b.as_bytes(),
        }
    }

    /// Typed view of the whole chunk (column-major).
    #[inline]
    pub fn slice<T: Element>(&self) -> &[T] {
        assert_eq!(T::DTYPE, self.dtype, "chunk dtype mismatch");
        match &self.data {
            ChunkData::Owned(b) => b.typed::<T>(),
            ChunkData::Shared(b) => b.typed::<T>(),
        }
    }

    /// Mutable typed view. Panics on shared chunks.
    #[inline]
    pub fn slice_mut<T: Element>(&mut self) -> &mut [T] {
        assert_eq!(T::DTYPE, self.dtype, "chunk dtype mismatch");
        match &mut self.data {
            ChunkData::Owned(b) => b.typed_mut::<T>(),
            ChunkData::Shared(_) => panic!("cannot mutate a shared chunk"),
        }
    }

    /// Column `c` as a contiguous typed slice.
    #[inline]
    pub fn col<T: Element>(&self, c: usize) -> &[T] {
        &self.slice::<T>()[c * self.rows..(c + 1) * self.rows]
    }

    /// Raw byte view (for I/O).
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes()
    }

    /// Element at `(r, c)` as a dynamically typed scalar.
    pub fn get(&self, r: usize, c: usize) -> Scalar {
        assert!(r < self.rows && c < self.cols, "chunk index out of range");
        let idx = c * self.rows + r;
        crate::dispatch!(self.dtype, T, {
            let v: T = self.slice::<T>()[idx];
            scalar_of(v)
        })
    }

    /// Element at `(r, c)` as f64.
    pub fn get_f64(&self, r: usize, c: usize) -> f64 {
        self.get(r, c).to_f64()
    }

    /// Copy a row range `[r0, r1)` into a new owned chunk.
    pub fn slice_rows(&self, r0: usize, r1: usize, pool: &mut BufPool) -> Chunk {
        assert!(r0 <= r1 && r1 <= self.rows);
        let rows = r1 - r0;
        let mut out = Chunk::alloc(self.dtype, rows, self.cols, pool);
        crate::dispatch!(self.dtype, T, {
            let src = self.slice::<T>();
            let dst = out.slice_mut::<T>();
            for c in 0..self.cols {
                dst[c * rows..(c + 1) * rows]
                    .copy_from_slice(&src[c * self.rows + r0..c * self.rows + r1]);
            }
        });
        out
    }

    /// Recycle this chunk's buffer into `pool` (no-op for shared chunks
    /// with other outstanding references).
    pub fn recycle(self, pool: &mut BufPool) {
        match self.data {
            ChunkData::Owned(b) => pool.put(b),
            ChunkData::Shared(b) => {
                if let Some(b) = Arc::into_inner(b) {
                    pool.put(b);
                }
            }
        }
    }
}

/// Helper converting a typed value into [`Scalar`].
#[inline]
pub fn scalar_of<T: Element>(v: T) -> Scalar {
    match T::DTYPE {
        DType::U8 => Scalar::U8(v.to_i64() as u8),
        DType::I32 => Scalar::I32(v.to_i64() as i32),
        DType::I64 => Scalar::I64(v.to_i64()),
        DType::F32 => Scalar::F32(v.to_f64() as f32),
        DType::F64 => Scalar::F64(v.to_f64()),
    }
}

/// Per-thread buffer recycler, keyed by capacity class.
///
/// Buffers are reused by exact byte length rounded up to the next power of
/// two so a DAG with many same-shaped intermediates allocates only once per
/// shape (the paper's Pcache buffer recycling). Each class keeps at most
/// 16 idle buffers; [`BufPool::trim`] bounds the idle bytes as a whole.
#[derive(Debug, Default)]
pub struct BufPool {
    free: HashMap<usize, Vec<IoBuf>>,
    idle_bytes: usize,
}

impl BufPool {
    /// Fresh empty pool.
    pub fn new() -> Self {
        BufPool::default()
    }

    fn class_of(bytes: usize) -> usize {
        bytes.next_power_of_two().max(64)
    }

    /// Take a buffer with at least `bytes` capacity, resized to `bytes`.
    pub fn take(&mut self, bytes: usize) -> IoBuf {
        let class = Self::class_of(bytes);
        match self.free.get_mut(&class).and_then(Vec::pop) {
            Some(mut b) => {
                self.idle_bytes -= b.capacity();
                b.resize(bytes);
                b
            }
            None => {
                let mut b = IoBuf::zeroed(class);
                b.resize(bytes);
                b
            }
        }
    }

    /// Return a buffer for reuse.
    pub fn put(&mut self, buf: IoBuf) {
        let class = Self::class_of(buf.len());
        let entry = self.free.entry(class).or_default();
        // Bound the pool to avoid retaining unbounded memory.
        if entry.len() < 16 {
            self.idle_bytes += buf.capacity();
            entry.push(buf);
        }
    }

    /// Bytes allocated by the buffers waiting in the pool.
    pub fn idle_bytes(&self) -> usize {
        self.idle_bytes
    }

    /// Free idle buffers, largest class first, until at most `max_bytes`
    /// stay allocated.
    pub fn trim(&mut self, max_bytes: usize) {
        let mut classes: Vec<usize> = self.free.keys().copied().collect();
        classes.sort_unstable_by(|a, b| b.cmp(a));
        for class in classes {
            let Some(shelf) = self.free.get_mut(&class) else { continue };
            while self.idle_bytes > max_bytes {
                let Some(buf) = shelf.pop() else { break };
                self.idle_bytes -= buf.capacity();
            }
        }
        self.free.retain(|_, shelf| !shelf.is_empty());
    }
}

/// Recycler for partition-sized buffers. The context's one, shared by
/// all its clones, recycles tall outputs across passes; each fused pass
/// has one of its own for its leaf reads, dropped with the pass.
///
/// Tall outputs used to be `IoBuf::zeroed` per partition per pass — and
/// since every pass fully overwrites its output, the zeroing (a memset
/// of the whole output, or the page-fault equivalent on a fresh mmap)
/// was pure waste that dominated small fused passes. Result matrices
/// whose buffers came from this pool return them on drop
/// ([`crate::mat::TasMat`] holds the hook), so steady-state iterative
/// workloads rewrite the same warm memory instead of paying the
/// allocator per pass.
///
/// Unlike the per-worker [`BufPool`], this pool is `Sync` (workers take
/// concurrently), keyed by *exact* byte size (partition buffers are
/// uniform per matrix; no resize-extension semantics to reason about)
/// and bounded by total pooled bytes rather than per-shelf count.
pub struct PartBufPool {
    free: Mutex<HashMap<usize, Vec<IoBuf>>>,
    pooled_bytes: std::sync::atomic::AtomicUsize,
}

impl std::fmt::Debug for PartBufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PartBufPool({} B pooled)", self.pooled_bytes())
    }
}

impl Default for PartBufPool {
    fn default() -> Self {
        PartBufPool::new()
    }
}

impl PartBufPool {
    /// Idle memory the pool may retain; returns above the cap free
    /// normally instead of pooling.
    pub const CAP_BYTES: usize = 128 << 20;

    /// Fresh empty pool.
    pub fn new() -> Self {
        PartBufPool {
            free: Mutex::new(HashMap::new()),
            pooled_bytes: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Bytes currently idle in the pool.
    pub fn pooled_bytes(&self) -> usize {
        self.pooled_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Take a `bytes`-long buffer whose contents are *unspecified* (stale
    /// data from a previous pass, or zeros when freshly allocated). The
    /// caller must overwrite every byte before the buffer is read — tall
    /// output passes do, by construction: Pcache ranges tile the
    /// partition and every column is written; a device read fills it.
    /// Debug builds poison recycled buffers so a missed write surfaces as
    /// loud garbage, not silently-correct zeros.
    pub fn take_for_overwrite(&self, bytes: usize) -> IoBuf {
        let hit = self.free.lock().get_mut(&bytes).and_then(Vec::pop);
        match hit {
            Some(buf) => {
                self.pooled_bytes.fetch_sub(bytes, std::sync::atomic::Ordering::Relaxed);
                #[cfg(debug_assertions)]
                let buf = {
                    let mut buf = buf;
                    buf.as_mut_bytes().fill(0xA5);
                    buf
                };
                buf
            }
            None => IoBuf::zeroed(bytes),
        }
    }

    /// Return a buffer for reuse; silently frees it instead when the
    /// pool is at [`Self::CAP_BYTES`] or the buffer is empty.
    pub fn put(&self, buf: IoBuf) {
        let len = buf.len();
        if len == 0 || self.pooled_bytes() + len > Self::CAP_BYTES {
            return;
        }
        self.pooled_bytes.fetch_add(len, std::sync::atomic::Ordering::Relaxed);
        self.free.lock().entry(len).or_default().push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_index() {
        let mut pool = BufPool::new();
        let mut c = Chunk::alloc(DType::F64, 4, 3, &mut pool);
        let s = c.slice_mut::<f64>();
        for (i, v) in s.iter_mut().enumerate() {
            *v = i as f64;
        }
        // column-major: (r=1, c=2) is at 2*4+1 = 9
        assert_eq!(c.get_f64(1, 2), 9.0);
        assert_eq!(c.col::<f64>(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn shared_chunks_are_zero_copy_and_immutable() {
        let mut buf = IoBuf::zeroed(3 * 8);
        buf.typed_mut::<i64>().copy_from_slice(&[5, 6, 7]);
        let arc = Arc::new(buf);
        let c = Chunk::shared(arc.clone(), DType::I64, 3, 1);
        assert_eq!(c.slice::<i64>(), &[5, 6, 7]);
        assert_eq!(Arc::strong_count(&arc), 2);
    }

    #[test]
    #[should_panic]
    fn shared_chunk_mutation_panics() {
        let buf = Arc::new(IoBuf::zeroed(8));
        let mut c = Chunk::shared(buf, DType::F64, 1, 1);
        let _ = c.slice_mut::<f64>();
    }

    #[test]
    fn slice_rows_extracts_subrange() {
        let c = Chunk::from_slice::<i32>(4, 2, &[0, 1, 2, 3, 10, 11, 12, 13]);
        let mut pool = BufPool::new();
        let s = c.slice_rows(1, 3, &mut pool);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.slice::<i32>(), &[1, 2, 11, 12]);
    }

    #[test]
    fn pool_recycles_buffers() {
        let mut pool = BufPool::new();
        let c = Chunk::alloc(DType::F64, 100, 2, &mut pool);
        let ptr = c.as_bytes().as_ptr();
        c.recycle(&mut pool);
        let c2 = Chunk::alloc(DType::F64, 100, 2, &mut pool);
        assert_eq!(c2.as_bytes().as_ptr(), ptr, "buffer was not recycled");
    }

    #[test]
    fn pool_take_resizes() {
        let mut pool = BufPool::new();
        pool.put(IoBuf::zeroed(1024));
        let b = pool.take(1000);
        assert_eq!(b.len(), 1000);
    }

    #[test]
    fn trim_bounds_the_idle_bytes_largest_first() {
        let mut pool = BufPool::new();
        for bytes in [64, 1000, 4096, 100_000] {
            let b = pool.take(bytes);
            pool.put(b);
        }
        assert_eq!(pool.idle_bytes(), 64 + 1024 + 4096 + 131_072);
        pool.trim(8192);
        assert_eq!(pool.idle_bytes(), 64 + 1024 + 4096, "the largest class goes first");
        let b = pool.take(1000);
        assert_eq!(pool.idle_bytes(), 64 + 4096);
        pool.put(b);
        pool.trim(0);
        assert_eq!(pool.idle_bytes(), 0);
    }

    #[test]
    fn dtype_mismatch_panics() {
        let c = Chunk::zeroed(DType::F32, 2, 2);
        let r = std::panic::catch_unwind(|| c.slice::<f64>().len());
        assert!(r.is_err());
    }
}

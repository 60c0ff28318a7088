//! 8-byte-aligned byte buffers for partition I/O.
//!
//! Matrix engines view partition bytes as typed element slices (`f64`,
//! `i64`, ...). A plain `Vec<u8>` does not guarantee the alignment those
//! views need, so all SAFS data moves through [`IoBuf`]: a byte buffer
//! backed by `u64` words, guaranteeing 8-byte alignment end-to-end.

#[cfg(target_os = "linux")]
extern "C" {
    fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// A byte buffer with guaranteed 8-byte alignment.
#[derive(Debug, Clone, Default)]
pub struct IoBuf {
    words: Vec<u64>,
    len: usize,
}

impl IoBuf {
    /// A zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        IoBuf { words: vec![0u64; len.div_ceil(8)], len }
    }

    /// An empty buffer.
    pub fn new() -> Self {
        IoBuf::default()
    }

    /// Copy `data` into a fresh buffer.
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut b = IoBuf::zeroed(data.len());
        b.as_mut_bytes().copy_from_slice(data);
        b
    }

    /// Drop the buffer, first handing the whole pages of its allocation
    /// back to the OS (`MADV_DONTNEED`; a plain drop outside Linux). The
    /// allocator keeps a freed block resident until it reuses it, so a
    /// page cache whose resident set turns over would otherwise hold its
    /// evicted partitions' memory as well as their successors'.
    pub fn free_pages(mut self) {
        #[cfg(target_os = "linux")]
        {
            const PAGE: usize = 4096;
            const MADV_DONTNEED: std::ffi::c_int = 4;
            let start = self.words.as_mut_ptr() as usize;
            let end = start + self.words.capacity() * 8;
            let (first, last) = (start.next_multiple_of(PAGE), end / PAGE * PAGE);
            if last > first {
                // SAFETY: `[first, last)` lies inside this buffer's own
                // allocation, which `self` owns and frees on return;
                // MADV_DONTNEED only discards the contents of those
                // pages. A failure (another page size) leaves them as
                // they are.
                unsafe { madvise(first as *mut std::ffi::c_void, last - first, MADV_DONTNEED) };
            }
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Bytes allocated, at least [`IoBuf::len`].
    pub fn capacity(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Whether the buffer holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize to `len` bytes, reusing the allocation when possible. New
    /// bytes are *not* guaranteed to be zero.
    pub fn resize(&mut self, len: usize) {
        let words = len.div_ceil(8);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
        self.len = len;
    }

    /// Byte view.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        debug_assert!(self.words.len() * 8 >= self.len, "word storage must cover len");
        // SAFETY: the words allocation covers at least `len` bytes and u8
        // has alignment 1.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    /// Mutable byte view.
    #[inline]
    pub fn as_mut_bytes(&mut self) -> &mut [u8] {
        debug_assert!(self.words.len() * 8 >= self.len, "word storage must cover len");
        // SAFETY: as above; `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }

    /// View the buffer as a slice of `T`.
    ///
    /// `T` must be one of the plain-old-data element types (alignment at
    /// most 8, no padding, any bit pattern valid); the buffer length must
    /// be an exact multiple of `size_of::<T>()`.
    #[inline]
    pub fn typed<T: Pod>(&self) -> &[T] {
        let size = size_of::<T>();
        assert!(align_of::<T>() <= 8);
        assert_eq!(self.len % size, 0, "buffer length {} not a multiple of {}", self.len, size);
        debug_assert_eq!(
            self.words.as_ptr() as usize % align_of::<T>(),
            0,
            "word storage must satisfy T's alignment"
        );
        debug_assert!(self.words.len() * 8 >= self.len, "word storage must cover len");
        // SAFETY: backing storage is 8-byte aligned, covers len bytes, and
        // T: Pod means any bit pattern is a valid T.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<T>(), self.len / size) }
    }

    /// Mutable typed view; see [`IoBuf::typed`].
    #[inline]
    pub fn typed_mut<T: Pod>(&mut self) -> &mut [T] {
        let size = size_of::<T>();
        assert!(align_of::<T>() <= 8);
        assert_eq!(self.len % size, 0, "buffer length {} not a multiple of {}", self.len, size);
        debug_assert_eq!(
            self.words.as_ptr() as usize % align_of::<T>(),
            0,
            "word storage must satisfy T's alignment"
        );
        debug_assert!(self.words.len() * 8 >= self.len, "word storage must cover len");
        // SAFETY: as in `typed`, plus uniqueness from `&mut self`.
        unsafe {
            std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<T>(), self.len / size)
        }
    }
}

/// Marker for plain-old-data element types safe to view in an [`IoBuf`].
///
/// # Safety
/// Implementors must be `Copy`, contain no padding or invalid bit
/// patterns, and have alignment at most 8.
pub unsafe trait Pod: Copy + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_len() {
        let b = IoBuf::zeroed(13);
        assert_eq!(b.len(), 13);
        assert!(b.as_bytes().iter().all(|&x| x == 0));
    }

    #[test]
    fn typed_views_round_trip() {
        let mut b = IoBuf::zeroed(32);
        {
            let f = b.typed_mut::<f64>();
            f.copy_from_slice(&[1.5, -2.0, 3.25, 0.0]);
        }
        assert_eq!(b.typed::<f64>(), &[1.5, -2.0, 3.25, 0.0]);
        // Reinterpret as u64 words without tearing.
        assert_eq!(b.typed::<u64>().len(), 4);
    }

    #[test]
    fn alignment_is_eight() {
        for len in [1usize, 7, 8, 9, 4096] {
            let b = IoBuf::zeroed(len);
            assert_eq!(b.as_bytes().as_ptr() as usize % 8, 0, "len={len}");
        }
    }

    #[test]
    #[should_panic]
    fn typed_rejects_ragged_length() {
        let b = IoBuf::zeroed(10);
        let _ = b.typed::<f64>();
    }

    #[test]
    fn from_bytes_copies() {
        let b = IoBuf::from_bytes(&[1, 2, 3, 4, 5]);
        assert_eq!(b.as_bytes(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn free_pages_leaves_neighbouring_buffers_intact() {
        // Odd lengths, so the freed buffer shares pages with its
        // neighbours wherever the allocator puts them side by side.
        for len in [0usize, 7, 4095, 3 * 4096 + 5, 1 << 20] {
            let before = IoBuf::from_bytes(&vec![0xA5; len + 3]);
            let doomed = IoBuf::from_bytes(&vec![0x11; len]);
            let after = IoBuf::from_bytes(&vec![0x5A; len + 9]);
            doomed.free_pages();
            assert!(before.as_bytes().iter().all(|&b| b == 0xA5), "len={len}");
            assert!(after.as_bytes().iter().all(|&b| b == 0x5A), "len={len}");
        }
    }

    #[test]
    fn resize_preserves_prefix() {
        let mut b = IoBuf::from_bytes(&[9, 8, 7]);
        b.resize(2);
        assert_eq!(b.as_bytes(), &[9, 8]);
        b.resize(16);
        assert_eq!(&b.as_bytes()[..2], &[9, 8]);
    }
}

//! Striped, partition-granular files.

use crate::aio::{completion, IoOp, IoReq, IoTicket};
use crate::cache::{Admission, CachedFetch, Lookup, PendingRead};
use crate::error::{SafsError, SafsResult};
use crate::iobuf::IoBuf;
use crate::layout::Striping;
use crate::runtime::RtInner;
use crate::span::now_nanos;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Page-cache identity for each `FileInner`; see `cache::CacheKey`.
static NEXT_FILE_UID: AtomicU64 = AtomicU64::new(1);

/// A file striped across the disk array, addressed by partition index.
///
/// Cloning yields another handle to the same file. All I/O goes through
/// the runtime's per-disk I/O threads; the synchronous methods are thin
/// wrappers that submit and wait.
#[derive(Clone)]
pub struct SafsFile {
    inner: Arc<FileInner>,
}

pub(crate) struct FileInner {
    rt: Arc<RtInner>,
    uid: u64,
    name: String,
    part_bytes: u64,
    total_bytes: u64,
    nparts: u64,
    striping: Striping,
    strips: Vec<Arc<File>>,
    deleted: AtomicBool,
    delete_on_drop: AtomicBool,
}

impl FileInner {
    fn strip_path(rt: &RtInner, name: &str, disk: usize) -> PathBuf {
        rt.disk_dir(disk).join(format!("{name}.s{disk}"))
    }

    fn meta_path(rt: &RtInner, name: &str) -> PathBuf {
        rt.disk_dir(0).join(format!("{name}.meta"))
    }

    pub(crate) fn create(
        rt: Arc<RtInner>,
        name: &str,
        part_bytes: u64,
        total_bytes: u64,
        striping: Striping,
    ) -> SafsResult<SafsFile> {
        let nparts = total_bytes.div_ceil(part_bytes);
        let mut strips = Vec::with_capacity(rt.ndisks());
        for disk in 0..rt.ndisks() {
            let path = Self::strip_path(&rt, name, disk);
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| SafsError::io(format!("creating strip {}", path.display()), e))?;
            strips.push(Arc::new(f));
        }
        let meta = format!("part_bytes={part_bytes}\ntotal_bytes={total_bytes}\n");
        let meta_path = Self::meta_path(&rt, name);
        let mut mf = File::create(&meta_path)
            .map_err(|e| SafsError::io(format!("creating meta {}", meta_path.display()), e))?;
        mf.write_all(meta.as_bytes()).map_err(|e| SafsError::io("writing meta", e))?;
        Ok(SafsFile {
            inner: Arc::new(FileInner {
                rt,
                uid: NEXT_FILE_UID.fetch_add(1, Ordering::Relaxed),
                name: name.to_string(),
                part_bytes,
                total_bytes,
                nparts,
                striping,
                strips,
                deleted: AtomicBool::new(false),
                delete_on_drop: AtomicBool::new(false),
            }),
        })
    }

    pub(crate) fn open(rt: Arc<RtInner>, name: &str, striping: Striping) -> SafsResult<SafsFile> {
        let meta_path = Self::meta_path(&rt, name);
        let mut text = String::new();
        File::open(&meta_path)
            .map_err(|e| SafsError::io(format!("opening meta {}", meta_path.display()), e))?
            .read_to_string(&mut text)
            .map_err(|e| SafsError::io("reading meta", e))?;
        let mut part_bytes = None;
        let mut total_bytes = None;
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("part_bytes=") {
                part_bytes = v.trim().parse::<u64>().ok();
            } else if let Some(v) = line.strip_prefix("total_bytes=") {
                total_bytes = v.trim().parse::<u64>().ok();
            }
        }
        let (part_bytes, total_bytes) = match (part_bytes, total_bytes) {
            (Some(p), Some(t)) if p > 0 && t > 0 => (p, t),
            _ => return Err(SafsError::Config(format!("corrupt meta file for '{name}'"))),
        };
        let nparts = total_bytes.div_ceil(part_bytes);
        let mut strips = Vec::with_capacity(rt.ndisks());
        for disk in 0..rt.ndisks() {
            let path = Self::strip_path(&rt, name, disk);
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .map_err(|e| SafsError::io(format!("opening strip {}", path.display()), e))?;
            strips.push(Arc::new(f));
        }
        Ok(SafsFile {
            inner: Arc::new(FileInner {
                rt,
                uid: NEXT_FILE_UID.fetch_add(1, Ordering::Relaxed),
                name: name.to_string(),
                part_bytes,
                total_bytes,
                nparts,
                striping,
                strips,
                deleted: AtomicBool::new(false),
                delete_on_drop: AtomicBool::new(false),
            }),
        })
    }

    fn remove_files(&self) {
        for disk in 0..self.rt.ndisks() {
            let _ = std::fs::remove_file(Self::strip_path(&self.rt, &self.name, disk));
        }
        let _ = std::fs::remove_file(Self::meta_path(&self.rt, &self.name));
    }
}

impl Drop for FileInner {
    fn drop(&mut self) {
        // Free any resident cache entries; nothing can read them again
        // since the uid dies with us.
        if let Some(cache) = self.rt.page_cache() {
            cache.invalidate_file(self.uid);
        }
        if self.delete_on_drop.load(Ordering::Relaxed) && !self.deleted.load(Ordering::Relaxed) {
            self.remove_files();
        }
    }
}

impl SafsFile {
    /// File name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of partitions.
    pub fn nparts(&self) -> u64 {
        self.inner.nparts
    }

    /// Size of a full partition in bytes.
    pub fn part_bytes(&self) -> u64 {
        self.inner.part_bytes
    }

    /// Total logical file size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.inner.total_bytes
    }

    /// Length of partition `part` (the last one may be short).
    pub fn part_len(&self, part: u64) -> SafsResult<usize> {
        let inner = &self.inner;
        if part >= inner.nparts {
            return Err(SafsError::PartOutOfRange { part, nparts: inner.nparts });
        }
        let start = part * inner.part_bytes;
        Ok((inner.total_bytes - start).min(inner.part_bytes) as usize)
    }

    /// Read-ahead depth of a sequential scan on this file's runtime
    /// ([`SafsConfig::dispatch_batch`](crate::SafsConfig::dispatch_batch)).
    pub fn dispatch_batch(&self) -> usize {
        self.inner.rt.dispatch_batch()
    }

    /// Mark this file to be removed from the array when the last handle
    /// drops (used for anonymous temporaries).
    pub fn set_delete_on_drop(&self, v: bool) {
        self.inner.delete_on_drop.store(v, Ordering::Relaxed);
    }

    fn check_live(&self) -> SafsResult<()> {
        if self.inner.deleted.load(Ordering::Relaxed) {
            Err(SafsError::Deleted)
        } else {
            Ok(())
        }
    }

    /// Submit an asynchronous read of partition `part` into `buf` (which
    /// must be exactly `part_len(part)` bytes). The buffer travels through
    /// the I/O engine and comes back via [`IoTicket::wait`].
    pub fn read_part_async_into(&self, part: u64, buf: IoBuf) -> SafsResult<IoTicket> {
        self.check_live()?;
        let len = self.part_len(part)?;
        if buf.len() != len {
            return Err(SafsError::BadLength { part, expected: len, got: buf.len() });
        }
        let loc = self.inner.striping.locate(part);
        let (tx, ticket) = completion();
        self.inner.rt.submit(
            loc.disk,
            IoReq {
                file: self.inner.strips[loc.disk].clone(),
                offset: loc.slot * self.inner.part_bytes,
                op: IoOp::Read { buf },
                done: tx,
                context: format!("read {}[{part}]", self.inner.name),
                submit_ns: 0,
            },
        );
        Ok(ticket)
    }

    /// Asynchronous read of partition `part` with a freshly allocated buffer.
    pub fn read_part_async(&self, part: u64) -> SafsResult<IoTicket> {
        let len = self.part_len(part)?;
        self.read_part_async_into(part, IoBuf::zeroed(len))
    }

    /// Synchronous read of partition `part`.
    pub fn read_part(&self, part: u64) -> SafsResult<IoBuf> {
        self.read_part_async(part)?.wait()
    }

    /// Cache-aware fetch of partition `part` (the SA-cache front door).
    ///
    /// When the runtime has a page cache that admits this read (see
    /// `cache`'s module docs), it is served from — and published to —
    /// the cache: hits return immediately and concurrent misses of one
    /// partition coalesce onto a single device read. Without a cache (or
    /// for a file larger than the cache in its first two scans) this
    /// degrades to a plain
    /// [`read_part_async_into`](SafsFile::read_part_async_into). A device
    /// read lands in `alloc(part_len)`, whose contents it overwrites.
    pub fn fetch_part_cached(
        &self,
        part: u64,
        alloc: impl FnOnce(usize) -> IoBuf,
    ) -> SafsResult<CachedFetch> {
        // Validate the range up-front so no placeholder is ever inserted
        // for a partition that cannot be read.
        let len = self.part_len(part)?;
        let cache = match self.inner.rt.page_cache() {
            Some(c) => c,
            None => return Ok(CachedFetch::Direct(self.read_part_async_into(part, alloc(len))?)),
        };
        self.check_live()?;
        let inner = &self.inner;
        let admission = cache.admit(inner.uid, inner.total_bytes, inner.nparts);
        if admission == Admission::Bypass {
            return Ok(CachedFetch::Direct(self.read_part_async_into(part, alloc(len))?));
        }
        let key = (inner.uid, part);
        let sink = self.inner.rt.span_sink();
        loop {
            match cache.lookup(key) {
                Lookup::Hit(buf) => {
                    if let Some(s) = &sink {
                        s.instant("cache", "hit", now_nanos(), [("part", part), ("", 0)]);
                    }
                    return Ok(CachedFetch::Ready(buf));
                }
                Lookup::MustRead => {
                    if let Some(s) = &sink {
                        s.instant("cache", "miss", now_nanos(), [("part", part), ("", 0)]);
                    }
                    let ticket = match self.read_part_async_into(part, alloc(len)) {
                        Ok(t) => t,
                        Err(e) => {
                            cache.abort(key);
                            return Err(e);
                        }
                    };
                    let pending = PendingRead::new(cache, key, admission, ticket, sink);
                    return Ok(CachedFetch::Pending(pending));
                }
                Lookup::Shared => {
                    let t0 = sink.as_ref().map(|_| now_nanos());
                    let outcome = cache.wait_shared(key);
                    if let (Some(s), Some(t0)) = (&sink, t0) {
                        s.span("cache", "shared-wait", t0, now_nanos(), [("part", part), ("", 0)]);
                    }
                    // `None`: the owning reader aborted; race for ownership again.
                    if let Some(buf) = outcome {
                        return Ok(CachedFetch::Ready(buf));
                    }
                }
            }
        }
    }

    /// Synchronous cache-aware read of partition `part`.
    pub fn read_part_cached(&self, part: u64) -> SafsResult<Arc<IoBuf>> {
        self.fetch_part_cached(part, IoBuf::zeroed)?.wait()
    }

    /// Submit an asynchronous write of partition `part`. `buf` must be
    /// exactly `part_len(part)` bytes; it is handed back by `wait()`.
    pub fn write_part_async(&self, part: u64, buf: IoBuf) -> SafsResult<IoTicket> {
        self.check_live()?;
        let len = self.part_len(part)?;
        if buf.len() != len {
            return Err(SafsError::BadLength { part, expected: len, got: buf.len() });
        }
        // The partition is changing; a stale cached copy must not
        // survive the write.
        if let Some(cache) = self.inner.rt.page_cache() {
            cache.invalidate((self.inner.uid, part));
        }
        let loc = self.inner.striping.locate(part);
        let (tx, ticket) = completion();
        self.inner.rt.submit(
            loc.disk,
            IoReq {
                file: self.inner.strips[loc.disk].clone(),
                offset: loc.slot * self.inner.part_bytes,
                op: IoOp::Write { buf },
                done: tx,
                context: format!("write {}[{part}]", self.inner.name),
                submit_ns: 0,
            },
        );
        Ok(ticket)
    }

    /// Synchronous write of partition `part`.
    pub fn write_part(&self, part: u64, data: &[u8]) -> SafsResult<()> {
        self.write_part_async(part, IoBuf::from_bytes(data))?.wait().map(|_| ())
    }

    /// Delete the file from the array. Outstanding handles turn stale.
    pub fn delete(&self) -> SafsResult<()> {
        self.check_live()?;
        self.inner.deleted.store(true, Ordering::Relaxed);
        if let Some(cache) = self.inner.rt.page_cache() {
            cache.invalidate_file(self.inner.uid);
        }
        self.inner.remove_files();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Safs, SafsConfig};
    use flashr_testkit::TempDir;

    /// A runtime under a fresh directory, which goes with the guard.
    fn fresh(tag: &str, ndisks: usize) -> (TempDir, Safs) {
        let dir = TempDir::new(&format!("safs-file-test-{tag}"));
        let safs = Safs::open(SafsConfig::striped_under(&dir, ndisks)).unwrap();
        (dir, safs)
    }

    #[test]
    fn roundtrip_across_disks() {
        let (_dir, safs) = fresh("rt", 4);
        let f = safs.create("m", 1024, 17).unwrap();
        for p in 0..17u64 {
            let data: Vec<u8> = (0..1024u32).map(|i| ((i as u64 * 31 + p) % 251) as u8).collect();
            f.write_part(p, &data).unwrap();
        }
        for p in 0..17u64 {
            let got = f.read_part(p).unwrap();
            let got = got.as_bytes().to_vec();
            let want: Vec<u8> = (0..1024u32).map(|i| ((i as u64 * 31 + p) % 251) as u8).collect();
            assert_eq!(got, want, "partition {p}");
        }
    }

    #[test]
    fn short_last_partition() {
        let (_dir, safs) = fresh("short", 3);
        let f = safs.create_bytes("short", 100, 250).unwrap();
        assert_eq!(f.nparts(), 3);
        assert_eq!(f.part_len(0).unwrap(), 100);
        assert_eq!(f.part_len(2).unwrap(), 50);
        f.write_part(2, &[9u8; 50]).unwrap();
        assert_eq!(f.read_part(2).unwrap().as_bytes(), &[9u8; 50][..]);
    }

    #[test]
    fn rejects_bad_lengths_and_ranges() {
        let (_dir, safs) = fresh("bad", 2);
        let f = safs.create("b", 64, 2).unwrap();
        assert!(matches!(f.write_part(0, &[0u8; 63]), Err(SafsError::BadLength { .. })));
        assert!(matches!(f.read_part(5), Err(SafsError::PartOutOfRange { .. })));
    }

    #[test]
    fn reopen_preserves_contents() {
        let (_dir, safs) = fresh("reopen", 3);
        {
            let f = safs.create("persist", 256, 5).unwrap();
            for p in 0..5 {
                f.write_part(p, &vec![p as u8 + 1; 256]).unwrap();
            }
        }
        let f = safs.open_file("persist").unwrap();
        assert_eq!(f.nparts(), 5);
        for p in 0..5 {
            assert_eq!(f.read_part(p).unwrap().as_bytes(), vec![p as u8 + 1; 256].as_slice());
        }
    }

    #[test]
    fn async_reads_overlap() {
        let (_dir, safs) = fresh("async", 4);
        let f = safs.create("a", 4096, 32).unwrap();
        let mut writes = Vec::new();
        for p in 0..32u64 {
            writes.push(
                f.write_part_async(p, IoBuf::from_bytes(&vec![(p % 251) as u8; 4096])).unwrap(),
            );
        }
        for w in writes {
            w.wait().unwrap();
        }
        let tickets: Vec<_> = (0..32u64).map(|p| f.read_part_async(p).unwrap()).collect();
        for (p, t) in tickets.into_iter().enumerate() {
            let buf = t.wait().unwrap();
            assert!(buf.as_bytes().iter().all(|&b| b == (p % 251) as u8));
        }
    }

    #[test]
    fn delete_makes_handles_stale() {
        let (_dir, safs) = fresh("delete", 2);
        let f = safs.create("gone", 64, 1).unwrap();
        f.write_part(0, &[1u8; 64]).unwrap();
        f.delete().unwrap();
        assert!(matches!(f.read_part(0), Err(SafsError::Deleted)));
        assert!(!safs.exists("gone"));
    }

    #[test]
    fn delete_on_drop_removes_files() {
        let (_dir, safs) = fresh("dod", 2);
        {
            let f = safs.create("temp", 64, 1).unwrap();
            f.set_delete_on_drop(true);
            f.write_part(0, &[1u8; 64]).unwrap();
        }
        assert!(!safs.exists("temp"));
    }

    #[test]
    fn stats_observe_traffic() {
        let (_dir, safs) = fresh("stats", 2);
        let before = safs.stats_snapshot();
        let f = safs.create("s", 512, 4).unwrap();
        for p in 0..4 {
            f.write_part(p, &[0u8; 512]).unwrap();
        }
        for p in 0..4 {
            f.read_part(p).unwrap();
        }
        let d = before.delta(&safs.stats_snapshot());
        assert_eq!(d.write_bytes, 4 * 512);
        assert_eq!(d.read_bytes, 4 * 512);
        assert_eq!(d.read_reqs, 4);
    }
}

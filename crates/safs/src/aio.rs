//! Asynchronous request and completion types of the SAFS I/O engine.
//!
//! Compute threads submit partition-granular requests and continue
//! working; completion is observed through an [`IoTicket`]. This is what
//! lets the FlashR scheduler overlap reading partition `i+1` with
//! computing on partition `i` (paper §3.3). The engine that services the
//! requests — per-shard queues drained by dedicated worker threads —
//! lives in [`crate::backend`].

use crate::error::{SafsError, SafsResult};
use crate::iobuf::IoBuf;
use std::fs::File;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// What a shard worker is asked to do with the byte range.
pub(crate) enum IoOp {
    /// Fill `buf` from the file (buf comes pre-sized to the read length).
    Read { buf: IoBuf },
    /// Write `buf` to the file.
    Write { buf: IoBuf },
}

/// One queued request against a strip file, minted by
/// [`SafsFile`](crate::SafsFile) operations.
pub(crate) struct IoReq {
    pub(crate) file: Arc<File>,
    pub(crate) offset: u64,
    pub(crate) op: IoOp,
    pub(crate) done: SyncSender<SafsResult<IoBuf>>,
    pub(crate) context: String,
    /// Submission timestamp ([`now_nanos`](crate::now_nanos)); stamped
    /// at submit time only while a span sink is installed, 0 otherwise.
    pub(crate) submit_ns: u64,
}

/// Handle to a pending asynchronous request.
///
/// Dropping a ticket without waiting is allowed; the I/O still completes
/// (writes are not cancelled) and the result is discarded.
pub struct IoTicket {
    rx: Receiver<SafsResult<IoBuf>>,
}

impl IoTicket {
    /// Block until the request completes. Returns the buffer: the data for
    /// reads, the original buffer back for writes (for reuse).
    pub fn wait(self) -> SafsResult<IoBuf> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(SafsError::io("I/O engine shut down", std::io::Error::other("channel closed")))
        })
    }
}

/// Create a completion channel for one request. Capacity 1 and exactly
/// one send per request, so the worker never blocks on delivery.
pub(crate) fn completion() -> (SyncSender<SafsResult<IoBuf>>, IoTicket) {
    let (tx, rx) = sync_channel(1);
    (tx, IoTicket { rx })
}

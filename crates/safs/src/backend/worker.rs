//! The shard engine both backends delegate to: per-shard request queues
//! drained by dedicated worker threads (the aio-thread design of SAFS,
//! refactored out of the old `aio.rs` so the throttled and raw-speed
//! backends share one request lifecycle).
//!
//! A request's life on a worker:
//!
//! 1. dequeue (ends the `queue` span that began at submit time),
//! 2. the positional read/write, retried under [`RetryCfg`] while the
//!    error stays transient (each retry emits an `io-retry` span and
//!    bumps the shard's and the aggregate retry counters),
//! 3. optional throttle charge (Sim backend only): the emulated service
//!    window opens at the dequeue of step 1 or when the device falls
//!    free, whichever is later, so step 2's host time counts as part of
//!    the window, not on top of it,
//! 4. stats recording — aggregate [`IoStats`] *and* the shard's
//!    [`ShardStats`] — plus the `read`/`write`/`io-error` device span
//!    and per-shard queue-depth counter samples,
//! 5. completion delivery to the ticket.

use crate::aio::{IoOp, IoReq};
use crate::backend::{shard_depth_counter, with_retries, RetryCfg, ShardStats, ShardStatsSnapshot};
use crate::config::SafsConfig;
use crate::error::{SafsError, SafsResult};
use crate::span::{now_nanos, SpanSinkCell};
use crate::stats::IoStats;
use crate::sync::Mutex;
use crate::throttle::Throttle;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runtime-owned state every worker shares, handed to the backend at
/// open time.
pub(crate) struct WorkerEnv {
    pub(crate) stats: Arc<IoStats>,
    pub(crate) span_sink: Arc<SpanSinkCell>,
    /// Injected transient read faults remaining (testing hook; see
    /// [`Safs::inject_read_faults`](crate::Safs::inject_read_faults)).
    pub(crate) faults: Arc<AtomicU64>,
}

/// Per-worker context cloned into each spawned thread.
struct WorkerCtx {
    shard: usize,
    stats: Arc<IoStats>,
    shard_stats: Arc<ShardStats>,
    throttle: Option<Arc<Throttle>>,
    retry: RetryCfg,
    span_sink: Arc<SpanSinkCell>,
    faults: Arc<AtomicU64>,
}

/// Queues, workers and stats for every shard of one backend instance.
pub(crate) struct ShardSet {
    /// Cleared on shutdown so workers observe disconnection.
    queues: Mutex<Vec<Sender<IoReq>>>,
    shard_stats: Vec<Arc<ShardStats>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    stats: Arc<IoStats>,
    span_sink: Arc<SpanSinkCell>,
}

impl ShardSet {
    /// Spawn `cfg.io_threads_per_disk` workers per shard. `throttled`
    /// selects whether each shard gets its own bandwidth pacer from
    /// `cfg.throttle`; `flavor` lands in the thread names
    /// (`safs-<flavor>-s<shard>t<n>`), which become per-shard lanes in
    /// the timeline and flight recorder.
    pub(crate) fn open(
        cfg: &SafsConfig,
        throttled: bool,
        env: &WorkerEnv,
        flavor: &'static str,
    ) -> SafsResult<ShardSet> {
        let nshards = cfg.disks.len();
        let mut queues = Vec::with_capacity(nshards);
        let mut shard_stats = Vec::with_capacity(nshards);
        let mut threads = Vec::new();
        for shard in 0..nshards {
            let (tx, rx) = channel::<IoReq>();
            // `mpsc` is single-consumer: the shard's workers take turns on
            // the one receiver.
            let rx = Arc::new(Mutex::new(rx));
            let stats = Arc::new(ShardStats::default());
            let throttle =
                if throttled { cfg.throttle.map(|t| Arc::new(Throttle::new(t))) } else { None };
            for t in 0..cfg.io_threads_per_disk {
                let ctx = WorkerCtx {
                    shard,
                    stats: env.stats.clone(),
                    shard_stats: stats.clone(),
                    throttle: throttle.clone(),
                    retry: cfg.retry,
                    span_sink: env.span_sink.clone(),
                    faults: env.faults.clone(),
                };
                let rx = rx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("safs-{flavor}-s{shard}t{t}"))
                    .spawn(move || worker_main(rx, ctx))
                    .map_err(|e| SafsError::io("spawning I/O thread", e))?;
                threads.push(handle);
            }
            queues.push(tx);
            shard_stats.push(stats);
        }
        Ok(ShardSet {
            queues: Mutex::new(queues),
            shard_stats,
            threads: Mutex::new(threads),
            stats: env.stats.clone(),
            span_sink: env.span_sink.clone(),
        })
    }

    pub(crate) fn nshards(&self) -> usize {
        self.shard_stats.len()
    }

    pub(crate) fn submit(&self, shard: usize, mut req: IoReq) {
        self.stats.queue_enter();
        self.shard_stats[shard].queue_enter();
        if let Some(sink) = self.span_sink.get() {
            req.submit_ns = now_nanos();
            sink.counter("io-queue-depth", req.submit_ns, self.stats.depth());
            sink.counter(
                shard_depth_counter(shard),
                req.submit_ns,
                self.shard_stats[shard].depth(),
            );
        }
        // The queue only disconnects at shutdown, which cannot happen
        // while a file (which holds an Arc to the runtime) is submitting.
        let tx = self.queues.lock()[shard].clone();
        tx.send(req).expect("I/O queue closed while runtime alive");
    }

    pub(crate) fn flush(&self) {
        // Completion barrier: every request visible in a shard's depth
        // gauge was submitted before this call; poll until all drain.
        while self.shard_stats.iter().any(|s| s.depth() > 0) {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    pub(crate) fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.shard_stats.iter().map(|s| s.snapshot()).collect()
    }

    pub(crate) fn shutdown(&self) {
        self.queues.lock().clear();
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pop one injected fault, if any remain.
fn take_fault(faults: &AtomicU64) -> bool {
    faults.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1)).is_ok()
}

/// Body of one worker thread: drain the shard queue until all senders
/// drop.
fn worker_main(rx: Arc<Mutex<Receiver<IoReq>>>, ctx: WorkerCtx) {
    loop {
        // Own statement: the receiver lock is released before the I/O, so
        // the shard's other workers dequeue while this one is on the device.
        let next = rx.lock().recv();
        let Ok(req) = next else { break };
        let sink = ctx.span_sink.get();
        let device_ns = sink.as_ref().map(|_| now_nanos());
        let started = Instant::now();
        let is_read = matches!(req.op, IoOp::Read { .. });
        let mut nbytes = 0u64;
        let mut on_retry = |attempt: u32, _e: &std::io::Error| {
            ctx.stats.record_retry();
            ctx.shard_stats.record_retry();
            if let Some(s) = &sink {
                s.instant(
                    "io",
                    "io-retry",
                    now_nanos(),
                    [("attempt", attempt as u64), ("shard", ctx.shard as u64)],
                );
            }
        };
        let result = match req.op {
            IoOp::Read { mut buf } => {
                let r = with_retries(
                    ctx.retry,
                    || {
                        if take_fault(&ctx.faults) {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::Interrupted,
                                "injected transient fault",
                            ));
                        }
                        req.file.read_exact_at(buf.as_mut_bytes(), req.offset)
                    },
                    &mut on_retry,
                );
                match r {
                    Ok(()) => {
                        if let Some(t) = &ctx.throttle {
                            let waited = t.charge(buf.len() as u64, started);
                            ctx.stats.record_throttle_wait(waited.as_nanos() as u64);
                        }
                        nbytes = buf.len() as u64;
                        let nanos = started.elapsed().as_nanos() as u64;
                        ctx.stats.record_read(nbytes, nanos);
                        ctx.shard_stats.record_read(nbytes, nanos);
                        Ok(buf)
                    }
                    Err(e) => Err(SafsError::io(req.context, e)),
                }
            }
            IoOp::Write { buf } => {
                let r = with_retries(
                    ctx.retry,
                    || req.file.write_all_at(buf.as_bytes(), req.offset),
                    &mut on_retry,
                );
                match r {
                    Ok(()) => {
                        if let Some(t) = &ctx.throttle {
                            let waited = t.charge(buf.len() as u64, started);
                            ctx.stats.record_throttle_wait(waited.as_nanos() as u64);
                        }
                        nbytes = buf.len() as u64;
                        let nanos = started.elapsed().as_nanos() as u64;
                        ctx.stats.record_write(nbytes, nanos);
                        ctx.shard_stats.record_write(nbytes, nanos);
                        Ok(buf)
                    }
                    Err(e) => Err(SafsError::io(req.context, e)),
                }
            }
        };
        if let (Some(sink), Some(device_ns)) = (&sink, device_ns) {
            // The request's life splits into a queue span (submit → the
            // worker picks it up; attributed to this thread's track
            // because only here are both timestamps known) and a device
            // span (the blocking read/write itself, retries included).
            let end_ns = now_nanos();
            if req.submit_ns > 0 && req.submit_ns <= device_ns {
                sink.span(
                    "io",
                    "queue",
                    req.submit_ns,
                    device_ns,
                    [("bytes", nbytes), ("shard", ctx.shard as u64)],
                );
            }
            // Only a *final* failure — retries exhausted or a permanent
            // error — is an `io-error` span; that name is what triggers
            // the flight-recorder dump.
            let name = if result.is_ok() {
                if is_read {
                    "read"
                } else {
                    "write"
                }
            } else {
                "io-error"
            };
            sink.span(
                "io",
                name,
                device_ns,
                end_ns,
                [("bytes", nbytes), ("shard", ctx.shard as u64)],
            );
            sink.counter("io-queue-depth", end_ns, ctx.stats.depth().saturating_sub(1));
            sink.counter(
                shard_depth_counter(ctx.shard),
                end_ns,
                ctx.shard_stats.depth().saturating_sub(1),
            );
        }
        // The submitter may have dropped its ticket; that's fine.
        let _ = req.done.send(result);
        ctx.shard_stats.queue_exit();
        ctx.stats.queue_exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aio::completion;
    use crate::iobuf::IoBuf;

    /// One shard drained by two workers sharing the receiver: every
    /// request completes exactly once, a request whose ticket is already
    /// gone is still serviced and does not stop the queue, and shutdown
    /// joins every worker.
    #[test]
    fn two_workers_share_one_shard_queue() {
        const N: usize = 200;
        const SLOT: usize = 64;
        let fill = |slot: usize| [slot as u8 + 1; SLOT];
        let dir = std::env::temp_dir().join(format!("safs-shardq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("strip");
        let file = Arc::new(std::fs::File::create(&path).unwrap());
        let env = WorkerEnv {
            stats: Arc::new(IoStats::default()),
            span_sink: Arc::new(SpanSinkCell::default()),
            faults: Arc::new(AtomicU64::new(0)),
        };
        let cfg = SafsConfig::single_dir(&dir).with_io_threads(2);
        let set = ShardSet::open(&cfg, false, &env, "test").unwrap();
        // env + the set + one clone per worker.
        assert_eq!(Arc::strong_count(&env.stats), 2 + 2);

        let mut tickets = Vec::new();
        for slot in 0..N {
            let (done, ticket) = completion();
            if slot % 10 != 3 {
                tickets.push((slot, ticket));
            } // else: the receiver is gone before the worker can deliver.
            let req = IoReq {
                file: file.clone(),
                offset: (slot * SLOT) as u64,
                op: IoOp::Write { buf: IoBuf::from_bytes(&fill(slot)) },
                done,
                context: format!("test write {slot}"),
                submit_ns: 0,
            };
            set.submit(0, req);
        }
        for (slot, ticket) in tickets {
            assert_eq!(ticket.wait().unwrap().as_bytes(), &fill(slot), "ticket {slot}");
        }
        set.flush();
        assert_eq!(set.shard_stats()[0].write_reqs, N as u64, "each request serviced once");
        assert_eq!(env.stats.snapshot().write_reqs, N as u64);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), N * SLOT);
        for (slot, bytes) in on_disk.chunks(SLOT).enumerate() {
            assert_eq!(bytes, &fill(slot), "slot {slot}");
        }

        set.shutdown();
        assert!(set.threads.lock().is_empty());
        assert_eq!(Arc::strong_count(&env.stats), 2, "a joined worker has dropped its context");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Stand-in for the part of `crossbeam` the flashr crates use:
//! `channel::{bounded, unbounded}` — a multi-producer multi-consumer queue
//! over `Mutex<VecDeque>` and two condition variables, with disconnect
//! reported on both ends.
//!
//! This is benchmark-build code, not the published crate: the registry is
//! unreachable where the benchmark is built, and parent and change must be
//! measured against identical dependency code.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        // Every critical section below leaves `State` consistent at each
        // step, so a guard recovered from a poisoned lock is still valid.
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The message comes back when every receiver is gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Manual impl: callers `expect` on `send` with payloads that are not `Debug`.
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// The channel is empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    /// A channel holding at most `cap` messages; `send` blocks while full.
    /// Zero-capacity (rendezvous) channels are not implemented: no flashr
    /// crate creates one.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap >= 1, "the shim has no rendezvous channel");
        channel(Some(cap))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if self.0.cap.is_none_or(|cap| st.queue.len() < cap) {
                    break;
                }
                st = self.0.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.queue.push_back(msg);
            drop(st);
            self.0.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.0.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            match st.queue.pop_front() {
                Some(msg) => {
                    drop(st);
                    self.0.not_full.notify_one();
                    Ok(msg)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // Blocked receivers must see the disconnect.
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                // Blocked senders must see the disconnect.
                self.0.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn every_item_is_delivered_exactly_once_across_cloned_receivers() {
        const ITEMS: usize = 10_000;
        let (tx, rx) = unbounded::<usize>();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in (p..ITEMS).step_by(2) {
                        tx.send(i).expect("receivers alive");
                    }
                })
            })
            .collect();
        drop(tx);
        for p in producers {
            p.join().expect("producer panicked");
        }
        let mut seen = vec![0u32; ITEMS];
        for c in consumers {
            for v in c.join().expect("consumer panicked") {
                seen[v] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "an item was lost or duplicated");
    }

    #[test]
    fn disconnect_is_reported_on_both_ends() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(1).expect("receiver alive");
        drop(tx);
        assert_eq!(rx.recv(), Ok(1), "queued items outlive the senders");
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

        let (tx, rx) = bounded::<u8>(1);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn blocked_receiver_wakes_when_the_last_sender_drops() {
        let (tx, rx) = bounded::<u8>(1);
        let waiter = std::thread::spawn(move || rx.recv());
        drop(tx);
        assert_eq!(waiter.join().expect("waiter panicked"), Err(RecvError));
    }

    #[test]
    fn bounded_one_blocks_the_second_send() {
        let (tx, rx) = bounded::<u32>(1);
        let (progress_tx, progress_rx) = mpsc::channel();
        tx.send(1).expect("receiver alive");
        let sender = std::thread::spawn(move || {
            progress_tx.send("before").expect("test alive");
            tx.send(2).expect("receiver alive");
            progress_tx.send("after").expect("test alive");
        });
        assert_eq!(progress_rx.recv(), Ok("before"));
        // The queue is full and nothing has been received, so a correct
        // channel can never report "after" here, however long we wait; a
        // channel that does not block reports it at once.
        assert_eq!(
            progress_rx.recv_timeout(Duration::from_millis(50)),
            Err(mpsc::RecvTimeoutError::Timeout),
            "second send did not block"
        );
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(progress_rx.recv(), Ok("after"), "receive did not unblock the sender");
        assert_eq!(rx.recv(), Ok(2));
        sender.join().expect("sender panicked");
    }
}

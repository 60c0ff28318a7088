//! The workspace's one lock type: `std::sync::Mutex` without poisoning.
//!
//! `lock()` hands back the guard even after a holder panicked. Every
//! structure guarded here is updated so that it is valid at each step
//! (counters, maps, rings of plain values), and two callers depend on the
//! lock staying usable while a panic is in progress:
//!
//! * `FlightRecorder::dump("panic")` runs inside the process panic hook,
//!   where a second panic aborts the process instead of writing the dump;
//! * the `Drop` impls of `core::mat` (`TasInner`), `core::session`
//!   (`CachePin`, `CtxInner`), `safs::runtime` (`RtInner`), `safs::file`
//!   (`FileInner`) and `safs::cache` (`PendingRead`) take these locks
//!   during unwinding, where a panic on a poisoned lock would also abort.
//!
//! Condition variables are `std::sync::Condvar`, used directly on the
//! guard `lock()` returns.

use std::sync::{MutexGuard, PoisonError};

/// A mutex whose `lock` never fails: a poisoned lock yields its guard.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lockable_and_readable_after_a_holder_panicked() {
        let m = Arc::new(Mutex::new(vec![1, 2]));
        let m2 = m.clone();
        let joined = std::thread::spawn(move || {
            let mut g = m2.lock();
            g.push(3);
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(joined.is_err());
        assert_eq!(*m.lock(), [1, 2, 3]);
        m.lock().push(4);
        let mut m = Arc::try_unwrap(m).expect("the panicked thread was joined");
        assert_eq!(m.get_mut().len(), 4);
        assert_eq!(m.into_inner(), [1, 2, 3, 4]);
    }
}

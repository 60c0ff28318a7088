//! Stand-in for the part of `parking_lot` the flashr crates use, over
//! `std::sync`: `Mutex` (no poisoning, guard returned directly) and
//! `Condvar::{wait, wait_for, notify_one, notify_all}`.
//!
//! This is benchmark-build code, not the published crate: the registry is
//! unreachable where the benchmark is built, and parent and change must be
//! measured against identical dependency code.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutex whose `lock` returns the guard directly. A panic while the
/// lock is held does not poison it, as in `parking_lot`.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Holds the std guard in an `Option` so that `Condvar::wait` can move it
/// through `std::sync::Condvar::wait` and put the re-acquired guard back.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard is only empty inside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard is only empty inside Condvar::wait")
    }
}

/// Result of [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard is only empty inside Condvar::wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard is only empty inside Condvar::wait");
        let (inner, res) = self.0.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn wait_for_times_out_with_the_lock_held_again() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let mut g = m.lock();
        let t = Instant::now();
        let res = cv.wait_for(&mut g, Duration::from_millis(30));
        assert!(res.timed_out());
        assert!(t.elapsed() >= Duration::from_millis(30));
        *g = 7; // the guard is usable after the wait
        assert_eq!(*g, 7);
    }

    #[test]
    fn wait_for_wakes_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        // The waiter holds the lock until it parks inside `wait_for`, so
        // the notifier cannot set the flag before the waiter is waiting.
        let mut g = pair.0.lock();
        let notifier = std::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let mut timed_out = false;
        while !*g && !timed_out {
            timed_out = pair.1.wait_for(&mut g, Duration::from_secs(30)).timed_out();
        }
        assert!(*g && !timed_out, "woken by the notifier, not by the 30 s timeout");
        drop(g);
        notifier.join().expect("notifier panicked");
    }

    #[test]
    fn wait_blocks_until_notified() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let p2 = pair.clone();
        let mut g = pair.0.lock();
        let notifier = std::thread::spawn(move || {
            *p2.0.lock() = 5;
            p2.1.notify_one();
        });
        while *g == 0 {
            pair.1.wait(&mut g);
        }
        assert_eq!(*g, 5);
        drop(g);
        notifier.join().expect("notifier panicked");
    }
}

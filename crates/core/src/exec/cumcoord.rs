//! Cross-partition coordination for `cum.col` (paper §3.3, operation j).
//!
//! FlashR evaluates cumulative operations in a *single* pass by exploiting
//! sequential task dispatch: a thread that has computed partition `i`'s
//! local prefix waits for the running value of partition `i−1`, applies
//! it, and publishes the running value after `i`. Waits always target a
//! strictly earlier partition, and sequential dispatch guarantees every
//! earlier partition is claimed, so the chain resolves without deadlock —
//! unless the participant computing the earlier partition fails, which is
//! why a failed pass [poisons](CumCoord::poison) its coordinators: the
//! waiters then return at once instead of waiting for a carry that will
//! never come.

use flashr_safs::sync::Mutex;
use std::collections::HashMap;
use std::sync::{Condvar, PoisonError};

/// Carry chain for one `cum.col` node within one pass.
#[derive(Debug, Default)]
pub struct CumCoord {
    carries: Mutex<Carries>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct Carries {
    after: HashMap<u64, Vec<f64>>,
    poisoned: bool,
}

/// The pass this carry chain belongs to has failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

impl CumCoord {
    /// Block until the carry *into* `part` (i.e. the running value after
    /// partition `part − 1`) is available. Partition 0 has no carry.
    /// Returns `Err` at once when the pass has been poisoned.
    pub fn wait_carry(&self, part: u64) -> Result<Option<Vec<f64>>, Poisoned> {
        if part == 0 {
            return Ok(None);
        }
        let mut carries = self.carries.lock();
        loop {
            if carries.poisoned {
                return Err(Poisoned);
            }
            if let Some(c) = carries.after.get(&(part - 1)) {
                return Ok(Some(c.clone()));
            }
            carries = self.cv.wait(carries).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publish the running value after `part`.
    pub fn publish(&self, part: u64, carry: Vec<f64>) {
        self.carries.lock().after.insert(part, carry);
        self.cv.notify_all();
    }

    /// Release every waiter, now and later, with [`Poisoned`].
    pub fn poison(&self) {
        self.carries.lock().poisoned = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn part_zero_needs_no_carry() {
        let c = CumCoord::default();
        assert_eq!(c.wait_carry(0), Ok(None));
    }

    #[test]
    fn publish_then_wait() {
        let c = CumCoord::default();
        c.publish(0, vec![5.0]);
        assert_eq!(c.wait_carry(1), Ok(Some(vec![5.0])));
    }

    #[test]
    fn wait_blocks_until_publish() {
        let c = Arc::new(CumCoord::default());
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.wait_carry(3));
        std::thread::sleep(Duration::from_millis(20));
        c.publish(2, vec![1.0, 2.0]);
        assert_eq!(h.join().ok(), Some(Ok(Some(vec![1.0, 2.0]))));
    }

    #[test]
    fn chain_across_threads() {
        let c = Arc::new(CumCoord::default());
        let mut handles = Vec::new();
        // Partitions 1..8 each wait for their predecessor, add their index.
        for part in 1..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let carry = c.wait_carry(part).ok().flatten().unwrap_or_default();
                c.publish(part, vec![carry[0] + part as f64]);
            }));
        }
        c.publish(0, vec![0.0]);
        for h in handles {
            assert!(h.join().is_ok());
        }
        assert_eq!(c.wait_carry(8), Ok(Some(vec![(1..8).sum::<u64>() as f64])));
    }

    #[test]
    fn poison_releases_waiters_now_and_later() {
        let c = Arc::new(CumCoord::default());
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.wait_carry(5));
        std::thread::sleep(Duration::from_millis(20));
        c.poison();
        assert_eq!(h.join().ok(), Some(Err(Poisoned)));
        c.publish(0, vec![1.0]);
        assert_eq!(c.wait_carry(1), Err(Poisoned), "a poisoned chain hands out nothing");
    }
}

//! Cross-partition coordination for `cum.col` (paper §3.3, operation j).
//!
//! FlashR evaluates cumulative operations in a *single* pass by exploiting
//! sequential task dispatch: a thread that has computed partition `i`'s
//! local prefix waits for the running value of partition `i−1`, applies
//! it, and publishes the running value after `i`. Waits always target a
//! strictly earlier partition, and sequential dispatch guarantees every
//! earlier partition is claimed, so the chain resolves without deadlock.

use flashr_safs::sync::Mutex;
use std::collections::HashMap;
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

/// Carry chain for one `cum.col` node within one pass.
#[derive(Debug, Default)]
pub struct CumCoord {
    carries: Mutex<HashMap<u64, Vec<f64>>>,
    cv: Condvar,
}

impl CumCoord {
    /// Block until the carry *into* `part` (i.e. the running value after
    /// partition `part − 1`) is available. Partition 0 has no carry.
    pub fn wait_carry(&self, part: u64) -> Option<Vec<f64>> {
        if part == 0 {
            return None;
        }
        let mut carries = self.carries.lock();
        loop {
            if let Some(c) = carries.get(&(part - 1)) {
                return Some(c.clone());
            }
            let (guard, wait) = self
                .cv
                .wait_timeout(carries, Duration::from_secs(120))
                .unwrap_or_else(PoisonError::into_inner);
            carries = guard;
            assert!(
                !wait.timed_out(),
                "cum.col carry for partition {part} never arrived (deadlock?)"
            );
        }
    }

    /// Publish the running value after `part`.
    pub fn publish(&self, part: u64, carry: Vec<f64>) {
        let mut carries = self.carries.lock();
        carries.insert(part, carry);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn part_zero_needs_no_carry() {
        let c = CumCoord::default();
        assert!(c.wait_carry(0).is_none());
    }

    #[test]
    fn publish_then_wait() {
        let c = CumCoord::default();
        c.publish(0, vec![5.0]);
        assert_eq!(c.wait_carry(1), Some(vec![5.0]));
    }

    #[test]
    fn wait_blocks_until_publish() {
        let c = Arc::new(CumCoord::default());
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.wait_carry(3));
        std::thread::sleep(Duration::from_millis(20));
        c.publish(2, vec![1.0, 2.0]);
        assert_eq!(h.join().unwrap(), Some(vec![1.0, 2.0]));
    }

    #[test]
    fn chain_across_threads() {
        let c = Arc::new(CumCoord::default());
        let mut handles = Vec::new();
        // Partitions 1..8 each wait for their predecessor, add their index.
        for part in 1..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let carry = c.wait_carry(part).unwrap();
                c.publish(part, vec![carry[0] + part as f64]);
            }));
        }
        c.publish(0, vec![0.0]);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.wait_carry(8), Some(vec![(1..8).sum::<u64>() as f64]));
    }
}

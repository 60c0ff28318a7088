//! The one partition-order fold of a pass (paper §3.3, operations g–j):
//! sink partials fold by `SinkAcc::merge`, bit-identical whatever the
//! scheduling, and a `cum.col` node's carries by keeping the later one.
//! Claims come from one cursor in partition order, so a value waits
//! `ahead` only while an older partition still runs. A `cum.col`
//! partition [waits](InOrder::wait_prefix) for the fold of the partitions
//! before it, which were claimed first, so the chain cannot deadlock
//! unless a worker fails; a failed pass [poisons](InOrder::poison) them.

use flashr_safs::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::{Condvar, PoisonError};

/// One left fold over a pass's partitions, in partition order.
#[derive(Debug, Default)]
pub struct InOrder<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct State<T> {
    /// The lowest partition not yet folded.
    next: u64,
    /// The fold of partitions `0..next`; `None` before partition 0's.
    acc: Option<T>,
    /// Values that arrived before a lower partition's, by partition.
    ahead: BTreeMap<u64, T>,
    poisoned: bool,
}

/// The pass this fold belongs to has failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

impl<T> InOrder<T> {
    /// Hand in partition `part`'s value: it folds by `fold(acc, v)` once
    /// every lower partition has, then so does every contiguous one ahead.
    pub fn deposit(&self, part: u64, v: T, fold: impl Fn(&mut T, T)) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if part != st.next {
            st.ahead.insert(part, v);
            return;
        }
        let mut v = Some(v);
        while let Some(w) = v.take().or_else(|| st.ahead.remove(&st.next)) {
            match &mut st.acc {
                Some(acc) => fold(acc, w),
                slot @ None => *slot = Some(w),
            }
            st.next += 1;
        }
        drop(guard);
        self.cv.notify_all();
    }

    /// Block until every partition below `part` has folded and return the
    /// running value (`None` for partition 0), or `Err` once poisoned.
    pub fn wait_prefix(&self, part: u64) -> Result<Option<T>, Poisoned>
    where
        T: Clone,
    {
        let mut st = self.state.lock();
        while !st.poisoned {
            if st.next >= part {
                return Ok(st.acc.clone());
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        Err(Poisoned)
    }

    /// Release every waiter, now and later, with [`Poisoned`].
    pub fn poison(&self) {
        self.state.lock().poisoned = true;
        self.cv.notify_all();
    }

    /// The fold of every partition. Panics if a deposited value still
    /// waits for a lower partition's.
    pub fn finish(self) -> Option<T> {
        let st = self.state.into_inner();
        assert!(st.ahead.is_empty(), "partition {} never folded", st.next);
        st.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// `cum.col`'s fold: the later carry replaces the earlier.
    fn keep(acc: &mut Vec<f64>, v: Vec<f64>) {
        *acc = v;
    }

    #[test]
    fn part_zero_needs_no_carry() {
        let c = InOrder::<Vec<f64>>::default();
        assert_eq!(c.wait_prefix(0), Ok(None));
    }

    #[test]
    fn publish_then_wait() {
        let c = InOrder::default();
        c.deposit(0, vec![5.0], keep);
        assert_eq!(c.wait_prefix(1), Ok(Some(vec![5.0])));
    }

    #[test]
    fn out_of_order_deposits_fold_in_partition_order() {
        // A fold that records its order: partitions 3, 1, 4, 0, 2 arrive,
        // and nothing folds until partition 0 does.
        let c = InOrder::default();
        let append = |acc: &mut Vec<u64>, v: Vec<u64>| acc.extend(v);
        for part in [3, 1, 4] {
            c.deposit(part, vec![part], append);
        }
        assert_eq!(c.state.lock().acc, None);
        c.deposit(0, vec![0], append);
        assert_eq!(c.wait_prefix(2), Ok(Some(vec![0, 1])));
        c.deposit(2, vec![2], append);
        assert_eq!(c.finish(), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "partition 1 never folded")]
    fn finish_refuses_a_gap() {
        let c = InOrder::default();
        c.deposit(0, vec![0.0], keep);
        c.deposit(2, vec![2.0], keep);
        let _ = c.finish();
    }

    #[test]
    fn wait_blocks_until_publish() {
        let c = Arc::new(InOrder::default());
        for part in 0..2 {
            c.deposit(part, vec![part as f64], keep);
        }
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.wait_prefix(3));
        std::thread::sleep(Duration::from_millis(20));
        c.deposit(2, vec![1.0, 2.0], keep);
        assert_eq!(h.join().ok(), Some(Ok(Some(vec![1.0, 2.0]))));
    }

    #[test]
    fn chain_across_threads() {
        let c = Arc::new(InOrder::<Vec<f64>>::default());
        let mut handles = Vec::new();
        // Partitions 1..8 each wait for their prefix, add their index.
        for part in 1..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let carry = c.wait_prefix(part).ok().flatten().unwrap_or_default();
                c.deposit(part, vec![carry[0] + part as f64], keep);
            }));
        }
        c.deposit(0, vec![0.0], keep);
        for h in handles {
            assert!(h.join().is_ok());
        }
        assert_eq!(c.wait_prefix(8), Ok(Some(vec![(1..8).sum::<u64>() as f64])));
    }

    #[test]
    fn poison_releases_waiters_now_and_later() {
        let c = Arc::new(InOrder::default());
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.wait_prefix(5));
        std::thread::sleep(Duration::from_millis(20));
        c.poison();
        assert_eq!(h.join().ok(), Some(Err(Poisoned)));
        c.deposit(0, vec![1.0], keep);
        assert_eq!(c.wait_prefix(1), Err(Poisoned), "a poisoned fold hands out nothing");
    }
}

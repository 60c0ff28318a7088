//! The test suites' one source of randomness: a seeded generator and a
//! case runner that says how to replay a failing case.
//!
//! Runs are deterministic — case `i` of every [`cases`] call draws from
//! [`Rng::new`]`(`[`case_seed`]`(i))` — so a failure reproduces by running
//! the test again, and the line printed on failure carries the seed that
//! rebuilds exactly that case's inputs under a debugger. There is no
//! shrinking: the failing case is reported as generated.

pub mod oracle;

use std::ops::Range;

/// splitmix64 (Steele, Lea & Flood 2014): every seed, 0 included, gives a
/// full-period stream.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias below 2⁻³² for the sizes tests use).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no value to return");
        self.next_u64() % n
    }

    pub fn u64(&mut self, r: Range<u64>) -> u64 {
        r.start + self.below(r.end - r.start)
    }

    pub fn usize(&mut self, r: Range<usize>) -> usize {
        self.u64(r.start as u64..r.end as u64) as usize
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Uniform in `r`, from the top 53 bits.
    pub fn f64(&mut self, r: Range<f64>) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        r.start + unit * (r.end - r.start)
    }

    pub fn vec_f64(&mut self, len: usize, r: Range<f64>) -> Vec<f64> {
        (0..len).map(|_| self.f64(r.clone())).collect()
    }
}

/// Seed of case `case` in every [`cases`] run.
pub fn case_seed(case: usize) -> u64 {
    Rng::new(0xF1A5_4000 + case as u64).next_u64()
}

/// Reports the case it was made for if it is dropped by a panic.
struct Replay(usize, usize);

impl Drop for Replay {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let Replay(case, n) = *self;
            let seed = case_seed(case);
            eprintln!(
                "testkit: case {case} of {n} failed; its inputs replay from Rng::new({seed:#018x})"
            );
        }
    }
}

/// Run `body(rng, case)` for `case` in `0..n`, each with its own generator.
/// When a case panics, its index and seed go to stderr before the panic
/// continues.
pub fn cases(n: usize, mut body: impl FnMut(&mut Rng, usize)) {
    for case in 0..n {
        let _replay = Replay(case, n);
        body(&mut Rng::new(case_seed(case)), case);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_stay_in_range_and_repeat_for_a_seed() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..1000 {
            let (x, f) = (a.usize(3..9), a.f64(-2.5..4.0));
            assert_eq!((x, f), (b.usize(3..9), b.f64(-2.5..4.0)));
            assert!((3..9).contains(&x) && (-2.5..4.0).contains(&f));
        }
        assert_eq!(a.u64(5..6), 5);
        assert_ne!(Rng::new(0).next_u64(), Rng::new(1).next_u64());
    }

    #[test]
    fn a_failing_case_stops_the_run_and_every_case_replays_from_its_seed() {
        let mut firsts = Vec::new();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cases(8, |rng, case| {
                firsts.push(rng.next_u64());
                assert_eq!(firsts[case], Rng::new(case_seed(case)).next_u64());
                assert!(case < 3, "forced failure");
            });
        }));
        assert!(res.is_err());
        assert_eq!(firsts.len(), 4, "cases after the failing one must not run");
        firsts.dedup();
        assert_eq!(firsts.len(), 4, "every case has its own stream");
    }
}

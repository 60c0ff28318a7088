//! Property tests: CSR invariants and SpMM correctness (in-memory and
//! semi-external) against a dense oracle, over random sparse structures.

use flashr_linalg::{matmul, Dense};
use flashr_safs::{Safs, SafsConfig};
use flashr_sparse::{spmm, CsrMatrix, SemCsr};
use flashr_testkit::{cases, Rng, TempDir};

const CASES: usize = 24;

fn arb_triplets(rng: &mut Rng, max_n: usize) -> (usize, usize, Vec<(usize, usize, f64)>) {
    let (r, c) = (rng.usize(1..max_n + 1), rng.usize(1..max_n + 1));
    let trips =
        (0..rng.usize(0..60)).map(|_| (rng.usize(0..r), rng.usize(0..c), rng.f64(-5.0..5.0)));
    (r, c, trips.collect())
}

/// A runtime under a fresh directory, which goes with the guard.
fn safs(tag: u64) -> (TempDir, Safs) {
    let dir = TempDir::new(&format!("sparse-prop-{tag}"));
    let safs = Safs::open(SafsConfig::striped_under(&dir, 2)).unwrap();
    (dir, safs)
}

#[test]
fn csr_roundtrips_triplets() {
    cases(CASES, |rng, _| {
        let (r, c, trips) = arb_triplets(rng, 40);
        let m = CsrMatrix::from_triplets(r, c, &trips);
        // Dense oracle built independently.
        let mut d = Dense::zeros(r, c);
        for &(i, j, v) in &trips {
            d.set(i, j, d.at(i, j) + v);
        }
        assert!(m.to_dense().max_abs_diff(&d) < 1e-12);
        // nnz never exceeds the triplet count.
        assert!(m.nnz() <= trips.len());
        // indptr is monotone and consistent.
        assert_eq!(m.degrees().iter().sum::<usize>(), m.nnz());
    });
}

#[test]
fn transpose_is_involution() {
    cases(CASES, |rng, _| {
        let (r, c, trips) = arb_triplets(rng, 30);
        let m = CsrMatrix::from_triplets(r, c, &trips);
        let tt = m.transpose().transpose();
        assert!(m.to_dense().max_abs_diff(&tt.to_dense()) < 1e-12);
    });
}

#[test]
fn spmm_matches_dense() {
    cases(CASES, |rng, _| {
        let (r, c, trips) = arb_triplets(rng, 30);
        let k = rng.usize(1..5);
        let a = CsrMatrix::from_triplets(r, c, &trips);
        let b = Dense::from_fn(c, k, |i, j| ((i * 3 + j) % 5) as f64 - 2.0);
        let got = spmm(&a, &b);
        let want = matmul(&a.to_dense(), &b);
        assert!(got.max_abs_diff(&want) < 1e-10);
    });
}

#[test]
fn sem_roundtrip_and_spmm() {
    cases(CASES, |rng, _| {
        let (r, c, trips) = arb_triplets(rng, 30);
        let rows_per_part = rng.usize(1..20);
        let a = CsrMatrix::from_triplets(r, c, &trips);
        let (_dir, rt) = safs(rng.next_u64());
        let sem = SemCsr::store(&rt, "p", &a, rows_per_part);
        assert_eq!(sem.nnz(), a.nnz() as u64);
        assert!(sem.to_csr().to_dense().max_abs_diff(&a.to_dense()) < 1e-12);
        let b = Dense::from_fn(c, 2, |i, j| (i + j) as f64 * 0.5 - 1.0);
        assert!(sem.spmm(&b).max_abs_diff(&spmm(&a, &b)) < 1e-10);
    });
}

//! Property tests for the dense kernels: factorizations must reconstruct
//! their inputs and solves must invert multiplication, over random
//! matrices of arbitrary shape.

use flashr_linalg::*;
use flashr_testkit::{cases, Rng};

const CASES: usize = 32;

fn arb_dense(rng: &mut Rng, max_n: usize) -> Dense {
    let (r, c) = (rng.usize(1..max_n + 1), rng.usize(1..max_n + 1));
    Dense::from_vec(r, c, rng.vec_f64(r * c, -10.0..10.0))
}

fn arb_spd(rng: &mut Rng, max_n: usize) -> Dense {
    let n = rng.usize(1..max_n + 1);
    let b = Dense::from_vec(n + 2, n, rng.vec_f64((n + 2) * n, -1.0..1.0));
    let mut g = syrk(&b);
    for i in 0..n {
        let d = g.at(i, i);
        g.set(i, i, d + 0.5);
    }
    g
}

#[test]
fn gemm_is_associative_with_scalars() {
    cases(CASES, |rng, _| {
        let a = arb_dense(rng, 8);
        let s = rng.f64(-3.0..3.0);
        // (s·A)ᵀ (s·A) == s² · AᵀA
        let mut sa = a.clone();
        sa.scale(s);
        let left = syrk(&sa);
        let mut right = syrk(&a);
        right.scale(s * s);
        assert!(left.max_abs_diff(&right) < 1e-8);
    });
}

#[test]
fn cholesky_reconstructs() {
    cases(CASES, |rng, _| {
        let a = arb_spd(rng, 12);
        let l = cholesky(&a).expect("SPD inputs must factor");
        let mut rec = Dense::zeros(a.rows(), a.cols());
        gemm(1.0, &l, false, &l, true, 0.0, &mut rec);
        assert!(rec.max_abs_diff(&a) < 1e-8, "LLᵀ ≠ A (diff {})", rec.max_abs_diff(&a));
    });
}

#[test]
fn chol_solve_inverts() {
    cases(CASES, |rng, _| {
        let a = arb_spd(rng, 10);
        let n = a.rows();
        let l = cholesky(&a).unwrap();
        let x0 = Dense::from_fn(n, 2, |r, c| (r as f64 + 1.0) * (c as f64 - 0.5));
        let b = matmul(&a, &x0);
        let x = chol_solve(&l, &b);
        assert!(x.max_abs_diff(&x0) < 1e-6);
    });
}

#[test]
fn eigen_reconstructs_and_is_orthonormal() {
    cases(CASES, |rng, _| {
        let a = arb_spd(rng, 10);
        let n = a.rows();
        let e = eigen_sym(&a);
        // Orthonormal vectors.
        let mut vtv = Dense::zeros(n, n);
        gemm(1.0, &e.vectors, true, &e.vectors, false, 0.0, &mut vtv);
        assert!(vtv.max_abs_diff(&Dense::eye(n)) < 1e-8);
        // Reconstruction.
        let mut vd = e.vectors.clone();
        for r in 0..n {
            for c in 0..n {
                let v = vd.at(r, c) * e.values[c];
                vd.set(r, c, v);
            }
        }
        let mut rec = Dense::zeros(n, n);
        gemm(1.0, &vd, false, &e.vectors, true, 0.0, &mut rec);
        assert!(rec.max_abs_diff(&a) < 1e-7);
        // SPD ⇒ positive eigenvalues, sorted descending.
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-10);
        }
        assert!(*e.values.last().unwrap() > 0.0);
    });
}

#[test]
fn lu_solves_random_systems() {
    cases(CASES, |rng, _| {
        let n = rng.usize(1..12);
        let a = Dense::from_fn(n, n, |r, c| {
            let v = rng.f64(-1.0..1.0);
            // Diagonal dominance keeps the system well-conditioned.
            if r == c {
                v + 3.0
            } else {
                v * 0.5
            }
        });
        let x0 = Dense::from_fn(n, 1, |r, _| r as f64 - 1.5);
        let b = matmul(&a, &x0);
        let f = lu_factor(&a).expect("diagonally dominant ⇒ nonsingular");
        let x = lu_solve(&f, &b);
        assert!(x.max_abs_diff(&x0) < 1e-7);
        // det(A) from LU is consistent with det(Aᵀ).
        let dt = lu_det(&a.transpose());
        let d = lu_det(&a);
        assert!((d - dt).abs() <= 1e-6 * d.abs().max(1.0));
    });
}

#[test]
fn triangular_solves_roundtrip() {
    cases(CASES, |rng, _| {
        let a = arb_spd(rng, 9);
        let l = cholesky(&a).unwrap();
        let n = a.rows();
        let x0 = Dense::from_fn(n, 3, |r, c| ((r * 3 + c) as f64).sin());
        let b = matmul(&l, &x0);
        assert!(solve_lower(&l, &b).max_abs_diff(&x0) < 1e-7);
        let bu = matmul(&l.transpose(), &x0);
        assert!(solve_lower_transpose(&l, &bu).max_abs_diff(&x0) < 1e-7);
        assert!(solve_upper(&l.transpose(), &bu).max_abs_diff(&x0) < 1e-7);
    });
}

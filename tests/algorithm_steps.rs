//! One step of an ML driver against `flashr_testkit::steps`, its
//! textbook reference, from a shared state: the same inputs at every
//! engine configuration (in memory and on a throttled SSD array, 1–4
//! threads, two partition heights), within the bound the reference
//! derives for each quantity.

use flashr::ml::logreg::loss_and_grad;
use flashr::prelude::*;
use flashr_testkit::steps::logistic_loss_grad;
use flashr_testkit::{cases, Rng, TempDir};

const NTHREADS: [usize; 4] = [1, 2, 3, 4];
const ROWS_PER_PART: [u64; 2] = [64, 256];

/// A throttled two-shard array: every read completes through the token
/// bucket, as the benchmark's EM arrays do.
fn em_array(dir: &TempDir) -> Safs {
    let throttle = ThrottleCfg { bytes_per_sec: 1e9, latency_us: 1.0 };
    Safs::open(SafsConfig::striped_under(dir.path(), 2).with_throttle(throttle))
        .expect("open scratch SAFS array")
}

/// Every configuration a step runs at: `(storage, nthreads, rows_per_part)`.
fn configs(safs: &Safs) -> impl Iterator<Item = FlashCtx> + '_ {
    [None, Some(safs)].into_iter().flat_map(move |safs| {
        NTHREADS.into_iter().flat_map(move |nthreads| {
            ROWS_PER_PART.into_iter().map(move |rows_per_part| {
                let storage = if safs.is_some() { StorageClass::Em } else { StorageClass::InMem };
                let cfg = CtxConfig { nthreads, rows_per_part, storage, ..Default::default() };
                FlashCtx::with_config(cfg, safs.cloned())
            })
        })
    })
}

/// Features around a spread of scales, labels drawn from a logistic
/// model, and a weight vector away from it: margins from about −20 to
/// 20, so both branches of the stable softplus run.
fn logistic_problem(rng: &mut Rng) -> (usize, usize, Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = rng.usize(300..1500);
    let p = rng.usize(2..8);
    let scale: Vec<f64> = (0..p).map(|_| rng.f64(0.1..4.0)).collect();
    let x: Vec<f64> = (0..n * p).map(|i| scale[i % p] * rng.f64(-1.0..1.0)).collect();
    let truth = rng.vec_f64(p, -2.0..2.0);
    let y: Vec<f64> = x
        .chunks_exact(p)
        .map(|row| {
            let m: f64 = row.iter().zip(&truth).map(|(a, b)| a * b).sum();
            f64::from(u8::from(rng.f64(0.0..1.0) < 1.0 / (1.0 + (-m).exp())))
        })
        .collect();
    let w = rng.vec_f64(p, -3.0..3.0);
    (n, p, x, y, w)
}

/// `flashr_ml`'s one-pass logistic loss and gradient at `w`.
#[test]
fn logistic_loss_and_gradient_match_the_reference() {
    let dir = TempDir::new("steps-logreg");
    let safs = em_array(&dir);
    cases(6, |rng, case| {
        let (n, p, x, y, w) = logistic_problem(rng);
        let (loss, grad) = logistic_loss_grad(&x, &y, &w);
        for ctx in configs(&safs) {
            let fx = FM::from_row_major(&ctx, n as u64, p, &x);
            let fy = FM::from_row_major(&ctx, n as u64, 1, &y);
            let (got_loss, got_grad) = loss_and_grad(&ctx, &fx, &fy, &w);
            let cfg = ctx.cfg();
            let at = format!(
                "case {case} ({n} × {p}), {:?}, {} threads, {} rows a partition",
                cfg.storage, cfg.nthreads, cfg.rows_per_part
            );
            loss.check(got_loss, &format!("loss, {at}"));
            assert_eq!(got_grad.len(), p);
            for (j, (g, want)) in got_grad.iter().zip(&grad).enumerate() {
                want.check(*g, &format!("gradient {j}, {at}"));
            }
        }
    });
}

//! One step of each `crates/ml` driver, written as textbook dense loops:
//! the reference an algorithm's numerics are held to, from a shared
//! state, so a change inside a driver is checked against a bound derived
//! before the change rather than fitted after it.
//!
//! The rule is the oracle's: no call into `flashr_core::{ops, exec,
//! analysis}` or `flashr_linalg`. Elementary functions are std's (the
//! platform libm), not `flashr_linalg::math`, so a step also checks the
//! engine's own `exp`/`ln_1p` against an implementation it does not
//! share. Matrices are row-major `&[f64]` slices.

/// Unit roundoff of `f64`, the `ε` of every bound below.
pub const EPS: f64 = f64::EPSILON / 2.0;

/// A quantity computed by a reference step, with the bound a correct
/// engine computation stays within.
#[derive(Debug, Clone, Copy)]
pub struct Bounded {
    pub value: f64,
    pub tol: f64,
}

impl Bounded {
    /// Panics unless `got` is within the bound.
    #[track_caller]
    pub fn check(&self, got: f64, what: &str) {
        let err = (got - self.value).abs();
        assert!(
            err <= self.tol,
            "{what}: engine {got:e}, reference {:e}: off by {err:e} > bound {:e}",
            self.value,
            self.tol
        );
    }
}

/// The mean logistic loss and its gradient at `w`:
///
/// ```text
/// ℓ(w) = (1/n) Σᵢ softplus(mᵢ) − yᵢ·mᵢ      mᵢ = Σⱼ xᵢⱼ wⱼ
/// ∇ℓ(w)ⱼ = (1/n) Σᵢ xᵢⱼ (σ(mᵢ) − yᵢ)         σ(m) = 1 / (1 + e⁻ᵐ)
/// ```
///
/// with `softplus(m) = max(m, 0) + ln(1 + e^{−|m|})`, the form that
/// neither overflows nor cancels. Every sum runs left to right.
///
/// **The bound** (`Aᵢ = Σⱼ |xᵢⱼ wⱼ|`, `rᵢ = σ(mᵢ) − yᵢ`): a reassociated
/// length-`p` dot, FMA or not, is within `p·ε·Aᵢ` of the margin; a
/// length-`n` sum within `n·ε·Σ|terms|`; each elementary call (`exp`,
/// `ln_1p`) adds 1 ulp against std's, on top of one rounding per
/// arithmetic operation.
/// - Loss: `softplus' = σ ≤ 1` carries the margin's error, as does
///   `yᵢ·mᵢ`; `exp`, `ln_1p`, the two adds and the product-and-subtract
///   round (four roundings plus two elementary ulps: `6ε`):
///   `n·tol = Σᵢ (1 + |yᵢ|)·p·ε·Aᵢ + (n + 6)·ε·(softplusᵢ + |yᵢ·mᵢ|)`.
/// - Gradient: `σ' ≤ 1/4` carries the margin's error; `exp`, its add,
///   the division and the subtraction round (plus one elementary ulp:
///   `5ε` of `σᵢ + |yᵢ|`); the product rounds once more:
///   `n·tolⱼ = Σᵢ |xᵢⱼ|·(p·ε·Aᵢ/4 + 5ε·(σᵢ + |yᵢ|)) + (n + 1)·ε·Σᵢ |xᵢⱼ rᵢ|`.
pub fn logistic_loss_grad(x: &[f64], y: &[f64], w: &[f64]) -> (Bounded, Vec<Bounded>) {
    let (n, p) = (y.len(), w.len());
    assert_eq!(x.len(), n * p, "reference: x is not n × p");
    let nf = n as f64;
    let pf = p as f64;
    let (mut loss, mut loss_tol) = (0.0, 0.0);
    let mut grad = vec![0.0; p];
    let mut grad_tol = vec![0.0; p];
    for (row, &yi) in x.chunks_exact(p).zip(y) {
        let (mut m, mut a) = (0.0, 0.0);
        for (xij, wj) in row.iter().zip(w) {
            m += xij * wj;
            a += (xij * wj).abs();
        }
        let softplus = m.max(0.0) + (-m.abs()).exp().ln_1p();
        loss += softplus - yi * m;
        loss_tol +=
            (1.0 + yi.abs()) * pf * EPS * a + (nf + 6.0) * EPS * (softplus + (yi * m).abs());
        let sigma = 1.0 / (1.0 + (-m).exp());
        let r = sigma - yi;
        for (j, xij) in row.iter().enumerate() {
            grad[j] += xij * r;
            grad_tol[j] += xij.abs() * (pf * EPS * a / 4.0 + 5.0 * EPS * (sigma + yi.abs()))
                + (nf + 1.0) * EPS * (xij * r).abs();
        }
    }
    let loss = Bounded { value: loss / nf, tol: loss_tol / nf };
    let grad = grad.iter().zip(&grad_tol).map(|(g, t)| Bounded { value: g / nf, tol: t / nf });
    (loss, grad.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At `w = 0` every margin is 0: the loss is ln 2 and the gradient
    /// `(1/n) Σᵢ xᵢⱼ (½ − yᵢ)`, exactly.
    #[test]
    fn logistic_step_at_zero_weights() {
        let x = [1.0, 2.0, -3.0, 0.5, 4.0, -1.0];
        let y = [1.0, 0.0, 1.0];
        let (loss, grad) = logistic_loss_grad(&x, &y, &[0.0, 0.0]);
        assert!((loss.value - std::f64::consts::LN_2).abs() <= loss.tol.max(1e-16));
        let want = [(-0.5 - 1.5 - 2.0) / 3.0, (-1.0 + 0.25 + 0.5) / 3.0];
        for (g, w) in grad.iter().zip(want) {
            assert!((g.value - w).abs() < 1e-15, "{} vs {w}", g.value);
        }
    }
}

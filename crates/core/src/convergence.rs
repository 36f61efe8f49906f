//! The ESSE convergence criterion: compare error subspaces estimated
//! from ensembles of different sizes (paper Fig. 2: "similar?").
//!
//! Following Lermusiaux & Robinson (1999), the similarity coefficient
//! between two subspace estimates `(E₁, Λ₁)` and `(E₂, Λ₂)` is the
//! weighted alignment of the subspaces:
//!
//! ```text
//! ρ = ‖ Λ₁^{1/2} E₁ᵀ E₂ Λ₂^{1/2} ‖_* / sqrt(tr Λ₁ · tr Λ₂)  ∈ [0, 1]
//! ```
//!
//! (nuclear norm ‖·‖_* = sum of singular values). ρ = 1 iff the two
//! weighted subspaces coincide; ρ = 0 iff they are orthogonal. The
//! ensemble has converged when ρ exceeds `1 − tol` for successive
//! estimates.

use crate::subspace::ErrorSubspace;
use esse_linalg::{vecops, Matrix, Svd};

/// Similarity coefficient ρ ∈ [0, 1] between two subspace estimates.
pub fn similarity(a: &ErrorSubspace, b: &ErrorSubspace) -> f64 {
    assert_eq!(a.state_dim(), b.state_dim(), "subspace dimensions differ");
    let ta = a.total_variance();
    let tb = b.total_variance();
    if ta <= 0.0 || tb <= 0.0 {
        return 0.0;
    }
    // C = Λa^{1/2} (Eaᵀ Eb) Λb^{1/2}  (ka × kb): each entry is a dot
    // of two contiguous mode columns.
    let weights =
        |s: &ErrorSubspace| -> Vec<f64> { s.variances.iter().map(|v| v.max(0.0).sqrt()).collect() };
    let (wa, wb) = (weights(a), weights(b));
    let c = Matrix::from_fn(wa.len(), wb.len(), |i, j| {
        vecops::dot(a.modes.col(i), b.modes.col(j)) * wa[i] * wb[j]
    });
    let svd = Svd::compute(&c).expect("small cross matrix");
    let nuclear: f64 = svd.s.iter().sum();
    (nuclear / (ta * tb).sqrt()).clamp(0.0, 1.0)
}

/// Convergence monitor: tracks successive similarity values and decides
/// when the error subspace has stabilized.
#[derive(Debug, Clone)]
pub struct ConvergenceTest {
    /// Convergence threshold: converged when `ρ ≥ 1 − tol`.
    pub tol: f64,
    /// Number of consecutive passes required.
    pub required_passes: usize,
    history: Vec<f64>,
    passes: usize,
}

impl ConvergenceTest {
    /// New monitor with threshold `tol` and a single required pass.
    pub fn new(tol: f64) -> ConvergenceTest {
        ConvergenceTest { tol, required_passes: 1, history: Vec::new(), passes: 0 }
    }

    /// Rebuild a monitor from a persisted similarity history (journal
    /// resume): every value is replayed through the pass counter, so
    /// the restored monitor decides convergence exactly as if the
    /// original run had never stopped.
    pub fn restore(tol: f64, history: &[f64]) -> ConvergenceTest {
        let mut c = ConvergenceTest::new(tol);
        for &rho in history {
            c.check(rho);
        }
        c
    }

    /// Feed the similarity between the previous and current estimates;
    /// returns `true` when converged.
    pub fn check(&mut self, rho: f64) -> bool {
        self.history.push(rho);
        if rho >= 1.0 - self.tol {
            self.passes += 1;
        } else {
            self.passes = 0;
        }
        self.passes >= self.required_passes
    }

    /// Whether the monitor is currently in the converged state (enough
    /// consecutive passes at the current threshold).
    pub fn converged(&self) -> bool {
        self.passes >= self.required_passes
    }

    /// All similarity values seen so far.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Most recent similarity.
    pub fn last(&self) -> Option<f64> {
        self.history.last().copied()
    }
}

/// Convenience: subspace from the SVD of a spread snapshot matrix,
/// with ESSE defaults (`rel_tol` on σ and a rank cap).
pub fn subspace_from_spread(m: &Matrix, rel_tol: f64, max_rank: usize) -> Option<ErrorSubspace> {
    if m.cols() < 2 {
        return None;
    }
    let svd = Svd::compute(m).ok()?;
    Some(ErrorSubspace::from_spread_svd(&svd, rel_tol, max_rank))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esse_linalg::Matrix;

    fn axis_subspace(n: usize, axes: &[usize], vars: &[f64]) -> ErrorSubspace {
        let mut m = Matrix::zeros(n, axes.len());
        for (j, &ax) in axes.iter().enumerate() {
            m.set(ax, j, 1.0);
        }
        ErrorSubspace { modes: m, variances: vars.to_vec() }
    }

    #[test]
    fn identical_subspaces_have_rho_one() {
        let a = axis_subspace(5, &[0, 1], &[3.0, 1.0]);
        let b = axis_subspace(5, &[0, 1], &[3.0, 1.0]);
        assert!((similarity(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_subspaces_have_rho_zero() {
        let a = axis_subspace(6, &[0, 1], &[1.0, 1.0]);
        let b = axis_subspace(6, &[2, 3], &[1.0, 1.0]);
        assert!(similarity(&a, &b) < 1e-12);
    }

    #[test]
    fn partial_overlap_intermediate() {
        let a = axis_subspace(6, &[0, 1], &[1.0, 1.0]);
        let b = axis_subspace(6, &[1, 2], &[1.0, 1.0]);
        let rho = similarity(&a, &b);
        assert!(rho > 0.3 && rho < 0.7, "rho = {rho}");
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = axis_subspace(6, &[0, 1], &[4.0, 1.0]);
        let b = axis_subspace(6, &[1, 3], &[2.0, 0.5]);
        assert!((similarity(&a, &b) - similarity(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn variance_weighting_matters() {
        // Same spans, very different weights: rho must drop below 1.
        let a = axis_subspace(4, &[0, 1], &[10.0, 0.1]);
        let b = axis_subspace(4, &[0, 1], &[0.1, 10.0]);
        let rho = similarity(&a, &b);
        assert!(rho < 0.5, "rho = {rho}");
    }

    #[test]
    fn convergence_monitor_requires_threshold() {
        let mut c = ConvergenceTest::new(0.02);
        assert!(!c.check(0.90));
        assert!(!c.check(0.97));
        assert!(c.check(0.99));
        assert_eq!(c.history().len(), 3);
    }

    #[test]
    fn convergence_with_multiple_passes() {
        let mut c = ConvergenceTest::new(0.05);
        c.required_passes = 2;
        assert!(!c.check(0.99)); // first pass
        assert!(!c.check(0.90)); // reset
        assert!(!c.check(0.98)); // first pass again
        assert!(c.check(0.97)); // second consecutive pass
    }

    #[test]
    fn subspace_from_spread_requires_two_columns() {
        let m = Matrix::zeros(10, 1);
        assert!(subspace_from_spread(&m, 1e-6, 5).is_none());
        let m2 = Matrix::from_fn(10, 3, |i, j| ((i * j) as f64).sin());
        let s = subspace_from_spread(&m2, 1e-6, 5).unwrap();
        assert!(s.rank() >= 1 && s.rank() <= 3);
    }
}

//! Thin singular value decomposition.
//!
//! Two algorithms:
//!
//! * [`Svd::jacobi`] — one-sided Jacobi on the columns of `A`. Most
//!   accurate; cost `O(m n² · sweeps)`.
//! * [`Svd::gram`] — eigendecomposition of `AᵀA` (n×n), then
//!   `U = A V Σ⁻¹` ([`Svd::left_vectors`], which the subspace lane
//!   also calls for its retained rank alone). This is the path ESSE
//!   uses in production: the ensemble spread matrix is `n_state × N`
//!   with `n_state ≫ N`, so the Gram matrix is tiny compared to `A` and
//!   the cost is dominated by one pass over the data. Squares the
//!   condition number, which is acceptable for covariance spectra
//!   (singular values below `~1e-8·σ₁` are noise for ensemble
//!   statistics anyway).
//!
//! [`Svd::compute`] picks Gram for tall matrices and Jacobi otherwise.

use crate::eigen::SymEigen;
use crate::matrix::Matrix;
use crate::vecops;
use crate::{LinalgError, Result};

/// Thin SVD `A = U Σ Vᵀ` with `U: m×k`, `Σ: k`, `V: n×k`, `k = min(m,n)`,
/// singular values descending.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns), `m × k`.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub s: Vec<f64>,
    /// Right singular vectors (columns), `n × k`.
    pub v: Matrix,
}

impl Svd {
    /// Thin SVD choosing the algorithm by shape: Gram path when
    /// `rows ≥ 2·cols` (the ESSE regime), one-sided Jacobi otherwise.
    pub fn compute(a: &Matrix) -> Result<Svd> {
        if a.rows() >= 2 * a.cols() {
            Svd::gram(a)
        } else {
            Svd::jacobi(a)
        }
    }

    /// One-sided Jacobi SVD. Requires `rows ≥ cols`; transpose first if not
    /// (handled internally).
    pub fn jacobi(a: &Matrix) -> Result<Svd> {
        if a.rows() < a.cols() {
            // SVD of Aᵀ, then swap factors.
            let svd_t = Svd::jacobi(&a.transpose())?;
            return Ok(Svd { u: svd_t.v, s: svd_t.s, v: svd_t.u });
        }
        let (m, n) = a.shape();
        if n == 0 {
            return Ok(Svd { u: Matrix::zeros(m, 0), s: vec![], v: Matrix::zeros(0, 0) });
        }
        let mut u = a.clone();
        let mut v = Matrix::identity(n);
        let scale = a.fro_norm().max(1e-300);
        let tol = crate::DEFAULT_TOL * scale * scale;
        let max_sweeps = 64;
        let mut sweeps = 0;
        loop {
            sweeps += 1;
            let mut rotated = false;
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let (app, aqq, apq) = {
                        let cp = u.col(p);
                        let cq = u.col(q);
                        (vecops::dot(cp, cp), vecops::dot(cq, cq), vecops::dot(cp, cq))
                    };
                    if apq.abs() <= tol.max(1e-30 * app.max(aqq)) {
                        continue;
                    }
                    rotated = true;
                    // Rotation annihilating the (p,q) inner product.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for i in 0..m {
                        let uip = u.get(i, p);
                        let uiq = u.get(i, q);
                        u.set(i, p, c * uip - s * uiq);
                        u.set(i, q, s * uip + c * uiq);
                    }
                    for i in 0..n {
                        let vip = v.get(i, p);
                        let viq = v.get(i, q);
                        v.set(i, p, c * vip - s * viq);
                        v.set(i, q, s * vip + c * viq);
                    }
                }
            }
            if !rotated {
                break;
            }
            if sweeps >= max_sweeps {
                return Err(LinalgError::NoConvergence { iterations: sweeps });
            }
        }
        // Column norms are the singular values.
        let mut s: Vec<f64> = (0..n).map(|j| vecops::norm2(u.col(j))).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| s[j].partial_cmp(&s[i]).unwrap());
        let mut u_sorted = u.select_cols(&order);
        let v_sorted = v.select_cols(&order);
        s = order.iter().map(|&i| s[i]).collect();
        // Normalize U columns; columns with σ at roundoff level would
        // normalize into noise, so they get an orthonormal fill instead.
        let floor = s.first().copied().unwrap_or(0.0) * 1e-12;
        for (j, &sj) in s.iter().enumerate().take(n) {
            if sj > floor {
                vecops::scale(1.0 / sj, u_sorted.col_mut(j));
            }
        }
        fill_null_columns(&mut u_sorted, &s, floor);
        Ok(Svd { u: u_sorted, s, v: v_sorted })
    }

    /// Gram-matrix thin SVD for tall matrices (`rows ≥ cols`).
    pub fn gram(a: &Matrix) -> Result<Svd> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                expected: "rows >= cols for Gram SVD".into(),
                found: format!("{m} x {n}"),
            });
        }
        if n == 0 {
            return Ok(Svd { u: Matrix::zeros(m, 0), s: vec![], v: Matrix::zeros(0, 0) });
        }
        let eig = SymEigen::compute(&a.gram())?;
        let s: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let u = Svd::left_vectors(a, &eig.vectors, &s, n)?;
        Ok(Svd { u, s, v: eig.vectors })
    }

    /// The leading `k` left singular vectors of `a` from its right
    /// vectors `v` and singular values `s` (the eigenpairs of `aᵀa`):
    /// `U_k = A·V_k·Σ_k⁻¹`, so only the retained modes are formed.
    ///
    /// Because the Gram matrix squares the condition number, σ below
    /// `1e-7·σ₁` (~√eps) cannot be trusted; those columns are replaced
    /// by an orthonormal fill, so `U_k` always has orthonormal columns.
    pub fn left_vectors(a: &Matrix, v: &Matrix, s: &[f64], k: usize) -> Result<Matrix> {
        let floor = s.first().copied().unwrap_or(0.0) * 1e-7;
        let mut u = a.matmul(&v.take_cols(k))?;
        for (j, &sj) in s[..k].iter().enumerate() {
            if sj > floor {
                vecops::scale(1.0 / sj, u.col_mut(j));
            } else {
                u.col_mut(j).fill(0.0);
            }
        }
        fill_null_columns(&mut u, &s[..k], floor);
        Ok(u)
    }

    /// Numerical rank: count of `σ_i > rel_tol · σ₁`.
    pub fn rank(&self, rel_tol: f64) -> usize {
        match self.s.first() {
            None => 0,
            Some(&s0) if s0 <= 0.0 => 0,
            Some(&s0) => self.s.iter().take_while(|&&x| x > rel_tol * s0).count(),
        }
    }

    /// Reconstruct `U Σ Vᵀ` (testing / truncation).
    pub fn reconstruct(&self) -> Matrix {
        let us = {
            let mut us = self.u.clone();
            for j in 0..self.s.len() {
                vecops::scale(self.s[j], us.col_mut(j));
            }
            us
        };
        us.matmul(&self.v.transpose()).expect("svd factors consistent")
    }

    /// Truncate to the leading `k` modes.
    pub fn truncate(&self, k: usize) -> Svd {
        let k = k.min(self.s.len());
        Svd { u: self.u.take_cols(k), s: self.s[..k].to_vec(), v: self.v.take_cols(k) }
    }

    /// Energy (Σσ²) captured by the leading `k` modes, as a fraction of total.
    pub fn energy_fraction(&self, k: usize) -> f64 {
        let total: f64 = self.s.iter().map(|s| s * s).sum();
        if total == 0.0 {
            return 1.0;
        }
        let lead: f64 = self.s.iter().take(k).map(|s| s * s).sum();
        lead / total
    }
}

/// Replace zero columns of `u` (σ at/below `floor`) with vectors
/// orthonormal to the existing columns, so `U` always has orthonormal
/// columns even for rank-deficient inputs.
fn fill_null_columns(u: &mut Matrix, s: &[f64], floor: f64) {
    let m = u.rows();
    for (j, &sj) in s.iter().enumerate() {
        if sj > floor && sj > 0.0 {
            continue;
        }
        // Try coordinate vectors until one survives orthogonalization.
        'candidates: for cand in 0..m {
            let mut v = vec![0.0; m];
            v[cand] = 1.0;
            for jj in 0..u.cols() {
                if jj == j {
                    continue;
                }
                let p = vecops::dot(u.col(jj), &v);
                vecops::axpy(-p, u.col(jj), &mut v);
            }
            let nv = vecops::norm2(&v);
            if nv > 0.5 / (m as f64) {
                vecops::scale(1.0 / nv, &mut v);
                u.col_mut(j).copy_from_slice(&v);
                break 'candidates;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_svd(a: &Matrix, svd: &Svd, tol: f64) {
        // U orthonormal
        let utu = svd.u.gram();
        assert!(
            utu.sub(&Matrix::identity(svd.u.cols())).unwrap().max_abs() < tol,
            "U not orthonormal"
        );
        // V orthonormal
        let vtv = svd.v.gram();
        assert!(
            vtv.sub(&Matrix::identity(svd.v.cols())).unwrap().max_abs() < tol,
            "V not orthonormal"
        );
        // Reconstruction
        let recon = svd.reconstruct();
        assert!(
            recon.sub(a).unwrap().max_abs() < tol * a.fro_norm().max(1.0),
            "bad reconstruction"
        );
        // Descending σ ≥ 0
        for k in 0..svd.s.len() {
            assert!(svd.s[k] >= 0.0);
            if k > 0 {
                assert!(svd.s[k - 1] >= svd.s[k] - 1e-12);
            }
        }
    }

    fn wavy(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| ((i * 3 + j * 5) as f64 * 0.21).sin() + 0.1 * (i as f64))
    }

    #[test]
    fn jacobi_tall() {
        let a = wavy(10, 4);
        let svd = Svd::jacobi(&a).unwrap();
        check_svd(&a, &svd, 1e-10);
    }

    #[test]
    fn jacobi_wide() {
        let a = wavy(4, 9);
        let svd = Svd::jacobi(&a).unwrap();
        assert_eq!(svd.u.shape(), (4, 4));
        assert_eq!(svd.v.shape(), (9, 4));
        check_svd(&a, &svd, 1e-10);
    }

    #[test]
    fn gram_matches_jacobi_values() {
        let a = wavy(30, 5);
        let sj = Svd::jacobi(&a).unwrap();
        let sg = Svd::gram(&a).unwrap();
        for (x, y) in sj.s.iter().zip(sg.s.iter()) {
            assert!((x - y).abs() < 1e-7 * sj.s[0].max(1.0), "{x} vs {y}");
        }
        check_svd(&a, &sg, 1e-6);
    }

    #[test]
    fn known_singular_values() {
        // diag(3, 2) embedded in 3x2.
        let mut a = Matrix::zeros(3, 2);
        a.set(0, 0, 3.0);
        a.set(1, 1, 2.0);
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.s[0] - 3.0).abs() < 1e-12);
        assert!((svd.s[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_input() {
        // Two identical columns -> rank 1, but U must still be orthonormal.
        let mut a = Matrix::zeros(6, 2);
        for i in 0..6 {
            a.set(i, 0, (i + 1) as f64);
            a.set(i, 1, (i + 1) as f64);
        }
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(1e-9), 1);
        let utu = svd.u.gram();
        assert!(utu.sub(&Matrix::identity(2)).unwrap().max_abs() < 1e-9);
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn truncation_energy() {
        let a = {
            // σ = 4, 2, 1 built explicitly.
            let u = Matrix::identity(5).take_cols(3);
            let v = Matrix::identity(3);
            let mut us = u.clone();
            for (j, s) in [4.0, 2.0, 1.0].iter().enumerate() {
                vecops::scale(*s, us.col_mut(j));
            }
            us.matmul(&v.transpose()).unwrap()
        };
        let svd = Svd::compute(&a).unwrap();
        let f1 = svd.energy_fraction(1);
        assert!((f1 - 16.0 / 21.0).abs() < 1e-10);
        let t = svd.truncate(2);
        assert_eq!(t.s.len(), 2);
        assert_eq!(t.u.cols(), 2);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let svd = Svd::compute(&a).unwrap();
        assert!(svd.s.iter().all(|&s| s == 0.0));
        assert_eq!(svd.rank(1e-12), 0);
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(5, 0);
        let svd = Svd::compute(&a).unwrap();
        assert!(svd.s.is_empty());
    }

    #[test]
    fn gram_rejects_wide() {
        assert!(Svd::gram(&Matrix::zeros(2, 5)).is_err());
    }
}

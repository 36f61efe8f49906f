//! Symmetric eigendecomposition by Householder tridiagonalisation and
//! implicit-shift QL (EISPACK `tred2` / `tql2`).
//!
//! ESSE's error subspace is the dominant eigenspace of the (normalized)
//! ensemble covariance; the Gram-matrix SVD path reduces to this solver.
//! The result depends on the input alone (no random shifts, no starting
//! guess), so equal matrices give equal bits.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// QL iterations allowed per eigenvalue before giving up (EISPACK's 30).
const MAX_QL_ITERATIONS: usize = 30;

/// Eigendecomposition `A = V Λ Vᵀ` of a symmetric matrix, eigenvalues
/// sorted descending.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, matching `values` order.
    pub vectors: Matrix,
}

impl SymEigen {
    /// Compute the eigendecomposition of symmetric `a`. Non-square or
    /// asymmetric (beyond `1e-8·‖a‖_F`) input is a `DimensionMismatch`;
    /// non-finite input, or QL out of iterations, is `NoConvergence`.
    pub fn compute(a: &Matrix) -> Result<SymEigen> {
        let (m, n) = a.shape();
        if m != n {
            return Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{m} x {n}"),
            });
        }
        if n == 0 {
            return Ok(SymEigen { values: vec![], vectors: Matrix::zeros(0, 0) });
        }
        let asym = a.asymmetry();
        let scale = a.fro_norm();
        if !scale.is_finite() {
            return Err(LinalgError::NoConvergence { iterations: 0 });
        }
        if asym > 1e-8 * scale.max(1e-300) {
            return Err(LinalgError::DimensionMismatch {
                expected: "symmetric matrix".into(),
                found: format!("asymmetry {asym:e}"),
            });
        }
        let mut v = a.clone();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(v.as_mut_slice(), n, &mut d, &mut e);
        ql_implicit(v.as_mut_slice(), n, &mut d, &mut e)?;
        // Sort descending; the stable sort keeps equal eigenvalues in
        // the order QL produced them.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
        let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
        let vectors = v.select_cols(&order);
        Ok(SymEigen { values, vectors })
    }

    /// Number of eigenvalues above `frac * λ_max` — the "dominant" count.
    pub fn dominant_count(&self, frac: f64) -> usize {
        if self.values.is_empty() {
            return 0;
        }
        let cut = self.values[0].max(0.0) * frac;
        self.values.iter().take_while(|&&v| v > cut).count()
    }
}

/// Householder reduction of the symmetric matrix in `v` (column-major,
/// `n × n`) to tridiagonal form (`tred2`). On return `d` holds the
/// diagonal, `e[1..]` the subdiagonal, and `v` the accumulated
/// orthogonal transformation.
fn tridiagonalize(v: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for j in 0..n {
        d[j] = v[j * n + n - 1];
    }
    for i in (1..n).rev() {
        // Scale the row to avoid under/overflow.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[j * n + i - 1];
                v[j * n + i] = 0.0;
                v[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Apply the similarity transformation to the remaining columns.
            for j in 0..i {
                let f = d[j];
                v[i * n + j] = f;
                let col = &v[j * n..j * n + i];
                let mut g = e[j] + col[j] * f;
                for k in j + 1..i {
                    g += col[k] * d[k];
                    e[k] += col[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let col = &mut v[j * n..j * n + i];
                for k in j..i {
                    col[k] -= f * e[k] + g * d[k];
                }
                d[j] = col[i - 1];
                v[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..n - 1 {
        v[i * n + n - 1] = v[i * n + i];
        v[i * n + i] = 1.0;
        let h = d[i + 1];
        let (lead, next) = v.split_at_mut((i + 1) * n);
        let next = &mut next[..=i];
        if h != 0.0 {
            for (dk, x) in d.iter_mut().zip(next.iter()) {
                *dk = x / h;
            }
            for col in lead.chunks_exact_mut(n) {
                let col = &mut col[..=i];
                let g: f64 = next.iter().zip(col.iter()).map(|(x, y)| x * y).sum();
                for (c, dk) in col.iter_mut().zip(d.iter()) {
                    *c -= g * dk;
                }
            }
        }
        next.fill(0.0);
    }
    for j in 0..n {
        d[j] = v[j * n + n - 1];
        v[j * n + n - 1] = 0.0;
    }
    v[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` (`tql2`), rotating the
/// columns of `v` along. On return `d` holds the eigenvalues (unsorted)
/// and the columns of `v` the matching eigenvectors.
fn ql_implicit(v: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1: f64 = 0.0;
    for l in 0..n {
        // Find a negligible subdiagonal element.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let small = f64::EPSILON * tst1;
        let mut m = l;
        while m + 1 < n && e[m].abs() > small {
            m += 1;
        }
        // If m == l, d[l] is an eigenvalue; otherwise iterate.
        let mut iterations = 0;
        while m > l && e[l].abs() > small {
            if iterations == MAX_QL_ITERATIONS {
                return Err(LinalgError::NoConvergence { iterations });
            }
            iterations += 1;
            // Implicit shift.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for di in &mut d[l + 2..] {
                *di -= h;
            }
            f += h;
            // Implicit QL transformation.
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                // Accumulate the rotation into columns i and i+1.
                let (lo, hi) = v[i * n..(i + 2) * n].split_at_mut(n);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let h = *y;
                    *y = s * *x + c * h;
                    *x = c * *x - s * h;
                }
            }
            let p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// `VᵀV = I`, `AV = VΛ` and the trace to `1e-12·‖A‖`, descending order.
    fn check_decomposition(a: &Matrix) -> SymEigen {
        let n = a.rows();
        let e = SymEigen::compute(a).unwrap();
        assert_eq!(e.values.len(), n);
        assert_eq!(e.vectors.shape(), (n, n));
        let scale = a.fro_norm().max(f64::MIN_POSITIVE);
        let vtv = e.vectors.gram();
        assert!(vtv.sub(&Matrix::identity(n)).unwrap().max_abs() < 1e-12, "V not orthogonal");
        let av = a.matmul(&e.vectors).unwrap();
        let vl = e.vectors.matmul(&Matrix::from_diag(&e.values)).unwrap();
        let residual = av.sub(&vl).unwrap().max_abs();
        assert!(residual <= 1e-12 * scale, "n={n}: |AV - VΛ| = {residual:e}");
        let sum: f64 = e.values.iter().sum();
        assert!((sum - a.trace()).abs() <= 1e-12 * scale * n as f64, "trace drifted");
        assert!(e.values.windows(2).all(|w| w[0] >= w[1]), "not descending");
        e
    }

    #[test]
    fn diagonal_matrix_eigen() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = check_decomposition(&a);
        assert_eq!(e.values, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_col_major(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = SymEigen::compute(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10 || (v0[0] + v0[1]).abs() < 1e-10);
    }

    #[test]
    fn dense_symmetric_at_every_size() {
        for n in [1usize, 2, 3, 17, 64, 160] {
            let b = lcg_matrix(n, n, n as u64);
            let a = b.add(&b.transpose()).unwrap().scaled(0.5);
            check_decomposition(&a);
        }
    }

    #[test]
    fn gram_matrices_at_every_size() {
        // The production input: DᵀD of a tall difference matrix.
        for n in [1usize, 2, 3, 17, 64, 160] {
            let e = check_decomposition(&lcg_matrix(3 * n + 5, n, 100 + n as u64).gram());
            assert!(e.values[n - 1] > 0.0, "full-rank Gram is positive definite");
        }
    }

    #[test]
    fn repeated_eigenvalues() {
        // Q diag(5,5,5,2,2,-1) Qᵀ with Q from a QR of a random matrix.
        let q = crate::qr::Qr::compute(&lcg_matrix(6, 6, 9)).unwrap().q;
        let lam = [5.0, 5.0, 5.0, 2.0, 2.0, -1.0];
        let a = q.matmul(&Matrix::from_diag(&lam)).unwrap().matmul(&q.transpose()).unwrap();
        let a = a.add(&a.transpose()).unwrap().scaled(0.5);
        let e = check_decomposition(&a);
        for (got, want) in e.values.iter().zip(lam.iter()) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        check_decomposition(&Matrix::identity(17).scaled(4.0));
    }

    #[test]
    fn graded_spectrum() {
        // Eigenvalues 1, 1e-1, …, 1e-14: the small ones keep absolute
        // (not relative) accuracy, which is all a Gram path can use.
        let lam: Vec<f64> = (0..15).map(|k| 10f64.powi(-k)).collect();
        let q = crate::qr::Qr::compute(&lcg_matrix(15, 15, 4)).unwrap().q;
        let a = q.matmul(&Matrix::from_diag(&lam)).unwrap().matmul(&q.transpose()).unwrap();
        let a = a.add(&a.transpose()).unwrap().scaled(0.5);
        let e = check_decomposition(&a);
        for (got, want) in e.values.iter().zip(lam.iter()) {
            assert!((got - want).abs() < 1e-14, "{got:e} vs {want:e}");
        }
        check_decomposition(&Matrix::from_diag(&lam));
    }

    #[test]
    fn rank_deficient_gram_from_duplicated_columns() {
        let mut d = lcg_matrix(40, 6, 21);
        for dup in [0usize, 2, 2] {
            let col = d.col(dup).to_vec();
            d.push_col(&col).unwrap();
        }
        let e = check_decomposition(&d.gram());
        // Rank 6 of 9: three eigenvalues at roundoff of λ₁.
        assert!(e.values[5] > 1e-3 * e.values[0]);
        for &tail in &e.values[6..] {
            assert!(tail.abs() < 1e-13 * e.values[0], "null eigenvalue {tail:e}");
        }
    }

    #[test]
    fn equal_inputs_give_equal_bits() {
        let g = lcg_matrix(200, 24, 5).gram();
        let (a, b) = (SymEigen::compute(&g).unwrap(), SymEigen::compute(&g.clone()).unwrap());
        assert_eq!(a.values, b.values);
        assert_eq!(a.vectors, b.vectors);
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_col_major(2, 2, vec![1.0, 5.0, 0.0, 1.0]);
        assert!(matches!(SymEigen::compute(&a), Err(LinalgError::DimensionMismatch { .. })));
        assert!(matches!(
            SymEigen::compute(&Matrix::zeros(2, 3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        let mut a = Matrix::identity(3);
        a.set(1, 1, f64::NAN);
        assert_eq!(
            SymEigen::compute(&a).unwrap_err(),
            LinalgError::NoConvergence { iterations: 0 }
        );
    }

    #[test]
    fn dominant_count_cutoff() {
        let a = Matrix::from_diag(&[100.0, 50.0, 1.0, 0.1]);
        let e = SymEigen::compute(&a).unwrap();
        assert_eq!(e.dominant_count(0.1), 2); // > 10.0
        assert_eq!(e.dominant_count(0.0001), 4);
    }

    #[test]
    fn empty_matrix() {
        let e = SymEigen::compute(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }
}

//! Column-major dense matrix.
//!
//! Columns are contiguous: in ESSE a column is one ensemble member's
//! state (or difference from the central forecast), so "append a member"
//! and "hand a member to a task" are slice operations.

use crate::{LinalgError, Result};

/// Dense `rows × cols` matrix of `f64`, column-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix from a closure `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.data[j * rows + i] = f(i, j);
            }
        }
        m
    }

    /// Create from column-major data. Panics if `data.len() != rows*cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Create from a slice of columns; all columns must share a length.
    pub fn from_cols(cols: &[Vec<f64>]) -> Result<Self> {
        if cols.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let rows = cols[0].len();
        for (j, c) in cols.iter().enumerate() {
            if c.len() != rows {
                return Err(LinalgError::DimensionMismatch {
                    expected: format!("column length {rows}"),
                    found: format!("column {j} has length {}", c.len()),
                });
            }
        }
        let mut data = Vec::with_capacity(rows * cols.len());
        for c in cols {
            data.extend_from_slice(c);
        }
        Ok(Matrix { rows, cols: cols.len(), data })
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Diagonal matrix from entries.
    pub fn from_diag(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &di) in d.iter().enumerate() {
            m.data[i * n + i] = di;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// Contiguous view of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable contiguous view of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copy of row `i` (strided access).
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.cols).map(|j| self.get(i, j)).collect()
    }

    /// Underlying column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the column-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Append a column (the ensemble "add member" operation).
    pub fn push_col(&mut self, col: &[f64]) -> Result<()> {
        if self.cols == 0 && self.rows == 0 {
            self.rows = col.len();
        }
        if col.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("column of length {}", self.rows),
                found: format!("length {}", col.len()),
            });
        }
        self.data.extend_from_slice(col);
        self.cols += 1;
        Ok(())
    }

    /// Matrix with the first `k` columns of `self`.
    pub fn take_cols(&self, k: usize) -> Matrix {
        assert!(k <= self.cols);
        Matrix { rows: self.rows, cols: k, data: self.data[..k * self.rows].to_vec() }
    }

    /// Matrix made of the listed columns, in order.
    pub fn select_cols(&self, idx: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(self.rows, idx.len());
        for (jj, &j) in idx.iter().enumerate() {
            m.col_mut(jj).copy_from_slice(self.col(j));
        }
        m
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t.data[i * self.cols + j] = self.data[j * self.rows + i];
            }
        }
        t
    }

    /// `self * other` (single-threaded; see [`crate::ctx::LinalgCtx`] for
    /// the blocked/threaded engine entrypoint).
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        crate::gemm::gemm_serial(self, other)
    }

    /// `self * v` for a vector `v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("length {}", v.len()),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (j, &x) in v.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let cj = self.col(j);
            for i in 0..self.rows {
                y[i] += cj[i] * x;
            }
        }
        Ok(y)
    }

    /// `selfᵀ * v`.
    pub fn tr_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {}", self.rows),
                found: format!("length {}", v.len()),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (j, yj) in y.iter_mut().enumerate() {
            *yj = crate::vecops::dot(self.col(j), v);
        }
        Ok(y)
    }

    /// Gram matrix `selfᵀ * self` (symmetric, `cols × cols`), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        self.gram_extending(&Matrix::zeros(0, 0))
    }

    /// Gram matrix of `self`, given the Gram matrix `lead` of its first
    /// `lead.cols()` columns: only the rows and columns of the later
    /// columns are computed. Every entry is one [`crate::vecops::dot`]
    /// of two columns, so the result is bitwise equal to [`Self::gram`]
    /// however the columns were split between calls.
    pub fn gram_extending(&self, lead: &Matrix) -> Matrix {
        let (n, n0) = (self.cols, lead.cols);
        assert!(lead.rows == n0 && n0 <= n, "lead must be the Gram matrix of leading columns");
        let mut g = Matrix::zeros(n, n);
        for j in 0..n0 {
            g.col_mut(j)[..n0].copy_from_slice(lead.col(j));
        }
        for j in n0..n {
            for i in 0..=j {
                let v = crate::vecops::dot(self.col(i), self.col(j));
                g.set(i, j, v);
                g.set(j, i, v);
            }
        }
        g
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{:?}", self.shape()),
                found: format!("{:?}", other.shape()),
            });
        }
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Scale every entry in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Sum of diagonal entries (square matrices).
    pub fn trace(&self) -> f64 {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).sum()
    }

    /// Largest symmetry violation `|a_ij - a_ji|`.
    pub fn asymmetry(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for j in 0..self.cols {
            for i in 0..j.min(self.rows) {
                worst = worst.max((self.get(i, j) - self.get(j, i)).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.shape(), (3, 2));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 0), 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn column_views_are_contiguous() {
        let m = Matrix::from_fn(4, 3, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.col(1), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(m.row(2), vec![2.0, 12.0, 22.0]);
    }

    #[test]
    fn push_col_grows_matrix() {
        let mut m = Matrix::zeros(0, 0);
        m.push_col(&[1.0, 2.0]).unwrap();
        m.push_col(&[3.0, 4.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 1), 4.0);
        assert!(m.push_col(&[1.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let i = Matrix::identity(3);
        assert_eq!(m.matmul(&i).unwrap(), m);
    }

    #[test]
    fn matmul_known_values() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Matrix::from_col_major(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        let b = Matrix::from_col_major(2, 2, vec![5.0, 7.0, 6.0, 8.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_fn(4, 3, |i, j| (i as f64 - j as f64) * 0.5);
        let v = vec![1.0, -2.0, 3.0];
        let got = a.matvec(&v).unwrap();
        let vm = Matrix::from_col_major(3, 1, v);
        let want = a.matmul(&vm).unwrap();
        assert_eq!(got, want.col(0));
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64).sin());
        let g = a.gram();
        assert!(g.asymmetry() < 1e-15);
        for i in 0..3 {
            assert!(g.get(i, i) >= 0.0);
        }
    }

    #[test]
    fn gram_extending_matches_gram_bitwise() {
        let a = Matrix::from_fn(37, 9, |i, j| ((i * 7 + j * 13) as f64 * 0.11).sin());
        let full = a.gram();
        let mut carried = Matrix::zeros(0, 0);
        for upto in [1, 2, 5, 5, 9] {
            carried = a.take_cols(upto).gram_extending(&carried);
            assert_eq!(carried.shape(), (upto, upto));
        }
        assert_eq!(carried, full);
    }

    #[test]
    fn tr_matvec_matches_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 5 + j) as f64 * 0.1);
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let got = a.tr_matvec(&v).unwrap();
        let want = a.transpose().matvec(&v).unwrap();
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-14);
        }
    }

    #[test]
    fn dimension_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(a.add(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn select_and_take_cols() {
        let m = Matrix::from_fn(2, 4, |i, j| (j * 10 + i) as f64);
        let t = m.take_cols(2);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.col(1), &[10.0, 11.0]);
        let s = m.select_cols(&[3, 0]);
        assert_eq!(s.col(0), &[30.0, 31.0]);
        assert_eq!(s.col(1), &[0.0, 1.0]);
    }
}

//! Dense row-major f64 matrices: the f64 model's, the trainer's and the
//! graph runtime's one matrix type (the mixed-precision engine keeps its
//! f32 weights in flat `Vec<f32>`s).
//!
//! DeePMD inference is dominated by small dense GEMMs (the fitting net is a
//! 3-layer 240×240 MLP evaluated on a tall-and-skinny batch of atoms), so a
//! simple contiguous row-major layout is both sufficient and optimal: rows of
//! `B` stream linearly through cache exactly the way the paper's sve-gemm
//! wants them.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Matrix { rows, cols, data }
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The backing row-major slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transposed matrix (fresh allocation).
    ///
    /// The paper preprocesses fitting-net parameter matrices into transposed
    /// form once at startup so every GEMM-NT in the backward pass becomes a
    /// GEMM-NN; this is the primitive that enables that conversion.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:?} ", self.data[r * self.cols + c])?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m[(2, 3)], 23.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 5);
        assert_eq!(t[(2, 4)], m[(4, 2)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_length_checked() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn frobenius_norm_matches_hand_value() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 0.0, 4.0, 0.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}

//! Row-major dense matrix with first-class row access.

use std::fmt;

use crate::gemm::{self, SumOrder};
use crate::rng::DetRng;

/// Error returned when two matrices (or a matrix and a vector) have
/// incompatible shapes for the requested operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    msg: String,
}

impl ShapeError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}

/// A row-major dense `f32` matrix.
///
/// Rows are the unit ROG schedules, so row views ([`Matrix::row`],
/// [`Matrix::row_mut`]) are guaranteed to be contiguous slices.
///
/// # Example
///
/// ```
/// use rog_tensor::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
/// assert_eq!(m.get(1, 2), 3.0);
/// assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix from a closure called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "expected {rows}x{cols}={} elements, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Stacks equal-width rows into a matrix (`0 x 0` for no rows).
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        let cols = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().map(AsRef::as_ref).enumerate() {
            assert_eq!(row.len(), cols, "ragged rows: row {i} vs row 0");
            data.extend_from_slice(row);
        }
        Self::from_vec(rows.len(), cols, data).expect("every row is cols wide")
    }

    /// Creates a matrix of i.i.d. normal samples with standard deviation `std`.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut DetRng) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.normal() as f32 * std;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Contiguous view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable contiguous view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Flat row-major view of all elements.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view of all elements.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `y = self * x` (matrix-vector product).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        self.iter_rows()
            .map(|row| crate::ops::dot(row, x))
            .collect()
    }

    /// `y = self^T * x` (transposed matrix-vector product).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        gemm::add_scaled_rows(&mut y, &self.data, self.cols, |_, r| x[r]);
        y
    }

    /// Accumulates the outer product: `self += scale * a * b^T`.
    ///
    /// Used for gradient accumulation in backprop (`dW += dy ⊗ x`).
    /// Rows whose `a[r] * scale` is zero are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.rows()` or `b.len() != self.cols()`.
    pub fn add_outer(&mut self, a: &[f32], b: &[f32], scale: f32) {
        assert_eq!(a.len(), self.rows, "add_outer row mismatch");
        assert_eq!(b.len(), self.cols, "add_outer col mismatch");
        gemm::add_scaled_rows(&mut self.data, b, self.cols, |r, _| a[r] * scale);
    }

    /// [`Matrix::add_outer`] of every row pair in order,
    /// `self += scale * Σ_r a_r ⊗ b_r`: bit for bit the per-sample loop,
    /// as the batched weight gradient `dW += scale * dZᵀ · A`.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != b.rows()`, `a.cols() != self.rows()` or
    /// `b.cols() != self.cols()`.
    pub fn add_outer_batch(&mut self, a: &Matrix, b: &Matrix, scale: f32) {
        assert_eq!(a.rows, b.rows, "add_outer_batch batch mismatch");
        assert_eq!(a.cols, self.rows, "add_outer_batch row mismatch");
        assert_eq!(b.cols, self.cols, "add_outer_batch col mismatch");
        let n = a.cols;
        gemm::add_scaled_rows(&mut self.data, &b.data, self.cols, |o, r| {
            a.data[r * n + o] * scale
        });
    }

    /// `self += scale * other`, element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(format!(
                "add_scaled {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Mean of absolute values over the whole matrix (0 for empty).
    pub fn mean_abs(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        crate::ops::sum_abs(&self.data) / self.data.len() as f32
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        crate::ops::sum_sq(&self.data).sqrt()
    }

    /// Reshapes to `rows x cols` in place, keeping the allocation when
    /// it is large enough; the contents are unspecified afterwards.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// `out = self * other^T` (both operands row-major), `out` reshaped
    /// to fit.
    ///
    /// This is the dense-layer forward: with activations `A` (batch x
    /// in) and weights `W` (out x in), the pre-activations are `A * W^T`
    /// (batch x out). `other` is packed into `panels` (scratch, reused
    /// across calls) eight or, under AVX-512, sixteen outputs wide and
    /// every output is summed in `order`, bit-identical to the scalar
    /// dot product it names.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transb_into(
        &self,
        other: &Matrix,
        order: SumOrder,
        panels: &mut Vec<f32>,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transb inner dimension mismatch"
        );
        out.reshape(self.rows, other.rows);
        let (k, n) = (self.cols, other.rows);
        gemm::matmul_transb(&self.data, &other.data, k, n, order, panels, &mut out.data);
    }

    /// [`Matrix::matmul_transb_into`] in [`SumOrder::Four`] with a fresh
    /// output and scratch.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_transb_into(other, SumOrder::Four, &mut Vec::new(), &mut out);
        out
    }

    /// `out = self * other` (row-major matrix product), `out` reshaped
    /// to fit.
    ///
    /// Each output row sums, in `k` order, the rows of `other` scaled
    /// by the non-zero scalars of the same row of `self`: the i-k-j
    /// loop, with zero scalars skipped, which makes the ReLU-sparse
    /// backward pass (`dA = dZ * W`) cheaper.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        out.reshape(self.rows, other.cols);
        out.fill_zero();
        let k = self.cols;
        gemm::add_scaled_rows(&mut out.data, &other.data, other.cols, |i, t| {
            self.data[i * k + t]
        });
    }

    /// [`Matrix::matmul_into`] with a fresh output.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"));
    }

    #[test]
    fn from_rows_stacks_in_order() {
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.row(2), &[5.0, 6.0]);
        assert_eq!(Matrix::from_rows::<[f32; 0]>(&[]).shape(), (0, 0));
    }

    #[test]
    fn row_views_are_contiguous() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.row(0), &[0.0, 1.0]);
        assert_eq!(m.row(2), &[20.0, 21.0]);
    }

    #[test]
    fn row_mut_writes_back() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.get(1, 0), 7.0);
    }

    #[test]
    fn matvec_identity() {
        let eye = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(eye.matvec(&x), x);
    }

    #[test]
    fn matvec_t_matches_manual_transpose() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let x = vec![1.0, 10.0];
        // m^T x = [1+40, 2+50, 3+60]
        assert_eq!(m.matvec_t(&x), vec![41.0, 52.0, 63.0]);
    }

    #[test]
    fn add_outer_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0], 1.0);
        assert_eq!(m.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
        m.add_outer(&[1.0, 1.0], &[1.0, 1.0], -1.0);
        assert_eq!(m.as_slice(), &[2.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn add_scaled_rejects_shape_mismatch() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.add_scaled(&b, 1.0).is_err());
    }

    #[test]
    fn mean_abs_and_norm() {
        let m = Matrix::from_vec(1, 4, vec![1.0, -1.0, 2.0, -2.0]).unwrap();
        assert!((m.mean_abs() - 1.5).abs() < 1e-6);
        assert!((m.frobenius_norm() - 10.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.mean_abs(), 0.0);
        assert_eq!(m.iter_rows().count(), 0);
    }

    #[test]
    #[should_panic(expected = "row index out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m.row(1);
    }

    #[test]
    fn matmul_transb_matches_per_element_reference() {
        // 3x7 times (6x7)^T exercises both the 4-wide block and the
        // remainder columns.
        let a = Matrix::from_fn(3, 7, |r, c| ((r * 7 + c) as f32 * 0.13).sin());
        let b = Matrix::from_fn(6, 7, |r, c| ((r * 7 + c) as f32 * 0.29).cos());
        let out = a.matmul_transb(&b);
        assert_eq!(out.shape(), (3, 6));
        for i in 0..3 {
            for j in 0..6 {
                let want: f32 = a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
                assert!(
                    (out.get(i, j) - want).abs() < 1e-4,
                    "({i},{j}): {} vs {want}",
                    out.get(i, j)
                );
            }
        }
    }

    #[test]
    fn matmul_matches_per_element_reference() {
        let a = Matrix::from_fn(4, 5, |r, c| (r as f32 - c as f32) * 0.5);
        let b = Matrix::from_fn(5, 3, |r, c| ((r + 2 * c) as f32 * 0.17).sin());
        let out = a.matmul(&b);
        assert_eq!(out.shape(), (4, 3));
        for i in 0..4 {
            for j in 0..3 {
                let want: f32 = (0..5).map(|k| a.get(i, k) * b.get(k, j)).sum();
                assert!(
                    (out.get(i, j) - want).abs() < 1e-4,
                    "({i},{j}): {} vs {want}",
                    out.get(i, j)
                );
            }
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let eye = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&eye).as_slice(), a.as_slice());
        assert_eq!(a.matmul_transb(&eye).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_rows_agree_with_matvec() {
        // Row i of A*W^T must equal W * (row i of A): the batched
        // forward pass is the per-sample one stacked.
        let a = Matrix::from_fn(5, 9, |r, c| ((r * 9 + c) as f32 * 0.07).sin());
        let w = Matrix::from_fn(6, 9, |r, c| ((r * 9 + c) as f32 * 0.11).cos());
        let z = a.matmul_transb(&w);
        for i in 0..5 {
            let per_sample = w.matvec(a.row(i));
            for (got, want) in z.row(i).iter().zip(&per_sample) {
                // `SumOrder::Four` and `dot` keep different partial
                // sums, so they agree only up to rounding.
                assert!((got - want).abs() < 1e-4, "row {i}: {got} vs {want}");
            }
        }
    }
}

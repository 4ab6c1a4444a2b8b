//! Global row addressing across a model's parameter matrices.
//!
//! Sec. III-A: transmitting sub-model units requires indexing them.
//! Element granularity would double traffic (one `int32` index per
//! `float32` value); layer granularity indexes cheaply but single layers
//! are still large. Rows cost one index per row — 0.24 % of model size in
//! the paper's ConvMLP.

use std::fmt;

use rog_tensor::Matrix;

/// Identifier of one parameter row, global across the whole model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub usize);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

/// Location of a global row inside the parameter list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRef {
    /// Index of the matrix in the parameter list.
    pub matrix: usize,
    /// Row index within that matrix.
    pub row: usize,
}

/// Maps global [`RowId`]s to matrix rows and back.
///
/// # Example
///
/// ```
/// use rog_core::{RowId, RowPartition};
/// use rog_tensor::Matrix;
///
/// let params = vec![Matrix::zeros(2, 3), Matrix::zeros(1, 5)];
/// let part = RowPartition::of_params(&params);
/// assert_eq!(part.n_rows(), 3);
/// assert_eq!(part.width(RowId(2)), 5);
/// assert_eq!(part.locate(RowId(1)).matrix, 0);
/// assert_eq!(part.locate(RowId(2)).matrix, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    refs: Vec<RowRef>,
    widths: Vec<usize>,
}

impl RowPartition {
    /// Builds a partition from `(rows, cols)` shapes.
    pub fn from_shapes(shapes: &[(usize, usize)]) -> Self {
        let mut refs = Vec::new();
        let mut widths = Vec::new();
        for (mi, &(rows, cols)) in shapes.iter().enumerate() {
            for r in 0..rows {
                refs.push(RowRef { matrix: mi, row: r });
                widths.push(cols);
            }
        }
        Self { refs, widths }
    }

    /// Builds a partition matching a parameter list.
    pub fn of_params(params: &[Matrix]) -> Self {
        Self::from_shapes(&params.iter().map(Matrix::shape).collect::<Vec<_>>())
    }

    /// Total number of rows.
    pub fn n_rows(&self) -> usize {
        self.refs.len()
    }

    /// Width (column count) of a row.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn width(&self, id: RowId) -> usize {
        self.widths[id.0]
    }

    /// All row widths in global order.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Locates a row inside the parameter list.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn locate(&self, id: RowId) -> RowRef {
        self.refs[id.0]
    }

    /// Borrow of the row's values within `params`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `params` does not match the
    /// partition's shapes.
    pub fn row<'a>(&self, params: &'a [Matrix], id: RowId) -> &'a [f32] {
        let r = self.locate(id);
        params[r.matrix].row(r.row)
    }

    /// Mutable borrow of the row's values within `params`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `params` does not match.
    pub fn row_mut<'a>(&self, params: &'a mut [Matrix], id: RowId) -> &'a mut [f32] {
        let r = self.locate(id);
        params[r.matrix].row_mut(r.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_rows_in_order() {
        let params = vec![
            Matrix::zeros(3, 4),
            Matrix::zeros(1, 3),
            Matrix::zeros(2, 4),
        ];
        let p = RowPartition::of_params(&params);
        assert_eq!(p.n_rows(), 6);
        assert_eq!(p.locate(RowId(0)), RowRef { matrix: 0, row: 0 });
        assert_eq!(p.locate(RowId(3)), RowRef { matrix: 1, row: 0 });
        assert_eq!(p.locate(RowId(5)), RowRef { matrix: 2, row: 1 });
        assert_eq!(p.width(RowId(3)), 3);
    }

    #[test]
    fn row_access_reads_and_writes() {
        let mut params = vec![Matrix::zeros(2, 2), Matrix::zeros(1, 3)];
        let p = RowPartition::of_params(&params);
        p.row_mut(&mut params, RowId(2))
            .copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(p.row(&params, RowId(2)), &[7.0, 8.0, 9.0]);
        assert_eq!(params[1].row(0), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn empty_model_is_legal() {
        let p = RowPartition::from_shapes(&[]);
        assert_eq!(p.n_rows(), 0);
    }
}

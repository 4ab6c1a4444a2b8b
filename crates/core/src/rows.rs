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

/// Row payloads packed into one buffer: the row ids, where each row
/// ends, and every row's values back to back. It is what a push or a
/// pull carries between the roles. [`RowBatch::clear`] keeps every
/// capacity, so a batch reused across commits stops touching the heap
/// once it has held the largest one, however the row count moves from
/// one round to the next.
///
/// # Example
///
/// ```
/// use rog_core::{RowBatch, RowId};
///
/// let mut batch = RowBatch::default();
/// batch.push_row(RowId(3), 2).copy_from_slice(&[1.0, 2.0]);
/// batch.push_row(RowId(0), 1)[0] = 5.0;
/// let rows: Vec<_> = batch.iter().collect();
/// assert_eq!(rows, [(RowId(3), &[1.0, 2.0][..]), (RowId(0), &[5.0][..])]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    ids: Vec<RowId>,
    /// Row `i` occupies `values[ends[i - 1]..ends[i]]` (from 0 for the
    /// first row).
    ends: Vec<usize>,
    /// Never shorter than any batch it held: what lies past the last
    /// row's end is left over from an earlier one.
    values: Vec<f32>,
}

impl RowBatch {
    /// Empties the batch, keeping its capacity and its values buffer, so
    /// refilling it neither allocates nor clears memory.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.ends.clear();
    }

    fn end(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Makes room for `rows` more rows holding `values` more values.
    pub fn reserve(&mut self, rows: usize, values: usize) {
        self.ids.reserve(rows);
        self.ends.reserve(rows);
        let end = self.end() + values;
        self.values.reserve(end.saturating_sub(self.values.len()));
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The row ids, in order.
    pub fn ids(&self) -> &[RowId] {
        &self.ids
    }

    /// Appends row `id` with `width` values and returns them for the
    /// caller to overwrite: they are not cleared, so they hold zeroes or
    /// what an earlier batch left there.
    pub fn push_row(&mut self, id: RowId, width: usize) -> &mut [f32] {
        let (start, end) = (self.end(), self.end() + width);
        if self.values.len() < end {
            self.values.resize(end, 0.0);
        }
        self.ids.push(id);
        self.ends.push(end);
        &mut self.values[start..end]
    }

    /// The rows with their values, in order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[f32])> {
        let mut start = 0;
        self.ids.iter().zip(&self.ends).map(move |(&id, &end)| {
            let values = &self.values[start..end];
            start = end;
            (id, values)
        })
    }

    /// The rows with their values to change, in order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (RowId, &mut [f32])> {
        let (mut rest, mut start) = (self.values.as_mut_slice(), 0);
        self.ids.iter().zip(&self.ends).map(move |(&id, &end)| {
            let (values, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            (rest, start) = (tail, end);
            (id, values)
        })
    }
}

impl<V: AsRef<[f32]>> FromIterator<(RowId, V)> for RowBatch {
    fn from_iter<I: IntoIterator<Item = (RowId, V)>>(rows: I) -> Self {
        let mut batch = Self::default();
        for (id, values) in rows {
            let values = values.as_ref();
            batch.push_row(id, values.len()).copy_from_slice(values);
        }
        batch
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

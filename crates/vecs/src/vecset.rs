//! Contiguous row-major storage for `f32` vector datasets.

use crate::{Result, VecsError};
use ddc_linalg::kernels;
use ddc_linalg::RowAccess;

/// A set of `n` vectors of fixed dimensionality `dim`, stored contiguously
/// row-major — the layout every distance kernel in the workspace expects.
#[derive(Debug, Clone, PartialEq)]
pub struct VecSet {
    dim: usize,
    data: Vec<f32>,
}

impl VecSet {
    /// Empty set of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Empty set with capacity for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    /// [`VecsError::Dimension`] when the buffer is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Result<Self> {
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return Err(VecsError::Dimension {
                expected: dim,
                actual: data.len() % dim.max(1),
            });
        }
        Ok(Self { dim, data })
    }

    /// Builds a set from explicit rows.
    ///
    /// # Errors
    /// [`VecsError::Dimension`] when any row disagrees with `dim`.
    pub fn from_rows(dim: usize, rows: &[Vec<f32>]) -> Result<Self> {
        let mut s = Self::with_capacity(dim, rows.len());
        for r in rows {
            s.push(r)?;
        }
        Ok(s)
    }

    /// Appends one vector.
    ///
    /// # Errors
    /// [`VecsError::Dimension`] when `v.len() != dim`.
    pub fn push(&mut self, v: &[f32]) -> Result<()> {
        if v.len() != self.dim {
            return Err(VecsError::Dimension {
                expected: self.dim,
                actual: v.len(),
            });
        }
        self.data.extend_from_slice(v);
        Ok(())
    }

    /// Dimensionality of every vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when the set holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow vector `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrow vector `i`.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Flat row-major view of all vectors.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the set, returning the flat buffer.
    pub fn into_flat(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over vectors.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// Squared Euclidean distance between stored vectors `i` and `j`.
    #[inline]
    pub fn l2_sq(&self, i: usize, j: usize) -> f32 {
        kernels::l2_sq(self.get(i), self.get(j))
    }

    /// Squared Euclidean distance between stored vector `i` and `q`.
    #[inline]
    pub fn l2_sq_to(&self, i: usize, q: &[f32]) -> f32 {
        kernels::l2_sq(self.get(i), q)
    }

    /// Squared norms `‖x_i‖²` of every vector (DDCres precomputes these
    /// once per dataset — the `C1` term of Algorithm 1).
    pub fn norms_sq(&self) -> Vec<f32> {
        self.iter().map(kernels::norm_sq).collect()
    }

    /// Returns a new set containing rows `ids` in order.
    pub fn select(&self, ids: &[usize]) -> VecSet {
        let mut out = VecSet::with_capacity(self.dim, ids.len());
        for &i in ids {
            out.data.extend_from_slice(self.get(i));
        }
        out
    }

    /// Removes row `i` in place; later rows shift down one, order kept.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    pub fn remove_row(&mut self, i: usize) {
        self.data.drain(i * self.dim..(i + 1) * self.dim);
    }

    /// Removes every row whose `dead` flag is set, in place; the surviving
    /// rows keep their relative order (row `i` lands at the count of live
    /// rows before it).
    ///
    /// # Panics
    /// Panics when `dead.len() != self.len()`.
    pub fn remove_rows(&mut self, dead: &[bool]) {
        retain_live_rows(&mut self.data, self.dim, dead);
    }

    /// Splits into `(head, tail)` at row `at`.
    pub fn split_at(mut self, at: usize) -> (VecSet, VecSet) {
        let tail = self.data.split_off(at * self.dim);
        (
            VecSet {
                dim: self.dim,
                data: self.data,
            },
            VecSet {
                dim: self.dim,
                data: tail,
            },
        )
    }
}

/// Compacts a row-major `dead.len() × width` table in place, dropping the
/// rows whose `dead` flag is set and keeping the order of the rest — the
/// one primitive behind [`VecSet::remove_rows`] and the per-row side
/// columns (norms, codes, correction terms) operators keep beside their
/// matrix. A table left less than a quarter full gives the spare memory
/// back (an operator emptied to seed a fresh one keeps none of the rows it
/// was copied with).
///
/// # Panics
/// Panics when `data.len() != width * dead.len()`.
pub fn retain_live_rows<T: Copy>(data: &mut Vec<T>, width: usize, dead: &[bool]) {
    assert_eq!(data.len(), width * dead.len(), "mask/table row count");
    let mut live = 0;
    for (row, _) in dead.iter().enumerate().filter(|(_, &d)| !d) {
        if live != row {
            data.copy_within(row * width..(row + 1) * width, live * width);
        }
        live += 1;
    }
    data.truncate(live * width);
    if data.len() < data.capacity() / 4 {
        data.shrink_to_fit();
    }
}

/// A [`VecSet`] is the canonical in-RAM [`RowAccess`] source; the
/// out-of-core backends in [`crate::store`] implement the same trait, so
/// build paths are written once against rows and work over both.
impl RowAccess for VecSet {
    fn len(&self) -> usize {
        VecSet::len(self)
    }

    fn dim(&self) -> usize {
        VecSet::dim(self)
    }

    #[inline]
    fn row(&self, i: usize) -> &[f32] {
        self.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VecSet {
        VecSet::from_rows(
            3,
            &[
                vec![0.0, 0.0, 0.0],
                vec![1.0, 0.0, 0.0],
                vec![0.0, 2.0, 0.0],
                vec![3.0, 4.0, 0.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn len_dim_get() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert_eq!(s.dim(), 3);
        assert_eq!(s.get(2), &[0.0, 2.0, 0.0]);
        assert!(!s.is_empty());
    }

    #[test]
    fn push_validates_dim() {
        let mut s = VecSet::new(2);
        assert!(s.push(&[1.0, 2.0]).is_ok());
        assert!(s.push(&[1.0]).is_err());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn from_flat_validates_multiple() {
        assert!(VecSet::from_flat(3, vec![0.0; 7]).is_err());
        assert!(VecSet::from_flat(3, vec![0.0; 9]).is_ok());
    }

    #[test]
    fn distances() {
        let s = sample();
        assert_eq!(s.l2_sq(0, 1), 1.0);
        assert_eq!(s.l2_sq(0, 3), 25.0);
        assert_eq!(s.l2_sq_to(1, &[1.0, 0.0, 1.0]), 1.0);
    }

    #[test]
    fn norms() {
        let s = sample();
        assert_eq!(s.norms_sq(), vec![0.0, 1.0, 4.0, 25.0]);
    }

    #[test]
    fn select_and_split() {
        let s = sample();
        let sel = s.select(&[3, 0]);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.get(0), s.get(3));
        assert_eq!(sel.get(1), s.get(0));
        let (head, tail) = s.split_at(1);
        assert_eq!(head.len(), 1);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.get(0), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn remove_row_and_rows_keep_order() {
        let mut s = sample();
        s.remove_row(1);
        assert_eq!(s, sample().select(&[0, 2, 3]));
        let mut s = sample();
        s.remove_rows(&[true, false, true, false]);
        assert_eq!(s, sample().select(&[1, 3]));
        let mut s = sample();
        s.remove_rows(&[false; 4]);
        assert_eq!(s, sample());
        s.remove_rows(&[true; 4]);
        assert!(s.is_empty());
        // An emptied or mostly emptied table gives its memory back.
        let mut big: Vec<f32> = (0..400).map(|i| i as f32).collect();
        let dead: Vec<bool> = (0..100).map(|i| i != 7).collect();
        retain_live_rows(&mut big, 4, &dead);
        assert_eq!(big, [28.0, 29.0, 30.0, 31.0]);
        assert!(big.capacity() < 100, "capacity {}", big.capacity());
        // Width-0 side columns (an absent table) pass through untouched.
        let mut none: Vec<f32> = Vec::new();
        retain_live_rows(&mut none, 0, &[true, false]);
        assert!(none.is_empty());
    }

    #[test]
    fn iter_yields_rows() {
        let s = sample();
        let rows: Vec<&[f32]> = s.iter().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1], &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn get_mut_updates_storage() {
        let mut s = sample();
        s.get_mut(0)[1] = 9.0;
        assert_eq!(s.get(0), &[0.0, 9.0, 0.0]);
    }
}

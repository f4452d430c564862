//! Row-major dataset access abstraction.
//!
//! Every preprocessing stage in the workspace — PCA fits, Haar/OPQ
//! rotations, k-means, graph construction — consumes its input one
//! `&[f32]` row at a time. [`RowAccess`] captures exactly that contract,
//! so the same build code runs over an in-RAM matrix ([`FlatRows`], or
//! `ddc_vecs::VecSet` which implements this trait) and over
//! `ddc_vecs::SharedRows`, whose mapped arm serves rows straight out of a
//! memory-mapped fvecs file or snapshot section, **without duplicating
//! the build path** — artifacts built over a mapping are bit-identical to
//! RAM-built ones because they are produced by the very same loop.
//!
//! The trait requires [`Sync`] so builders may fan row reads out across
//! scoped threads (k-means assignment does).

/// Read-only access to `len` vectors of fixed dimensionality `dim`.
///
/// Implementations must return rows of exactly `dim` elements and must be
/// cheap to call repeatedly — `row` sits inside distance loops.
pub trait RowAccess: Sync {
    /// Number of vectors.
    fn len(&self) -> usize;

    /// Dimensionality of every vector.
    fn dim(&self) -> usize;

    /// Borrow row `i`.
    ///
    /// # Panics
    /// Implementations may panic when `i >= self.len()`.
    fn row(&self, i: usize) -> &[f32];

    /// True when there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<R: RowAccess + ?Sized> RowAccess for &R {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn row(&self, i: usize) -> &[f32] {
        (**self).row(i)
    }
}

/// A borrowed flat row-major buffer viewed as rows — the adapter that lets
/// slice-based callers reach the row-generic build paths.
#[derive(Debug, Clone, Copy)]
pub struct FlatRows<'a> {
    data: &'a [f32],
    dim: usize,
}

impl<'a> FlatRows<'a> {
    /// Wraps `data` as `data.len() / dim` rows.
    ///
    /// # Panics
    /// Panics when `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn new(data: &'a [f32], dim: usize) -> FlatRows<'a> {
        assert!(dim > 0, "dimensionality must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "flat buffer length {} is not a multiple of dim {dim}",
            data.len()
        );
        FlatRows { data, dim }
    }

    /// The underlying flat buffer.
    pub fn as_flat(&self) -> &'a [f32] {
        self.data
    }
}

impl RowAccess for FlatRows<'_> {
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_rows_views_rows() {
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rows = FlatRows::new(&data, 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.dim(), 3);
        assert!(!rows.is_empty());
        assert_eq!(rows.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(rows.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(rows.as_flat(), &data);
    }

    #[test]
    fn reference_impl_delegates() {
        let data = [1.0f32, 2.0];
        let rows = FlatRows::new(&data, 2);
        let by_ref: &dyn RowAccess = &&rows;
        assert_eq!(by_ref.len(), 1);
        assert_eq!(by_ref.row(0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn flat_rows_rejects_ragged() {
        FlatRows::new(&[0.0; 7], 3);
    }

    #[test]
    fn empty_buffer_is_empty() {
        let rows = FlatRows::new(&[], 4);
        assert!(rows.is_empty());
        assert_eq!(rows.len(), 0);
    }
}

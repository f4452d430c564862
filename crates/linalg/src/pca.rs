//! Principal component analysis.
//!
//! The paper's key effectiveness result (Theorem 1 + Lemma 2, §IV) is that
//! rotating the dataset with the PCA basis minimizes both the variance and —
//! under the Gaussian model — every quantile of the distance-estimation error
//! `ε = -2⟨q_r, x_r⟩`. [`Pca::fit`] estimates mean + covariance from a
//! (sub)sample, eigendecomposes the covariance with Jacobi, and bakes the
//! full `D x D` rotation into an `f32` row-major matrix for the hot path.
//! The per-dimension variances `λ_i` feed DDCres' error bound (Eq. 3).
//!
//! The fit is deterministic to the bit: the covariance is summed in `f64`
//! over the sampled rows in sample order ([`OuterSum`], upper triangle,
//! blocked for the cache without reordering any sum), then mirrored, and
//! [`sym_eigen`] keeps a fixed rotation sequence. A change that moves one
//! bit of the output moves every stored DDCres / DDCpca row, so
//! `tests/fit_pins.rs` pins it.

use crate::eigen::sym_eigen;
use crate::kernels::{matvec_batch_f32, matvec_f32};
use crate::outer::OuterSum;
use crate::rows::{FlatRows, RowAccess};
use crate::{LinalgError, Result};
use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::SeedableRng;

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Dimensionality `D` of the input space.
    pub dim: usize,
    /// Sample mean, subtracted before rotation (centralization, §IV-B fn. 2).
    pub mean: Vec<f32>,
    /// Row-major `D x D` rotation; row `i` is the `i`-th principal axis,
    /// ordered by decreasing variance.
    pub rotation: Vec<f32>,
    /// Variance `λ_i` captured by each principal axis (descending).
    pub eigenvalues: Vec<f32>,
}

impl Pca {
    /// Fits PCA on `data` (row-major, `n x dim`), using at most
    /// `max_samples` rows chosen uniformly at random with `seed`
    /// (the paper subsamples 1M points on large datasets, Exp-1).
    ///
    /// # Errors
    /// * [`LinalgError::EmptyInput`] when `data` has no rows.
    /// * [`LinalgError::DimensionMismatch`] when `data.len()` is not a
    ///   multiple of `dim`.
    /// * Eigensolver failures propagate.
    pub fn fit(data: &[f32], dim: usize, max_samples: usize, seed: u64) -> Result<Pca> {
        if dim == 0 {
            return Err(LinalgError::EmptyInput("pca data"));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(LinalgError::DimensionMismatch {
                op: "Pca::fit",
                expected: dim,
                actual: data.len() % dim,
            });
        }
        Pca::fit_rows(&FlatRows::new(data, dim), max_samples, seed)
    }

    /// [`Pca::fit`] over any row source — in-RAM matrices and out-of-core
    /// stores take the *same* code path (same sampled row ids, same
    /// accumulation order), so the fitted transform is bit-identical
    /// regardless of which backend supplied the rows.
    ///
    /// # Errors
    /// Same contract as [`Pca::fit`].
    pub fn fit_rows<R: RowAccess + ?Sized>(data: &R, max_samples: usize, seed: u64) -> Result<Pca> {
        let dim = data.dim();
        if dim == 0 || data.is_empty() {
            return Err(LinalgError::EmptyInput("pca data"));
        }
        let n = data.len();
        let rows: Vec<usize> = if n <= max_samples {
            (0..n).collect()
        } else {
            let mut rng = StdRng::seed_from_u64(seed);
            index_sample(&mut rng, n, max_samples).into_iter().collect()
        };
        let m = rows.len();

        // Mean in f64 for stability.
        let mut mean = vec![0.0f64; dim];
        for &r in &rows {
            let row = data.row(r);
            for (acc, &v) in mean.iter_mut().zip(row) {
                *acc += f64::from(v);
            }
        }
        for v in &mut mean {
            *v /= m as f64;
        }

        // Covariance (upper triangle, then mirrored).
        let mut acc = OuterSum::upper(dim);
        let mut centered = vec![0.0f64; dim];
        for &r in &rows {
            for ((c, &v), &mu) in centered.iter_mut().zip(data.row(r)).zip(&mean) {
                *c = f64::from(v) - mu;
            }
            acc.push(&centered, &centered);
        }
        let mut cov = acc.finish();
        let denom = (m.max(2) - 1) as f64;
        for i in 0..dim {
            for j in i..dim {
                let v = cov.get(i, j) / denom;
                cov.set(i, j, v);
                cov.set(j, i, v);
            }
        }

        let eig = sym_eigen(&cov)?;
        Ok(Pca {
            dim,
            mean: mean.iter().map(|&v| v as f32).collect(),
            rotation: eig.vectors.to_f32_rowmajor(),
            eigenvalues: eig.values.iter().map(|&v| v.max(0.0) as f32).collect(),
        })
    }

    /// Applies the transform: `out = R · (x − mean)`.
    ///
    /// # Panics
    /// Debug-asserts that `x` and `out` have length `dim`.
    pub fn transform(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.dim);
        debug_assert_eq!(out.len(), self.dim);
        let mut centered = vec![0.0f32; self.dim];
        for (c, (&xv, &mv)) in centered.iter_mut().zip(x.iter().zip(&self.mean)) {
            *c = xv - mv;
        }
        matvec_f32(&self.rotation, self.dim, self.dim, &centered, out);
    }

    /// Transforms a whole row-major set, returning a new buffer.
    ///
    /// Bit-identical to row-by-row [`Pca::transform`] (same centering, same
    /// per-row reduction), but routed through the cache-blocked
    /// [`matvec_batch_f32`] so the rotation matrix streams from memory once
    /// per block of rows instead of once per row.
    pub fn transform_set(&self, data: &[f32]) -> Vec<f32> {
        assert_eq!(data.len() % self.dim, 0);
        self.transform_batch(data, data.len() / self.dim)
    }

    /// Batched [`Pca::transform`]: rotates `n` row-major vectors at once.
    ///
    /// This is the amortization point for multi-query search — the `O(D²)`
    /// rotation dominates per-query setup cost, and batching cuts its memory
    /// traffic by the block factor of [`matvec_batch_f32`].
    ///
    /// # Panics
    /// Panics unless `xs.len() == n·dim`.
    pub fn transform_batch(&self, xs: &[f32], n: usize) -> Vec<f32> {
        assert_eq!(xs.len(), n * self.dim);
        let mut centered = vec![0.0f32; xs.len()];
        for r in 0..n {
            let src = &xs[r * self.dim..(r + 1) * self.dim];
            let dst = &mut centered[r * self.dim..(r + 1) * self.dim];
            for (c, (&xv, &mv)) in dst.iter_mut().zip(src.iter().zip(&self.mean)) {
                *c = xv - mv;
            }
        }
        let mut out = vec![0.0f32; xs.len()];
        matvec_batch_f32(&self.rotation, self.dim, self.dim, &centered, n, &mut out);
        out
    }

    /// Fraction of total variance captured by the first `d` components.
    ///
    /// The paper uses this to explain when PCA-based DCOs beat OPQ-based ones
    /// (Exp-1: 67% at d=32 on GIST vs 18% on GLOVE).
    pub fn explained_variance_ratio(&self, d: usize) -> f32 {
        let total: f32 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let head: f32 = self.eigenvalues.iter().take(d).sum();
        head / total
    }

    /// The per-dimension variances `λ_i` (descending), as used in Eq. 3.
    pub fn variances(&self) -> &[f32] {
        &self.eigenvalues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::l2_sq;
    use crate::rng::fill_gaussian;

    /// Anisotropic Gaussian data with known axis variances, optionally
    /// rotated away from the canonical axes.
    fn synth(n: usize, dim: usize, stds: &[f32], seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = vec![0.0f32; n * dim];
        fill_gaussian(&mut rng, &mut data);
        for r in 0..n {
            for (i, &s) in stds.iter().enumerate() {
                data[r * dim + i] *= s;
            }
        }
        data
    }

    #[test]
    fn recovers_axis_aligned_variances() {
        let stds = [4.0f32, 2.0, 1.0, 0.5];
        let data = synth(4000, 4, &stds, 1);
        let pca = Pca::fit(&data, 4, usize::MAX, 0).unwrap();
        for (i, &s) in stds.iter().enumerate() {
            let lambda = pca.eigenvalues[i];
            assert!(
                (lambda - s * s).abs() < 0.15 * s * s + 0.05,
                "λ_{i}={lambda} expected≈{}",
                s * s
            );
        }
    }

    #[test]
    fn eigenvalues_descending_and_nonnegative() {
        let data = synth(1000, 8, &[3.0, 2.5, 2.0, 1.5, 1.0, 0.8, 0.5, 0.1], 2);
        let pca = Pca::fit(&data, 8, usize::MAX, 0).unwrap();
        for w in pca.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
        assert!(pca.eigenvalues.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn transform_preserves_pairwise_distance() {
        let data = synth(200, 16, &[2.0; 16], 3);
        let pca = Pca::fit(&data, 16, usize::MAX, 0).unwrap();
        let t = pca.transform_set(&data);
        for (a, b) in [(0usize, 1usize), (5, 17), (100, 199)] {
            let before = l2_sq(&data[a * 16..(a + 1) * 16], &data[b * 16..(b + 1) * 16]);
            let after = l2_sq(&t[a * 16..(a + 1) * 16], &t[b * 16..(b + 1) * 16]);
            assert!(
                (before - after).abs() < 1e-2 * before.max(1.0),
                "{a},{b}: {before} vs {after}"
            );
        }
    }

    #[test]
    fn explained_variance_monotone_and_bounded() {
        let data = synth(1500, 6, &[5.0, 3.0, 2.0, 1.0, 0.5, 0.25], 4);
        let pca = Pca::fit(&data, 6, usize::MAX, 0).unwrap();
        let mut prev = 0.0;
        for d in 0..=6 {
            let r = pca.explained_variance_ratio(d);
            assert!(r >= prev - 1e-6);
            assert!((0.0..=1.0 + 1e-6).contains(&r));
            prev = r;
        }
        assert!((pca.explained_variance_ratio(6) - 1.0).abs() < 1e-5);
        // Heavy skew: first axis should dominate.
        assert!(pca.explained_variance_ratio(1) > 0.5);
    }

    #[test]
    fn transformed_data_is_centered_and_decorrelated() {
        let dim = 5;
        let data = synth(3000, dim, &[3.0, 2.0, 1.5, 1.0, 0.5], 5);
        let pca = Pca::fit(&data, dim, usize::MAX, 0).unwrap();
        let t = pca.transform_set(&data);
        let n = 3000;
        // Mean ~ 0.
        for i in 0..dim {
            let m: f32 = (0..n).map(|r| t[r * dim + i]).sum::<f32>() / n as f32;
            assert!(m.abs() < 0.05, "dim {i} mean {m}");
        }
        // Off-diagonal covariance ~ 0 (the paper's "Remark" in §IV-B).
        for i in 0..dim {
            for j in i + 1..dim {
                let c: f32 =
                    (0..n).map(|r| t[r * dim + i] * t[r * dim + j]).sum::<f32>() / n as f32;
                assert!(c.abs() < 0.2, "cov[{i},{j}]={c}");
            }
        }
    }

    #[test]
    fn subsampling_approximates_full_fit() {
        let data = synth(5000, 4, &[4.0, 2.0, 1.0, 0.5], 6);
        let full = Pca::fit(&data, 4, usize::MAX, 0).unwrap();
        let sub = Pca::fit(&data, 4, 1000, 7).unwrap();
        for i in 0..4 {
            let rel =
                (full.eigenvalues[i] - sub.eigenvalues[i]).abs() / full.eigenvalues[i].max(1e-3);
            assert!(
                rel < 0.25,
                "λ_{i}: {} vs {}",
                full.eigenvalues[i],
                sub.eigenvalues[i]
            );
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Pca::fit(&[], 4, 10, 0).is_err());
        assert!(Pca::fit(&[1.0, 2.0, 3.0], 2, 10, 0).is_err());
        let empty = crate::rows::FlatRows::new(&[], 4);
        assert!(Pca::fit_rows(&empty, 10, 0).is_err());
    }

    /// The rows-generic entry points are the same code path as the flat
    /// ones: same sampled ids, same accumulation order, bit-identical
    /// output — the foundation of the store-vs-RAM build parity contract.
    #[test]
    fn rows_paths_are_bit_identical_to_flat_paths() {
        let data = synth(600, 8, &[3.0, 2.5, 2.0, 1.5, 1.0, 0.8, 0.5, 0.1], 9);
        let rows = crate::rows::FlatRows::new(&data, 8);
        for max_samples in [usize::MAX, 100] {
            let flat = Pca::fit(&data, 8, max_samples, 13).unwrap();
            let via_rows = Pca::fit_rows(&rows, max_samples, 13).unwrap();
            assert_eq!(flat.mean, via_rows.mean);
            assert_eq!(flat.rotation, via_rows.rotation);
            assert_eq!(flat.eigenvalues, via_rows.eigenvalues);
        }
    }
}

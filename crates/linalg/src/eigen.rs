//! Cyclic-Jacobi eigendecomposition for symmetric matrices.
//!
//! PCA (paper §IV-B, Theorem 1) needs the full eigensystem of the data
//! covariance matrix; OPQ's Procrustes step needs it for the Gram matrix.
//! Jacobi is slower than Householder-tridiagonal + QL for very large `D`, but
//! it is simple, unconditionally stable, and produces strictly orthogonal
//! eigenvectors — which the isometry-invariance tests rely on.
//!
//! # Layout and the bit-identity contract
//!
//! Every DDCres / DDCpca row is rotated by these eigenvectors and stored
//! (in RAM and in snapshots), so the output is pinned bit for bit
//! (`tests/fit_pins.rs`): the rotation sequence, the skip and sweep tests,
//! the arithmetic (`c·x − s·y` and `s·x + c·y`, no fused multiply-add) and
//! the stable descending sort are fixed. Only the memory layout is free:
//!
//! * the sweeps run on a private copy of `a` whose row stride is padded
//!   off a power of two (`n + STRIDE_PAD`), so the two-column update of
//!   each rotation does not map every element of a column to the same
//!   cache sets (at `n = 256` an unpadded row is 2 KiB);
//! * the accumulated eigenvectors are kept as *rows* (`Vᵀ`), so their
//!   update is two contiguous rows and the output is a row gather.
//!
//! The working copy is the full square, not one triangle: the two
//! off-diagonal entries of a rotated 2 × 2 block round differently, and
//! later rotations read both. A tridiagonal + QL solver would be faster
//! still, but it computes different bits, which would move every
//! PCA-rotated row and every snapshot built from one
//! (`scripts/snapshot_compat.sh` compares those across revisions).

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Eigendecomposition of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Row `k` is the unit eigenvector paired with `values[k]`.
    pub vectors: Matrix,
}

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 64;

/// Elements added to each row of the working copy so its stride is off a
/// power of two.
const STRIDE_PAD: usize = 8;

/// Decomposes the symmetric matrix `a`.
///
/// # Errors
/// * [`LinalgError::NotSquare`] when `a` is not square.
/// * [`LinalgError::NotConverged`] when the off-diagonal mass does not
///   vanish within `MAX_SWEEPS` sweeps (does not happen for symmetric
///   inputs in practice).
pub fn sym_eigen(a: &Matrix) -> Result<EigenDecomposition> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::EmptyInput("sym_eigen"));
    }
    let stride = n + STRIDE_PAD;
    // `m`: the working copy, row `r` at `r * stride`. `vt`: the
    // accumulated rotations, transposed (row `k` is column `k` of `V`).
    let mut m = vec![0.0f64; n * stride];
    for (dst, src) in m.chunks_exact_mut(stride).zip(a.as_slice().chunks_exact(n)) {
        dst[..n].copy_from_slice(src);
    }
    let mut vt = vec![0.0f64; n * stride];
    for k in 0..n {
        vt[k * stride + k] = 1.0;
    }
    let tol = 1e-12 * a.frobenius_norm().max(1.0);

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let off = offdiag_frobenius(&m, n, stride);
        if off <= tol {
            converged = true;
            break;
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = m[p * stride + q];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m[p * stride + p];
                let aqq = m[q * stride + q];
                // Classic Jacobi rotation parameters.
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Columns p and q of m, then rows p and q (which read the
                // 2 × 2 block the column pass wrote).
                for row in m.chunks_exact_mut(stride) {
                    let (mkp, mkq) = (row[p], row[q]);
                    row[p] = c * mkp - s * mkq;
                    row[q] = s * mkp + c * mkq;
                }
                rotate_rows(&mut m, stride, n, p, q, c, s);
                // Accumulate into V's columns p and q: rows of `vt`.
                rotate_rows(&mut vt, stride, n, p, q, c, s);
            }
        }
    }
    if !converged && offdiag_frobenius(&m, n, stride) > tol {
        return Err(LinalgError::NotConverged {
            algorithm: "jacobi",
            iterations: MAX_SWEEPS,
        });
    }

    // Sort descending by eigenvalue; emit eigenvectors as rows.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[i * stride + i]).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("finite eigenvalues"));

    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Vec::with_capacity(n * n);
    for &k in &order {
        vectors.extend_from_slice(&vt[k * stride..k * stride + n]);
    }
    let vectors = Matrix::from_vec(n, n, vectors)?;
    Ok(EigenDecomposition { values, vectors })
}

/// `(x_p, x_q) ← (c·x_p − s·x_q, s·x_p + c·x_q)` over the first `n`
/// elements of rows `p < q` of a matrix with row stride `stride`.
fn rotate_rows(x: &mut [f64], stride: usize, n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = x.split_at_mut(q * stride);
    let rp = &mut head[p * stride..p * stride + n];
    let rq = &mut tail[..n];
    for (xp, xq) in rp.iter_mut().zip(rq.iter_mut()) {
        let (a, b) = (*xp, *xq);
        *xp = c * a - s * b;
        *xq = s * a + c * b;
    }
}

/// Frobenius norm of the off-diagonal part, summed in row-major order.
fn offdiag_frobenius(m: &[f64], n: usize, stride: usize) -> f64 {
    let mut s = 0.0;
    for (r, row) in m.chunks_exact(stride).enumerate() {
        for (c, &x) in row[..n].iter().enumerate() {
            if r != c {
                s += x * x;
            }
        }
    }
    s.sqrt()
}

impl EigenDecomposition {
    /// Reconstructs `Σ = Vᵀ diag(λ) V` (with eigenvectors as rows of `V`).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        Matrix::from_fn(n, n, |r, c| {
            (0..n)
                .map(|k| self.values[k] * self.vectors.get(k, r) * self.vectors.get(k, c))
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fill_gaussian_f64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.0f64; n * n];
        fill_gaussian_f64(&mut rng, &mut buf);
        let g = Matrix::from_vec(n, n, buf).unwrap();
        // A = (G + Gᵀ)/2 is symmetric.
        let gt = g.transpose();
        Matrix::from_fn(n, n, |r, c| 0.5 * (g.get(r, c) + gt.get(r, c)))
    }

    #[test]
    fn diagonal_matrix_recovers_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a.set(0, 0, 1.0);
        a.set(1, 1, 5.0);
        a.set(2, 2, 3.0);
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.vectors.row(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_matches_input() {
        for (n, seed) in [(4usize, 1u64), (16, 2), (48, 3)] {
            let a = random_symmetric(n, seed);
            let e = sym_eigen(&a).unwrap();
            assert!(e.reconstruct().max_abs_diff(&a) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = random_symmetric(24, 11);
        let e = sym_eigen(&a).unwrap();
        // Rows orthonormal <=> vectorsᵀ has orthonormal columns.
        assert!(e.vectors.transpose().orthogonality_defect() < 1e-9);
    }

    #[test]
    fn values_sorted_descending() {
        let a = random_symmetric(20, 5);
        let e = sym_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn eigen_pairs_satisfy_definition() {
        let a = random_symmetric(10, 9);
        let e = sym_eigen(&a).unwrap();
        for k in 0..10 {
            let v: Vec<f64> = e.vectors.row(k).to_vec();
            let av = a.matvec(&v).unwrap();
            for i in 0..10 {
                assert!(
                    (av[i] - e.values[k] * v[i]).abs() < 1e-8,
                    "pair {k} violates A v = λ v"
                );
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let a = random_symmetric(15, 21);
        let trace: f64 = (0..15).map(|i| a.get(i, i)).sum();
        let e = sym_eigen(&a).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            sym_eigen(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn psd_matrix_has_nonnegative_eigenvalues() {
        // Gram matrix GᵀG is PSD.
        let mut rng = StdRng::seed_from_u64(33);
        let mut buf = vec![0.0f64; 12 * 8];
        fill_gaussian_f64(&mut rng, &mut buf);
        let g = Matrix::from_vec(12, 8, buf).unwrap();
        let gram = g.transpose().matmul(&g).unwrap();
        let e = sym_eigen(&gram).unwrap();
        assert!(e.values.iter().all(|&v| v > -1e-9));
    }
}

//! Row-blocked accumulation of a sum of outer products, `Σₜ aₜ ⊗ bₜ`.
//!
//! PCA's covariance and OPQ's Procrustes cross matrix `Ŷᵀ·X` are both
//! this sum over the sample rows. Adding one outer product at a time
//! streams the whole `rows × cols` matrix through the cache once per
//! sample; [`OuterSum`] instead buffers a block of sample rows and walks
//! the matrix once per block, keeping an `R × C` tile of it in registers
//! while the block's rows stream past.
//!
//! The result is bit-identical to the one-product-at-a-time loop: every
//! element starts at `0.0` and adds `aₜ[i]·bₜ[j]` (a multiply, then an
//! add) over the samples in push order, and skips sample `t` for row `i`
//! whenever `aₜ[i]` is exactly `0.0` — so even non-finite input rounds
//! and propagates the same way.

use crate::matrix::Matrix;

/// Sample rows buffered per pass over the matrix.
const BLOCK: usize = 64;
/// Register tile: `TILE_R` rows × `TILE_C` columns of the sum.
const TILE_R: usize = 4;
const TILE_C: usize = 4;

/// A running `Σₜ aₜ ⊗ bₜ` (see the module docs).
#[derive(Debug, Clone)]
pub struct OuterSum {
    sum: Matrix,
    upper: bool,
    /// Buffered left factors, `BLOCK` rows of `sum.rows()`.
    a: Vec<f64>,
    /// Buffered right factors, `BLOCK` rows of `sum.cols()`.
    b: Vec<f64>,
    filled: usize,
}

impl OuterSum {
    /// A `rows × cols` sum over every element.
    pub fn full(rows: usize, cols: usize) -> Self {
        Self::new(rows, cols, false)
    }

    /// An `n × n` sum over the upper triangle (`j ≥ i`) only; the strict
    /// lower triangle of [`OuterSum::finish`] is `0.0`.
    pub fn upper(n: usize) -> Self {
        Self::new(n, n, true)
    }

    fn new(rows: usize, cols: usize, upper: bool) -> Self {
        Self {
            sum: Matrix::zeros(rows, cols),
            upper,
            a: vec![0.0; BLOCK * rows],
            b: vec![0.0; BLOCK * cols],
            filled: 0,
        }
    }

    /// Adds `a ⊗ b`.
    ///
    /// # Panics
    /// Panics unless `a.len()` is the sum's row count and `b.len()` its
    /// column count.
    pub fn push(&mut self, a: &[f64], b: &[f64]) {
        let (rows, cols) = (self.sum.rows(), self.sum.cols());
        assert_eq!((a.len(), b.len()), (rows, cols), "OuterSum::push");
        if self.filled == BLOCK {
            self.flush();
        }
        let t = self.filled;
        self.a[t * rows..(t + 1) * rows].copy_from_slice(a);
        self.b[t * cols..(t + 1) * cols].copy_from_slice(b);
        self.filled += 1;
    }

    /// The accumulated sum.
    pub fn finish(mut self) -> Matrix {
        self.flush();
        self.sum
    }

    /// Adds the buffered products into `sum`, tile by tile.
    fn flush(&mut self) {
        let (rows, cols, count) = (self.sum.rows(), self.sum.cols(), self.filled);
        self.filled = 0;
        if count == 0 {
            return;
        }
        let a = &self.a[..count * rows];
        let b = &self.b[..count * cols];
        let sum = self.sum.as_mut_slice();
        for i0 in (0..rows).step_by(TILE_R) {
            let mut j0 = if self.upper { i0 } else { 0 };
            if i0 + TILE_R <= rows {
                while j0 + TILE_C <= cols {
                    add_tile(sum, cols, a, rows, b, i0, j0, self.upper);
                    j0 += TILE_C;
                }
            }
            // What no tile covered (columns from `j0` on), one element at
            // a time.
            for i in i0..(i0 + TILE_R).min(rows) {
                let from = if self.upper { j0.max(i) } else { j0 };
                for j in from..cols {
                    let mut acc = sum[i * cols + j];
                    for t in 0..count {
                        let x = a[t * rows + i];
                        if x == 0.0 {
                            continue;
                        }
                        acc += x * b[t * cols + j];
                    }
                    sum[i * cols + j] = acc;
                }
            }
        }
    }
}

/// Adds the block's products into the `TILE_R × TILE_C` tile of `sum`
/// at `(i0, j0)`, held in registers; with `upper`, entries below the
/// diagonal are computed but not stored.
#[allow(clippy::too_many_arguments)]
#[inline]
fn add_tile(
    sum: &mut [f64],
    cols: usize,
    a: &[f64],
    rows: usize,
    b: &[f64],
    i0: usize,
    j0: usize,
    upper: bool,
) {
    let mut acc = [[0.0f64; TILE_C]; TILE_R];
    for (ii, acc_row) in acc.iter_mut().enumerate() {
        let at = (i0 + ii) * cols + j0;
        acc_row.copy_from_slice(&sum[at..at + TILE_C]);
    }
    for (ar, br) in a.chunks_exact(rows).zip(b.chunks_exact(cols)) {
        let ar: &[f64; TILE_R] = ar[i0..i0 + TILE_R].try_into().expect("tile");
        let br: &[f64; TILE_C] = br[j0..j0 + TILE_C].try_into().expect("tile");
        for (acc_row, &x) in acc.iter_mut().zip(ar) {
            if x == 0.0 {
                continue;
            }
            for (s, &y) in acc_row.iter_mut().zip(br) {
                *s += x * y;
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate() {
        let i = i0 + ii;
        for (jj, &v) in acc_row.iter().enumerate() {
            if !upper || j0 + jj >= i {
                sum[i * cols + j0 + jj] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fill_gaussian_f64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-product-at-a-time loop [`OuterSum`] must match bit for bit.
    fn reference(a: &[Vec<f64>], b: &[Vec<f64>], rows: usize, cols: usize, upper: bool) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for (at, bt) in a.iter().zip(b) {
            for (i, &x) in at.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                let from = if upper { i } else { 0 };
                for (j, &y) in bt.iter().enumerate().skip(from) {
                    m.set(i, j, m.get(i, j) + x * y);
                }
            }
        }
        m
    }

    fn samples(count: usize, width: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|t| {
                let mut row = vec![0.0; width];
                fill_gaussian_f64(&mut rng, &mut row);
                // Exact zeros (skipped), a signed zero, and non-finite values.
                row[t % width] = 0.0;
                if t % 5 == 1 {
                    row[(t / 5) % width] = -0.0;
                }
                if t == 70 {
                    row[width / 2] = f64::INFINITY;
                }
                if t == 90 {
                    row[width - 1] = f64::NAN;
                }
                row
            })
            .collect()
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matches_the_one_product_loop_bit_for_bit() {
        // Square and rectangular shapes, tile multiples and remainders,
        // sample counts below, at and across the block size.
        for (rows, cols) in [(1, 1), (3, 5), (8, 8), (13, 7), (36, 36), (37, 41)] {
            for count in [1, BLOCK, BLOCK + 1, 3 * BLOCK - 5] {
                let a = samples(count, rows, rows as u64 * 31 + count as u64);
                let b = samples(count, cols, cols as u64 * 17 + count as u64);
                let mut full = OuterSum::full(rows, cols);
                for (x, y) in a.iter().zip(&b) {
                    full.push(x, y);
                }
                let want = reference(&a, &b, rows, cols, false);
                assert_eq!(bits(&full.finish()), bits(&want), "{rows}x{cols}, {count}");
                if rows == cols {
                    let mut upper = OuterSum::upper(rows);
                    for x in &a {
                        upper.push(x, x);
                    }
                    let want = reference(&a, &a, rows, rows, true);
                    assert_eq!(bits(&upper.finish()), bits(&want), "upper {rows}, {count}");
                }
            }
        }
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(OuterSum::full(3, 2).finish().as_slice(), &[0.0; 6]);
    }
}

//! Pins on the training linear algebra: every bit of what it produces.
//!
//! DDCres and DDCpca rotate every stored row by the PCA basis, and DDCopq
//! by the OPQ rotation, so a fit that moves by one ulp moves every rotated
//! row and every snapshot built from it. The constants below are FNV-1a
//! hashes of the raw bits of:
//!
//! * [`sym_eigen`] on random symmetric matrices, `n ∈ {1, 2, 7, 64, 256}`
//!   (256 is the power-of-two row stride that aliases cache sets);
//! * [`Pca::fit_rows`] on 128-, 256- and 300-d Gaussian rows, each with
//!   one constant column (so the covariance's skip-on-zero rule runs) and
//!   fewer samples than rows (so the sampler runs);
//! * an [`Opq::train`] rotation with `opq_iters = 2`, so one Procrustes
//!   update (`M = Ŷᵀ·X`, then an SVD) runs.
//!
//! They were recorded from the plain column-update Jacobi and the
//! element-by-element covariance loops. A layout or blocking change to
//! the training code must leave every one of them unchanged.
//!
//! The inputs are made in `f64` without the `f32` kernels, whose bits
//! differ between backends (the synthetic profiles rotate their rows with
//! them), so the eigen and PCA pins hold on every backend. OPQ trains its
//! codebooks through the kernels; its pin was recorded on the `avx2-fma`
//! and `scalar` backends, which agree on it.

use ddc_linalg::{fill_gaussian_f64, random_orthogonal_matrix, sym_eigen, FlatRows, Matrix, Pca};
use ddc_quant::{Opq, OpqConfig};
use ddc_vecs::VecSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_f64(h: u64, xs: &[f64]) -> u64 {
    xs.iter()
        .fold(h, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

fn hash_f32(h: u64, xs: &[f32]) -> u64 {
    xs.iter()
        .fold(h, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

/// Fails listing every `(label, got, want)` that differs, so one run shows
/// all the hashes a change moved.
fn check(pins: &[(String, u64, u64)]) {
    let moved: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, want)| format!("{label}: {got:#018x} (pinned {want:#018x})"))
        .collect();
    assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
}

fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = vec![0.0f64; n * n];
    fill_gaussian_f64(&mut rng, &mut g);
    Matrix::from_fn(n, n, |r, c| 0.5 * (g[r * n + c] + g[c * n + r]))
}

#[test]
fn sym_eigen_output_is_pinned() {
    let pins: [(usize, u64); 5] = [
        (1, 0x07ba_2dd8_8621_9bb3),
        (2, 0xa84f_d820_7fea_9aa5),
        (7, 0x23cf_1100_2dd6_0715),
        (64, 0xdc7b_2249_4881_8c37),
        (256, 0x7d87_fd82_789e_8e42),
    ];
    let got: Vec<(String, u64, u64)> = pins
        .iter()
        .map(|&(n, want)| {
            let e = sym_eigen(&random_symmetric(n, 40 + n as u64)).unwrap();
            let h = hash_f64(hash_f64(FNV_START, &e.values), e.vectors.as_slice());
            (format!("sym_eigen n={n}"), h, want)
        })
        .collect();
    check(&got);
}

/// `n` rows of `dim` Gaussians with variances `(i + 1)^-alpha`, mixed by
/// a Haar rotation (all in `f64`), with column 3 held at a constant.
fn rows_with_constant_column(dim: usize, alpha: f64, n: usize, seed: u64) -> Vec<f32> {
    let mix = random_orthogonal_matrix(dim, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut g = vec![0.0f64; dim];
    let mut rows = Vec::with_capacity(n * dim);
    for _ in 0..n {
        fill_gaussian_f64(&mut rng, &mut g);
        for (i, x) in g.iter_mut().enumerate() {
            *x *= ((i + 1) as f64).powf(-alpha / 2.0);
        }
        let mut row = mix.matvec(&g).expect("square mix");
        row[3] = 0.75;
        rows.extend(row.iter().map(|&v| v as f32));
    }
    rows
}

#[test]
fn pca_fit_output_is_pinned() {
    // The dims and spectrum decays of the SIFT, DEEP and WORD2VEC profiles.
    let pins: [(usize, f64, u64); 3] = [
        (128, 1.2, 0xbef1_48e0_6f20_565f),
        (256, 1.3, 0x1f75_9bca_caeb_af53),
        (300, 0.45, 0x3365_81ae_c5bd_e68d),
    ];
    let got: Vec<(String, u64, u64)> = pins
        .iter()
        .map(|&(dim, alpha, want)| {
            let rows = rows_with_constant_column(dim, alpha, 700, 11);
            let pca = Pca::fit_rows(&FlatRows::new(&rows, dim), 600, 29).unwrap();
            let h = hash_f32(FNV_START, &pca.mean);
            let h = hash_f32(h, &pca.rotation);
            let h = hash_f32(h, &pca.eigenvalues);
            (format!("Pca::fit_rows {dim}-d"), h, want)
        })
        .collect();
    check(&got);
}

#[test]
fn opq_procrustes_rotation_is_pinned() {
    // 30-d: not a multiple of the accumulator's 4-wide tile, so its row
    // and column remainders run too.
    let dim = 30;
    let set = VecSet::from_flat(dim, rows_with_constant_column(dim, 1.2, 600, 5)).unwrap();
    let mut cfg = OpqConfig::new(6);
    cfg.pq = cfg.pq.with_nbits(4);
    cfg.pq.train_iters = 4;
    cfg.opq_iters = 2;
    let opq = Opq::train(&set, &cfg).unwrap();
    let h = hash_f32(FNV_START, &opq.rotation);
    check(&[("Opq::train rotation".into(), h, 0x6157_97f5_d781_347e)]);
}

//! Optimized Product Quantization (non-parametric OPQ).
//!
//! OPQ minimizes `Σ‖R·x − x̂‖²` jointly over an orthogonal rotation `R` and
//! PQ codebooks, by alternating:
//!
//! 1. fix `R`: retrain PQ on the rotated data, producing reconstructions;
//! 2. fix the reconstructions `Ŷ`: the best rotation solves an orthogonal
//!    Procrustes problem, `R = V·Uᵀ` from `SVD(Xᵀ·Ŷ)` — implemented as
//!    `procrustes(Ŷᵀ·X)` (see `ddc-linalg::svd`).
//!
//! The paper's DDCopq runs on top of this rotation (its cost — `O(D²)` per
//! query — is part of the Fig. 7/9 preprocessing accounting).

use crate::pq::{Pq, PqConfig};
use crate::Result;
use ddc_linalg::kernels::matvec_f32;
use ddc_linalg::matrix::Matrix;
use ddc_linalg::svd::procrustes;
use ddc_linalg::OuterSum;
use ddc_linalg::RowAccess;
use ddc_vecs::VecSet;
use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::SeedableRng;

/// OPQ training configuration.
#[derive(Debug, Clone)]
pub struct OpqConfig {
    /// Inner PQ configuration.
    pub pq: PqConfig,
    /// Alternating optimization rounds (rotation updates).
    pub opq_iters: usize,
    /// Upper bound on training points for the rotation update.
    pub max_train_points: usize,
}

impl OpqConfig {
    /// Defaults: `m` subspaces, 8-bit codes, 5 alternations.
    pub fn new(m: usize) -> Self {
        Self {
            pq: PqConfig::new(m),
            opq_iters: 5,
            max_train_points: 16_384,
        }
    }
}

/// A trained OPQ model: rotation + product quantizer in the rotated space.
#[derive(Debug, Clone)]
pub struct Opq {
    /// Row-major `D x D` rotation applied as `y = R·x`.
    pub rotation: Vec<f32>,
    /// Product quantizer trained on rotated vectors.
    pub pq: Pq,
    /// Mean reconstruction error after each alternation (diagnostics).
    pub error_trace: Vec<f32>,
}

impl Opq {
    /// Trains OPQ on `data`.
    ///
    /// # Errors
    /// Propagates PQ configuration/k-means errors and Procrustes failures.
    pub fn train(data: &VecSet, cfg: &OpqConfig) -> Result<Opq> {
        Opq::train_rows(data, cfg)
    }

    /// [`Opq::train`] over any [`RowAccess`] source. Only the (capped)
    /// training subset is ever materialized on the heap, so an
    /// out-of-core store trains without a resident copy of the base —
    /// and, because the sampled row ids and every downstream step are
    /// identical, the trained model is bit-identical to the in-RAM path.
    ///
    /// # Errors
    /// Same contract as [`Opq::train`].
    pub fn train_rows<R: RowAccess + ?Sized>(data: &R, cfg: &OpqConfig) -> Result<Opq> {
        let dim = data.dim();

        // Training subset.
        let rows: Vec<usize> = if data.len() <= cfg.max_train_points {
            (0..data.len()).collect()
        } else {
            let mut rng = StdRng::seed_from_u64(cfg.pq.seed ^ 0x0497);
            index_sample(&mut rng, data.len(), cfg.max_train_points)
                .into_iter()
                .collect()
        };
        let mut train = VecSet::with_capacity(dim, rows.len());
        for &r in &rows {
            train.push(data.row(r)).expect("dims match");
        }

        // R starts at identity (OPQ-NP); the first PQ fit already gives a
        // strong baseline, and Procrustes improves monotonically from there.
        let mut rotation = Matrix::identity(dim);
        let mut rotation_f32 = rotation.to_f32_rowmajor();
        let mut pq = None;
        let mut error_trace = Vec::with_capacity(cfg.opq_iters.max(1));

        for round in 0..cfg.opq_iters.max(1) {
            // (1) Rotate training data and fit PQ. The first round trains
            // codebooks from scratch; later rounds only need a short
            // refinement (the rotation changes gradually), which keeps OPQ
            // training linear-ish instead of `opq_iters` full k-means runs.
            let rotated = rotate_set(&rotation_f32, &train);
            let mut pq_cfg = cfg.pq.clone();
            pq_cfg.seed = cfg.pq.seed.wrapping_add(round as u64);
            if round > 0 {
                pq_cfg.train_iters = pq_cfg.train_iters.div_ceil(3).max(2);
            }
            let model = Pq::train(&rotated, &pq_cfg)?;
            error_trace.push(model.mean_reconstruction_error(&rotated));

            let last_round = round + 1 == cfg.opq_iters.max(1);
            if last_round {
                pq = Some(model);
                break;
            }

            // (2) Procrustes rotation update: R = argmin ‖X·Rᵀ − Ŷ‖F.
            let codes = model.encode_set(&rotated);
            let mut recon = vec![0.0f32; dim];
            let (mut y, mut x) = (vec![0.0f64; dim], vec![0.0f64; dim]);
            // M = Ŷᵀ·X accumulated in f64.
            let mut acc = OuterSum::full(dim, dim);
            for i in 0..train.len() {
                model.decode(codes.get(i), &mut recon);
                for (y, &r) in y.iter_mut().zip(&recon) {
                    *y = f64::from(r);
                }
                for (x, &v) in x.iter_mut().zip(train.get(i)) {
                    *x = f64::from(v);
                }
                acc.push(&y, &x);
            }
            let m = acc.finish();
            rotation = procrustes(&m)?;
            rotation_f32 = rotation.to_f32_rowmajor();
            pq = Some(model);
        }

        Ok(Opq {
            rotation: rotation_f32,
            pq: pq.expect("at least one round runs"),
            error_trace,
        })
    }

    /// Rotates one vector: `out = R·x`.
    pub fn rotate(&self, x: &[f32], out: &mut [f32]) {
        let dim = self.pq.dim;
        matvec_f32(&self.rotation, dim, dim, x, out);
    }

    /// Rotates a whole set.
    pub fn rotate_set(&self, data: &VecSet) -> VecSet {
        rotate_set(&self.rotation, data)
    }

    /// Encodes already-rotated data.
    pub fn encode_rotated(&self, rotated: &VecSet) -> crate::pq::Codes {
        self.pq.encode_set(rotated)
    }
}

fn rotate_set<R: RowAccess + ?Sized>(rotation: &[f32], data: &R) -> VecSet {
    let dim = data.dim();
    let mut out = VecSet::with_capacity(dim, data.len());
    let mut buf = vec![0.0f32; dim];
    for i in 0..data.len() {
        matvec_f32(rotation, dim, dim, data.row(i), &mut buf);
        out.push(&buf).expect("dims match");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_linalg::kernels::l2_sq;
    use ddc_vecs::SynthSpec;

    fn cfg(m: usize) -> OpqConfig {
        let mut c = OpqConfig::new(m);
        c.pq = c.pq.with_nbits(4);
        c.pq.train_iters = 8;
        c.opq_iters = 4;
        c
    }

    fn skewed_correlated_data() -> VecSet {
        // Data with strong cross-dimension correlation, where a rotation
        // genuinely helps subspace quantization.
        let mut spec = SynthSpec::tiny_test(8, 800, 3);
        spec.alpha = 2.0;
        spec.generate().base
    }

    #[test]
    fn rotation_is_orthogonal() {
        let data = skewed_correlated_data();
        let opq = Opq::train(&data, &cfg(4)).unwrap();
        let dim = 8;
        // RᵀR ≈ I in f32.
        for i in 0..dim {
            for j in 0..dim {
                let mut acc = 0.0f64;
                for k in 0..dim {
                    acc +=
                        f64::from(opq.rotation[k * dim + i]) * f64::from(opq.rotation[k * dim + j]);
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((acc - want).abs() < 1e-4, "gram[{i},{j}]={acc}");
            }
        }
    }

    #[test]
    fn rotation_preserves_distances() {
        let data = skewed_correlated_data();
        let opq = Opq::train(&data, &cfg(4)).unwrap();
        let rotated = opq.rotate_set(&data);
        for (a, b) in [(0usize, 1usize), (10, 500), (250, 799)] {
            let before = l2_sq(data.get(a), data.get(b));
            let after = l2_sq(rotated.get(a), rotated.get(b));
            assert!((before - after).abs() < 1e-3 * before.max(1.0));
        }
    }

    #[test]
    fn opq_beats_plain_pq_on_correlated_data() {
        let data = skewed_correlated_data();
        let mut pq_cfg = PqConfig::new(4).with_nbits(4);
        pq_cfg.train_iters = 8;
        let plain = Pq::train(&data, &pq_cfg).unwrap();
        let plain_err = plain.mean_reconstruction_error(&data);

        let opq = Opq::train(&data, &cfg(4)).unwrap();
        let rotated = opq.rotate_set(&data);
        let opq_err = opq.pq.mean_reconstruction_error(&rotated);
        // OPQ may only help: allow a small tolerance for k-means noise.
        assert!(
            opq_err <= plain_err * 1.05,
            "opq={opq_err} plain={plain_err}"
        );
    }

    #[test]
    fn error_trace_trends_down() {
        let data = skewed_correlated_data();
        let opq = Opq::train(&data, &cfg(4)).unwrap();
        assert_eq!(opq.error_trace.len(), 4);
        let first = opq.error_trace[0];
        let last = *opq.error_trace.last().unwrap();
        assert!(last <= first * 1.05, "trace={:?}", opq.error_trace);
    }

    #[test]
    fn adc_in_rotated_space_approximates_true_distance() {
        let data = skewed_correlated_data();
        let opq = Opq::train(&data, &cfg(4)).unwrap();
        let rotated = opq.rotate_set(&data);
        let codes = opq.encode_rotated(&rotated);

        let q = data.get(42);
        let mut rq = vec![0.0f32; 8];
        opq.rotate(q, &mut rq);
        let mut lut = Vec::new();
        opq.pq.build_lut(&rq, &mut lut);

        // Mean relative ADC error vs exact distances should be modest.
        let mut rel = 0.0f64;
        let mut cnt = 0usize;
        for i in (0..data.len()).step_by(37) {
            if i == 42 {
                continue;
            }
            let exact = l2_sq(q, data.get(i));
            let approx = opq.pq.adc(&lut, codes.get(i));
            rel += f64::from((approx - exact).abs() / exact.max(1e-3));
            cnt += 1;
        }
        rel /= cnt as f64;
        assert!(rel < 0.5, "mean relative ADC error {rel}");
    }

    #[test]
    fn single_round_equals_plain_pq_with_identity_rotation() {
        let data = skewed_correlated_data();
        let mut c = cfg(2);
        c.opq_iters = 1;
        let opq = Opq::train(&data, &c).unwrap();
        // Rotation must still be identity.
        for i in 0..8 {
            for j in 0..8 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert_eq!(opq.rotation[i * 8 + j], want);
            }
        }
    }
}

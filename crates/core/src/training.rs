//! Training-sample collection for the data-driven DCOs (paper §V, §VII-A).
//!
//! The paper's labeling protocol: run training queries against the database;
//! for each training query `t`, the threshold is `τ_t` = distance to its
//! `K`-th exact neighbor; the exact KNNs are label-0 samples ("must not be
//! pruned") and randomly-drawn points — overwhelmingly with `dis > τ_t` —
//! provide label-1 samples. Features are the approximate distance (at every
//! incremental level for projections), the threshold, and for OPQ the
//! point's quantization error.

use ddc_learn::Dataset;
use ddc_linalg::kernels::{l2_sq, l2_sq_range};
use ddc_linalg::RowAccess;
use ddc_quant::{Codes, Pq};
use ddc_vecs::{TopK, VecSet};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Caps on training-collection work.
#[derive(Debug, Clone)]
pub struct TrainingCaps {
    /// Maximum training queries used.
    pub max_queries: usize,
    /// Randomly-sampled candidates (mostly label 1) per query.
    pub negatives_per_query: usize,
    /// `K` defining `τ_t` and the label-0 set.
    pub k: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for TrainingCaps {
    fn default() -> Self {
        Self {
            max_queries: 256,
            negatives_per_query: 64,
            k: 20,
            seed: 0x7EA1,
        }
    }
}

/// Per-query exact scan shared by both collectors: returns
/// `(sorted_knn_ids, tau)`.
fn exact_scan<R: RowAccess + ?Sized>(base: &R, q: &[f32], k: usize) -> (Vec<u32>, f32) {
    let mut top = TopK::new(k.min(base.len()));
    for i in 0..base.len() {
        top.offer(i as u32, l2_sq(base.row(i), q));
    }
    let sorted = top.into_sorted();
    let tau = sorted.last().map_or(f32::INFINITY, |n| n.dist);
    (sorted.iter().map(|n| n.id).collect(), tau)
}

/// Collects one [`Dataset`] per projection level with features
/// `[dis′_level, τ]` (DDCpca's feature set, §V.B).
///
/// `rotated_base` / `rotated_queries` must already be in the projection
/// space; `levels` are the incremental dimensionalities to featurize.
pub fn collect_projection_samples<R: RowAccess + ?Sized>(
    rotated_base: &R,
    rotated_queries: &VecSet,
    levels: &[usize],
    caps: &TrainingCaps,
) -> Vec<Dataset> {
    let mut datasets: Vec<Dataset> = levels.iter().map(|_| Dataset::new(2)).collect();
    let mut rng = StdRng::seed_from_u64(caps.seed);
    let nq = rotated_queries.len().min(caps.max_queries);
    let n = rotated_base.len();

    let mut feats = vec![0.0f32; levels.len()];
    for t in 0..nq {
        let q = rotated_queries.get(t);
        let (knn, tau) = exact_scan(rotated_base, q, caps.k);
        let emit = |id: u32, feats: &mut [f32], datasets: &mut [Dataset]| {
            let x = rotated_base.row(id as usize);
            // Partial distances at every level in one left-to-right pass.
            let mut acc = 0.0f32;
            let mut lo = 0usize;
            for (li, &d) in levels.iter().enumerate() {
                acc += l2_sq_range(x, q, lo, d);
                lo = d;
                feats[li] = acc;
            }
            // Label with the same full-width kernel `exact_scan` used, so the
            // K-th neighbor compares bit-identically against its own τ.
            let exact = l2_sq(x, q);
            let label = exact > tau;
            for (li, ds) in datasets.iter_mut().enumerate() {
                ds.push(&[feats[li], tau], label);
            }
        };
        for &id in &knn {
            emit(id, &mut feats, &mut datasets);
        }
        for _ in 0..caps.negatives_per_query {
            emit(rng.random_range(0..n) as u32, &mut feats, &mut datasets);
        }
    }
    datasets
}

/// Collects the single [`Dataset`] for DDCopq with features
/// `[adc, τ, quantization_error]` (§V.B).
///
/// `rotated_base` / `rotated_queries` are in the OPQ-rotated space; `codes`
/// and `qerr` come from encoding the rotated base.
pub fn collect_opq_samples<R: RowAccess + ?Sized>(
    rotated_base: &R,
    rotated_queries: &VecSet,
    pq: &Pq,
    codes: &Codes,
    qerr: &[f32],
    caps: &TrainingCaps,
) -> Dataset {
    let mut dataset = Dataset::new(3);
    let mut rng = StdRng::seed_from_u64(caps.seed ^ 0x09B);
    let nq = rotated_queries.len().min(caps.max_queries);
    let n = rotated_base.len();
    let mut lut = Vec::new();

    for t in 0..nq {
        let q = rotated_queries.get(t);
        pq.build_lut(q, &mut lut);
        let (knn, tau) = exact_scan(rotated_base, q, caps.k);
        let emit = |id: u32, dataset: &mut Dataset| {
            let adc = pq.adc(&lut, codes.get(id as usize));
            let exact = l2_sq(rotated_base.row(id as usize), q);
            dataset.push(&[adc, tau, qerr[id as usize]], exact > tau);
        };
        for &id in &knn {
            emit(id, &mut dataset);
        }
        for _ in 0..caps.negatives_per_query {
            emit(rng.random_range(0..n) as u32, &mut dataset);
        }
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_quant::PqConfig;
    use ddc_vecs::SynthSpec;

    fn workload() -> ddc_vecs::Workload {
        SynthSpec::tiny_test(16, 300, 31).generate()
    }

    #[test]
    fn projection_samples_have_expected_shape() {
        let w = workload();
        let caps = TrainingCaps {
            max_queries: 8,
            negatives_per_query: 10,
            k: 5,
            seed: 0,
        };
        let levels = [4usize, 8, 12];
        let ds = collect_projection_samples(&w.base, &w.train_queries, &levels, &caps);
        assert_eq!(ds.len(), 3);
        for d in &ds {
            assert_eq!(d.n_features(), 2);
            assert_eq!(d.len(), 8 * (5 + 10));
        }
    }

    #[test]
    fn knn_samples_are_label0_and_randoms_mostly_label1() {
        let w = workload();
        let caps = TrainingCaps {
            max_queries: 10,
            negatives_per_query: 30,
            k: 5,
            seed: 0,
        };
        let ds = collect_projection_samples(&w.base, &w.train_queries, &[8], &caps);
        let d = &ds[0];
        // First k samples per query are the exact KNN ⇒ label 0 (dis ≤ τ).
        let per_q = 5 + 30;
        for t in 0..10 {
            for j in 0..5 {
                assert!(!d.label(t * per_q + j), "query {t} knn {j} mislabeled");
            }
        }
        // Random candidates in a 300-point set are nearly always beyond τ.
        let pos = d.positives();
        assert!(
            pos as f64 > 0.8 * (10.0 * 30.0),
            "expected most randoms label-1, got {pos}"
        );
    }

    #[test]
    fn projection_features_increase_with_level() {
        let w = workload();
        let caps = TrainingCaps {
            max_queries: 4,
            negatives_per_query: 5,
            k: 3,
            seed: 0,
        };
        let levels = [4usize, 12];
        let ds = collect_projection_samples(&w.base, &w.train_queries, &levels, &caps);
        for i in 0..ds[0].len() {
            let f4 = ds[0].features(i)[0];
            let f12 = ds[1].features(i)[0];
            assert!(f12 >= f4 - 1e-5, "partial distances must be monotone");
            // Same τ at every level.
            assert_eq!(ds[0].features(i)[1], ds[1].features(i)[1]);
        }
    }

    #[test]
    fn opq_samples_have_three_features() {
        let w = workload();
        let pq = Pq::train(&w.base, &PqConfig::new(4).with_nbits(4)).unwrap();
        let codes = pq.encode_set(&w.base);
        let qerr = pq.reconstruction_errors(&w.base, &codes);
        let caps = TrainingCaps {
            max_queries: 6,
            negatives_per_query: 8,
            k: 4,
            seed: 0,
        };
        let ds = collect_opq_samples(&w.base, &w.train_queries, &pq, &codes, &qerr, &caps);
        assert_eq!(ds.n_features(), 3);
        assert_eq!(ds.len(), 6 * (4 + 8));
        // qerr feature is one of the precomputed values.
        for i in 0..ds.len() {
            let f = ds.features(i);
            assert!(f[2] >= 0.0);
            assert!(f[0] >= 0.0 && f[1] > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let w = workload();
        let caps = TrainingCaps::default();
        let a = collect_projection_samples(&w.base, &w.train_queries, &[8], &caps);
        let b = collect_projection_samples(&w.base, &w.train_queries, &[8], &caps);
        assert_eq!(a[0].len(), b[0].len());
        for i in 0..a[0].len() {
            assert_eq!(a[0].features(i), b[0].features(i));
            assert_eq!(a[0].label(i), b[0].label(i));
        }
    }
}

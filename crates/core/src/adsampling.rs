//! ADSampling — the state-of-the-art baseline the paper improves on (§III).
//!
//! Preprocessing applies a Haar-random rotation to the dataset, making every
//! coordinate prefix a random projection. At query time the distance is
//! sampled dimension-block by dimension-block; after `d` dimensions the
//! scaled partial distance `(D/d)·‖y_d − q_d‖²` estimates `dis`, and the
//! JL-style hypothesis test (paper Lemma 1) prunes once
//!
//! ```text
//! (D/d)·‖y_d − q_d‖² > τ · (1 + ε₀/√d)²
//! ```
//!
//! holds — i.e. the estimate clears the threshold by more than the
//! multiplicative error bound at significance `2·exp(-c₀·ε₀²)`. If no prefix
//! prunes, the scan reaches `d = D` and the distance is exact.
//!
//! Metric support: the store preps cosine / weighted-L2 rows and queries
//! before rotation, after which the scan above *is* the metric distance —
//! the JL test applies unchanged. Inner product
//! exploits that the rotation is dot-preserving (orthogonal, no
//! centering): the scan accumulates the partial dot, and a deterministic
//! Cauchy–Schwarz certificate replaces the hypothesis test —
//!
//! ```text
//! dis = −⟨x, q⟩ ≥ −⟨x_d, q_d⟩ − ‖x_{>d}‖·‖q_{>d}‖
//! ```
//!
//! so a candidate prunes exactly when that lower bound already exceeds
//! `τ`. Per-row suffix norms at each `Δd` boundary are precomputed at
//! build/append/restore time (never serialized — they are derivable from
//! the stored rotated rows), and the certificate is *exact*: unlike the
//! JL test it can never prune a true neighbor, so `ε₀` is unused for IP.
//!
//! The block scans (`l2_sq_range` at arbitrary `Δd` offsets) and the
//! per-query rotation (`matvec_f32`) go through the runtime-dispatched
//! SIMD kernels of [`ddc_linalg::kernels`]; `DDC_FORCE_SCALAR=1` restores
//! the paper's SIMD-free cost model (§VII-A).

use crate::counters::Counters;
use crate::projected::{remove_column_rows, Projected, Projection};
use crate::snap_state::{StateReader, StateWriter};
use crate::traits::{Dco, Decision, QueryDco};
use ddc_linalg::kernels::{dot, dot_range, l2_sq, l2_sq_range, norm_sq_range};
use ddc_linalg::orthogonal::random_orthogonal_f32;
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::SharedRows;

/// ADSampling configuration.
#[derive(Debug, Clone)]
pub struct AdSamplingConfig {
    /// Error-bound parameter `ε₀` (the reference implementation's default
    /// is 2.1). Unused under inner product, whose certificate is exact.
    pub epsilon0: f32,
    /// Dimension increment `Δd` per sampling round.
    pub delta_d: usize,
    /// Seed of the random rotation.
    pub seed: u64,
    /// Distance metric the operator answers in.
    pub metric: Metric,
}

impl Default for AdSamplingConfig {
    fn default() -> Self {
        Self {
            epsilon0: 2.1,
            delta_d: 32,
            seed: 0x0AD5,
            metric: Metric::L2,
        }
    }
}

/// ADSampling DCO: rotated data + the hypothesis-test scan.
#[derive(Debug, Clone)]
pub struct AdSampling {
    store: Projected,
    epsilon0: f32,
    delta_d: usize,
    seed: u64,
    /// Inner-product only: per-row suffix norms `‖x_{>d}‖` at every `Δd`
    /// boundary `d < D`, row-major `len × checkpoints`. Recomputed from
    /// the stored rotated rows at build/append/restore; empty otherwise.
    ip_suffix: Vec<f32>,
}

/// `Δd` boundaries `d < dim` where the scan pauses to test.
fn checkpoints(dim: usize, delta_d: usize) -> Vec<usize> {
    (1..)
        .map(|k| k * delta_d)
        .take_while(|&d| d < dim)
        .collect()
}

/// Appends `‖x_{>d}‖` for each checkpoint of one rotated row.
fn push_suffix_norms(x: &[f32], delta_d: usize, out: &mut Vec<f32>) {
    for d in checkpoints(x.len(), delta_d) {
        out.push(norm_sq_range(x, d, x.len()).sqrt());
    }
}

fn check_scan(epsilon0: f32, delta_d: usize) -> crate::Result<()> {
    if delta_d == 0 {
        return Err(crate::CoreError::Config("delta_d must be positive".into()));
    }
    if epsilon0.is_nan() || epsilon0 <= 0.0 {
        return Err(crate::CoreError::Config("epsilon0 must be positive".into()));
    }
    Ok(())
}

impl AdSampling {
    /// Rotates `base` — any [`RowAccess`] source — with a fresh Haar
    /// rotation: rows stream into the store and are rotated there in
    /// place, so only the rotated output is ever resident.
    pub fn build<R: RowAccess + ?Sized>(
        base: &R,
        cfg: AdSamplingConfig,
    ) -> crate::Result<AdSampling> {
        check_scan(cfg.epsilon0, cfg.delta_d)?;
        let store = Projected::build(base, cfg.metric, "ADSampling")?;
        let rotation = random_orthogonal_f32(base.dim(), cfg.seed);
        let store = store.project(Projection::Rotation(rotation));
        Ok(AdSampling::over(store, cfg.epsilon0, cfg.delta_d, cfg.seed))
    }

    /// Rebuilds the operator from a snapshot state blob (rotation +
    /// config) plus its pre-rotated row matrix — no re-rotation, so the
    /// restored operator is bit-identical to the saved one. (Inner-product
    /// suffix norms are recomputed from the rows, deterministically.)
    ///
    /// # Errors
    /// [`crate::CoreError::Config`] on malformed, mislabeled, or
    /// inconsistent state.
    pub fn restore(state: &[u8], rows: SharedRows) -> crate::Result<AdSampling> {
        let mut r = StateReader::new(state, "ADSampling");
        r.expect_name("ADSampling")?;
        let (epsilon0, delta_d, seed) = (r.take_f32()?, r.take_usize()?, r.take_u64()?);
        check_scan(epsilon0, delta_d)?;
        let rotation = Projection::take_rotation(&mut r)?;
        let store = Projected::restore(r, rotation, rows)?;
        Ok(AdSampling::over(store, epsilon0, delta_d, seed))
    }

    /// Derives the suffix-norm column from the stored rows.
    fn over(store: Projected, epsilon0: f32, delta_d: usize, seed: u64) -> AdSampling {
        let mut ip_suffix = Vec::new();
        if store.is_ip() {
            for i in 0..store.len() {
                push_suffix_norms(store.row(i), delta_d, &mut ip_suffix);
            }
        }
        AdSampling {
            store,
            epsilon0,
            delta_d,
            seed,
            ip_suffix,
        }
    }
}

/// Per-query ADSampling state.
#[derive(Debug)]
pub struct AdSamplingQuery<'a> {
    dco: &'a AdSampling,
    q: Vec<f32>,
    /// `‖q_{>d}‖` per checkpoint — inner product only.
    ip_q_suffix: Vec<f32>,
    counters: Counters,
}

impl Dco for AdSampling {
    type Query<'a> = AdSamplingQuery<'a>;

    fn name(&self) -> &'static str {
        "ADSampling"
    }

    fn store(&self) -> &Projected {
        &self.store
    }

    /// Preprocessing bytes beyond the raw vectors: the rotation matrix
    /// (`D²` floats — the paper's Fig. 7 space accounting), plus the
    /// per-row suffix-norm table under inner product.
    fn extra_bytes(&self) -> usize {
        (self.store.extra_floats() + self.ip_suffix.len()) * std::mem::size_of::<f32>()
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new("ADSampling");
        w.put_f32(self.epsilon0);
        w.put_usize(self.delta_d);
        w.put_u64(self.seed);
        self.store.put_projection(&mut w);
        self.store.put_metric(&mut w);
        w.into_bytes()
    }

    /// The rotation is data-independent (Haar random from the seed), so
    /// the grown operator is bit-identical to building over the grown set
    /// — never stale.
    fn append_rows(&mut self, new_rows: &dyn RowAccess) -> crate::Result<()> {
        let (is_ip, delta_d, suffix) = (self.store.is_ip(), self.delta_d, &mut self.ip_suffix);
        self.store.append(new_rows, false, |x| {
            if is_ip {
                push_suffix_norms(x, delta_d, suffix);
            }
        })
    }

    fn remove_rows(&mut self, dead_mask: &[bool]) -> crate::Result<()> {
        self.store.remove(dead_mask)?;
        remove_column_rows(&mut self.ip_suffix, dead_mask);
        Ok(())
    }

    fn begin_projected<'a>(&'a self, rq: Vec<f32>) -> AdSamplingQuery<'a> {
        let mut ip_q_suffix = Vec::new();
        if self.store.is_ip() {
            push_suffix_norms(&rq, self.delta_d, &mut ip_q_suffix);
        }
        AdSamplingQuery {
            dco: self,
            q: rq,
            ip_q_suffix,
            counters: Counters::new(),
        }
    }
}

impl AdSamplingQuery<'_> {
    /// Inner-product test: incremental dot with the deterministic
    /// Cauchy–Schwarz lower bound on `−⟨x, q⟩`.
    fn test_ip(&mut self, id: u32, tau: f32) -> Decision {
        let dim = self.dco.store.dim();
        let x = self.dco.store.row(id as usize);
        let n_ck = self.ip_q_suffix.len();
        let x_suffix = &self.dco.ip_suffix[id as usize * n_ck..(id as usize + 1) * n_ck];
        let delta_d = self.dco.delta_d;
        let mut d = 0usize;
        let mut ck = 0usize;
        let mut partial = 0.0f32;
        loop {
            let next = (d + delta_d).min(dim);
            partial += dot_range(x, &self.q, d, next);
            d = next;
            if d >= dim {
                self.counters.record(false, dim as u64, dim as u64);
                return Decision::Exact(-partial);
            }
            // ⟨x,q⟩ ≤ ⟨x_d,q_d⟩ + ‖x_{>d}‖·‖q_{>d}‖ (Cauchy–Schwarz), so
            // dis = −⟨x,q⟩ ≥ −partial − ‖x_{>d}‖·‖q_{>d}‖.
            let lb = -partial - x_suffix[ck] * self.ip_q_suffix[ck];
            ck += 1;
            if lb > tau {
                self.counters.record(true, d as u64, dim as u64);
                return Decision::Pruned(lb);
            }
        }
    }
}

impl QueryDco for AdSamplingQuery<'_> {
    fn exact(&mut self, id: u32) -> f32 {
        let dim = self.dco.store.dim() as u64;
        self.counters.record(false, dim, dim);
        let row = self.dco.store.row(id as usize);
        if self.dco.store.is_ip() {
            -dot(row, &self.q)
        } else {
            l2_sq(row, &self.q)
        }
    }

    fn test(&mut self, id: u32, tau: f32) -> Decision {
        if !tau.is_finite() {
            return Decision::Exact(self.exact(id));
        }
        if self.dco.store.is_ip() {
            return self.test_ip(id, tau);
        }
        let dim = self.dco.store.dim();
        let x = self.dco.store.row(id as usize);
        let eps0 = self.dco.epsilon0;
        let mut d = 0usize;
        let mut partial = 0.0f32;
        loop {
            let next = (d + self.dco.delta_d).min(dim);
            partial += l2_sq_range(x, &self.q, d, next);
            d = next;
            if d >= dim {
                self.counters.record(false, dim as u64, dim as u64);
                return Decision::Exact(partial);
            }
            // Hypothesis test on the scaled estimate (squared domain).
            let scaled = partial * (dim as f32 / d as f32);
            let bound = 1.0 + eps0 / (d as f32).sqrt();
            if scaled > tau * bound * bound {
                self.counters.record(true, d as u64, dim as u64);
                return Decision::Pruned(scaled);
            }
        }
    }

    fn prefetch(&self, id: u32) {
        self.dco.store.prefetch_row(id as usize);
    }

    fn counters(&self) -> Counters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_vecs::SynthSpec;
    use ddc_vecs::VecSet;

    fn setup() -> (ddc_vecs::Workload, AdSampling) {
        let w = SynthSpec::tiny_test(32, 400, 7).generate();
        let ads = AdSampling::build(
            &w.base,
            AdSamplingConfig {
                epsilon0: 2.1,
                delta_d: 8,
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
        (w, ads)
    }

    fn setup_ip() -> (ddc_vecs::Workload, AdSampling) {
        let w = SynthSpec::tiny_test(32, 400, 9).generate();
        let ads = AdSampling::build(
            &w.base,
            AdSamplingConfig {
                delta_d: 8,
                seed: 2,
                metric: Metric::InnerProduct,
                ..Default::default()
            },
        )
        .unwrap();
        (w, ads)
    }

    #[test]
    fn exact_distances_survive_rotation() {
        let (w, ads) = setup();
        let q = w.queries.get(0);
        let mut eval = ads.begin(q);
        for id in [0u32, 13, 250] {
            let want = l2_sq(w.base.get(id as usize), q);
            let got = eval.exact(id);
            assert!((want - got).abs() < 1e-2 * want.max(1.0), "id={id}");
        }
    }

    #[test]
    fn infinite_tau_forces_exact() {
        let (w, ads) = setup();
        let mut eval = ads.begin(w.queries.get(1));
        assert!(matches!(eval.test(5, f32::INFINITY), Decision::Exact(_)));
    }

    #[test]
    fn prunes_obviously_far_points() {
        let (w, ads) = setup();
        let q = w.queries.get(0);
        let mut eval = ads.begin(q);
        // Find the farthest and nearest points.
        let mut far = (0u32, 0.0f32);
        let mut near = (0u32, f32::INFINITY);
        for i in 0..w.base.len() {
            let d = l2_sq(w.base.get(i), q);
            if d > far.1 {
                far = (i as u32, d);
            }
            if d < near.1 {
                near = (i as u32, d);
            }
        }
        // τ barely above the nearest distance: the farthest point must prune
        // quickly with ε₀ = 2.1 on 32 dims.
        let tau = near.1 * 1.01;
        let dec = eval.test(far.0, tau);
        assert!(dec.is_pruned(), "far point not pruned: {dec:?}");
        // And the nearest point must never be pruned at τ above its distance.
        let dec = eval.test(near.0, tau);
        match dec {
            Decision::Exact(d) => assert!((d - near.1).abs() < 1e-2 * near.1.max(1.0)),
            Decision::Pruned(_) => panic!("true NN was pruned"),
        }
    }

    #[test]
    fn pruning_never_loses_a_under_threshold_point_often() {
        // Statistical safety check: points with dis ≤ τ must essentially
        // never be pruned (failure probability 2e^{-c0 ε0²} is tiny).
        let (w, ads) = setup();
        let mut wrong = 0usize;
        for qi in 0..w.queries.len() {
            let q = w.queries.get(qi);
            let mut eval = ads.begin(q);
            // τ = median distance.
            let mut dists: Vec<f32> = (0..w.base.len()).map(|i| l2_sq(w.base.get(i), q)).collect();
            dists.sort_by(f32::total_cmp);
            let tau = dists[dists.len() / 2];
            for i in 0..w.base.len() {
                let true_d = l2_sq(w.base.get(i), q);
                if true_d <= tau && eval.test(i as u32, tau).is_pruned() {
                    wrong += 1;
                }
            }
        }
        assert_eq!(wrong, 0, "{wrong} under-threshold points pruned");
    }

    #[test]
    fn counters_track_scan_savings() {
        let (w, ads) = setup();
        let q = w.queries.get(2);
        let mut eval = ads.begin(q);
        let tau = {
            let mut dists: Vec<f32> = (0..w.base.len()).map(|i| l2_sq(w.base.get(i), q)).collect();
            dists.sort_by(f32::total_cmp);
            dists[10]
        };
        for i in 0..w.base.len() as u32 {
            eval.test(i, tau);
        }
        let c = eval.counters();
        assert_eq!(c.candidates, 400);
        assert!(c.pruned > 200, "pruned={}", c.pruned);
        assert!(c.scan_rate() < 0.9, "scan_rate={}", c.scan_rate());
    }

    #[test]
    fn config_validation() {
        let w = SynthSpec::tiny_test(8, 20, 0).generate();
        assert!(AdSampling::build(
            &w.base,
            AdSamplingConfig {
                delta_d: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(AdSampling::build(
            &w.base,
            AdSamplingConfig {
                epsilon0: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(AdSampling::build(
            &w.base,
            AdSamplingConfig {
                metric: Metric::WeightedL2([1.0f32; 3].into()),
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn extra_bytes_is_rotation_size() {
        let (w, ads) = setup();
        assert_eq!(ads.extra_bytes(), 32 * 32 * 4);
        assert_eq!(ads.len(), w.base.len());
        assert_eq!(ads.dim(), 32);
        assert_eq!(ads.name(), "ADSampling");
    }

    #[test]
    fn ip_exact_is_negated_dot_and_certificate_never_false_prunes() {
        let (w, ads) = setup_ip();
        for qi in 0..w.queries.len().min(10) {
            let q = w.queries.get(qi);
            let mut eval = ads.begin(q);
            let mut dists: Vec<f32> = (0..w.base.len()).map(|i| -dot(w.base.get(i), q)).collect();
            dists.sort_by(f32::total_cmp);
            let tau = dists[dists.len() / 2];
            for i in 0..w.base.len() {
                let true_d = -dot(w.base.get(i), q);
                match eval.test(i as u32, tau) {
                    Decision::Exact(d) => {
                        assert!(
                            (d - true_d).abs() < 1e-2 * true_d.abs().max(1.0),
                            "id {i}: {d} vs {true_d}"
                        );
                    }
                    Decision::Pruned(lb) => {
                        // The Cauchy–Schwarz bound is deterministic: a
                        // pruned point's true distance must exceed τ.
                        assert!(
                            true_d > tau * (1.0 - 1e-5) - 1e-5,
                            "id {i}: pruned (lb={lb}) but true {true_d} <= tau {tau}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ip_certificate_actually_prunes() {
        let (w, ads) = setup_ip();
        let q = w.queries.get(0);
        let mut eval = ads.begin(q);
        let mut dists: Vec<f32> = (0..w.base.len()).map(|i| -dot(w.base.get(i), q)).collect();
        dists.sort_by(f32::total_cmp);
        // A tight τ (10th best) must let the certificate skip work.
        let tau = dists[10];
        for i in 0..w.base.len() as u32 {
            eval.test(i, tau);
        }
        let c = eval.counters();
        assert!(c.pruned > 50, "pruned={}", c.pruned);
        assert!(c.scan_rate() < 1.0, "scan_rate={}", c.scan_rate());
    }

    #[test]
    fn ip_restore_matches_built_bitwise() {
        let (w, ads) = setup_ip();
        let restored = AdSampling::restore(&ads.state_bytes(), ads.rows().clone()).unwrap();
        assert_eq!(Dco::metric(&restored), Metric::InnerProduct);
        let q = w.queries.get(3);
        let mut a = ads.begin(q);
        let mut b = restored.begin(q);
        let tau = a.exact(0);
        let _ = b.exact(0);
        for i in 0..w.base.len() as u32 {
            assert_eq!(a.test(i, tau), b.test(i, tau), "id {i}");
        }
    }

    #[test]
    fn ip_append_matches_full_build() {
        let w = SynthSpec::tiny_test(16, 60, 11).generate();
        let cfg = AdSamplingConfig {
            delta_d: 4,
            metric: Metric::InnerProduct,
            ..Default::default()
        };
        let full = AdSampling::build(&w.base, cfg.clone()).unwrap();
        let (head, tail) = {
            let mut head = VecSet::with_capacity(16, 40);
            let mut tail = VecSet::with_capacity(16, 20);
            for i in 0..40 {
                head.push(w.base.get(i)).unwrap();
            }
            for i in 40..60 {
                tail.push(w.base.get(i)).unwrap();
            }
            (head, tail)
        };
        let mut grown = AdSampling::build(&head, cfg).unwrap();
        grown.append_rows(&tail).unwrap();
        assert_eq!(grown.ip_suffix, full.ip_suffix);
        let q = w.queries.get(0);
        let mut a = full.begin(q);
        let mut b = grown.begin(q);
        for i in 0..60u32 {
            assert_eq!(a.exact(i), b.exact(i), "id {i}");
        }
    }

    #[test]
    fn cosine_scan_matches_raw_cosine() {
        let w = SynthSpec::tiny_test(16, 100, 13).generate();
        let ads = AdSampling::build(
            &w.base,
            AdSamplingConfig {
                delta_d: 4,
                metric: Metric::Cosine,
                ..Default::default()
            },
        )
        .unwrap();
        let q = w.queries.get(0);
        let mut eval = ads.begin(q);
        for i in 0..100u32 {
            let want = Metric::Cosine.distance(w.base.get(i as usize), q);
            let got = eval.exact(i);
            assert!(
                (want - got).abs() < 1e-3 * want.max(1.0),
                "id {i}: {got} vs {want}"
            );
        }
    }
}

//! DDCpca — data-driven correction over a plain PCA projection distance
//! (paper §V.B, "Approximate Distances / projection distances").
//!
//! The approximate distance is the bare prefix distance
//! `dis′_d = ‖x_d − q_d‖²` in PCA space — *without* the norm decomposition
//! of DDCres — and the pruning rule is a learned linear classifier
//! `w₁·dis′ + w₂·τ + b > 0` per incremental level, each calibrated by bias
//! shifting to a target label-0 recall (§V-A).
//!
//! Prefix scans (`l2_sq_range`) dispatch to the SIMD kernel backend of
//! [`ddc_linalg::kernels`]; `DDC_FORCE_SCALAR=1` pins the scalar path.

use crate::counters::Counters;
use crate::projected::{Projected, Projection};
use crate::snap_state::{StateReader, StateWriter};
use crate::training::{collect_projection_samples, TrainingCaps};
use crate::traits::{Dco, Decision, QueryDco};
use ddc_learn::{calibrate_bias, LogisticConfig, LogisticModel, LogisticRegression};
use ddc_linalg::kernels::{l2_sq, l2_sq_range};
use ddc_linalg::pca::Pca;
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::{SharedRows, VecSet};

/// DDCpca configuration.
#[derive(Debug, Clone)]
pub struct DdcPcaConfig {
    /// First projected dimensionality tested.
    pub init_d: usize,
    /// Dimension increment per level.
    pub delta_d: usize,
    /// Target recall `r` for label 0 during calibration (Exp-2 default
    /// 0.995).
    pub target_recall: f64,
    /// Fraction of training tuples held out for calibration. `0.0` trains
    /// and calibrates on the full set (the paper calibrates "on the training
    /// set"); a positive fraction reduces calibration optimism at the cost
    /// of fewer samples.
    pub holdout: f32,
    /// Logistic-regression hyperparameters.
    pub logistic: LogisticConfig,
    /// Training-collection caps.
    pub caps: TrainingCaps,
    /// Sample cap for the PCA fit.
    pub pca_samples: usize,
    /// Seed for PCA subsampling.
    pub seed: u64,
    /// Distance metric the operator answers in. Cosine / weighted-L2 rows
    /// **and training queries** are prepped before the PCA fit, so the
    /// classifiers learn prepped-space (= metric) distances; inner product
    /// keeps raw rows and answers exactly via the mean-corrected dot.
    pub metric: Metric,
}

impl Default for DdcPcaConfig {
    fn default() -> Self {
        Self {
            init_d: 32,
            delta_d: 32,
            target_recall: 0.995,
            holdout: 0.0,
            logistic: LogisticConfig::default(),
            caps: TrainingCaps::default(),
            pca_samples: 100_000,
            seed: 0xDDC2,
            metric: Metric::L2,
        }
    }
}

/// DDCpca DCO: PCA-rotated data plus one calibrated classifier per level.
#[derive(Debug, Clone)]
pub struct DdcPca {
    store: Projected,
    levels: Vec<usize>,
    models: Vec<LogisticModel>,
}

impl DdcPca {
    /// Fits the projection on `base` (any [`RowAccess`] source — one code
    /// path, hence bit-identical artifacts whichever backend supplied the
    /// rows), collects training tuples by querying the base with
    /// `train_queries`, and trains + calibrates one classifier per
    /// incremental level.
    ///
    /// # Errors
    /// Configuration errors, PCA failures, or empty training data.
    pub fn build<R: RowAccess + ?Sized>(
        base: &R,
        train_queries: &VecSet,
        cfg: DdcPcaConfig,
    ) -> crate::Result<DdcPca> {
        if cfg.init_d == 0 || cfg.delta_d == 0 {
            return Err(crate::CoreError::Config(
                "init_d and delta_d must be positive".into(),
            ));
        }
        if train_queries.is_empty() {
            return Err(crate::CoreError::InsufficientTraining {
                what: "DDCpca (no training queries)",
                got: 0,
            });
        }
        let dim = base.dim();
        let store = Projected::build(base, cfg.metric, "DDCpca")?;
        let pca = Pca::fit_rows(store.rows(), cfg.pca_samples, cfg.seed)?;
        let store = store.project(Projection::Pca(pca));
        // Training queries go through the store like any query batch, so
        // the collected tuples are prepped-space (= metric) distances.
        let rq = VecSet::from_flat(dim, store.project_batch(train_queries))?;

        // Levels strictly below D: at d = D the distance is exact anyway.
        let mut levels = Vec::new();
        let mut d = cfg.init_d.min(dim);
        while d < dim {
            levels.push(d);
            d += cfg.delta_d;
        }
        if levels.is_empty() {
            // Degenerate (init_d >= D): keep one level at D/2 so the DCO
            // still has a pruning opportunity.
            levels.push((dim / 2).max(1));
        }

        let datasets = collect_projection_samples(store.rows(), &rq, &levels, &cfg.caps);
        let mut models = Vec::with_capacity(levels.len());
        for ds in &datasets {
            if ds.is_empty() {
                return Err(crate::CoreError::InsufficientTraining {
                    what: "DDCpca classifier",
                    got: 0,
                });
            }
            let (train, hold) = ds.split_holdout(cfg.holdout);
            let fit_on = if train.is_empty() { ds } else { &train };
            let mut model = LogisticRegression::train(fit_on, &cfg.logistic);
            let calibrate_on = if hold.is_empty() { ds } else { &hold };
            calibrate_bias(&mut model, calibrate_on, cfg.target_recall);
            models.push(model);
        }
        Ok(DdcPca {
            store,
            levels,
            models,
        })
    }

    /// Rebuilds the operator from a snapshot state blob (PCA transform,
    /// levels, calibrated per-level classifiers) plus its pre-rotated row
    /// matrix — no refit, no retraining, bit-identical to the saved
    /// operator.
    ///
    /// # Errors
    /// [`crate::CoreError::Config`] on malformed, mislabeled, or
    /// inconsistent state.
    pub fn restore(state: &[u8], rows: SharedRows) -> crate::Result<DdcPca> {
        let mut r = StateReader::new(state, "DDCpca");
        r.expect_name("DDCpca")?;
        let pca = Projection::take_pca(&mut r)?;
        // Each level takes an 8-byte width, then a model: an 8-byte weight
        // count and a 4-byte bias.
        let n_levels = r.take_count(20)?;
        if n_levels == 0 || n_levels > rows.dim().max(1) {
            return Err(crate::CoreError::Config(format!(
                "DDCpca state: implausible level count {n_levels}"
            )));
        }
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            levels.push(r.take_usize()?);
        }
        let mut models = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            models.push(LogisticModel {
                weights: r.take_f32s()?,
                bias: r.take_f32()?,
            });
        }
        Ok(DdcPca {
            store: Projected::restore(r, pca, rows)?,
            levels,
            models,
        })
    }

    /// The incremental levels in use.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// The calibrated per-level models.
    pub fn models(&self) -> &[LogisticModel] {
        &self.models
    }
}

/// Per-query DDCpca state.
#[derive(Debug)]
pub struct DdcPcaQuery<'a> {
    dco: &'a DdcPca,
    q: Vec<f32>,
    /// `⟨q′, c⟩` — inner-product mean correction; 0 otherwise.
    ip_qc: f32,
    counters: Counters,
}

impl Dco for DdcPca {
    type Query<'a> = DdcPcaQuery<'a>;

    fn name(&self) -> &'static str {
        "DDCpca"
    }

    fn store(&self) -> &Projected {
        &self.store
    }

    /// Preprocessing bytes beyond raw vectors: rotation + per-level models
    /// (+ the inner-product correction table when that metric is active).
    fn extra_bytes(&self) -> usize {
        let model_floats: usize = self.models.iter().map(|m| m.weights.len() + 1).sum();
        (self.store.extra_floats() + model_floats) * std::mem::size_of::<f32>()
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new("DDCpca");
        self.store.put_projection(&mut w);
        w.put_usize(self.levels.len());
        for &l in &self.levels {
            w.put_usize(l);
        }
        for m in &self.models {
            w.put_f32s(&m.weights);
            w.put_f32(m.bias);
        }
        self.store.put_metric(&mut w);
        w.into_bytes()
    }

    /// Appends rows through the already-fitted PCA basis. Exactness is
    /// preserved (the rotation is orthonormal), but both the basis and the
    /// per-level classifiers were trained before these rows arrived, so
    /// each append bumps [`Dco::stale_rows`] until a compaction retrains.
    fn append_rows(&mut self, new_rows: &dyn RowAccess) -> crate::Result<()> {
        self.store.append(new_rows, true, |_| {})
    }

    fn remove_rows(&mut self, dead_mask: &[bool]) -> crate::Result<()> {
        self.store.remove(dead_mask)
    }

    fn begin_projected<'a>(&'a self, rq: Vec<f32>) -> DdcPcaQuery<'a> {
        DdcPcaQuery {
            dco: self,
            ip_qc: self.store.ip_query_term(&rq),
            q: rq,
            counters: Counters::new(),
        }
    }
}

impl QueryDco for DdcPcaQuery<'_> {
    fn exact(&mut self, id: u32) -> f32 {
        let store = &self.dco.store;
        let dim = store.dim() as u64;
        self.counters.record(false, dim, dim);
        if store.is_ip() {
            return store.ip_exact(id as usize, &self.q, self.ip_qc);
        }
        l2_sq(store.row(id as usize), &self.q)
    }

    fn test(&mut self, id: u32, tau: f32) -> Decision {
        if !tau.is_finite() || self.dco.store.is_ip() {
            // The classifiers are trained on (prepped-space) L2 prefix
            // distances; under IP there is no such reduction — answer
            // exactly with honest full-scan counters.
            return Decision::Exact(self.exact(id));
        }
        let dim = self.dco.store.dim();
        let x = self.dco.store.row(id as usize);
        let mut acc = 0.0f32;
        let mut lo = 0usize;
        for (level, model) in self.dco.levels.iter().zip(&self.dco.models) {
            acc += l2_sq_range(x, &self.q, lo, *level);
            lo = *level;
            if model.predict(&[acc, tau]) {
                self.counters.record(true, *level as u64, dim as u64);
                return Decision::Pruned(acc);
            }
        }
        acc += l2_sq_range(x, &self.q, lo, dim);
        self.counters.record(false, dim as u64, dim as u64);
        Decision::Exact(acc)
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
    use ddc_linalg::kernels::dot;
    use ddc_vecs::SynthSpec;

    #[test]
    fn restore_rejects_a_forged_level_count_before_allocating() {
        // Zero rows of a forged width admit any level count up to that
        // width; sizing the level table from 2^36 would abort the process.
        let mut w = StateWriter::new("DDCpca");
        w.put_usize(4); // pca dim
        for _ in 0..3 {
            w.put_f32s(&[]); // mean, rotation, eigenvalues
        }
        w.put_usize(1 << 36); // levels
        let rows = SharedRows::from(VecSet::new(1 << 40));
        let err = DdcPca::restore(&w.into_bytes(), rows).unwrap_err();
        assert!(err.to_string().contains("implausible count"), "{err}");
    }

    fn setup() -> (ddc_vecs::Workload, DdcPca) {
        let mut spec = SynthSpec::tiny_test(16, 400, 41);
        spec.alpha = 1.5;
        spec.n_train_queries = 32;
        let w = spec.generate();
        let dco = DdcPca::build(
            &w.base,
            &w.train_queries,
            DdcPcaConfig {
                init_d: 4,
                delta_d: 4,
                caps: TrainingCaps {
                    max_queries: 32,
                    negatives_per_query: 40,
                    k: 10,
                    seed: 0,
                },
                ..Default::default()
            },
        )
        .unwrap();
        (w, dco)
    }

    #[test]
    fn levels_cover_strictly_below_dim() {
        let (_, dco) = setup();
        assert_eq!(dco.levels(), &[4, 8, 12]);
        assert_eq!(dco.models().len(), 3);
    }

    #[test]
    fn exact_distances_survive_rotation() {
        let (w, dco) = setup();
        let q = w.queries.get(0);
        let mut eval = dco.begin(q);
        for id in [0u32, 200, 399] {
            let want = l2_sq(w.base.get(id as usize), q);
            let got = eval.exact(id);
            assert!((want - got).abs() < 1e-2 * want.max(1.0));
        }
    }

    #[test]
    fn unpruned_candidates_get_exact_distances() {
        let (w, dco) = setup();
        let q = w.queries.get(1);
        let mut eval = dco.begin(q);
        for id in 0..100u32 {
            if let Decision::Exact(d) = eval.test(id, 1e20) {
                let want = l2_sq(w.base.get(id as usize), q);
                assert!((want - d).abs() < 1e-2 * want.max(1.0), "id={id}");
            }
            // Pruning at τ=1e20 would be a calibration disaster; allow but
            // count in the next test instead.
        }
    }

    #[test]
    fn rarely_prunes_points_under_threshold() {
        // Calibrated to 99.5% label-0 recall on training data: on held-out
        // queries the violation rate should stay small.
        let (w, dco) = setup();
        let mut wrong = 0usize;
        let mut under = 0usize;
        for qi in 0..w.queries.len() {
            let q = w.queries.get(qi);
            let mut eval = dco.begin(q);
            let mut dists: Vec<f32> = (0..w.base.len()).map(|i| l2_sq(w.base.get(i), q)).collect();
            let mut sorted = dists.clone();
            sorted.sort_by(f32::total_cmp);
            let tau = sorted[10];
            for (i, &d) in dists.iter().enumerate() {
                if d <= tau {
                    under += 1;
                    if eval.test(i as u32, tau).is_pruned() {
                        wrong += 1;
                    }
                }
            }
            dists.clear();
        }
        // Per-level calibration targets 0.995; with 3 levels compounding and
        // a small training set, a few percent on held-out queries is the
        // expected regime (the paper's 10k-query training sets land <0.5%).
        let rate = wrong as f64 / under.max(1) as f64;
        assert!(rate < 0.08, "under-threshold prune rate {rate}");
    }

    #[test]
    fn prunes_a_useful_fraction_of_far_points() {
        let (w, dco) = setup();
        let q = w.queries.get(2);
        let mut eval = dco.begin(q);
        let mut sorted: Vec<f32> = (0..w.base.len()).map(|i| l2_sq(w.base.get(i), q)).collect();
        sorted.sort_by(f32::total_cmp);
        let tau = sorted[10];
        for i in 0..w.base.len() as u32 {
            eval.test(i, tau);
        }
        let c = eval.counters();
        assert!(c.pruned_rate() > 0.3, "pruned_rate={}", c.pruned_rate());
        assert!(c.scan_rate() < 1.0);
    }

    #[test]
    fn build_errors() {
        let w = SynthSpec::tiny_test(8, 100, 1).generate();
        let empty = VecSet::new(8);
        assert!(matches!(
            DdcPca::build(&w.base, &empty, DdcPcaConfig::default()),
            Err(crate::CoreError::InsufficientTraining { .. })
        ));
        assert!(DdcPca::build(
            &w.base,
            &w.train_queries,
            DdcPcaConfig {
                init_d: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn ip_exact_matches_raw_negated_dot_and_round_trips() {
        let mut spec = SynthSpec::tiny_test(12, 150, 43);
        spec.n_train_queries = 16;
        let w = spec.generate();
        let dco = DdcPca::build(
            &w.base,
            &w.train_queries,
            DdcPcaConfig {
                init_d: 4,
                delta_d: 4,
                metric: Metric::InnerProduct,
                caps: TrainingCaps {
                    max_queries: 16,
                    negatives_per_query: 20,
                    k: 5,
                    seed: 0,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(Dco::metric(&dco), Metric::InnerProduct);
        let q = w.queries.get(0);
        let mut eval = dco.begin(q);
        for id in 0..150u32 {
            let want = -dot(w.base.get(id as usize), q);
            let got = eval.exact(id);
            assert!(
                (want - got).abs() < 1e-2 * want.abs().max(1.0),
                "id={id}: {got} vs {want}"
            );
            assert_eq!(eval.test(id, -1e30), Decision::Exact(got));
        }
        let restored = DdcPca::restore(&dco.state_bytes(), dco.rows().clone()).unwrap();
        let mut a = dco.begin(q);
        let mut b = restored.begin(q);
        for id in 0..150u32 {
            assert_eq!(a.exact(id), b.exact(id), "id {id}");
        }
    }

    #[test]
    fn cosine_build_answers_raw_cosine() {
        let mut spec = SynthSpec::tiny_test(12, 150, 44);
        spec.n_train_queries = 16;
        let w = spec.generate();
        let dco = DdcPca::build(
            &w.base,
            &w.train_queries,
            DdcPcaConfig {
                init_d: 4,
                delta_d: 4,
                metric: Metric::Cosine,
                caps: TrainingCaps {
                    max_queries: 16,
                    negatives_per_query: 20,
                    k: 5,
                    seed: 0,
                },
                ..Default::default()
            },
        )
        .unwrap();
        let q = w.queries.get(1);
        let mut eval = dco.begin(q);
        for id in [0u32, 50, 149] {
            let want = Metric::Cosine.distance(w.base.get(id as usize), q);
            let got = eval.exact(id);
            assert!(
                (want - got).abs() < 1e-3 * want.max(1.0),
                "id={id}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn degenerate_init_d_still_builds() {
        let w = SynthSpec::tiny_test(8, 150, 2).generate();
        let dco = DdcPca::build(
            &w.base,
            &w.train_queries,
            DdcPcaConfig {
                init_d: 8, // == dim
                delta_d: 8,
                caps: TrainingCaps {
                    max_queries: 8,
                    negatives_per_query: 16,
                    k: 4,
                    seed: 0,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(dco.levels(), &[4]);
    }
}

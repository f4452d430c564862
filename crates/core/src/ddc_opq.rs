//! DDCopq — data-driven correction over OPQ asymmetric distances
//! (paper §V.B, "quantization distances").
//!
//! The approximate distance is the ADC lookup `Σ_s lut_s[code_s(x)]` in the
//! OPQ-rotated space. The correction classifier sees three features: the
//! ADC distance, the threshold `τ`, and the candidate's quantization error
//! `‖x − x̂‖²` ("this additional feature further enhances the effectiveness
//! of the linear model"). There is no incremental level: a candidate either
//! prunes on the code distance or pays one exact computation.

use crate::counters::Counters;
use crate::projected::{remove_column_rows, Projected, Projection};
use crate::snap_state::{StateReader, StateWriter};
use crate::training::{collect_opq_samples, TrainingCaps};
use crate::traits::{Dco, Decision, QueryDco};
use ddc_learn::{calibrate_bias, LogisticConfig, LogisticModel, LogisticRegression};
use ddc_linalg::kernels::{dot, l2_sq, prefetch_head};
use ddc_linalg::{Metric, RowAccess};
use ddc_quant::{Codes, Opq, OpqConfig, Pq};
use ddc_vecs::{SharedRows, VecSet};

/// DDCopq configuration.
#[derive(Debug, Clone)]
pub struct DdcOpqConfig {
    /// Number of PQ subspaces (`0` = auto: `D/4` clamped to `[1, D]`,
    /// the paper's §VI-B sizing).
    pub m: usize,
    /// Bits per sub-code.
    pub nbits: usize,
    /// OPQ alternations.
    pub opq_iters: usize,
    /// Target recall `r` for label 0 during calibration.
    pub target_recall: f64,
    /// Fraction of training tuples held out for calibration (`0.0` = train
    /// and calibrate on the full set, as the paper does).
    pub holdout: f32,
    /// Logistic-regression hyperparameters.
    pub logistic: LogisticConfig,
    /// Training-collection caps.
    pub caps: TrainingCaps,
    /// Feed the per-point quantization error as a third classifier feature
    /// (§V.B). Disable for the ablation bench.
    pub use_qerr_feature: bool,
    /// Seed.
    pub seed: u64,
    /// Distance metric the operator answers in. Cosine / weighted-L2 rows
    /// and training queries are prepped before OPQ training (codes and
    /// classifier live in prepped space, where L2 is the metric); inner
    /// product keeps raw rows — the OPQ rotation is a pure orthogonal
    /// matvec (no centering), so `−⟨x′, q′⟩ = −⟨x, q⟩` exactly, and the
    /// operator answers without pruning (ADC is L2-specific).
    pub metric: Metric,
}

impl Default for DdcOpqConfig {
    fn default() -> Self {
        Self {
            m: 0,
            nbits: 8,
            opq_iters: 4,
            target_recall: 0.995,
            holdout: 0.0,
            logistic: LogisticConfig::default(),
            caps: TrainingCaps::default(),
            use_qerr_feature: true,
            seed: 0xDDC3,
            metric: Metric::L2,
        }
    }
}

/// DDCopq DCO: OPQ rotation + codes + calibrated classifier.
#[derive(Debug, Clone)]
pub struct DdcOpq {
    /// Rows under the OPQ rotation (the store's projection).
    store: Projected,
    pq: Pq,
    /// Mean reconstruction error per OPQ alternation (persisted).
    error_trace: Vec<f32>,
    codes: Codes,
    qerr: Vec<f32>,
    /// Whether `qerr` carries real reconstruction errors (the config's
    /// `use_qerr_feature`) or zeros. Runtime-only: restore infers it once
    /// from the stored column, so an operator emptied by
    /// [`Dco::remove_rows`] still encodes its appends the way it was built.
    qerr_on: bool,
    model: LogisticModel,
}

/// Encodes one rotated row and records its quantization error — the one
/// per-row step behind both the build and the append path. With `qerr_on`
/// false the feature column is zeroed (at training AND query time), which
/// reduces the model to the two-feature form.
/// `recon` is scratch for the decoded row.
fn encode_row(
    pq: &Pq,
    x: &[f32],
    qerr_on: bool,
    recon: &mut Vec<f32>,
    codes: &mut Codes,
    qerr: &mut Vec<f32>,
) {
    let at = codes.data.len();
    codes.data.resize(at + pq.m, 0);
    pq.encode(x, &mut codes.data[at..]);
    qerr.push(if qerr_on {
        recon.resize(x.len(), 0.0);
        pq.decode(&codes.data[at..], recon);
        l2_sq(x, recon)
    } else {
        0.0
    });
}

impl DdcOpq {
    /// Trains OPQ, encodes the base, collects training tuples with
    /// `train_queries`, and fits + calibrates the classifier. `base` is
    /// any [`RowAccess`] source: rows stream into the store, OPQ trains on
    /// a capped sample of them and the rotation runs in place, so only the
    /// rotated copy this DCO keeps is ever resident (one code path, hence
    /// bit-identical whichever backend supplied the rows).
    ///
    /// # Errors
    /// Quantizer/config failures or empty training data.
    pub fn build<R: RowAccess + ?Sized>(
        base: &R,
        train_queries: &VecSet,
        cfg: DdcOpqConfig,
    ) -> crate::Result<DdcOpq> {
        if train_queries.is_empty() {
            return Err(crate::CoreError::InsufficientTraining {
                what: "DDCopq (no training queries)",
                got: 0,
            });
        }
        let dim = base.dim();
        let m = if cfg.m == 0 {
            (dim / 4).clamp(1, dim)
        } else {
            cfg.m
        };
        let mut opq_cfg = OpqConfig::new(m);
        opq_cfg.pq.nbits = cfg.nbits;
        opq_cfg.pq.seed = cfg.seed;
        opq_cfg.opq_iters = cfg.opq_iters;

        let store = Projected::build(base, cfg.metric, "DDCopq")?;
        let Opq {
            rotation,
            pq,
            error_trace,
        } = Opq::train_rows(store.rows(), &opq_cfg)?;
        let store = store.project(Projection::Rotation(rotation));
        let mut codes = Codes {
            m: pq.m,
            data: Vec::with_capacity(store.len() * pq.m),
        };
        let (mut qerr, mut recon) = (Vec::with_capacity(store.len()), Vec::new());
        for i in 0..store.len() {
            let x = store.row(i);
            encode_row(
                &pq,
                x,
                cfg.use_qerr_feature,
                &mut recon,
                &mut codes,
                &mut qerr,
            );
        }

        let rotated_queries = VecSet::from_flat(dim, store.project_batch(train_queries))?;
        let ds = collect_opq_samples(
            store.rows(),
            &rotated_queries,
            &pq,
            &codes,
            &qerr,
            &cfg.caps,
        );
        if ds.is_empty() {
            return Err(crate::CoreError::InsufficientTraining {
                what: "DDCopq classifier",
                got: 0,
            });
        }
        let (train, hold) = ds.split_holdout(cfg.holdout);
        let fit_on = if train.is_empty() { &ds } else { &train };
        let mut model = LogisticRegression::train(fit_on, &cfg.logistic);
        let calibrate_on = if hold.is_empty() { &ds } else { &hold };
        calibrate_bias(&mut model, calibrate_on, cfg.target_recall);

        Ok(DdcOpq {
            store,
            pq,
            error_trace,
            codes,
            qerr,
            qerr_on: cfg.use_qerr_feature,
            model,
        })
    }

    /// Rebuilds the operator from a snapshot state blob (OPQ rotation,
    /// codebooks, codes, quantization errors, calibrated classifier) plus
    /// its pre-rotated row matrix — no OPQ retraining, no re-encoding,
    /// bit-identical to the saved operator.
    ///
    /// # Errors
    /// [`crate::CoreError::Config`] on malformed, mislabeled, or
    /// inconsistent state.
    pub fn restore(state: &[u8], rows: SharedRows) -> crate::Result<DdcOpq> {
        let mut r = StateReader::new(state, "DDCopq");
        r.expect_name("DDCopq")?;
        let rotation = Projection::take_rotation(&mut r)?;
        let error_trace = r.take_f32s()?;
        let dim = r.take_usize()?;
        // Each subspace takes a 16-byte range and an 8-byte codebook length.
        let m = r.take_count(24)?;
        let ksub = r.take_usize()?;
        if m == 0 || m > dim.max(1) {
            return Err(crate::CoreError::Config(format!(
                "DDCopq state: implausible subspace count {m} for dim {dim}"
            )));
        }
        let mut ranges = Vec::with_capacity(m);
        for _ in 0..m {
            let start = r.take_usize()?;
            let end = r.take_usize()?;
            ranges.push((start, end));
        }
        let mut codebooks = Vec::with_capacity(m);
        for &(start, end) in &ranges {
            let sub = end.saturating_sub(start);
            let flat = r.take_f32s()?;
            codebooks.push(VecSet::from_flat(sub.max(1), flat)?);
        }
        let pq = Pq {
            dim,
            m,
            ksub,
            ranges,
            codebooks,
        };
        let codes = Codes {
            m,
            data: r.take_bytes()?,
        };
        let qerr = r.take_f32s()?;
        let model = LogisticModel {
            weights: r.take_f32s()?,
            bias: r.take_f32()?,
        };
        let store = Projected::restore(r, rotation, rows)?;
        if pq.codebooks.iter().any(|cb| cb.len() != ksub)
            || codes.data.iter().any(|&c| usize::from(c) >= ksub)
        {
            return Err(crate::CoreError::Config(
                "DDCopq state: codes or codebooks inconsistent with ksub".into(),
            ));
        }
        if dim != store.dim() || codes.len() != store.len() || qerr.len() != store.len() {
            return Err(crate::CoreError::Config(format!(
                "DDCopq state: codes/qerr geometry does not fit a {}x{} row matrix",
                store.len(),
                store.dim()
            )));
        }
        Ok(DdcOpq {
            store,
            pq,
            error_trace,
            codes,
            // The blob has no flag: a column of zeros is the ablation.
            qerr_on: qerr.iter().any(|&e| e != 0.0),
            qerr,
            model,
        })
    }

    /// The calibrated classifier.
    pub fn model(&self) -> &LogisticModel {
        &self.model
    }

    /// The inner product quantizer (for diagnostics and the query path).
    pub fn pq(&self) -> &Pq {
        &self.pq
    }
}

/// Per-query DDCopq state: rotated query + ADC lookup table.
#[derive(Debug)]
pub struct DdcOpqQuery<'a> {
    dco: &'a DdcOpq,
    q: Vec<f32>,
    lut: Vec<f32>,
    counters: Counters,
}

impl Dco for DdcOpq {
    type Query<'a> = DdcOpqQuery<'a>;

    fn name(&self) -> &'static str {
        "DDCopq"
    }

    fn store(&self) -> &Projected {
        &self.store
    }

    /// Preprocessing bytes beyond raw vectors: rotation, codes, per-point
    /// quantization errors, codebooks (Fig. 7 space accounting).
    fn extra_bytes(&self) -> usize {
        let codebooks = self.pq.codebooks.iter();
        let codebook_floats: usize = codebooks.map(|cb| cb.as_flat().len()).sum();
        (self.store.extra_floats() + codebook_floats + self.qerr.len()) * std::mem::size_of::<f32>()
            + self.codes.storage_bytes()
            + (self.model.weights.len() + 1) * std::mem::size_of::<f32>()
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new("DDCopq");
        self.store.put_projection(&mut w);
        w.put_f32s(&self.error_trace);
        w.put_usize(self.pq.dim);
        w.put_usize(self.pq.m);
        w.put_usize(self.pq.ksub);
        for &(start, end) in &self.pq.ranges {
            w.put_usize(start);
            w.put_usize(end);
        }
        for cb in &self.pq.codebooks {
            w.put_f32s(cb.as_flat());
        }
        w.put_bytes(&self.codes.data);
        w.put_f32s(&self.qerr);
        w.put_f32s(&self.model.weights);
        w.put_f32(self.model.bias);
        self.store.put_metric(&mut w);
        w.into_bytes()
    }

    /// Appends rows through the already-trained OPQ rotation and
    /// codebooks: rotate, store, encode, and extend the quantization-error
    /// cache. The qerr feature column is kept consistent with the build:
    /// under the `use_qerr_feature = false` ablation appended rows get
    /// zeros too, otherwise the real reconstruction error — even when
    /// every earlier row has been removed. Codebooks and classifier
    /// predate these rows, so each append bumps [`Dco::stale_rows`] until
    /// a compaction retrains.
    fn append_rows(&mut self, new_rows: &dyn RowAccess) -> crate::Result<()> {
        let qerr_on = self.qerr_on;
        let (pq, codes, qerr) = (&self.pq, &mut self.codes, &mut self.qerr);
        let mut recon = Vec::new();
        self.store.append(new_rows, true, |x| {
            encode_row(pq, x, qerr_on, &mut recon, codes, qerr);
        })
    }

    fn remove_rows(&mut self, dead_mask: &[bool]) -> crate::Result<()> {
        self.store.remove(dead_mask)?;
        remove_column_rows(&mut self.codes.data, dead_mask);
        remove_column_rows(&mut self.qerr, dead_mask);
        Ok(())
    }

    /// Builds the ADC lookup table for the rotated query.
    fn begin_projected<'a>(&'a self, rq: Vec<f32>) -> DdcOpqQuery<'a> {
        let mut lut = Vec::new();
        self.pq.build_lut(&rq, &mut lut);
        DdcOpqQuery {
            dco: self,
            q: rq,
            lut,
            counters: Counters::new(),
        }
    }
}

impl QueryDco for DdcOpqQuery<'_> {
    fn exact(&mut self, id: u32) -> f32 {
        let dim = self.dco.store.dim() as u64;
        self.counters.record(false, dim, dim);
        let row = self.dco.store.row(id as usize);
        if self.dco.store.is_ip() {
            // The OPQ rotation is a pure orthogonal matvec (no centering),
            // so the rotated-space dot IS the raw-space dot.
            return -dot(row, &self.q);
        }
        l2_sq(row, &self.q)
    }

    fn test(&mut self, id: u32, tau: f32) -> Decision {
        // ADC prunes L2-family distances only; inner product answers
        // exactly (honest full-scan counters), as does infinite τ.
        if !tau.is_finite() || self.dco.store.is_ip() {
            return Decision::Exact(self.exact(id));
        }
        let m = self.dco.codes.m as u64;
        let adc = self.dco.pq.adc(&self.lut, self.dco.codes.get(id as usize));
        let feats = [adc, tau, self.dco.qerr[id as usize]];
        if self.dco.model.predict(&feats) {
            // The m-lookup ADC is charged as m "dimensions".
            self.counters.record(true, m, self.dco.store.dim() as u64);
            return Decision::Pruned(adc);
        }
        let dim = self.dco.store.dim() as u64;
        self.counters.record(false, dim + m, dim);
        Decision::Exact(l2_sq(self.dco.store.row(id as usize), &self.q))
    }

    /// The row head, plus the code and quantization error the classifier
    /// reads before the row.
    fn prefetch(&self, id: u32) {
        let i = id as usize;
        self.dco.store.prefetch_row(i);
        prefetch_head(self.dco.codes.get(i));
        prefetch_head(&self.dco.qerr[i..=i]);
    }

    fn counters(&self) -> Counters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_vecs::SynthSpec;

    #[test]
    fn restore_rejects_a_forged_subspace_count_before_allocating() {
        // A subspace count within `dim` but far beyond what the blob
        // holds: sizing the range table from it would be a 512 GiB
        // allocation, which aborts the process rather than failing.
        let mut w = StateWriter::new("DDCopq");
        w.put_f32s(&[]); // rotation
        w.put_f32s(&[]); // error trace
        w.put_usize(1 << 40); // dim
        w.put_usize(1 << 35); // m
        w.put_usize(16); // ksub
        let rows = SharedRows::from(VecSet::new(16));
        let err = DdcOpq::restore(&w.into_bytes(), rows).unwrap_err();
        assert!(err.to_string().contains("implausible count"), "{err}");
    }

    fn setup() -> (ddc_vecs::Workload, DdcOpq) {
        let mut spec = SynthSpec::tiny_test(16, 400, 51);
        spec.alpha = 0.3; // flat-ish spectrum: quantization's home turf
        spec.n_train_queries = 32;
        let w = spec.generate();
        let dco = DdcOpq::build(
            &w.base,
            &w.train_queries,
            DdcOpqConfig {
                m: 4,
                nbits: 4,
                opq_iters: 3,
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
    fn exact_distances_survive_rotation() {
        let (w, dco) = setup();
        let q = w.queries.get(0);
        let mut eval = dco.begin(q);
        for id in [0u32, 123, 399] {
            let want = l2_sq(w.base.get(id as usize), q);
            let got = eval.exact(id);
            assert!((want - got).abs() < 1e-2 * want.max(1.0), "id={id}");
        }
    }

    #[test]
    fn infinite_tau_is_exact() {
        let (w, dco) = setup();
        let mut eval = dco.begin(w.queries.get(1));
        assert!(matches!(eval.test(9, f32::INFINITY), Decision::Exact(_)));
    }

    #[test]
    fn rarely_prunes_points_under_threshold() {
        let (w, dco) = setup();
        let mut wrong = 0usize;
        let mut under = 0usize;
        for qi in 0..w.queries.len() {
            let q = w.queries.get(qi);
            let mut eval = dco.begin(q);
            let mut sorted: Vec<f32> = (0..w.base.len()).map(|i| l2_sq(w.base.get(i), q)).collect();
            sorted.sort_by(f32::total_cmp);
            let tau = sorted[10];
            for i in 0..w.base.len() {
                if l2_sq(w.base.get(i), q) <= tau {
                    under += 1;
                    if eval.test(i as u32, tau).is_pruned() {
                        wrong += 1;
                    }
                }
            }
        }
        let rate = wrong as f64 / under.max(1) as f64;
        assert!(rate < 0.05, "under-threshold prune rate {rate}");
    }

    #[test]
    fn prunes_most_far_points() {
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
        assert!(c.pruned_rate() > 0.5, "pruned_rate={}", c.pruned_rate());
    }

    #[test]
    fn an_emptied_operator_appends_like_the_full_one() {
        let (w, full) = setup();
        let n = full.len();
        let mut emptied = full.clone();
        emptied.remove_rows(&vec![true; n]).unwrap();
        assert!(emptied.is_empty());
        let mut grown = full.clone();
        emptied.append_rows(&w.queries).unwrap();
        grown.append_rows(&w.queries).unwrap();

        assert!(emptied.qerr.iter().any(|&e| e != 0.0));
        assert_eq!(emptied.qerr[..], grown.qerr[n..]);
        for probe in [0usize, 57, 311] {
            let q = w.base.get(probe);
            let (mut a, mut b) = (emptied.begin(q), grown.begin(q));
            let mut dists: Vec<f32> = (0..w.queries.len() as u32).map(|i| a.exact(i)).collect();
            dists.sort_by(f32::total_cmp);
            for tau in [dists[2], dists[8]] {
                for i in 0..w.queries.len() as u32 {
                    assert_eq!(a.test(i, tau), b.test(n as u32 + i, tau), "row {i}");
                }
            }
        }
    }

    #[test]
    fn auto_m_sizing() {
        let mut spec = SynthSpec::tiny_test(16, 300, 3);
        spec.n_train_queries = 16;
        let w = spec.generate();
        let dco = DdcOpq::build(
            &w.base,
            &w.train_queries,
            DdcOpqConfig {
                m: 0,
                nbits: 4,
                opq_iters: 2,
                caps: TrainingCaps {
                    max_queries: 16,
                    negatives_per_query: 16,
                    k: 5,
                    seed: 0,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(dco.pq().m, 4); // 16/4
    }

    #[test]
    fn model_weights_have_sensible_signs() {
        // Larger adc ⇒ more likely prunable; larger τ ⇒ less likely.
        let (_, dco) = setup();
        let m = dco.model();
        assert!(m.weights[0] > 0.0, "w_adc = {}", m.weights[0]);
        assert!(m.weights[1] < 0.0, "w_tau = {}", m.weights[1]);
    }

    #[test]
    fn build_requires_training_queries() {
        let w = SynthSpec::tiny_test(8, 100, 1).generate();
        let empty = VecSet::new(8);
        assert!(matches!(
            DdcOpq::build(&w.base, &empty, DdcOpqConfig::default()),
            Err(crate::CoreError::InsufficientTraining { .. })
        ));
    }

    #[test]
    fn extra_bytes_positive_and_dominated_by_codes() {
        let (w, dco) = setup();
        assert!(dco.extra_bytes() > dco.codes.storage_bytes());
        assert_eq!(dco.codes.len(), w.base.len());
    }

    fn metric_cfg(metric: Metric) -> DdcOpqConfig {
        DdcOpqConfig {
            m: 4,
            nbits: 4,
            opq_iters: 2,
            caps: TrainingCaps {
                max_queries: 16,
                negatives_per_query: 20,
                k: 5,
                seed: 0,
            },
            metric,
            ..Default::default()
        }
    }

    #[test]
    fn ip_exact_matches_raw_negated_dot_and_round_trips() {
        let mut spec = SynthSpec::tiny_test(12, 150, 52);
        spec.n_train_queries = 16;
        let w = spec.generate();
        let dco =
            DdcOpq::build(&w.base, &w.train_queries, metric_cfg(Metric::InnerProduct)).unwrap();
        assert_eq!(Dco::metric(&dco), Metric::InnerProduct);
        let q = w.queries.get(0);
        let mut eval = dco.begin(q);
        for id in 0..150u32 {
            let want = -dot(w.base.get(id as usize), q);
            let got = eval.exact(id);
            assert!(
                (got - want).abs() <= 1e-4 * (1.0 + want.abs()),
                "id {id}: {got} vs {want}"
            );
            // IP never prunes, even under a tight threshold.
            assert!(!eval.test(id, -1e30).is_pruned());
        }

        let restored = DdcOpq::restore(&dco.state_bytes(), dco.rows().clone()).unwrap();
        assert_eq!(Dco::metric(&restored), Metric::InnerProduct);
        let mut a = dco.begin(q);
        let mut b = restored.begin(q);
        for id in 0..150u32 {
            assert_eq!(a.exact(id), b.exact(id), "id {id}");
        }
    }

    #[test]
    fn cosine_build_answers_raw_cosine() {
        let mut spec = SynthSpec::tiny_test(12, 150, 53);
        spec.n_train_queries = 16;
        let w = spec.generate();
        let dco = DdcOpq::build(&w.base, &w.train_queries, metric_cfg(Metric::Cosine)).unwrap();
        assert_eq!(Dco::metric(&dco), Metric::Cosine);
        let q = w.queries.get(1);
        let mut eval = dco.begin(q);
        for id in 0..150u32 {
            let want = Metric::Cosine.distance(w.base.get(id as usize), q);
            let got = eval.exact(id);
            assert!(
                (got - want).abs() <= 1e-4 * (1.0 + want.abs()),
                "id {id}: {got} vs {want}"
            );
        }
    }
}

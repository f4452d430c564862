//! DDCres — the paper's improved projection-based DCO (§IV, Algorithms 1–2).
//!
//! Preprocessing rotates the dataset with the **PCA basis** (optimal among
//! orthogonal projections, Theorem 1) and stores per-point squared norms.
//! The exact distance decomposes (Eq. 2) as
//!
//! ```text
//! dis = C1 − C2 − C3,   C1 = ‖x‖² + ‖q‖²,  C2 = 2⟨x_d, q_d⟩,  C3 = 2⟨x_r, q_r⟩
//! ```
//!
//! so `dis′ = C1 − C2` costs `O(d)` and errs by `ε = C3 = 2⟨q_r, x_r⟩`,
//! which under the Gaussian model is `N(0, σ²)` with
//! `σ² = 4·Σ_{i>d} λ_i·q_i²` (Eq. 3) — computable per query in one suffix
//! pass. Pruning fires when `dis′ − m·σ(d) > τ`, where the multiplier `m`
//! comes from a target quantile (Lemma 2: PCA minimizes every quantile).
//!
//! `incremental = true` is Algorithm 2 (grow `d` by `Δd` until pruned or
//! exact); `false` is Algorithm 1 (one test at `init_d`, then exact).
//!
//! The `C2` accumulation (`dot_range` resuming from arbitrary split
//! points) runs on the runtime-dispatched SIMD kernels of
//! [`ddc_linalg::kernels`]; `DDC_FORCE_SCALAR=1` pins the scalar
//! reference path the paper's cost model assumes.

use crate::counters::Counters;
use crate::projected::{remove_column_rows, Projected, Projection};
use crate::snap_state::{StateReader, StateWriter};
use crate::stats::multiplier_for_quantile;
use crate::traits::{Dco, Decision, QueryDco};
use ddc_linalg::kernels::{dot, dot_range, norm_sq, prefetch_head, weighted_sq_suffix};
use ddc_linalg::pca::Pca;
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::SharedRows;

/// DDCres configuration.
#[derive(Debug, Clone)]
pub struct DdcResConfig {
    /// Target success quantile of each pruning test; converted to the bound
    /// multiplier `m` via the standard-normal quantile.
    pub quantile: f64,
    /// Direct override of the multiplier `m` (ignores `quantile`).
    pub multiplier: Option<f32>,
    /// First projected dimensionality tested.
    pub init_d: usize,
    /// Dimension increment per round (Algorithm 2).
    pub delta_d: usize,
    /// Algorithm 2 (incremental) vs Algorithm 1 (single test).
    pub incremental: bool,
    /// Sample cap for the PCA fit (the paper samples 1M points).
    pub pca_samples: usize,
    /// Seed for PCA subsampling.
    pub seed: u64,
    /// Distance metric the operator answers in. Cosine / weighted-L2 rows
    /// are prepped before the PCA fit (so the residual machinery runs
    /// unchanged in prepped space); inner product keeps raw rows and
    /// answers exactly via the mean-corrected dot (no pruning).
    pub metric: Metric,
}

impl Default for DdcResConfig {
    fn default() -> Self {
        Self {
            quantile: 0.999,
            multiplier: None,
            init_d: 32,
            delta_d: 32,
            incremental: true,
            pca_samples: 100_000,
            seed: 0xDDC1,
            metric: Metric::L2,
        }
    }
}

/// DDCres DCO: PCA-rotated data, per-point norms, per-axis variances.
#[derive(Debug, Clone)]
pub struct DdcRes {
    store: Projected,
    norms: Vec<f32>,
    variances: Vec<f32>,
    m: f32,
    cfg: DdcResConfig,
}

impl DdcRes {
    /// Fits PCA on `base` — any [`RowAccess`] source — rotates it, and
    /// precomputes norms. Rows stream into the store, the PCA fit samples
    /// them there and the rotation runs in place, so the original matrix
    /// is never materialized a second time — and because every backend
    /// takes this one code path, the operator is bit-identical whichever
    /// supplied the rows.
    ///
    /// # Errors
    /// Configuration errors and PCA failures.
    pub fn build<R: RowAccess + ?Sized>(base: &R, cfg: DdcResConfig) -> crate::Result<DdcRes> {
        if cfg.init_d == 0 || cfg.delta_d == 0 {
            return Err(crate::CoreError::Config(
                "init_d and delta_d must be positive".into(),
            ));
        }
        if cfg.multiplier.is_none() && !(cfg.quantile > 0.5 && cfg.quantile < 1.0) {
            return Err(crate::CoreError::Config(format!(
                "quantile {} must be in (0.5, 1)",
                cfg.quantile
            )));
        }
        let store = Projected::build(base, cfg.metric.clone(), "DDCres")?;
        let pca = Pca::fit_rows(store.rows(), cfg.pca_samples, cfg.seed)?;
        let variances = pca.eigenvalues.clone();
        let store = store.project(Projection::Pca(pca));
        let m = cfg
            .multiplier
            .unwrap_or_else(|| multiplier_for_quantile(cfg.quantile) as f32);
        Ok(DdcRes {
            norms: (0..store.len()).map(|i| norm_sq(store.row(i))).collect(),
            store,
            variances,
            m,
            cfg,
        })
    }

    /// Rebuilds the operator from a snapshot state blob (config,
    /// multiplier, norms, variances, PCA transform) plus its pre-rotated
    /// row matrix — no PCA refit, bit-identical to the saved operator.
    ///
    /// # Errors
    /// [`crate::CoreError::Config`] on malformed, mislabeled, or
    /// inconsistent state.
    pub fn restore(state: &[u8], rows: SharedRows) -> crate::Result<DdcRes> {
        let mut r = StateReader::new(state, "DDCres");
        r.expect_name("DDCres")?;
        let mut cfg = DdcResConfig {
            quantile: r.take_f64()?,
            multiplier: if r.take_bool()? {
                Some(r.take_f32()?)
            } else {
                None
            },
            init_d: r.take_usize()?,
            delta_d: r.take_usize()?,
            incremental: r.take_bool()?,
            pca_samples: r.take_usize()?,
            seed: r.take_u64()?,
            metric: Metric::L2,
        };
        let m = r.take_f32()?;
        let norms = r.take_f32s()?;
        let variances = r.take_f32s()?;
        let pca = Projection::take_pca(&mut r)?;
        let store = Projected::restore(r, pca, rows)?;
        cfg.metric = store.metric().clone();
        if cfg.init_d == 0 || cfg.delta_d == 0 {
            return Err(crate::CoreError::Config(
                "DDCres state: init_d and delta_d must be positive".into(),
            ));
        }
        if norms.len() != store.len() || variances.len() != store.dim() {
            return Err(crate::CoreError::Config(format!(
                "DDCres state: {} norms / {} variances do not fit a {}x{} row matrix",
                norms.len(),
                variances.len(),
                store.len(),
                store.dim()
            )));
        }
        Ok(DdcRes {
            store,
            norms,
            variances,
            m,
            cfg,
        })
    }

    /// The bound multiplier `m` in use.
    pub fn multiplier(&self) -> f32 {
        self.m
    }
}

/// Per-query DDCres state.
#[derive(Debug)]
pub struct DdcResQuery<'a> {
    dco: &'a DdcRes,
    /// PCA-transformed query.
    q: Vec<f32>,
    /// `‖q‖²` in the transformed space.
    q_norm: f32,
    /// `suffix[d] = Σ_{i>=d} λ_i·q_i²`; `σ(d) = 2·√suffix[d]`.
    suffix: Vec<f64>,
    /// `⟨q′, c⟩` — inner-product mean correction; 0 otherwise.
    ip_qc: f32,
    counters: Counters,
}

impl DdcResQuery<'_> {
    /// Error standard deviation `σ(d)` after projecting `d` dimensions
    /// (exposed for the Fig. 2 error-bound analysis).
    #[inline]
    pub fn error_std(&self, d: usize) -> f32 {
        2.0 * (self.suffix[d.min(self.suffix.len() - 1)].sqrt() as f32)
    }

    /// Approximate distance `dis′ = C1 − C2` using the first `d` dimensions
    /// (diagnostics; the search path uses [`QueryDco::test`]).
    pub fn approx_distance(&self, id: u32, d: usize) -> f32 {
        let x = self.dco.store.row(id as usize);
        let c1 = self.dco.norms[id as usize] + self.q_norm;
        let c2 = 2.0 * dot_range(x, &self.q, 0, d.min(x.len()));
        c1 - c2
    }
}

impl Dco for DdcRes {
    type Query<'a> = DdcResQuery<'a>;

    fn name(&self) -> &'static str {
        "DDCres"
    }

    fn store(&self) -> &Projected {
        &self.store
    }

    /// Preprocessing bytes beyond the raw vectors: rotation matrix, per-point
    /// norms, per-axis variances (Fig. 7 space accounting), plus the
    /// inner-product correction table when that metric is active.
    fn extra_bytes(&self) -> usize {
        (self.store.extra_floats() + self.norms.len() + self.variances.len())
            * std::mem::size_of::<f32>()
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new("DDCres");
        w.put_f64(self.cfg.quantile);
        w.put_bool(self.cfg.multiplier.is_some());
        if let Some(m) = self.cfg.multiplier {
            w.put_f32(m);
        }
        w.put_usize(self.cfg.init_d);
        w.put_usize(self.cfg.delta_d);
        w.put_bool(self.cfg.incremental);
        w.put_usize(self.cfg.pca_samples);
        w.put_u64(self.cfg.seed);
        w.put_f32(self.m);
        w.put_f32s(&self.norms);
        w.put_f32s(&self.variances);
        self.store.put_projection(&mut w);
        self.store.put_metric(&mut w);
        w.into_bytes()
    }

    /// Appends rows through the already-fitted PCA basis and extends the
    /// norm cache. Distances stay exact — the rotation is orthonormal
    /// regardless of what it was fitted on — but the variance model behind
    /// the pruning bound predates these rows, so each append bumps
    /// [`Dco::stale_rows`] until a compaction refits.
    fn append_rows(&mut self, new_rows: &dyn RowAccess) -> crate::Result<()> {
        let norms = &mut self.norms;
        self.store
            .append(new_rows, true, |x| norms.push(norm_sq(x)))
    }

    fn remove_rows(&mut self, dead_mask: &[bool]) -> crate::Result<()> {
        self.store.remove(dead_mask)?;
        remove_column_rows(&mut self.norms, dead_mask);
        Ok(())
    }

    fn begin_projected<'a>(&'a self, rq: Vec<f32>) -> DdcResQuery<'a> {
        let mut suffix = Vec::new();
        weighted_sq_suffix(&rq, &self.variances, &mut suffix);
        DdcResQuery {
            q_norm: norm_sq(&rq),
            ip_qc: self.store.ip_query_term(&rq),
            q: rq,
            suffix,
            counters: Counters::new(),
            dco: self,
        }
    }
}

impl QueryDco for DdcResQuery<'_> {
    fn exact(&mut self, id: u32) -> f32 {
        let store = &self.dco.store;
        let dim = store.dim() as u64;
        self.counters.record(false, dim, dim);
        if store.is_ip() {
            return store.ip_exact(id as usize, &self.q, self.ip_qc);
        }
        let c1 = self.dco.norms[id as usize] + self.q_norm;
        (c1 - 2.0 * dot(store.row(id as usize), &self.q)).max(0.0)
    }

    fn test(&mut self, id: u32, tau: f32) -> Decision {
        if !tau.is_finite() || self.dco.store.is_ip() {
            // IP has no residual pruning bound (the C1−C2−C3 decomposition
            // is L2-specific): answer exactly, with honest full-scan
            // counters from `exact`.
            return Decision::Exact(self.exact(id));
        }
        let dim = self.dco.store.dim();
        let x = self.dco.store.row(id as usize);
        let m = self.dco.m;
        let c1 = self.dco.norms[id as usize] + self.q_norm;

        let mut d = self.dco.cfg.init_d.min(dim);
        let mut c2 = 2.0 * dot_range(x, &self.q, 0, d);
        loop {
            if d >= dim {
                self.counters.record(false, dim as u64, dim as u64);
                return Decision::Exact((c1 - c2).max(0.0));
            }
            let sigma = 2.0 * (self.suffix[d].sqrt() as f32);
            let corrected = c1 - c2 - m * sigma;
            if corrected > tau {
                self.counters.record(true, d as u64, dim as u64);
                return Decision::Pruned(c1 - c2);
            }
            if !self.dco.cfg.incremental {
                // Algorithm 1: single test, then the exact distance.
                let c3 = 2.0 * dot_range(x, &self.q, d, dim);
                self.counters.record(false, dim as u64, dim as u64);
                return Decision::Exact((c1 - c2 - c3).max(0.0));
            }
            let next = (d + self.dco.cfg.delta_d).min(dim);
            c2 += 2.0 * dot_range(x, &self.q, d, next);
            d = next;
        }
    }

    /// The row head, plus the norm cache entry `C1` reads first.
    fn prefetch(&self, id: u32) {
        let i = id as usize;
        self.dco.store.prefetch_row(i);
        prefetch_head(&self.dco.norms[i..=i]);
    }

    fn counters(&self) -> Counters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_linalg::kernels::l2_sq;
    use ddc_vecs::SynthSpec;
    use ddc_vecs::VecSet;

    fn setup(incremental: bool) -> (ddc_vecs::Workload, DdcRes) {
        let mut spec = SynthSpec::tiny_test(32, 500, 11);
        spec.alpha = 1.5;
        let w = spec.generate();
        let res = DdcRes::build(
            &w.base,
            DdcResConfig {
                init_d: 8,
                delta_d: 8,
                incremental,
                ..Default::default()
            },
        )
        .unwrap();
        (w, res)
    }

    #[test]
    fn exact_matches_original_space() {
        let (w, res) = setup(true);
        let q = w.queries.get(0);
        let mut eval = res.begin(q);
        for id in [0u32, 99, 499] {
            let want = l2_sq(w.base.get(id as usize), q);
            let got = eval.exact(id);
            assert!(
                (want - got).abs() < 1e-2 * want.max(1.0),
                "id={id}: {want} vs {got}"
            );
        }
    }

    #[test]
    fn full_scan_through_test_is_exact() {
        let (w, res) = setup(true);
        let q = w.queries.get(1);
        let mut eval = res.begin(q);
        // τ = +inf means exact.
        match eval.test(3, f32::INFINITY) {
            Decision::Exact(d) => {
                let want = l2_sq(w.base.get(3), q);
                assert!((want - d).abs() < 1e-2 * want.max(1.0));
            }
            other => panic!("{other:?}"),
        }
        // Huge finite τ: nothing prunes, distances must still be exact.
        match eval.test(4, 1e30) {
            Decision::Exact(d) => {
                let want = l2_sq(w.base.get(4), q);
                assert!((want - d).abs() < 1e-2 * want.max(1.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn never_prunes_points_under_threshold() {
        for incremental in [true, false] {
            let (w, res) = setup(incremental);
            let mut wrong = 0usize;
            for qi in 0..w.queries.len() {
                let q = w.queries.get(qi);
                let mut eval = res.begin(q);
                let mut dists: Vec<f32> =
                    (0..w.base.len()).map(|i| l2_sq(w.base.get(i), q)).collect();
                dists.sort_by(f32::total_cmp);
                let tau = dists[20];
                for i in 0..w.base.len() {
                    if l2_sq(w.base.get(i), q) <= tau && eval.test(i as u32, tau).is_pruned() {
                        wrong += 1;
                    }
                }
            }
            assert_eq!(wrong, 0, "incremental={incremental}");
        }
    }

    #[test]
    fn prunes_most_far_points_on_skewed_data() {
        let (w, res) = setup(true);
        let q = w.queries.get(2);
        let mut eval = res.begin(q);
        let mut dists: Vec<f32> = (0..w.base.len()).map(|i| l2_sq(w.base.get(i), q)).collect();
        dists.sort_by(f32::total_cmp);
        let tau = dists[10];
        for i in 0..w.base.len() as u32 {
            eval.test(i, tau);
        }
        let c = eval.counters();
        assert!(
            c.pruned_rate() > 0.5,
            "pruned_rate={} (skewed data should prune most)",
            c.pruned_rate()
        );
        assert!(c.scan_rate() < 0.8, "scan_rate={}", c.scan_rate());
    }

    #[test]
    fn incremental_scans_fewer_dims_than_single_shot() {
        let (w, _) = setup(true);
        let build = |inc: bool| {
            DdcRes::build(
                &w.base,
                DdcResConfig {
                    init_d: 8,
                    delta_d: 8,
                    incremental: inc,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let run = |res: &DdcRes| {
            let mut total = Counters::new();
            for qi in 0..w.queries.len() {
                let q = w.queries.get(qi);
                let mut eval = res.begin(q);
                let mut dists: Vec<f32> =
                    (0..w.base.len()).map(|i| l2_sq(w.base.get(i), q)).collect();
                dists.sort_by(f32::total_cmp);
                let tau = dists[10];
                for i in 0..w.base.len() as u32 {
                    eval.test(i, tau);
                }
                total.merge(&eval.counters());
            }
            total
        };
        let inc = run(&build(true));
        let single = run(&build(false));
        assert!(
            inc.scan_rate() <= single.scan_rate() + 1e-9,
            "incremental {} vs single {}",
            inc.scan_rate(),
            single.scan_rate()
        );
    }

    #[test]
    fn sigma_decreases_with_d() {
        let (w, res) = setup(true);
        let eval = res.begin(w.queries.get(0));
        let mut prev = f32::INFINITY;
        for d in [0usize, 8, 16, 24, 32] {
            let s = eval.error_std(d);
            assert!(s <= prev + 1e-6, "σ({d})={s} prev={prev}");
            prev = s;
        }
        assert_eq!(eval.error_std(32), 0.0);
    }

    #[test]
    fn approx_distance_converges_to_exact() {
        let (w, res) = setup(true);
        let q = w.queries.get(3);
        let eval = res.begin(q);
        let want = l2_sq(w.base.get(7), q);
        let full = eval.approx_distance(7, 32);
        assert!((full - want).abs() < 1e-2 * want.max(1.0));
        // Error magnitude shrinks as d grows (on average; check endpoints).
        let e8 = (eval.approx_distance(7, 8) - want).abs();
        let e24 = (eval.approx_distance(7, 24) - want).abs();
        assert!(e24 <= e8 + 0.3 * want.abs().max(1.0));
    }

    #[test]
    fn multiplier_from_quantile_or_override() {
        let w = SynthSpec::tiny_test(8, 100, 0).generate();
        let a = DdcRes::build(
            &w.base,
            DdcResConfig {
                quantile: 0.999,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((a.multiplier() - 3.09).abs() < 0.02);
        let b = DdcRes::build(
            &w.base,
            DdcResConfig {
                multiplier: Some(10.0),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(b.multiplier(), 10.0);
    }

    #[test]
    fn larger_multiplier_prunes_less() {
        let (w, _) = setup(true);
        let run = |m: f32| {
            let res = DdcRes::build(
                &w.base,
                DdcResConfig {
                    multiplier: Some(m),
                    init_d: 8,
                    delta_d: 8,
                    ..Default::default()
                },
            )
            .unwrap();
            let q = w.queries.get(0);
            let mut eval = res.begin(q);
            let mut dists: Vec<f32> = (0..w.base.len()).map(|i| l2_sq(w.base.get(i), q)).collect();
            dists.sort_by(f32::total_cmp);
            let tau = dists[10];
            for i in 0..w.base.len() as u32 {
                eval.test(i, tau);
            }
            eval.counters().pruned_rate()
        };
        assert!(run(1.0) >= run(10.0));
    }

    #[test]
    fn config_validation() {
        let w = SynthSpec::tiny_test(8, 50, 0).generate();
        assert!(DdcRes::build(
            &w.base,
            DdcResConfig {
                init_d: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(DdcRes::build(
            &w.base,
            DdcResConfig {
                quantile: 0.3,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn extra_bytes_accounting() {
        let (w, res) = setup(true);
        let expect = (32 * 32 + w.base.len() + 32) * 4;
        assert_eq!(res.extra_bytes(), expect);
    }

    #[test]
    fn ip_exact_matches_raw_negated_dot() {
        let w = SynthSpec::tiny_test(16, 120, 21).generate();
        let res = DdcRes::build(
            &w.base,
            DdcResConfig {
                metric: Metric::InnerProduct,
                ..Default::default()
            },
        )
        .unwrap();
        let q = w.queries.get(0);
        let mut eval = res.begin(q);
        for id in 0..120u32 {
            let want = -dot(w.base.get(id as usize), q);
            let got = eval.exact(id);
            assert!(
                (want - got).abs() < 1e-2 * want.abs().max(1.0),
                "id={id}: {got} vs {want}"
            );
            // test() under IP never prunes and reports the same value.
            assert_eq!(eval.test(id, -1e30), Decision::Exact(got));
        }
        assert_eq!(Dco::metric(&res), Metric::InnerProduct);
    }

    #[test]
    fn ip_restore_and_append_match_built() {
        let w = SynthSpec::tiny_test(12, 80, 22).generate();
        let cfg = DdcResConfig {
            metric: Metric::InnerProduct,
            ..Default::default()
        };
        let full = DdcRes::build(&w.base, cfg.clone()).unwrap();

        // Restore path recomputes the correction table bit-identically.
        let restored = DdcRes::restore(&full.state_bytes(), full.rows().clone()).unwrap();
        assert!(full.store.ip_columns().is_some());
        assert_eq!(restored.store.ip_columns(), full.store.ip_columns());
        let q = w.queries.get(1);
        let mut a = full.begin(q);
        let mut b = restored.begin(q);
        for id in 0..80u32 {
            assert_eq!(a.exact(id), b.exact(id), "id {id}");
        }

        // Append extends the correction table with the fitted basis.
        let (head, tail) = {
            let mut head = VecSet::with_capacity(12, 60);
            let mut tail = VecSet::with_capacity(12, 20);
            for i in 0..60 {
                head.push(w.base.get(i)).unwrap();
            }
            for i in 60..80 {
                tail.push(w.base.get(i)).unwrap();
            }
            (head, tail)
        };
        let mut grown = DdcRes::build(&head, cfg).unwrap();
        grown.append_rows(&tail).unwrap();
        assert_eq!(grown.store.ip_columns().unwrap().1.len(), 80);
        let mut g = grown.begin(q);
        for id in 60..80u32 {
            let want = -dot(w.base.get(id as usize), q);
            let got = g.exact(id);
            assert!(
                (want - got).abs() < 1e-2 * want.abs().max(1.0),
                "appended id={id}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn cosine_pruning_matches_prepped_space() {
        // Cosine reduces to L2 over prepped rows: the operator must answer
        // the raw cosine distance and never prune a true under-τ point.
        let w = SynthSpec::tiny_test(16, 150, 23).generate();
        let res = DdcRes::build(
            &w.base,
            DdcResConfig {
                init_d: 4,
                delta_d: 4,
                metric: Metric::Cosine,
                ..Default::default()
            },
        )
        .unwrap();
        let q = w.queries.get(0);
        let mut eval = res.begin(q);
        let mut dists: Vec<f32> = (0..w.base.len())
            .map(|i| Metric::Cosine.distance(w.base.get(i), q))
            .collect();
        dists.sort_by(f32::total_cmp);
        let tau = dists[20];
        for i in 0..w.base.len() {
            let true_d = Metric::Cosine.distance(w.base.get(i), q);
            match eval.test(i as u32, tau) {
                Decision::Exact(d) => {
                    assert!(
                        (d - true_d).abs() < 1e-3 * true_d.max(1.0),
                        "id {i}: {d} vs {true_d}"
                    );
                }
                Decision::Pruned(_) => {
                    assert!(true_d > tau * 0.999, "id {i}: under-τ point pruned");
                }
            }
        }
    }
}

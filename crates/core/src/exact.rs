//! The exact-distance baseline DCO (plain `HNSW` / `IVF` in the paper's
//! experiment tables): every test computes the full distance.
//!
//! The store's identity projection: rows are kept as prepped, so the
//! stored-space `l2_sq` is the metric distance for L2 / cosine /
//! weighted-L2; inner product negates the dot product of the raw rows.

use crate::counters::Counters;
use crate::projected::{Projected, Projection};
use crate::snap_state::{StateReader, StateWriter};
use crate::traits::{Dco, Decision, QueryDco};
use ddc_linalg::kernels::{dot, l2_sq};
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::{SharedRows, VecSet};

/// Exact distance computation over an owned copy of the dataset.
#[derive(Debug, Clone)]
pub struct Exact {
    store: Projected,
}

impl Exact {
    /// Builds the L2 baseline from the original vectors.
    pub fn build(base: &VecSet) -> Exact {
        Self::build_metric(base, Metric::L2).expect("L2 build cannot fail")
    }

    /// Builds the baseline under `metric` from any [`RowAccess`] source:
    /// rows stream into the one resident copy this DCO keeps, prepped for
    /// cosine / weighted-L2, raw for L2 / inner product.
    ///
    /// # Errors
    /// [`crate::CoreError::Config`] when the metric doesn't fit the
    /// dimensionality (weighted-L2 weight-count mismatch).
    pub fn build_metric<R: RowAccess + ?Sized>(base: &R, metric: Metric) -> crate::Result<Exact> {
        let store = Projected::build(base, metric, "exact")?;
        Ok(Exact { store })
    }

    /// Rebuilds the baseline from a snapshot state blob plus its row
    /// matrix — `rows` must be *as the operator stores them* (prepped for
    /// cosine/wl2). The blob is the name label plus an optional metric
    /// suffix; its absence (every pre-metric blob) means L2.
    ///
    /// # Errors
    /// [`crate::CoreError::Config`] on a malformed or mislabeled blob.
    pub fn restore(state: &[u8], rows: SharedRows) -> crate::Result<Exact> {
        let mut r = StateReader::new(state, "Exact");
        r.expect_name("Exact")?;
        let store = Projected::restore(r, Projection::Identity, rows)?;
        Ok(Exact { store })
    }
}

/// Per-query state: the (stored-space) query copy plus counters.
#[derive(Debug)]
pub struct ExactQuery<'a> {
    dco: &'a Exact,
    q: Vec<f32>,
    counters: Counters,
}

impl Dco for Exact {
    type Query<'a> = ExactQuery<'a>;

    fn name(&self) -> &'static str {
        "Exact"
    }

    fn store(&self) -> &Projected {
        &self.store
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new("Exact");
        self.store.put_metric(&mut w);
        w.into_bytes()
    }

    /// The grown operator is bit-identical to building over the grown
    /// set. Never stale.
    fn append_rows(&mut self, new_rows: &dyn RowAccess) -> crate::Result<()> {
        self.store.append(new_rows, false, |_| {})
    }

    fn remove_rows(&mut self, dead_mask: &[bool]) -> crate::Result<()> {
        self.store.remove(dead_mask)
    }

    fn begin_projected<'a>(&'a self, rq: Vec<f32>) -> ExactQuery<'a> {
        ExactQuery {
            dco: self,
            q: rq,
            counters: Counters::new(),
        }
    }
}

impl QueryDco for ExactQuery<'_> {
    fn exact(&mut self, id: u32) -> f32 {
        let store = &self.dco.store;
        let d = store.dim() as u64;
        self.counters.record(false, d, d);
        let row = store.row(id as usize);
        if store.is_ip() {
            -dot(row, &self.q)
        } else {
            l2_sq(row, &self.q)
        }
    }

    fn test(&mut self, id: u32, _tau: f32) -> Decision {
        Decision::Exact(self.exact(id))
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

    #[test]
    fn exact_matches_kernel() {
        let w = SynthSpec::tiny_test(8, 50, 1).generate();
        let dco = Exact::build(&w.base);
        let q = w.queries.get(0);
        let mut eval = dco.begin(q);
        for id in [0u32, 7, 49] {
            let want = l2_sq(w.base.get(id as usize), q);
            assert_eq!(eval.exact(id), want);
            assert_eq!(eval.test(id, 0.5), Decision::Exact(want));
        }
    }

    #[test]
    fn never_prunes() {
        let w = SynthSpec::tiny_test(4, 20, 2).generate();
        let dco = Exact::build(&w.base);
        let mut eval = dco.begin(w.queries.get(0));
        for id in 0..20u32 {
            assert!(!eval.test(id, 0.0).is_pruned());
        }
        let c = eval.counters();
        assert_eq!(c.candidates, 20);
        assert_eq!(c.pruned, 0);
        assert_eq!(c.exact, 20);
        assert_eq!(c.dims_scanned, 20 * 4);
        assert!((c.scan_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metadata() {
        let w = SynthSpec::tiny_test(4, 20, 3).generate();
        let dco = Exact::build(&w.base);
        assert_eq!(dco.name(), "Exact");
        assert_eq!(dco.len(), 20);
        assert_eq!(dco.dim(), 4);
        assert!(!dco.is_empty());
        assert_eq!(Dco::metric(&dco), Metric::L2);
    }

    #[test]
    fn ip_is_negated_dot_on_raw_rows() {
        let w = SynthSpec::tiny_test(6, 30, 4).generate();
        let dco = Exact::build_metric(&w.base, Metric::InnerProduct).unwrap();
        let q = w.queries.get(0);
        let mut eval = dco.begin(q);
        for id in [0u32, 11, 29] {
            let want = -dot(w.base.get(id as usize), q);
            assert_eq!(eval.exact(id), want);
        }
        assert_eq!(Dco::metric(&dco), Metric::InnerProduct);
    }

    #[test]
    fn cosine_and_wl2_match_the_raw_metric() {
        let w = SynthSpec::tiny_test(5, 25, 5).generate();
        let weights: Vec<f32> = (0..5).map(|i| 0.25 + i as f32).collect();
        for metric in [Metric::Cosine, Metric::WeightedL2(weights.clone().into())] {
            let dco = Exact::build_metric(&w.base, metric.clone()).unwrap();
            let q = w.queries.get(1);
            let mut eval = dco.begin(q);
            for id in 0..25u32 {
                let want = metric.distance(w.base.get(id as usize), q);
                let got = eval.exact(id);
                assert!(
                    (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                    "{metric}: id {id}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn wl2_weight_count_mismatch_rejected() {
        let w = SynthSpec::tiny_test(4, 10, 6).generate();
        let m = Metric::WeightedL2([1.0f32, 2.0].into());
        assert!(Exact::build_metric(&w.base, m).is_err());
    }

    #[test]
    fn metric_survives_state_round_trip_and_l2_blob_is_legacy_shaped() {
        let w = SynthSpec::tiny_test(6, 20, 7).generate();
        let q = w.queries.get(0);

        // L2 blob must be byte-identical to the pre-metric format (name
        // label only), so old snapshots and new ones interchange.
        let l2 = Exact::build(&w.base);
        assert_eq!(l2.state_bytes(), StateWriter::new("Exact").into_bytes());

        for metric in [Metric::InnerProduct, Metric::Cosine] {
            let built = Exact::build_metric(&w.base, metric.clone()).unwrap();
            let restored = Exact::restore(&built.state_bytes(), built.rows().clone()).unwrap();
            assert_eq!(Dco::metric(&restored), metric);
            let mut a = built.begin(q);
            let mut b = restored.begin(q);
            for id in 0..20u32 {
                assert_eq!(a.exact(id), b.exact(id), "{metric}: id {id}");
            }
        }
    }

    #[test]
    fn append_preps_like_build() {
        let w = SynthSpec::tiny_test(4, 12, 8).generate();
        let (head, tail) = {
            let mut head = VecSet::with_capacity(4, 8);
            let mut tail = VecSet::with_capacity(4, 4);
            for i in 0..8 {
                head.push(w.base.get(i)).unwrap();
            }
            for i in 8..12 {
                tail.push(w.base.get(i)).unwrap();
            }
            (head, tail)
        };
        let full = Exact::build_metric(&w.base, Metric::Cosine).unwrap();
        let mut grown = Exact::build_metric(&head, Metric::Cosine).unwrap();
        grown.append_rows(&tail).unwrap();
        assert_eq!(grown.len(), full.len());
        for i in 0..12 {
            assert_eq!(grown.rows().get(i), full.rows().get(i), "row {i}");
        }
    }
}

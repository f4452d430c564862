//! DCO-driven linear scan.
//!
//! Scanning every point through a DCO is both the simplest consumer of the
//! [`ddc_core::Dco`] interface and the protocol of the paper's Table III
//! ("directly apply our method ... to scan the points in the database,
//! without relying on existing AKNN algorithms").

use crate::SearchResult;
use ddc_core::{Dco, QueryDco};
use ddc_vecs::TopK;

/// A flat (exhaustive) index: no structure, every query tests all `n`
/// points through the DCO with the running top-`k` threshold.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatIndex;

impl FlatIndex {
    /// Creates the (stateless) flat index.
    pub fn new() -> Self {
        FlatIndex
    }

    /// Scans all points of `dco` for the `k` nearest to `q`.
    pub fn search<D: Dco>(&self, dco: &D, q: &[f32], k: usize) -> SearchResult {
        let mut eval = dco.begin(q);
        self.search_eval_filtered(dco.len(), &mut eval, k, &|_| true)
    }

    /// [`FlatIndex::search`] through an already-prepared evaluator over
    /// `n` points — the entry point for batched search (the batch path
    /// prepares all evaluators up front to amortize query rotation) and
    /// for dynamic dispatch (`Q = dyn DynQueryDco`) — with a liveness
    /// filter, the tombstone hook. Dead ids are skipped before they reach
    /// the DCO, so they cost no distance work and cannot consume a `k`
    /// slot. The unfiltered paths pass the literal `&|_| true`, which
    /// monomorphises the hook away.
    pub fn search_eval_filtered<Q: QueryDco + ?Sized, F: Fn(u32) -> bool + ?Sized>(
        &self,
        n: usize,
        eval: &mut Q,
        k: usize,
        live: &F,
    ) -> SearchResult {
        let mut top = TopK::new(k.max(1));
        for id in 0..n as u32 {
            if !live(id) {
                continue;
            }
            let tau = top.tau();
            match eval.test(id, tau) {
                ddc_core::Decision::Exact(d) => {
                    top.offer(id, d);
                }
                ddc_core::Decision::Pruned(_) => {}
            }
        }
        SearchResult {
            neighbors: top.into_sorted(),
            counters: eval.counters(),
            elapsed_nanos: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_core::{AdSampling, AdSamplingConfig, DdcRes, DdcResConfig, Exact};
    use ddc_vecs::{GroundTruth, SynthSpec};

    fn workload() -> ddc_vecs::Workload {
        let mut spec = SynthSpec::tiny_test(32, 500, 61);
        spec.alpha = 1.5;
        spec.generate()
    }

    #[test]
    fn exact_scan_matches_ground_truth() {
        let w = workload();
        let gt = GroundTruth::compute(&w.base, &w.queries, 10, 0).unwrap();
        let dco = Exact::build(&w.base);
        let flat = FlatIndex::new();
        for qi in 0..w.queries.len() {
            let r = flat.search(&dco, w.queries.get(qi), 10);
            assert_eq!(r.ids(), gt.ids[qi], "query {qi}");
        }
    }

    #[test]
    fn ddcres_scan_keeps_high_recall_with_fewer_dims() {
        let w = workload();
        let k = 10;
        let gt = GroundTruth::compute(&w.base, &w.queries, k, 0).unwrap();
        let dco = DdcRes::build(
            &w.base,
            DdcResConfig {
                init_d: 8,
                delta_d: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let flat = FlatIndex::new();
        let mut results = Vec::new();
        let mut counters = ddc_core::Counters::new();
        for qi in 0..w.queries.len() {
            let r = flat.search(&dco, w.queries.get(qi), k);
            counters.merge(&r.counters);
            results.push(r.ids());
        }
        let recall = ddc_vecs::recall(&results, &gt, k);
        assert!(recall > 0.95, "recall={recall}");
        assert!(
            counters.scan_rate() < 0.85,
            "scan_rate={}",
            counters.scan_rate()
        );
    }

    #[test]
    fn adsampling_scan_is_accurate() {
        let w = workload();
        let k = 5;
        let gt = GroundTruth::compute(&w.base, &w.queries, k, 0).unwrap();
        let dco = AdSampling::build(
            &w.base,
            AdSamplingConfig {
                delta_d: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let flat = FlatIndex::new();
        let mut results = Vec::new();
        for qi in 0..w.queries.len() {
            results.push(flat.search(&dco, w.queries.get(qi), k).ids());
        }
        let recall = ddc_vecs::recall(&results, &gt, k);
        assert!(recall > 0.95, "recall={recall}");
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let w = SynthSpec::tiny_test(8, 20, 1).generate();
        let dco = Exact::build(&w.base);
        let r = FlatIndex::new().search(&dco, w.queries.get(0), 100);
        assert_eq!(r.neighbors.len(), 20);
    }

    #[test]
    fn counters_populated() {
        let w = SynthSpec::tiny_test(8, 50, 2).generate();
        let dco = Exact::build(&w.base);
        let r = FlatIndex::new().search(&dco, w.queries.get(0), 5);
        assert_eq!(r.counters.candidates, 50);
        assert_eq!(r.counters.exact, 50);
    }
}

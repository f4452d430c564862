//! The exact-answer oracle behind every recall measurement: brute-force
//! top-`k` under any [`Metric`].
//!
//! "Exact top-k under metric m" is defined here once: [`GroundTruth`]
//! (the parallel per-query-set scan under L2) calls [`top_k`] per query,
//! and the recall and property suites across the workspace call it
//! directly. All distances come from [`Metric::distance`] — the same
//! smaller-is-better convention every operator, index, and engine in the
//! workspace reports — and ties break by ascending id ([`Neighbor`]'s
//! total order), so oracle rankings are deterministic and directly
//! comparable to search results.
//!
//! [`GroundTruth`]: crate::GroundTruth

use crate::gt::{Neighbor, TopK};
use ddc_linalg::{Metric, RowAccess};

/// Exact top-`k` of `rows` for query `q` under `metric`, ascending
/// distance, ties by id. Empty when `k == 0` or there are no rows.
///
/// # Panics
/// When `q`'s length differs from `rows.dim()` or the metric's weights
/// don't match the dimensionality (the underlying kernels assert).
pub fn top_k<R: RowAccess + ?Sized>(
    rows: &R,
    q: &[f32],
    k: usize,
    metric: &Metric,
) -> Vec<Neighbor> {
    top_k_filtered(rows, q, k, metric, &|_| true)
}

/// [`top_k`] restricted to rows where `keep(id)` is true — the oracle for
/// filtered search: the exact answer set a predicate-respecting search
/// should recover. Rows failing `keep` cost no distance computation.
pub fn top_k_filtered<R: RowAccess + ?Sized>(
    rows: &R,
    q: &[f32],
    k: usize,
    metric: &Metric,
    keep: &dyn Fn(u32) -> bool,
) -> Vec<Neighbor> {
    if k == 0 || rows.is_empty() {
        return Vec::new();
    }
    let mut top = TopK::new(k);
    for i in 0..rows.len() {
        let id = i as u32;
        if !keep(id) {
            continue;
        }
        top.offer(id, metric.distance(rows.row(i), q));
    }
    top.into_sorted()
}

/// The distance of the `rank`-th nearest row (0-based) under `metric` —
/// the pruning threshold `τ` a result queue holds once `rank + 1`
/// neighbors are kept (the property tests' mid-range thresholds).
///
/// # Panics
/// When `rank >= rows.len()` (there is no such neighbor) or on the
/// dimension mismatches of [`top_k`].
pub fn tau_at_rank<R: RowAccess + ?Sized>(
    rows: &R,
    q: &[f32],
    rank: usize,
    metric: &Metric,
) -> f32 {
    assert!(
        rank < rows.len(),
        "rank {rank} out of bounds for {} rows",
        rows.len()
    );
    top_k(rows, q, rank + 1, metric)
        .last()
        .expect("rank < len guarantees a neighbor")
        .dist
}

/// Recall of `got` against the oracle's answer set: `|got ∩ oracle| /
/// |oracle|`, counting an id `got` repeats once ([`crate::metrics::hits`]).
/// `1.0` when the oracle set is empty (nothing to miss).
pub fn recall_against(oracle: &[Neighbor], got: &[u32]) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let truth: Vec<u32> = oracle.iter().map(|n| n.id).collect();
    crate::metrics::hits(got, &truth) as f64 / oracle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroundTruth, SynthSpec};

    #[test]
    fn l2_oracle_matches_ground_truth_bit_for_bit() {
        let w = SynthSpec::tiny_test(12, 300, 77).generate();
        let gt = GroundTruth::compute(&w.base, &w.queries, 10, 1).unwrap();
        for qi in 0..w.queries.len() {
            let got = top_k(&w.base, w.queries.get(qi), 10, &Metric::L2);
            let ids: Vec<u32> = got.iter().map(|n| n.id).collect();
            let dists: Vec<u32> = got.iter().map(|n| n.dist.to_bits()).collect();
            let want: Vec<u32> = gt.dists[qi].iter().map(|d| d.to_bits()).collect();
            assert_eq!(ids, gt.ids[qi], "query {qi}");
            assert_eq!(dists, want, "query {qi}: distances diverge bitwise");
        }
    }

    #[test]
    fn ip_oracle_ranks_by_largest_dot_product() {
        let w = SynthSpec::tiny_test(8, 120, 5).generate();
        let q = w.queries.get(0);
        let top = top_k(&w.base, q, 5, &Metric::InnerProduct);
        let mut dots: Vec<(f32, u32)> = (0..w.base.len())
            .map(|i| (ddc_linalg::kernels::dot(w.base.get(i), q), i as u32))
            .collect();
        dots.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let want: Vec<u32> = dots.iter().take(5).map(|&(_, id)| id).collect();
        let got: Vec<u32> = top.iter().map(|n| n.id).collect();
        assert_eq!(got, want);
        for n in &top {
            assert_eq!(
                n.dist,
                -ddc_linalg::kernels::dot(w.base.get(n.id as usize), q),
                "ip oracle distance is the negated dot product"
            );
        }
    }

    #[test]
    fn filtered_oracle_only_answers_kept_rows() {
        let w = SynthSpec::tiny_test(8, 200, 9).generate();
        let q = w.queries.get(0);
        let keep = |id: u32| id.is_multiple_of(5);
        let top = top_k_filtered(&w.base, q, 7, &Metric::Cosine, &keep);
        assert_eq!(top.len(), 7);
        assert!(top.iter().all(|n| keep(n.id)));
        // Matches filtering the unfiltered ranking post hoc over the full
        // candidate list (the oracle is the exact answer either way).
        let full = top_k(&w.base, q, w.base.len(), &Metric::Cosine);
        let want: Vec<u32> = full
            .iter()
            .filter(|n| keep(n.id))
            .take(7)
            .map(|n| n.id)
            .collect();
        let got: Vec<u32> = top.iter().map(|n| n.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn tau_at_rank_is_the_sorted_distance() {
        let w = SynthSpec::tiny_test(8, 150, 3).generate();
        let q = w.queries.get(0);
        for metric in [Metric::L2, Metric::InnerProduct] {
            let mut all: Vec<f32> = (0..w.base.len())
                .map(|i| metric.distance(w.base.get(i), q))
                .collect();
            all.sort_by(f32::total_cmp);
            assert_eq!(tau_at_rank(&w.base, q, 0, &metric), all[0]);
            assert_eq!(tau_at_rank(&w.base, q, 42, &metric), all[42]);
        }
    }

    #[test]
    fn recall_counts_overlap() {
        let oracle = [
            Neighbor { dist: 0.0, id: 1 },
            Neighbor { dist: 1.0, id: 2 },
            Neighbor { dist: 2.0, id: 3 },
            Neighbor { dist: 3.0, id: 4 },
        ];
        assert_eq!(recall_against(&oracle, &[1, 2, 3, 4]), 1.0);
        assert_eq!(recall_against(&oracle, &[1, 2, 9, 9]), 0.5);
        assert_eq!(recall_against(&oracle, &[1, 1, 1, 1]), 0.25);
        assert_eq!(recall_against(&oracle, &[]), 0.0);
        assert_eq!(recall_against(&[], &[7]), 1.0);
    }

    #[test]
    fn k_zero_and_empty_rows_yield_empty() {
        let w = SynthSpec::tiny_test(8, 50, 1).generate();
        assert!(top_k(&w.base, w.queries.get(0), 0, &Metric::L2).is_empty());
    }
}

//! Evaluation metrics: recall@K and queries-per-second.
//!
//! Matches the paper's definitions (§VII-A): `recall@K = |T ∩ G| / K` where
//! `G` is the exact KNN set, and QPS is end-to-end query throughput.

use crate::gt::GroundTruth;
use std::collections::HashSet;

/// `|T ∩ G|` as sets: the number of distinct ids of `result` that appear
/// in `truth`. An id `result` repeats counts once, so a search that
/// returns duplicates loses recall instead of hiding them.
pub fn hits(result: &[u32], truth: &[u32]) -> usize {
    let g: HashSet<u32> = truth.iter().copied().collect();
    let t: HashSet<u32> = result.iter().copied().collect();
    t.intersection(&g).count()
}

/// Recall of a single result list against a single ground-truth list,
/// evaluated at `k` (both lists may be longer; only the first `k` entries
/// of each define `T` and `G`).
pub fn recall_at(result: &[u32], truth: &[u32], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let found = hits(&result[..k.min(result.len())], &truth[..k.min(truth.len())]);
    found as f64 / k.min(truth.len()).max(1) as f64
}

/// Mean recall@K over a query batch.
///
/// `results[q]` is the id list produced for query `q`.
pub fn recall(results: &[Vec<u32>], gt: &GroundTruth, k: usize) -> f64 {
    assert_eq!(results.len(), gt.ids.len(), "one result list per query");
    if results.is_empty() {
        return 0.0;
    }
    let sum: f64 = results
        .iter()
        .zip(&gt.ids)
        .map(|(r, g)| recall_at(r, g, k))
        .sum();
    sum / results.len() as f64
}

/// Simple wall-clock QPS measurement of a query loop.
///
/// Runs `f(q)` for `q` in `0..n_queries` and returns
/// `(qps, total_seconds)`.
pub fn measure_qps(n_queries: usize, mut f: impl FnMut(usize)) -> (f64, f64) {
    let start = std::time::Instant::now();
    for q in 0..n_queries {
        f(q);
    }
    let secs = start.elapsed().as_secs_f64();
    if secs <= 0.0 {
        (f64::INFINITY, 0.0)
    } else {
        (n_queries as f64 / secs, secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt2() -> GroundTruth {
        GroundTruth {
            k: 3,
            ids: vec![vec![1, 2, 3], vec![4, 5, 6]],
            dists: vec![vec![0.1, 0.2, 0.3], vec![0.1, 0.2, 0.3]],
        }
    }

    #[test]
    fn perfect_recall() {
        assert_eq!(recall_at(&[1, 2, 3], &[1, 2, 3], 3), 1.0);
        assert_eq!(recall(&[vec![1, 2, 3], vec![4, 5, 6]], &gt2(), 3), 1.0);
    }

    #[test]
    fn partial_recall() {
        assert!((recall_at(&[1, 9, 8], &[1, 2, 3], 3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(recall_at(&[1, 1, 1, 1], &[1, 2, 3, 4], 4), 0.25);
        let r = recall(&[vec![1, 2, 9], vec![9, 9, 9]], &gt2(), 3);
        assert!((r - (2.0 / 3.0 + 0.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn order_within_topk_does_not_matter() {
        assert_eq!(recall_at(&[3, 1, 2], &[1, 2, 3], 3), 1.0);
    }

    #[test]
    fn recall_evaluates_prefixes_only() {
        // Result has the right id but only after position k.
        assert_eq!(recall_at(&[9, 8, 7, 1], &[1, 2, 3], 3), 0.0);
    }

    #[test]
    fn k_zero_is_trivially_one() {
        assert_eq!(recall_at(&[], &[], 0), 1.0);
    }

    #[test]
    fn short_truth_normalizes_by_truth_len() {
        // Base smaller than k: ground truth has 2 entries, recall of both = 1.
        assert_eq!(recall_at(&[1, 2], &[1, 2], 5), 1.0);
    }

    #[test]
    fn qps_counts_calls() {
        let mut calls = 0usize;
        let (qps, secs) = measure_qps(10, |_| calls += 1);
        assert_eq!(calls, 10);
        assert!(qps > 0.0);
        assert!(secs >= 0.0);
    }
}

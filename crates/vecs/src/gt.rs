//! Exact (brute-force) K-nearest-neighbor ground truth.
//!
//! Recall@K (the paper's accuracy metric, §VII-A) is measured against the
//! exact KNN set `G`; this module computes it for a whole query set, one
//! [`crate::metric_oracle::top_k`] scan per query, spread over threads.
//! It also provides the reusable bounded top-K collector that the indexes'
//! result queues are built on.

use crate::metric_oracle::top_k;
use crate::vecset::VecSet;
use crate::{Result, VecsError};
use ddc_linalg::Metric;

/// A `(distance, id)` pair ordered by distance (ties broken by id) — the
/// element type of every result queue in the workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance to the query.
    pub dist: f32,
    /// Identifier of the data point.
    pub id: u32,
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order on f32 distances: NaN sorts last; ids break ties so the
        // order is deterministic across runs.
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Bounded max-heap keeping the `k` smallest [`Neighbor`]s seen so far.
///
/// This is the result queue `Q` of the paper's refinement framework: its
/// largest kept distance is the pruning threshold `τ`.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<Neighbor>,
}

impl TopK {
    /// New collector for the `k` nearest.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Current threshold `τ`: the largest kept distance once full,
    /// `f32::INFINITY` before that.
    #[inline]
    pub fn tau(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |n| n.dist)
        }
    }

    /// True once `k` neighbors are held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Number of neighbors currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been offered yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers a candidate; returns `true` if it was kept.
    #[inline]
    pub fn offer(&mut self, id: u32, dist: f32) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(Neighbor { dist, id });
            true
        } else if dist < self.tau() {
            self.heap.pop();
            self.heap.push(Neighbor { dist, id });
            true
        } else {
            false
        }
    }

    /// Consumes the collector, returning neighbors sorted by ascending
    /// distance.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// Exact KNN ids and distances for a query set.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Neighbors per query.
    pub k: usize,
    /// `ids[q]` holds the ids of query `q`'s exact KNN, ascending distance.
    pub ids: Vec<Vec<u32>>,
    /// Matching squared distances.
    pub dists: Vec<Vec<f32>>,
}

impl GroundTruth {
    /// Computes exact top-`k` over `base` for every query, scanning in
    /// parallel across `threads` workers (`0` = available parallelism).
    ///
    /// # Errors
    /// [`VecsError::Dimension`] on mismatched dims,
    /// [`VecsError::Empty`] on empty inputs.
    pub fn compute(base: &VecSet, queries: &VecSet, k: usize, threads: usize) -> Result<Self> {
        if base.is_empty() {
            return Err(VecsError::Empty("ground-truth base"));
        }
        if queries.is_empty() {
            return Err(VecsError::Empty("ground-truth queries"));
        }
        if base.dim() != queries.dim() {
            return Err(VecsError::Dimension {
                expected: base.dim(),
                actual: queries.dim(),
            });
        }
        let k = k.min(base.len());
        let nq = queries.len();
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads
        }
        .min(nq)
        .max(1);

        let mut ids = vec![Vec::new(); nq];
        let mut dists = vec![Vec::new(); nq];
        let chunk = nq.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, (ids_chunk, dists_chunk)) in ids
                .chunks_mut(chunk)
                .zip(dists.chunks_mut(chunk))
                .enumerate()
            {
                let base = &base;
                let queries = &queries;
                handles.push(scope.spawn(move || {
                    for (off, (id_row, dist_row)) in
                        ids_chunk.iter_mut().zip(dists_chunk.iter_mut()).enumerate()
                    {
                        let q = queries.get(t * chunk + off);
                        for n in top_k(*base, q, k, &Metric::L2) {
                            id_row.push(n.id);
                            dist_row.push(n.dist);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().expect("ground-truth worker panicked");
            }
        });
        Ok(GroundTruth { k, ids, dists })
    }

    /// Threshold distance `τ_q` of query `q`: the distance to its `k`-th
    /// neighbor. Used to label training samples (paper §VII-A).
    pub fn tau(&self, q: usize) -> f32 {
        *self.dists[q].last().expect("k >= 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_base() -> VecSet {
        // Points at x = 0, 1, 2, ..., 9 on a line.
        VecSet::from_rows(2, &(0..10).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn topk_keeps_smallest() {
        let mut t = TopK::new(3);
        for (id, d) in [(0u32, 5.0f32), (1, 1.0), (2, 3.0), (3, 0.5), (4, 10.0)] {
            t.offer(id, d);
        }
        let out = t.into_sorted();
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn topk_tau_transitions() {
        let mut t = TopK::new(2);
        assert_eq!(t.tau(), f32::INFINITY);
        t.offer(0, 4.0);
        assert_eq!(t.tau(), f32::INFINITY);
        t.offer(1, 2.0);
        assert_eq!(t.tau(), 4.0);
        assert!(t.is_full());
        // A better candidate lowers τ.
        assert!(t.offer(2, 1.0));
        assert_eq!(t.tau(), 2.0);
        // A worse one is rejected.
        assert!(!t.offer(3, 9.0));
    }

    #[test]
    fn topk_deterministic_tie_break() {
        // Equal distances: the earliest-offered candidates are kept (strict
        // `<` against τ), and the output is sorted by (dist, id).
        let mut t = TopK::new(2);
        t.offer(7, 1.0);
        t.offer(3, 1.0);
        t.offer(5, 1.0);
        let ids: Vec<u32> = t.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 7]);
    }

    #[test]
    fn neighbor_ordering_handles_nan() {
        let a = Neighbor { dist: 1.0, id: 0 };
        let b = Neighbor {
            dist: f32::NAN,
            id: 1,
        };
        assert!(a < b); // NaN sorts last under total_cmp
    }

    #[test]
    fn ground_truth_on_line() {
        let base = grid_base();
        let queries = VecSet::from_rows(2, &[vec![2.2, 0.0], vec![8.9, 0.0]]).unwrap();
        let gt = GroundTruth::compute(&base, &queries, 3, 2).unwrap();
        assert_eq!(gt.ids[0], vec![2, 3, 1]);
        assert_eq!(gt.ids[1], vec![9, 8, 7]);
        assert!((gt.tau(0) - (2.2f32 - 1.0).powi(2)).abs() < 1e-5);
    }

    #[test]
    fn ground_truth_distances_sorted() {
        let base = grid_base();
        let queries = VecSet::from_rows(2, &[vec![4.7, 0.3]]).unwrap();
        let gt = GroundTruth::compute(&base, &queries, 5, 1).unwrap();
        for w in gt.dists[0].windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn k_larger_than_base_is_clamped() {
        let base = grid_base();
        let queries = VecSet::from_rows(2, &[vec![0.0, 0.0]]).unwrap();
        let gt = GroundTruth::compute(&base, &queries, 100, 1).unwrap();
        assert_eq!(gt.ids[0].len(), 10);
    }

    #[test]
    fn thread_counts_agree() {
        let base = grid_base();
        let queries = VecSet::from_rows(
            2,
            &(0..7)
                .map(|i| vec![i as f32 + 0.4, 0.1])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let a = GroundTruth::compute(&base, &queries, 4, 1).unwrap();
        let b = GroundTruth::compute(&base, &queries, 4, 4).unwrap();
        assert_eq!(a.ids, b.ids);
    }

    #[test]
    fn rejects_dim_mismatch_and_empty() {
        let base = grid_base();
        let bad = VecSet::from_rows(3, &[vec![0.0; 3]]).unwrap();
        assert!(GroundTruth::compute(&base, &bad, 1, 1).is_err());
        let empty = VecSet::new(2);
        assert!(GroundTruth::compute(&empty, &base, 1, 1).is_err());
        assert!(GroundTruth::compute(&base, &empty, 1, 1).is_err());
    }
}

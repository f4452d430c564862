//! Lock-free fixed-bucket histograms.
//!
//! [`AtomicHistogram`] is a set of `u64` atomic bucket counters over a
//! static, monotonically increasing edge array. Recording is wait-free
//! (one relaxed `fetch_add` on a bucket plus the running sum and a CAS
//! loop for the max); reading produces a [`HistogramSnapshot`] that is
//! internally consistent enough for monitoring: every recorded value is
//! counted exactly once, and `sum`/`max` track the same stream.

use std::sync::atomic::{AtomicU64, Ordering};

const LOG2_BUCKETS: usize = 41;

const fn build_log2_edges() -> [u64; LOG2_BUCKETS] {
    let mut edges = [0u64; LOG2_BUCKETS];
    let mut i = 0;
    while i < LOG2_BUCKETS {
        edges[i] = 1u64 << i;
        i += 1;
    }
    edges
}

/// Power-of-two bucket edges `2^0 .. 2^40`, the default resolution for
/// nanosecond latency histograms: sub-microsecond up through ~18 minutes
/// with one bucket per doubling.
pub const LOG2_EDGES: [u64; LOG2_BUCKETS] = build_log2_edges();

/// A lock-free histogram with fixed upper-inclusive bucket edges.
///
/// Buckets hold counts of values `v <= edge`; one overflow bucket at the
/// end holds values greater than the last edge. All updates use relaxed
/// atomics — the type is built for high-frequency recording from many
/// threads with snapshot reads on a scrape path.
///
/// ```
/// use ddc_obs::AtomicHistogram;
///
/// static EDGES: [u64; 3] = [10, 100, 1000];
/// let h = AtomicHistogram::new(&EDGES);
/// h.record(5);
/// h.record(50);
/// h.record(5000); // overflow bucket
/// let s = h.snapshot();
/// assert_eq!(s.counts, vec![1, 1, 0, 1]);
/// assert_eq!(s.count(), 3);
/// ```
pub struct AtomicHistogram {
    edges: &'static [u64],
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// Builds a histogram over the given upper-inclusive edges, which
    /// must be non-empty and strictly increasing.
    pub fn new(edges: &'static [u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        AtomicHistogram {
            edges,
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// A histogram over [`LOG2_EDGES`] — the default for nanosecond
    /// latencies.
    pub fn log2() -> Self {
        Self::new(&LOG2_EDGES)
    }

    /// Records one observation. Wait-free apart from the max update,
    /// which retries only while racing a larger concurrent value.
    pub fn record(&self, value: u64) {
        let idx = self.edges.partition_point(|&e| e < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        let mut cur = self.max.load(Ordering::Relaxed);
        while value > cur {
            match self
                .max
                .compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Reads the current counts into an owned snapshot. Concurrent
    /// recorders may land between bucket reads, so a snapshot is a
    /// monitoring-grade view, not a linearization point — but every
    /// completed `record` before the call is fully visible.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            edges: self.edges,
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("AtomicHistogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum)
            .field("max", &snap.max)
            .finish()
    }
}

/// An owned, point-in-time read of an [`AtomicHistogram`].
///
/// `counts` has `edges.len() + 1` entries: one per upper-inclusive edge
/// plus the trailing overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper-inclusive bucket edges.
    pub edges: &'static [u64],
    /// Per-bucket counts; last entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        static EMPTY: [u64; 1] = [1];
        HistogramSnapshot {
            edges: &EMPTY,
            counts: vec![0, 0],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The count in the bucket the given value would land in.
    pub fn count_for(&self, value: u64) -> u64 {
        self.counts[self.edges.partition_point(|&e| e < value)]
    }

    /// Non-cumulative `(label, count)` pairs in the legacy `/stats`
    /// shape: `le_<edge>` per bucket and `gt_<last>` for overflow.
    pub fn labeled(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, &c) in self.counts.iter().enumerate() {
            let label = if i < self.edges.len() {
                format!("le_{}", self.edges[i])
            } else {
                format!("gt_{}", self.edges[self.edges.len() - 1])
            };
            out.push((label, c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static EDGES: [u64; 4] = [10, 100, 1_000, 10_000];

    #[test]
    fn log2_edges_are_powers_of_two() {
        assert_eq!(LOG2_EDGES[0], 1);
        assert_eq!(LOG2_EDGES[10], 1024);
        assert_eq!(LOG2_EDGES[40], 1 << 40);
        assert!(LOG2_EDGES.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn record_places_values_upper_inclusive() {
        let h = AtomicHistogram::new(&EDGES);
        h.record(10); // le_10 (inclusive)
        h.record(11); // le_100
        h.record(10_001); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 1, 0, 0, 1]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum, 10 + 11 + 10_001);
        assert_eq!(s.max, 10_001);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = AtomicHistogram::new(&EDGES).snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn labeled_matches_legacy_stats_keys() {
        let h = AtomicHistogram::new(&EDGES);
        h.record(1);
        h.record(20_000);
        let labels = h.snapshot().labeled();
        assert_eq!(labels[0], ("le_10".to_string(), 1));
        assert_eq!(labels[4], ("gt_10000".to_string(), 1));
    }

    #[test]
    fn count_for_routes_to_same_bucket_as_record() {
        let h = AtomicHistogram::new(&EDGES);
        h.record(777);
        assert_eq!(h.snapshot().count_for(777), 1);
        assert_eq!(h.snapshot().count_for(5), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_monotone_edges() {
        static BAD: [u64; 2] = [10, 10];
        AtomicHistogram::new(&BAD);
    }

    #[test]
    fn default_snapshot_merges_nothing() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.labeled().len(), 2);
    }
}

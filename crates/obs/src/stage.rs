//! Request-lifecycle stage taxonomy.
//!
//! Every request to the serving layer passes through the same pipeline:
//! parse → (coalesce) queue wait → engine search → response
//! serialization → socket write. [`Stage`] names those phases and
//! [`StageHistograms`] holds one nanosecond log2 histogram per stage, so
//! the reactor, collector, and engine all record onto the same axis and
//! `/metrics` can expose `ddc_stage_duration_seconds{stage=...}`.

use crate::hist::{AtomicHistogram, HistogramSnapshot};

/// One phase of the request lifecycle.
///
/// ```
/// use ddc_obs::Stage;
/// assert_eq!(Stage::QueueWait.name(), "queue_wait");
/// assert_eq!(Stage::ALL.len(), Stage::COUNT);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// HTTP request framing plus body validation on the reactor thread.
    Parse,
    /// Time a coalesced query sat in the batch collector queue.
    QueueWait,
    /// Each query's own index traversal + distance-comparison time.
    Search,
    /// Building the response JSON.
    Serialize,
    /// Draining the response bytes to the socket.
    Write,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 5;

    /// All stages in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::QueueWait,
        Stage::Search,
        Stage::Serialize,
        Stage::Write,
    ];

    /// Stable snake_case name used for metric labels and trace keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::Search => "search",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }

    /// Dense index into per-stage arrays, matching [`Stage::ALL`] order.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One nanosecond log2 [`AtomicHistogram`] per [`Stage`].
pub struct StageHistograms {
    hists: [AtomicHistogram; Stage::COUNT],
}

impl StageHistograms {
    /// Builds an empty set of per-stage histograms.
    pub fn new() -> Self {
        StageHistograms {
            hists: std::array::from_fn(|_| AtomicHistogram::log2()),
        }
    }

    /// Records `nanos` into the given stage's histogram.
    pub fn record(&self, stage: Stage, nanos: u64) {
        self.hists[stage.index()].record(nanos);
    }

    /// Snapshot of one stage's histogram.
    pub fn snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.hists[stage.index()].snapshot()
    }
}

impl Default for StageHistograms {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_dense_and_ordered() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["parse", "queue_wait", "search", "serialize", "write"]
        );
    }

    #[test]
    fn record_lands_in_the_right_stage() {
        let sh = StageHistograms::new();
        sh.record(Stage::Search, 1_000);
        sh.record(Stage::Search, 2_000);
        sh.record(Stage::Write, 10);
        assert_eq!(sh.snapshot(Stage::Search).count(), 2);
        assert_eq!(sh.snapshot(Stage::Write).count(), 1);
        assert_eq!(sh.snapshot(Stage::Parse).count(), 0);
    }
}

//! The distance-comparison-operator abstraction.
//!
//! AKNN refinement (paper §II-A) asks one question per candidate: *is
//! `dis(x, q)` larger than the queue threshold `τ`?* A classic
//! implementation answers by computing the exact distance; the paper's DCOs
//! answer it cheaply when they can certify `dis > τ` from an approximate
//! distance plus a correction, and fall back to the exact distance
//! otherwise.

use crate::batch::QueryBatch;
use crate::counters::Counters;
use crate::projected::Projected;
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::SharedRows;

/// Outcome of testing one candidate against a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// The DCO certified `dis > τ` without an exact computation. Carries the
    /// (corrected) approximate distance for diagnostics; it must satisfy
    /// `approx ≥ τ` in expectation but is *not* an exact distance.
    Pruned(f32),
    /// Exact squared distance.
    Exact(f32),
}

impl Decision {
    /// The exact distance if one was computed.
    #[inline]
    pub fn exact(self) -> Option<f32> {
        match self {
            Decision::Exact(d) => Some(d),
            Decision::Pruned(_) => None,
        }
    }

    /// True when the candidate was pruned.
    #[inline]
    pub fn is_pruned(self) -> bool {
        matches!(self, Decision::Pruned(_))
    }
}

/// A distance comparison operator bound to one (transformed) dataset.
///
/// A `Dco` is immutable and shareable; per-query state (rotated query,
/// lookup tables, counters) lives in the [`QueryDco`] value returned by
/// [`Dco::begin`].
///
/// Every operator is a *correction* over one projected-row store (the
/// crate-private `projected` module: metric prep, projection, rows). An
/// implementation names its store ([`Dco::store`]), turns a projected
/// query into its evaluator ([`Dco::begin_projected`]) and keeps its own
/// side columns in step with the rows ([`Dco::append_rows`],
/// [`Dco::remove_rows`], [`Dco::state_bytes`]); everything else —
/// geometry, metric, query projection solo and batched — is provided
/// over the store, once.
pub trait Dco {
    /// Per-query evaluator. (The `'a` outlives-bound lets the dynamic
    /// dispatch layer box evaluators as `dyn` objects — see
    /// [`crate::DynDco`].)
    type Query<'a>: QueryDco + 'a
    where
        Self: 'a;

    /// Short display name (`"DDCres"`, `"ADSampling"`, ...).
    fn name(&self) -> &'static str;

    /// The projected-row store this operator corrects over.
    fn store(&self) -> &Projected;

    /// Per-query state for a query **already in stored space** (prepped
    /// and projected by the store) — the one place an operator derives
    /// its per-query tables. [`Dco::begin`] and [`Dco::begin_batch`] both
    /// end here, which is what makes them bit-identical.
    fn begin_projected<'a>(&'a self, rq: Vec<f32>) -> Self::Query<'a>;

    /// Number of database points the DCO serves.
    fn len(&self) -> usize {
        self.store().len()
    }

    /// True when the DCO serves no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the (original) vector space.
    fn dim(&self) -> usize {
        self.store().dim()
    }

    /// The distance metric this operator answers in. Every distance it
    /// reports — [`QueryDco::exact`], the payload of [`Decision`] — is in
    /// this metric's smaller-is-better form (see
    /// [`ddc_linalg::Metric::distance`]).
    fn metric(&self) -> Metric {
        self.store().metric().clone()
    }

    /// The dimension [`Dco::state_bytes`] fixes (a projection, or
    /// weighted-L2 weights), or `None` when only the rows carry it — as
    /// for [`crate::Exact`] under an unweighted metric. A restore checks
    /// it against the rows; a snapshot with no rows has nothing else to
    /// check its dimension against.
    fn recorded_dim(&self) -> Option<usize> {
        self.store().recorded_dim()
    }

    /// Preprocessing bytes the DCO holds **beyond** the raw vectors it
    /// serves: rotation matrices, per-point norms, codebooks, classifier
    /// weights (the paper's Fig. 7 space accounting).
    ///
    /// The default is `0` — correct for operators with no auxiliary state
    /// (the [`crate::Exact`] baseline); every real DCO overrides it.
    fn extra_bytes(&self) -> usize {
        0
    }

    /// The operator's stored (pre-transformed) row matrix — the bulk
    /// working set an engine snapshot persists as its `rows` section and
    /// serves zero-copy ([`SharedRows::Mapped`]) after a restore. Freshly
    /// built operators return the heap-resident [`SharedRows::Owned`]
    /// variant; both answer queries through the same code path.
    fn rows(&self) -> &SharedRows {
        self.store().rows()
    }

    /// Serializes everything the operator needs **except** the row matrix
    /// — rotations, spectra, codebooks, codes, calibrated models, the
    /// config fields the query path reads — as a [`crate::snap_state`]
    /// blob. [`crate::DcoSpec::restore`] rebuilds a bit-identical operator
    /// from this blob plus [`Dco::rows`], skipping all training.
    fn state_bytes(&self) -> Vec<u8>;

    /// Appends `new_rows` (**original-space** vectors) to the served set,
    /// transforming them exactly as the build path would — ids continue
    /// from [`Dco::len`]. Operators whose transform is data-independent
    /// (exact storage, random rotation) produce appends bit-identical to
    /// a fresh build; data-driven operators reuse their trained artifacts
    /// (PCA basis, codebooks, classifiers) for the new rows and bump
    /// [`Dco::stale_rows`] so compaction knows when to retrain.
    ///
    /// Requires heap-resident rows ([`SharedRows::Owned`]); appends to a
    /// snapshot-mapped operator fail.
    ///
    /// The default declines (`Config` error) — operators opt in.
    ///
    /// # Errors
    /// [`crate::CoreError`] on a dimensionality mismatch, mapped rows, or
    /// an operator without an append story; the operator is unchanged in
    /// every error case (the store pushes the row before any side column
    /// grows).
    fn append_rows(&mut self, new_rows: &dyn RowAccess) -> crate::Result<()> {
        let _ = new_rows;
        Err(crate::CoreError::Config(format!(
            "{} does not support appends",
            self.name()
        )))
    }

    /// Physically removes every row whose `dead_mask` flag is set: the
    /// matrix and every per-row side column shrink in place, and the
    /// survivors are renumbered densely in their old order (row `i`
    /// becomes the count of live rows before it). Survivors answer
    /// [`QueryDco::exact`] / [`QueryDco::test`] bit-identically under the
    /// new ids — nothing is re-transformed — so removal adds no
    /// [`Dco::stale_rows`] and resets none.
    ///
    /// Requires heap-resident rows ([`SharedRows::Owned`]), like
    /// [`Dco::append_rows`].
    ///
    /// # Errors
    /// [`crate::CoreError`] when the mask does not cover exactly
    /// [`Dco::len`] rows or the rows are mapped; the operator is unchanged
    /// in every error case.
    fn remove_rows(&mut self, dead_mask: &[bool]) -> crate::Result<()>;

    /// Number of served rows whose placement postdates the operator's
    /// trained artifacts — appended rows transformed with a PCA basis,
    /// codebook, or classifier fitted before they arrived. `0` (always
    /// the case for data-independent operators) means the operator is
    /// exactly what a fresh build would produce; a growing count is the
    /// compactor's re-rotation trigger. Not persisted: a restored
    /// operator starts at `0`.
    fn stale_rows(&self) -> usize {
        self.store().stale_rows()
    }

    /// Prepares per-query state for the **original-space** query `q`
    /// (the store applies prep and projection — the `O(D²)` rotation cost
    /// the paper accounts to the query, §VI-A).
    fn begin<'a>(&'a self, q: &[f32]) -> Self::Query<'a> {
        self.begin_projected(self.store().project_query(q))
    }

    /// [`Dco::begin`] for a whole batch, one evaluator per query in batch
    /// order. The store pushes the batch through the cache-blocked
    /// [`ddc_linalg::kernels::matvec_batch_f32`], streaming the rotation
    /// from memory once per block of queries instead of once per query;
    /// **bit-identical** to calling [`Dco::begin`] per query.
    ///
    /// # Panics
    /// Panics when `batch.dim() != self.dim()`.
    fn begin_batch<'a>(&'a self, batch: &QueryBatch) -> Vec<Self::Query<'a>> {
        self.store()
            .project_batch(batch.as_vecset())
            .chunks(self.dim().max(1))
            .take(batch.len())
            .map(|rq| self.begin_projected(rq.to_vec()))
            .collect()
    }
}

/// Per-query evaluator produced by [`Dco::begin`].
pub trait QueryDco {
    /// Exact squared distance to point `id` (used while the result queue is
    /// still filling, when no meaningful `τ` exists yet).
    fn exact(&mut self, id: u32) -> f32;

    /// Tests candidate `id` against threshold `tau`.
    ///
    /// Implementations must return [`Decision::Exact`] when
    /// `tau == f32::INFINITY`.
    fn test(&mut self, id: u32, tau: f32) -> Decision;

    /// Hints that point `id` is about to be tested: starts loading what
    /// [`QueryDco::test`] reads first (the head of the stored row, plus
    /// any per-row side column it consults before the row) without
    /// waiting for it. Changes no result and no counter. An index that
    /// knows several candidates ahead calls this for all of them before
    /// the first test, so their cache misses overlap. The default does
    /// nothing.
    #[inline]
    fn prefetch(&self, id: u32) {
        let _ = id;
    }

    /// Work counters accumulated so far for this query.
    fn counters(&self) -> Counters;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_accessors() {
        assert_eq!(Decision::Exact(2.5).exact(), Some(2.5));
        assert_eq!(Decision::Pruned(9.0).exact(), None);
        assert!(Decision::Pruned(9.0).is_pruned());
        assert!(!Decision::Exact(1.0).is_pruned());
    }
}

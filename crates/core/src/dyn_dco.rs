//! Object-safe dynamic dispatch over distance comparison operators.
//!
//! The [`Dco`] trait uses a lifetime-generic associated type for its
//! per-query evaluator, which makes it statically dispatched only: every
//! caller must name a concrete operator at compile time. A servable system
//! needs the opposite — pick the operator from a config string at runtime
//! and hand indexes one uniform handle. This module provides that layer:
//!
//! * [`DynQueryDco`] — object-safe mirror of [`QueryDco`] (which is
//!   already object-safe; the mirror exists so the dynamic layer has a
//!   stable name to evolve independently). Blanket-implemented for every
//!   [`QueryDco`].
//! * [`DynDco`] — object-safe mirror of [`Dco`]: [`DynDco::begin_dyn`]
//!   returns a boxed evaluator instead of a GAT. Blanket-implemented for
//!   every [`Dco`], so all five operators (and any future one) are usable
//!   as `&dyn DynDco` with zero extra code.
//! * [`BoxedDco`] — the owned, thread-safe handle
//!   ([`crate::DcoSpec::build_rows`] returns it; `ddc-engine` stores it).
//!
//! Cost: one heap allocation per query (`Box<dyn DynQueryDco>`) plus a
//! virtual call per candidate test. Against the `O(D)`–`O(D²)` arithmetic
//! behind each of those calls, this is noise — the parity suite pins that
//! the dynamic path returns bit-identical top-k ids to the generic path.

use crate::batch::QueryBatch;
use crate::traits::{Dco, QueryDco};
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::SharedRows;

/// Object-safe per-query evaluator: the dynamic mirror of [`QueryDco`].
///
/// Blanket-implemented for every [`QueryDco`], and itself a [`QueryDco`]
/// (as a supertrait), so `dyn DynQueryDco` flows back into generic search
/// loops unchanged.
pub trait DynQueryDco: QueryDco {}

impl<Q: QueryDco + ?Sized> DynQueryDco for Q {}

/// Object-safe distance comparison operator: the dynamic mirror of
/// [`Dco`].
///
/// Everything [`Dco`] exposes, with the GAT-returning `begin` replaced by
/// box-returning [`DynDco::begin_dyn`] / [`DynDco::begin_batch_dyn`].
pub trait DynDco {
    /// Short display name (`"DDCres"`, `"ADSampling"`, ...).
    fn name(&self) -> &'static str;

    /// Number of database points the DCO serves.
    fn len(&self) -> usize;

    /// True when the DCO serves no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the (original) vector space.
    fn dim(&self) -> usize;

    /// The metric every reported distance is expressed in (see
    /// [`Dco::metric`]).
    fn metric(&self) -> Metric;

    /// Preprocessing bytes beyond the raw vectors (see
    /// [`Dco::extra_bytes`]).
    fn extra_bytes(&self) -> usize;

    /// The operator's stored row matrix (see [`Dco::rows`]).
    fn rows(&self) -> &SharedRows;

    /// Snapshot state blob (see [`Dco::state_bytes`]).
    fn state_bytes(&self) -> Vec<u8>;

    /// Appends original-space rows (see [`Dco::append_rows`]).
    ///
    /// # Errors
    /// Same contract as [`Dco::append_rows`].
    fn append_rows(&mut self, new_rows: &dyn RowAccess) -> crate::Result<()>;

    /// Physically removes the flagged rows (see [`Dco::remove_rows`]).
    ///
    /// # Errors
    /// Same contract as [`Dco::remove_rows`].
    fn remove_rows(&mut self, dead_mask: &[bool]) -> crate::Result<()>;

    /// Rows transformed with pre-append artifacts (see
    /// [`Dco::stale_rows`]).
    fn stale_rows(&self) -> usize;

    /// Boxed-evaluator form of [`Dco::begin`].
    fn begin_dyn<'a>(&'a self, q: &[f32]) -> Box<dyn DynQueryDco + 'a>;

    /// Boxed-evaluator form of [`Dco::begin_batch`]: one evaluator per
    /// query, batch rotation amortized where the operator supports it.
    fn begin_batch_dyn<'a>(&'a self, batch: &QueryBatch) -> Vec<Box<dyn DynQueryDco + 'a>>;
}

impl<D: Dco> DynDco for D {
    fn name(&self) -> &'static str {
        Dco::name(self)
    }

    fn len(&self) -> usize {
        Dco::len(self)
    }

    fn is_empty(&self) -> bool {
        Dco::is_empty(self)
    }

    fn dim(&self) -> usize {
        Dco::dim(self)
    }

    fn metric(&self) -> Metric {
        Dco::metric(self)
    }

    fn extra_bytes(&self) -> usize {
        Dco::extra_bytes(self)
    }

    fn rows(&self) -> &SharedRows {
        Dco::rows(self)
    }

    fn state_bytes(&self) -> Vec<u8> {
        Dco::state_bytes(self)
    }

    fn append_rows(&mut self, new_rows: &dyn RowAccess) -> crate::Result<()> {
        Dco::append_rows(self, new_rows)
    }

    fn remove_rows(&mut self, dead_mask: &[bool]) -> crate::Result<()> {
        Dco::remove_rows(self, dead_mask)
    }

    fn stale_rows(&self) -> usize {
        Dco::stale_rows(self)
    }

    fn begin_dyn<'a>(&'a self, q: &[f32]) -> Box<dyn DynQueryDco + 'a> {
        Box::new(self.begin(q))
    }

    fn begin_batch_dyn<'a>(&'a self, batch: &QueryBatch) -> Vec<Box<dyn DynQueryDco + 'a>> {
        self.begin_batch(batch)
            .into_iter()
            .map(|q| Box::new(q) as Box<dyn DynQueryDco + 'a>)
            .collect()
    }
}

/// An owned, thread-safe dynamic DCO handle — what runtime configuration
/// ([`crate::DcoSpec::build_rows`]) produces and what `ddc-engine` stores.
///
/// # Threading contract
///
/// The `Send + Sync` bounds here are what make one engine servable from
/// many threads: every concrete operator is immutable after build (all
/// query state lives in the evaluator returned by
/// [`DynDco::begin_dyn`]), so a shared `&BoxedDco` may begin evaluators
/// from any number of threads concurrently. Evaluators themselves are
/// deliberately **not** required to be `Send`: they are scratch state that
/// should be created, used, and dropped on one thread (a server worker
/// begins the evaluators of the request it runs). The assertion below pins the bound at compile time so a future
/// operator that smuggles in non-`Sync` state fails here, not in a
/// downstream crate.
pub type BoxedDco = Box<dyn DynDco + Send + Sync>;

const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<BoxedDco>();
    assert_send_sync::<dyn DynDco + Send + Sync>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::Exact;
    use crate::{AdSampling, AdSamplingConfig};
    use ddc_vecs::SynthSpec;

    #[test]
    fn blanket_adapter_mirrors_the_static_path() {
        let w = SynthSpec::tiny_test(8, 60, 5).generate();
        let exact = Exact::build(&w.base);
        let dyn_dco: &dyn DynDco = &exact;
        assert_eq!(dyn_dco.name(), "Exact");
        assert_eq!(dyn_dco.len(), 60);
        assert_eq!(dyn_dco.dim(), 8);
        assert!(!dyn_dco.is_empty());
        assert_eq!(dyn_dco.extra_bytes(), 0);

        let q = w.queries.get(0);
        let mut via_dyn = dyn_dco.begin_dyn(q);
        let mut via_static = exact.begin(q);
        for id in 0..60u32 {
            assert_eq!(via_dyn.exact(id), via_static.exact(id));
            assert_eq!(via_dyn.test(id, 1.0), via_static.test(id, 1.0));
        }
        assert_eq!(via_dyn.counters(), via_static.counters());
    }

    #[test]
    fn every_operator_is_send_sync() {
        // The serving layer shares one operator across worker threads;
        // each concrete type must uphold the `BoxedDco` bound directly.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Exact>();
        assert_send_sync::<crate::AdSampling>();
        assert_send_sync::<crate::DdcRes>();
        assert_send_sync::<crate::DdcPca>();
        assert_send_sync::<crate::DdcOpq>();
    }

    #[test]
    fn boxed_dco_is_send_sync_and_batchable() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let w = SynthSpec::tiny_test(8, 40, 6).generate();
        let ads = AdSampling::build(&w.base, AdSamplingConfig::default()).unwrap();
        let boxed: BoxedDco = Box::new(ads);
        assert_send_sync(&boxed);

        let batch = QueryBatch::new(w.queries.clone());
        let evals = boxed.begin_batch_dyn(&batch);
        assert_eq!(evals.len(), w.queries.len());
        let mut a = evals.into_iter().next().unwrap();
        let mut b = boxed.begin_dyn(w.queries.get(0));
        for id in 0..40u32 {
            assert_eq!(
                a.exact(id),
                b.exact(id),
                "batched begin must be bit-identical"
            );
        }
    }
}

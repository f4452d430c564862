//! One search interface over every index kind.
//!
//! The paper plugs its distance comparison operators into graph-based and
//! IVF-based indexes interchangeably (§II-A); this module makes the
//! *indexes* interchangeable too. [`SearchIndex`] is an object-safe trait
//! implemented by [`FlatIndex`], [`Ivf`], and [`Hnsw`], taking the
//! operator as `&dyn DynDco` and the per-query knobs as [`SearchParams`]
//! (which absorbs the formerly ad-hoc `ef` / `nprobe` arguments). Both
//! axes of the (index × DCO) grid are therefore runtime choices — what
//! `ddc-engine` builds on.
//!
//! Every implementation routes into the same `search_eval_filtered` core
//! as the statically-dispatched methods (the unfiltered entry points pass
//! the literal `&|_| true`), so dynamic dispatch returns bit-identical
//! results (pinned by the engine parity suite).

use crate::visited::VisitedSet;
use crate::{FlatIndex, Hnsw, IndexError, Ivf, Result, SearchResult};
use ddc_core::{DynDco, DynQueryDco};
use ddc_linalg::RowAccess;

/// Per-query search knobs, one struct for every index kind.
///
/// Each index reads the fields it understands and ignores the rest:
/// [`Hnsw`] reads `ef`, [`Ivf`] reads `nprobe`, [`FlatIndex`] reads
/// neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchParams {
    /// HNSW beam width (`Nef`). Clamped up to `k` at search time.
    pub ef: usize,
    /// Number of IVF buckets probed (`Nprobe`). Clamped into
    /// `1..=nlist` at search time.
    pub nprobe: usize,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            ef: 100,
            nprobe: 16,
        }
    }
}

impl SearchParams {
    /// The default parameters (`ef = 100`, `nprobe = 16`).
    pub fn new() -> SearchParams {
        SearchParams::default()
    }

    /// Sets the HNSW beam width.
    #[must_use]
    pub fn with_ef(mut self, ef: usize) -> SearchParams {
        self.ef = ef;
        self
    }

    /// Sets the IVF probe count.
    #[must_use]
    pub fn with_nprobe(mut self, nprobe: usize) -> SearchParams {
        self.nprobe = nprobe;
        self
    }
}

/// Object-safe search interface implemented by all three index kinds.
pub trait SearchIndex {
    /// Index kind tag (`"flat"`, `"ivf"`, `"hnsw"`) — matches the
    /// `IndexSpec` string form.
    fn kind(&self) -> &'static str;

    /// Index-structure memory in bytes (Fig. 7 space accounting); `0` for
    /// the stateless flat scan.
    fn memory_bytes(&self) -> usize;

    /// Searches for the `k` nearest neighbors of original-space query `q`
    /// through `dco`.
    ///
    /// # Errors
    /// [`IndexError::Dimension`] when `q` has the wrong dimensionality.
    fn search(
        &self,
        dco: &dyn DynDco,
        q: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<SearchResult> {
        if q.len() != dco.dim() {
            return Err(IndexError::Dimension {
                expected: dco.dim(),
                actual: q.len(),
            });
        }
        let mut eval = dco.begin_dyn(q);
        Ok(self.search_prepared(dco, &mut *eval, q, k, params))
    }

    /// [`SearchIndex::search`] through an evaluator the caller already
    /// prepared — the batched-search entry point, where per-query rotation
    /// was amortized by [`ddc_core::DynDco::begin_batch_dyn`]. The caller
    /// guarantees `q.len() == dco.dim()`.
    fn search_prepared(
        &self,
        dco: &dyn DynDco,
        eval: &mut dyn DynQueryDco,
        q: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> SearchResult;

    /// [`SearchIndex::search_prepared`] with a liveness filter — the
    /// tombstone entry point used by the mutable-engine overlay. Ids for
    /// which `live` returns `false` are repaired out of the result during
    /// traversal: they never consume a `k` slot, though graph indexes may
    /// still route *through* them. With an always-true filter every
    /// implementation is bit-identical to the unfiltered path.
    fn search_prepared_filtered(
        &self,
        dco: &dyn DynDco,
        eval: &mut dyn DynQueryDco,
        q: &[f32],
        k: usize,
        params: &SearchParams,
        live: &dyn Fn(u32) -> bool,
    ) -> SearchResult;

    /// Extends the index over rows `start..rows.len()` of `rows` (the full
    /// grown row source; `start` must equal the current indexed length).
    /// Flat indexes are stateless and accept any growth; IVF appends to
    /// nearest-centroid posting lists; HNSW inserts incrementally.
    ///
    /// # Errors
    /// [`IndexError::Config`] on a `start` mismatch,
    /// [`IndexError::Dimension`] on a row-width mismatch.
    fn append(&mut self, rows: &dyn RowAccess, start: usize) -> Result<()>;

    /// Physically removes the rows flagged in `dead_mask` (one flag per
    /// indexed row) and renumbers the survivors densely in their old
    /// order — row `i` becomes the count of live rows before it, the same
    /// renumbering [`ddc_core::Dco::remove_rows`] applies. `rows_before`
    /// is the original-space row source the index was built over, *before*
    /// the removal. Flat indexes are stateless (the mask is only
    /// validated); IVF filters its posting lists; HNSW repairs the graph
    /// around the dead nodes first ([`Hnsw::remove_rows`]).
    ///
    /// # Errors
    /// [`IndexError::Config`] when the mask does not cover exactly the
    /// indexed rows, [`IndexError::Empty`] when no row would survive,
    /// [`IndexError::Dimension`] on a row-width mismatch. The index is
    /// unchanged in every error case.
    fn remove(&mut self, rows_before: &dyn RowAccess, dead_mask: &[bool]) -> Result<()>;

    /// Serializes the index structure (vectors and operators travel
    /// separately — see [`crate::persist`]), destined for the `index`
    /// section of an engine snapshot container. Reload through
    /// [`crate::IndexSpec::load_bytes`].
    fn save_bytes(&self) -> Vec<u8>;
}

impl SearchIndex for FlatIndex {
    fn kind(&self) -> &'static str {
        "flat"
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    fn search_prepared(
        &self,
        dco: &dyn DynDco,
        eval: &mut dyn DynQueryDco,
        _q: &[f32],
        k: usize,
        _params: &SearchParams,
    ) -> SearchResult {
        self.search_eval_filtered(dco.len(), eval, k, &|_| true)
    }

    fn search_prepared_filtered(
        &self,
        dco: &dyn DynDco,
        eval: &mut dyn DynQueryDco,
        _q: &[f32],
        k: usize,
        _params: &SearchParams,
        live: &dyn Fn(u32) -> bool,
    ) -> SearchResult {
        self.search_eval_filtered(dco.len(), eval, k, live)
    }

    fn append(&mut self, _rows: &dyn RowAccess, _start: usize) -> Result<()> {
        Ok(())
    }

    fn remove(&mut self, rows_before: &dyn RowAccess, dead_mask: &[bool]) -> Result<()> {
        removal_plan(rows_before.len(), dead_mask).map(|_| ())
    }

    fn save_bytes(&self) -> Vec<u8> {
        FlatIndex::save_bytes(self)
    }
}

impl SearchIndex for Ivf {
    fn kind(&self) -> &'static str {
        "ivf"
    }

    fn memory_bytes(&self) -> usize {
        Ivf::memory_bytes(self)
    }

    fn search_prepared(
        &self,
        _dco: &dyn DynDco,
        eval: &mut dyn DynQueryDco,
        q: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> SearchResult {
        self.search_eval_filtered(eval, q, k, params.nprobe, &|_| true)
    }

    fn search_prepared_filtered(
        &self,
        _dco: &dyn DynDco,
        eval: &mut dyn DynQueryDco,
        q: &[f32],
        k: usize,
        params: &SearchParams,
        live: &dyn Fn(u32) -> bool,
    ) -> SearchResult {
        self.search_eval_filtered(eval, q, k, params.nprobe, live)
    }

    fn append(&mut self, rows: &dyn RowAccess, start: usize) -> Result<()> {
        Ivf::append_rows(self, rows, start)
    }

    fn remove(&mut self, _rows_before: &dyn RowAccess, dead_mask: &[bool]) -> Result<()> {
        Ivf::remove_rows(self, dead_mask)
    }

    fn save_bytes(&self) -> Vec<u8> {
        Ivf::save_bytes(self)
    }
}

impl SearchIndex for Hnsw {
    fn kind(&self) -> &'static str {
        "hnsw"
    }

    fn memory_bytes(&self) -> usize {
        Hnsw::memory_bytes(self)
    }

    fn search_prepared(
        &self,
        _dco: &dyn DynDco,
        eval: &mut dyn DynQueryDco,
        _q: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> SearchResult {
        let mut visited = VisitedSet::new(self.len());
        self.search_eval_filtered(eval, k, params.ef, &mut visited, &|_| true)
    }

    fn search_prepared_filtered(
        &self,
        _dco: &dyn DynDco,
        eval: &mut dyn DynQueryDco,
        _q: &[f32],
        k: usize,
        params: &SearchParams,
        live: &dyn Fn(u32) -> bool,
    ) -> SearchResult {
        let mut visited = VisitedSet::new(self.len());
        self.search_eval_filtered(eval, k, params.ef, &mut visited, live)
    }

    fn append(&mut self, rows: &dyn RowAccess, start: usize) -> Result<()> {
        if start != self.len() {
            return Err(IndexError::Config(format!(
                "append start {start} does not match indexed length {}",
                self.len()
            )));
        }
        let mut visited = VisitedSet::new(rows.len());
        for _ in start..rows.len() {
            self.insert_next(rows, &mut visited)?;
        }
        Ok(())
    }

    fn remove(&mut self, rows_before: &dyn RowAccess, dead_mask: &[bool]) -> Result<()> {
        Hnsw::remove_rows(self, rows_before, dead_mask)
    }

    fn save_bytes(&self) -> Vec<u8> {
        Hnsw::save_bytes(self)
    }
}

/// The shared front door of [`SearchIndex::remove`]: checks that
/// `dead_mask` covers exactly the `indexed` rows and leaves at least one,
/// and returns the dense old→new id map (entries of dead rows are
/// meaningless) — or `None` when nothing is flagged and the removal is a
/// no-op.
pub(crate) fn removal_plan(indexed: usize, dead_mask: &[bool]) -> Result<Option<Vec<u32>>> {
    if dead_mask.len() != indexed {
        return Err(IndexError::Config(format!(
            "removal mask covers {} rows, {indexed} are indexed",
            dead_mask.len()
        )));
    }
    let mut live = 0u32;
    let new_ids: Vec<u32> = dead_mask
        .iter()
        .map(|&dead| {
            let id = live;
            live += u32::from(!dead);
            id
        })
        .collect();
    match live as usize {
        0 => Err(IndexError::Empty),
        n if n == indexed => Ok(None),
        _ => Ok(Some(new_ids)),
    }
}

/// An owned, thread-safe dynamic index handle (what `IndexSpec::build_rows`
/// returns and `ddc-engine` stores).
pub type BoxedIndex = Box<dyn SearchIndex + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HnswConfig, IvfConfig};
    use ddc_core::{DynDco, Exact};
    use ddc_vecs::SynthSpec;

    #[test]
    fn params_builder() {
        let p = SearchParams::new().with_ef(64).with_nprobe(4);
        assert_eq!(p.ef, 64);
        assert_eq!(p.nprobe, 4);
        assert_eq!(SearchParams::default().ef, 100);
    }

    #[test]
    fn dyn_search_matches_static_for_all_kinds() {
        let w = SynthSpec::tiny_test(12, 400, 33).generate();
        let dco = Exact::build(&w.base);
        let dyn_dco: &dyn DynDco = &dco;
        let params = SearchParams::new().with_ef(50).with_nprobe(4);
        let k = 7;

        let flat = FlatIndex::new();
        let ivf = Ivf::build(&w.base, &IvfConfig::new(8)).unwrap();
        let hnsw = Hnsw::build(
            &w.base,
            &HnswConfig {
                m: 8,
                ef_construction: 40,
                seed: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let indexes: [&dyn SearchIndex; 3] = [&flat, &ivf, &hnsw];
        let kinds = ["flat", "ivf", "hnsw"];

        for (idx, kind) in indexes.iter().zip(kinds) {
            assert_eq!(idx.kind(), kind);
            for qi in 0..w.queries.len().min(6) {
                let q = w.queries.get(qi);
                let got = idx.search(dyn_dco, q, k, &params).unwrap().ids();
                let want = match kind {
                    "flat" => flat.search(&dco, q, k).ids(),
                    "ivf" => ivf.search(&dco, q, k, params.nprobe).unwrap().ids(),
                    _ => hnsw.search(&dco, q, k, params.ef).unwrap().ids(),
                };
                assert_eq!(got, want, "{kind} query {qi}");
            }
        }
    }

    #[test]
    fn dyn_search_checks_dimensions() {
        let w = SynthSpec::tiny_test(8, 100, 1).generate();
        let dco = Exact::build(&w.base);
        let flat = FlatIndex::new();
        assert!(matches!(
            SearchIndex::search(&flat, &dco, &[0.0; 3], 5, &SearchParams::default()),
            Err(IndexError::Dimension { .. })
        ));
    }
}

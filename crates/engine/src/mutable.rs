//! Live mutability: insert/delete/upsert under traffic with background
//! compaction.
//!
//! The serving [`Engine`] stays immutable — that is what makes its search
//! path lock-free and its results attributable to one epoch. Mutations
//! instead accumulate in a small shared *overlay* (pending-insert rows
//! plus a tombstone set) that every search consults:
//!
//! * **Deletes** become tombstones. Until the next compaction
//!   consolidates them away, the tombstone-filtered index cores still
//!   route graph traversal through dead nodes (their edges are the HNSW
//!   graph's connectivity) but repair the result on the way out — dead
//!   ids never consume one of the `k` result slots.
//! * **Inserts** land in an original-space delta (what compaction reads)
//!   and, row for row, in a *pending-row operator*: an empty copy of the
//!   serving operator's trained state grown by the delta. A search walks
//!   the pending rows once, asks that operator's `test()` whether each
//!   beats the running `k`-th distance — so pending rows are pruned under
//!   the same contract as index candidates — and inserts the exact
//!   survivors into the top-`k`. The delta is expected to stay small: a
//!   background *compactor* periodically works it (and the tombstones)
//!   into a replacement engine, landed through the same epoch-stamped
//!   [`ServingHandle`] swap the server already uses for hot reloads.
//!
//! A compaction is **incremental** — O(churn), not O(n) — unless a fold
//! is owed or asked for. It deep-copies the serving engine, physically
//! removes the tombstoned rows ([`Engine::apply_remove`]: HNSW one-hop
//! graph repair, IVF posting-list filtering, operator matrix and side
//! columns compacted, ids renumbered — no dead row is retained), then
//! grows the copy by the pending rows ([`Engine::apply_append`]: DCO rows
//! transformed through the existing trained artifacts, HNSW graph
//! insertion, IVF posting-list appends). The report names what happened:
//!
//! * **`append`** — nothing was deleted; the copy only grew. For
//!   data-independent operators the result is bit-identical to a fresh
//!   build over the grown set.
//! * **`repair`** — rows were removed (and possibly appended). A valid
//!   index over exactly the live rows with exact distances, but *not*
//!   bit-identical to a fresh build: the repaired graph is a different
//!   (equally deterministic) graph.
//! * **`fold`** — full rebuild over the surviving rows. Bit-identical to
//!   a fresh build over the same data (deterministic seeds and, for HNSW,
//!   the deterministic per-id level hash make build-from-scratch and
//!   insert-one-at-a-time the same construction), so
//!   [`MutableEngine::compact_full`] restores the parity story after any
//!   mutation history. Taken when forced, when nothing would survive the
//!   removal, and when a data-driven operator's staleness budget is
//!   exhausted: each appended row of such an operator counts against
//!   [`MutableConfig::max_stale_rows`] (its PCA/OPQ rotation was trained
//!   on the old distribution — re-rotation happens here). Removal adds no
//!   stale rows and resets none.
//!
//! Rows are addressed by caller-chosen **external ids** (`u32`). The
//! engine built at construction maps row `i` to external id `i`; after a
//! compaction drops rows, the replacement engine carries an explicit
//! row→id map and translates on the way out of every search.
//!
//! Concurrency model: searches take the overlay's read lock only while
//! consulting it; mutations take the write lock for a few pushes; the
//! compactor serializes on its own mutex and never blocks either — it
//! *seals* the pending layer (new mutations keep flowing into a fresh
//! active layer), builds the replacement offline, then swaps. Engines are
//! generation-stamped so that, around the swap instant, the old engine
//! keeps applying the sealed layer it has not absorbed while the new
//! engine (whose base already contains it) skips it — deleted ids are
//! never returned, even mid-compaction, from either side of the swap.

use crate::engine::{Engine, EngineConfig};
use crate::error::EngineError;
use crate::handle::ServingHandle;
use ddc_core::BoxedDco;
use ddc_index::SearchResult;
use ddc_linalg::{FlatRows, RowAccess};
use ddc_obs::{AtomicHistogram, HistogramSnapshot};
use ddc_vecs::{Neighbor, VecSet};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Why a pending-row operator cannot refuse a write: it holds heap rows
/// of the layer's dimension, one per delta row.
const ALIGNED: &str = "pending-row operator is heap-resident and row-aligned with its delta";

/// One batch of not-yet-compacted mutations: pending-insert rows (original
/// space, paired with their external ids), the same rows as the serving
/// operator stores them, and the external ids deleted from the layers
/// underneath.
struct Layer {
    tombstones: HashSet<u32>,
    delta: VecSet,
    delta_ids: Vec<u32>,
    /// The pending-row operator: an empty copy of a serving operator's
    /// trained state ([`Engine::pending_row_operator`]) grown by `delta`,
    /// row `i` for row `i`, through every write.
    scorer: BoxedDco,
}

impl Layer {
    fn new(scorer: BoxedDco) -> Layer {
        Layer {
            tombstones: HashSet::new(),
            delta: VecSet::new(scorer.dim()),
            delta_ids: Vec::new(),
            scorer,
        }
    }

    fn is_empty(&self) -> bool {
        self.tombstones.is_empty() && self.delta_ids.is_empty()
    }

    /// Appends original-space `rows` as pending inserts under `ids`.
    fn push_rows(&mut self, ids: &[u32], rows: &dyn RowAccess) {
        self.scorer.append_rows(rows).expect(ALIGNED);
        for i in 0..rows.len() {
            self.delta.push(rows.row(i)).expect(ALIGNED);
        }
        self.delta_ids.extend_from_slice(ids);
    }

    /// Overwrites pending row `pos` in place, keeping its arrival slot.
    /// An operator cannot rewrite a stored row, so its tail from `pos` is
    /// dropped and re-appended — one projection per tail row, paid only
    /// by an upsert of a still-pending id.
    fn overwrite(&mut self, pos: usize, row: &[f32]) {
        self.delta.get_mut(pos).copy_from_slice(row);
        let tail: Vec<bool> = (0..self.delta.len()).map(|i| i >= pos).collect();
        self.scorer.remove_rows(&tail).expect(ALIGNED);
        let dim = self.delta.dim();
        let rows = FlatRows::new(&self.delta.as_flat()[pos * dim..], dim);
        self.scorer.append_rows(&rows).expect(ALIGNED);
    }

    /// Drops the pending rows flagged in `dead` in place; the rows behind
    /// them keep their order, which is the order a compaction appends
    /// them in.
    fn remove_rows(&mut self, dead: &[bool]) {
        self.scorer.remove_rows(dead).expect(ALIGNED);
        self.delta.remove_rows(dead);
        ddc_vecs::retain_live_rows(&mut self.delta_ids, 1, dead);
    }

    /// Re-grows the pending rows in `scorer` — an empty operator carrying
    /// another trained state (a fold re-trained the serving operator).
    fn reseed(&mut self, mut scorer: BoxedDco) {
        scorer.append_rows(&self.delta).expect(ALIGNED);
        self.scorer = scorer;
    }

    /// Merges the pending rows whose ids pass `visible` into `r`, an
    /// ascending result of at most `k`. One walk: each row is tested
    /// against the running `k`-th distance (`∞` while `r` is short), and
    /// exact survivors are inserted in `Neighbor` order — distance, then
    /// id, the order a sort of the union would produce.
    fn merge_into(&self, q: &[f32], k: usize, r: &mut SearchResult, visible: impl Fn(u32) -> bool) {
        if self.delta_ids.is_empty() {
            return;
        }
        let top = &mut r.neighbors;
        let mut eval = self.scorer.begin_dyn(q);
        for (row, &id) in self.delta_ids.iter().enumerate() {
            if !visible(id) {
                continue;
            }
            let tau = top.get(k - 1).map_or(f32::INFINITY, |n| n.dist);
            if let Some(dist) = eval.test(row as u32, tau).exact() {
                let hit = Neighbor { dist, id };
                let at = top.partition_point(|n| *n < hit);
                if at < k {
                    top.insert(at, hit);
                    top.truncate(k);
                }
            }
        }
        r.counters.merge(&eval.counters());
    }
}

/// The shared mutation state behind one [`MutableEngine`]: the active
/// layer (taking new mutations), at most one sealed layer (being folded by
/// an in-flight compaction, or already folded and kept for the previous
/// generation's in-flight searches), and the id set of the current serving
/// base.
///
/// Shadowing invariant: every active pending id that the sealed layer or
/// the base also holds is in `active.tombstones` — [`MutableEngine::upsert`]
/// and [`MutableEngine::delete`] both tombstone such an id — so one
/// tombstone lookup decides whether an active write supersedes a sealed row.
pub(crate) struct MutState {
    /// Generation of the current serving engine (bumped per compaction).
    gen: u64,
    /// External ids present in the current serving engine's base rows.
    base_ids: HashSet<u32>,
    active: Layer,
    /// `None` before the first seal and after an unseal.
    sealed: Option<Layer>,
    /// Generation whose engines must still apply `sealed`; later
    /// generations were built with it folded in.
    sealed_gen: u64,
}

impl MutState {
    fn fresh(base_ids: HashSet<u32>, scorer: BoxedDco) -> MutState {
        MutState {
            gen: 0,
            base_ids,
            active: Layer::new(scorer),
            sealed: None,
            sealed_gen: 0,
        }
    }

    /// The sealed layer, when it applies to an engine of `generation`.
    fn sealed_for(&self, generation: u64) -> Option<&Layer> {
        self.sealed
            .as_ref()
            .filter(|s| self.sealed_gen == generation && !s.is_empty())
    }

    /// The sealed layer while it is still part of the current truth (an
    /// in-flight fold has not yet landed).
    fn sealed_pending(&self) -> Option<&Layer> {
        self.sealed.as_ref().filter(|_| self.sealed_gen == self.gen)
    }

    /// Does the sealed layer (live or retired) hold pending row `id`?
    fn sealed_holds(&self, id: u32) -> bool {
        self.sealed
            .as_ref()
            .is_some_and(|s| s.delta_ids.contains(&id))
    }

    /// True when an engine of `generation` sees no pending mutations at
    /// all — its search can take the unfiltered fast path.
    pub(crate) fn clean_for(&self, generation: u64) -> bool {
        self.active.is_empty() && self.sealed_for(generation).is_none()
    }

    /// Is external id `ext` deleted, from the viewpoint of an engine of
    /// `generation`?
    pub(crate) fn is_dead(&self, generation: u64, ext: u32) -> bool {
        self.active.tombstones.contains(&ext)
            || self
                .sealed_for(generation)
                .is_some_and(|s| s.tombstones.contains(&ext))
    }

    /// Merges the pending inserts visible to an engine of `generation`
    /// into `r`, the ascending top-`k` (`k ≥ 1`) of its index search:
    /// active rows, then the sealed rows no active tombstone shadows.
    /// Each row is scored by its layer's pending-row operator, so distances
    /// rank against index results on one scale and far rows are pruned
    /// without a full-dimension scan; the work lands in `r.counters`.
    pub(crate) fn merge_pending(&self, generation: u64, q: &[f32], k: usize, r: &mut SearchResult) {
        self.active.merge_into(q, k, r, |_| true);
        if let Some(sealed) = self.sealed_for(generation) {
            sealed.merge_into(q, k, r, |id| !self.active.tombstones.contains(&id));
        }
    }

    /// Is `id` currently visible to searches (the mutation-side truth)?
    fn is_live(&self, id: u32) -> bool {
        if self.active.delta_ids.contains(&id) {
            return true;
        }
        let sealed = self.sealed_pending();
        if sealed.is_some_and(|s| s.delta_ids.contains(&id))
            && !self.active.tombstones.contains(&id)
        {
            return true;
        }
        self.base_ids.contains(&id)
            && !self.active.tombstones.contains(&id)
            && !sealed.is_some_and(|s| s.tombstones.contains(&id))
    }
}

/// Freezes the active layer for folding; new mutations flow into a fresh
/// active layer over `scorer`, an empty copy of the serving operator.
fn seal(st: &mut MutState, scorer: BoxedDco) {
    st.sealed = Some(std::mem::replace(&mut st.active, Layer::new(scorer)));
    st.sealed_gen = st.gen;
}

/// Re-merges a sealed layer into the active one (a fold failed after
/// sealing). Active entries are newer and win: a sealed row whose id an
/// active write touched is tombstoned in the active layer, and goes.
fn unseal(st: &mut MutState) {
    let Some(mut merged) = st.sealed.take() else {
        return;
    };
    let shadowed: Vec<bool> = merged
        .delta_ids
        .iter()
        .map(|id| st.active.tombstones.contains(id))
        .collect();
    merged.remove_rows(&shadowed);
    merged
        .tombstones
        .extend(st.active.tombstones.iter().copied());
    merged.push_rows(&st.active.delta_ids, &st.active.delta);
    st.active = merged;
}

/// The per-engine view of the shared mutation state: the row→external-id
/// map of the engine's base (`None` = identity, the pre-compaction case)
/// plus the generation stamp that tells the state which layers apply.
pub(crate) struct Overlay {
    ids: Option<Arc<Vec<u32>>>,
    shared: Arc<RwLock<MutState>>,
    generation: u64,
    /// Shared across generations: duration of the dirty-path merge of
    /// pending inserts into the index's top-`k` (it starts after the
    /// index search), recorded by the engine's search core.
    merge_hist: Arc<AtomicHistogram>,
}

impl Overlay {
    pub(crate) fn state(&self) -> RwLockReadGuard<'_, MutState> {
        self.shared.read().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The row→external-id map (`None` = identity).
    pub(crate) fn ids(&self) -> Option<&[u32]> {
        self.ids.as_ref().map(|a| a.as_slice())
    }

    /// Records one pending-insert merge duration (nanos).
    pub(crate) fn record_merge(&self, nanos: u64) {
        self.merge_hist.record(nanos);
    }

    /// Rewrites internal row ids to external ids in place.
    pub(crate) fn translate(&self, neighbors: &mut [Neighbor]) {
        if let Some(m) = &self.ids {
            for n in neighbors {
                n.id = m[n.id as usize];
            }
        }
    }
}

/// Knobs for the mutable wrapper and its background compactor.
#[derive(Debug, Clone)]
pub struct MutableConfig {
    /// Pending mutations (inserts + tombstones) that wake the background
    /// compactor immediately. `0` disables the count trigger (the
    /// interval tick still runs).
    pub compact_threshold: usize,
    /// Background compactor tick: pending mutations older than this are
    /// folded even below the threshold.
    pub compact_interval: Duration,
    /// Appended-without-retraining budget for data-driven operators
    /// (DDCres / DDCpca / DDCopq): rows transformed through a stale
    /// rotation. A compaction that would exceed it rebuilds (re-trains)
    /// instead of appending.
    pub max_stale_rows: usize,
}

impl Default for MutableConfig {
    fn default() -> Self {
        MutableConfig {
            compact_threshold: 256,
            compact_interval: Duration::from_millis(500),
            max_stale_rows: 1024,
        }
    }
}

/// Point-in-time mutation counters (the `/stats` surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationStats {
    /// Rows currently visible to searches.
    pub live: usize,
    /// Rows in the serving engine's immutable base.
    pub base_len: usize,
    /// Pending inserts not yet folded into a serving engine.
    pub pending_inserts: usize,
    /// Deleted ids still shadowing base rows.
    pub tombstones: usize,
    /// Rows appended through a stale (untrained-on) rotation since the
    /// last full rebuild.
    pub stale_rows: usize,
    /// Accepted `upsert` calls.
    pub upserts: u64,
    /// Accepted `delete` calls.
    pub deletes: u64,
    /// Completed compactions (either mode).
    pub compactions: u64,
}

/// What one compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Epoch of the engine serving after the call (new epoch when work
    /// happened, current epoch on a no-op).
    pub epoch: u64,
    /// `"append"` (copy grown in place), `"repair"` (rows removed from
    /// the copy, then grown), `"fold"` (full rebuild), or `"none"`.
    pub mode: &'static str,
    /// Tombstoned base rows dropped.
    pub dropped: usize,
    /// Pending inserts folded in.
    pub appended: usize,
    /// Base rows served after the call.
    pub len: usize,
}

/// Original-space source of truth for rebuilds: the serving engine's base
/// rows, their external ids, and the training queries (data-driven
/// operators re-train on fold).
struct BaseRows {
    rows: VecSet,
    ids: Vec<u32>,
    train: Option<VecSet>,
}

/// A write head over an immutable serving [`Engine`]: upserts and deletes
/// apply immediately (visible to the very next search), and a compactor —
/// background thread or explicit [`MutableEngine::compact`] call — folds
/// them into replacement engines landed through the [`ServingHandle`].
///
/// ```
/// use ddc_engine::{EngineConfig, MutableConfig, MutableEngine};
/// use ddc_vecs::SynthSpec;
///
/// let w = SynthSpec::tiny_test(8, 200, 9).generate();
/// let cfg = EngineConfig::from_strs("flat", "exact").unwrap();
/// let me = MutableEngine::build(w.base.clone(), None, cfg, MutableConfig::default()).unwrap();
///
/// me.upsert(777, w.queries.get(0)).unwrap();
/// let r = me.handle().engine().search(w.queries.get(0), 1).unwrap();
/// assert_eq!(r.neighbors[0].id, 777);
///
/// me.delete(777);
/// let r = me.handle().engine().search(w.queries.get(0), 1).unwrap();
/// assert_ne!(r.neighbors[0].id, 777);
///
/// me.delete(5); // tombstone a base row
/// let report = me.compact().unwrap(); // incremental: row 5 is physically gone
/// assert_eq!(report.mode, "repair");
/// assert_eq!(report.dropped, 1);
///
/// me.delete(6);
/// let report = me.compact_full().unwrap(); // fold: bit-identical to a fresh build
/// assert_eq!(report.mode, "fold");
/// assert_eq!(report.len, 198);
/// ```
pub struct MutableEngine {
    handle: Arc<ServingHandle>,
    shared: Arc<RwLock<MutState>>,
    base: Mutex<BaseRows>,
    cfg: EngineConfig,
    mcfg: MutableConfig,
    dim: usize,
    stale: AtomicUsize,
    upserts: AtomicU64,
    deletes: AtomicU64,
    compactions: AtomicU64,
    compaction_hist: AtomicHistogram,
    merge_hist: Arc<AtomicHistogram>,
    wake: Mutex<bool>,
    wake_cv: Condvar,
}

impl std::fmt::Debug for MutableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableEngine")
            .field("dim", &self.dim)
            .field("stats", &self.mutation_stats())
            .finish()
    }
}

impl MutableEngine {
    /// Builds the initial engine over `base` (row `i` gets external id
    /// `i`) and wraps it for mutation. The rows are retained as the
    /// original-space source of truth for rebuilds, so this path requires
    /// heap-resident vectors — snapshot-mapped or out-of-core engines
    /// cannot grow.
    ///
    /// # Errors
    /// Engine build failures; a base larger than `u32` ids can address.
    pub fn build(
        base: VecSet,
        train_queries: Option<VecSet>,
        cfg: EngineConfig,
        mcfg: MutableConfig,
    ) -> Result<Arc<MutableEngine>, EngineError> {
        if base.len() > u32::MAX as usize {
            return Err(EngineError::Config(format!(
                "{} rows exceed the u32 external-id space",
                base.len()
            )));
        }
        let mut engine = Engine::build(&base, train_queries.as_ref(), cfg.clone())?;
        let dim = base.dim();
        let ids: Vec<u32> = (0..base.len() as u32).collect();
        let shared = Arc::new(RwLock::new(MutState::fresh(
            ids.iter().copied().collect(),
            engine.pending_row_operator()?,
        )));
        let merge_hist = Arc::new(AtomicHistogram::log2());
        engine.set_overlay(Overlay {
            ids: None,
            shared: Arc::clone(&shared),
            generation: 0,
            merge_hist: Arc::clone(&merge_hist),
        });
        let handle = Arc::new(ServingHandle::new(engine));
        Ok(Arc::new(MutableEngine {
            handle,
            shared,
            base: Mutex::new(BaseRows {
                rows: base,
                ids,
                train: train_queries,
            }),
            cfg,
            mcfg,
            dim,
            stale: AtomicUsize::new(0),
            upserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_hist: AtomicHistogram::log2(),
            merge_hist,
            wake: Mutex::new(false),
            wake_cv: Condvar::new(),
        }))
    }

    /// The serving slot mutations land in. Share this with whatever
    /// serves reads (the server's collector holds the same handle).
    pub fn handle(&self) -> Arc<ServingHandle> {
        Arc::clone(&self.handle)
    }

    /// Original-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The engine configuration rebuilds use.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Inserts `vector` under external id `id`, replacing any live row
    /// with that id (the old version is tombstoned or overwritten).
    /// Visible to the next search. Returns `true` when a live row was
    /// replaced.
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn upsert(&self, id: u32, vector: &[f32]) -> Result<bool, EngineError> {
        if vector.len() != self.dim {
            return Err(EngineError::Config(format!(
                "upsert vector is {}d but the engine serves {}d",
                vector.len(),
                self.dim
            )));
        }
        let replaced;
        {
            let mut st = write_state(&self.shared);
            replaced = st.is_live(id);
            if let Some(pos) = st.active.delta_ids.iter().position(|&x| x == id) {
                st.active.overwrite(pos, vector);
            } else {
                st.active.push_rows(&[id], &FlatRows::new(vector, self.dim));
                if st.base_ids.contains(&id) || st.sealed_holds(id) {
                    st.active.tombstones.insert(id);
                }
            }
        }
        self.upserts.fetch_add(1, Ordering::Relaxed);
        self.maybe_wake();
        Ok(replaced)
    }

    /// Deletes external id `id`. Visible to the next search: the id is
    /// filtered out of every result — it never consumes a `k` slot — even
    /// while a compaction is in flight. Returns `true` when the id was
    /// live.
    pub fn delete(&self, id: u32) -> bool {
        let found;
        {
            let mut st = write_state(&self.shared);
            found = st.is_live(id);
            if let Some(pos) = st.active.delta_ids.iter().position(|&x| x == id) {
                let dead: Vec<bool> = (0..st.active.delta_ids.len()).map(|i| i == pos).collect();
                st.active.remove_rows(&dead);
            }
            if st.base_ids.contains(&id) || st.sealed_holds(id) {
                st.active.tombstones.insert(id);
            }
        }
        self.deletes.fetch_add(1, Ordering::Relaxed);
        self.maybe_wake();
        found
    }

    /// Pending mutations in the active layer (the compactor's trigger
    /// metric).
    pub fn pending_mutations(&self) -> usize {
        let st = read_state(&self.shared);
        st.active.delta_ids.len() + st.active.tombstones.len()
    }

    /// Point-in-time mutation counters.
    pub fn mutation_stats(&self) -> MutationStats {
        let st = read_state(&self.shared);
        let mut dead: HashSet<u32> = st
            .active
            .tombstones
            .iter()
            .filter(|id| st.base_ids.contains(id))
            .copied()
            .collect();
        let mut pending = st.active.delta_ids.len();
        if let Some(sealed) = st.sealed_pending() {
            dead.extend(
                sealed
                    .tombstones
                    .iter()
                    .filter(|id| st.base_ids.contains(id)),
            );
            pending += sealed
                .delta_ids
                .iter()
                .filter(|id| !st.active.tombstones.contains(id))
                .count();
        }
        MutationStats {
            live: st.base_ids.len() - dead.len() + pending,
            base_len: st.base_ids.len(),
            pending_inserts: pending,
            tombstones: dead.len(),
            stale_rows: self.stale.load(Ordering::Relaxed),
            upserts: self.upserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    /// Distribution of completed compaction durations (nanos).
    pub fn compaction_nanos(&self) -> HistogramSnapshot {
        self.compaction_hist.snapshot()
    }

    /// Distribution of pending-insert merge durations (nanos), one per
    /// unfiltered dirty search. Empty while no mutations are pending
    /// (clean searches skip the merge).
    pub fn overlay_merge_nanos(&self) -> HistogramSnapshot {
        self.merge_hist.snapshot()
    }

    /// Works pending mutations into a replacement engine and swaps it into
    /// the serving slot (epoch +1). Incremental (`"append"` / `"repair"`)
    /// while the staleness budget allows and at least one base row
    /// survives, a fold otherwise; a no-op when nothing is pending.
    /// Mutations and searches keep flowing while the replacement builds.
    ///
    /// # Errors
    /// Build failures — pending mutations are preserved (re-merged into
    /// the active layer) and the serving engine is untouched.
    pub fn compact(&self) -> Result<CompactionReport, EngineError> {
        self.compact_inner(false)
    }

    /// [`MutableEngine::compact`] forced into fold mode: a full rebuild
    /// (and re-training, for data-driven operators) over the surviving
    /// rows, resetting the staleness counter. Runs even with nothing
    /// pending when stale rows exist.
    ///
    /// # Errors
    /// Same contract as [`MutableEngine::compact`].
    pub fn compact_full(&self) -> Result<CompactionReport, EngineError> {
        self.compact_inner(true)
    }

    fn compact_inner(&self, force_fold: bool) -> Result<CompactionReport, EngineError> {
        let started = Instant::now();
        // One compaction at a time; mutations and searches do not take
        // this lock.
        let mut base = lock_base(&self.base);

        // Seal: pending mutations freeze for folding, new ones flow into
        // a fresh active layer. Its pending-row operator is copied off the
        // serving engine before the lock is taken (a no-op call drops it).
        let scorer = self.handle.engine().pending_row_operator()?;
        {
            let mut st = write_state(&self.shared);
            if st.sealed_pending().is_some() {
                // A previous fold failed after sealing; recover its work.
                unseal(&mut st);
            }
            let stale = self.stale.load(Ordering::Relaxed);
            if st.active.is_empty() && !(force_fold && stale > 0) {
                return Ok(CompactionReport {
                    epoch: self.handle.epoch(),
                    mode: "none",
                    dropped: 0,
                    appended: 0,
                    len: base.rows.len(),
                });
            }
            seal(&mut st, scorer);
        }

        // Materialize the fold inputs. The sealed layer is immutable from
        // here (mutations only touch the active layer) and `base` is
        // stable under our mutex, so this read holds the lock only for
        // the copies.
        let (new_rows, new_ids, delta_rows, dead_mask) = {
            let st = read_state(&self.shared);
            let sealed = st.sealed.as_ref().expect("sealed above");
            let dead_mask: Vec<bool> = base
                .ids
                .iter()
                .map(|id| sealed.tombstones.contains(id))
                .collect();
            let delta_rows = sealed.delta.clone();
            let mut rows = base.rows.clone();
            rows.remove_rows(&dead_mask);
            for row in delta_rows.iter() {
                rows.push(row).expect("delta dims match");
            }
            let mut ids = base.ids.clone();
            ddc_vecs::retain_live_rows(&mut ids, 1, &dead_mask);
            ids.extend_from_slice(&sealed.delta_ids);
            (rows, ids, delta_rows, dead_mask)
        };
        let appended = delta_rows.len();
        let dropped = dead_mask.iter().filter(|&&dead| dead).count();
        let survivors = dead_mask.len() - dropped;

        let prior_stale = self.stale.load(Ordering::Relaxed);
        let retrains = self.cfg.dco.retrains_on_append();
        let projected = prior_stale + if retrains { appended } else { 0 };
        // Incremental unless a fold is asked for, owed (stale budget), or
        // the only option (an index cannot be repaired down to nothing).
        let incremental =
            !force_fold && projected <= self.mcfg.max_stale_rows && (dropped == 0 || survivors > 0);

        // Build the replacement outside every lock searches or mutations
        // take.
        let built = if incremental {
            self.handle.engine().duplicate().and_then(|mut copy| {
                if dropped > 0 {
                    copy.apply_remove(&base.rows, &dead_mask)?;
                }
                copy.apply_append(&new_rows, &delta_rows)?;
                Ok(copy)
            })
        } else {
            Engine::build(&new_rows, base.train.as_ref(), self.cfg.clone())
        };
        // A fold re-trains the operator: the active layer's pending rows
        // move to an empty copy of the replacement's.
        let built = built.and_then(|next| {
            let scorer = if incremental {
                None
            } else {
                Some(next.pending_row_operator()?)
            };
            Ok((next, scorer))
        });
        let (mut next, scorer) = match built {
            Ok(built) => built,
            Err(e) => {
                unseal(&mut write_state(&self.shared));
                return Err(e);
            }
        };

        // Commit: stamp the new generation, install the replacement, and
        // retire state the new base absorbed. The sealed layer is kept —
        // searches still in flight on the previous generation's engine
        // need it — and is dropped at the next seal.
        let ids_arc = Arc::new(new_ids);
        let epoch = {
            let mut st = write_state(&self.shared);
            if let Some(scorer) = scorer {
                st.active.reseed(scorer);
            }
            st.gen += 1;
            next.set_overlay(Overlay {
                ids: Some(Arc::clone(&ids_arc)),
                shared: Arc::clone(&self.shared),
                generation: st.gen,
                merge_hist: Arc::clone(&self.merge_hist),
            });
            st.base_ids = ids_arc.iter().copied().collect();
            // Tombstones that survive reference the new base (they
            // arrived while it was folding); anything else is retired.
            let base_ids = std::mem::take(&mut st.base_ids);
            st.active.tombstones.retain(|id| base_ids.contains(id));
            st.base_ids = base_ids;
            self.handle.swap_arc(Arc::new(next))
        };
        self.stale
            .store(if incremental { projected } else { 0 }, Ordering::Relaxed);
        base.ids = (*ids_arc).clone();
        base.rows = new_rows;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compaction_hist
            .record(started.elapsed().as_nanos() as u64);
        Ok(CompactionReport {
            epoch,
            mode: match (incremental, dropped) {
                (false, _) => "fold",
                (true, 0) => "append",
                (true, _) => "repair",
            },
            dropped,
            appended,
            len: base.rows.len(),
        })
    }

    /// Spawns the background compactor: wakes on the threshold signal or
    /// every [`MutableConfig::compact_interval`], and compacts whenever
    /// mutations are pending. The returned handle stops and joins the
    /// thread on drop.
    pub fn spawn_compactor(self: &Arc<Self>) -> CompactorHandle {
        let me = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("ddc-compactor".into())
            .spawn(move || loop {
                {
                    let mut urgent = me.wake.lock().unwrap_or_else(|p| p.into_inner());
                    if !*urgent {
                        urgent = me
                            .wake_cv
                            .wait_timeout(urgent, me.mcfg.compact_interval)
                            .unwrap_or_else(|p| p.into_inner())
                            .0;
                    }
                    *urgent = false;
                }
                if stop_thread.load(Ordering::Relaxed) {
                    return;
                }
                if me.pending_mutations() > 0 {
                    // Failures leave the mutations pending; retried on
                    // the next tick.
                    let _ = me.compact();
                }
            })
            .expect("spawn compactor thread");
        CompactorHandle {
            stop,
            engine: Arc::clone(self),
            thread: Some(thread),
        }
    }

    fn maybe_wake(&self) {
        if self.mcfg.compact_threshold == 0 {
            return;
        }
        if self.pending_mutations() >= self.mcfg.compact_threshold {
            let mut flag = self.wake.lock().unwrap_or_else(|p| p.into_inner());
            *flag = true;
            self.wake_cv.notify_all();
        }
    }
}

/// Owner of a background compactor thread ([`MutableEngine::spawn_compactor`]);
/// stops and joins it on drop.
pub struct CompactorHandle {
    stop: Arc<AtomicBool>,
    engine: Arc<MutableEngine>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CompactorHandle {
    /// Stops the thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let mut flag = self.engine.wake.lock().unwrap_or_else(|p| p.into_inner());
        *flag = true;
        self.engine.wake_cv.notify_all();
        drop(flag);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn read_state(shared: &RwLock<MutState>) -> RwLockReadGuard<'_, MutState> {
    shared.read().unwrap_or_else(|p| p.into_inner())
}

fn write_state(shared: &RwLock<MutState>) -> RwLockWriteGuard<'_, MutState> {
    shared.write().unwrap_or_else(|p| p.into_inner())
}

fn lock_base(base: &Mutex<BaseRows>) -> MutexGuard<'_, BaseRows> {
    base.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_core::Counters;
    use ddc_index::SearchParams;
    use ddc_linalg::Metric;
    use ddc_vecs::SynthSpec;

    fn setup(index: &str, dco: &str) -> (Arc<MutableEngine>, ddc_vecs::Workload) {
        let w = SynthSpec::tiny_test(12, 200, 31).generate();
        let cfg = EngineConfig::from_strs(index, dco).unwrap();
        let me = MutableEngine::build(
            w.base.clone(),
            Some(w.train_queries.clone()),
            cfg,
            MutableConfig::default(),
        )
        .unwrap();
        (me, w)
    }

    #[test]
    fn upsert_is_visible_before_compaction() {
        let (me, w) = setup("flat", "exact");
        let q = w.queries.get(0);
        me.upsert(5000, q).unwrap();
        let r = me.handle().engine().search(q, 3).unwrap();
        assert_eq!(r.neighbors[0].id, 5000);
        assert_eq!(r.neighbors[0].dist, 0.0);
        let stats = me.mutation_stats();
        assert_eq!(stats.pending_inserts, 1);
        assert_eq!(stats.live, 201);
    }

    #[test]
    fn delete_filters_without_consuming_k_slots() {
        let (me, w) = setup("flat", "exact");
        let q = w.queries.get(0);
        let before = me.handle().engine().search(q, 5).unwrap();
        let victim = before.neighbors[0].id;
        assert!(me.delete(victim));
        let after = me.handle().engine().search(q, 5).unwrap();
        assert_eq!(after.neighbors.len(), 5, "dead id must not cost a slot");
        assert!(after.ids().iter().all(|&id| id != victim));
        assert_eq!(after.neighbors[0].id, before.neighbors[1].id);
    }

    #[test]
    fn upsert_replaces_existing_id() {
        let (me, w) = setup("flat", "exact");
        let q = w.queries.get(1);
        assert!(me.upsert(7, q).unwrap(), "id 7 is live in the base");
        let r = me.handle().engine().search(q, 1).unwrap();
        assert_eq!(r.neighbors[0].id, 7);
        assert_eq!(r.neighbors[0].dist, 0.0);
        // Only one row answers to id 7.
        let r = me.handle().engine().search(q, 10).unwrap();
        assert_eq!(r.ids().iter().filter(|&&id| id == 7).count(), 1);
    }

    #[test]
    fn delete_then_upsert_resurrects_id() {
        let (me, w) = setup("flat", "exact");
        let q = w.queries.get(2);
        assert!(me.delete(3));
        assert!(!me.delete(3), "second delete finds nothing");
        assert!(!me.upsert(3, q).unwrap(), "id 3 was dead");
        let r = me.handle().engine().search(q, 1).unwrap();
        assert_eq!(r.neighbors[0].id, 3);
    }

    #[test]
    fn fold_compaction_is_bit_identical_to_fresh_build() {
        let (me, w) = setup("hnsw(m=6,ef_construction=30)", "ddcres(init_d=4,delta_d=4)");
        // Delete a few base rows and add a few new ones.
        for id in [4u32, 9, 40] {
            assert!(me.delete(id));
        }
        me.upsert(300, w.queries.get(0)).unwrap();
        me.upsert(301, w.queries.get(1)).unwrap();
        let report = me.compact_full().unwrap();
        assert_eq!(report.mode, "fold");
        assert_eq!(report.dropped, 3);
        assert_eq!(report.appended, 2);
        assert_eq!(report.len, 199);
        assert_eq!(report.epoch, 1);

        // Fresh build over the equivalent surviving rows, in fold order.
        let mut rows = VecSet::new(12);
        let mut ids = Vec::new();
        for i in 0..w.base.len() {
            if ![4usize, 9, 40].contains(&i) {
                rows.push(w.base.get(i)).unwrap();
                ids.push(i as u32);
            }
        }
        rows.push(w.queries.get(0)).unwrap();
        ids.push(300);
        rows.push(w.queries.get(1)).unwrap();
        ids.push(301);
        let fresh = Engine::build(&rows, Some(&w.train_queries), me.config().clone()).unwrap();

        let compacted = me.handle().engine();
        for qi in 0..w.queries.len().min(10) {
            let a = compacted.search(w.queries.get(qi), 5).unwrap();
            let b = fresh.search(w.queries.get(qi), 5).unwrap();
            let b_ext: Vec<u32> = b.neighbors.iter().map(|n| ids[n.id as usize]).collect();
            assert_eq!(a.ids(), b_ext, "query {qi}: ids");
            let ad: Vec<u32> = a.neighbors.iter().map(|n| n.dist.to_bits()).collect();
            let bd: Vec<u32> = b.neighbors.iter().map(|n| n.dist.to_bits()).collect();
            assert_eq!(ad, bd, "query {qi}: distance bits");
            assert_eq!(a.counters, b.counters, "query {qi}: work counters");
        }
        assert_eq!(me.mutation_stats().compactions, 1);
        assert_eq!(me.mutation_stats().pending_inserts, 0);
        assert_eq!(me.mutation_stats().tombstones, 0);
    }

    #[test]
    fn repair_compaction_physically_removes_deleted_rows() {
        for index in ["flat", "ivf(nlist=8)", "hnsw(m=6,ef_construction=30)"] {
            let (me, w) = setup(index, "ddcres(init_d=4,delta_d=4)");
            let dead = [4u32, 9, 40];
            for id in dead {
                assert!(me.delete(id));
            }
            me.upsert(7, w.queries.get(0)).unwrap(); // overwrite
            me.upsert(300, w.queries.get(1)).unwrap(); // new id
            let report = me.compact().unwrap();
            assert_eq!(report.mode, "repair", "{index}");
            assert_eq!(report.dropped, 4, "{index}: 3 deletes + the old row 7");
            assert_eq!(report.appended, 2, "{index}");
            assert_eq!(report.len, 198, "{index}");

            // No dead row is retained anywhere: the engine serves exactly
            // the live rows and the overlay is clean.
            let engine = me.handle().engine();
            assert_eq!(engine.len(), 198, "{index}");
            let stats = me.mutation_stats();
            assert_eq!((stats.live, stats.base_len), (198, 198), "{index}");
            assert_eq!((stats.tombstones, stats.pending_inserts), (0, 0));
            // Only the appended rows count as stale; removal adds none.
            assert_eq!(stats.stale_rows, 2, "{index}");

            // The overwrite and the insert answer with their new vectors,
            // and a scan of everything never meets a deleted id.
            //
            // Their self-distance is zero up to summation order, not to
            // the bit. Query and appended row go through the same
            // `Pca::transform`, so the rotated x′ = R(x − μ) is one bit
            // pattern on both sides; but DDCres returns C1 − C2 with
            // C1 = 2·norm_sq(x′) summed in the kernel's lane order and
            // C2 = 2·Σ dot_range over Δd = 4 chunks — the same D
            // products x′ᵢ² added in two orders. Each order is within
            // D·ε/2 (relative) of ‖x′‖², so |C1 − C2| ≤ 2·D·ε·‖x′‖².
            // The SIMD arms happen to add this shape in one order; the
            // scalar arm (CI's DDC_FORCE_SCALAR pass) reads 3.8e-6. And
            // ‖x′‖² = ‖x − μ‖² ≤ 4·max(‖x‖², maxᵢ‖bᵢ‖²), μ being a mean
            // of base rows.
            let norm_sq = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>();
            let widest = (0..w.base.len())
                .map(|i| norm_sq(w.base.get(i)))
                .fold(0.0f32, f32::max);
            for (qi, id) in [(0usize, 7u32), (1, 300)] {
                let q = w.queries.get(qi);
                let r = engine.search(q, 1).unwrap();
                assert_eq!(r.neighbors[0].id, id, "{index}");
                let bound = 2.0 * q.len() as f32 * f32::EPSILON * 4.0 * widest.max(norm_sq(q));
                let dist = r.neighbors[0].dist;
                assert!((0.0..=bound).contains(&dist), "{index}: {dist} > {bound}");
            }
            let params = SearchParams::new().with_ef(400).with_nprobe(8);
            let all = engine.search_with(w.queries.get(2), 198, &params).unwrap();
            let mut ids = all.ids();
            ids.sort_unstable();
            ids.dedup();
            assert!(ids.len() >= 190, "{index}: {} rows reachable", ids.len());
            assert!(ids.iter().all(|id| !dead.contains(id)), "{index}");
        }
    }

    #[test]
    fn fold_when_no_base_row_would_survive() {
        let w = SynthSpec::tiny_test(12, 20, 31).generate();
        let cfg = EngineConfig::from_strs("hnsw(m=6,ef_construction=30)", "exact").unwrap();
        let me = MutableEngine::build(w.base.clone(), None, cfg, MutableConfig::default()).unwrap();
        for id in 0..20 {
            me.delete(id);
        }
        me.upsert(99, w.queries.get(0)).unwrap();
        let report = me.compact().unwrap();
        assert_eq!(
            report.mode, "fold",
            "a graph cannot be repaired down to nothing"
        );
        assert_eq!((report.dropped, report.appended, report.len), (20, 1, 1));
        let r = me.handle().engine().search(w.queries.get(0), 5).unwrap();
        assert_eq!(r.ids(), vec![99]);
    }

    #[test]
    fn deleting_a_pending_insert_keeps_the_delta_in_arrival_order() {
        let (me, w) = setup("flat", "exact");
        for i in 0..5u32 {
            me.upsert(300 + i, w.queries.get(i as usize)).unwrap();
        }
        assert!(me.delete(302));
        assert!(me.delete(300));
        {
            let st = read_state(&me.shared);
            assert_eq!(st.active.delta_ids, vec![301, 303, 304]);
            for (pos, qi) in [(0usize, 1usize), (1, 3), (2, 4)] {
                assert_eq!(st.active.delta.get(pos), w.queries.get(qi));
            }
        }
        assert_eq!(me.compact().unwrap().mode, "append");
        let r = me.handle().engine().search(w.queries.get(3), 1).unwrap();
        assert_eq!(r.neighbors[0].id, 303);
        assert_eq!(me.mutation_stats().live, 203);
    }

    #[test]
    fn append_mode_for_data_independent_operators() {
        let (me, w) = setup("hnsw(m=6,ef_construction=30)", "adsampling(delta_d=4)");
        me.upsert(500, w.queries.get(0)).unwrap();
        me.upsert(501, w.queries.get(1)).unwrap();
        let report = me.compact().unwrap();
        assert_eq!(report.mode, "append");
        assert_eq!(report.appended, 2);
        assert_eq!(report.len, 202);
        assert_eq!(me.mutation_stats().stale_rows, 0, "exact append story");

        // Appended ids resolve through the id map.
        let r = me.handle().engine().search(w.queries.get(0), 1).unwrap();
        assert_eq!(r.neighbors[0].id, 500);
        assert_eq!(r.neighbors[0].dist.to_bits(), 0);
    }

    #[test]
    fn stale_budget_forces_fold_for_data_driven_operators() {
        let w = SynthSpec::tiny_test(12, 200, 31).generate();
        let cfg = EngineConfig::from_strs("flat", "ddcpca(delta_d=4)").unwrap();
        let mcfg = MutableConfig {
            max_stale_rows: 3,
            ..MutableConfig::default()
        };
        let me =
            MutableEngine::build(w.base.clone(), Some(w.train_queries.clone()), cfg, mcfg).unwrap();
        me.upsert(300, w.queries.get(0)).unwrap();
        me.upsert(301, w.queries.get(1)).unwrap();
        assert_eq!(me.compact().unwrap().mode, "append");
        assert_eq!(me.mutation_stats().stale_rows, 2);

        me.upsert(302, w.queries.get(2)).unwrap();
        me.upsert(303, w.queries.get(3)).unwrap();
        // 2 + 2 appended rows would exceed the budget of 3: re-rotation.
        assert_eq!(me.compact().unwrap().mode, "fold");
        assert_eq!(me.mutation_stats().stale_rows, 0);

        // Removal neither adds stale rows nor resets them.
        me.upsert(304, w.queries.get(4)).unwrap();
        assert_eq!(me.compact().unwrap().mode, "append");
        me.delete(0);
        assert_eq!(me.compact().unwrap().mode, "repair");
        assert_eq!(me.mutation_stats().stale_rows, 1);
    }

    #[test]
    fn compact_full_rebuilds_stale_appends_without_pending_work() {
        let w = SynthSpec::tiny_test(12, 200, 31).generate();
        let cfg = EngineConfig::from_strs("flat", "ddcpca(delta_d=4)").unwrap();
        let me = MutableEngine::build(
            w.base.clone(),
            Some(w.train_queries.clone()),
            cfg,
            MutableConfig::default(),
        )
        .unwrap();
        me.upsert(300, w.queries.get(0)).unwrap();
        assert_eq!(me.compact().unwrap().mode, "append");
        assert_eq!(me.mutation_stats().stale_rows, 1);
        // Nothing pending, but a full compaction re-rotates anyway.
        assert_eq!(me.compact_full().unwrap().mode, "fold");
        assert_eq!(me.mutation_stats().stale_rows, 0);
        // And once fully clean it degenerates to a no-op.
        assert_eq!(me.compact_full().unwrap().mode, "none");
    }

    #[test]
    fn deletes_and_upserts_survive_concurrent_compaction() {
        // Mutations racing the compaction land in the next layer and stay
        // visible across the swap.
        let (me, w) = setup("hnsw(m=6,ef_construction=30)", "ddcres(init_d=4,delta_d=4)");
        let q = w.queries.get(0);
        me.delete(10);
        me.upsert(400, q).unwrap();
        let compactor = {
            let me = Arc::clone(&me);
            std::thread::spawn(move || me.compact().unwrap())
        };
        // Race more mutations against the repair.
        me.delete(20);
        me.upsert(401, w.queries.get(1)).unwrap();
        let first = compactor.join().unwrap();
        assert_eq!(first.mode, "repair");

        let engine = me.handle().engine();
        for (qi, wants) in [(0usize, 400u32), (1, 401)] {
            let r = engine.search(w.queries.get(qi), 3).unwrap();
            assert_eq!(r.neighbors[0].id, wants, "query {qi}");
        }
        let all = engine.search(q, 50).unwrap();
        assert!(all.ids().iter().all(|&id| id != 10 && id != 20));

        // The racing mutations either slipped in before the compaction
        // sealed its layer or land on this next pass — the totals and the
        // end state are identical either way.
        let second = me.compact().unwrap();
        assert_eq!(first.dropped + second.dropped, 2);
        assert_eq!(first.appended + second.appended, 2);
        let stats = me.mutation_stats();
        assert_eq!(stats.pending_inserts, 0);
        assert_eq!(stats.tombstones, 0);
        assert_eq!(stats.live, 200, "200 base - 2 deleted + 2 inserted");
    }

    #[test]
    fn batch_paths_see_mutations() {
        let (me, w) = setup("ivf(nlist=8)", "adsampling(delta_d=4)");
        me.upsert(900, w.queries.get(0)).unwrap();
        me.delete(0);
        let engine = me.handle().engine();
        let batch = ddc_core::QueryBatch::new(w.queries.clone());
        let rs = engine.search_batch(&batch, 5).unwrap();
        assert_eq!(rs.len(), w.queries.len());
        assert_eq!(rs[0].neighbors[0].id, 900);
        for r in &rs {
            assert!(r.ids().iter().all(|&id| id != 0));
        }
        // Parallel batch agrees.
        let pool = crate::pool::WorkerPool::new(3);
        let params = engine.config().params;
        let par = engine
            .clone()
            .search_batch_parallel_with(&pool, &batch, 5, &params, None)
            .unwrap();
        for (a, b) in rs.iter().zip(&par) {
            assert_eq!(a.ids(), b.ids());
        }
    }

    #[test]
    fn filtered_search_over_a_dirty_overlay_excludes_pending_inserts_and_tombstones() {
        // `MutableEngine` builds its own untagged engine, so the tagged
        // engine under a live overlay is assembled by hand.
        let w = SynthSpec::tiny_test(12, 200, 31).generate();
        for index in ["flat", "ivf(nlist=8)", "hnsw(m=6,ef_construction=30)"] {
            let cfg = EngineConfig::from_strs(index, "adsampling(delta_d=4)").unwrap();
            let mut engine = Engine::build(&w.base, None, cfg).unwrap();
            engine
                .set_payloads((0..200).map(|i| i % 2).collect())
                .unwrap();
            let shared = Arc::new(RwLock::new(MutState::fresh(
                (0..200).collect(),
                engine.pending_row_operator().unwrap(),
            )));
            engine.set_overlay(Overlay {
                ids: None,
                shared: Arc::clone(&shared),
                generation: 0,
                merge_hist: Arc::new(AtomicHistogram::log2()),
            });
            let (q, params) = (w.queries.get(0), engine.config().params);
            let odd = crate::FilterPredicate::Eq(1);
            let filtered = || engine.search_filtered_with(q, 5, &params, &odd).unwrap();

            let clean = filtered();
            let victim = clean.neighbors[0].id;
            {
                // Tombstone the best match and park the query itself as a
                // pending insert: distance 0, but it carries no tag.
                let mut st = write_state(&shared);
                st.active.tombstones.insert(victim);
                st.active.push_rows(&[5000], &FlatRows::new(q, 12));
            }
            let unfiltered = engine.search_with(q, 5, &params).unwrap();
            assert_eq!(
                unfiltered.neighbors[0].id, 5000,
                "{index}: the delta is live"
            );

            let dirty = filtered();
            assert_eq!(dirty.neighbors.len(), 5, "{index}: dead rows cost no slot");
            for n in &dirty.neighbors {
                assert!(
                    n.id != victim && n.id != 5000,
                    "{index}: id {} leaked",
                    n.id
                );
                assert_eq!(n.id % 2, 1, "{index}: id {} fails the predicate", n.id);
            }
            assert_eq!(dirty.neighbors[0].id, clean.neighbors[1].id, "{index}");
        }
    }

    #[test]
    fn background_compactor_folds_on_threshold() {
        let w = SynthSpec::tiny_test(12, 200, 31).generate();
        let cfg = EngineConfig::from_strs("flat", "exact").unwrap();
        let mcfg = MutableConfig {
            compact_threshold: 4,
            compact_interval: Duration::from_secs(30),
            ..MutableConfig::default()
        };
        let me = MutableEngine::build(w.base.clone(), None, cfg, mcfg).unwrap();
        let compactor = me.spawn_compactor();
        for i in 0..4u32 {
            me.upsert(1000 + i, w.queries.get(i as usize)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while me.mutation_stats().compactions == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        compactor.stop();
        assert!(me.mutation_stats().compactions >= 1);
        assert_eq!(me.mutation_stats().pending_inserts, 0);
        let r = me.handle().engine().search(w.queries.get(0), 1).unwrap();
        assert_eq!(r.neighbors[0].id, 1000);
    }

    #[test]
    fn dimension_guard_on_upsert() {
        let (me, _w) = setup("flat", "exact");
        assert!(me.upsert(1, &[0.0; 5]).is_err());
    }

    #[test]
    fn overlay_delta_merge_is_metric_aware() {
        // Under IP a scaled-up copy of the query is the best hit (largest
        // dot product) even though it is far away in L2 — an L2 delta
        // scan would bury it, so this pins the merge's metric.
        let w = SynthSpec::tiny_test(12, 200, 31).generate();
        let cfg = EngineConfig::from_strs("flat", "exact")
            .unwrap()
            .with_metric(Metric::InnerProduct);
        let me = MutableEngine::build(w.base.clone(), None, cfg, MutableConfig::default()).unwrap();
        let q = w.queries.get(0);
        let big: Vec<f32> = q.iter().map(|v| v * 10.0).collect();
        me.upsert(999, &big).unwrap();
        let r = me.handle().engine().search(q, 1).unwrap();
        assert_eq!(r.neighbors[0].id, 999, "IP must rank the scaled copy first");
        let expected = -ddc_linalg::kernels::dot(&big, q);
        assert_eq!(r.neighbors[0].dist, expected, "merged dist is the raw -dot");

        // And the fold keeps it first (index + DCO share the geometry).
        assert_eq!(me.compact().unwrap().mode, "append");
        let r = me.handle().engine().search(q, 1).unwrap();
        assert_eq!(r.neighbors[0].id, 999);
    }

    fn dist_bits(r: &[Neighbor]) -> Vec<(u32, u32)> {
        r.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    /// Seals the active layer the way a compaction does, leaving the fold
    /// in flight.
    fn seal_now(me: &MutableEngine) {
        let scorer = me.handle().engine().pending_row_operator().unwrap();
        seal(&mut write_state(&me.shared), scorer);
    }

    #[test]
    fn pending_merge_matches_a_full_scan_and_sort() {
        const K: usize = 10;
        let w = SynthSpec::tiny_test(12, 200, 31).generate();
        for metric in [Metric::L2, Metric::InnerProduct] {
            for index in ["flat", "ivf(nlist=8)", "hnsw(m=6,ef_construction=30)"] {
                let cfg = EngineConfig::from_strs(index, "exact")
                    .unwrap()
                    .with_metric(metric.clone());
                let me = MutableEngine::build(w.base.clone(), None, cfg, MutableConfig::default())
                    .unwrap();
                for id in [3u32, 17, 40] {
                    me.delete(id);
                }
                // Pending writes never tombstone a base row below, so
                // this is the index's share of every later search.
                let engine = me.handle().engine();
                let index_part: Vec<SearchResult> = (0..8)
                    .map(|qi| engine.search(w.queries.get(qi), K).unwrap())
                    .collect();

                let mut pending = std::collections::BTreeMap::new();
                let mut put = |id: u32, v: &[f32]| {
                    me.upsert(id, v).unwrap();
                    pending.insert(id, v.to_vec());
                };
                // Copies of base rows tie with the index part; ids break it.
                for i in 0..30 {
                    put(1000 + i, w.base.get(i as usize * 5));
                }
                put(1003, w.queries.get(0)); // in-place overwrite
                seal_now(&me);
                put(1005, w.queries.get(1)); // shadows a sealed row
                for i in 0..10 {
                    put(2000 + i, w.base.get(i as usize * 7 + 1));
                }
                for id in [1004u32, 1006, 2003] {
                    me.delete(id); // sealed and active pending deletes
                    pending.remove(&id);
                }

                let check = |stage: &str| {
                    for (qi, part) in index_part.iter().enumerate() {
                        let q = w.queries.get(qi);
                        let got = engine.search(q, K).unwrap();
                        let mut want = part.neighbors.clone();
                        want.extend(pending.iter().map(|(&id, v)| Neighbor {
                            dist: metric.distance(v, q),
                            id,
                        }));
                        want.sort_unstable();
                        want.truncate(K);
                        let what = format!("{index} {metric} {stage} query {qi}");
                        assert_eq!(dist_bits(&got.neighbors), dist_bits(&want), "{what}");
                        let scored = got.counters.candidates - part.counters.candidates;
                        assert_eq!(scored, pending.len() as u64, "{what}");
                    }
                };
                check("sealed");
                unseal(&mut write_state(&me.shared));
                check("unsealed");
            }
        }
    }

    #[test]
    fn far_pending_rows_are_pruned_by_the_operator() {
        for dco in ["adsampling(delta_d=4)", "ddcres(init_d=4,delta_d=4)"] {
            let (me, w) = setup("flat", dco);
            let q = w.queries.get(0);
            me.delete(199); // both searches below take the dirty path
            let before = me.handle().engine().search(q, 5).unwrap();
            me.upsert(500, q).unwrap();
            for i in 0..20u32 {
                let far: Vec<f32> = q.iter().map(|v| v + 100.0 * (i + 1) as f32).collect();
                me.upsert(600 + i, &far).unwrap();
            }
            let after = me.handle().engine().search(q, 5).unwrap();
            assert_eq!(after.neighbors[0].id, 500, "{dco}: the near row merges");
            let c = Counters::delta(&before.counters, &after.counters);
            assert_eq!(c.candidates, 21, "{dco}");
            assert!(c.pruned >= 20, "{dco}: {c:?}");
            assert!(c.dims_scanned < 21 * 12, "{dco}: {c:?}");
        }
    }

    /// Every active pending id that the sealed layer or the base also
    /// holds carries an active tombstone.
    fn assert_shadowing_invariant(st: &MutState) {
        for &id in &st.active.delta_ids {
            if st.base_ids.contains(&id) || st.sealed_holds(id) {
                assert!(st.active.tombstones.contains(&id), "id {id} untombstoned");
            }
        }
    }

    /// `steps` seeded writes — new-id and overwriting upserts, deletes of
    /// base and pending ids — checking the shadowing invariant after each.
    fn churn(me: &MutableEngine, w: &ddc_vecs::Workload, rng: &mut u64, steps: usize) {
        for _ in 0..steps {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            let r = *rng;
            let id = if r & 1 == 0 {
                (r >> 8) as u32 % 200
            } else {
                1000 + (r >> 8) as u32 % 40
            };
            if r.is_multiple_of(3) {
                me.delete(id);
            } else {
                let v = w.queries.get((r >> 24) as usize % w.queries.len());
                me.upsert(id, v).unwrap();
            }
            assert_shadowing_invariant(&read_state(&me.shared));
        }
    }

    #[test]
    fn active_writes_of_shadowed_ids_are_tombstoned_across_seals() {
        let (me, w) = setup("flat", "exact");
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..4 {
            churn(&me, &w, &mut rng, 60);
            seal_now(&me);
            churn(&me, &w, &mut rng, 60);
            if round % 2 == 0 {
                unseal(&mut write_state(&me.shared));
            } else {
                me.compact().unwrap(); // recovers the sealed layer, then lands
            }
            churn(&me, &w, &mut rng, 30);
        }
    }

    /// Each pending layer's operator answers `exact` bit for bit like an
    /// operator freshly grown by the same delta from the serving engine.
    fn assert_aligned(me: &MutableEngine, q: &[f32], what: &str) {
        let engine = me.handle().engine();
        let st = read_state(&me.shared);
        for layer in std::iter::once(&st.active).chain(st.sealed_pending()) {
            let mut fresh = engine.pending_row_operator().unwrap();
            fresh.append_rows(&layer.delta).unwrap();
            assert_eq!(layer.scorer.len(), layer.delta_ids.len(), "{what}");
            let (mut a, mut b) = (layer.scorer.begin_dyn(q), fresh.begin_dyn(q));
            for row in 0..layer.delta_ids.len() as u32 {
                assert_eq!(a.exact(row).to_bits(), b.exact(row).to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn pending_row_operators_stay_aligned_through_every_write() {
        for dco in [
            "exact",
            "adsampling(delta_d=4)",
            "ddcres(init_d=4,delta_d=4)",
            "ddcpca(init_d=4,delta_d=4)",
            "ddcopq(m=4,nbits=4,opq_iters=2)",
        ] {
            let (me, w) = setup("hnsw(m=6,ef_construction=30)", dco);
            let q = w.base.get(11);
            let mut rng = 0xD1B5_4A32_D192_ED03u64;
            for (step, write) in ["compact", "seal", "unseal", "seal", "fold"]
                .iter()
                .enumerate()
            {
                churn(&me, &w, &mut rng, 50);
                assert_aligned(&me, q, &format!("{dco} before {write}"));
                match *write {
                    "seal" => seal_now(&me),
                    "unseal" => unseal(&mut write_state(&me.shared)),
                    "compact" => assert_ne!(me.compact().unwrap().mode, "fold"),
                    _ => assert_eq!(me.compact_full().unwrap().mode, "fold"),
                }
                assert_aligned(&me, q, &format!("{dco} after {write} (step {step})"));
            }
        }
    }
}

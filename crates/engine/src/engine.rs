//! The engine proper: construction, single and batched search, stats, and
//! snapshot persistence.

use crate::error::EngineError;
use crate::filter::FilterPredicate;
use crate::mutable::Overlay;
use crate::stats::EngineStats;
use ddc_core::{BoxedDco, Counters, DcoSpec, DynDco, DynQueryDco, QueryBatch};
use ddc_index::{BoxedIndex, IndexSpec, SearchIndex, SearchParams, SearchResult};
use ddc_linalg::kernels::backend_name;
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::{Advice, SharedRows, Snapshot, SnapshotWriter, VecSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Everything needed to assemble an [`Engine`]: which index, which
/// operator, and the default search knobs.
///
/// Both spec fields parse from strings (see [`DcoSpec`] / [`IndexSpec`]),
/// so a full engine configuration can come from a CLI flag or a config
/// line: `EngineConfig::from_strs("hnsw(m=16)", "ddcres")`.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The index to build (`flat`, `ivf(...)`, `hnsw(...)`).
    pub index: IndexSpec,
    /// The distance comparison operator (`exact`, `adsampling(...)`,
    /// `ddcres(...)`, `ddcpca(...)`, `ddcopq(...)`).
    pub dco: DcoSpec,
    /// Default per-query knobs, used by [`Engine::search`] /
    /// [`Engine::search_batch`]; override per call with the `_with`
    /// variants.
    pub params: SearchParams,
}

impl Default for EngineConfig {
    /// HNSW with default graph parameters, searched through DDCres — the
    /// paper's headline combination.
    fn default() -> Self {
        EngineConfig {
            index: IndexSpec::Hnsw(Default::default()),
            dco: DcoSpec::DdcRes(Default::default()),
            params: SearchParams::default(),
        }
    }
}

impl EngineConfig {
    /// Assembles a config from parts.
    pub fn new(index: IndexSpec, dco: DcoSpec) -> EngineConfig {
        EngineConfig {
            index,
            dco,
            params: SearchParams::default(),
        }
    }

    /// Parses both specs from their string forms.
    ///
    /// # Errors
    /// [`EngineError::Config`] naming the offending spec.
    pub fn from_strs(index: &str, dco: &str) -> Result<EngineConfig, EngineError> {
        let index: IndexSpec = index
            .parse()
            .map_err(|e| EngineError::Config(format!("index spec: {e}")))?;
        let dco: DcoSpec = dco
            .parse()
            .map_err(|e| EngineError::Config(format!("dco spec: {e}")))?;
        Ok(EngineConfig::new(index, dco))
    }

    /// Replaces the default search parameters.
    #[must_use]
    pub fn with_params(mut self, params: SearchParams) -> EngineConfig {
        self.params = params;
        self
    }

    /// Points **both** specs at `metric` — the one-call way to run the
    /// whole engine in another geometry. Equivalent to writing a
    /// `metric=` key into both spec strings; the build-time agreement
    /// check ([`Engine::build`]) can then never fire.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> EngineConfig {
        self.index.set_metric(metric.clone());
        self.dco.set_metric(metric);
        self
    }

    /// The metric the operator answers in (index agreement is validated
    /// at build/open time, so a served engine has exactly one metric).
    pub fn metric(&self) -> &Metric {
        self.dco.metric()
    }
}

/// Index and operator must share one geometry: the index routes traversal
/// by its own distance calls while the operator scores candidates, and a
/// disagreement silently degrades recall instead of failing loudly.
fn check_metric_agreement(index: &IndexSpec, dco: &DcoSpec) -> Result<(), EngineError> {
    let (im, dm) = (index.metric(), dco.metric());
    if im != dm {
        return Err(EngineError::Config(format!(
            "index metric `{im}` disagrees with operator metric `{dm}`; \
             set the same `metric=` in both specs or use EngineConfig::with_metric"
        )));
    }
    Ok(())
}

/// A runtime-configured AKNN search engine: one index, one distance
/// comparison operator, one uniform search surface.
///
/// `Engine` is `Send + Sync` and all search methods take `&self`, so one
/// instance serves concurrent callers. Each [`SearchResult`] carries its
/// own work counters; totals are the caller's to keep.
///
/// ```
/// use ddc_engine::{Engine, EngineConfig};
/// use ddc_vecs::SynthSpec;
///
/// let w = SynthSpec::tiny_test(16, 300, 42).generate();
/// let cfg = EngineConfig::from_strs("hnsw(m=8,ef_construction=40)", "ddcres(init_d=4,delta_d=4)")
///     .unwrap();
/// let engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
///
/// let hits = engine.search(w.queries.get(0), 5).unwrap();
/// assert_eq!(hits.neighbors.len(), 5);
/// assert!(hits.counters.candidates > 0);
/// assert_eq!(engine.stats().len, 300);
/// ```
pub struct Engine {
    cfg: EngineConfig,
    index: BoxedIndex,
    dco: BoxedDco,
    snapshot: Option<SnapshotInfo>,
    /// Live-mutability hook ([`crate::MutableEngine`]): a shared view of
    /// pending inserts and tombstones layered over the immutable base.
    /// `None` (every plain constructor) leaves the search path untouched.
    overlay: Option<Overlay>,
    /// One opaque `u64` tag per row ([`Engine::set_payloads`]), the data
    /// side of [`Engine::search_filtered_with`]. `None` until attached.
    payloads: Option<Arc<Vec<u64>>>,
}

/// Provenance of an engine opened from a snapshot container
/// ([`Engine::open_snapshot`]): where the container lives and how its
/// working set is served. Freshly built engines have none
/// ([`Engine::snapshot_info`] returns `None`).
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    /// The container file the engine was opened from.
    pub path: PathBuf,
    /// Bytes served zero-copy out of the mapped container (0 on the heap
    /// fallback backend).
    pub mapped_bytes: usize,
    /// `"mmap"` when the container is memory-mapped, `"heap"` on the
    /// read-into-RAM fallback.
    pub backend: &'static str,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("index", &self.index.kind())
            .field("dco", &self.dco.name())
            .field("len", &self.dco.len())
            .field("dim", &self.dco.dim())
            .finish()
    }
}

impl Engine {
    /// Builds the configured index and operator over `base` — a resident
    /// [`VecSet`] or a [`ddc_vecs::SharedRows`]. With a mapped `.fvecs`
    /// file the base matrix is never heap-resident: rows page in lazily
    /// while the index and operator build, and only their own structures
    /// (graph, rotated copy, codes) stay in RAM. Every row source goes
    /// through the same loop, so results are **bit-identical** across
    /// backends (the parity suite pins the full index × operator grid).
    ///
    /// `train_queries` feeds the data-driven operators (DDCpca / DDCopq);
    /// pass `None` for the others.
    ///
    /// # Errors
    /// Index/operator build failures; a data-driven spec without training
    /// queries.
    pub fn build<R: RowAccess + ?Sized>(
        base: &R,
        train_queries: Option<&VecSet>,
        cfg: EngineConfig,
    ) -> Result<Engine, EngineError> {
        check_metric_agreement(&cfg.index, &cfg.dco)?;
        let dco = cfg.dco.build_rows(base, train_queries)?;
        let index = cfg.index.build_rows(base)?;
        Ok(Engine {
            cfg,
            index,
            dco,
            snapshot: None,
            overlay: None,
            payloads: None,
        })
    }

    /// The configuration the engine was assembled from.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The operator behind the engine (dynamic handle).
    pub fn dco(&self) -> &dyn DynDco {
        &*self.dco
    }

    /// Number of points served.
    pub fn len(&self) -> usize {
        self.dco.len()
    }

    /// True when the engine serves no points.
    pub fn is_empty(&self) -> bool {
        self.dco.is_empty()
    }

    /// Original-space query dimensionality.
    pub fn dim(&self) -> usize {
        self.dco.dim()
    }

    /// The metric every reported distance is expressed in
    /// (smaller-is-better; see [`Metric`] for each geometry's form).
    pub fn metric(&self) -> Metric {
        self.dco.metric()
    }

    /// Attaches one opaque `u64` payload tag per row, enabling
    /// [`Engine::search_filtered_with`]. Length must equal [`Engine::len`].
    ///
    /// Payloads ride along snapshots ([`Engine::save_snapshot`] adds a
    /// `payl` section and raises the container's generalized-features
    /// flag). Rows appended later (live mutability) get payload `0` until
    /// re-tagged.
    ///
    /// # Errors
    /// A length that disagrees with the row count.
    pub fn set_payloads(&mut self, payloads: Vec<u64>) -> Result<(), EngineError> {
        if payloads.len() != self.len() {
            return Err(EngineError::Config(format!(
                "{} payloads for {} rows",
                payloads.len(),
                self.len()
            )));
        }
        self.payloads = Some(Arc::new(payloads));
        Ok(())
    }

    /// The per-row payload tags, when attached.
    pub fn payloads(&self) -> Option<&[u64]> {
        self.payloads.as_ref().map(|p| p.as_slice())
    }

    /// Searches for the `k` nearest neighbors of `q` with the engine's
    /// default parameters.
    ///
    /// `k == 0` and an empty index are well-defined at this layer: both
    /// return an empty [`SearchResult`] (no neighbors, zero counters)
    /// after the dimension check, for every index kind.
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn search(&self, q: &[f32], k: usize) -> Result<SearchResult, EngineError> {
        self.search_with(q, k, &self.cfg.params)
    }

    /// [`Engine::search`] with explicit per-call parameters.
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn search_with(
        &self,
        q: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<SearchResult, EngineError> {
        self.search_solo(q, k, params, None)
    }

    /// Searches for the `k` nearest neighbors of `q` **among rows whose
    /// payload tag satisfies `filter`**.
    ///
    /// The predicate is evaluated *during* traversal through the same
    /// liveness hook the tombstone machinery uses: non-matching rows
    /// still route graph traversal (excluding them would strand regions
    /// of the graph behind a filtered frontier) but never consume one of
    /// the `k` result slots. At 1% selectivity this returns `k` matching
    /// neighbors where a post-hoc filter over an unfiltered top-`k`
    /// keeps on average `k/100` (the `filtered_recall` suite pins the
    /// advantage).
    ///
    /// Under live mutability the predicate composes with tombstone
    /// liveness; pending inserts carry no payload tags and are excluded
    /// until compaction folds them into a tagged base.
    ///
    /// # Errors
    /// Dimension mismatches; an engine without payloads
    /// ([`Engine::set_payloads`]).
    pub fn search_filtered_with(
        &self,
        q: &[f32],
        k: usize,
        params: &SearchParams,
        filter: &FilterPredicate,
    ) -> Result<SearchResult, EngineError> {
        self.search_solo(q, k, params, Some(filter))
    }

    /// Searches a whole batch of queries with the engine's default
    /// parameters, returning one result per query in batch order.
    ///
    /// The batch path prepares all per-query evaluators up front via
    /// [`ddc_core::Dco::begin_batch`], which pushes every query through
    /// the operator's rotation in one cache-blocked pass — the dominant
    /// `O(D²)` per-query setup cost is paid once per block of queries
    /// instead of once per query. Results are bit-identical to calling
    /// [`Engine::search`] per query (the parity suite pins this).
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn search_batch(
        &self,
        batch: &QueryBatch,
        k: usize,
    ) -> Result<Vec<SearchResult>, EngineError> {
        self.search_batch_with(batch, k, &self.cfg.params)
    }

    /// [`Engine::search_batch`] with explicit per-call parameters.
    ///
    /// # Errors
    /// Dimension mismatches.
    pub fn search_batch_with(
        &self,
        batch: &QueryBatch,
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<SearchResult>, EngineError> {
        self.search_group(batch, k, params, None)
    }

    /// The group entry point — what the batch adapters above delegate
    /// to and what the server answers every search request with:
    /// `batch` searched for its `k` nearest neighbors under `params`,
    /// restricted to rows matching `filter` when one is given (as in
    /// [`Engine::search_filtered_with`]), one result per query in batch
    /// order.
    ///
    /// Every evaluator is prepared up front through
    /// [`ddc_core::Dco::begin_batch`], so the queries' `O(D²)` rotations
    /// share one cache-blocked pass. Results are bit-identical to solo
    /// searches of the same queries (the parity suite pins this). The
    /// dimension is checked even for an empty batch: the rotation-based
    /// operators' `begin_batch` asserts it unconditionally, and a
    /// mismatched-but-empty batch fails the same way for every operator.
    ///
    /// # Errors
    /// Dimension mismatches; a `filter` on an engine without payloads.
    pub fn search_group(
        &self,
        batch: &QueryBatch,
        k: usize,
        params: &SearchParams,
        filter: Option<&FilterPredicate>,
    ) -> Result<Vec<SearchResult>, EngineError> {
        self.check_dim(batch.dim())?;
        let filter = self.tagged(filter)?;
        let evals = self.dco.begin_batch_dyn(batch);
        Ok(evals
            .into_iter()
            .enumerate()
            .map(|(qi, mut eval)| self.search_one(&mut *eval, batch.get(qi), k, params, filter))
            .collect())
    }

    /// A group of one without the batch machinery: the evaluator comes
    /// from `begin_dyn`.
    fn search_solo(
        &self,
        q: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&FilterPredicate>,
    ) -> Result<SearchResult, EngineError> {
        self.check_dim(q.len())?;
        let filter = self.tagged(filter)?;
        let mut eval = self.dco.begin_dyn(q);
        Ok(self.search_one(&mut *eval, q, k, params, filter))
    }

    /// Pairs a predicate with the payload tags it reads.
    fn tagged<'a>(
        &'a self,
        filter: Option<&'a FilterPredicate>,
    ) -> Result<Option<(&'a FilterPredicate, &'a [u64])>, EngineError> {
        let Some(filter) = filter else {
            return Ok(None);
        };
        let tags = self.payloads.as_ref().ok_or_else(|| {
            EngineError::Config(
                "filtered search requires per-row payloads; attach them with set_payloads".into(),
            )
        })?;
        Ok(Some((filter, tags.as_slice())))
    }

    /// The per-query core every search runs through, exactly once.
    /// `k == 0` or no rows answer empty, whatever the index would do
    /// with the degenerate shape (the flat scan's top-k floor, HNSW's
    /// entry point). With no predicate and no pending mutation visible
    /// to this engine's generation the index runs without a liveness
    /// hook, so a clean overlay stays bit-identical to an overlay-free
    /// engine over the same rows; otherwise rows that fail the predicate
    /// or are tombstoned still route graph traversal but never consume a
    /// `k` slot. Pending inserts (tested by their layer's pending-row
    /// operator against the running `k`-th distance) are merged into
    /// unfiltered results only: they carry no payload tags, so a filtered
    /// search cannot admit them.
    fn search_one(
        &self,
        eval: &mut dyn DynQueryDco,
        q: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<(&FilterPredicate, &[u64])>,
    ) -> SearchResult {
        // Per-query traversal timing is informational: `elapsed_nanos`
        // never participates in result identity.
        let started = Instant::now();
        let mut r = SearchResult {
            neighbors: Vec::new(),
            counters: Counters::new(),
            elapsed_nanos: 0,
        };
        if k > 0 {
            let overlay = self.overlay.as_ref();
            // The read guard is held across the search only when there
            // is something pending to filter or merge.
            let dirty = overlay.and_then(|ov| {
                let st = ov.state();
                (!st.clean_for(ov.generation())).then_some((ov, st))
            });
            if !self.dco.is_empty() {
                r = if filter.is_none() && dirty.is_none() {
                    self.index.search_prepared(&*self.dco, eval, q, k, params)
                } else {
                    let live = |row: u32| {
                        filter.is_none_or(|(f, tags)| f.matches(tags[row as usize]))
                            && dirty.as_ref().is_none_or(|(ov, st)| {
                                let ext = ov.ids().map_or(row, |m| m[row as usize]);
                                !st.is_dead(ov.generation(), ext)
                            })
                    };
                    self.index
                        .search_prepared_filtered(&*self.dco, eval, q, k, params, &live)
                };
            }
            if let Some(ov) = overlay {
                ov.translate(&mut r.neighbors);
            }
            if let (Some((ov, st)), None) = (&dirty, filter) {
                let merge = Instant::now();
                st.merge_pending(ov.generation(), q, k, &mut r);
                ov.record_merge(merge.elapsed().as_nanos() as u64);
            }
        }
        r.elapsed_nanos = started.elapsed().as_nanos() as u64;
        r
    }

    /// Installs the mutation overlay. Engine-internal: only
    /// [`crate::MutableEngine`] constructs overlays, paired with the
    /// external-id map of the rows the engine was built over.
    pub(crate) fn set_overlay(&mut self, overlay: Overlay) {
        self.overlay = Some(overlay);
    }

    /// Deep-copies the engine through its own persistence surface: the
    /// operator restores from its serialized state over a heap copy of the
    /// pre-rotated matrix, and the index reloads from its byte form. This
    /// is the incremental-compaction primitive — the copy is mutable
    /// ([`Engine::apply_remove`], [`Engine::apply_append`]) without
    /// disturbing the serving instance.
    ///
    /// # Errors
    /// Serialization round-trip failures.
    pub(crate) fn duplicate(&self) -> Result<Engine, EngineError> {
        let index = self.cfg.index.load_bytes(&self.index.save_bytes())?;
        Ok(Engine {
            cfg: self.cfg.clone(),
            index,
            dco: self.copy_operator()?,
            snapshot: None,
            overlay: None,
            payloads: self.payloads.clone(),
        })
    }

    /// An empty copy of the engine's operator, carrying its trained state
    /// (rotation, PCA basis, codebooks, classifier): the pending-row
    /// operator a [`crate::MutableEngine`] layer grows by its pending
    /// inserts, so they are scored exactly like index candidates.
    ///
    /// # Errors
    /// Serialization round-trip failures.
    pub(crate) fn pending_row_operator(&self) -> Result<BoxedDco, EngineError> {
        let mut dco = self.copy_operator()?;
        dco.remove_rows(&vec![true; dco.len()])?;
        Ok(dco)
    }

    /// A heap-resident copy of the operator, through its own persistence
    /// surface: restored from its serialized state over a copy of the
    /// pre-rotated matrix.
    fn copy_operator(&self) -> Result<BoxedDco, EngineError> {
        let rows = SharedRows::Owned(self.dco.rows().to_vecset());
        Ok(self.cfg.dco.restore(&self.dco.state_bytes(), rows)?)
    }

    /// Shrinks the engine in place: physically removes the rows flagged in
    /// `dead_mask` from the index (graph repair / posting-list filtering),
    /// the operator and the payload tags, renumbering the survivors
    /// densely in their old order. `rows_before` is the original-space
    /// matrix the engine serves *before* the removal, which the graph
    /// repair reads for neighbor re-selection. Nothing dead is left
    /// behind; survivors keep their exact distances.
    ///
    /// # Errors
    /// Operators that cannot shrink (snapshot-mapped rows), a mask that
    /// does not cover exactly the served rows, and a removal that would
    /// leave the index empty.
    pub(crate) fn apply_remove(
        &mut self,
        rows_before: &VecSet,
        dead_mask: &[bool],
    ) -> Result<(), EngineError> {
        self.index.remove(rows_before, dead_mask)?;
        self.dco.remove_rows(dead_mask)?;
        if let Some(tags) = &mut self.payloads {
            ddc_vecs::retain_live_rows(Arc::make_mut(tags), 1, dead_mask);
        }
        Ok(())
    }

    /// Grows the engine in place: transforms and appends the trailing
    /// `new_rows` through the operator's append story, then wires them
    /// into the index (graph insertion / posting-list appends).
    /// `all_rows` is the full original-space matrix — base plus the new
    /// tail — which graph insertion reads for neighbor selection;
    /// `new_rows` is only the tail.
    ///
    /// # Errors
    /// Operators or indexes that cannot grow (snapshot-mapped rows), and
    /// dimension mismatches.
    pub(crate) fn apply_append(
        &mut self,
        all_rows: &VecSet,
        new_rows: &VecSet,
    ) -> Result<(), EngineError> {
        let start = all_rows.len() - new_rows.len();
        if start != self.dco.len() {
            return Err(EngineError::Config(format!(
                "append expects the engine's {} rows as prefix, got {start}",
                self.dco.len()
            )));
        }
        self.dco.append_rows(new_rows)?;
        self.index.append(all_rows, start)?;
        if let Some(p) = &mut self.payloads {
            // Appended rows have no tags yet: pad with 0 so the
            // payloads-len == rows-len invariant survives growth.
            let mut grown = (**p).clone();
            grown.resize(all_rows.len(), 0);
            *p = Arc::new(grown);
        }
        Ok(())
    }

    fn check_dim(&self, actual: usize) -> Result<(), EngineError> {
        if actual != self.dco.dim() {
            return Err(EngineError::Index(ddc_index::IndexError::Dimension {
                expected: self.dco.dim(),
                actual,
            }));
        }
        Ok(())
    }

    /// What the engine is: composition, memory and SIMD backend.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            index_kind: self.index.kind(),
            dco_name: self.dco.name(),
            kernel_backend: backend_name(),
            metric: self.dco.metric().spec_value(),
            payloads: self.payloads.is_some(),
            len: self.dco.len(),
            dim: self.dco.dim(),
            index_bytes: self.index.memory_bytes(),
            dco_extra_bytes: self.dco.extra_bytes(),
            vector_bytes: self.dco.len() * self.dco.dim() * std::mem::size_of::<f32>(),
        }
    }

    /// Writes the engine to a single snapshot container at `path`
    /// ([`ddc_vecs::snapshot`] format): the operator's pre-rotated matrix,
    /// its serialized state (norms, codebooks, rotations, classifiers),
    /// the index structure, and a `meta` section carrying both spec
    /// strings and the default parameters.
    ///
    /// The container is self-sufficient:
    /// [`Engine::open_snapshot`] needs no base vectors and no training
    /// queries — nothing is rebuilt, so the reopened engine is
    /// **bit-identical** to this one (the parity suite pins this across
    /// the full index × operator grid). The write is atomic
    /// (temp + rename) and every section is CRC-checksummed.
    ///
    /// # Errors
    /// I/O failures.
    pub fn save_snapshot(&self, path: &Path) -> Result<(), EngineError> {
        let mut w = SnapshotWriter::new();
        let meta = format!(
            "{MANIFEST_MAGIC}\nindex={}\ndco={}\nef={}\nnprobe={}\nlen={}\ndim={}\n",
            self.cfg.index,
            self.cfg.dco,
            self.cfg.params.ef,
            self.cfg.params.nprobe,
            self.len(),
            self.dim(),
        );
        w.add_section("meta", meta.into_bytes())?;
        let rows = self.dco.rows();
        let mut bytes = Vec::with_capacity(rows.len() * rows.dim() * 4);
        for i in 0..rows.len() {
            for v in rows.get(i) {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        w.add_section("rows", bytes)?;
        w.add_section("dcostate", self.dco.state_bytes())?;
        w.add_section("index", self.index.save_bytes())?;
        if let Some(p) = &self.payloads {
            let mut bytes = Vec::with_capacity(p.len() * 8);
            for &tag in p.iter() {
                bytes.extend_from_slice(&tag.to_le_bytes());
            }
            w.add_section("payl", bytes)?;
        }
        // The generalized-features bit keeps pre-metric readers from
        // serving a non-L2 or tagged container as plain L2; flagless L2
        // containers stay byte-compatible with older builds.
        if self.dco.metric() != Metric::L2 || self.payloads.is_some() {
            w.set_incompat_flags(ddc_vecs::snapshot::FLAG_GENERALIZED);
        }
        w.finish(path)?;
        Ok(())
    }

    /// Opens an engine from a snapshot container written by
    /// [`Engine::save_snapshot`] — the restart path.
    ///
    /// The container is memory-mapped and validated lazily (header and
    /// section table up front, per-section checksums on first read), so
    /// opening is `O(ms)` regardless of dataset size; the operator's
    /// matrix is served zero-copy out of the map and pages in on demand.
    /// An [`Advice::Sequential`] hint covers the scan-shaped `rows`
    /// section and an [`Advice::Random`] hint the graph-shaped `index`
    /// section.
    ///
    /// # Errors
    /// [`EngineError::Vecs`] for container corruption (bad magic,
    /// checksum mismatches, truncation, unknown sections — each error
    /// names the file and byte offset); [`EngineError::Config`], naming
    /// the file, for a well-formed container whose sections fail
    /// validation or disagree with each other.
    pub fn open_snapshot(path: impl AsRef<Path>) -> Result<Engine, EngineError> {
        let path = path.as_ref();
        let snap = Snapshot::open(path)?;
        let meta = std::str::from_utf8(snap.section("meta")?).map_err(|_| {
            EngineError::Config(format!(
                "{}: snapshot `meta` section is not UTF-8",
                path.display()
            ))
        })?;
        let manifest = Manifest::parse(meta, &format!("{} (meta section)", path.display()))?;
        let rows = snap.section_rows("rows", manifest.dim)?;
        check_metric_agreement(&manifest.index, &manifest.dco)?;
        let invalid = |tag: &str, e: &dyn std::fmt::Display| {
            EngineError::Config(format!("{}: `{tag}` section: {e}", path.display()))
        };
        let dco = manifest
            .dco
            .restore(snap.section("dcostate")?, rows)
            .map_err(|e| invalid("dcostate", &e))?;
        let index = manifest
            .index
            .load_bytes(snap.section("index")?)
            .map_err(|e| invalid("index", &e))?;
        let payl = if snap.sections().iter().any(|(tag, _)| *tag == "payl") {
            Some(snap.section("payl")?)
        } else {
            None
        };
        check_sections(&manifest, &*dco, &*index, payl)
            .map_err(|e| EngineError::Config(format!("{}: {e}", path.display())))?;
        let payloads = payl.map(|bytes| {
            let tags: Vec<u64> = bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunks")))
                .collect();
            Arc::new(tags)
        });
        // Access-pattern hints: searches stride the matrix front-to-back
        // (scan shape) but hop the graph links unpredictably.
        snap.advise("rows", Advice::Sequential);
        snap.advise("index", Advice::Random);
        let info = SnapshotInfo {
            path: path.to_path_buf(),
            mapped_bytes: snap.mapped_bytes(),
            backend: snap.backend(),
        };
        Ok(Engine {
            cfg: EngineConfig {
                index: manifest.index,
                dco: manifest.dco,
                params: manifest.params,
            },
            index,
            dco,
            snapshot: Some(info),
            overlay: None,
            payloads,
        })
    }

    /// Where this engine came from, when it was opened from a snapshot
    /// container; `None` for built engines.
    pub fn snapshot_info(&self) -> Option<&SnapshotInfo> {
        self.snapshot.as_ref()
    }
}

/// Every check between the sections of one snapshot container, in one
/// place: `meta`'s `len` and `dim` against the `rows` matrix, the
/// dimension the restored operator (`dcostate`) and index (`index`) each
/// record, and the `payl` tags. A `rows` section with no rows fits any
/// `dim`, so then the operator or the index must record it.
fn check_sections(
    manifest: &Manifest,
    dco: &dyn DynDco,
    index: &dyn SearchIndex,
    payl: Option<&[u8]>,
) -> Result<(), String> {
    let (len, dim) = (manifest.len, manifest.dim);
    if dco.len() != len {
        return Err(format!(
            "meta says {len} rows but the `rows` section holds {}",
            dco.len()
        ));
    }
    let recorded = [("dcostate", dco.recorded_dim()), ("index", index.dim())];
    for (tag, got) in recorded {
        if let Some(got) = got.filter(|&d| d != dim) {
            return Err(format!(
                "meta says dim {dim} but the `{tag}` section records {got}"
            ));
        }
    }
    if len == 0 && recorded.iter().all(|(_, d)| d.is_none()) {
        return Err(format!(
            "meta says dim {dim} over zero rows, and no other section records a dim to check it against"
        ));
    }
    if let Some(bytes) = payl {
        if bytes.len() != len * 8 {
            return Err(format!(
                "`payl` section holds {} bytes but {len} rows need {}",
                bytes.len(),
                len * 8
            ));
        }
    }
    Ok(())
}

/// The parsed key=value body of the snapshot `meta` section
/// ([`Engine::save_snapshot`] writes it).
struct Manifest {
    index: IndexSpec,
    dco: DcoSpec,
    params: SearchParams,
    len: usize,
    dim: usize,
}

impl Manifest {
    fn parse(text: &str, origin: &str) -> Result<Manifest, EngineError> {
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(EngineError::Config(format!(
                "{origin}: not a ddc-engine manifest"
            )));
        }
        let mut index = None;
        let mut dco = None;
        let mut params = SearchParams::default();
        let mut len = None;
        let mut dim = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                EngineError::Config(format!("manifest line `{line}` is not key=value"))
            })?;
            let bad = |e: &dyn std::fmt::Display| {
                EngineError::Config(format!("manifest key `{key}`: {e}"))
            };
            match key {
                "index" => index = Some(value.parse::<IndexSpec>().map_err(|e| bad(&e))?),
                "dco" => dco = Some(value.parse::<DcoSpec>().map_err(|e| bad(&e))?),
                "ef" => params.ef = value.parse().map_err(|e| bad(&e))?,
                "nprobe" => params.nprobe = value.parse().map_err(|e| bad(&e))?,
                "len" => len = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
                "dim" => dim = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
                other => {
                    return Err(EngineError::Config(format!(
                        "manifest key `{other}` is unknown"
                    )))
                }
            }
        }
        let (Some(index), Some(dco), Some(len), Some(dim)) = (index, dco, len, dim) else {
            return Err(EngineError::Config(format!(
                "{origin}: manifest is missing an `index=`, `dco=`, `len=` or `dim=` line"
            )));
        };
        Ok(Manifest {
            index,
            dco,
            params,
            len,
            dim,
        })
    }
}

const MANIFEST_MAGIC: &str = "ddc-engine v1";

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_vecs::SynthSpec;

    fn workload() -> ddc_vecs::Workload {
        SynthSpec::tiny_test(12, 300, 77).generate()
    }

    #[test]
    fn build_search_and_stats() {
        let w = workload();
        let cfg = EngineConfig::from_strs("ivf(nlist=8)", "adsampling(delta_d=4)").unwrap();
        let engine = Engine::build(&w.base, None, cfg).unwrap();
        assert_eq!(engine.len(), 300);
        assert_eq!(engine.dim(), 12);
        assert!(!engine.is_empty());
        assert_eq!(engine.dco().name(), "ADSampling");

        let r = engine.search(w.queries.get(0), 5).unwrap();
        assert_eq!(r.neighbors.len(), 5);
        assert!(r.counters.candidates > 0);
        let stats = engine.stats();
        assert_eq!(stats.index_kind, "ivf");
        assert_eq!(stats.dco_name, "ADSampling");
        assert_eq!(stats.vector_bytes, 300 * 12 * 4);
        assert_eq!(stats.dco_extra_bytes, 12 * 12 * 4);
        assert!(stats.total_bytes() > stats.vector_bytes);
    }

    #[test]
    fn batch_counts_and_dimension_guard() {
        let w = workload();
        let engine = Engine::build(
            &w.base,
            None,
            EngineConfig::from_strs("flat", "exact").unwrap(),
        )
        .unwrap();
        let batch = QueryBatch::new(w.queries.clone());
        let results = engine.search_batch(&batch, 3).unwrap();
        assert_eq!(results.len(), w.queries.len());

        let wrong = QueryBatch::from_rows(3, &[&[0.0, 0.0, 0.0]]).unwrap();
        assert!(engine.search_batch(&wrong, 3).is_err());
        // Empty but mis-dimensioned batches error too (instead of
        // panicking inside a rotation operator's begin_batch assert).
        let empty_wrong = QueryBatch::from_rows(3, &[]).unwrap();
        assert!(engine.search_batch(&empty_wrong, 3).is_err());
        let empty_ok = QueryBatch::from_rows(12, &[]).unwrap();
        assert!(engine.search_batch(&empty_ok, 3).unwrap().is_empty());
        assert!(engine.search(&[0.0; 5], 3).is_err());
    }

    #[test]
    fn default_config_is_the_paper_headline() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.index.kind(), "hnsw");
        assert_eq!(cfg.dco.name(), "DDCres");
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical_and_self_sufficient() {
        let w = workload();
        let cfg =
            EngineConfig::from_strs("hnsw(m=6,ef_construction=30)", "ddcres(init_d=4,delta_d=4)")
                .unwrap()
                .with_params(SearchParams::new().with_ef(40));
        let engine = Engine::build(&w.base, None, cfg).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("ddc-engine-snap-{}.snap", std::process::id()));
        engine.save_snapshot(&path).unwrap();

        // No base vectors, no training queries: the container is enough.
        let back = Engine::open_snapshot(&path).unwrap();
        assert_eq!(back.len(), engine.len());
        assert_eq!(back.dim(), engine.dim());
        assert_eq!(back.config().params.ef, 40);
        assert_eq!(
            back.config().index.to_string(),
            engine.config().index.to_string()
        );
        for qi in 0..w.queries.len().min(8) {
            let a = engine.search(w.queries.get(qi), 5).unwrap();
            let b = back.search(w.queries.get(qi), 5).unwrap();
            assert_eq!(a.ids(), b.ids(), "query {qi}");
            let ad: Vec<u32> = a.neighbors.iter().map(|n| n.dist.to_bits()).collect();
            let bd: Vec<u32> = b.neighbors.iter().map(|n| n.dist.to_bits()).collect();
            assert_eq!(ad, bd, "query {qi} distances must be bit-identical");
        }

        let info = back.snapshot_info().expect("opened from a snapshot");
        assert_eq!(info.path, path);
        assert!(engine.snapshot_info().is_none());
        if info.backend == "mmap" {
            assert!(info.mapped_bytes > 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_snapshot_rejects_non_snapshot_files() {
        let mut path = std::env::temp_dir();
        path.push(format!("ddc-engine-notsnap-{}.snap", std::process::id()));
        std::fs::write(&path, [b'x'; 128]).unwrap();
        let err = Engine::open_snapshot(&path).unwrap_err();
        assert!(matches!(err, EngineError::Vecs(_)), "got {err}");
        assert!(err.to_string().contains("bad magic"), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_snapshot_rejects_a_projection_that_does_not_fit_the_rows() {
        // A CRC-valid container whose operator state carries a rotation
        // 8 floats short must fail at open, not panic in the first query.
        let w = workload();
        let cfg = EngineConfig::from_strs("flat", "ddcres(init_d=4,delta_d=4)").unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("ddc-engine-shortrot-{}.snap", std::process::id()));
        Engine::build(&w.base, None, cfg)
            .unwrap()
            .save_snapshot(&path)
            .unwrap();

        // An L2 DDCres blob ends `.. rotation (D² f32s) eigenvalues (D f32s)`,
        // each behind a u64 length.
        let snap = Snapshot::open(&path).unwrap();
        let dim = w.base.dim();
        let state = snap.section("dcostate").unwrap();
        let eig = state.len() - (8 + 4 * dim);
        let rot = eig - (8 + 4 * dim * dim);
        assert_eq!(state[rot..rot + 8], ((dim * dim) as u64).to_le_bytes());
        let mut bad = state[..rot].to_vec();
        bad.extend_from_slice(&((dim * dim - 8) as u64).to_le_bytes());
        bad.extend_from_slice(&state[rot + 8..eig - 32]);
        bad.extend_from_slice(&state[eig..]);

        let mut out = SnapshotWriter::new();
        for (tag, _) in snap.sections() {
            let bytes = if tag == "dcostate" {
                bad.clone()
            } else {
                snap.section(tag).unwrap().to_vec()
            };
            out.add_section(tag, bytes).unwrap();
        }
        out.finish(&path).unwrap();
        let Err(err) = Engine::open_snapshot(&path) else {
            panic!("a short rotation must not open");
        };
        assert!(err.to_string().contains("does not fit"), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_snapshot_rejects_a_forged_index_section() {
        // A real engine's `meta` / `rows` / `dcostate` beside an `index`
        // section whose counts claim more than the stream holds: the CRCs
        // are valid, so only the index loader's bounds stand between these
        // bytes and a multi-gigabyte allocation.
        let w = workload();
        let mut ivf = b"DDCIVF01".to_vec();
        for v in [4u32, 1] {
            ivf.extend_from_slice(&v.to_le_bytes()); // dim, nlist
        }
        ivf.extend_from_slice(&(1u64 << 40).to_le_bytes()); // centroid floats
        let mut hnsw = b"DDCHNSW2".to_vec();
        for v in [u32::MAX, 0, 0, 4, 4] {
            hnsw.extend_from_slice(&v.to_le_bytes()); // n, entry, max_level, m, dim
        }
        hnsw.extend_from_slice(&0u64.to_le_bytes()); // seed
        hnsw.extend_from_slice(&16u32.to_le_bytes()); // ef_construction
        for (index, forged) in [
            ("ivf(nlist=8)", ivf),
            ("hnsw(m=6,ef_construction=30)", hnsw),
        ] {
            let cfg = EngineConfig::from_strs(index, "exact").unwrap();
            let engine = Engine::build(&w.base, None, cfg).unwrap();
            let mut path = std::env::temp_dir();
            path.push(format!("ddc-engine-forged-{}.snap", std::process::id()));
            engine.save_snapshot(&path).unwrap();
            let snap = Snapshot::open(&path).unwrap();
            let mut out = SnapshotWriter::new();
            for (tag, _) in snap.sections() {
                let bytes = if tag == "index" {
                    forged.clone()
                } else {
                    snap.section(tag).unwrap().to_vec()
                };
                out.add_section(tag, bytes).unwrap();
            }
            drop(snap);
            out.finish(&path).unwrap();

            let Err(err) = Engine::open_snapshot(&path) else {
                panic!("{index}: a forged index section must not open");
            };
            let msg = err.to_string();
            assert!(msg.contains(&path.display().to_string()), "{index}: {msg}");
            assert!(msg.contains("`index` section"), "{index}: {msg}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// Rewrites a real one-row, one-dimensional flat × exact container so
    /// its `meta` claims `len` rows of `dim` columns over `rows`.
    fn forge_meta_dim(name: &str, len: usize, dim: usize, rows: Vec<u8>) -> std::path::PathBuf {
        let base = VecSet::from_rows(1, &[vec![0.5]]).unwrap();
        let cfg = EngineConfig::from_strs("flat", "exact").unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("ddc-engine-{name}-{}.snap", std::process::id()));
        Engine::build(&base, None, cfg)
            .unwrap()
            .save_snapshot(&path)
            .unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let mut out = SnapshotWriter::new();
        for (tag, _) in snap.sections() {
            let bytes = match tag {
                "meta" => std::str::from_utf8(snap.section(tag).unwrap())
                    .unwrap()
                    .replace("len=1\n", &format!("len={len}\n"))
                    .replace("dim=1\n", &format!("dim={dim}\n"))
                    .into_bytes(),
                "rows" => rows.clone(),
                _ => snap.section(tag).unwrap().to_vec(),
            };
            out.add_section(tag, bytes).unwrap();
        }
        drop(snap);
        out.finish(&path).unwrap();
        path
    }

    #[test]
    fn open_snapshot_rejects_a_dim_whose_row_stride_wraps_to_zero() {
        // 4·2⁶² wraps to 0 bytes per row: an empty `rows` section must not
        // reach a division by that stride.
        let path = forge_meta_dim("dim-wraps-zero", 0, 1 << 62, Vec::new());
        let Err(err) = Engine::open_snapshot(&path) else {
            panic!("a 2^62-column matrix must not open");
        };
        assert!(err.to_string().contains("rows"), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_snapshot_rejects_a_dim_whose_row_stride_wraps_to_four_bytes() {
        // 4·(2⁶² + 1) wraps to 4: one 4-byte row must not open as a
        // 2⁶²-column matrix over 4 bytes.
        let path = forge_meta_dim(
            "dim-wraps-four",
            1,
            (1 << 62) + 1,
            0.5f32.to_le_bytes().to_vec(),
        );
        let Err(err) = Engine::open_snapshot(&path) else {
            panic!("a (2^62 + 1)-column matrix over 4 bytes must not open");
        };
        assert!(err.to_string().contains("rows"), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_snapshot_rejects_a_zero_row_dim_that_no_section_records() {
        // Zero rows fit any dim, and neither a flat index nor an L2 exact
        // operator records one: `meta` alone would set the engine's dim.
        let path = forge_meta_dim("dim-unrecorded", 0, 1 << 40, Vec::new());
        let Err(err) = Engine::open_snapshot(&path) else {
            panic!("a 2^40-column matrix of zero rows must not open");
        };
        let msg = err.to_string();
        assert!(matches!(err, EngineError::Config(_)), "got {msg}");
        assert!(msg.contains("no other section records a dim"), "got {msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_snapshot_rejects_an_index_whose_dim_disagrees_with_meta() {
        // The graph header's `dim` word (after the magic and four u32s),
        // one more than the rows': CRC-valid, and the operator agrees
        // with `meta`, so only the cross-section check can catch it.
        let w = workload();
        let cfg = EngineConfig::from_strs("hnsw(m=6,ef_construction=30)", "exact").unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("ddc-engine-index-dim-{}.snap", std::process::id()));
        Engine::build(&w.base, None, cfg)
            .unwrap()
            .save_snapshot(&path)
            .unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let mut out = SnapshotWriter::new();
        for (tag, _) in snap.sections() {
            let mut bytes = snap.section(tag).unwrap().to_vec();
            if tag == "index" {
                assert_eq!(bytes[24..28], (w.base.dim() as u32).to_le_bytes());
                bytes[24..28].copy_from_slice(&(w.base.dim() as u32 + 1).to_le_bytes());
            }
            out.add_section(tag, bytes).unwrap();
        }
        drop(snap);
        out.finish(&path).unwrap();
        let Err(err) = Engine::open_snapshot(&path) else {
            panic!("a graph of another dim must not open");
        };
        let msg = err.to_string();
        assert!(msg.contains("`index` section records"), "got {msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn k_zero_returns_well_defined_empty_results_on_every_index() {
        let w = workload();
        for index in ["flat", "ivf(nlist=8)", "hnsw(m=6,ef_construction=30)"] {
            let engine = Engine::build(
                &w.base,
                None,
                EngineConfig::from_strs(index, "ddcres(init_d=4,delta_d=4)").unwrap(),
            )
            .unwrap();
            let r = engine.search(w.queries.get(0), 0).unwrap();
            assert!(r.neighbors.is_empty(), "{index}: k=0 must yield nothing");
            assert_eq!(r.counters, ddc_core::Counters::new());

            let batch = QueryBatch::new(w.queries.clone());
            let rs = engine.search_batch(&batch, 0).unwrap();
            assert_eq!(rs.len(), batch.len());
            assert!(rs.iter().all(|r| r.neighbors.is_empty()));

            // The dimension check still precedes the shortcut.
            assert!(engine.search(&[0.0; 3], 0).is_err());
        }
    }

    #[test]
    fn empty_index_returns_empty_results() {
        let base = ddc_vecs::VecSet::new(12);
        let engine = Engine::build(
            &base,
            None,
            EngineConfig::from_strs("flat", "exact").unwrap(),
        )
        .unwrap();
        assert!(engine.is_empty());
        let r = engine.search(&[0.0; 12], 5).unwrap();
        assert!(r.neighbors.is_empty());
        let batch = QueryBatch::from_rows(12, &[&[0.0; 12]]).unwrap();
        let rs = engine.search_batch(&batch, 5).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs[0].neighbors.is_empty());
    }

    #[test]
    fn group_search_matches_solo_and_handles_edges() {
        let w = workload();
        let engine = Engine::build(
            &w.base,
            None,
            EngineConfig::from_strs("hnsw(m=6,ef_construction=30)", "adsampling(delta_d=4)")
                .unwrap(),
        )
        .unwrap();
        let batch = QueryBatch::new(w.queries.clone());

        let params = engine.config().params;
        let group = engine.search_group(&batch, 5, &params, None).unwrap();
        assert_eq!(group.len(), batch.len());
        for (qi, r) in group.iter().enumerate() {
            assert_eq!(r.ids(), engine.search(batch.get(qi), 5).unwrap().ids());
        }

        let empty = QueryBatch::from_rows(12, &[]).unwrap();
        assert!(engine
            .search_group(&empty, 5, &params, None)
            .unwrap()
            .is_empty());
        assert!(engine
            .search_group(&batch, 0, &params, None)
            .unwrap()
            .iter()
            .all(|r| r.neighbors.is_empty()));
        let wrong = QueryBatch::from_rows(3, &[&[0.0; 3]]).unwrap();
        assert!(engine.search_group(&wrong, 5, &params, None).is_err());
        // A predicate needs payload tags to read.
        let pred = FilterPredicate::Eq(1);
        assert!(engine
            .search_group(&batch, 5, &params, Some(&pred))
            .is_err());
    }

    #[test]
    fn metric_mismatch_rejected_and_with_metric_aligns_both_specs() {
        let w = workload();
        let cfg = EngineConfig::from_strs("hnsw(m=6)", "exact(metric=ip)").unwrap();
        let err = Engine::build(&w.base, None, cfg).unwrap_err();
        assert!(err.to_string().contains("disagrees"), "got {err}");

        let cfg = EngineConfig::from_strs("hnsw(m=6,ef_construction=30)", "exact")
            .unwrap()
            .with_metric(Metric::InnerProduct);
        let engine = Engine::build(&w.base, None, cfg).unwrap();
        assert_eq!(engine.metric(), Metric::InnerProduct);
        assert_eq!(engine.stats().metric, "ip");

        // IP distances are negated dot products: the engine's best hit
        // matches the exact oracle for the metric.
        let q = w.queries.get(0);
        let r = engine.search(q, 1).unwrap();
        let oracle = ddc_vecs::metric_oracle::top_k(&w.base, q, 1, &Metric::InnerProduct);
        assert_eq!(r.neighbors[0].id, oracle[0].id);
        assert_eq!(r.neighbors[0].dist, oracle[0].dist);
    }

    #[test]
    fn metric_survives_snapshot() {
        let w = workload();
        let cfg = EngineConfig::from_strs("flat", "exact")
            .unwrap()
            .with_metric(Metric::Cosine);
        let engine = Engine::build(&w.base, None, cfg).unwrap();

        let mut path = std::env::temp_dir();
        path.push(format!(
            "ddc-engine-metric-snap-{}.snap",
            std::process::id()
        ));
        engine.save_snapshot(&path).unwrap();
        // Non-L2 containers carry the generalized-features flag.
        let snap = ddc_vecs::Snapshot::open(&path).unwrap();
        assert_eq!(snap.flags_incompat(), ddc_vecs::snapshot::FLAG_GENERALIZED);
        drop(snap);
        let back = Engine::open_snapshot(&path).unwrap();
        assert_eq!(back.metric(), Metric::Cosine);
        for qi in 0..4 {
            let a = engine.search(w.queries.get(qi), 5).unwrap();
            let b = back.search(w.queries.get(qi), 5).unwrap();
            assert_eq!(a.ids(), b.ids(), "query {qi}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn l2_snapshots_carry_no_incompat_flags() {
        let w = workload();
        let engine = Engine::build(
            &w.base,
            None,
            EngineConfig::from_strs("flat", "exact").unwrap(),
        )
        .unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("ddc-engine-l2flags-{}.snap", std::process::id()));
        engine.save_snapshot(&path).unwrap();
        let snap = ddc_vecs::Snapshot::open(&path).unwrap();
        assert_eq!(snap.flags_incompat(), 0, "plain L2 must stay flagless");
        assert!(snap.sections().iter().all(|(t, _)| *t != "payl"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filtered_search_requires_payloads_and_respects_predicate() {
        let w = workload();
        let mut engine = Engine::build(
            &w.base,
            None,
            EngineConfig::from_strs("hnsw(m=6,ef_construction=30)", "adsampling(delta_d=4)")
                .unwrap(),
        )
        .unwrap();
        let q = w.queries.get(0);
        let pred = FilterPredicate::Eq(1);
        let params = engine.config().params;
        let err = engine
            .search_filtered_with(q, 5, &params, &pred)
            .unwrap_err();
        assert!(err.to_string().contains("set_payloads"), "got {err}");

        assert!(engine.set_payloads(vec![0; 3]).is_err(), "length guard");
        // Tag every third row with 1 (~33% selectivity).
        let payloads: Vec<u64> = (0..engine.len() as u64)
            .map(|i| u64::from(i % 3 == 0))
            .collect();
        engine.set_payloads(payloads.clone()).unwrap();
        assert_eq!(engine.payloads().unwrap().len(), 300);
        assert!(engine.stats().payloads);

        let r = engine.search_filtered_with(q, 5, &params, &pred).unwrap();
        assert_eq!(r.neighbors.len(), 5, "filter must not cost result slots");
        for n in &r.neighbors {
            assert_eq!(payloads[n.id as usize], 1, "row {} fails the filter", n.id);
        }
        // The filtered top hit is at least as far as the unfiltered one.
        let unfiltered = engine.search(q, 1).unwrap();
        assert!(r.neighbors[0].dist >= unfiltered.neighbors[0].dist);

        // k=0 stays well-defined.
        assert!(engine
            .search_filtered_with(q, 0, &params, &pred)
            .unwrap()
            .neighbors
            .is_empty());
        // Dimension guard precedes everything else.
        assert!(engine
            .search_filtered_with(&[0.0; 3], 5, &params, &pred)
            .is_err());
    }

    #[test]
    fn payloads_round_trip_through_snapshots() {
        let w = workload();
        let mut engine = Engine::build(
            &w.base,
            None,
            EngineConfig::from_strs("flat", "exact").unwrap(),
        )
        .unwrap();
        let payloads: Vec<u64> = (0..engine.len() as u64).map(|i| i * 31 % 97).collect();
        engine.set_payloads(payloads.clone()).unwrap();

        let mut path = std::env::temp_dir();
        path.push(format!("ddc-engine-payl-{}.snap", std::process::id()));
        engine.save_snapshot(&path).unwrap();
        let back = Engine::open_snapshot(&path).unwrap();
        assert_eq!(back.payloads().unwrap(), &payloads[..]);

        // Filtered searches agree across the round trip.
        let pred = FilterPredicate::Range(10, 50);
        let q = w.queries.get(2);
        let params = engine.config().params;
        let a = engine.search_filtered_with(q, 5, &params, &pred).unwrap();
        let b = back.search_filtered_with(q, 5, &params, &pred).unwrap();
        assert_eq!(a.ids(), b.ids());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_specs_surface_as_config_errors() {
        assert!(matches!(
            EngineConfig::from_strs("nope", "exact"),
            Err(EngineError::Config(_))
        ));
        assert!(matches!(
            EngineConfig::from_strs("flat", "nope"),
            Err(EngineError::Config(_))
        ));
    }
}

//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, the
//! paper's ref.\[9\]).
//!
//! Construction follows the reference algorithm: exponentially-distributed
//! layer assignment (`mult = 1/ln M`), `ef_construction`-bounded best-first
//! search per layer, heuristic neighbor selection (Algorithm 4 of the HNSW
//! paper), bidirectional links capped at `M` per upper layer and `2M` on
//! the base layer.
//!
//! Construction is **incremental by definition**: the level of a node is a
//! pure hash of `(seed, id)` rather than a draw from a sequential RNG
//! stream, and [`Hnsw::build_rows`] is nothing but [`Hnsw::insert_next`]
//! in a loop. A graph grown by live insertion is therefore *bit-identical*
//! to one built from scratch over the same rows — the foundation of the
//! mutability parity contract (`build ≡ insert-one-at-a-time`).
//!
//! Deletion comes in two steps. Between compactions it is handled above
//! this layer with tombstones; the filtered search core
//! ([`Hnsw::search_eval_filtered`]) performs result repair during
//! traversal: dead nodes still route the best-first walk (their edges are
//! the graph's connectivity) but never enter the result queue, so they
//! cannot consume `k` slots or hold down the pruning threshold. A
//! compaction then consolidates them away for good: [`Hnsw::remove_rows`]
//! re-links every live in-neighbour of a dead node around it, drops the
//! dead nodes, and renumbers the survivors — local work, the same way
//! [`Hnsw::insert_next`] makes growth local.
//!
//! Search descends greedily to layer 0, then runs the `ef`-bounded
//! best-first scan in which **every candidate evaluation goes through the
//! DCO** with the result queue's threshold `τ` — the integration point the
//! paper's §II-A/III describe (distance computation is ~80% of HNSW query
//! time, so this is where DDC's savings appear).
//!
//! Construction-time distances (`l2_sq`) dispatch to the fastest SIMD
//! backend the CPU offers (see [`ddc_linalg::kernels`]); the
//! `simd_dispatch_e2e` test pins that a 1k-point search returns identical
//! top-k under `DDC_FORCE_SCALAR=1` and the SIMD path.

use crate::search_index::removal_plan;
use crate::visited::VisitedSet;
use crate::{IndexError, Result, SearchResult};
use ddc_core::{Dco, Decision, QueryDco};
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::{Neighbor, TopK, VecSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// HNSW build configuration.
#[derive(Debug, Clone)]
pub struct HnswConfig {
    /// Max connections per node per upper layer (`2M` on layer 0). The
    /// paper uses `M = 16`.
    pub m: usize,
    /// Beam width during construction (paper: 500).
    pub ef_construction: usize,
    /// Level-assignment seed.
    pub seed: u64,
    /// Construction-time distance. Must match the DCO the graph is
    /// searched with: edges wired under one geometry and traversed under
    /// another degrade recall. The L2 arm is the original `l2_sq` path,
    /// bit-identical to pre-metric builds.
    pub metric: Metric,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 200,
            seed: 0x0001_4577,
            metric: Metric::L2,
        }
    }
}

/// Per-node adjacency: one neighbor list per layer the node exists on.
type NodeLinks = Vec<Vec<u32>>;

/// A built HNSW graph.
#[derive(Debug, Clone)]
pub struct Hnsw {
    links: Vec<NodeLinks>,
    entry: u32,
    max_level: usize,
    m: usize,
    dim: usize,
    seed: u64,
    ef_construction: usize,
    metric: Metric,
}

impl Hnsw {
    /// Builds the graph over `base` with exact distances.
    ///
    /// # Errors
    /// Rejects empty input and degenerate configuration.
    pub fn build(base: &VecSet, cfg: &HnswConfig) -> Result<Hnsw> {
        Hnsw::build_rows(base, cfg)
    }

    /// [`Hnsw::build`] over any [`RowAccess`] source: construction reads
    /// rows on demand (a mapped store pages them in lazily), and since
    /// the in-RAM path runs this same loop, store-built graphs are
    /// bit-identical to RAM-built ones.
    ///
    /// # Errors
    /// Same contract as [`Hnsw::build`].
    pub fn build_rows<R: RowAccess + ?Sized>(base: &R, cfg: &HnswConfig) -> Result<Hnsw> {
        if base.is_empty() {
            return Err(IndexError::Empty);
        }
        if cfg.m < 2 {
            return Err(IndexError::Config("m must be at least 2".into()));
        }
        if cfg.ef_construction == 0 {
            return Err(IndexError::Config(
                "ef_construction must be positive".into(),
            ));
        }
        cfg.metric
            .validate_dim(base.dim())
            .map_err(|e| IndexError::Config(format!("hnsw: {e}")))?;
        let n = base.len();
        let mut hnsw = Hnsw {
            links: Vec::with_capacity(n),
            entry: 0,
            max_level: 0,
            m: cfg.m,
            dim: base.dim(),
            seed: cfg.seed,
            ef_construction: cfg.ef_construction,
            metric: cfg.metric.clone(),
        };
        let mut visited = VisitedSet::new(n);
        for _ in 0..n {
            hnsw.insert_next(base, &mut visited)?;
        }
        Ok(hnsw)
    }

    /// Inserts the next row of `base` — the one at index [`Hnsw::len`] —
    /// into the graph: greedy descent through the upper layers, then
    /// `ef_construction`-bounded search plus heuristic neighbor wiring on
    /// every layer the new node reaches. This **is** the construction
    /// loop ([`Hnsw::build_rows`] calls nothing else), and the node's
    /// level is a pure hash of `(seed, id)`, so a graph grown by
    /// insertion is bit-identical to a from-scratch build over the same
    /// rows.
    ///
    /// `base` must hold the rows the graph was built over followed by the
    /// row being inserted (at least `len() + 1` rows); `visited` grows to
    /// cover the new id. Returns the id assigned to the new row.
    ///
    /// # Errors
    /// [`IndexError::Dimension`] on a row-source dimensionality mismatch;
    /// [`IndexError::Config`] when `base` does not contain the row to
    /// insert or the graph is at the `u32` id ceiling.
    pub fn insert_next<R: RowAccess + ?Sized>(
        &mut self,
        base: &R,
        visited: &mut VisitedSet,
    ) -> Result<u32> {
        if base.dim() != self.dim {
            return Err(IndexError::Dimension {
                expected: self.dim,
                actual: base.dim(),
            });
        }
        let next = self.links.len();
        if next > u32::MAX as usize {
            return Err(IndexError::Config("graph is at the u32 id ceiling".into()));
        }
        if base.len() <= next {
            return Err(IndexError::Config(format!(
                "row source has {} rows; row {next} is being inserted",
                base.len()
            )));
        }
        let id = next as u32;
        let level = level_for(self.seed, id, 1.0 / (self.m as f64).ln());
        self.links.push(vec![Vec::new(); level + 1]);
        visited.grow(self.links.len());
        if self.links.len() == 1 {
            self.entry = id;
            self.max_level = level;
            return Ok(id);
        }
        self.insert(base, id, level, self.ef_construction, visited);
        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
        Ok(id)
    }

    fn insert<R: RowAccess + ?Sized>(
        &mut self,
        base: &R,
        id: u32,
        level: usize,
        ef_construction: usize,
        visited: &mut VisitedSet,
    ) {
        let q = base.row(id as usize);
        let mut ep = Neighbor {
            id: self.entry,
            dist: self.metric.distance(base.row(self.entry as usize), q),
        };
        // Greedy descent through layers above the node's level.
        for lev in ((level + 1)..=self.max_level).rev() {
            ep = self.greedy_closest(base, q, ep, lev);
        }
        // Connect on each layer from min(level, max_level) down to 0.
        let mut eps = vec![ep];
        for lev in (0..=level.min(self.max_level)).rev() {
            let w = self.search_layer_build(base, q, &eps, ef_construction, lev, visited);
            let m_max = self.max_degree(lev);
            let selected = select_neighbors_heuristic(base, &w, self.m, &self.metric);
            for &nb in &selected {
                self.links[id as usize][lev].push(nb);
                self.links[nb as usize][lev].push(id);
                if self.links[nb as usize][lev].len() > m_max {
                    self.shrink_links(base, nb, lev, m_max);
                }
            }
            eps = w;
        }
    }

    fn max_degree(&self, level: usize) -> usize {
        if level == 0 {
            2 * self.m
        } else {
            self.m
        }
    }

    fn shrink_links<R: RowAccess + ?Sized>(
        &mut self,
        base: &R,
        node: u32,
        level: usize,
        m_max: usize,
    ) {
        let ids = std::mem::take(&mut self.links[node as usize][level]);
        self.reselect_links(base, node, level, &ids, m_max);
    }

    /// Replaces `node`'s list at `level` with the heuristic's pick of at
    /// most `cap` of `ids` (distinct, none equal to `node`), ranked by
    /// distance to `node`. `Neighbor`'s total order makes the ranking —
    /// and so the pick — independent of the order `ids` arrive in.
    fn reselect_links<R: RowAccess + ?Sized>(
        &mut self,
        base: &R,
        node: u32,
        level: usize,
        ids: &[u32],
        cap: usize,
    ) {
        let nq = base.row(node as usize);
        let mut cands: Vec<Neighbor> = ids
            .iter()
            .map(|&e| Neighbor {
                id: e,
                dist: self.metric.distance(base.row(e as usize), nq),
            })
            .collect();
        cands.sort_unstable();
        self.links[node as usize][level] =
            select_neighbors_heuristic(base, &cands, cap, &self.metric);
    }

    /// Physically removes the rows flagged in `dead_mask` and renumbers
    /// the survivors densely in their old order, after repairing the
    /// graph around the holes — so a compaction that drops rows costs
    /// O(churn) instead of a rebuild.
    ///
    /// The repair is one-hop delete consolidation (the FreshDiskANN rule):
    /// on every level, each live node that links to a dead node re-selects
    /// its list, through the construction heuristic, from its live
    /// neighbours ∪ the dead neighbours' live neighbours. The new list is
    /// capped at the length the old one had (all candidates are kept when
    /// they fit), so adjacency memory never grows. Repairs read only dead
    /// nodes' lists and write only live nodes' lists, which makes the
    /// outcome independent of visiting order. If the entry point died, the
    /// lowest-id live node on the highest surviving level takes over.
    ///
    /// `rows_before` is the row source the graph was built over (old
    /// numbering). The repaired graph is a valid index over the survivors
    /// but, unlike growth by [`Hnsw::insert_next`], **not** bit-identical
    /// to a fresh build over them.
    ///
    /// # Errors
    /// [`IndexError::Config`] when the mask or the row source does not
    /// cover exactly the indexed rows, [`IndexError::Dimension`] on a row
    /// width mismatch, [`IndexError::Empty`] when no row would survive.
    /// The graph is unchanged in every error case.
    pub fn remove_rows<R: RowAccess + ?Sized>(
        &mut self,
        rows_before: &R,
        dead_mask: &[bool],
    ) -> Result<()> {
        if rows_before.dim() != self.dim {
            return Err(IndexError::Dimension {
                expected: self.dim,
                actual: rows_before.dim(),
            });
        }
        if rows_before.len() != self.links.len() {
            return Err(IndexError::Config(format!(
                "row source has {} rows, {} are indexed",
                rows_before.len(),
                self.links.len()
            )));
        }
        let Some(new_ids) = removal_plan(self.links.len(), dead_mask)? else {
            return Ok(());
        };
        let dead = |id: u32| dead_mask[id as usize];

        let mut ids = Vec::new();
        for node in (0..self.links.len() as u32).filter(|&u| !dead(u)) {
            for level in 0..self.links[node as usize].len() {
                let old = &self.links[node as usize][level];
                if !old.iter().any(|&e| dead(e)) {
                    continue;
                }
                ids.clear();
                for &e in old {
                    if dead(e) {
                        let via = self.neighbors(e, level).iter();
                        ids.extend(via.copied().filter(|&x| !dead(x) && x != node));
                    } else {
                        ids.push(e);
                    }
                }
                ids.sort_unstable();
                ids.dedup();
                let cap = old.len();
                self.reselect_links(rows_before, node, level, &ids, cap);
            }
        }

        if dead(self.entry) {
            // Every surviving node then fits under the new top level, as
            // the loader demands.
            let levels = |u: &u32| self.links[*u as usize].len();
            let top = (0..self.links.len() as u32)
                .filter(|&u| !dead(u))
                .max_by_key(|u| (levels(u), std::cmp::Reverse(*u)))
                .expect("removal_plan guarantees a survivor");
            self.max_level = levels(&top) - 1;
            self.entry = top;
        }
        self.entry = new_ids[self.entry as usize];

        let mut keep = dead_mask.iter().map(|&d| !d);
        self.links
            .retain(|_| keep.next().expect("mask covers links"));
        for list in self.links.iter_mut().flatten() {
            for e in list {
                *e = new_ids[*e as usize];
            }
        }
        Ok(())
    }

    fn greedy_closest<R: RowAccess + ?Sized>(
        &self,
        base: &R,
        q: &[f32],
        mut ep: Neighbor,
        level: usize,
    ) -> Neighbor {
        loop {
            let mut improved = false;
            for &e in &self.links[ep.id as usize][level] {
                let d = self.metric.distance(base.row(e as usize), q);
                if d < ep.dist {
                    ep = Neighbor { id: e, dist: d };
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Build-time `ef`-bounded best-first search with exact distances.
    fn search_layer_build<R: RowAccess + ?Sized>(
        &self,
        base: &R,
        q: &[f32],
        eps: &[Neighbor],
        ef: usize,
        level: usize,
        visited: &mut VisitedSet,
    ) -> Vec<Neighbor> {
        visited.next_epoch();
        let mut candidates: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
        let mut w = TopK::new(ef);
        for &ep in eps {
            if visited.insert(ep.id) {
                candidates.push(Reverse(ep));
                w.offer(ep.id, ep.dist);
            }
        }
        while let Some(Reverse(c)) = candidates.pop() {
            if w.is_full() && c.dist > w.tau() {
                break;
            }
            for &e in &self.links[c.id as usize][level] {
                if !visited.insert(e) {
                    continue;
                }
                let d = self.metric.distance(base.row(e as usize), q);
                if !w.is_full() || d < w.tau() {
                    candidates.push(Reverse(Neighbor { id: e, dist: d }));
                    w.offer(e, d);
                }
            }
        }
        w.into_sorted()
    }

    /// Queries the graph through a DCO.
    ///
    /// # Errors
    /// [`IndexError::Dimension`] when `q` has the wrong dimensionality.
    pub fn search<D: Dco>(&self, dco: &D, q: &[f32], k: usize, ef: usize) -> Result<SearchResult> {
        self.search_with_visited(dco, q, k, ef, &mut VisitedSet::new(self.links.len()))
    }

    /// [`Hnsw::search`] with a caller-provided visited set (amortizes
    /// allocation across a query batch).
    ///
    /// # Errors
    /// [`IndexError::Dimension`] when `q` has the wrong dimensionality.
    pub fn search_with_visited<D: Dco>(
        &self,
        dco: &D,
        q: &[f32],
        k: usize,
        ef: usize,
        visited: &mut VisitedSet,
    ) -> Result<SearchResult> {
        if q.len() != self.dim {
            return Err(IndexError::Dimension {
                expected: self.dim,
                actual: q.len(),
            });
        }
        let mut eval = dco.begin(q);
        Ok(self.search_eval_filtered(&mut eval, k, ef, visited, &|_| true))
    }

    /// [`Hnsw::search_with_visited`] through an already-prepared evaluator
    /// — the entry point for batched search (evaluators prepared up front,
    /// rotation amortized) and dynamic dispatch (`Q = dyn DynQueryDco`) —
    /// with a liveness filter, the tombstone hook. The caller is
    /// responsible for the dimension check. Dead nodes
    /// (`live(id) == false`) still route the traversal (their edges carry
    /// the graph's connectivity, so reachability does not degrade as
    /// points are deleted) but are repaired out of the result before they
    /// consume a `k` slot: they never enter the result queue, and the
    /// pruning threshold `τ` reflects live results only.
    ///
    /// The unfiltered paths pass the literal `&|_| true`, which
    /// monomorphises the hook away.
    pub fn search_eval_filtered<Q: QueryDco + ?Sized, F: Fn(u32) -> bool + ?Sized>(
        &self,
        eval: &mut Q,
        k: usize,
        ef: usize,
        visited: &mut VisitedSet,
        live: &F,
    ) -> SearchResult {
        let ef = ef.max(k).max(1);

        // Greedy descent with exact distances (no τ exists yet).
        let mut ep = self.entry;
        let mut ep_dist = eval.exact(ep);
        for lev in (1..=self.max_level).rev() {
            loop {
                let mut improved = false;
                for &e in &self.links[ep as usize][lev] {
                    let d = eval.exact(e);
                    if d < ep_dist {
                        ep = e;
                        ep_dist = d;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        // Layer-0 best-first search through the DCO.
        visited.next_epoch();
        visited.insert(ep);
        let mut candidates: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
        candidates.push(Reverse(Neighbor {
            id: ep,
            dist: ep_dist,
        }));
        let mut w = TopK::new(ef);
        if live(ep) {
            w.offer(ep, ep_dist);
        }

        while let Some(Reverse(c)) = candidates.pop() {
            if w.is_full() && c.dist > w.tau() {
                break;
            }
            for &e in &self.links[c.id as usize][0] {
                if !visited.insert(e) {
                    continue;
                }
                let tau = w.tau();
                match eval.test(e, tau) {
                    Decision::Exact(d) => {
                        if !w.is_full() || d < w.tau() {
                            candidates.push(Reverse(Neighbor { id: e, dist: d }));
                            if live(e) {
                                w.offer(e, d);
                            }
                        }
                    }
                    Decision::Pruned(_) => {}
                }
            }
        }

        let mut neighbors = w.into_sorted();
        neighbors.truncate(k);
        SearchResult {
            neighbors,
            counters: eval.counters(),
            elapsed_nanos: 0,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Highest layer in the graph.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Entry point id.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Neighbor list of `id` at `level` (empty when the node does not reach
    /// that level).
    pub fn neighbors(&self, id: u32, level: usize) -> &[u32] {
        self.links[id as usize]
            .get(level)
            .map_or(&[], Vec::as_slice)
    }

    /// Mean layer-0 out-degree.
    pub fn avg_degree(&self) -> f64 {
        let total: usize = self.links.iter().map(|l| l[0].len()).sum();
        total as f64 / self.links.len().max(1) as f64
    }

    /// Number of layers node `id` participates in.
    pub fn node_levels(&self, id: u32) -> usize {
        self.links[id as usize].len()
    }

    /// `M` parameter the graph was built with.
    pub(crate) fn m_param(&self) -> usize {
        self.m
    }

    /// Dimensionality the graph expects of queries.
    pub(crate) fn dim_param(&self) -> usize {
        self.dim
    }

    /// Level-assignment seed the graph was built with (levels of future
    /// inserts are a pure function of this and the id).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Construction beam width used by [`Hnsw::insert_next`].
    pub fn ef_construction(&self) -> usize {
        self.ef_construction
    }

    /// Construction-time metric of the graph.
    pub fn metric(&self) -> &Metric {
        &self.metric
    }

    /// Re-tags the graph with its construction metric. The index byte
    /// form does not store the metric (it lives in the spec of the
    /// snapshot `meta` section), so loaders inject it here — future [`Hnsw::insert_next`]
    /// calls must wire edges under the same geometry the graph was built
    /// with.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Hnsw {
        self.metric = metric;
        self
    }

    /// Reassembles a graph from persisted parts (validation is the
    /// loader's responsibility).
    pub(crate) fn from_parts(
        links: Vec<NodeLinks>,
        entry: u32,
        max_level: usize,
        m: usize,
        dim: usize,
        seed: u64,
        ef_construction: usize,
    ) -> Hnsw {
        Hnsw {
            links,
            entry,
            max_level,
            m,
            dim,
            seed,
            ef_construction,
            metric: Metric::L2,
        }
    }

    /// Adjacency memory (Fig. 7 space accounting).
    pub fn memory_bytes(&self) -> usize {
        self.links
            .iter()
            .flat_map(|levels| levels.iter())
            .map(|l| l.len() * std::mem::size_of::<u32>())
            .sum()
    }
}

/// Deterministic per-id level assignment: a splitmix64-style hash of
/// `(seed, id)` drives the standard exponential level formula
/// `⌊-ln(u) · mult⌋`. Hashing the id — instead of drawing from a
/// sequential RNG stream whose state depends on how many nodes came
/// before — makes the level a pure function of the id, which is what lets
/// incremental insertion reproduce a from-scratch build exactly.
fn level_for(seed: u64, id: u32, mult: f64) -> usize {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(id).wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 53 uniform mantissa bits → u ∈ [0, 1); guard the ln singularity.
    let u = ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
    let u = u.max(f64::MIN_POSITIVE);
    ((-u.ln()) * mult).floor() as usize
}

/// HNSW's neighbor-selection heuristic (Algorithm 4): walk candidates by
/// increasing distance, keep one only if it is closer to the query than to
/// every already-kept neighbor (diversity), then backfill with the nearest
/// discarded ones if fewer than `m` survive.
fn select_neighbors_heuristic<R: RowAccess + ?Sized>(
    base: &R,
    candidates: &[Neighbor],
    m: usize,
    metric: &Metric,
) -> Vec<u32> {
    let mut kept: Vec<Neighbor> = Vec::with_capacity(m);
    let mut discarded: Vec<Neighbor> = Vec::new();
    for &c in candidates {
        if kept.len() >= m {
            break;
        }
        let cv = base.row(c.id as usize);
        let diverse = kept
            .iter()
            .all(|r| metric.distance(base.row(r.id as usize), cv) > c.dist);
        if diverse {
            kept.push(c);
        } else {
            discarded.push(c);
        }
    }
    for d in discarded {
        if kept.len() >= m {
            break;
        }
        kept.push(d);
    }
    kept.into_iter().map(|n| n.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_core::{AdSampling, AdSamplingConfig, DdcRes, DdcResConfig, Exact};
    use ddc_vecs::{GroundTruth, SynthSpec};

    fn workload(n: usize) -> ddc_vecs::Workload {
        let mut spec = SynthSpec::tiny_test(16, n, 81);
        spec.alpha = 1.2;
        spec.clusters = 8;
        spec.generate()
    }

    fn build(w: &ddc_vecs::Workload) -> Hnsw {
        Hnsw::build(
            &w.base,
            &HnswConfig {
                m: 8,
                ef_construction: 60,
                seed: 0,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn bidirectional_degree_bounds_hold() {
        let w = workload(800);
        let g = build(&w);
        for id in 0..g.len() as u32 {
            assert!(g.neighbors(id, 0).len() <= 16, "layer-0 degree bound");
            for lev in 1..=g.max_level {
                assert!(g.neighbors(id, lev).len() <= 8, "upper degree bound");
            }
        }
    }

    #[test]
    fn graph_has_no_self_loops_or_dup_edges() {
        let w = workload(500);
        let g = build(&w);
        for id in 0..g.len() as u32 {
            let nbrs = g.neighbors(id, 0);
            assert!(!nbrs.contains(&id), "self loop at {id}");
            let mut sorted = nbrs.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), nbrs.len(), "dup edge at {id}");
        }
    }

    #[test]
    fn exact_search_reaches_high_recall() {
        let w = workload(1000);
        let g = build(&w);
        let k = 10;
        let gt = GroundTruth::compute(&w.base, &w.queries, k, 0).unwrap();
        let dco = Exact::build(&w.base);
        let mut results = Vec::new();
        for qi in 0..w.queries.len() {
            results.push(g.search(&dco, w.queries.get(qi), k, 80).unwrap().ids());
        }
        let recall = ddc_vecs::recall(&results, &gt, k);
        assert!(recall > 0.9, "recall={recall}");
    }

    #[test]
    fn recall_improves_with_ef() {
        let w = workload(1000);
        let g = build(&w);
        let k = 10;
        let gt = GroundTruth::compute(&w.base, &w.queries, k, 0).unwrap();
        let dco = Exact::build(&w.base);
        let recall_at = |ef: usize| {
            let mut results = Vec::new();
            for qi in 0..w.queries.len() {
                results.push(g.search(&dco, w.queries.get(qi), k, ef).unwrap().ids());
            }
            ddc_vecs::recall(&results, &gt, k)
        };
        assert!(recall_at(100) >= recall_at(10) - 0.02);
    }

    #[test]
    fn dco_search_matches_exact_recall_with_fewer_dims() {
        let w = workload(1000);
        let g = build(&w);
        let k = 10;
        let ef = 60;
        let gt = GroundTruth::compute(&w.base, &w.queries, k, 0).unwrap();

        let exact = Exact::build(&w.base);
        let res = DdcRes::build(
            &w.base,
            DdcResConfig {
                init_d: 4,
                delta_d: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let ads = AdSampling::build(
            &w.base,
            AdSamplingConfig {
                delta_d: 4,
                ..Default::default()
            },
        )
        .unwrap();

        let mut r_exact = Vec::new();
        let mut r_res = Vec::new();
        let mut r_ads = Vec::new();
        let mut c_res = ddc_core::Counters::new();
        let mut c_ads = ddc_core::Counters::new();
        for qi in 0..w.queries.len() {
            let q = w.queries.get(qi);
            r_exact.push(g.search(&exact, q, k, ef).unwrap().ids());
            let r = g.search(&res, q, k, ef).unwrap();
            c_res.merge(&r.counters);
            r_res.push(r.ids());
            let r = g.search(&ads, q, k, ef).unwrap();
            c_ads.merge(&r.counters);
            r_ads.push(r.ids());
        }
        let rec_exact = ddc_vecs::recall(&r_exact, &gt, k);
        let rec_res = ddc_vecs::recall(&r_res, &gt, k);
        let rec_ads = ddc_vecs::recall(&r_ads, &gt, k);
        assert!(
            rec_res > rec_exact - 0.05,
            "exact={rec_exact} res={rec_res}"
        );
        assert!(
            rec_ads > rec_exact - 0.05,
            "exact={rec_exact} ads={rec_ads}"
        );
        // The paper's headline: DDCres scans far fewer dimensions than
        // ADSampling at matched accuracy (Exp-6).
        assert!(
            c_res.scan_rate() < c_ads.scan_rate(),
            "res={} ads={}",
            c_res.scan_rate(),
            c_ads.scan_rate()
        );
    }

    #[test]
    fn insert_one_at_a_time_is_bit_identical_to_build() {
        let w = workload(400);
        let full = build(&w);
        // Seed a one-row graph, then grow it by live insertion; every
        // adjacency list must come out byte-for-byte equal to the
        // from-scratch build (the mutability parity contract).
        let (head, _) = w.base.clone().split_at(1);
        let cfg = HnswConfig {
            m: 8,
            ef_construction: 60,
            seed: 0,
            ..Default::default()
        };
        let mut grown = Hnsw::build(&head, &cfg).unwrap();
        let mut visited = VisitedSet::new(grown.len());
        while grown.len() < w.base.len() {
            grown.insert_next(&w.base, &mut visited).unwrap();
        }
        assert_eq!(grown.entry(), full.entry());
        assert_eq!(grown.max_level(), full.max_level());
        for id in 0..full.len() as u32 {
            assert_eq!(
                grown.node_levels(id),
                full.node_levels(id),
                "levels of {id}"
            );
            for lev in 0..full.node_levels(id) {
                assert_eq!(
                    grown.neighbors(id, lev),
                    full.neighbors(id, lev),
                    "id {id} level {lev}"
                );
            }
        }
    }

    #[test]
    fn insert_next_validates_input() {
        let w = workload(50);
        let mut g = build(&w);
        let mut visited = VisitedSet::new(g.len());
        // The row source must already contain the row being inserted.
        assert!(matches!(
            g.insert_next(&w.base, &mut visited),
            Err(IndexError::Config(_))
        ));
        let narrow = VecSet::from_rows(3, &[vec![0.0; 3]]).unwrap();
        assert!(matches!(
            g.insert_next(&narrow, &mut visited),
            Err(IndexError::Dimension { .. })
        ));
    }

    #[test]
    fn filtered_search_repairs_results_without_consuming_k_slots() {
        use ddc_core::Dco as _;
        let w = workload(600);
        let g = build(&w);
        let dco = Exact::build(&w.base);
        let k = 10;
        let q = w.queries.get(0);
        let mut visited = VisitedSet::new(g.len());
        let mut eval = dco.begin(q);
        let full = g.search_eval_filtered(&mut eval, k, 80, &mut visited, &|_| true);
        // Tombstone the best hit: the filtered search must still fill all
        // k slots with live ids and never return the dead one.
        let dead = full.neighbors[0].id;
        let mut eval = dco.begin(q);
        let filtered = g.search_eval_filtered(&mut eval, k, 80, &mut visited, &|id| id != dead);
        assert_eq!(filtered.neighbors.len(), k);
        assert!(filtered.neighbors.iter().all(|n| n.id != dead));
        // The surviving results are exactly the full results minus the
        // dead id, topped up by the next-best live candidate.
        assert_eq!(filtered.neighbors[0].id, full.neighbors[1].id);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = workload(300);
        let a = build(&w);
        let b = build(&w);
        assert_eq!(a.entry(), b.entry());
        assert_eq!(a.max_level(), b.max_level());
        for id in 0..a.len() as u32 {
            assert_eq!(a.neighbors(id, 0), b.neighbors(id, 0));
        }
    }

    #[test]
    fn single_point_graph() {
        let base = VecSet::from_rows(4, &[vec![1.0, 2.0, 3.0, 4.0]]).unwrap();
        let g = Hnsw::build(&base, &HnswConfig::default()).unwrap();
        let dco = Exact::build(&base);
        let r = g.search(&dco, &[0.0; 4], 5, 10).unwrap();
        assert_eq!(r.neighbors.len(), 1);
        assert_eq!(r.neighbors[0].id, 0);
    }

    #[test]
    fn build_errors() {
        let empty = VecSet::new(4);
        assert!(matches!(
            Hnsw::build(&empty, &HnswConfig::default()),
            Err(IndexError::Empty)
        ));
        let w = workload(50);
        assert!(Hnsw::build(
            &w.base,
            &HnswConfig {
                m: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(Hnsw::build(
            &w.base,
            &HnswConfig {
                ef_construction: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn query_dimension_checked() {
        let w = workload(100);
        let g = build(&w);
        let dco = Exact::build(&w.base);
        assert!(matches!(
            g.search(&dco, &[0.0; 3], 5, 10),
            Err(IndexError::Dimension { .. })
        ));
    }

    #[test]
    fn stats_accessors() {
        let w = workload(400);
        let g = build(&w);
        assert_eq!(g.len(), 400);
        assert!(!g.is_empty());
        assert!(g.avg_degree() > 1.0);
        assert!(g.memory_bytes() > 0);
        assert_eq!(*g.metric(), ddc_linalg::Metric::L2);
    }

    #[test]
    fn metric_graph_search_reaches_metric_neighbors() {
        // Build the graph and the DCO under the same non-L2 metric; the
        // search must recover the brute-force top-k of that metric.
        let w = workload(800);
        let k = 10;
        for metric in [Metric::InnerProduct, Metric::Cosine] {
            let g = Hnsw::build(
                &w.base,
                &HnswConfig {
                    m: 8,
                    ef_construction: 60,
                    seed: 0,
                    metric: metric.clone(),
                },
            )
            .unwrap();
            assert_eq!(*g.metric(), metric);
            let dco = Exact::build_metric(&w.base, metric.clone()).unwrap();
            let mut hits = 0usize;
            let mut total = 0usize;
            for qi in 0..w.queries.len().min(10) {
                let q = w.queries.get(qi);
                let mut truth: Vec<Neighbor> = (0..w.base.len())
                    .map(|i| Neighbor {
                        id: i as u32,
                        dist: metric.distance(w.base.get(i), q),
                    })
                    .collect();
                truth.sort_unstable();
                let want: Vec<u32> = truth[..k].iter().map(|n| n.id).collect();
                let got = g.search(&dco, q, k, 80).unwrap().ids();
                total += k;
                hits += got.iter().filter(|id| want.contains(id)).count();
            }
            let recall = hits as f64 / total as f64;
            assert!(recall > 0.85, "{metric}: recall={recall}");
        }
    }

    #[test]
    fn wl2_weight_count_mismatch_rejected_at_build() {
        let w = workload(50);
        let cfg = HnswConfig {
            metric: Metric::WeightedL2([1.0f32, 2.0].into()),
            ..Default::default()
        };
        assert!(Hnsw::build(&w.base, &cfg).is_err());
    }
}

//! Inverted-file index (paper §II-A, "IVF").
//!
//! Build: k-means over the base vectors; one bucket (posting list) per
//! centroid. Query: rank centroids by distance to `q` in the original
//! space, scan the `nprobe` nearest buckets, and refine every member
//! through the DCO against the running top-`k` threshold — this refinement
//! loop is where distance computation takes ~90% of IVF's query time and
//! where the paper's operators plug in. Centroid ranking (`l2_sq`) rides
//! the runtime-dispatched SIMD kernels of [`ddc_linalg::kernels`].

use crate::search_index::removal_plan;
use crate::{IndexError, Result, SearchResult};
use ddc_cluster::{train as kmeans_train, KMeansConfig};
use ddc_core::{Dco, Decision, QueryDco};
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::{Neighbor, TopK, VecSet};

/// IVF build configuration.
#[derive(Debug, Clone)]
pub struct IvfConfig {
    /// Number of clusters (the paper uses 4096 at million scale; scale as
    /// roughly `√n` below that).
    pub nlist: usize,
    /// k-means iterations.
    pub train_iters: usize,
    /// Seed.
    pub seed: u64,
    /// Threads for clustering (`0` = auto).
    pub threads: usize,
    /// Bucket-assignment and centroid-ranking distance. Centroid
    /// *training* stays plain L2 k-means (centroids are coordinate
    /// means); under a non-L2 metric every row is then reassigned to the
    /// metric-nearest centroid so assignment, append, and query-time
    /// probing share one geometry. L2 is the unchanged original path.
    pub metric: Metric,
}

impl IvfConfig {
    /// Defaults for `nlist` clusters.
    pub fn new(nlist: usize) -> Self {
        Self {
            nlist,
            train_iters: 15,
            seed: 0x1BF,
            threads: 0,
            metric: Metric::L2,
        }
    }

    /// A `√n`-scaled default cluster count.
    pub fn auto(n: usize) -> Self {
        Self::new(((n as f64).sqrt() as usize).clamp(1, 4096))
    }
}

/// A built IVF index.
#[derive(Debug, Clone)]
pub struct Ivf {
    centroids: VecSet,
    lists: Vec<Vec<u32>>,
    metric: Metric,
}

impl Ivf {
    /// Clusters `base` and assigns every vector to its bucket.
    ///
    /// # Errors
    /// Propagates clustering failures; rejects empty input and `nlist == 0`.
    pub fn build(base: &VecSet, cfg: &IvfConfig) -> Result<Ivf> {
        Ivf::build_rows(base, cfg)
    }

    /// [`Ivf::build`] over any [`RowAccess`] source — k-means reads rows
    /// straight from the store (the assignment threads only need the
    /// trait's `Sync` bound), one shared code path, bit-identical
    /// centroids and buckets.
    ///
    /// # Errors
    /// Same contract as [`Ivf::build`].
    pub fn build_rows<R: RowAccess + ?Sized>(base: &R, cfg: &IvfConfig) -> Result<Ivf> {
        if base.is_empty() {
            return Err(IndexError::Empty);
        }
        if cfg.nlist == 0 {
            return Err(IndexError::Config("nlist must be positive".into()));
        }
        cfg.metric
            .validate_dim(base.dim())
            .map_err(|e| IndexError::Config(format!("ivf: {e}")))?;
        let nlist = cfg.nlist.min(base.len());
        let mut kcfg = KMeansConfig::new(nlist);
        kcfg.max_iters = cfg.train_iters;
        kcfg.seed = cfg.seed;
        kcfg.threads = cfg.threads;
        let model = kmeans_train(base, &kcfg)?;
        let mut lists = vec![Vec::new(); nlist];
        if cfg.metric == Metric::L2 {
            for (i, &c) in model.assignments.iter().enumerate() {
                lists[c as usize].push(i as u32);
            }
        } else {
            // Reassign under the serving metric so build, append, and
            // probe share one geometry (see `IvfConfig::metric`).
            for i in 0..base.len() {
                let c = nearest_centroid(&model.centroids, base.row(i), &cfg.metric);
                lists[c].push(i as u32);
            }
        }
        Ok(Ivf {
            centroids: model.centroids,
            lists,
            metric: cfg.metric.clone(),
        })
    }

    /// Number of buckets.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Persisted parts: centroids + posting lists.
    pub(crate) fn parts(&self) -> (&VecSet, &[Vec<u32>]) {
        (&self.centroids, &self.lists)
    }

    /// Reassembles an index from persisted parts (metric defaults to L2;
    /// loaders re-tag via [`Ivf::with_metric`] — the file format does not
    /// store it).
    pub(crate) fn from_parts(centroids: VecSet, lists: Vec<Vec<u32>>) -> Ivf {
        Ivf {
            centroids,
            lists,
            metric: Metric::L2,
        }
    }

    /// The bucket-assignment / probing metric.
    pub fn metric(&self) -> &Metric {
        &self.metric
    }

    /// Re-tags the index with its serving metric (the loader's injection
    /// point, mirroring [`crate::Hnsw::with_metric`]).
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Ivf {
        self.metric = metric;
        self
    }

    /// Index memory: centroids + posting lists (Fig. 7 space accounting).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.centroids.as_flat())
            + self
                .lists
                .iter()
                .map(|l| l.len() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// The bucket ids ordered by centroid distance to `q` (in the index's
    /// metric, so probing follows the same geometry as assignment).
    pub fn rank_buckets(&self, q: &[f32]) -> Vec<u32> {
        let mut order: Vec<Neighbor> = (0..self.centroids.len())
            .map(|c| Neighbor {
                dist: self.metric.distance(self.centroids.get(c), q),
                id: c as u32,
            })
            .collect();
        order.sort_unstable();
        order.into_iter().map(|n| n.id).collect()
    }

    /// Searches the `nprobe` nearest buckets for the `k` nearest neighbors,
    /// refining through `dco`.
    ///
    /// # Errors
    /// [`IndexError::Dimension`] when `q` has the wrong dimensionality.
    pub fn search<D: Dco>(
        &self,
        dco: &D,
        q: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<SearchResult> {
        if q.len() != self.centroids.dim() {
            return Err(IndexError::Dimension {
                expected: self.centroids.dim(),
                actual: q.len(),
            });
        }
        let mut eval = dco.begin(q);
        Ok(self.search_eval_filtered(&mut eval, q, k, nprobe, &|_| true))
    }

    /// [`Ivf::search`] through an already-prepared evaluator — the entry
    /// point for batched search (evaluators prepared up front, rotation
    /// amortized) and dynamic dispatch (`Q = dyn DynQueryDco`) — with a
    /// liveness filter, the tombstone hook. `q` is still needed in the
    /// original space for centroid ranking; the caller is responsible for
    /// the dimension check. Dead ids are skipped before they reach the
    /// DCO, so they cost no distance work and cannot consume a `k` slot.
    /// The unfiltered paths pass the literal `&|_| true`, which
    /// monomorphises the hook away.
    pub fn search_eval_filtered<Q: QueryDco + ?Sized, F: Fn(u32) -> bool + ?Sized>(
        &self,
        eval: &mut Q,
        q: &[f32],
        k: usize,
        nprobe: usize,
        live: &F,
    ) -> SearchResult {
        let nprobe = nprobe.clamp(1, self.lists.len());
        let order = self.rank_buckets(q);
        let mut top = TopK::new(k.max(1));
        for &bucket in order.iter().take(nprobe) {
            for &id in &self.lists[bucket as usize] {
                if !live(id) {
                    continue;
                }
                let tau = top.tau();
                if let Decision::Exact(d) = eval.test(id, tau) {
                    top.offer(id, d);
                }
            }
        }
        SearchResult {
            neighbors: top.into_sorted(),
            counters: eval.counters(),
            elapsed_nanos: 0,
        }
    }

    /// Appends rows `start..rows.len()` of `rows` to the index: each new
    /// row joins the posting list of its nearest centroid (ids are the
    /// row indices). The centroids themselves are untouched — k-means is
    /// only re-run when a compaction rebuilds the index — so an appended
    /// IVF is a valid index over the grown set but not bit-identical to a
    /// fresh build (the fold-compaction path restores that).
    ///
    /// # Errors
    /// [`IndexError::Dimension`] on a row dimensionality mismatch;
    /// [`IndexError::Config`] when `start` does not match the indexed
    /// row count.
    pub fn append_rows<R: RowAccess + ?Sized>(&mut self, rows: &R, start: usize) -> Result<()> {
        if rows.dim() != self.centroids.dim() {
            return Err(IndexError::Dimension {
                expected: self.centroids.dim(),
                actual: rows.dim(),
            });
        }
        let indexed: usize = self.lists.iter().map(Vec::len).sum();
        if start != indexed {
            return Err(IndexError::Config(format!(
                "append starts at row {start} but {indexed} rows are indexed"
            )));
        }
        for i in start..rows.len() {
            let best = nearest_centroid(&self.centroids, rows.row(i), &self.metric);
            self.lists[best].push(i as u32);
        }
        Ok(())
    }

    /// Physically removes the rows flagged in `dead_mask` from every
    /// posting list and renumbers the survivors densely in their old
    /// order. Centroids are untouched (k-means only re-runs on a fold).
    ///
    /// # Errors
    /// [`IndexError::Config`] when the mask does not cover exactly the
    /// indexed rows; [`IndexError::Empty`] when no row would survive.
    pub fn remove_rows(&mut self, dead_mask: &[bool]) -> Result<()> {
        let indexed: usize = self.lists.iter().map(Vec::len).sum();
        let Some(new_ids) = removal_plan(indexed, dead_mask)? else {
            return Ok(());
        };
        for list in &mut self.lists {
            list.retain(|&id| !dead_mask[id as usize]);
            for id in list {
                *id = new_ids[*id as usize];
            }
        }
        Ok(())
    }
}

/// Index of the centroid nearest to `row` under `metric`.
fn nearest_centroid(centroids: &VecSet, row: &[f32], metric: &Metric) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for c in 0..centroids.len() {
        let d = metric.distance(centroids.get(c), row);
        if d < best_d {
            best = c;
            best_d = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_core::{DdcRes, DdcResConfig, Exact};
    use ddc_linalg::kernels::l2_sq;
    use ddc_vecs::{GroundTruth, SynthSpec};

    fn workload() -> ddc_vecs::Workload {
        let mut spec = SynthSpec::tiny_test(16, 1000, 71);
        spec.clusters = 10;
        spec.generate()
    }

    #[test]
    fn all_points_land_in_some_bucket() {
        let w = workload();
        let ivf = Ivf::build(&w.base, &IvfConfig::new(16)).unwrap();
        let total: usize = (0..ivf.nlist()).map(|b| ivf.lists[b].len()).sum();
        assert_eq!(total, w.base.len());
    }

    #[test]
    fn full_probe_equals_exact_scan() {
        let w = workload();
        let ivf = Ivf::build(&w.base, &IvfConfig::new(8)).unwrap();
        let gt = GroundTruth::compute(&w.base, &w.queries, 10, 0).unwrap();
        let dco = Exact::build(&w.base);
        for qi in 0..w.queries.len() {
            let r = ivf.search(&dco, w.queries.get(qi), 10, 8).unwrap();
            assert_eq!(r.ids(), gt.ids[qi], "query {qi}");
        }
    }

    #[test]
    fn recall_increases_with_nprobe() {
        let w = workload();
        let ivf = Ivf::build(&w.base, &IvfConfig::new(16)).unwrap();
        let k = 10;
        let gt = GroundTruth::compute(&w.base, &w.queries, k, 0).unwrap();
        let dco = Exact::build(&w.base);
        let recall_at = |nprobe: usize| {
            let mut results = Vec::new();
            for qi in 0..w.queries.len() {
                results.push(
                    ivf.search(&dco, w.queries.get(qi), k, nprobe)
                        .unwrap()
                        .ids(),
                );
            }
            ddc_vecs::recall(&results, &gt, k)
        };
        let r1 = recall_at(1);
        let r4 = recall_at(4);
        let r16 = recall_at(16);
        assert!(r4 >= r1 - 1e-9);
        assert!(r16 >= r4 - 1e-9);
        assert!((r16 - 1.0).abs() < 1e-9, "full probe must be exact");
    }

    #[test]
    fn ddcres_matches_exact_recall_with_less_work() {
        let w = workload();
        let ivf = Ivf::build(&w.base, &IvfConfig::new(16)).unwrap();
        let k = 10;
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
        let run = |dco: &dyn Fn(usize) -> SearchResult| {
            let mut results = Vec::new();
            for qi in 0..w.queries.len() {
                results.push(dco(qi).ids());
            }
            results
        };
        let exact_results = run(&|qi| ivf.search(&exact, w.queries.get(qi), k, 8).unwrap());
        let res_results = run(&|qi| ivf.search(&res, w.queries.get(qi), k, 8).unwrap());
        let r_exact = ddc_vecs::recall(&exact_results, &gt, k);
        let r_res = ddc_vecs::recall(&res_results, &gt, k);
        assert!(r_res > r_exact - 0.03, "exact={r_exact} res={r_res}");

        // And DDCres must have scanned fewer dimensions in refinement.
        let mut c_res = ddc_core::Counters::new();
        for qi in 0..w.queries.len() {
            c_res.merge(&ivf.search(&res, w.queries.get(qi), k, 8).unwrap().counters);
        }
        assert!(c_res.scan_rate() < 0.95, "scan_rate={}", c_res.scan_rate());
    }

    #[test]
    fn append_assigns_to_nearest_centroid() {
        let w = workload();
        let n0 = w.base.len() - 50;
        let (head, _) = w.base.clone().split_at(n0);
        let mut ivf = Ivf::build(&head, &IvfConfig::new(8)).unwrap();
        ivf.append_rows(&w.base, n0).unwrap();
        let total: usize = (0..ivf.nlist()).map(|b| ivf.lists[b].len()).sum();
        assert_eq!(total, w.base.len());
        // Every appended id landed in the bucket whose centroid is
        // closest to its row.
        for b in 0..ivf.nlist() {
            for &id in &ivf.lists[b] {
                if (id as usize) < n0 {
                    continue;
                }
                let row = w.base.get(id as usize);
                let d_own = l2_sq(ivf.centroids.get(b), row);
                for c in 0..ivf.nlist() {
                    assert!(d_own <= l2_sq(ivf.centroids.get(c), row) + 1e-6);
                }
            }
        }
        // A full probe over the grown index finds an appended row as its
        // own nearest neighbor.
        let dco = Exact::build(&w.base);
        let r = ivf.search(&dco, w.base.get(n0), 1, ivf.nlist()).unwrap();
        assert_eq!(r.ids(), vec![n0 as u32]);
        // Wrong start offset and wrong dimensionality are rejected.
        assert!(ivf.append_rows(&w.base, n0).is_err());
        let narrow = VecSet::from_rows(3, &[vec![0.0; 3]]).unwrap();
        assert!(ivf.append_rows(&narrow, w.base.len()).is_err());
    }

    #[test]
    fn filtered_search_skips_dead_ids() {
        use ddc_core::Dco as _;
        let w = workload();
        let ivf = Ivf::build(&w.base, &IvfConfig::new(8)).unwrap();
        let dco = Exact::build(&w.base);
        let q = w.queries.get(0);
        let full = ivf.search(&dco, q, 10, 8).unwrap();
        let dead = full.neighbors[0].id;
        let mut eval = dco.begin(q);
        let filtered = ivf.search_eval_filtered(&mut eval, q, 10, 8, &|id| id != dead);
        assert_eq!(filtered.neighbors.len(), 10);
        assert!(filtered.neighbors.iter().all(|n| n.id != dead));
        assert_eq!(filtered.neighbors[0].id, full.neighbors[1].id);
    }

    #[test]
    fn build_errors() {
        let empty = VecSet::new(4);
        assert!(matches!(
            Ivf::build(&empty, &IvfConfig::new(4)),
            Err(IndexError::Empty)
        ));
        let w = workload();
        assert!(matches!(
            Ivf::build(&w.base, &IvfConfig::new(0)),
            Err(IndexError::Config(_))
        ));
    }

    #[test]
    fn query_dimension_checked() {
        let w = workload();
        let ivf = Ivf::build(&w.base, &IvfConfig::new(4)).unwrap();
        let dco = Exact::build(&w.base);
        assert!(matches!(
            ivf.search(&dco, &[0.0; 3], 5, 2),
            Err(IndexError::Dimension { .. })
        ));
    }

    #[test]
    fn full_probe_under_ip_equals_brute_force() {
        let w = workload();
        let k = 10;
        let mut cfg = IvfConfig::new(8);
        cfg.metric = Metric::InnerProduct;
        let ivf = Ivf::build(&w.base, &cfg).unwrap();
        assert_eq!(*ivf.metric(), Metric::InnerProduct);
        let dco = Exact::build_metric(&w.base, Metric::InnerProduct).unwrap();
        for qi in 0..w.queries.len().min(8) {
            let q = w.queries.get(qi);
            let mut truth: Vec<Neighbor> = (0..w.base.len())
                .map(|i| Neighbor {
                    id: i as u32,
                    dist: Metric::InnerProduct.distance(w.base.get(i), q),
                })
                .collect();
            truth.sort_unstable();
            let want: Vec<u32> = truth[..k].iter().map(|n| n.id).collect();
            let got = ivf.search(&dco, q, k, 8).unwrap().ids();
            assert_eq!(got, want, "query {qi}");
        }
    }

    #[test]
    fn metric_assignment_consistent_between_build_and_append() {
        // Under a non-L2 metric, a row appended later must land in the
        // same bucket a fresh build assigns it to.
        let w = workload();
        let n0 = w.base.len() - 50;
        let (head, _) = w.base.clone().split_at(n0);
        let mut cfg = IvfConfig::new(8);
        cfg.metric = Metric::Cosine;
        let mut grown = Ivf::build(&head, &cfg).unwrap();
        grown.append_rows(&w.base, n0).unwrap();
        for b in 0..grown.nlist() {
            for &id in &grown.lists[b] {
                if (id as usize) < n0 {
                    continue;
                }
                let row = w.base.get(id as usize);
                let want = nearest_centroid(&grown.centroids, row, grown.metric());
                assert_eq!(b, want, "appended id {id}");
            }
        }
    }

    #[test]
    fn auto_config_scales() {
        assert_eq!(IvfConfig::auto(1_000_000).nlist, 1000);
        assert_eq!(IvfConfig::auto(100).nlist, 10);
        assert_eq!(IvfConfig::auto(1).nlist, 1);
    }

    #[test]
    fn memory_accounting_positive() {
        let w = workload();
        let ivf = Ivf::build(&w.base, &IvfConfig::new(8)).unwrap();
        assert!(ivf.memory_bytes() >= w.base.len() * 4);
    }
}

//! Mutation acceptance suite, grid-wide (3 indexes × 5 operators):
//!
//! 1. **Recall parity, build vs. insert** — an engine grown by
//!    upserting the second half of the dataset one row at a time and
//!    compacting in *append* mode must search as well as an engine
//!    built from scratch over the same rows, at the same fixed search
//!    parameters. For the data-independent operators over insert-order
//!    preserving indexes (flat, HNSW with its deterministic per-id
//!    levels) the two are **bit-identical**; everywhere else (IVF
//!    assigns appended rows to centroids trained on the initial prefix,
//!    data-driven operators transform appended rows through the stale
//!    rotation) recall@K must agree within a small tolerance.
//! 2. **Tombstone correctness** — a deleted id is never returned, even
//!    when the deleted row's own vector is the query, before and after
//!    the compaction that physically removes it.
//! 3. **Churn** — rounds of deletes, overwrites and inserts, each closed
//!    by an incremental *repair* compaction, keep the engine an index
//!    over exactly the live set (no dead row retained, recall within the
//!    same band of a fresh build), and a final `compact_full()` lands
//!    bit-identical to a fresh build whatever the repair history was.
//!
//! These pin the acceptance criteria of the live-mutability subsystem
//! at the engine level; `crates/server/tests/mutation_e2e.rs` repeats
//! the story over HTTP.
//!
//! Tolerance audit for similarity metrics: every recall tolerance here is
//! measured against the oracle of the **engine's own metric** (L2 cells
//! use the L2 [`GroundTruth`]; the ip/cosine cells below use
//! [`metric_oracle`]), so the ±0.10 fresh-vs-grown band and the 0.60
//! serving floor mean the same thing in every cell — they are never an
//! L2 yardstick applied to a similarity ranking. The pending-insert delta
//! scan is metric-aware ([`MutableEngine`] merges overlay candidates with
//! `Metric::distance`, pinned by `overlay_delta_merge_is_metric_aware` in
//! the crate's unit tests), which is what makes the grown-engine recall
//! under similarity metrics comparable at all.

use ddc_engine::{Engine, EngineConfig, Metric, MutableConfig, MutableEngine};
use ddc_index::SearchParams;
use ddc_vecs::{metric_oracle, recall, GroundTruth, SynthSpec, VecSet, Workload};
use std::sync::Arc;
use std::time::Duration;

const K: usize = 10;
const N: usize = 400;
const PREFIX: usize = 300;

const INDEX_SPECS: [&str; 3] = [
    "flat",
    // nprobe is pinned to nlist below, so IVF recall differences come
    // from the append path, not from probing fewer (re-trained) lists.
    "ivf(nlist=8,train_iters=6,seed=11)",
    "hnsw(m=6,ef_construction=40,seed=3)",
];
const DCO_SPECS: [&str; 5] = [
    "exact",
    "adsampling(epsilon0=2.1,delta_d=4,seed=2)",
    "ddcres(init_d=4,delta_d=4,seed=5)",
    "ddcpca(init_d=4,delta_d=4,seed=7)",
    "ddcopq(m=4,nbits=4,opq_iters=2,seed=9)",
];

/// Cells where grown and from-scratch engines must be bit-identical:
/// insert-order-preserving index (flat / HNSW) × data-independent
/// operator (appends replay the exact construction path).
fn expect_bit_identical(index: &str, dco: &str) -> bool {
    !index.starts_with("ivf") && (dco == "exact" || dco.starts_with("adsampling"))
}

fn workload() -> Workload {
    SynthSpec::tiny_test(16, N, 2031).generate()
}

fn params() -> SearchParams {
    SearchParams::new().with_ef(60).with_nprobe(8)
}

fn prefix_rows(w: &Workload) -> VecSet {
    w.base.select(&(0..PREFIX).collect::<Vec<_>>())
}

/// Grows an engine from the first `PREFIX` rows to all `N` by upserting
/// one row at a time, then compacts. Returns the mutable engine and the
/// compaction mode it used.
fn grow(
    w: &Workload,
    index: &str,
    dco: &str,
    metric: &Metric,
) -> (Arc<MutableEngine>, &'static str) {
    let cfg = EngineConfig::from_strs(index, dco)
        .unwrap()
        .with_params(params())
        .with_metric(metric.clone());
    let mcfg = MutableConfig {
        compact_threshold: 0,
        compact_interval: Duration::from_secs(3600), // only explicit compactions
        max_stale_rows: 10 * N,                      // never force a re-training fold
    };
    let me =
        MutableEngine::build(prefix_rows(w), Some(w.train_queries.clone()), cfg, mcfg).unwrap();
    for id in PREFIX..N {
        me.upsert(id as u32, w.base.get(id)).unwrap();
    }
    let report = me.compact().unwrap();
    assert_eq!(report.len, N, "{index} x {dco}: all rows folded");
    (me, report.mode)
}

fn search_ids(engine: &Engine, w: &Workload, p: &SearchParams) -> Vec<Vec<u32>> {
    (0..w.queries.len())
        .map(|qi| engine.search_with(w.queries.get(qi), K, p).unwrap().ids())
        .collect()
}

#[test]
fn grown_engines_match_fresh_builds_across_the_grid() {
    let w = workload();
    let gt = GroundTruth::compute(&w.base, &w.queries, K, 0).unwrap();
    let p = params();
    for index in INDEX_SPECS {
        for dco in DCO_SPECS {
            let cfg = EngineConfig::from_strs(index, dco).unwrap().with_params(p);
            let fresh = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
            let (me, mode) = grow(&w, index, dco, &Metric::L2);
            assert_eq!(
                mode, "append",
                "{index} x {dco}: pure growth must take the append path"
            );
            let grown = me.handle().engine();

            let fresh_ids = search_ids(&fresh, &w, &p);
            let grown_ids = search_ids(&grown, &w, &p);
            if expect_bit_identical(index, dco) {
                for qi in 0..w.queries.len() {
                    let a = fresh.search_with(w.queries.get(qi), K, &p).unwrap();
                    let b = grown.search_with(w.queries.get(qi), K, &p).unwrap();
                    let bits = |r: &ddc_index::SearchResult| {
                        r.neighbors
                            .iter()
                            .map(|n| (n.id, n.dist.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(
                        bits(&a),
                        bits(&b),
                        "{index} x {dco} query {qi}: grown engine diverged bit-wise"
                    );
                }
            }
            let r_fresh = recall(&fresh_ids, &gt, K);
            let r_grown = recall(&grown_ids, &gt, K);
            assert!(
                (r_fresh - r_grown).abs() <= 0.10,
                "{index} x {dco}: recall diverged — fresh {r_fresh:.3} vs grown {r_grown:.3}"
            );
            // Both must actually search well; a tolerance between two
            // broken engines would prove nothing.
            assert!(
                r_grown >= 0.60,
                "{index} x {dco}: grown recall {r_grown:.3} is too low to be serving"
            );
        }
    }
}

/// Recall of `engine` against the exact oracle for `metric`, averaged
/// over the workload's queries.
fn recall_vs_oracle(engine: &Engine, w: &Workload, p: &SearchParams, metric: &Metric) -> f64 {
    let mut acc = 0.0;
    for qi in 0..w.queries.len() {
        let q = w.queries.get(qi);
        let oracle = metric_oracle::top_k(&w.base, q, K, metric);
        let ids = engine.search_with(q, K, p).unwrap().ids();
        acc += metric_oracle::recall_against(&oracle, &ids);
    }
    acc / w.queries.len() as f64
}

/// The build-vs-insert recall contract under similarity metrics: grow an
/// ip/cosine engine by upserts, compact in append mode, and hold the
/// grown engine to the same ±0.10 band and 0.60 floor as the L2 grid —
/// each cell judged by its **own** metric's oracle. The exact cells over
/// insert-order-preserving indexes must additionally stay bit-identical:
/// metric prep (normalization) is per-row and deterministic, so appends
/// replay construction exactly.
#[test]
fn grown_engines_keep_recall_under_similarity_metrics() {
    let w = workload();
    let p = params();
    for metric in [Metric::InnerProduct, Metric::Cosine] {
        for index in ["flat", "hnsw(m=6,ef_construction=40,seed=3)"] {
            for dco in ["exact", "ddcres(init_d=4,delta_d=4,seed=5)"] {
                let cfg = EngineConfig::from_strs(index, dco)
                    .unwrap()
                    .with_params(p)
                    .with_metric(metric.clone());
                let fresh = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
                let (me, mode) = grow(&w, index, dco, &metric);
                assert_eq!(mode, "append", "{} {index} x {dco}", metric.name());
                let grown = me.handle().engine();

                if dco == "exact" {
                    for qi in 0..w.queries.len() {
                        let a = fresh.search_with(w.queries.get(qi), K, &p).unwrap();
                        let b = grown.search_with(w.queries.get(qi), K, &p).unwrap();
                        let bits = |r: &ddc_index::SearchResult| {
                            r.neighbors
                                .iter()
                                .map(|n| (n.id, n.dist.to_bits()))
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(
                            bits(&a),
                            bits(&b),
                            "{} {index} x {dco} query {qi}: grown engine diverged bit-wise",
                            metric.name()
                        );
                    }
                }
                let r_fresh = recall_vs_oracle(&fresh, &w, &p, &metric);
                let r_grown = recall_vs_oracle(&grown, &w, &p, &metric);
                let ctx = format!("{} {index} x {dco}", metric.name());
                assert!(
                    (r_fresh - r_grown).abs() <= 0.10,
                    "{ctx}: recall diverged — fresh {r_fresh:.3} vs grown {r_grown:.3}"
                );
                assert!(
                    r_grown >= 0.60,
                    "{ctx}: grown recall {r_grown:.3} is too low to be serving"
                );
            }
        }
    }
}

#[test]
fn deleted_ids_are_never_returned_across_the_grid() {
    let w = workload();
    let p = params();
    // Delete rows and then search with the deleted rows' own vectors —
    // the strongest bait: each would rank first if tombstones leaked.
    let doomed: Vec<u32> = (0..20).map(|i| (i * 17 % N) as u32).collect();
    for index in INDEX_SPECS {
        for dco in DCO_SPECS {
            let cfg = EngineConfig::from_strs(index, dco).unwrap().with_params(p);
            let mcfg = MutableConfig {
                compact_threshold: 0,
                compact_interval: Duration::from_secs(3600),
                max_stale_rows: 10 * N,
            };
            let me = MutableEngine::build(w.base.clone(), Some(w.train_queries.clone()), cfg, mcfg)
                .unwrap();
            for &id in &doomed {
                assert!(me.delete(id), "{index} x {dco}: row {id} was live");
            }
            let assert_gone = |engine: &Engine, phase: &str| {
                for &id in &doomed {
                    let r = engine.search_with(w.base.get(id as usize), K, &p).unwrap();
                    assert!(
                        r.neighbors.iter().all(|n| !doomed.contains(&n.id)),
                        "{index} x {dco} ({phase}): deleted id surfaced for query {id}"
                    );
                }
            };
            assert_gone(&me.handle().engine(), "tombstoned");
            let report = me.compact().unwrap();
            assert_eq!(report.mode, "repair");
            assert_eq!(report.dropped, doomed.len());
            assert_gone(&me.handle().engine(), "compacted");
            assert_eq!(me.mutation_stats().live, N - doomed.len());
            assert_eq!(me.handle().engine().len(), N - doomed.len());
        }
    }
}

/// The live set as the engine orders it: surviving base rows in base
/// order, then each compaction's inserts in arrival order — the order a
/// fold rebuilds in, so a fresh build over `rows()` is the fold's twin.
struct Mirror {
    live: Vec<(u32, Vec<f32>)>,
    dead: Vec<u32>,
    next_id: u32,
}

impl Mirror {
    fn rows(&self) -> VecSet {
        let mut rows = VecSet::new(self.live[0].1.len());
        for (_, v) in &self.live {
            rows.push(v).unwrap();
        }
        rows
    }

    /// One round of churn against `me`: delete 5 % of the live ids, then
    /// upsert 7.5 % (two-thirds new ids, one-third overwrites of live
    /// ones). Every pick is a pure function of `round`.
    fn churn(&mut self, me: &MutableEngine, w: &Workload, round: usize) -> Vec<(u32, Vec<f32>)> {
        let n = self.live.len();
        let stride = |count: usize, offset: usize| {
            (0..count).map(move |j| (offset + round + j * (n / count)) % n)
        };
        let mut doomed: Vec<usize> = stride(n / 20, 0).collect();
        let overwritten: Vec<usize> = stride(n / 40, 7).filter(|p| !doomed.contains(p)).collect();
        let blend = |a: usize, b: usize| -> Vec<f32> {
            let (x, y) = (w.base.get(a % N), w.base.get(b % N));
            x.iter().zip(y).map(|(p, q)| 0.5 * (p + q)).collect()
        };

        let mut upserts: Vec<(u32, Vec<f32>)> = overwritten
            .iter()
            .map(|&pos| (self.live[pos].0, blend(pos + round, 3 * pos + 1)))
            .collect();
        for j in 0..n / 20 {
            upserts.push((self.next_id, blend(11 * j + round, 5 * j + 2 * round + 1)));
            self.next_id += 1;
        }

        let baits: Vec<(u32, Vec<f32>)> = doomed.iter().map(|&p| self.live[p].clone()).collect();
        for (id, _) in &baits {
            assert!(me.delete(*id), "round {round}: {id} was live");
            self.dead.push(*id);
        }
        for (id, v) in &upserts {
            let replaced = me.upsert(*id, v).unwrap();
            assert_eq!(
                replaced,
                *id < self.next_id - (n / 20) as u32,
                "round {round}"
            );
        }
        doomed.extend(overwritten);
        doomed.sort_unstable();
        for pos in doomed.into_iter().rev() {
            self.live.remove(pos);
        }
        self.live.extend(upserts);
        baits
    }
}

#[test]
fn churn_rounds_repair_in_place_and_fold_back_to_a_fresh_build() {
    let w = workload();
    let p = params();
    for index in INDEX_SPECS {
        for dco in DCO_SPECS {
            let ctx = format!("{index} x {dco}");
            let cfg = EngineConfig::from_strs(index, dco).unwrap().with_params(p);
            let mcfg = MutableConfig {
                compact_threshold: 0,
                compact_interval: Duration::from_secs(3600),
                max_stale_rows: 10 * N,
            };
            let me = MutableEngine::build(
                w.base.clone(),
                Some(w.train_queries.clone()),
                cfg.clone(),
                mcfg,
            )
            .unwrap();
            let mut mirror = Mirror {
                live: (0..N).map(|i| (i as u32, w.base.get(i).to_vec())).collect(),
                dead: Vec::new(),
                next_id: N as u32,
            };
            let assert_gone = |mirror: &Mirror, baits: &[(u32, Vec<f32>)], phase: &str| {
                let engine = me.handle().engine();
                for (id, v) in baits {
                    let r = engine.search_with(v, K, &p).unwrap();
                    assert!(
                        r.neighbors.iter().all(|n| !mirror.dead.contains(&n.id)),
                        "{ctx} ({phase}): a dead id surfaced for bait {id}"
                    );
                }
            };

            for round in 0..5 {
                let baits = mirror.churn(&me, &w, round);
                assert_gone(&mirror, &baits, "tombstoned");
                let report = me.compact().unwrap();
                assert_eq!(report.mode, "repair", "{ctx} round {round}");
                assert_eq!(report.len, mirror.live.len(), "{ctx} round {round}");
                assert_gone(&mirror, &baits, "repaired");
                let stats = me.mutation_stats();
                assert_eq!(stats.live, mirror.live.len(), "{ctx} round {round}");
                assert_eq!(stats.base_len, mirror.live.len(), "{ctx} round {round}");
                assert_eq!((stats.tombstones, stats.pending_inserts), (0, 0), "{ctx}");
                assert_eq!(me.handle().engine().len(), mirror.live.len(), "{ctx}");
            }

            // Five repairs later the engine still searches like a fresh
            // build over the same live set.
            let rows = mirror.rows();
            let ext = |ids: Vec<u32>| -> Vec<u32> {
                ids.into_iter().map(|i| mirror.live[i as usize].0).collect()
            };
            let fresh = Engine::build(&rows, Some(&w.train_queries), cfg.clone()).unwrap();
            let repaired = me.handle().engine();
            let (mut r_fresh, mut r_repaired) = (0.0, 0.0);
            for qi in 0..w.queries.len() {
                let q = w.queries.get(qi);
                let oracle = metric_oracle::top_k(&rows, q, K, &Metric::L2);
                let oracle: Vec<_> = oracle
                    .into_iter()
                    .map(|mut n| {
                        n.id = mirror.live[n.id as usize].0;
                        n
                    })
                    .collect();
                let got = ext(fresh.search_with(q, K, &p).unwrap().ids());
                r_fresh += metric_oracle::recall_against(&oracle, &got);
                let got = repaired.search_with(q, K, &p).unwrap().ids();
                r_repaired += metric_oracle::recall_against(&oracle, &got);
            }
            let nq = w.queries.len() as f64;
            let (r_fresh, r_repaired) = (r_fresh / nq, r_repaired / nq);
            assert!(
                (r_fresh - r_repaired).abs() <= 0.10,
                "{ctx}: recall diverged — fresh {r_fresh:.3} vs repaired {r_repaired:.3}"
            );
            assert!(r_repaired >= 0.60, "{ctx}: repaired recall {r_repaired:.3}");

            // One more delete, then a forced fold: whatever the repairs
            // did to the graph, the rebuild is a fresh build's twin.
            let (last, _) = mirror.live.remove(3);
            assert!(me.delete(last));
            let report = me.compact_full().unwrap();
            assert_eq!(report.mode, "fold", "{ctx}");
            let rows = mirror.rows();
            let fresh = Engine::build(&rows, Some(&w.train_queries), cfg).unwrap();
            let folded = me.handle().engine();
            for qi in 0..w.queries.len() {
                let a = folded.search_with(w.queries.get(qi), K, &p).unwrap();
                let b = fresh.search_with(w.queries.get(qi), K, &p).unwrap();
                let b_ids: Vec<u32> = b.ids().iter().map(|&i| mirror.live[i as usize].0).collect();
                assert_eq!(a.ids(), b_ids, "{ctx} query {qi}: ids");
                let bits = |r: &ddc_index::SearchResult| {
                    r.neighbors
                        .iter()
                        .map(|n| n.dist.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&a), bits(&b), "{ctx} query {qi}: distance bits");
                assert_eq!(a.counters, b.counters, "{ctx} query {qi}: work counters");
            }
        }
    }
}

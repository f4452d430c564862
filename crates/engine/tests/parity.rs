//! The engine parity suite: dynamic dispatch and batching must be
//! invisible in results.
//!
//! Three contracts, all **exact** (no tolerances):
//!
//! 1. For every `IndexSpec × DcoSpec` combination (3 indexes × 5
//!    operators), [`Engine`] returns bit-identical top-k ids and distances
//!    to the direct generic path — the statically-dispatched inherent
//!    `search` methods fed concrete DCO types with the *same* parsed
//!    configuration.
//! 2. [`Engine::search_batch`] returns bit-identical results to
//!    sequential [`Engine::search`] calls — batched rotation amortizes
//!    memory traffic without perturbing a single bit (the
//!    `matvec_batch_bit_identical_to_per_query` property in `ddc-linalg`
//!    is the kernel-level half of this contract).
//! 3. [`Engine::search_group`] — the one group entry point the server
//!    answers every search request with — is bit-identical to solo
//!    searches, filtered or not.
//!
//! The first two contracts — plus the store-vs-RAM and snapshot-vs-built ones —
//! are additionally swept across the non-L2 metrics (inner product,
//! cosine, weighted-L2): changing the metric must change *which*
//! neighbors win, never whether the execution paths agree bit-for-bit.

use ddc_core::{AdSampling, Dco, DcoSpec, DdcOpq, DdcPca, DdcRes, Exact, QueryBatch};
use ddc_engine::{Engine, EngineConfig, FilterPredicate, Metric, MutableConfig, MutableEngine};
use ddc_index::{FlatIndex, Hnsw, IndexSpec, Ivf, SearchParams, SearchResult};
use ddc_vecs::{SharedRows, SynthSpec, Workload};

const K: usize = 10;

const INDEX_SPECS: [&str; 3] = [
    "flat",
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

fn workload() -> Workload {
    let mut spec = SynthSpec::tiny_test(16, 500, 4242);
    spec.alpha = 1.3;
    spec.n_train_queries = 32;
    spec.generate()
}

/// The statically-dispatched side of contract 1: concrete index, concrete
/// operator, inherent `search` methods.
enum DirectIndex {
    Flat(FlatIndex),
    Ivf(Ivf),
    Hnsw(Hnsw),
}

impl DirectIndex {
    fn build(spec: &IndexSpec, w: &Workload) -> DirectIndex {
        match spec {
            IndexSpec::Flat(_) => DirectIndex::Flat(FlatIndex::new()),
            IndexSpec::Ivf(cfg) => DirectIndex::Ivf(Ivf::build(&w.base, cfg).unwrap()),
            IndexSpec::Hnsw(cfg) => DirectIndex::Hnsw(Hnsw::build(&w.base, cfg).unwrap()),
        }
    }

    fn search<D: Dco>(&self, dco: &D, q: &[f32], p: &SearchParams) -> SearchResult {
        match self {
            DirectIndex::Flat(f) => f.search(dco, q, K),
            DirectIndex::Ivf(i) => i.search(dco, q, K, p.nprobe).unwrap(),
            DirectIndex::Hnsw(h) => h.search(dco, q, K, p.ef).unwrap(),
        }
    }
}

/// Searches every query through the generic path for the operator the
/// spec names, built from the *same* parsed config the engine used.
fn direct_results(
    index: &DirectIndex,
    dco_spec: &DcoSpec,
    w: &Workload,
    p: &SearchParams,
) -> Vec<SearchResult> {
    let run = |dco: &dyn Fn(&[f32]) -> SearchResult| -> Vec<SearchResult> {
        (0..w.queries.len())
            .map(|qi| dco(w.queries.get(qi)))
            .collect()
    };
    match dco_spec {
        DcoSpec::Exact(m) => {
            let d = Exact::build_metric(&w.base, m.clone()).unwrap();
            run(&|q| index.search(&d, q, p))
        }
        DcoSpec::AdSampling(cfg) => {
            let d = AdSampling::build(&w.base, cfg.clone()).unwrap();
            run(&|q| index.search(&d, q, p))
        }
        DcoSpec::DdcRes(cfg) => {
            let d = DdcRes::build(&w.base, cfg.clone()).unwrap();
            run(&|q| index.search(&d, q, p))
        }
        DcoSpec::DdcPca(cfg) => {
            let d = DdcPca::build(&w.base, &w.train_queries, cfg.clone()).unwrap();
            run(&|q| index.search(&d, q, p))
        }
        DcoSpec::DdcOpq(cfg) => {
            let d = DdcOpq::build(&w.base, &w.train_queries, cfg.clone()).unwrap();
            run(&|q| index.search(&d, q, p))
        }
    }
}

fn assert_same_results(a: &SearchResult, b: &SearchResult, ctx: &str) {
    assert_eq!(a.ids(), b.ids(), "{ctx}: ids diverge");
    let (da, db): (Vec<u32>, Vec<u32>) = (
        a.neighbors.iter().map(|n| n.dist.to_bits()).collect(),
        b.neighbors.iter().map(|n| n.dist.to_bits()).collect(),
    );
    assert_eq!(da, db, "{ctx}: distances diverge bitwise");
}

#[test]
fn engine_matches_generic_path_on_the_full_grid() {
    let w = workload();
    let params = SearchParams::new().with_ef(50).with_nprobe(4);
    for index_str in INDEX_SPECS {
        let index_spec: IndexSpec = index_str.parse().unwrap();
        let direct = DirectIndex::build(&index_spec, &w);
        for dco_str in DCO_SPECS {
            let dco_spec: DcoSpec = dco_str.parse().unwrap();
            let cfg = EngineConfig::new(index_spec.clone(), dco_spec.clone()).with_params(params);
            let engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
            let want = direct_results(&direct, &dco_spec, &w, &params);
            for (qi, want) in want.iter().enumerate() {
                let got = engine.search(w.queries.get(qi), K).unwrap();
                assert_same_results(&got, want, &format!("{index_str} x {dco_str} query {qi}"));
                assert_eq!(
                    got.counters, want.counters,
                    "{index_str} x {dco_str} query {qi}: counters diverge"
                );
            }
        }
    }
}

#[test]
fn search_batch_matches_sequential_search_on_the_full_grid() {
    let w = workload();
    let batch = QueryBatch::new(w.queries.clone());
    assert!(batch.len() >= 8, "batch must exercise the blocked kernel");
    for index_str in INDEX_SPECS {
        for dco_str in DCO_SPECS {
            let cfg = EngineConfig::from_strs(index_str, dco_str)
                .unwrap()
                .with_params(SearchParams::new().with_ef(50).with_nprobe(4));
            let engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
            let batched = engine.search_batch(&batch, K).unwrap();
            assert_eq!(batched.len(), batch.len());
            for (qi, got) in batched.iter().enumerate() {
                let want = engine.search(w.queries.get(qi), K).unwrap();
                assert_same_results(
                    got,
                    &want,
                    &format!("{index_str} x {dco_str} batched query {qi}"),
                );
            }
        }
    }
}

/// Contract 3: the group entry point is bit-identical to solo search
/// for every index × operator combination — ids, distance bits, and
/// per-query counters — both unfiltered (against [`Engine::search`]) and
/// under a predicate (against [`Engine::search_filtered_with`]).
#[test]
fn search_group_matches_solo_search_on_the_full_grid() {
    let w = workload();
    let batch = QueryBatch::new(w.queries.clone());
    assert!(batch.len() >= 8, "batch must exercise the blocked kernel");
    let pred = FilterPredicate::Range(1, 2);
    for index_str in INDEX_SPECS {
        for dco_str in DCO_SPECS {
            let cfg = EngineConfig::from_strs(index_str, dco_str)
                .unwrap()
                .with_params(SearchParams::new().with_ef(50).with_nprobe(4));
            let mut engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
            let tags = (0..engine.len() as u64).map(|row| row % 5).collect();
            engine.set_payloads(tags).unwrap();
            let params = engine.config().params;
            for filter in [None, Some(&pred)] {
                let group = engine.search_group(&batch, K, &params, filter).unwrap();
                assert_eq!(group.len(), batch.len());
                for (qi, got) in group.iter().enumerate() {
                    let q = batch.get(qi);
                    let want = match filter {
                        Some(f) => engine.search_filtered_with(q, K, &params, f),
                        None => engine.search(q, K),
                    };
                    let want = want.unwrap();
                    let ctx = format!("{index_str} x {dco_str} filter {filter:?} query {qi}");
                    assert_same_results(got, &want, &ctx);
                    assert_eq!(got.counters, want.counters, "{ctx}: counters diverge");
                }
            }
        }
    }
}

/// Contract 4 (PR 5): an engine built **from a store** — on Linux an
/// actual zero-copy memory map of an fvecs file, elsewhere the streaming
/// fallback — is bit-identical to one built from the same vectors
/// resident in RAM, for every index × operator combination. The storage
/// backend must be invisible in ids, distance bits, and counters; this is
/// what makes out-of-core serving a pure deployment choice.
#[test]
fn store_built_engine_matches_ram_built_on_the_full_grid() {
    let w = workload();
    let mut path = std::env::temp_dir();
    path.push(format!("ddc-parity-store-{}.fvecs", std::process::id()));
    ddc_vecs::io::write_fvecs(&path, &w.base).unwrap();
    let store = SharedRows::open(&path).unwrap();
    assert_eq!(store.len(), w.base.len());
    if ddc_vecs::store::mmap_supported() {
        assert_eq!(
            store.backend(),
            "mmap",
            "on a supported platform the parity contract must exercise the mapped backend"
        );
        assert_eq!(
            store.resident_bytes(),
            0,
            "mapped base must hold no heap copy"
        );
    }

    let params = SearchParams::new().with_ef(50).with_nprobe(4);
    for index_str in INDEX_SPECS {
        for dco_str in DCO_SPECS {
            let cfg = EngineConfig::from_strs(index_str, dco_str)
                .unwrap()
                .with_params(params);
            let ram = Engine::build(&w.base, Some(&w.train_queries), cfg.clone()).unwrap();
            let stored = Engine::build(&store, Some(&w.train_queries), cfg).unwrap();
            for qi in 0..w.queries.len() {
                let a = ram.search(w.queries.get(qi), K).unwrap();
                let b = stored.search(w.queries.get(qi), K).unwrap();
                let ctx = format!("{index_str} x {dco_str} store query {qi}");
                assert_same_results(&a, &b, &ctx);
                assert_eq!(a.counters, b.counters, "{ctx}: counters diverge");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Contract 5 (PR 6): an engine saved to a snapshot container
/// ([`Engine::save_snapshot`]) and reopened ([`Engine::open_snapshot`])
/// is **bit-identical** to the engine it was saved from — ids, distance
/// bits, and work counters — for every index × operator combination,
/// whether the original was built from RAM-resident vectors or from a
/// mapped [`SharedRows`], and through every search entry point including
/// the group path. Nothing is rebuilt on open: the
/// container carries the pre-rotated matrix and the operator state
/// verbatim, so parity is exact by construction and this test keeps it
/// that way.
#[test]
fn snapshot_opened_engine_matches_fresh_build_on_the_full_grid() {
    let w = workload();
    let mut fvecs = std::env::temp_dir();
    fvecs.push(format!("ddc-parity-snap-{}.fvecs", std::process::id()));
    ddc_vecs::io::write_fvecs(&fvecs, &w.base).unwrap();
    let store = SharedRows::open(&fvecs).unwrap();

    let batch = QueryBatch::new(w.queries.clone());
    let params = SearchParams::new().with_ef(50).with_nprobe(4);
    for index_str in INDEX_SPECS {
        for dco_str in DCO_SPECS {
            let cfg = EngineConfig::from_strs(index_str, dco_str)
                .unwrap()
                .with_params(params);
            let ram = Engine::build(&w.base, Some(&w.train_queries), cfg.clone()).unwrap();
            let stored = Engine::build(&store, Some(&w.train_queries), cfg).unwrap();
            for (label, fresh) in [("ram", &ram), ("store", &stored)] {
                let mut path = std::env::temp_dir();
                path.push(format!(
                    "ddc-parity-snap-{}-{label}-{index_str}-{dco_str}.snap",
                    std::process::id()
                ));
                fresh.save_snapshot(&path).unwrap();
                let back = Engine::open_snapshot(&path).unwrap();
                assert!(
                    back.snapshot_info().is_some(),
                    "{label}: provenance recorded"
                );

                for qi in 0..w.queries.len() {
                    let a = fresh.search(w.queries.get(qi), K).unwrap();
                    let b = back.search(w.queries.get(qi), K).unwrap();
                    let ctx = format!("{index_str} x {dco_str} {label} snapshot query {qi}");
                    assert_same_results(&a, &b, &ctx);
                    assert_eq!(a.counters, b.counters, "{ctx}: counters diverge");
                }

                // The reopened engine's group path against the fresh
                // engine's batch path: snapshot serving must still be
                // invisible there.
                let want = fresh.search_batch(&batch, K).unwrap();
                let got = back
                    .search_group(&batch, K, &back.config().params, None)
                    .unwrap();
                assert_eq!(got.len(), want.len());
                for (qi, (g, w_)) in got.iter().zip(&want).enumerate() {
                    let ctx = format!("{index_str} x {dco_str} {label} snapshot group query {qi}");
                    assert_same_results(g, w_, &ctx);
                    assert_eq!(g.counters, w_.counters, "{ctx}: counters diverge");
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }
    std::fs::remove_file(&fvecs).ok();
}

/// The non-L2 metrics the parity grids sweep. Weights are chosen
/// non-uniform so weighted-L2 cannot silently degenerate to plain L2.
fn non_l2_metrics() -> Vec<Metric> {
    vec![
        Metric::InnerProduct,
        Metric::Cosine,
        Metric::WeightedL2(
            (0..16)
                .map(|i| 0.5 + i as f32 * 0.1)
                .collect::<Vec<_>>()
                .into(),
        ),
    ]
}

/// Contract 1 × metrics: for every index × operator × non-L2 metric, the
/// engine's dynamically-dispatched search is bit-identical (ids, distance
/// bits, work counters) to the statically-dispatched generic path built
/// from the same parsed configuration with the same metric.
#[test]
fn engine_matches_generic_path_across_metrics() {
    let w = workload();
    let params = SearchParams::new().with_ef(50).with_nprobe(4);
    for metric in non_l2_metrics() {
        for index_str in INDEX_SPECS {
            let mut index_spec: IndexSpec = index_str.parse().unwrap();
            index_spec.set_metric(metric.clone());
            let direct = DirectIndex::build(&index_spec, &w);
            for dco_str in DCO_SPECS {
                let mut dco_spec: DcoSpec = dco_str.parse().unwrap();
                dco_spec.set_metric(metric.clone());
                let cfg =
                    EngineConfig::new(index_spec.clone(), dco_spec.clone()).with_params(params);
                let engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
                assert_eq!(engine.metric(), metric);
                let want = direct_results(&direct, &dco_spec, &w, &params);
                for (qi, want) in want.iter().enumerate() {
                    let got = engine.search(w.queries.get(qi), K).unwrap();
                    let ctx = format!("{} {index_str} x {dco_str} query {qi}", metric.name());
                    assert_same_results(&got, want, &ctx);
                    assert_eq!(got.counters, want.counters, "{ctx}: counters diverge");
                }
            }
        }
    }
}

/// Contracts 2, 4, and 5 × metrics: under every non-L2 metric, batched
/// search matches solo search, a store-built engine matches the RAM-built
/// one, and a snapshot-reopened engine matches the engine it was saved
/// from — all bit-identical, across the full index × operator grid.
#[test]
fn batch_store_and_snapshot_parity_hold_across_metrics() {
    let w = workload();
    let batch = QueryBatch::new(w.queries.clone());
    let mut fvecs = std::env::temp_dir();
    fvecs.push(format!("ddc-parity-metric-{}.fvecs", std::process::id()));
    ddc_vecs::io::write_fvecs(&fvecs, &w.base).unwrap();
    let store = SharedRows::open(&fvecs).unwrap();
    let params = SearchParams::new().with_ef(50).with_nprobe(4);
    for metric in non_l2_metrics() {
        for index_str in INDEX_SPECS {
            for dco_str in DCO_SPECS {
                let cfg = EngineConfig::from_strs(index_str, dco_str)
                    .unwrap()
                    .with_params(params)
                    .with_metric(metric.clone());
                let engine = Engine::build(&w.base, Some(&w.train_queries), cfg.clone()).unwrap();
                let stored = Engine::build(&store, Some(&w.train_queries), cfg).unwrap();

                let mut snap = std::env::temp_dir();
                snap.push(format!(
                    "ddc-parity-metric-{}-{}-{index_str}-{dco_str}.snap",
                    std::process::id(),
                    metric.name(),
                ));
                engine.save_snapshot(&snap).unwrap();
                let back = Engine::open_snapshot(&snap).unwrap();
                assert_eq!(back.metric(), metric, "metric survives the snapshot");

                let batched = engine.search_batch(&batch, K).unwrap();
                for (qi, got) in batched.iter().enumerate() {
                    let q = w.queries.get(qi);
                    let ctx = format!("{} {index_str} x {dco_str} query {qi}", metric.name());
                    let solo = engine.search(q, K).unwrap();
                    assert_same_results(got, &solo, &format!("{ctx} [batch]"));
                    let from_store = stored.search(q, K).unwrap();
                    assert_same_results(&solo, &from_store, &format!("{ctx} [store]"));
                    let reopened = back.search(q, K).unwrap();
                    assert_same_results(&solo, &reopened, &format!("{ctx} [snapshot]"));
                    assert_eq!(solo.counters, reopened.counters, "{ctx}: counters diverge");
                }
                std::fs::remove_file(&snap).ok();
            }
        }
    }
    std::fs::remove_file(&fvecs).ok();
}

/// Saves `engine` to `a`, reopens `a`, saves the reopened engine to `b`:
/// the two containers must be the same bytes.
fn assert_resaves_identically(engine: &Engine, ctx: &str) {
    let tmp = |tag: &str| {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ddc-parity-resave-{}-{tag}-{}.snap",
            std::process::id(),
            ctx.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
        ));
        p
    };
    let (a, b) = (tmp("a"), tmp("b"));
    engine.save_snapshot(&a).unwrap();
    Engine::open_snapshot(&a)
        .unwrap()
        .save_snapshot(&b)
        .unwrap();
    let (bytes_a, bytes_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert!(bytes_a == bytes_b, "{ctx}: the re-saved container differs");
}

/// Contract 6: opening a container and saving it again writes the same
/// bytes — the loaded graph is the saved graph, neighbour order and all,
/// whatever the in-memory layout. Covered for HNSW under every operator
/// and L2 / inner product / cosine, and for a graph after a repair
/// compaction (lists re-selected around removed nodes, then grown).
#[test]
fn reopened_hnsw_engine_resaves_byte_identically() {
    let w = workload();
    let params = SearchParams::new().with_ef(50);
    for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
        for dco_str in DCO_SPECS {
            let cfg = EngineConfig::from_strs(INDEX_SPECS[2], dco_str)
                .unwrap()
                .with_params(params)
                .with_metric(metric.clone());
            let engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
            assert_resaves_identically(&engine, &format!("{} {dco_str}", metric.name()));
        }
    }

    let cfg = EngineConfig::from_strs(INDEX_SPECS[2], DCO_SPECS[2])
        .unwrap()
        .with_params(params);
    let me = MutableEngine::build(
        w.base.clone(),
        Some(w.train_queries.clone()),
        cfg,
        MutableConfig::default(),
    )
    .unwrap();
    for id in (0..w.base.len() as u32).filter(|id| id % 9 == 4) {
        assert!(me.delete(id));
    }
    for (i, id) in [7u32, 600, 601].into_iter().enumerate() {
        me.upsert(id, w.queries.get(i)).unwrap();
    }
    assert_eq!(me.compact().unwrap().mode, "repair");
    assert_resaves_identically(&me.handle().engine(), "repaired");
}

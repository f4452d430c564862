//! Filtered-search recall: evaluating the predicate **during** traversal
//! must beat (never trail) filtering an unfiltered top-`k` after the fact.
//!
//! The contract being pinned: [`Engine::search_filtered_with`] routes traversal
//! over all rows but spends result slots only on predicate matches, so at
//! selectivity `s` it still returns `k` matching neighbors. The post-hoc
//! strategy — unfiltered top-`k`, then drop non-matches — keeps `≈ s·k`
//! matches in expectation, which at 1% selectivity is essentially nothing.
//! Every recall number here is measured against the brute-force
//! [`metric_oracle`] for the engine's metric, restricted to the predicate.

use ddc_engine::{Engine, EngineConfig, FilterPredicate, Metric};
use ddc_index::SearchParams;
use ddc_vecs::{metric_oracle, SynthSpec, Workload};

const K: usize = 10;
const N: usize = 2000;

fn workload() -> Workload {
    let mut spec = SynthSpec::tiny_test(16, N, 777);
    spec.alpha = 1.3;
    spec.n_train_queries = 32;
    spec.generate()
}

/// One tag in `0..100` per row, round-robin: predicates over tag ranges
/// then hit exact selectivities (50%, 10%, 1%).
fn payload_tags(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i % 100).collect()
}

fn selectivity_grid() -> Vec<(f64, FilterPredicate)> {
    vec![
        (0.5, FilterPredicate::Range(0, 49)),
        (0.1, FilterPredicate::Range(0, 9)),
        (0.01, FilterPredicate::Eq(0)),
    ]
}

fn metrics_under_test() -> Vec<Metric> {
    vec![
        Metric::L2,
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

/// With a flat index the in-traversal filter is an exact filtered scan:
/// for every metric and every selectivity the result must be the oracle's
/// filtered top-`k`, and every returned id must satisfy the predicate.
#[test]
fn flat_in_traversal_filtering_is_exact_for_every_metric() {
    let w = workload();
    let tags = payload_tags(w.base.len());
    for metric in metrics_under_test() {
        let cfg = EngineConfig::from_strs("flat", "exact")
            .unwrap()
            .with_metric(metric.clone());
        let mut engine = Engine::build(&w.base, None, cfg).unwrap();
        engine.set_payloads(tags.clone()).unwrap();
        for (sel, pred) in selectivity_grid() {
            let measured = pred.selectivity(&tags);
            assert!(
                (measured - sel).abs() < 1e-9,
                "{pred}: selectivity {measured}, wanted {sel}"
            );
            for qi in 0..w.queries.len() {
                let q = w.queries.get(qi);
                let got = engine
                    .search_filtered_with(q, K, &engine.config().params, &pred)
                    .unwrap();
                assert_eq!(got.neighbors.len(), K, "{pred}: k matching rows exist");
                for n in &got.neighbors {
                    assert!(
                        pred.matches(tags[n.id as usize]),
                        "{pred}: id {} leaked through the filter",
                        n.id
                    );
                }
                let oracle = metric_oracle::top_k_filtered(&w.base, q, K, &metric, &|id| {
                    pred.matches(tags[id as usize])
                });
                let ids: Vec<u32> = got.neighbors.iter().map(|n| n.id).collect();
                assert_eq!(
                    metric_oracle::recall_against(&oracle, &ids),
                    1.0,
                    "{} {pred} query {qi}: flat filtered scan must be exact",
                    metric.name()
                );
            }
        }
    }
}

/// The tentpole recall claim, on a real graph index: across metrics and
/// the {50%, 10%, 1%} selectivity ladder, in-traversal filtering recalls
/// at least as much of the filtered oracle as post-hoc filtering of an
/// unfiltered top-`k` — and at 1% selectivity it wins by a wide margin,
/// because an unfiltered top-10 contains ~0.1 matching rows in
/// expectation.
#[test]
fn hnsw_in_traversal_beats_post_hoc_at_low_selectivity() {
    let w = workload();
    let tags = payload_tags(w.base.len());
    let params = SearchParams::new().with_ef(120);
    for metric in [Metric::L2, Metric::Cosine] {
        for dco in ["exact", "ddcres(init_d=4,delta_d=4,seed=5)"] {
            let cfg = EngineConfig::from_strs("hnsw(m=8,ef_construction=60,seed=5)", dco)
                .unwrap()
                .with_params(params)
                .with_metric(metric.clone());
            let mut engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
            engine.set_payloads(tags.clone()).unwrap();
            for (sel, pred) in selectivity_grid() {
                let (mut r_in, mut r_post) = (0.0, 0.0);
                for qi in 0..w.queries.len() {
                    let q = w.queries.get(qi);
                    let oracle = metric_oracle::top_k_filtered(&w.base, q, K, &metric, &|id| {
                        pred.matches(tags[id as usize])
                    });
                    let filtered = engine
                        .search_filtered_with(q, K, &engine.config().params, &pred)
                        .unwrap();
                    let in_ids: Vec<u32> = filtered.neighbors.iter().map(|n| n.id).collect();
                    assert!(in_ids.iter().all(|&id| pred.matches(tags[id as usize])));
                    let unfiltered = engine.search(q, K).unwrap();
                    let post_ids: Vec<u32> = unfiltered
                        .neighbors
                        .iter()
                        .map(|n| n.id)
                        .filter(|&id| pred.matches(tags[id as usize]))
                        .collect();
                    r_in += metric_oracle::recall_against(&oracle, &in_ids);
                    r_post += metric_oracle::recall_against(&oracle, &post_ids);
                }
                let nq = w.queries.len() as f64;
                let (r_in, r_post) = (r_in / nq, r_post / nq);
                let ctx = format!("{} {dco} {pred} (sel {sel})", metric.name());
                assert!(
                    r_in >= r_post - 1e-9,
                    "{ctx}: in-traversal {r_in:.3} < post-hoc {r_post:.3}"
                );
                if sel <= 0.01 {
                    assert!(
                        r_in >= r_post + 0.3,
                        "{ctx}: at 1% selectivity in-traversal ({r_in:.3}) must beat \
                         post-hoc ({r_post:.3}) decisively"
                    );
                    assert!(
                        r_in >= 0.6,
                        "{ctx}: in-traversal recall {r_in:.3} collapsed at low selectivity"
                    );
                }
            }
        }
    }
}

/// Same ladder through the IVF index: probing is restricted by `nprobe`,
/// so this additionally checks that filtering composes with a partitioned
/// index (non-matching rows inside probed lists must not eat slots).
#[test]
fn ivf_in_traversal_never_trails_post_hoc() {
    let w = workload();
    let tags = payload_tags(w.base.len());
    let params = SearchParams::new().with_nprobe(8);
    let cfg = EngineConfig::from_strs("ivf(nlist=16,train_iters=6,seed=11)", "exact")
        .unwrap()
        .with_params(params);
    let mut engine = Engine::build(&w.base, None, cfg).unwrap();
    engine.set_payloads(tags.clone()).unwrap();
    for (sel, pred) in selectivity_grid() {
        let (mut r_in, mut r_post) = (0.0, 0.0);
        for qi in 0..w.queries.len() {
            let q = w.queries.get(qi);
            let oracle = metric_oracle::top_k_filtered(&w.base, q, K, &Metric::L2, &|id| {
                pred.matches(tags[id as usize])
            });
            let filtered = engine
                .search_filtered_with(q, K, &engine.config().params, &pred)
                .unwrap();
            let in_ids: Vec<u32> = filtered.neighbors.iter().map(|n| n.id).collect();
            let unfiltered = engine.search(q, K).unwrap();
            let post_ids: Vec<u32> = unfiltered
                .neighbors
                .iter()
                .map(|n| n.id)
                .filter(|&id| pred.matches(tags[id as usize]))
                .collect();
            r_in += metric_oracle::recall_against(&oracle, &in_ids);
            r_post += metric_oracle::recall_against(&oracle, &post_ids);
        }
        let nq = w.queries.len() as f64;
        assert!(
            r_in / nq >= r_post / nq - 1e-9,
            "ivf {pred} (sel {sel}): in-traversal {:.3} < post-hoc {:.3}",
            r_in / nq,
            r_post / nq
        );
    }
}

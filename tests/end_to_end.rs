//! End-to-end integration: workload generation → index construction → all
//! five distance comparison operators → recall/work verification.

use ddc::core::training::TrainingCaps;
use ddc::core::{
    AdSampling, AdSamplingConfig, Counters, DdcOpq, DdcOpqConfig, DdcPca, DdcPcaConfig, DdcRes,
    DdcResConfig, Exact,
};
use ddc::index::{FlatIndex, Hnsw, HnswConfig, Ivf, IvfConfig, SearchParams};
use ddc::linalg::Metric;
use ddc::vecs::metric_oracle::{self, recall_against};
use ddc::vecs::{recall, GroundTruth, SynthSpec};
use ddc::{Engine, EngineConfig};

struct Fixture {
    w: ddc::vecs::Workload,
    gt: GroundTruth,
    k: usize,
}

fn fixture() -> Fixture {
    let mut spec = SynthSpec::tiny_test(24, 1500, 2024);
    spec.alpha = 1.3;
    spec.clusters = 12;
    spec.n_queries = 30;
    spec.n_train_queries = 48;
    let w = spec.generate();
    let k = 10;
    let gt = GroundTruth::compute(&w.base, &w.queries, k, 0).expect("gt");
    Fixture { w, gt, k }
}

fn caps() -> TrainingCaps {
    TrainingCaps {
        max_queries: 48,
        negatives_per_query: 32,
        k: 10,
        seed: 0,
    }
}

fn hnsw(w: &ddc::vecs::Workload) -> Hnsw {
    Hnsw::build(
        &w.base,
        &HnswConfig {
            m: 8,
            ef_construction: 80,
            seed: 0,
            ..Default::default()
        },
    )
    .expect("hnsw")
}

#[test]
fn all_five_operators_work_on_hnsw() {
    let f = fixture();
    let g = hnsw(&f.w);
    let ef = 60;

    let exact = Exact::build(&f.w.base);
    let ads = AdSampling::build(
        &f.w.base,
        AdSamplingConfig {
            delta_d: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let res = DdcRes::build(
        &f.w.base,
        DdcResConfig {
            init_d: 8,
            delta_d: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let pca = DdcPca::build(
        &f.w.base,
        &f.w.train_queries,
        DdcPcaConfig {
            init_d: 8,
            delta_d: 8,
            caps: caps(),
            ..Default::default()
        },
    )
    .unwrap();
    let opq = DdcOpq::build(
        &f.w.base,
        &f.w.train_queries,
        DdcOpqConfig {
            m: 6,
            nbits: 5,
            opq_iters: 2,
            caps: caps(),
            ..Default::default()
        },
    )
    .unwrap();

    let run = |name: &str, search: &dyn Fn(usize) -> Vec<u32>| -> f64 {
        let mut results = Vec::new();
        for qi in 0..f.w.queries.len() {
            results.push(search(qi));
        }
        let r = recall(&results, &f.gt, f.k);
        assert!(r > 0.8, "{name}: recall {r}");
        r
    };

    let r_exact = run("exact", &|qi| {
        g.search(&exact, f.w.queries.get(qi), f.k, ef)
            .unwrap()
            .ids()
    });
    let r_ads = run("ads", &|qi| {
        g.search(&ads, f.w.queries.get(qi), f.k, ef).unwrap().ids()
    });
    let r_res = run("res", &|qi| {
        g.search(&res, f.w.queries.get(qi), f.k, ef).unwrap().ids()
    });
    let r_pca = run("pca", &|qi| {
        g.search(&pca, f.w.queries.get(qi), f.k, ef).unwrap().ids()
    });
    let r_opq = run("opq", &|qi| {
        g.search(&opq, f.w.queries.get(qi), f.k, ef).unwrap().ids()
    });

    // All corrected operators must stay close to the exact baseline.
    for (name, r) in [
        ("ads", r_ads),
        ("res", r_res),
        ("pca", r_pca),
        ("opq", r_opq),
    ] {
        assert!(
            r > r_exact - 0.08,
            "{name} lost too much recall: {r} vs exact {r_exact}"
        );
    }
}

#[test]
fn ddcres_saves_work_on_ivf_and_flat() {
    let f = fixture();
    let res = DdcRes::build(
        &f.w.base,
        DdcResConfig {
            init_d: 8,
            delta_d: 8,
            ..Default::default()
        },
    )
    .unwrap();

    // Flat scan.
    let flat = FlatIndex::new();
    let mut flat_counters = Counters::new();
    let mut results = Vec::new();
    for qi in 0..f.w.queries.len() {
        let r = flat.search(&res, f.w.queries.get(qi), f.k);
        flat_counters.merge(&r.counters);
        results.push(r.ids());
    }
    assert!(recall(&results, &f.gt, f.k) > 0.9);
    assert!(flat_counters.scan_rate() < 0.9, "flat scan saved no work");

    // IVF.
    let ivf = Ivf::build(&f.w.base, &IvfConfig::new(12)).unwrap();
    let mut ivf_counters = Counters::new();
    let mut results = Vec::new();
    for qi in 0..f.w.queries.len() {
        let r = ivf.search(&res, f.w.queries.get(qi), f.k, 6).unwrap();
        ivf_counters.merge(&r.counters);
        results.push(r.ids());
    }
    // nprobe=6/12 bounds recall; compare against the same probe with exact.
    let exact = Exact::build(&f.w.base);
    let mut exact_results = Vec::new();
    for qi in 0..f.w.queries.len() {
        exact_results.push(
            ivf.search(&exact, f.w.queries.get(qi), f.k, 6)
                .unwrap()
                .ids(),
        );
    }
    let r_res = recall(&results, &f.gt, f.k);
    let r_exact = recall(&exact_results, &f.gt, f.k);
    assert!(r_res > r_exact - 0.05, "res {r_res} vs exact {r_exact}");
    assert!(ivf_counters.scan_rate() < 0.95);
}

#[test]
fn counters_are_consistent() {
    let f = fixture();
    let res = DdcRes::build(&f.w.base, DdcResConfig::default()).unwrap();
    let flat = FlatIndex::new();
    let r = flat.search(&res, f.w.queries.get(0), f.k);
    let c = r.counters;
    assert_eq!(c.candidates, f.w.base.len() as u64);
    assert_eq!(c.pruned + c.exact, c.candidates);
    assert!(c.dims_scanned <= c.dims_full);
    assert_eq!(c.dims_full, c.candidates * f.w.base.dim() as u64);
}

#[test]
fn cosine_and_mips_reductions_search_correctly() {
    // §II-A: cosine and inner product are served natively (`Metric`), by
    // the same index + DCO stack as L2.
    let f = fixture();
    let k = 5;
    let cfg = |index: &str, dco: &str, metric: Metric| {
        EngineConfig::from_strs(index, dco)
            .unwrap()
            .with_metric(metric)
            .with_params(SearchParams::new().with_ef(60))
    };

    // Cosine: DDCres over HNSW against the exact cosine top-k.
    let engine = Engine::build(
        &f.w.base,
        None,
        cfg(
            "hnsw(m=8,ef_construction=80,seed=0)",
            "ddcres",
            Metric::Cosine,
        ),
    )
    .unwrap();
    let nq = f.w.queries.len();
    let recall_sum: f64 = (0..nq)
        .map(|qi| {
            let q = f.w.queries.get(qi);
            let oracle = metric_oracle::top_k(&f.w.base, q, k, &Metric::Cosine);
            recall_against(&oracle, &engine.search(q, k).unwrap().ids())
        })
        .sum();
    assert!(recall_sum / nq as f64 > 0.85);

    // MIPS: an exact flat scan must rank by descending inner product.
    let engine =
        Engine::build(&f.w.base, None, cfg("flat", "exact", Metric::InnerProduct)).unwrap();
    let q = f.w.queries.get(0);
    let got = engine.search(q, k).unwrap().ids();
    let mut by_ip: Vec<u32> = (0..f.w.base.len() as u32).collect();
    by_ip.sort_by(|&a, &b| {
        ddc::linalg::kernels::dot(f.w.base.get(b as usize), q)
            .total_cmp(&ddc::linalg::kernels::dot(f.w.base.get(a as usize), q))
    });
    assert_eq!(got, by_ip[..k].to_vec());
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-time check that the `ddc` facade exposes the full stack.
    let spec = ddc::vecs::SynthSpec::tiny_test(8, 64, 1);
    let w = spec.generate();
    let _pca = ddc::linalg::Pca::fit(w.base.as_flat(), 8, 1000, 0).unwrap();
    let _km = ddc::cluster::train(&w.base, &ddc::cluster::KMeansConfig::new(4)).unwrap();
    let _pq = ddc::quant::Pq::train(&w.base, &ddc::quant::PqConfig::new(2).with_nbits(3)).unwrap();
    let mut ds = ddc::learn::Dataset::new(1);
    ds.push(&[1.0], true);
    ds.push(&[-1.0], false);
    let _model = ddc::learn::LogisticRegression::train(&ds, &ddc::learn::LogisticConfig::default());
    assert!(!ddc::VERSION.is_empty());
}

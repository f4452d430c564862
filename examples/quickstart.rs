//! Quickstart: assemble a search engine from two strings, search it
//! one-by-one and batched, and read its stats.
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --index "ivf(nlist=128)" --dco adsampling
//! cargo run --release --example quickstart -- --dco "ddcres(init_d=16,delta_d=16)"
//! DDC_EXAMPLE_N=2000 cargo run --release --example quickstart   # CI smoke scale
//! ```

use ddc::core::QueryBatch;
use ddc::index::SearchParams;
use ddc::vecs::{measure_qps, recall, GroundTruth, SynthProfile};
use ddc::{Engine, EngineConfig};

#[path = "common/mod.rs"]
mod common;
use common::arg;

fn main() {
    // 1. A dataset. Synthetic stand-ins mirror the paper's benchmarks; use
    //    `ddc::vecs::io::read_fvecs` for real .fvecs data instead.
    //    DDC_EXAMPLE_N shrinks the run for CI smoke tests.
    let n: usize = std::env::var("DDC_EXAMPLE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let spec = SynthProfile::SiftLike.spec(n, 100, 42);
    println!("generating {} ({} x {}d)...", spec.name, spec.n, spec.dim);
    let w = spec.generate();

    // 2. Exact ground truth for evaluation.
    let k = 10;
    let gt = GroundTruth::compute(&w.base, &w.queries, k, 0).expect("ground truth");

    // 3. The engine: the (index, DCO) pair is a *runtime* choice — both
    //    specs come straight from the CLI here.
    let index_spec = arg("index", "hnsw(m=16,ef_construction=200)");
    let dco_spec = arg("dco", "ddcres");
    println!("building engine: index={index_spec} dco={dco_spec}");
    let cfg = EngineConfig::from_strs(&index_spec, &dco_spec)
        .expect("spec")
        .with_params(SearchParams::new().with_ef(80).with_nprobe(16));
    let engine = Engine::build(&w.base, Some(&w.train_queries), cfg).expect("engine build");

    // 4. Search, one query at a time.
    let mut results = Vec::new();
    let (qps, secs) = measure_qps(w.queries.len(), |qi| {
        let r = engine.search(w.queries.get(qi), k).expect("search");
        results.push(r.ids());
    });
    let rec = recall(&results, &gt, k);
    println!("sequential: recall@{k} = {rec:.3}, {qps:.0} QPS ({secs:.2}s total)");

    // 5. Search the same queries as one batch: the per-query O(D²)
    //    rotation is amortized across the batch, results are identical.
    let batch = QueryBatch::new(w.queries.clone());
    let start = std::time::Instant::now();
    let batched = engine.search_batch(&batch, k).expect("batched search");
    let batch_qps = batched.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);
    let batched_ids: Vec<Vec<u32>> = batched.iter().map(|r| r.ids()).collect();
    assert_eq!(batched_ids, results, "batched search must match sequential");
    println!("batched:    identical top-{k}, {batch_qps:.0} QPS");

    // 6. One stats surface: composition and memory.
    println!("{}", engine.stats());
}

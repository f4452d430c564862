//! Live-mutability throughput: upsert rate into a
//! [`ddc_engine::MutableEngine`] (solo and under concurrent search
//! traffic), plus the cost of all three compaction modes — the
//! incremental *append* of pure growth, the incremental *repair* that
//! physically removes deleted rows, and the full *fold* rebuild
//! (`compact_full`). Emits `results/BENCH_mutation.json` (+ CSV).
//!
//! This is the PR acceptance artifact for the mutation subsystem:
//! correctness (grown ≡ fresh build, tombstones never surface) is
//! pinned by `crates/engine/tests/mutation_recall.rs` and
//! `crates/server/tests/mutation_e2e.rs`; what this bench records is
//! the *rates* — how fast rows go in while readers keep searching, and
//! what a compaction costs when it lands.
//!
//! ```bash
//! cargo bench --bench mutation_throughput
//! DDC_SCALE=full cargo bench --bench mutation_throughput
//! ```

use ddc_bench::report::{f1, RunMeta};
use ddc_bench::{Scale, Table};
use ddc_engine::{EngineConfig, MutableConfig, MutableEngine};
use ddc_vecs::{SynthSpec, Workload};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SEED: u64 = 0x317A;
const K: usize = 10;
const READERS: usize = 4;

/// Manual-compaction config: the bench times compactions explicitly,
/// so the background triggers are disabled.
fn manual() -> MutableConfig {
    MutableConfig {
        compact_threshold: 0,
        compact_interval: Duration::from_secs(3600),
        max_stale_rows: usize::MAX,
    }
}

fn build_mutable(w: &Workload, prefix: usize) -> std::sync::Arc<MutableEngine> {
    let cfg = EngineConfig::from_strs("hnsw(m=12,ef_construction=80)", "ddcres").expect("spec");
    let base = w.base.select(&(0..prefix).collect::<Vec<_>>());
    MutableEngine::build(base, Some(w.train_queries.clone()), cfg, manual()).expect("build")
}

fn main() {
    let scale = Scale::from_env();
    let mut meta = RunMeta::capture(scale.tag(), SEED);
    println!("kernel backend: {}", meta.kernel_backend);

    // `n` rows total; engines start from the first `prefix` and grow by
    // upserting the rest, so fresh-build and grown engines cover the
    // same final row set.
    let (dim, n, prefix) = match scale {
        Scale::Quick => (64, 6_000, 4_000),
        Scale::Full => (128, 30_000, 20_000),
    };
    let growth = n - prefix;
    let mut spec = SynthSpec::tiny_test(dim, n, SEED);
    spec.name = "mutation-bench".into();
    spec.n_queries = 256;
    spec.n_train_queries = 64;
    spec.clusters = 8;
    spec.alpha = 1.2;
    println!("workload: {n} x {dim}d, {prefix} base rows + {growth} upserts");
    let w = spec.generate();

    let mut table = Table::new(
        "live mutability: upsert throughput and compaction cost",
        &[
            "scenario",
            "ops",
            "upserts_per_s",
            "search_qps",
            "compact_mode",
            "compact_ms",
            "live_rows",
        ],
    );

    // ── Scenario 1: solo upsert rate, then the append compaction ──────
    {
        let me = build_mutable(&w, prefix);
        let t0 = Instant::now();
        for id in prefix..n {
            me.upsert(id as u32, w.base.get(id)).expect("upsert");
        }
        let upsert_s = growth as f64 / t0.elapsed().as_secs_f64().max(1e-12);
        let t1 = Instant::now();
        let report = me.compact().expect("compact");
        let compact_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.mode, "append", "pure growth takes the append path");
        table.row(&[
            "upsert_solo".into(),
            growth.to_string(),
            f1(upsert_s),
            "-".into(),
            report.mode.into(),
            format!("{compact_ms:.1}"),
            report.len.to_string(),
        ]);
    }

    // ── Scenario 2: upserts *and* the compaction land while closed-loop
    // readers keep searching — the serving story: writes go through the
    // overlay, the compactor swaps a fresh engine in mid-traffic, and no
    // search ever blocks or fails.
    {
        let me = build_mutable(&w, prefix);
        let handle = me.handle();
        let params = me.config().params;
        let stop = AtomicBool::new(false);
        let searches = AtomicU64::new(0);
        let (upsert_s, search_qps, compact_ms, report) = std::thread::scope(|s| {
            for r in 0..READERS {
                let handle = &handle;
                let stop = &stop;
                let searches = &searches;
                let queries = &w.queries;
                s.spawn(move || {
                    let mut qi = r;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = handle.snapshot();
                        let q = queries.get(qi % queries.len());
                        snap.engine.search_with(q, K, &params).expect("search");
                        searches.fetch_add(1, Ordering::Relaxed);
                        qi += READERS;
                    }
                });
            }
            let t0 = Instant::now();
            for id in prefix..n {
                me.upsert(id as u32, w.base.get(id)).expect("upsert");
            }
            let upsert_s = growth as f64 / t0.elapsed().as_secs_f64().max(1e-12);
            let t1 = Instant::now();
            let report = me.compact().expect("compact");
            let compact_ms = t1.elapsed().as_secs_f64() * 1e3;
            let traffic_secs = t0.elapsed().as_secs_f64().max(1e-12);
            stop.store(true, Ordering::Relaxed);
            let search_qps = searches.load(Ordering::Relaxed) as f64 / traffic_secs;
            (upsert_s, search_qps, compact_ms, report)
        });
        table.row(&[
            format!("upsert_{READERS}readers"),
            growth.to_string(),
            f1(upsert_s),
            f1(search_qps),
            report.mode.into(),
            format!("{compact_ms:.1}"),
            report.len.to_string(),
        ]);
    }

    // ── Scenario 3: the same deletions compacted both ways — repaired
    // in place (the default policy) and folded (`compact_full`), so the
    // table shows append / repair / fold side by side.
    for (scenario, full) in [("delete_repair", false), ("delete_fold", true)] {
        let me = build_mutable(&w, n);
        let dropped = growth / 10;
        let t0 = Instant::now();
        for i in 0..dropped {
            assert!(me.delete((i * 13 % n) as u32), "row was live");
        }
        let delete_s = dropped as f64 / t0.elapsed().as_secs_f64().max(1e-12);
        let t1 = Instant::now();
        let report = if full {
            me.compact_full()
        } else {
            me.compact()
        }
        .expect("compact");
        let compact_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.mode, if full { "fold" } else { "repair" });
        assert_eq!(report.dropped, dropped);
        table.row(&[
            scenario.into(),
            dropped.to_string(),
            f1(delete_s),
            "-".into(),
            report.mode.into(),
            format!("{compact_ms:.1}"),
            report.len.to_string(),
        ]);
    }

    table.print();
    meta.finish();
    let csv = table.write_csv("mutation_throughput").expect("csv");
    let json = table.write_json("BENCH_mutation", &meta).expect("json");
    println!("wrote {}", csv.display());
    println!("wrote {}", json.display());
    println!(
        "expected shape: upserts are O(1) overlay enqueues (millions/s — the \
         index work is deferred to compaction); the append and repair \
         compactions cost a fraction of the fold, which rebuilds all {n} rows \
         (both are O(churn) on top of one deep copy); readers keep \
         searching through the compaction and the engine swap it lands — \
         search_qps covers that whole window with zero failed searches"
    );
}

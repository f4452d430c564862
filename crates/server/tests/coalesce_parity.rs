//! Coalescing is invisible: concurrent `/search` requests that share a
//! batched engine call must produce responses **bit-identical** (ids,
//! distance bits, work counters) to solo library searches — across the
//! full index × DCO grid, filtered or not. Requests carrying the same
//! predicate may share a call; different predicates never do.
//!
//! The server runs with a deliberately wide coalescing window and the
//! clients fire from a barrier, so requests overlap and batches really
//! form (asserted grid-wide via `/stats`); parity is asserted for every
//! response regardless of which batch it landed in.

mod util;

use ddc_engine::{Engine, EngineConfig, FilterPredicate};
use ddc_server::{Json, Server, ServerConfig};
use ddc_vecs::{SynthSpec, Workload};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use util::{fingerprint, request, result_fingerprint, Conn, Fingerprint};

const K: usize = 5;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 3;

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
    SynthSpec::tiny_test(16, 300, 4177).generate()
}

/// Every engine carries payload tags `row % 4`, so the same build serves
/// the filtered cells.
fn build(w: &Workload, index: &str, dco: &str) -> Engine {
    let cfg = EngineConfig::from_strs(index, dco).unwrap();
    let mut engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
    let tags = (0..engine.len() as u64).map(|row| row % 4).collect();
    engine.set_payloads(tags).unwrap();
    engine
}

/// The solo library answer a coalesced response must equal.
fn solo(engine: &Engine, q: &[f32], eq: Option<u64>) -> Fingerprint {
    let params = engine.config().params;
    result_fingerprint(
        &match eq {
            Some(tag) => engine.search_filtered_with(q, K, &params, &FilterPredicate::Eq(tag)),
            None => engine.search_with(q, K, &params),
        }
        .unwrap(),
    )
}

fn coalesce_stat(stats: &Json, key: &str) -> usize {
    stats
        .get("coalesce")
        .and_then(|c| c.get(key))
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("no coalesce.{key} in {stats}"))
}

/// Runs one grid cell: concurrent clients against a wide-window server,
/// client `c` searching under the predicate `eq_of(c)` (or none), every
/// response compared to the solo oracle. Returns the number of
/// coalesced (size ≥ 2) batches the cell produced.
fn run_cell(w: &Arc<Workload>, index: &str, dco: &str, eq_of: fn(usize) -> Option<u64>) -> u64 {
    let oracle = build(w, index, dco);
    let n_queries = CLIENTS * QUERIES_PER_CLIENT;
    let expected: Vec<Fingerprint> = (0..n_queries)
        .map(|qi| solo(&oracle, w.queries.get(qi), eq_of(qi / QUERIES_PER_CLIENT)))
        .collect();

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        // Wide enough that barrier-released clients overlap even on a
        // slow single-CPU host.
        coalesce_window: Duration::from_millis(20),
        ..Default::default()
    };
    let server = Server::bind(
        &cfg,
        build(w, index, dco),
        w.base.clone(),
        Some(w.train_queries.clone()),
    )
    .unwrap();
    let guard = server.spawn().unwrap();
    let addr = guard.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let w = Arc::clone(w);
            let expected = expected.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr);
                barrier.wait();
                for r in 0..QUERIES_PER_CLIENT {
                    let qi = c * QUERIES_PER_CLIENT + r;
                    let mut body = Json::obj([
                        ("query", Json::from(w.queries.get(qi))),
                        ("k", Json::from(K)),
                    ]);
                    if let (Some(tag), Json::Obj(pairs)) = (eq_of(c), &mut body) {
                        let clause = Json::obj([("eq", Json::from(tag as usize))]);
                        pairs.push(("filter".to_string(), clause));
                    }
                    let body = body.dump();
                    let (status, reply) = conn.request("POST", "/search", Some(&body), false);
                    assert_eq!(status, 200, "client {c} query {qi}: {reply}");
                    assert_eq!(
                        fingerprint(&reply),
                        expected[qi],
                        "client {c} query {qi} diverged from solo execution"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let (status, stats) = request(addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    assert_eq!(
        coalesce_stat(&stats, "submitted"),
        n_queries,
        "every request went through the collector"
    );
    guard.shutdown();
    coalesce_stat(&stats, "coalesced_batches") as u64
}

/// `/search_batch` rides the same collector queue as `/search`: its
/// queries are submitted as one request, so they share an engine call
/// with each other (and with concurrent solo traffic) while staying
/// bit-identical to solo library searches.
#[test]
fn search_batch_fragments_share_the_collector_and_match_solo() {
    let w = Arc::new(workload());
    let index = "hnsw(m=6,ef_construction=40,seed=3)";
    let dco = "ddcres(init_d=4,delta_d=4,seed=5)";
    let oracle = build(&w, index, dco);
    let n_queries = 6;

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        coalesce_window: Duration::from_millis(20),
        ..Default::default()
    };
    let server = Server::bind(
        &cfg,
        build(&w, index, dco),
        w.base.clone(),
        Some(w.train_queries.clone()),
    )
    .unwrap();
    let guard = server.spawn().unwrap();

    let queries: Vec<Json> = (0..n_queries)
        .map(|qi| Json::from(w.queries.get(qi)))
        .collect();
    let body = Json::obj([("queries", Json::Arr(queries)), ("k", Json::from(K))]).dump();
    let (status, reply) = request(guard.addr(), "POST", "/search_batch", Some(&body));
    assert_eq!(status, 200, "{reply}");
    let results = reply
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    assert_eq!(results.len(), n_queries);
    for (qi, result) in results.iter().enumerate() {
        assert_eq!(
            fingerprint(result),
            solo(&oracle, w.queries.get(qi), None),
            "fragment {qi} diverged from solo execution"
        );
    }

    // The queries really went through the collector — submitted as one
    // request, they form one coalesced batch.
    let (status, stats) = request(guard.addr(), "GET", "/stats", None);
    assert_eq!(status, 200);
    assert_eq!(
        coalesce_stat(&stats, "submitted"),
        n_queries,
        "every query went through the collector"
    );
    assert!(
        coalesce_stat(&stats, "coalesced_batches") >= 1,
        "the batch's queries did not share an engine call: {stats}"
    );
    guard.shutdown();
}

#[test]
fn coalesced_search_is_bit_identical_to_solo_across_the_grid() {
    let w = Arc::new(workload());
    let mut coalesced_total = 0u64;
    for index in INDEX_SPECS {
        for dco in DCO_SPECS {
            coalesced_total += run_cell(&w, index, dco, |_| None);
        }
    }
    // Parity held everywhere above; make sure it was actually exercised
    // under coalescing, not 180 solo batches. With a 20ms window and
    // barrier-released clients this is effectively deterministic
    // grid-wide even if an individual cell lands unlucky.
    assert!(
        coalesced_total > 0,
        "no batch ever coalesced — the window/barrier setup is broken"
    );
}

/// The filtered cell, per index kind: concurrent requests carrying the
/// same predicate coalesce like unfiltered ones and stay bit-identical
/// to solo `Engine::search_filtered_with`; clients under four different
/// predicates, released together into the same wide window, never share
/// an engine call — whichever drains their requests land in.
#[test]
fn predicates_are_part_of_the_batch_key() {
    let w = Arc::new(workload());
    let mut coalesced_total = 0u64;
    for index in INDEX_SPECS {
        coalesced_total += run_cell(&w, index, DCO_SPECS[2], |_| Some(1));
        let mixed = run_cell(&w, index, DCO_SPECS[2], |client| Some(client as u64));
        assert_eq!(mixed, 0, "{index}: different predicates shared a batch");
    }
    assert!(
        coalesced_total > 0,
        "no filtered batch ever coalesced — the predicate is splitting equal requests"
    );
}

//! Serving is invisible in results: concurrent `/search` and
//! `/search_batch` requests must produce answers **bit-identical** (ids,
//! distance bits, work counters) to solo library searches — across the
//! full index × DCO grid, filtered or not.
//!
//! Each cell serves with two workers and releases its clients from a
//! barrier, so requests overlap on the pool; half the clients send one
//! `/search` per query, the other half one `/search_batch` holding all of
//! their queries. Parity is asserted for every answer.

mod util;

use ddc_engine::{Engine, EngineConfig, FilterPredicate};
use ddc_server::{Json, Server, ServerConfig};
use ddc_vecs::{SynthSpec, Workload};
use std::sync::{Arc, Barrier};
use util::{fingerprint, result_fingerprint, Conn, Fingerprint};

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

/// The solo library answer a served one must equal.
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

/// A search body: `query` (one row) or `queries` (`rows`), plus the
/// `eq` filter when one is given.
fn body(key: &str, rows: Json, eq: Option<u64>) -> String {
    let mut pairs = vec![(key.to_string(), rows), ("k".to_string(), Json::from(K))];
    if let Some(tag) = eq {
        let clause = Json::obj([("eq", Json::from(tag as usize))]);
        pairs.push(("filter".to_string(), clause));
    }
    Json::Obj(pairs).dump()
}

/// Runs one grid cell: barrier-released clients against a two-worker
/// server, client `c` searching under the predicate `eq_of(c)` (or
/// none) — even clients one `/search` per query, odd clients one
/// `/search_batch` — every answer compared to the solo oracle.
fn run_cell(w: &Arc<Workload>, index: &str, dco: &str, eq_of: fn(usize) -> Option<u64>) {
    let oracle = build(w, index, dco);
    let expected: Vec<Fingerprint> = (0..CLIENTS * QUERIES_PER_CLIENT)
        .map(|qi| solo(&oracle, w.queries.get(qi), eq_of(qi / QUERIES_PER_CLIENT)))
        .collect();

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
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
                let first = c * QUERIES_PER_CLIENT;
                let mine = first..first + QUERIES_PER_CLIENT;
                barrier.wait();
                if c % 2 == 0 {
                    for qi in mine {
                        let body = body("query", Json::from(w.queries.get(qi)), eq_of(c));
                        let (status, reply) = conn.request("POST", "/search", Some(&body), false);
                        assert_eq!(status, 200, "client {c} query {qi}: {reply}");
                        assert_eq!(
                            fingerprint(&reply),
                            expected[qi],
                            "client {c} query {qi} diverged from solo execution"
                        );
                    }
                } else {
                    let rows = mine.clone().map(|qi| Json::from(w.queries.get(qi)));
                    let body = body("queries", Json::Arr(rows.collect()), eq_of(c));
                    let (status, reply) = conn.request("POST", "/search_batch", Some(&body), false);
                    assert_eq!(status, 200, "client {c}: {reply}");
                    let results = reply.get("results").and_then(Json::as_arr).unwrap();
                    assert_eq!(results.len(), QUERIES_PER_CLIENT, "client {c}");
                    for (qi, result) in mine.zip(results) {
                        assert_eq!(
                            fingerprint(result),
                            expected[qi],
                            "client {c} batched query {qi} diverged from solo execution"
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    guard.shutdown();
}

#[test]
fn served_search_is_bit_identical_to_solo_across_the_grid() {
    let w = Arc::new(workload());
    for index in INDEX_SPECS {
        for dco in DCO_SPECS {
            run_cell(&w, index, dco, |_| None);
        }
    }
}

/// One `/search_batch` request is answered query by query: each of its
/// results equals the solo library search for that query.
#[test]
fn search_batch_results_are_bit_identical_to_solo() {
    let w = Arc::new(workload());
    let index = INDEX_SPECS[2];
    let dco = DCO_SPECS[2];
    let oracle = build(&w, index, dco);
    let n_queries = 6;

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
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

    let rows = (0..n_queries).map(|qi| Json::from(w.queries.get(qi)));
    let body = body("queries", Json::Arr(rows.collect()), None);
    let mut conn = Conn::open(guard.addr());
    let (status, reply) = conn.request("POST", "/search_batch", Some(&body), false);
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
            "batched query {qi} diverged from solo execution"
        );
    }
    guard.shutdown();
}

/// The filtered cell, per index kind: concurrent requests under one
/// shared predicate, then under four different ones, each stay
/// bit-identical to solo `Engine::search_filtered_with`.
#[test]
fn filtered_served_search_is_bit_identical_to_solo() {
    let w = Arc::new(workload());
    for index in INDEX_SPECS {
        run_cell(&w, index, DCO_SPECS[2], |_| Some(1));
        run_cell(&w, index, DCO_SPECS[2], |client| Some(client as u64));
    }
}

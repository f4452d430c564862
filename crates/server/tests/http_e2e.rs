//! End-to-end HTTP tests: a real server on an ephemeral port, a real
//! TCP client, every endpoint, and the error surface.

mod util;

use ddc_core::QueryBatch;
use ddc_engine::{Engine, EngineConfig};
use ddc_server::{Json, Server, ServerConfig, ServerGuard};
use ddc_vecs::{SynthSpec, Workload};
use util::{fingerprint, request, request_text, result_fingerprint, Conn};

const K: usize = 5;
const INDEX: &str = "hnsw(m=6,ef_construction=40,seed=3)";
const DCO_A: &str = "ddcres(init_d=4,delta_d=4,seed=5)";
const DCO_B: &str = "adsampling(epsilon0=2.1,delta_d=4,seed=2)";

fn workload() -> Workload {
    SynthSpec::tiny_test(16, 400, 2026).generate()
}

fn engine(w: &Workload, index: &str, dco: &str) -> Engine {
    let cfg = EngineConfig::from_strs(index, dco).unwrap();
    Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap()
}

fn serve(w: &Workload, workers: usize) -> ServerGuard {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        ..Default::default()
    };
    let server = Server::bind(
        &cfg,
        engine(w, INDEX, DCO_A),
        w.base.clone(),
        Some(w.train_queries.clone()),
    )
    .unwrap();
    server.spawn().unwrap()
}

fn query_body(w: &Workload, qi: usize, k: usize) -> String {
    Json::obj([
        ("query", Json::from(w.queries.get(qi))),
        ("k", Json::from(k)),
    ])
    .dump()
}

#[test]
fn healthz_and_stats_report_the_live_engine() {
    let w = workload();
    let guard = serve(&w, 2);

    let (status, body) = request(guard.addr(), "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(body.get("epoch").and_then(Json::as_usize), Some(0));
    // Specs echo in canonical (fully-parameterized) Display form.
    let canonical_dco = guard.handle().engine().config().dco.to_string();
    assert_eq!(
        body.get("dco").and_then(Json::as_str),
        Some(canonical_dco.as_str())
    );

    let (status, body) = request(guard.addr(), "GET", "/stats", None);
    assert_eq!(status, 200);
    assert_eq!(body.get("index_kind").and_then(Json::as_str), Some("hnsw"));
    assert_eq!(body.get("dco_name").and_then(Json::as_str), Some("DDCres"));
    assert_eq!(body.get("len").and_then(Json::as_usize), Some(400));
    assert_eq!(body.get("dim").and_then(Json::as_usize), Some(16));
    assert_eq!(body.get("workers").and_then(Json::as_usize), Some(2));
    assert!(body.get("counters").unwrap().get("candidates").is_some());

    guard.shutdown();
}

#[test]
fn search_matches_the_library_engine_bit_for_bit() {
    let w = workload();
    let guard = serve(&w, 2);
    let reference = guard.handle().engine();

    let mut conn = Conn::open(guard.addr()); // keep-alive across queries
    for qi in 0..4 {
        let (status, body) = conn.request("POST", "/search", Some(&query_body(&w, qi, K)), false);
        assert_eq!(status, 200, "query {qi}: {body}");
        assert_eq!(body.get("epoch").and_then(Json::as_usize), Some(0));
        let want = result_fingerprint(&reference.search(w.queries.get(qi), K).unwrap());
        assert_eq!(fingerprint(&body), want, "query {qi}");
    }

    // k = 0 is well-defined: an empty result, not an error.
    let (status, body) = conn.request("POST", "/search", Some(&query_body(&w, 0, 0)), true);
    assert_eq!(status, 200);
    assert_eq!(body.get("ids").and_then(Json::as_arr).unwrap().len(), 0);

    guard.shutdown();
}

#[test]
fn search_batch_is_shard_parallel_and_bit_identical() {
    let w = workload();
    let guard = serve(&w, 4);
    let reference = guard.handle().engine();

    let n_queries = w.queries.len();
    let queries: Vec<Json> = (0..n_queries)
        .map(|qi| Json::from(w.queries.get(qi)))
        .collect();
    let body = Json::obj([("queries", Json::Arr(queries)), ("k", Json::from(K))]).dump();
    let (status, reply) = request(guard.addr(), "POST", "/search_batch", Some(&body));
    assert_eq!(status, 200, "{reply}");
    let results = reply.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), n_queries);

    let batch = QueryBatch::new(w.queries.clone());
    let want = reference.search_batch(&batch, K).unwrap();
    for (qi, (got, want)) in results.iter().zip(&want).enumerate() {
        assert_eq!(
            fingerprint(got),
            result_fingerprint(want),
            "batched query {qi}"
        );
    }

    guard.shutdown();
}

#[test]
fn admin_swap_installs_a_new_epoch_live() {
    let w = workload();
    let guard = serve(&w, 2);

    // Baseline: epoch 0 serves DCO_A's results. The fingerprints include
    // work counters, which always distinguish two operators even when
    // their distances agree to the bit.
    let want_a = result_fingerprint(
        &engine(&w, INDEX, DCO_A)
            .search(w.queries.get(0), K)
            .unwrap(),
    );
    let want_b = result_fingerprint(
        &engine(&w, INDEX, DCO_B)
            .search(w.queries.get(0), K)
            .unwrap(),
    );
    assert_ne!(want_a, want_b);

    let (status, body) = request(guard.addr(), "POST", "/search", Some(&query_body(&w, 0, K)));
    assert_eq!(status, 200);
    assert_eq!(fingerprint(&body), want_a);

    // Swap the operator (index inherited), then verify epoch and results.
    let swap = Json::obj([("dco", Json::from(DCO_B))]).dump();
    let (status, body) = request(guard.addr(), "POST", "/admin/swap", Some(&swap));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("epoch").and_then(Json::as_usize), Some(1));
    let cfg_b = EngineConfig::from_strs(INDEX, DCO_B).unwrap();
    assert_eq!(
        body.get("index").and_then(Json::as_str),
        Some(cfg_b.index.to_string().as_str())
    );
    assert_eq!(
        body.get("dco").and_then(Json::as_str),
        Some(cfg_b.dco.to_string().as_str())
    );

    let (status, body) = request(guard.addr(), "POST", "/search", Some(&query_body(&w, 0, K)));
    assert_eq!(status, 200);
    assert_eq!(body.get("epoch").and_then(Json::as_usize), Some(1));
    assert_eq!(fingerprint(&body), want_b);

    // Swap back through a snapshot of the original config.
    let snap = std::env::temp_dir().join(format!("ddc-serve-e2e-{}.snap", std::process::id()));
    engine(&w, INDEX, DCO_A).save_snapshot(&snap).unwrap();
    let swap = Json::obj([("snapshot", Json::from(snap.to_str().unwrap()))]).dump();
    let (status, body) = request(guard.addr(), "POST", "/admin/swap", Some(&swap));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("epoch").and_then(Json::as_usize), Some(2));
    let (_, body) = request(guard.addr(), "POST", "/search", Some(&query_body(&w, 0, K)));
    assert_eq!(fingerprint(&body), want_a, "reopened engine serves epoch 2");
    std::fs::remove_file(&snap).ok();

    // The retired directory `load` key and a bad spec are both rejected,
    // and the live engine is untouched.
    let dir = std::env::temp_dir().join(format!("ddc-serve-e2e-{}", std::process::id()));
    let swap = Json::obj([("load", Json::from(dir.to_str().unwrap()))]).dump();
    let (status, body) = request(guard.addr(), "POST", "/admin/swap", Some(&swap));
    assert_eq!(status, 400, "{body}");
    let swap = Json::obj([("dco", Json::from("definitely-not-a-dco"))]).dump();
    let (status, _) = request(guard.addr(), "POST", "/admin/swap", Some(&swap));
    assert_eq!(status, 400);
    let (_, body) = request(guard.addr(), "GET", "/healthz", None);
    assert_eq!(body.get("epoch").and_then(Json::as_usize), Some(2));

    guard.shutdown();
}

/// `/stats` work totals are the server's one ledger — the same numbers as
/// the `/metrics` counters, counted since boot — so a hot swap zeroes
/// nothing.
#[test]
fn stats_work_ledger_survives_a_swap() {
    let w = workload();
    let guard = serve(&w, 2);
    let mut candidates = 0;
    for qi in 0..3 {
        let (status, body) = request(
            guard.addr(),
            "POST",
            "/search",
            Some(&query_body(&w, qi, K)),
        );
        assert_eq!(status, 200, "{body}");
        let c = body.get("counters").and_then(|c| c.get("candidates"));
        candidates += c.and_then(Json::as_usize).unwrap();
    }
    let swap = Json::obj([("dco", Json::from(DCO_B))]).dump();
    let (status, body) = request(guard.addr(), "POST", "/admin/swap", Some(&swap));
    assert_eq!(status, 200, "{body}");

    let (_, stats) = request(guard.addr(), "GET", "/stats", None);
    assert_eq!(stats.get("epoch").and_then(Json::as_usize), Some(1));
    assert_eq!(stats.get("queries").and_then(Json::as_usize), Some(3));
    let counted = stats.get("counters").and_then(|c| c.get("candidates"));
    assert_eq!(counted.and_then(Json::as_usize), Some(candidates));
    // `batches` is the collector's count of engine calls.
    let coalesced = stats.get("coalesce").and_then(|c| c.get("batches"));
    assert_eq!(
        stats.get("batches").and_then(Json::as_usize),
        coalesced.and_then(Json::as_usize)
    );

    let (_, text) = request_text(guard.addr(), "GET", "/metrics", None);
    let total = text
        .lines()
        .find_map(|l| l.strip_prefix("ddc_dco_candidates_total "))
        .expect("ddc_dco_candidates_total");
    assert_eq!(total.parse::<usize>().unwrap(), candidates);
    assert!(!text.contains("ddc_engine_queries"), "{text}");

    guard.shutdown();
}

#[test]
fn snapshot_boot_serves_identical_results_without_base_vectors() {
    let w = workload();
    let reference = engine(&w, INDEX, DCO_A);
    let tmp = std::env::temp_dir();
    let snap_a = tmp.join(format!("ddc-serve-snap-a-{}.snap", std::process::id()));
    reference.save_snapshot(&snap_a).unwrap();

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..Default::default()
    };
    let guard = Server::bind_snapshot(&cfg, &snap_a)
        .unwrap()
        .spawn()
        .unwrap();

    // Stats attribute storage to the mapped container.
    let (status, body) = request(guard.addr(), "GET", "/stats", None);
    assert_eq!(status, 200);
    assert_eq!(
        body.get("storage_backend").and_then(Json::as_str),
        Some("snapshot")
    );
    assert_eq!(body.get("len").and_then(Json::as_usize), Some(400));
    assert_eq!(body.get("dim").and_then(Json::as_usize), Some(16));

    // Served results (ids, bit-level distances, work counters) match the
    // engine the snapshot was saved from.
    for qi in 0..3 {
        let (status, body) = request(
            guard.addr(),
            "POST",
            "/search",
            Some(&query_body(&w, qi, K)),
        );
        assert_eq!(status, 200, "{body}");
        let want = result_fingerprint(&reference.search(w.queries.get(qi), K).unwrap());
        assert_eq!(fingerprint(&body), want, "query {qi}");
    }

    // No base vectors were retained: rebuild-shaped swaps 400 cleanly...
    let swap = Json::obj([("dco", Json::from(DCO_B))]).dump();
    let (status, body) = request(guard.addr(), "POST", "/admin/swap", Some(&swap));
    assert_eq!(status, 400, "{body}");
    // ...but swapping to another container works.
    let snap_b = tmp.join(format!("ddc-serve-snap-b-{}.snap", std::process::id()));
    engine(&w, INDEX, DCO_B).save_snapshot(&snap_b).unwrap();
    let swap = Json::obj([("snapshot", Json::from(snap_b.to_str().unwrap()))]).dump();
    let (status, body) = request(guard.addr(), "POST", "/admin/swap", Some(&swap));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("epoch").and_then(Json::as_usize), Some(1));
    let want_b = result_fingerprint(
        &engine(&w, INDEX, DCO_B)
            .search(w.queries.get(0), K)
            .unwrap(),
    );
    let (_, body) = request(guard.addr(), "POST", "/search", Some(&query_body(&w, 0, K)));
    assert_eq!(
        fingerprint(&body),
        want_b,
        "swapped snapshot serves epoch 1"
    );

    guard.shutdown();
    std::fs::remove_file(&snap_a).ok();
    std::fs::remove_file(&snap_b).ok();
}

#[test]
fn protocol_errors_are_4xx_not_crashes() {
    let w = workload();
    let guard = serve(&w, 2);

    let (status, _) = request(guard.addr(), "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = request(guard.addr(), "DELETE", "/search", None);
    assert_eq!(status, 405);
    let (status, _) = request(guard.addr(), "POST", "/search", Some("not json"));
    assert_eq!(status, 400);
    let (status, _) = request(guard.addr(), "POST", "/search", Some("{}"));
    assert_eq!(status, 400, "missing `query`");
    let wrong_dim = Json::obj([
        ("query", Json::from(&[1.0f32, 2.0][..])),
        ("k", Json::from(K)),
    ])
    .dump();
    let (status, body) = request(guard.addr(), "POST", "/search", Some(&wrong_dim));
    assert_eq!(status, 400);
    assert!(body.get("error").is_some());

    // Hostile k/ef cannot drive an O(k) allocation: `k` clamps to the
    // collection size and the HNSW beam to the graph's, instead of
    // aborting the process.
    let huge = Json::obj([
        ("query", Json::from(w.queries.get(0))),
        ("k", Json::Num(1e15)),
        ("ef", Json::Num(1e15)),
    ])
    .dump();
    let (status, body) = request(guard.addr(), "POST", "/search", Some(&huge));
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body.get("ids").and_then(Json::as_arr).unwrap().len(),
        400,
        "k clamps to the collection size"
    );

    // The server survives all of the above.
    let (status, _) = request(guard.addr(), "GET", "/healthz", None);
    assert_eq!(status, 200);

    guard.shutdown();
}

/// A `/search` with a body and a `/healthz` pipelined behind it on one
/// keep-alive connection, in one write and split in two at every byte:
/// the search handler gets exactly its Content-Length (one byte more or
/// fewer is not a JSON document and would draw a 400) and the follower
/// is answered after it.
#[test]
fn pipelined_requests_split_at_every_offset_are_both_answered() {
    let w = workload();
    let guard = serve(&w, 2);
    let body = query_body(&w, 0, K);
    let (status, expected) = request(guard.addr(), "POST", "/search", Some(&body));
    assert_eq!(status, 200);

    let raw = format!(
        "POST /search HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}GET /healthz HTTP/1.1\r\n\r\n",
        body.len()
    );
    let mut conn = Conn::open(guard.addr());
    for cut in 0..=raw.len() {
        conn.send(&raw.as_bytes()[..cut]);
        // Let the first part land on a readable edge of its own.
        std::thread::sleep(std::time::Duration::from_micros(200));
        conn.send(&raw.as_bytes()[cut..]);
        let (status, text) = conn.read_response();
        assert_eq!(status, 200, "cut {cut}: {text}");
        let hit = Json::parse(&text).unwrap();
        assert_eq!(fingerprint(&hit), fingerprint(&expected), "cut {cut}");
        let (status, text) = conn.read_response();
        assert_eq!(status, 200, "cut {cut}: {text}");
        assert!(text.contains("\"status\":\"ok\""), "cut {cut}: {text}");
    }
    guard.shutdown();
}

/// Satellite of the finiteness bugfix: JSON numbers are f64, so `1e39`
/// is finite on the wire but overflows to `+inf` once cast to f32 —
/// before the fix it sailed into the engine and produced NaN distances
/// under an HTTP 200. Now it (and every other non-finite or
/// wrong-length query) is a 400 naming the offending index.
#[test]
fn non_finite_and_mismatched_queries_get_explanatory_400s() {
    let w = workload();
    let guard = serve(&w, 2);
    let err_text = |body: &Json| {
        body.get("error")
            .and_then(Json::as_str)
            .expect("error message")
            .to_string()
    };

    // /search: one f32-overflowing component poisons nothing — it 400s.
    let mut vals: Vec<Json> = (0..16).map(|_| Json::Num(0.25)).collect();
    vals[3] = Json::Num(1e39);
    let body = Json::obj([("query", Json::Arr(vals.clone())), ("k", Json::from(K))]).dump();
    let (status, reply) = request(guard.addr(), "POST", "/search", Some(&body));
    assert_eq!(status, 400, "{reply}");
    let msg = err_text(&reply);
    assert!(
        msg.contains("query[3]") && msg.contains("finite"),
        "message should name the offending index: {msg}"
    );

    // Negative overflow and non-numbers are caught the same way.
    vals[3] = Json::Num(-1e40);
    let body = Json::obj([("query", Json::Arr(vals.clone())), ("k", Json::from(K))]).dump();
    let (status, _) = request(guard.addr(), "POST", "/search", Some(&body));
    assert_eq!(status, 400);
    vals[3] = Json::from("oops");
    let body = Json::obj([("query", Json::Arr(vals)), ("k", Json::from(K))]).dump();
    let (status, reply) = request(guard.addr(), "POST", "/search", Some(&body));
    assert_eq!(status, 400);
    assert!(err_text(&reply).contains("query[3]"), "{reply}");

    // A dimension mismatch is the client's error too: 400 (never 500),
    // and the message tells them what the engine actually serves.
    let wrong_dim = Json::obj([
        ("query", Json::from(&[1.0f32, 2.0][..])),
        ("k", Json::from(K)),
    ])
    .dump();
    let (status, reply) = request(guard.addr(), "POST", "/search", Some(&wrong_dim));
    assert_eq!(status, 400);
    let msg = err_text(&reply);
    assert!(
        msg.contains("2 dims") && msg.contains("16"),
        "message should name both dims: {msg}"
    );

    // /search_batch: the offending query *and* component are named.
    let good = Json::from(w.queries.get(0));
    let mut bad: Vec<Json> = (0..16).map(|_| Json::Num(0.5)).collect();
    bad[7] = Json::Num(1e39);
    let body = Json::obj([
        ("queries", Json::Arr(vec![good.clone(), Json::Arr(bad)])),
        ("k", Json::from(K)),
    ])
    .dump();
    let (status, reply) = request(guard.addr(), "POST", "/search_batch", Some(&body));
    assert_eq!(status, 400, "{reply}");
    let msg = err_text(&reply);
    assert!(msg.contains("queries[1][7]"), "{msg}");

    let body = Json::obj([
        (
            "queries",
            Json::Arr(vec![good, Json::from(&[1.0f32, 2.0, 3.0][..])]),
        ),
        ("k", Json::from(K)),
    ])
    .dump();
    let (status, reply) = request(guard.addr(), "POST", "/search_batch", Some(&body));
    assert_eq!(status, 400);
    let msg = err_text(&reply);
    assert!(
        msg.contains("queries[1]") && msg.contains("3 dims") && msg.contains("16"),
        "{msg}"
    );

    // The server survives the whole gauntlet.
    let (status, _) = request(guard.addr(), "GET", "/healthz", None);
    assert_eq!(status, 200);
    guard.shutdown();
}

#[test]
fn oversized_bodies_are_rejected_with_413() {
    let w = workload();
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_body_bytes: 1024,
        ..Default::default()
    };
    let server = Server::bind(&cfg, engine(&w, "flat", "exact"), w.base.clone(), None).unwrap();
    let guard = server.spawn().unwrap();
    let big = format!(r#"{{"query": [{}], "k": 1}}"#, vec!["0"; 4096].join(", "));
    let (status, _) = request(guard.addr(), "POST", "/search", Some(&big));
    assert_eq!(status, 413);
    guard.shutdown();
}

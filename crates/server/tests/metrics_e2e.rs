//! End-to-end observability tests: the `/metrics` Prometheus surface,
//! per-query explain traces, `/stats` histogram-shape backward
//! compatibility, and the exactly-once status ledger under a mixed
//! good/bad/timeout/refused traffic soak.

mod util;

use ddc_engine::{Engine, EngineConfig};
use ddc_server::{Json, Server, ServerConfig, ServerGuard};
use ddc_vecs::{SynthSpec, Workload};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use util::{fingerprint, request, request_text, Conn};

const K: usize = 5;
const INDEX: &str = "hnsw(m=6,ef_construction=40,seed=3)";
const DCO: &str = "ddcres(init_d=4,delta_d=4,seed=5)";

fn workload() -> Workload {
    SynthSpec::tiny_test(16, 300, 90125).generate()
}

/// The served engine carries payload tags `row % 4`, so every search
/// shape — filtered ones included — is answerable.
fn serve(w: &Workload, cfg: ServerConfig) -> ServerGuard {
    let mut engine = Engine::build(
        &w.base,
        Some(&w.train_queries),
        EngineConfig::from_strs(INDEX, DCO).unwrap(),
    )
    .unwrap();
    let tags = (0..engine.len() as u64).map(|row| row % 4).collect();
    engine.set_payloads(tags).unwrap();
    Server::bind(&cfg, engine, w.base.clone(), Some(w.train_queries.clone()))
        .unwrap()
        .spawn()
        .unwrap()
}

fn default_cfg() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..Default::default()
    }
}

fn query_body(w: &Workload, qi: usize, extra: &[(&str, Json)]) -> String {
    let mut pairs = vec![
        ("query".to_string(), Json::from(w.queries.get(qi))),
        ("k".to_string(), Json::from(K)),
    ];
    for (key, v) in extra {
        pairs.push((key.to_string(), v.clone()));
    }
    Json::Obj(pairs).dump()
}

/// A `/search_batch` body over queries `0..n`, plus `extra` fields.
fn batch_body(w: &Workload, n: usize, extra: &[(&str, Json)]) -> String {
    let queries = (0..n).map(|qi| Json::from(w.queries.get(qi))).collect();
    let mut pairs = vec![
        ("queries".to_string(), Json::Arr(queries)),
        ("k".to_string(), Json::from(K)),
    ];
    for (key, v) in extra {
        pairs.push((key.to_string(), v.clone()));
    }
    Json::Obj(pairs).dump()
}

fn eq_filter(tag: usize) -> (&'static str, Json) {
    ("filter", Json::obj([("eq", Json::from(tag))]))
}

/// Observations booked so far on one stage of the request ledger.
fn stage_count(text: &str, stage: &str) -> u64 {
    let series = format!("ddc_stage_duration_seconds_count{{stage=\"{stage}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&series))
        .unwrap_or_else(|| panic!("no {series}in:\n{text}"))
        .parse()
        .unwrap()
}

/// Every `ddc_requests_total` cell in an exposition body, as
/// `((endpoint, status), count)`.
fn ledger(text: &str) -> Vec<((String, String), u64)> {
    text.lines()
        .filter(|l| l.starts_with("ddc_requests_total{"))
        .map(|l| {
            let (labels, value) = l
                .strip_prefix("ddc_requests_total{")
                .and_then(|r| r.split_once("} "))
                .unwrap_or_else(|| panic!("bad ledger line {l:?}"));
            let field = |key: &str| {
                labels
                    .split(',')
                    .find_map(|p| p.strip_prefix(&format!("{key}=\"")))
                    .and_then(|v| v.strip_suffix('"'))
                    .unwrap_or_else(|| panic!("no {key} in {l:?}"))
                    .to_string()
            };
            ((field("endpoint"), field("status")), value.parse().unwrap())
        })
        .collect()
}

fn ledger_cell(cells: &[((String, String), u64)], endpoint: &str, status: &str) -> u64 {
    cells
        .iter()
        .filter(|((e, s), _)| e == endpoint && s == status)
        .map(|(_, v)| v)
        .sum()
}

/// Sends raw bytes on a fresh connection and returns the status line of
/// whatever response comes back (empty when the server closed silently).
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(bytes).expect("write");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out); // server closes after erroring
    out.lines().next().unwrap_or("").to_string()
}

#[test]
fn metrics_exposition_validates_and_reports_search_latency() {
    let w = workload();
    let guard = serve(&w, default_cfg());

    for qi in 0..4 {
        let (status, _) = request(
            guard.addr(),
            "POST",
            "/search",
            Some(&query_body(&w, qi, &[])),
        );
        assert_eq!(status, 200);
    }
    let (status, _) = request(guard.addr(), "GET", "/healthz", None);
    assert_eq!(status, 200);
    let (status, _) = request(guard.addr(), "GET", "/no/such/path", None);
    assert_eq!(status, 404);

    let (status, text) = request_text(guard.addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    // The hand-rolled checker enforces the exposition invariants: # TYPE
    // coverage, increasing `le` edges, cumulative monotonicity, +Inf ==
    // _count.
    ddc_obs::expo::validate(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));

    // Per-endpoint latency histograms are first-class series (what the
    // CI smoke greps for too).
    assert!(
        text.contains("ddc_request_duration_seconds_bucket{endpoint=\"/search\""),
        "{text}"
    );
    let count_line = text
        .lines()
        .find(|l| l.starts_with("ddc_request_duration_seconds_count{endpoint=\"/search\"}"))
        .expect("search duration _count");
    let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(count, 4, "{count_line}");

    // DCO work counters are first-class series and nonzero after real
    // searches.
    for family in [
        "ddc_dco_candidates_total",
        "ddc_dco_pruned_total",
        "ddc_dco_exact_total",
        "ddc_dco_dims_scanned_total",
        "ddc_dco_dims_full_total",
    ] {
        let line = text
            .lines()
            .find(|l| l.starts_with(family) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("missing {family}"));
        let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(v > 0.0, "{line}");
    }

    // Request ledger, stage histograms, and the gauges all present.
    let cells = ledger(&text);
    assert_eq!(ledger_cell(&cells, "/search", "200"), 4);
    assert_eq!(ledger_cell(&cells, "/healthz", "200"), 1);
    assert_eq!(ledger_cell(&cells, "other", "404"), 1);
    for needle in [
        "ddc_stage_duration_seconds_bucket{stage=\"parse\"",
        "ddc_stage_duration_seconds_bucket{stage=\"search\"",
        "ddc_engine_epoch",
        "ddc_storage_backend{backend=\"ram\"} 1",
        "ddc_coalesce_batch_size_bucket",
        "ddc_coalesce_submitted_total",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    guard.shutdown();
}

#[test]
fn stats_histogram_keys_stay_backward_compatible() {
    let w = workload();
    let guard = serve(&w, default_cfg());
    let (status, _) = request(
        guard.addr(),
        "POST",
        "/search",
        Some(&query_body(&w, 0, &[])),
    );
    assert_eq!(status, 200);

    let (status, body) = request(guard.addr(), "GET", "/stats", None);
    assert_eq!(status, 200);
    let coalesce = body.get("coalesce").expect("coalesce block");
    // The exact pre-migration key sets: every `le_<edge>` plus the final
    // `gt_<last>`, per histogram. A /stats consumer must not notice the
    // move onto ddc_obs::AtomicHistogram.
    let size = coalesce.get("size_hist").expect("size_hist");
    for key in ["le_1", "le_2", "le_4", "le_8", "le_16", "le_32", "gt_32"] {
        assert!(size.get(key).is_some(), "size_hist lost key {key}");
    }
    let wait = coalesce.get("wait_us_hist").expect("wait_us_hist");
    for key in [
        "le_50", "le_100", "le_200", "le_500", "le_1000", "le_5000", "gt_5000",
    ] {
        assert!(wait.get(key).is_some(), "wait_us_hist lost key {key}");
    }
    // And the solo search above is visible in the size histogram.
    assert_eq!(size.get("le_1").and_then(Json::as_usize), Some(1));

    guard.shutdown();
}

/// Every search shape explains itself — `/search` and `/search_batch`,
/// filtered or not (the last three had no trace before the search paths
/// were collapsed) — only when asked, and without changing the answer.
#[test]
fn explain_trace_absent_by_default_and_consistent_when_enabled() {
    const COUNTERS: [&str; 5] = ["candidates", "pruned", "exact", "dims_scanned", "dims_full"];
    let w = workload();
    let guard = serve(&w, default_cfg());
    let num = |obj: &Json, key: &str| {
        obj.get(key)
            .and_then(Json::as_usize)
            .unwrap_or_else(|| panic!("no {key} in {obj}"))
    };
    let n = 3;
    let shapes = ["/search", "/search_batch"].map(|p| [(p, false), (p, true)]);
    for (path, filtered) in shapes.into_iter().flatten() {
        let ask = |explain: bool| {
            let mut extra = Vec::new();
            extra.extend(filtered.then(|| eq_filter(1)));
            extra.extend(explain.then_some(("explain", Json::Bool(true))));
            let body = match path {
                "/search" => query_body(&w, 1, &extra),
                _ => batch_body(&w, n, &extra),
            };
            let (status, reply) = request(guard.addr(), "POST", path, Some(&body));
            assert_eq!(status, 200, "{path}: {reply}");
            reply
        };
        let (plain, traced) = (ask(false), ask(true));
        assert!(plain.get("trace").is_none(), "{path}: trace must be opt-in");

        // The explained search is bit-identical to the plain one: same
        // ids, same distance bits, same work counters. `/search` answers
        // one flat hit, `/search_batch` one per query under `results`.
        let hits = |reply: &Json| match reply.get("results").and_then(Json::as_arr) {
            Some(results) => results.to_vec(),
            None => vec![reply.clone()],
        };
        let (plain_hits, traced_hits) = (hits(&plain), hits(&traced));
        assert_eq!(traced_hits.len(), if path == "/search" { 1 } else { n });
        assert_eq!(
            plain_hits.iter().map(fingerprint).collect::<Vec<_>>(),
            traced_hits.iter().map(fingerprint).collect::<Vec<_>>(),
            "{path} filtered={filtered}"
        );

        // One request-level block; its DCO profile is the response's
        // counters, restated (summed over a batch's queries).
        let trace = traced.get("trace").expect("trace block");
        for key in COUNTERS {
            let sum: usize = traced_hits
                .iter()
                .map(|hit| num(hit.get("counters").expect("counters"), key))
                .sum();
            assert_eq!(num(trace, key), sum, "{path}: {key}");
        }
        assert_eq!(
            num(trace, "candidates"),
            num(trace, "pruned") + num(trace, "exact")
        );
        assert_eq!(num(trace, "batch_len"), traced_hits.len(), "{path}");
        assert_eq!(num(&traced, "epoch"), num(trace, "epoch"));
        let stages = trace.get("stage_nanos").expect("stage_nanos");
        for stage in ["parse", "queue_wait", "search"] {
            assert!(stages.get(stage).is_some(), "stage_nanos lacks {stage}");
        }
        // (with `search_nanos`) what the benchmark reads off a `/search`.
        for key in ["queue_wait_nanos", "batch_nanos"] {
            assert!(trace.get(key).is_some(), "{path}: trace lacks {key}");
        }
        // The engine stamps every query's search duration; the block
        // echoes their sum in both places.
        assert_eq!(num(trace, "search_nanos"), num(stages, "search"));
    }
    guard.shutdown();
}

/// Every search request — `/search`, filtered `/search`, `/search_batch`,
/// answered or rejected — books exactly one `parse` observation (HTTP
/// framing and the JSON body together); every answered one exactly one
/// `queue_wait` and one `serialize`, and one `search` per query.
#[test]
fn every_search_shape_books_each_stage_exactly_once() {
    let w = workload();
    let guard = serve(&w, default_cfg());
    let scrape = || request_text(guard.addr(), "GET", "/metrics", None).1;
    let before = scrape();

    // (path, body, queries answered — 0: rejected after the body parsed,
    // which books a parse and nothing else).
    let bad_filter = ("filter", Json::from(7usize));
    let requests = [
        ("/search", query_body(&w, 0, &[]), 1),
        ("/search", query_body(&w, 1, &[eq_filter(2)]), 1),
        ("/search_batch", batch_body(&w, 4, &[]), 4),
        ("/search_batch", batch_body(&w, 4, &[eq_filter(1)]), 4),
        ("/search", "{\"query\": \"nope\"}".to_string(), 0),
        ("/search_batch", batch_body(&w, 1, &[bad_filter]), 0),
    ];
    let mut conn = Conn::open(guard.addr());
    for (path, body, n) in &requests {
        let (status, reply) = conn.request("POST", path, Some(body), false);
        assert_eq!(status, if *n > 0 { 200 } else { 400 }, "{reply}");
    }

    // Each `/metrics` request books its own framing before it renders,
    // so the second scrape is one more request than the first saw.
    let after = scrape();
    let advanced = |stage: &str| stage_count(&after, stage) - stage_count(&before, stage);
    let answered = requests.iter().filter(|r| r.2 > 0).count() as u64;
    assert_eq!(advanced("parse"), requests.len() as u64 + 1);
    assert_eq!(advanced("queue_wait"), answered);
    assert_eq!(advanced("serialize"), answered);
    assert_eq!(
        advanced("search"),
        requests.iter().map(|r| r.2).sum::<u64>()
    );
    guard.shutdown();
}

#[test]
fn status_ledger_conserves_every_request() {
    let w = workload();
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(250),
        max_connections: 4,
        ..default_cfg()
    };
    let guard = serve(&w, cfg);
    let addr = guard.addr();
    let mut sent = 0u64;

    // Routed traffic over one keep-alive connection: 200s, a validation
    // 400, a 404, a 405.
    let mut conn = Conn::open(addr);
    for qi in 0..5 {
        let (status, _) = conn.request("POST", "/search", Some(&query_body(&w, qi, &[])), false);
        assert_eq!(status, 200);
        sent += 1;
    }
    let (status, _) = conn.request("POST", "/search", Some("{\"query\": \"nope\"}"), false);
    assert_eq!(status, 400);
    sent += 1;
    let (status, _) = conn.request("GET", "/definitely/not", None, false);
    assert_eq!(status, 404);
    sent += 1;
    let (status, _) = conn.request("DELETE", "/search", None, true);
    assert_eq!(status, 405);
    sent += 1;

    // A request that dies in framing: 400 on the `none` endpoint.
    assert!(raw_exchange(addr, b"GARBAGE LINE\r\n\r\n").contains("400"));
    sent += 1;
    // An oversized declared body: 413 without reading the body.
    assert!(raw_exchange(
        addr,
        b"POST /search HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
    )
    .contains("413"));
    sent += 1;
    // A client stalled mid-request: 408 after the read timeout.
    assert!(raw_exchange(addr, b"POST /search HTTP/1.1\r\nConte").contains("408"));
    sent += 1;

    // Over the connection cap: the refused client sees a best-effort 503.
    {
        let parked: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Give the reactor a beat to register all four.
        std::thread::sleep(Duration::from_millis(100));
        assert!(raw_exchange(addr, b"").contains("503"));
        sent += 1;
        drop(parked);
        std::thread::sleep(Duration::from_millis(100));
    }

    // Conservation: the ledger's total equals every request counted
    // above, each exactly once. (This /metrics request books itself only
    // after rendering, so it is not part of its own body.)
    let (status, text) = request_text(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let cells = ledger(&text);
    let total: u64 = cells.iter().map(|(_, v)| v).sum();
    assert_eq!(total, sent, "ledger:\n{cells:?}");
    assert_eq!(ledger_cell(&cells, "/search", "200"), 5);
    assert_eq!(ledger_cell(&cells, "/search", "400"), 1);
    assert_eq!(ledger_cell(&cells, "/search", "405"), 1);
    assert_eq!(ledger_cell(&cells, "other", "404"), 1);
    assert_eq!(ledger_cell(&cells, "none", "400"), 1);
    assert_eq!(ledger_cell(&cells, "none", "413"), 1);
    assert_eq!(ledger_cell(&cells, "none", "408"), 1);
    assert_eq!(ledger_cell(&cells, "none", "503"), 1);

    guard.shutdown();
}

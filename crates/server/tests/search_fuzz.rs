//! Fuzz + contract tests for the `/search` and `/search_batch`
//! metric/filter surface.
//!
//! The property under fuzz: whatever a client puts in the `"metric"` or
//! `"filter"` fields — unknown metric names, wrong JSON shapes, inverted
//! ranges, string-valued tags, predicates against an engine that has no
//! payloads — the server answers every request with a clean `200` or a
//! `400` whose error message **names the offending field**. It never
//! panics, never drops the connection, and never silently ignores a
//! malformed clause.
//!
//! Two long-lived servers back the fuzz loops (their guards are
//! intentionally leaked so every proptest case reuses them): a *tagged*
//! cosine engine with per-row payloads, and a *plain* L2 engine without.

mod util;

use ddc_engine::{Engine, EngineConfig, FilterPredicate, Metric};
use ddc_server::{Json, Server, ServerConfig, ServerGuard};
use ddc_vecs::{SynthSpec, Workload};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::OnceLock;
use util::request;

const K: usize = 5;
const DIM: usize = 8;
const N: usize = 300;

fn workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| SynthSpec::tiny_test(DIM, N, 909).generate())
}

/// Round-robin tags `0..16`, so `eq` predicates under 16 match 1/16 of
/// the rows and anything ≥ 16 matches nothing (both must answer 200).
fn tags() -> Vec<u64> {
    (0..N as u64).map(|i| i % 16).collect()
}

fn spawn_server(metric: Metric, with_payloads: bool) -> ServerGuard {
    spawn_tagged(metric, with_payloads.then(tags))
}

fn spawn_tagged(metric: Metric, payloads: Option<Vec<u64>>) -> ServerGuard {
    let w = workload();
    let cfg = EngineConfig::from_strs("hnsw(m=6,ef_construction=40,seed=3)", "exact")
        .unwrap()
        .with_metric(metric);
    let mut engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
    if let Some(payloads) = payloads {
        engine.set_payloads(payloads).unwrap();
    }
    let scfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..Default::default()
    };
    Server::bind(&scfg, engine, w.base.clone(), Some(w.train_queries.clone()))
        .unwrap()
        .spawn()
        .unwrap()
}

/// The cosine engine with payloads, shared by all fuzz cases.
fn tagged_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let guard = spawn_server(Metric::Cosine, true);
        let addr = guard.addr();
        std::mem::forget(guard); // keep serving for the whole test binary
        addr
    })
}

/// The L2 engine without payloads, shared by all fuzz cases.
fn plain_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let guard = spawn_server(Metric::L2, false);
        let addr = guard.addr();
        std::mem::forget(guard);
        addr
    })
}

/// A valid query body (real workload vector, valid `k`) as a JSON
/// prefix; the fuzzed clause is spliced in as `extra`.
fn body_with(qi: usize, extra: &str) -> String {
    let q = workload().queries.get(qi % workload().queries.len());
    let coords: Vec<String> = q.iter().map(|x| format!("{x}")).collect();
    format!(r#"{{"query": [{}], "k": {K}, {extra}}}"#, coords.join(", "))
}

fn error_text(body: &Json) -> String {
    body.get("error")
        .and_then(Json::as_str)
        .expect("400 carries an `error` field")
        .to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary filter clauses — valid predicates with arbitrary tags,
    /// inverted ranges, unknown keys, string values, two-key objects,
    /// non-object filters — always answer 200 or a field-naming 400.
    #[test]
    fn arbitrary_filter_clauses_never_crash_the_server(
        kind in 0usize..8,
        qi in 0usize..16,
        a in any::<u64>(),
        b in any::<u64>(),
        narrow in any::<bool>(),
    ) {
        // The full u64 tag space, and half the time tags small enough to
        // match rows (tags are 0..16).
        let (a, b) = if narrow { (a % 24, b % 24) } else { (a, b) };
        let (lo, hi) = (a.min(b), a.max(b));
        let clause = match kind {
            0 => format!(r#""filter": {{"eq": {a}}}"#),
            1 => format!(r#""filter": {{"range": [{lo}, {hi}]}}"#),
            2 => format!(r#""filter": {{"any_bit": {a}}}"#),
            3 => format!(r#""filter": {{"range": [{hi}, {lo}]}}"#), // lo > hi unless a == b
            4 => format!(r#""filter": {{"tag": {a}}}"#),            // unknown predicate key
            5 => format!(r#""filter": {{"eq": "x{a}"}}"#),          // string-valued tag
            6 => format!(r#""filter": {{"eq": {a}, "any_bit": {b}}}"#), // two keys
            7 => format!(r#""filter": {a}"#),                       // not an object
            _ => unreachable!(),
        };
        let (status, resp) = request(tagged_addr(), "POST", "/search", Some(&body_with(qi, &clause)));
        let valid = kind <= 2 || (kind == 3 && a == b);
        if valid {
            prop_assert_eq!(status, 200, "valid predicate rejected: {}", clause);
            // Every returned id must satisfy the predicate (tags are i % 16).
            let ids = resp.get("ids").and_then(Json::as_arr).unwrap().to_vec();
            for id in &ids {
                let tag = id.as_usize().unwrap() as u64 % 16;
                let ok = match kind {
                    0 => tag == a,
                    1 | 3 => lo <= tag && tag <= hi,
                    2 => tag & a != 0,
                    _ => unreachable!(),
                };
                prop_assert!(ok, "id with tag {tag} leaked through {}", clause);
            }
        } else {
            prop_assert_eq!(status, 400, "malformed predicate admitted: {}", clause);
            prop_assert!(
                error_text(&resp).contains("filter"),
                "400 does not name `filter`: {}",
                error_text(&resp)
            );
        }
    }

    /// Arbitrary metric assertions: the exact serving metric answers 200,
    /// every other value — parseable-but-wrong, unknown names, non-string
    /// values — draws a 400 that names `metric`.
    #[test]
    fn arbitrary_metric_assertions_never_crash_the_server(
        kind in 0usize..9,
        qi in 0usize..16,
        w in 1u64..5,
    ) {
        let clause = match kind {
            0 => r#""metric": "cosine""#.to_string(), // matches the engine
            1 => r#""metric": "l2""#.to_string(),     // valid, mismatched
            2 => r#""metric": "ip""#.to_string(),     // valid, mismatched
            3 => format!(r#""metric": "wl2:{w};{w};{w};{w};{w};{w};{w};{w}""#),
            4 => r#""metric": "euclidean""#.to_string(), // unknown name
            5 => r#""metric": """#.to_string(),
            6 => r#""metric": "wl2:one;two""#.to_string(), // unparsable weights
            7 => format!(r#""metric": {w}"#),             // not a string
            8 => r#""metric": "COSINE""#.to_string(),     // case matters
            _ => unreachable!(),
        };
        let (status, resp) = request(tagged_addr(), "POST", "/search", Some(&body_with(qi, &clause)));
        if kind == 0 {
            prop_assert_eq!(status, 200, "matching assertion rejected");
        } else {
            prop_assert_eq!(status, 400, "bad metric admitted: {}", clause);
            prop_assert!(
                error_text(&resp).contains("metric"),
                "400 does not name `metric`: {}",
                error_text(&resp)
            );
        }
    }

    /// A well-formed predicate against an engine that has no payloads is
    /// the client's error, not a panic: 400 naming `filter` and what is
    /// missing.
    #[test]
    fn filter_on_an_unfiltered_engine_is_a_clean_400(qi in 0usize..16, a in 0u64..100) {
        let clause = format!(r#""filter": {{"eq": {a}}}"#);
        let (status, resp) = request(plain_addr(), "POST", "/search", Some(&body_with(qi, &clause)));
        prop_assert_eq!(status, 400);
        let err = error_text(&resp);
        prop_assert!(err.contains("filter"), "400 does not name `filter`: {err}");
        prop_assert!(err.contains("payloads"), "400 does not say what is missing: {err}");
    }
}

/// Integer fields are read exactly or refused — never rounded through
/// `f64`: tags past 2^53 keep every bit, and a token that is not a `u64`
/// is a 400 naming its field instead of a saturated or truncated value.
#[test]
fn integer_fields_are_exact_or_rejected() {
    let ids_of = |resp: &Json| -> Vec<usize> {
        let ids = resp.get("ids").and_then(Json::as_arr).expect("ids");
        ids.iter().map(|id| id.as_usize().unwrap()).collect()
    };

    // 2^63 + 1 as an any_bit mask: through f64 bit 0 was lost and nothing
    // matched; exactly, every odd tag does.
    let clause = r#""filter": {"any_bit": 9223372036854775809}"#;
    let (status, resp) = request(
        tagged_addr(),
        "POST",
        "/search",
        Some(&body_with(0, clause)),
    );
    assert_eq!(status, 200, "{resp}");
    let ids = ids_of(&resp);
    assert_eq!(ids.len(), K, "odd tags exist: {resp}");
    assert!(ids.iter().all(|id| id % 16 % 2 == 1), "{resp}");

    // Rows tagged 2^53 and 2^53 + 1 alternate; through f64 an `eq` on the
    // odd tag read as the even one and matched the wrong half.
    const BIG: u64 = 1 << 53;
    let payloads = (0..N as u64).map(|i| BIG + i % 2).collect();
    let guard = spawn_tagged(Metric::Cosine, Some(payloads));
    for (tag, parity) in [(BIG, 0), (BIG + 1, 1)] {
        let clause = format!(r#""filter": {{"eq": {tag}}}"#);
        let (status, resp) = request(
            guard.addr(),
            "POST",
            "/search",
            Some(&body_with(1, &clause)),
        );
        assert_eq!(status, 200, "{resp}");
        let ids = ids_of(&resp);
        assert_eq!(ids.len(), K, "{resp}");
        assert!(ids.iter().all(|id| id % 2 == parity), "eq {tag}: {resp}");
    }
    let clause = format!(r#""filter": {{"range": [{}, {}]}}"#, BIG + 1, u64::MAX);
    let (status, resp) = request(
        guard.addr(),
        "POST",
        "/search",
        Some(&body_with(2, &clause)),
    );
    assert_eq!(status, 200, "{resp}");
    assert!(ids_of(&resp).iter().all(|id| id % 2 == 1), "{resp}");
    guard.shutdown();

    // 2^64 passed the old `x <= usize::MAX as f64` test and saturated;
    // fractions, negatives and near-integers are not integers either.
    let q = body_with(3, r#""explain": false"#);
    let with = |field: &str, value: &str| {
        let body = q.replacen(r#""k": 5"#, &format!(r#""k": 5, "{field}": {value}"#), 1);
        // The first `k` wins, so a second one is never read; swap it in.
        if field == "k" {
            q.replacen(r#""k": 5"#, &format!(r#""k": {value}"#), 1)
        } else {
            body
        }
    };
    for (field, value, needle) in [
        ("filter", r#"{"eq": 18446744073709551616}"#, "filter.eq"),
        ("filter", r#"{"any_bit": 1.5}"#, "filter.any_bit"),
        (
            "filter",
            r#"{"range": [0, 18446744073709551616]}"#,
            "filter.range[1]",
        ),
        ("filter", r#"{"eq": -1}"#, "filter.eq"),
        ("k", "18446744073709551616", "`k`"),
        ("k", "1.0000000000000000001", "`k`"),
        ("k", "-0", "`k`"),
        ("ef", "1e20", "`ef`"),
        ("nprobe", "0.5", "`nprobe`"),
    ] {
        let (status, resp) = request(tagged_addr(), "POST", "/search", Some(&with(field, value)));
        assert_eq!(status, 400, "{field} = {value} admitted: {resp}");
        assert!(
            error_text(&resp).contains(needle),
            "{field} = {value}: {resp}"
        );
    }
    // Integers spelled as floats or with an exponent still are integers.
    for (field, value) in [
        ("k", "5.0"),
        ("k", "0.5e1"),
        ("ef", "1e2"),
        ("nprobe", "18446744073709551615"),
    ] {
        let (status, resp) = request(tagged_addr(), "POST", "/search", Some(&with(field, value)));
        assert_eq!(status, 200, "{field} = {value} rejected: {resp}");
    }
}

/// Filtered search over HTTP is the engine's filtered search, bit for
/// bit — ids and distances — on the server's own serving engine.
#[test]
fn filtered_search_over_http_matches_the_engine() {
    let guard = spawn_server(Metric::Cosine, true);
    let engine = guard.handle().engine();
    let t = tags();
    let pred = FilterPredicate::Range(0, 3);
    let w = workload();
    for qi in 0..8 {
        let q = w.queries.get(qi);
        let clause = r#""filter": {"range": [0, 3]}"#;
        let (status, resp) = request(
            guard.addr(),
            "POST",
            "/search",
            Some(&body_with(qi, clause)),
        );
        assert_eq!(status, 200);
        let ids: Vec<u32> = resp
            .get("ids")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_usize().unwrap() as u32)
            .collect();
        let dists = resp.get("distances").and_then(Json::as_f32_vec).unwrap();
        let direct = engine
            .search_filtered_with(q, K, &engine.config().params, &pred)
            .unwrap();
        assert_eq!(
            ids,
            direct.ids(),
            "query {qi}: HTTP filtered ids diverge from the engine"
        );
        for (a, b) in dists.iter().zip(&direct.neighbors) {
            assert_eq!(a.to_bits(), b.dist.to_bits(), "query {qi}: distance bits");
        }
        for id in ids {
            assert!(pred.matches(t[id as usize]), "id {id} leaked the predicate");
        }
    }
    guard.shutdown();
}

/// `/stats` reports the serving metric and whether payloads are
/// attached, on both flavors of server.
#[test]
fn stats_report_metric_and_payload_presence() {
    let (status, stats) = request(tagged_addr(), "GET", "/stats", None);
    assert_eq!(status, 200);
    assert_eq!(stats.get("metric").and_then(Json::as_str), Some("cosine"));
    assert_eq!(stats.get("payloads").and_then(Json::as_bool), Some(true));

    let (status, stats) = request(plain_addr(), "GET", "/stats", None);
    assert_eq!(status, 200);
    assert_eq!(stats.get("metric").and_then(Json::as_str), Some("l2"));
    assert_eq!(stats.get("payloads").and_then(Json::as_bool), Some(false));
}

/// `/search_batch` honors the metric assertion and the `filter` clause:
/// a filtered batch is the engine's filtered search per query, bit for
/// bit, and a malformed or unservable predicate is the same field-naming
/// 400 `/search` answers.
#[test]
fn search_batch_guards_metric_and_filters_per_query() {
    let w = workload();
    let n = 4;
    let rows: Vec<String> = (0..n)
        .map(|qi| format!("{:?}", w.queries.get(qi)))
        .collect();
    let batch = |extra: &str| format!(r#"{{"queries": [{}], "k": {K}, {extra}}}"#, rows.join(", "));
    let post = |addr, extra: &str| request(addr, "POST", "/search_batch", Some(&batch(extra)));

    let (status, resp) = post(tagged_addr(), r#""metric": "l2""#);
    assert_eq!(
        status, 400,
        "mismatched metric must be rejected on the batch path"
    );
    assert!(error_text(&resp).contains("metric"));
    let (status, _) = post(tagged_addr(), r#""metric": "cosine""#);
    assert_eq!(status, 200, "matching metric assertion must pass");

    let guard = spawn_server(Metric::Cosine, true);
    let engine = guard.handle().engine();
    let pred = FilterPredicate::Range(0, 3);
    let (status, resp) = post(guard.addr(), r#""filter": {"range": [0, 3]}"#);
    assert_eq!(status, 200, "{resp}");
    let results = resp.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), n);
    for (qi, result) in results.iter().enumerate() {
        let direct = engine
            .search_filtered_with(w.queries.get(qi), K, &engine.config().params, &pred)
            .unwrap();
        assert_eq!(
            util::fingerprint(result),
            util::result_fingerprint(&direct),
            "query {qi}: batch-filtered answer diverges from the engine"
        );
        assert!(direct
            .ids()
            .iter()
            .all(|&id| pred.matches(tags()[id as usize])));
    }
    guard.shutdown();

    for (addr, clause, needle) in [
        (tagged_addr(), r#"{"range": [3, 0]}"#, "filter.range"),
        (tagged_addr(), r#"{"tag": 1}"#, "filter.tag"),
        (plain_addr(), r#"{"eq": 0}"#, "payloads"),
    ] {
        let (status, resp) = post(addr, &format!(r#""filter": {clause}"#));
        assert_eq!(status, 400, "{clause} admitted");
        let err = error_text(&resp);
        assert!(
            err.contains("`filter") && err.contains(needle),
            "{clause}: {err}"
        );
    }
}

//! Live mutability over HTTP: the `/upsert` → `/search` → `/delete` →
//! `/admin/compact` → `/stats` smoke story, the immutable-boot
//! rejections, and the acceptance stress — readers hammering `/search`
//! while a writer mutates past the background compactor's threshold,
//! with **zero failed responses** and epochs attributing answers to
//! both pre- and post-compaction engines.

mod util;

use ddc_engine::{Engine, EngineConfig, MutableConfig, MutableEngine};
use ddc_server::{Json, Server, ServerConfig, ServerGuard};
use ddc_vecs::{SynthSpec, Workload};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use util::{request, request_text, Conn};

const K: usize = 10;

fn workload() -> Workload {
    SynthSpec::tiny_test(16, 300, 7411).generate()
}

fn spawn_mutable(w: &Workload, index: &str, dco: &str, mcfg: MutableConfig) -> ServerGuard {
    let cfg = EngineConfig::from_strs(index, dco).unwrap();
    let me =
        MutableEngine::build(w.base.clone(), Some(w.train_queries.clone()), cfg, mcfg).unwrap();
    let server = Server::bind_mutable(
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..Default::default()
        },
        me,
    )
    .unwrap();
    server.spawn().unwrap()
}

/// Observations of the per-search pending-insert merge so far.
fn merges(addr: std::net::SocketAddr) -> u64 {
    let (status, text) = request_text(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let series = "ddc_overlay_merge_duration_seconds_count ";
    text.lines()
        .find_map(|l| l.strip_prefix(series))
        .unwrap_or_else(|| panic!("no {series}in:\n{text}"))
        .parse()
        .unwrap()
}

/// Only explicit `/admin/compact` calls compact; the background
/// compactor never fires on its own.
fn manual_compaction() -> MutableConfig {
    MutableConfig {
        compact_threshold: 0,
        compact_interval: Duration::from_secs(3600),
        ..Default::default()
    }
}

fn ids_of(reply: &Json) -> Vec<u32> {
    reply
        .get("ids")
        .and_then(Json::as_arr)
        .expect("ids")
        .iter()
        .map(|v| v.as_usize().expect("id") as u32)
        .collect()
}

#[test]
fn upsert_delete_compact_smoke_over_http() {
    let w = workload();
    let guard = spawn_mutable(
        &w,
        "hnsw(m=6,ef_construction=40,seed=3)",
        "ddcres(init_d=4,delta_d=4,seed=5)",
        manual_compaction(),
    );
    let addr = guard.addr();
    let q = w.queries.get(0);
    let search_body = Json::obj([("query", Json::from(q)), ("k", Json::from(1usize))]).dump();

    // Upsert the query vector itself under a fresh id: the very next
    // search must return it at rank one, through one pending-insert merge.
    assert_eq!(merges(addr), 0, "clean searches skip the merge");
    let body = Json::obj([("id", Json::from(9999usize)), ("vector", Json::from(q))]).dump();
    let (status, reply) = request(addr, "POST", "/upsert", Some(&body));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("replaced").and_then(Json::as_bool), Some(false));
    let (status, reply) = request(addr, "POST", "/search", Some(&search_body));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(ids_of(&reply), vec![9999]);
    assert_eq!(merges(addr), 1, "one merge per dirty search");

    // Delete it again: gone from the very next search.
    let body = Json::obj([("id", Json::from(9999usize))]).dump();
    let (status, reply) = request(addr, "POST", "/delete", Some(&body));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("deleted").and_then(Json::as_bool), Some(true));
    let (status, reply) = request(addr, "POST", "/search", Some(&search_body));
    assert_eq!(status, 200, "{reply}");
    assert_ne!(ids_of(&reply), vec![9999]);
    assert_eq!(merges(addr), 1, "nothing pending: a clean search");

    // Tombstone a base row, compact now, and check the counters: the
    // default policy repairs the copy in place, dropping the row for good.
    let body = Json::obj([("id", Json::from(5usize))]).dump();
    let (status, _) = request(addr, "POST", "/delete", Some(&body));
    assert_eq!(status, 200);
    let (status, reply) = request(addr, "POST", "/search", Some(&search_body));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(merges(addr), 2, "a tombstone alone makes a search dirty");
    let (status, reply) = request(addr, "POST", "/admin/compact", Some("{}"));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("mode").and_then(Json::as_str), Some("repair"));
    assert_eq!(reply.get("dropped").and_then(Json::as_usize), Some(1));
    assert_eq!(
        reply.get("len").and_then(Json::as_usize),
        Some(w.base.len() - 1)
    );
    let epoch = reply.get("epoch").and_then(Json::as_usize).unwrap();
    assert!(epoch >= 1, "compaction must land a new engine epoch");

    let (status, stats) = request(addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    let m = stats
        .get("mutation")
        .expect("mutation stats on mutable boot");
    assert_eq!(m.get("compactions").and_then(Json::as_usize), Some(1));
    assert_eq!(m.get("pending_inserts").and_then(Json::as_usize), Some(0));
    assert_eq!(m.get("tombstones").and_then(Json::as_usize), Some(0));
    assert_eq!(
        m.get("live").and_then(Json::as_usize),
        Some(w.base.len() - 1)
    );

    // The compacted engine still serves.
    let (status, reply) = request(addr, "POST", "/search", Some(&search_body));
    assert_eq!(status, 200);
    assert_eq!(reply.get("epoch").and_then(Json::as_usize), Some(epoch));

    // `{"mode": "full"}` still forces the from-scratch fold.
    let body = Json::obj([("id", Json::from(6usize))]).dump();
    let (status, _) = request(addr, "POST", "/delete", Some(&body));
    assert_eq!(status, 200);
    let (status, reply) = request(addr, "POST", "/admin/compact", Some(r#"{"mode":"full"}"#));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("mode").and_then(Json::as_str), Some("fold"));
    assert_eq!(reply.get("dropped").and_then(Json::as_usize), Some(1));
    assert_eq!(
        reply.get("len").and_then(Json::as_usize),
        Some(w.base.len() - 2)
    );

    guard.shutdown();
}

#[test]
fn immutable_boots_reject_mutations_and_mutable_boots_reject_swap() {
    let w = workload();

    // Immutable boot: mutations 400, /admin/swap still works.
    let engine = Engine::build(
        &w.base,
        None,
        EngineConfig::from_strs("flat", "exact").unwrap(),
    )
    .unwrap();
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..Default::default()
    };
    let guard = Server::bind(&cfg, engine, w.base.clone(), None)
        .unwrap()
        .spawn()
        .unwrap();
    let upsert = Json::obj([
        ("id", Json::from(1usize)),
        ("vector", Json::from(w.queries.get(0))),
    ])
    .dump();
    for (path, body) in [
        ("/upsert", upsert.as_str()),
        ("/delete", "{\"id\": 1}"),
        ("/admin/compact", "{}"),
    ] {
        let (status, reply) = request(guard.addr(), "POST", path, Some(body));
        assert_eq!(status, 400, "{path} on an immutable boot: {reply}");
        assert!(
            reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .contains("immutable"),
            "{path}: {reply}"
        );
    }
    let (status, stats) = request(guard.addr(), "GET", "/stats", None);
    assert_eq!(status, 200);
    assert!(stats.get("mutation").is_none(), "no write head, no stats");
    guard.shutdown();

    // Mutable boot: /admin/swap is the compactor's job.
    let guard = spawn_mutable(&w, "flat", "exact", manual_compaction());
    let swap = Json::obj([("dco", Json::from("exact"))]).dump();
    let (status, reply) = request(guard.addr(), "POST", "/admin/swap", Some(&swap));
    assert_eq!(status, 400, "{reply}");
    guard.shutdown();
}

/// The acceptance stress: concurrent readers see zero failed responses
/// while a writer pushes the pending count past the background
/// compactor's threshold repeatedly, and the observed response epochs
/// span at least one compaction swap (pre- and post-compaction engines
/// both attributed). A set of rows deleted before the readers start must
/// never surface — their own vectors are used as queries, so any
/// tombstone leak (including mid-swap) would rank them first.
#[test]
fn mutation_under_traffic_with_zero_failures_across_background_compactions() {
    const WRITER_ROUNDS: usize = 3;
    const UPSERTS_PER_ROUND: usize = 24;
    // Reader population scales like the connection soak (CI runs the
    // reduced default; crank it for a full mutation soak).
    #[allow(non_snake_case)]
    let READERS: usize = std::env::var("DDC_MUT_READERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    let w = Arc::new(workload());
    let n = w.base.len();
    let guard = spawn_mutable(
        &w,
        "flat",
        "exact",
        MutableConfig {
            compact_threshold: 16, // well under one writer round
            compact_interval: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let addr = guard.addr();

    // Protected deletions happen before any reader runs, so no reader
    // may ever see these ids, whatever the compactor is doing.
    let doomed: Arc<Vec<u32>> = Arc::new((0..10).map(|i| (i * 29 % n) as u32).collect());
    for &id in doomed.iter() {
        let body = Json::obj([("id", Json::from(id as usize))]).dump();
        let (status, reply) = request(addr, "POST", "/delete", Some(&body));
        assert_eq!(status, 200, "{reply}");
        assert_eq!(reply.get("deleted").and_then(Json::as_bool), Some(true));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(Barrier::new(READERS + 1));
    let responses = Arc::new(AtomicUsize::new(0));
    let epochs = Arc::new(Mutex::new(HashSet::new()));
    let readers: Vec<_> = (0..READERS)
        .map(|c| {
            let w = Arc::clone(&w);
            let doomed = Arc::clone(&doomed);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            let responses = Arc::clone(&responses);
            let epochs = Arc::clone(&epochs);
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr);
                started.wait();
                let mut qi = c;
                while !stop.load(Ordering::Relaxed) {
                    // Bait queries: the deleted rows' own vectors.
                    let query = w.base.get(doomed[qi % doomed.len()] as usize);
                    let body =
                        Json::obj([("query", Json::from(query)), ("k", Json::from(K))]).dump();
                    let (status, reply) = conn.request("POST", "/search", Some(&body), false);
                    assert_eq!(status, 200, "reader {c}: {reply}");
                    let ids = ids_of(&reply);
                    assert!(
                        ids.iter().all(|id| !doomed.contains(id)),
                        "reader {c}: deleted id in {ids:?}"
                    );
                    let epoch = reply.get("epoch").and_then(Json::as_usize).unwrap();
                    epochs.lock().unwrap().insert(epoch);
                    responses.fetch_add(1, Ordering::Relaxed);
                    qi += 1;
                }
                conn.request("GET", "/healthz", None, true);
            })
        })
        .collect();

    let compactions = |addr| {
        let (status, stats) = request(addr, "GET", "/stats", None);
        assert_eq!(status, 200);
        let m = stats.get("mutation").expect("mutation stats");
        (
            m.get("compactions").and_then(Json::as_usize).unwrap(),
            m.get("pending_inserts").and_then(Json::as_usize).unwrap(),
            m.get("tombstones").and_then(Json::as_usize).unwrap(),
        )
    };

    started.wait();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut next_id = 100_000usize;
    for round in 0..WRITER_ROUNDS {
        let (before, _, _) = compactions(addr);
        let mut conn = Conn::open(addr);
        for i in 0..UPSERTS_PER_ROUND {
            // New rows near existing ones, plus churn on earlier inserts.
            let vector = w.base.get((next_id + i) % n);
            let body = Json::obj([
                ("id", Json::from(next_id + i)),
                ("vector", Json::from(vector)),
            ])
            .dump();
            let (status, reply) = conn.request("POST", "/upsert", Some(&body), false);
            assert_eq!(status, 200, "writer round {round}: {reply}");
        }
        next_id += UPSERTS_PER_ROUND;
        // The threshold (16) is crossed mid-round: wait for the
        // background compactor to land at least one more fold.
        loop {
            let (now, _, _) = compactions(addr);
            if now > before {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "round {round}: background compactor never folded"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // Drain: pending work settles to zero under the interval tick.
    loop {
        let (_, pending, tombs) = compactions(addr);
        if pending == 0 && tombs == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "pending mutations never drained");
        std::thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader thread failed");
    }

    let (compactions_total, _, _) = compactions(addr);
    assert!(compactions_total >= WRITER_ROUNDS);
    let epochs = epochs.lock().unwrap();
    assert!(
        epochs.len() >= 2,
        "responses span one engine only ({epochs:?}) — no swap was observed under traffic"
    );
    let responses = responses.load(Ordering::Relaxed);
    eprintln!(
        "mutation stress: {responses} successful reads across {compactions_total} \
         compactions, epochs observed: {:?}",
        {
            let mut v: Vec<_> = epochs.iter().copied().collect();
            v.sort_unstable();
            v
        }
    );
    assert!(responses > 0);

    // Post-stress: the final engine still answers and the upserted rows
    // are really in it (one spot check).
    let spot = next_id - 1;
    let body = Json::obj([
        ("query", Json::from(w.base.get(spot % n))),
        ("k", Json::from(K)),
    ])
    .dump();
    let (status, reply) = request(addr, "POST", "/search", Some(&body));
    assert_eq!(status, 200);
    assert!(
        ids_of(&reply).contains(&(spot as u32)),
        "upserted id {spot} not found after the stress: {reply}"
    );
    guard.shutdown();
}

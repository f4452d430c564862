//! `ddc-serve` — long-running AKNN search service over an
//! [`ddc_engine::Engine`].
//!
//! ```bash
//! # Synthetic workload (default), HNSW × DDCres:
//! ddc-serve --addr 127.0.0.1:8321 --n 20000 --dim 64
//!
//! # Real data dropped into $DDC_DATA_DIR (TEXMEX layout):
//! DDC_DATA_DIR=/datasets ddc-serve --data sift1m --limit 100000
//!
//! # Restart in O(ms) from a snapshot container (see --save-snapshot):
//! ddc-serve --snapshot runs/engine.snap
//!
//! # Then, from anywhere:
//! curl localhost:8321/healthz
//! curl -X POST localhost:8321/search -d '{"query": [0, 0, ...], "k": 10}'
//! curl -X POST localhost:8321/admin/swap -d '{"dco": "adsampling"}'
//! ```
//!
//! Argument parsing is intentionally clap-less (`--name value` pairs),
//! mirroring `examples/common`; the flags are the ones the usage table
//! lists, and anything else exits 2.

use ddc_engine::{Engine, EngineConfig, MutableConfig, MutableEngine};
use ddc_index::SearchParams;
use ddc_server::{Server, ServerConfig};
use ddc_vecs::io::{read_fvecs, resolve_fixture, DATA_DIR_ENV};
use ddc_vecs::{SynthSpec, VecSet, VecStore};
use std::collections::HashMap;
use std::path::Path;
use std::sync::OnceLock;

const USAGE: &str = "\
ddc-serve — serve an AKNN engine over HTTP (no external dependencies)

  --addr ADDR        bind address (default 127.0.0.1:8321; port 0 = ephemeral)
  --workers N        worker threads for request handlers + batch shards
                     (default 4; connections live on the reactor thread)
  --max-conns N      simultaneously-open connection cap — clients over it
                     get a 503 (default 1024)
  --read-timeout-ms N  idle allowance per connection: stalled mid-request
                     draws a 408, idle between requests closes silently
                     (default 5000)
  --coalesce-window-us N  how long the first pending /search query waits
                     for company before its batch executes (default 200;
                     0 = never wait, solo queries execute immediately);
                     the adaptive controller treats this as its ceiling
  --coalesce-max-batch N  queue depth that triggers immediate batch
                     execution (default 64)
  --access-log N     emit one structured JSON line on stderr (endpoint,
                     status, duration) for every Nth finished request
                     (1 = all); histograms and /metrics see every request
  --index SPEC       index spec (default hnsw(m=16,ef_construction=200))
  --dco SPEC         operator spec (default ddcres)
  --metric SPEC      distance metric for fresh builds: l2 (default), ip,
                     cosine, or wl2:w1;w2;... (one weight per dimension);
                     --snapshot boots carry their own metric
  --payloads SPEC    attach one u64 payload tag per row and enable the
                     /search `filter` clause: `mod:N` tags row i with i%N,
                     anything else is a text file of one tag per line
                     (row-count must match); forces an immutable boot
  --ef N             default HNSW beam width (default 80)
  --nprobe N         default IVF probe count (default 16)
  --n N              synthetic workload size (default 20000)
  --dim D            synthetic dimensionality (default 64)
  --seed S           synthetic seed (default 42)
  --data NAME|FILE   real data: a .fvecs/.bvecs file, or a DDC_DATA_DIR
                     fixture name such as sift1m / gist1m; .fvecs files are
                     memory-mapped (zero-copy, never fully loaded) where
                     the platform allows
  --limit N          cap on rows read from --data
  --snapshot FILE    boot from a snapshot container written by
                     Engine::save_snapshot (or --save-snapshot): opens in
                     O(ms), memory-mapped, no base vectors needed —
                     --data/--n/--dim are ignored
  --save-snapshot F  after building the engine, write it to a snapshot
                     container at F (serving continues)
  --immutable        disable live mutability even when the dataset is
                     heap-resident (no /upsert, /delete, /admin/compact;
                     /admin/swap works instead)
  --compact-threshold N  pending mutations that wake the background
                     compactor immediately (default 256; 0 = interval
                     ticks only)
  --compact-interval-ms N  background compactor tick: pending mutations
                     older than this are folded even below the threshold
                     (default 500)
  --max-stale-rows N appended-without-retraining budget for data-driven
                     operators; a compaction that would exceed it
                     rebuilds (re-trains) instead of appending
                     (default 1024)
  --port-file PATH   write the bound port to PATH once listening (CI)
  --help             this text

Mutability: built from heap-resident vectors (synthetic or RAM-loaded
--data) the server boots *mutable* — /upsert, /delete, /admin/compact
are live and a background compactor folds mutations into fresh engines
mid-traffic. Snapshot and mmap boots serve immutable engines and answer
mutations with 400 (use --immutable to force that).";

/// The command line as `name → value` (`None` for a switch), checked
/// against the usage table once: its two-space-indented `--name` lines
/// are the flags, and a flag followed by an upper-case placeholder takes a
/// value. Anything else — a typo, a retired flag, a stray word — exits 2
/// rather than being ignored.
fn args() -> &'static HashMap<String, Option<String>> {
    static ARGS: OnceLock<HashMap<String, Option<String>>> = OnceLock::new();
    ARGS.get_or_init(|| {
        let flags: HashMap<&str, bool> = USAGE
            .lines()
            .filter_map(|line| {
                let mut words = line.strip_prefix("  --")?.split_whitespace();
                let name = words.next()?;
                let placeholder = words
                    .next()
                    .is_some_and(|w| w.chars().all(|c| c.is_ascii_uppercase() || c == '|'));
                Some((name, placeholder))
            })
            .collect();
        let mut parsed = HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                fail(&format!("unexpected argument `{a}` (see --help)"));
            };
            let value = match flags.get(name) {
                None => fail(&format!("unknown flag `{a}` (see --help)")),
                Some(false) => None,
                Some(true) => Some(
                    it.next()
                        .unwrap_or_else(|| fail(&format!("{a} needs a value"))),
                ),
            };
            parsed.insert(name.to_string(), value);
        }
        parsed
    })
}

fn arg(name: &str, default: &str) -> String {
    arg_opt(name).unwrap_or_else(|| default.to_string())
}

fn arg_opt(name: &str) -> Option<String> {
    args().get(name).cloned().flatten()
}

fn switch(name: &str) -> bool {
    args().contains_key(name)
}

fn parsed<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg_opt(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("ddc-serve: --{name} got an unparsable value `{v}`");
            std::process::exit(2);
        }),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("ddc-serve: {msg}");
    std::process::exit(2);
}

/// The synthetic stand-in workload, shaped by `--n` / `--dim` / `--seed`.
fn synth_workload(name: &str) -> ddc_vecs::Workload {
    let n: usize = parsed("n", 20_000);
    let dim: usize = parsed("dim", 64);
    let seed: u64 = parsed("seed", 42);
    let mut spec = SynthSpec::tiny_test(dim, n, seed);
    spec.name = name.to_string();
    spec.n_train_queries = 64.min(n.max(1));
    spec.clusters = 8;
    spec.alpha = 1.2;
    spec.generate()
}

/// Base vectors (behind a [`VecStore`]) plus optional training queries
/// for the data-driven operators.
fn load_data() -> (VecStore, Option<VecSet>, String) {
    let limit = arg_opt("limit").map(|v| match v.parse::<usize>() {
        Ok(n) => n,
        Err(_) => fail("--limit must be an integer"),
    });
    if let Some(data) = arg_opt("data") {
        if data.ends_with(".fvecs") || data.ends_with(".bvecs") {
            let base = VecStore::open_limit(&data, limit)
                .unwrap_or_else(|e| fail(&format!("opening {data}: {e}")));
            return (base, None, data);
        }
        // A named fixture: real files under DDC_DATA_DIR win the moment
        // they exist there; otherwise the synthetic stand-in keeps the
        // server usable.
        let mut synth_train = None;
        let base = VecStore::open_fixture_or(&data, limit, || {
            eprintln!(
                "ddc-serve: fixture `{data}` not found under {DATA_DIR_ENV} \
                 (expected <stem>_base.fvecs, e.g. sift1m/sift_base.fvecs); \
                 using a synthetic stand-in"
            );
            let w = synth_workload(&format!("{data}-synth-standin"));
            synth_train = Some(w.train_queries);
            w.base
        })
        .unwrap_or_else(|e| fail(&format!("opening fixture `{data}`: {e}")));
        // Training queries feed DDCpca/DDCopq; cap them — a fraction of
        // the learn set is plenty.
        let train = synth_train.or_else(|| {
            resolve_fixture(&data).and_then(|fix| fix.learn).map(|p| {
                read_fvecs(&p, Some(10_000))
                    .unwrap_or_else(|e| fail(&format!("reading {}: {e}", p.display())))
            })
        });
        return (base, train, data);
    }
    let w = synth_workload("ddc-serve-synth");
    let name = w.name.clone();
    (VecStore::Ram(w.base), Some(w.train_queries), name)
}

/// Parses `--payloads`: `mod:N` tags row `i` with `i % N`; anything else
/// is a path to a text file holding one `u64` tag per row.
fn payload_tags(spec: &str, len: usize) -> Vec<u64> {
    if let Some(n) = spec.strip_prefix("mod:") {
        let n: u64 = n
            .parse()
            .unwrap_or_else(|_| fail("--payloads mod:N needs an integer N >= 1"));
        if n == 0 {
            fail("--payloads mod:N needs N >= 1");
        }
        return (0..len as u64).map(|i| i % n).collect();
    }
    let text = std::fs::read_to_string(spec)
        .unwrap_or_else(|e| fail(&format!("reading payloads {spec}: {e}")));
    let tags: Vec<u64> = text
        .split_whitespace()
        .map(|t| {
            t.parse()
                .unwrap_or_else(|_| fail(&format!("payload tag `{t}` is not a u64")))
        })
        .collect();
    if tags.len() != len {
        fail(&format!(
            "--payloads {spec} holds {} tags for {len} rows",
            tags.len()
        ));
    }
    tags
}

/// Honors `--save-snapshot` after the engine exists (serving continues).
fn save_snapshot_if_asked(engine: &Engine) {
    if let Some(out) = arg_opt("save-snapshot") {
        engine
            .save_snapshot(Path::new(&out))
            .unwrap_or_else(|e| fail(&format!("saving snapshot {out}: {e}")));
        println!("snapshot saved to {out}");
    }
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }

    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: arg("addr", "127.0.0.1:8321"),
        workers: parsed("workers", 4),
        max_connections: parsed("max-conns", defaults.max_connections),
        read_timeout: std::time::Duration::from_millis(parsed(
            "read-timeout-ms",
            defaults.read_timeout.as_millis() as u64,
        )),
        coalesce_window: std::time::Duration::from_micros(parsed(
            "coalesce-window-us",
            defaults.coalesce_window.as_micros() as u64,
        )),
        coalesce_max_batch: parsed("coalesce-max-batch", defaults.coalesce_max_batch),
        access_log: switch("access-log").then(|| parsed("access-log", 1)),
        ..Default::default()
    };

    let metric = arg_opt("metric")
        .map(|m| ddc_engine::Metric::parse(&m).unwrap_or_else(|e| fail(&format!("--metric: {e}"))));
    let payloads_spec = arg_opt("payloads");

    let server = if let Some(snap) = arg_opt("snapshot") {
        if metric.is_some() {
            fail("--metric applies to fresh builds; a snapshot carries its own metric");
        }
        if payloads_spec.is_some() {
            fail("--payloads applies to fresh builds; a snapshot carries its own payloads");
        }
        println!("opening snapshot {snap}...");
        let server = Server::bind_snapshot(&cfg, Path::new(&snap))
            .unwrap_or_else(|e| fail(&format!("snapshot {snap}: {e}")));
        println!("{}", server.handle().engine().stats());
        server
    } else {
        let (base, train, data_name) = load_data();
        println!(
            "dataset: {data_name} ({} x {}d), storage: {}{}",
            base.len(),
            base.dim(),
            base.backend(),
            base.source_path()
                .map(|p| format!(" ({})", p.display()))
                .unwrap_or_default(),
        );

        let params = SearchParams::new()
            .with_ef(parsed("ef", 80))
            .with_nprobe(parsed("nprobe", 16));
        let mut immutable = switch("immutable");
        if payloads_spec.is_some() && !immutable {
            println!("--payloads forces an immutable boot (tags attach to a fixed row set)");
            immutable = true;
        }

        let index = arg("index", "hnsw(m=16,ef_construction=200)");
        let dco = arg("dco", "ddcres");
        let mut engine_cfg = EngineConfig::from_strs(&index, &dco)
            .unwrap_or_else(|e| fail(&e.to_string()))
            .with_params(params);
        if let Some(m) = &metric {
            engine_cfg = engine_cfg.with_metric(m.clone());
        }
        match (immutable, base.as_vecset()) {
            // Heap-resident rows and no opt-out: boot mutable, with
            // the background compactor folding mutations in.
            (false, Some(rows)) => {
                println!("building mutable engine: index={index} dco={dco}");
                let mcfg = MutableConfig {
                    compact_threshold: parsed("compact-threshold", 256),
                    compact_interval: std::time::Duration::from_millis(parsed(
                        "compact-interval-ms",
                        500,
                    )),
                    max_stale_rows: parsed("max-stale-rows", 1024),
                };
                println!(
                    "live mutability on: compact threshold {}, interval {}ms, \
                     stale budget {} rows",
                    mcfg.compact_threshold,
                    mcfg.compact_interval.as_millis(),
                    mcfg.max_stale_rows
                );
                let me = MutableEngine::build(rows.clone(), train.clone(), engine_cfg, mcfg)
                    .unwrap_or_else(|e| fail(&format!("engine build: {e}")));
                let engine = me.handle().engine();
                println!("{}", engine.stats());
                save_snapshot_if_asked(&engine);
                Server::bind_mutable(&cfg, me)
                    .unwrap_or_else(|e| fail(&format!("bind {}: {e}", cfg.addr)))
            }
            _ => {
                println!("building engine: index={index} dco={dco}");
                let mut engine = Engine::build(&base, train.as_ref(), engine_cfg)
                    .unwrap_or_else(|e| fail(&format!("engine build: {e}")));
                if let Some(spec) = &payloads_spec {
                    engine
                        .set_payloads(payload_tags(spec, base.len()))
                        .unwrap_or_else(|e| fail(&format!("--payloads: {e}")));
                }
                println!("{}", engine.stats());
                save_snapshot_if_asked(&engine);
                Server::bind(&cfg, engine, base, train)
                    .unwrap_or_else(|e| fail(&format!("bind {}: {e}", cfg.addr)))
            }
        }
    };
    let addr = server.local_addr().unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "ddc-serve listening on http://{addr}/ ({} workers, {} conns max, \
         coalesce window {}us adaptive) — endpoints: /healthz /stats /metrics \
         /search /search_batch /upsert /delete /admin/compact /admin/swap",
        cfg.workers,
        cfg.max_connections,
        cfg.coalesce_window.as_micros(),
    );
    if let Some(path) = arg_opt("port-file") {
        std::fs::write(&path, addr.port().to_string())
            .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
    }
    if let Err(e) = server.serve() {
        fail(&format!("serve: {e}"));
    }
}

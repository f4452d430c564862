//! Endpoint dispatch.
//!
//! The reactor hands framed requests to [`handle`], which decides the
//! execution venue. Both search endpoints take one path: [`search`]
//! parses `POST /search` and `POST /search_batch` bodies into the same
//! request — `/search` is a batch of one, an absent `filter` is `None` —
//! validates it inline (cheap), and joins the
//! [`ddc_engine::BatchCollector`] coalescing queue; one completion books
//! the stage ledger and the DCO counters and picks the response shape.
//! Everything else — including the mutation endpoints `/upsert`,
//! `/delete`, and `/admin/compact` of a mutable boot — becomes a
//! [`ddc_engine::WorkerPool`] job running the synchronous [`route`].
//! Either way the response comes back through a [`Responder`] callback —
//! handlers never touch sockets.
//!
//! Every successful response carries the `epoch` of the engine snapshot
//! that served it, so clients (and the stress suite) can attribute each
//! answer to exactly one installed engine. Searches report the epoch of
//! the snapshot their *batch executed* under — the engine that actually
//! computed the answer.

use crate::http::{Request, Response};
use crate::json::{scan_body, write_f64, Json, INFALLIBLE};
use crate::server::ServerState;
use ddc_core::{Counters, QueryBatch};
use ddc_engine::{Engine, EngineConfig, ExecMeta, FilterPredicate, Metric};
use ddc_index::{SearchParams, SearchResult};
use ddc_obs::expo::Expo;
use ddc_obs::{HistogramSnapshot, Stage};
use ddc_vecs::VecSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Delivers one response for one request; fires exactly once, from
/// whatever thread the handler finished on.
pub(crate) type Responder = Box<dyn FnOnce(Response) + Send + 'static>;

/// Entry point from the reactor: picks the venue and returns
/// immediately; `respond` fires when the handler finishes.
/// `framing_nanos` is what the connection spent framing the request —
/// the first half of its `parse` stage, booked here exactly once per
/// request (searches add their JSON parse to it first).
pub(crate) fn handle(
    state: &Arc<ServerState>,
    req: Request,
    framing_nanos: u64,
    respond: Responder,
) {
    if req.method == "POST" && (req.path == "/search" || req.path == "/search_batch") {
        // Validated inline on the reactor thread — submissions reach the
        // collector with minimal arrival spread, which is what lets
        // concurrent requests share a coalescing window.
        search(state, &req, framing_nanos, respond);
        return;
    }
    state.obs.stages().record(Stage::Parse, framing_nanos);
    let state = Arc::clone(state);
    let pool = Arc::clone(&state.pool);
    pool.submit(Box::new(move || respond(route(&state, &req))));
}

/// Routes one request synchronously. Infallible by design: protocol and
/// engine errors become 4xx responses. (`POST /search` and
/// `POST /search_batch` never reach this — [`handle`] sends them through
/// [`search`].)
pub(crate) fn route(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/stats") => stats(state),
        ("GET", "/metrics") => metrics(state),
        ("POST", "/upsert") => upsert(state, req),
        ("POST", "/delete") => delete(state, req),
        ("POST", "/admin/compact") => compact(state, req),
        ("POST", "/admin/swap") => swap(state, req),
        (
            _,
            "/healthz" | "/stats" | "/metrics" | "/search" | "/search_batch" | "/upsert"
            | "/delete" | "/admin/compact" | "/admin/swap",
        ) => Response::error(405, "method not allowed for this endpoint"),
        _ => Response::error(404, "no such endpoint"),
    }
}

fn healthz(state: &ServerState) -> Response {
    let snap = state.handle.snapshot();
    Response::ok(Json::obj([
        ("status", Json::from("ok")),
        ("epoch", Json::from(snap.epoch)),
        ("index", Json::from(snap.engine.config().index.to_string())),
        ("dco", Json::from(snap.engine.config().dco.to_string())),
        ("uptime_secs", Json::from(state.started.elapsed().as_secs())),
    ]))
}

/// The legacy `/stats` histogram shape (`le_<edge>` buckets plus a final
/// `gt_<last>`), now produced from a [`HistogramSnapshot`].
fn hist_json(snap: &HistogramSnapshot) -> Json {
    Json::Obj(
        snap.labeled()
            .into_iter()
            .map(|(k, v)| (k, Json::from(v)))
            .collect(),
    )
}

/// Where the served rows live: `(backend, resident bytes, mapped bytes)`
/// for `/stats` and `/metrics`. The serving engine's own provenance wins:
/// an engine opened from a snapshot container serves its working set out
/// of the map regardless of what (if any) base store the server retains
/// for rebuilds.
fn storage(state: &ServerState, engine: &Engine) -> (&'static str, usize, usize) {
    match (engine.snapshot_info(), &state.base) {
        (Some(info), _) => ("snapshot", 0, info.mapped_bytes),
        (None, Some(base)) => (base.backend(), base.resident_bytes(), base.mapped_bytes()),
        (None, None) if state.mutable.is_some() => ("mutable", 0, 0),
        (None, None) => ("none", 0, 0),
    }
}

fn stats(state: &ServerState) -> Response {
    let snap = state.handle.snapshot();
    let s = snap.engine.stats();
    let c = state.collector.stats();
    let (queries, work) = state.obs.work();
    let (storage_backend, resident, mapped) = storage(state, &snap.engine);
    let mut body = Json::obj([
        ("epoch", Json::from(snap.epoch)),
        ("index", Json::from(snap.engine.config().index.to_string())),
        ("dco", Json::from(snap.engine.config().dco.to_string())),
        ("index_kind", Json::from(s.index_kind)),
        ("dco_name", Json::from(s.dco_name)),
        ("metric", Json::from(s.metric.clone())),
        ("payloads", Json::from(s.payloads)),
        ("kernel_backend", Json::from(s.kernel_backend)),
        ("storage_backend", Json::from(storage_backend)),
        ("storage_resident_bytes", Json::from(resident)),
        ("storage_mapped_bytes", Json::from(mapped)),
        ("len", Json::from(s.len)),
        ("dim", Json::from(s.dim)),
        ("index_bytes", Json::from(s.index_bytes)),
        ("dco_extra_bytes", Json::from(s.dco_extra_bytes)),
        ("vector_bytes", Json::from(s.vector_bytes)),
        ("total_bytes", Json::from(s.total_bytes())),
        ("queries", Json::from(queries)),
        ("batches", Json::from(c.batches)),
        ("counters", counters_json(&work)),
        ("workers", Json::from(state.pool.threads())),
        (
            "open_connections",
            Json::from(state.open_conns.load(Ordering::Relaxed)),
        ),
        (
            "coalesce",
            Json::obj([
                ("submitted", Json::from(c.submitted)),
                ("batches", Json::from(c.batches)),
                ("coalesced_batches", Json::from(c.coalesced_batches)),
                ("max_batch", Json::from(c.max_batch)),
                ("window_us", Json::from(c.window_us)),
                ("size_hist", hist_json(&c.size_hist)),
                ("wait_us_hist", hist_json(&c.wait_us_hist)),
            ]),
        ),
    ]);
    // Mutable boots additionally report the write-side state: what is
    // pending, what the compactor has folded, and how many appended rows
    // ride a stale rotation (see `MutableConfig::max_stale_rows`).
    if let Some(me) = &state.mutable {
        if let Json::Obj(pairs) = &mut body {
            let m = me.mutation_stats();
            pairs.push((
                "mutation".into(),
                Json::obj([
                    ("live", Json::from(m.live)),
                    ("base_len", Json::from(m.base_len)),
                    ("pending_inserts", Json::from(m.pending_inserts)),
                    ("tombstones", Json::from(m.tombstones)),
                    ("stale_rows", Json::from(m.stale_rows)),
                    ("upserts", Json::from(m.upserts)),
                    ("deletes", Json::from(m.deletes)),
                    ("compactions", Json::from(m.compactions)),
                ]),
            ));
        }
    }
    Response::ok(body)
}

/// `GET /metrics` — Prometheus text exposition v0.0.4. The request
/// ledger, latency/stage histograms, and DCO series come from
/// [`crate::metrics::ServerObs`]; engine composition, storage, the
/// coalescing collector, and (on mutable boots) the write-side land as
/// gauges, counters, and histograms around them.
fn metrics(state: &ServerState) -> Response {
    let snap = state.handle.snapshot();
    let s = snap.engine.stats();
    let c = state.collector.stats();
    let (storage_backend, ..) = storage(state, &snap.engine);

    let mut e = Expo::new();
    e.header("ddc_up", "1 while the server is serving", "gauge");
    e.sample("ddc_up", "", 1.0);
    state.obs.render_into(&mut e);

    for (name, help, v) in [
        (
            "ddc_engine_epoch",
            "Epoch of the currently-installed engine",
            snap.epoch as f64,
        ),
        (
            "ddc_engine_len",
            "Vectors served by the current engine",
            s.len as f64,
        ),
        (
            "ddc_engine_dim",
            "Dimensionality of the served vectors",
            s.dim as f64,
        ),
        (
            "ddc_uptime_seconds",
            "Seconds since the server started",
            state.started.elapsed().as_secs_f64(),
        ),
        (
            "ddc_open_connections",
            "Currently-open client connections",
            state.open_conns.load(Ordering::Relaxed) as f64,
        ),
        (
            "ddc_workers",
            "Worker threads for handlers and batch shards",
            state.pool.threads() as f64,
        ),
        (
            "ddc_coalesce_window_microseconds",
            "Current coalescing window ceiling",
            c.window_us as f64,
        ),
    ] {
        e.header(name, help, "gauge");
        e.sample(name, "", v);
    }
    e.header(
        "ddc_storage_backend",
        "Active vector storage backend (the labelled series is 1)",
        "gauge",
    );
    e.sample(
        "ddc_storage_backend",
        &format!("backend=\"{storage_backend}\""),
        1.0,
    );

    for (name, help, v) in [
        (
            "ddc_coalesce_submitted_total",
            "Queries submitted to the coalescing collector",
            c.submitted,
        ),
        (
            "ddc_coalesce_batches_total",
            "Engine batches the collector executed",
            c.batches,
        ),
        (
            "ddc_coalesce_coalesced_batches_total",
            "Collector batches holding more than one query",
            c.coalesced_batches,
        ),
    ] {
        e.header(name, help, "counter");
        e.sample(name, "", v as f64);
    }
    e.histogram(
        "ddc_coalesce_batch_size",
        "Queries per executed collector batch",
        "",
        &c.size_hist,
        1.0,
    );
    e.histogram(
        "ddc_coalesce_wait_seconds",
        "Time queries waited in the coalescing queue",
        "",
        &c.wait_us_hist,
        1e6,
    );

    if let Some(me) = &state.mutable {
        let m = me.mutation_stats();
        for (name, help, kind, v) in [
            (
                "ddc_mutation_upserts_total",
                "Upserts accepted since boot",
                "counter",
                m.upserts,
            ),
            (
                "ddc_mutation_deletes_total",
                "Deletes accepted since boot",
                "counter",
                m.deletes,
            ),
            (
                "ddc_mutation_compactions_total",
                "Compactions folded into fresh engines",
                "counter",
                m.compactions,
            ),
            (
                "ddc_mutation_pending_inserts",
                "Inserts awaiting compaction",
                "gauge",
                m.pending_inserts as u64,
            ),
            (
                "ddc_mutation_tombstones",
                "Deleted rows awaiting compaction",
                "gauge",
                m.tombstones as u64,
            ),
            (
                "ddc_mutation_live_rows",
                "Rows visible to searches right now",
                "gauge",
                m.live as u64,
            ),
            (
                "ddc_mutation_stale_rows",
                "Appended rows riding a stale operator rotation",
                "gauge",
                m.stale_rows as u64,
            ),
        ] {
            e.header(name, help, kind);
            e.sample(name, "", v as f64);
        }
        e.histogram(
            "ddc_compaction_duration_seconds",
            "Background/foreground compaction wall time",
            "",
            &me.compaction_nanos(),
            1e9,
        );
        e.histogram(
            "ddc_overlay_merge_duration_seconds",
            "Per dirty search: merge of pending inserts into the index's top-k",
            "",
            &me.overlay_merge_nanos(),
            1e9,
        );
    }
    Response::text(200, e.finish())
}

/// Per-request parameter overrides: the engine's defaults unless the body
/// carries `ef` / `nprobe`.
fn params_from(body: &Json, engine: &Engine) -> Result<SearchParams, Response> {
    let mut params = engine.config().params;
    for (key, slot) in [("ef", &mut params.ef), ("nprobe", &mut params.nprobe)] {
        if let Some(v) = body.get(key) {
            let n = v
                .as_u64()
                .ok_or_else(|| bad(&format!("`{key}` must be a non-negative integer")))?;
            *slot = usize::try_from(n).unwrap_or(usize::MAX);
        }
    }
    Ok(params)
}

/// The requested `k`, clamped to the collection size: results past `len`
/// cannot exist, and a huge `k` from the network must not size an
/// allocation.
fn k_from(body: &Json, engine: &Engine) -> Result<usize, Response> {
    let k = match body.get("k") {
        None => 10,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad("`k` must be a non-negative integer"))?,
    };
    Ok(k.min(engine.len() as u64) as usize)
}

fn bad(msg: &str) -> Response {
    Response::error(400, msg)
}

/// The optional `"metric"` assertion on `/search` and `/search_batch`: a
/// client that cares which geometry answers it states the metric, and a
/// mismatch is a 400 naming both sides — not silently-wrong distances
/// (the failure mode after an `/admin/swap` to a different metric).
fn metric_guard(body: &Json, engine: &Engine) -> Result<(), Response> {
    let Some(v) = body.get("metric") else {
        return Ok(());
    };
    let Some(name) = v.as_str() else {
        return Err(bad(
            "`metric` must be a spec string (l2, ip, cosine, wl2:w1;w2;...)",
        ));
    };
    let requested = Metric::parse(name).map_err(|e| bad(&format!("`metric`: {e}")))?;
    let served = engine.metric();
    if requested != served {
        return Err(bad(&format!(
            "`metric` mismatch: request asserts `{}` but this engine serves `{}`",
            requested.spec_value(),
            served.spec_value()
        )));
    }
    Ok(())
}

/// Parses the optional `"filter"` clause of a search: an object holding
/// exactly one of `{"eq": v}`, `{"range": [lo, hi]}` (inclusive), or
/// `{"any_bit": mask}` over the engine's per-row `u64` payload tags. A
/// well-formed predicate against an engine without payloads is the
/// client's error too.
fn filter_from(body: &Json, engine: &Engine) -> Result<Option<FilterPredicate>, Response> {
    const SHAPE: &str = "`filter` must be an object with exactly one of `eq`, `range`, `any_bit`";
    let Some(f) = body.get("filter") else {
        return Ok(None);
    };
    let Json::Obj(pairs) = f else {
        return Err(bad(SHAPE));
    };
    if pairs.len() != 1 {
        return Err(bad(SHAPE));
    }
    let (key, val) = &pairs[0];
    let tag = |v: &Json, field: &str| -> Result<u64, Response> {
        v.as_u64().ok_or_else(|| {
            bad(&format!(
                "`{field}` must be a non-negative integer payload tag"
            ))
        })
    };
    let pred = match key.as_str() {
        "eq" => FilterPredicate::Eq(tag(val, "filter.eq")?),
        "any_bit" => FilterPredicate::AnyBit(tag(val, "filter.any_bit")?),
        "range" => {
            let two = val
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| bad("`filter.range` must be a two-element array [lo, hi]"))?;
            let lo = tag(&two[0], "filter.range[0]")?;
            let hi = tag(&two[1], "filter.range[1]")?;
            FilterPredicate::range(lo, hi).map_err(|e| bad(&format!("`filter.range`: {e}")))?
        }
        other => {
            return Err(bad(&format!(
                "`filter.{other}` is not a predicate; use one of `eq`, `range`, `any_bit`"
            )))
        }
    };
    if engine.payloads().is_none() {
        return Err(bad(
            "`filter`: this engine serves no per-row payloads to filter on \
             (boot with --payloads or attach them with set_payloads)",
        ));
    }
    Ok(Some(pred))
}

/// The 400 for rebuild-shaped swaps on a snapshot-booted server.
const NO_BASE: &str = "this server was started from a snapshot and retains no base \
                       vectors; swap with a `snapshot` container path instead";

/// Reads a search or upsert body in one pass ([`scan_body`]):
/// the vector rows as flat `f32`s plus the tree of every other member.
/// When the scan declines the body, the whole body is read as a tree
/// instead and the rows come back `None` — the caller runs whatever
/// checks precede the vector's, then answers [`rows_problem`].
pub(crate) fn read_body(
    req: &Request,
    key: &str,
    nested: bool,
    dim: usize,
) -> Result<(Option<Vec<f32>>, Json), Response> {
    match scan_body(&req.body, key, nested, dim) {
        Some((flat, rest)) => Ok((Some(flat), rest)),
        None => Ok((None, req.json_body().map_err(|e| bad(&e))?)),
    }
}

/// What is wrong with the vector rows of a body the scan declined, in
/// the order a client fixes them: the field's shape, then row by row.
pub(crate) fn rows_problem(body: &Json, key: &str, nested: bool, dim: usize) -> Response {
    let of = if nested { "number arrays" } else { "numbers" };
    let Some(arr) = body.get(key).and_then(Json::as_arr) else {
        return bad(&format!("`{key}` must be an array of {of}"));
    };
    let problem = if nested {
        arr.iter().enumerate().find_map(|(qi, q)| match q.as_arr() {
            Some(row) => row_problem(row, dim, &format!("{key}[{qi}]")),
            None => Some(format!("{key}[{qi}] must be an array of numbers")),
        })
    } else {
        row_problem(arr, dim, key)
    };
    // The scan declines only what one of these checks names (the codec
    // suite holds it to that), so the fallback is never the answer.
    bad(&problem.unwrap_or_else(|| format!("`{key}` could not be read")))
}

/// The first fault in one row: a non-number, a component that is finite
/// on the wire but not as `f32` (`1e39` would poison every distance to
/// NaN under an HTTP 200), or the wrong length — naming the offending
/// index. `label` names the row (`query` or `queries[i]`).
fn row_problem(row: &[Json], dim: usize, label: &str) -> Option<String> {
    for (i, v) in row.iter().enumerate() {
        let Some(x) = v.as_f64() else {
            return Some(format!("{label}[{i}] must be a number"));
        };
        if !(x as f32).is_finite() {
            return Some(format!(
                "{label}[{i}] ({x}) is not representable as a finite f32"
            ));
        }
    }
    (row.len() != dim).then(|| {
        format!(
            "{label} has {} dims but the engine serves {dim}-dimensional vectors",
            row.len()
        )
    })
}

/// The explain block of a search: the request's `parse` nanos, the
/// coalescing execution metadata, and the summed `search` nanos and DCO
/// work profile of its queries.
fn trace_json(
    parse_nanos: u64,
    meta: &ExecMeta,
    search_nanos: u64,
    epoch: u64,
    work: &Counters,
) -> Json {
    let stages = Json::obj([
        (Stage::Parse.name(), Json::from(parse_nanos)),
        (Stage::QueueWait.name(), Json::from(meta.queue_wait_nanos)),
        (Stage::Search.name(), Json::from(search_nanos)),
    ]);
    Json::obj([
        ("epoch", Json::from(epoch)),
        ("stage_nanos", stages),
        ("queue_wait_nanos", Json::from(meta.queue_wait_nanos)),
        ("batch_len", Json::from(meta.batch_len)),
        ("batch_nanos", Json::from(meta.batch_nanos)),
        ("search_nanos", Json::from(search_nanos)),
        ("candidates", Json::from(work.candidates)),
        ("pruned", Json::from(work.pruned)),
        ("exact", Json::from(work.exact)),
        ("dims_scanned", Json::from(work.dims_scanned)),
        ("dims_full", Json::from(work.dims_full)),
        ("pruned_rate", Json::Num(work.pruned_rate())),
        ("scan_rate", Json::Num(work.scan_rate())),
    ])
}

/// DCO work counters — which operator served a query is visible in
/// these (scan/prune profiles differ per DCO even when distances agree),
/// so they also pin responses to one engine epoch in the stress suite.
fn counters_json(c: &Counters) -> Json {
    Json::obj([
        ("candidates", Json::from(c.candidates)),
        ("pruned", Json::from(c.pruned)),
        ("exact", Json::from(c.exact)),
        ("dims_scanned", Json::from(c.dims_scanned)),
        ("dims_full", Json::from(c.dims_full)),
    ])
}

/// One query's answer — `"ids":[..],"distances":[..],"counters":{..}`,
/// its own work counters — written as `Json::dump` would print the tree.
fn write_hit(out: &mut String, r: &SearchResult) {
    out.push_str("\"ids\":[");
    let comma = |i: usize| if i == 0 { "" } else { "," };
    for (i, n) in r.neighbors.iter().enumerate() {
        write!(out, "{}{}", comma(i), n.id).expect(INFALLIBLE);
    }
    out.push_str("],\"distances\":[");
    for (i, n) in r.neighbors.iter().enumerate() {
        out.push_str(comma(i));
        write_f64(f64::from(n.dist), out);
    }
    let c = &r.counters;
    write!(
        out,
        "],\"counters\":{{\"candidates\":{},\"pruned\":{},\"exact\":{},\
         \"dims_scanned\":{},\"dims_full\":{}}}",
        c.candidates, c.pruned, c.exact, c.dims_scanned, c.dims_full
    )
    .expect(INFALLIBLE);
}

/// The 200 body of a search — `{"epoch","k"}`, then one hit flat or
/// (`batch_shape`) every hit under `results`, then the explain block —
/// written into one preallocated string, byte for byte what dumping the
/// same tree would give.
pub(crate) fn search_body(
    epoch: u64,
    k: usize,
    results: &[SearchResult],
    batch_shape: bool,
    trace: Option<&Json>,
) -> String {
    // An id is at most 10 bytes, a widened-f32 distance 24.
    let hit_bytes = |r: &SearchResult| 160 + 36 * r.neighbors.len();
    let mut out = String::with_capacity(512 + results.iter().map(hit_bytes).sum::<usize>());
    write!(out, "{{\"epoch\":{epoch},\"k\":{k},").expect(INFALLIBLE);
    if batch_shape {
        out.push_str("\"results\":[");
        for (i, r) in results.iter().enumerate() {
            out.push_str(if i == 0 { "{" } else { ",{" });
            write_hit(&mut out, r);
            out.push('}');
        }
        out.push(']');
    } else {
        let only = results.first().expect("one result per submitted query");
        write_hit(&mut out, only);
    }
    if let Some(trace) = trace {
        out.push_str(",\"trace\":");
        trace.write(&mut out);
    }
    out.push('}');
    out
}

/// What both search endpoints parse into: `/search` is a request of one
/// query, an absent `filter` is `None`.
struct SearchRequest {
    queries: QueryBatch,
    k: usize,
    params: SearchParams,
    filter: Option<FilterPredicate>,
    explain: bool,
}

/// Parses and validates a search body against the engine serving right
/// now (the one that executes it may be newer; see [`search`]).
fn parse_search(state: &ServerState, req: &Request) -> Result<SearchRequest, Response> {
    let snap = state.handle.snapshot();
    let engine = &*snap.engine;
    let dim = engine.dim();
    let (key, nested) = if req.path == "/search" {
        ("query", false)
    } else {
        ("queries", true)
    };
    let (flat, body) = read_body(req, key, nested, dim)?;
    let Some(flat) = flat else {
        return Err(rows_problem(&body, key, nested, dim));
    };
    let rows = VecSet::from_flat(dim, flat).map_err(|e| bad(&e.to_string()))?;
    let k = k_from(&body, engine)?;
    let params = params_from(&body, engine)?;
    metric_guard(&body, engine)?;
    Ok(SearchRequest {
        queries: QueryBatch::new(rows),
        k,
        params,
        filter: filter_from(&body, engine)?,
        explain: body.get("explain").and_then(Json::as_bool) == Some(true),
    })
}

/// `POST /search` and `POST /search_batch`: validate here (on the
/// reactor thread), execute through the coalescing collector — where the
/// request shares the window, and an engine call, with whatever
/// compatible traffic arrives around it — and answer from the callback.
/// The callback also books the observability of the request: one
/// `parse` (framing + JSON), one `queue_wait`, one `serialize`, and a
/// `search` plus the DCO work profile per query. `"explain": true`
/// additionally returns a `trace` block — built from the same
/// observations, never changing what was searched. `/search_batch`
/// wraps the per-query answers in `results`; any failure fails the
/// whole request.
fn search(state: &Arc<ServerState>, req: &Request, framing_nanos: u64, respond: Responder) {
    let started = Instant::now();
    let parsed = parse_search(state, req);
    let parse_nanos = framing_nanos + started.elapsed().as_nanos() as u64;
    let obs = Arc::clone(&state.obs);
    obs.stages().record(Stage::Parse, parse_nanos);
    let request = match parsed {
        Ok(request) => request,
        Err(resp) => return respond(resp),
    };
    let (k, explain, batch_shape) = (request.k, request.explain, req.path == "/search_batch");
    state.collector.submit(
        request.queries,
        k,
        request.params,
        request.filter,
        Box::new(move |epoch, meta, results| {
            let results = match results {
                Ok(results) => results,
                // Post-validation failures are race-shaped (e.g. a swap
                // changed the dimension mid-flight): still client-safe
                // 400s, never 500.
                Err(e) => return respond(bad(&e.to_string())),
            };
            obs.stages().record(Stage::QueueWait, meta.queue_wait_nanos);
            let (mut work, mut search_nanos) = (Counters::new(), 0);
            for r in &results {
                obs.stages().record(Stage::Search, r.elapsed_nanos);
                obs.record_dco(&r.counters);
                work.merge(&r.counters);
                search_nanos += r.elapsed_nanos;
            }
            let started = Instant::now();
            let trace = explain.then(|| trace_json(parse_nanos, &meta, search_nanos, epoch, &work));
            let body = search_body(epoch, k, &results, batch_shape, trace.as_ref());
            let resp = Response::json_text(200, body);
            obs.stages()
                .record(Stage::Serialize, started.elapsed().as_nanos() as u64);
            respond(resp);
        }),
    );
}

/// The 400 for mutation requests on a server without a write head.
const IMMUTABLE: &str = "this server serves an immutable engine (snapshot, mmap, \
                         payloads or --immutable boot); upsert/delete/compact need a \
                         mutable boot over heap-resident vectors";

/// Pulls a `u32` external id out of the request body.
fn id_from(body: &Json) -> Result<u32, Response> {
    let id = body
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("`id` must be a non-negative integer"))?;
    u32::try_from(id).map_err(|_| bad("`id` exceeds the u32 external-id space"))
}

/// `POST /upsert`: `{"id": N, "vector": [...]}` — inserts or replaces
/// one row, visible to the very next search.
fn upsert(state: &ServerState, req: &Request) -> Response {
    let Some(me) = &state.mutable else {
        return bad(IMMUTABLE);
    };
    let (vector, body) = match read_body(req, "vector", false, me.dim()) {
        Ok(read) => read,
        Err(resp) => return resp,
    };
    let id = match id_from(&body) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    let Some(vector) = vector else {
        return rows_problem(&body, "vector", false, me.dim());
    };
    match me.upsert(id, &vector) {
        Ok(replaced) => Response::ok(Json::obj([
            ("epoch", Json::from(state.handle.epoch())),
            ("id", Json::from(id as usize)),
            ("replaced", Json::from(replaced)),
            ("pending", Json::from(me.pending_mutations())),
        ])),
        Err(e) => bad(&e.to_string()),
    }
}

/// `POST /delete`: `{"id": N}` — tombstones one row; deleted ids are
/// filtered out of every subsequent search, including mid-compaction.
fn delete(state: &ServerState, req: &Request) -> Response {
    let Some(me) = &state.mutable else {
        return bad(IMMUTABLE);
    };
    let body = match req.json_body() {
        Ok(b) => b,
        Err(e) => return bad(&e),
    };
    let id = match id_from(&body) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    let deleted = me.delete(id);
    Response::ok(Json::obj([
        ("epoch", Json::from(state.handle.epoch())),
        ("id", Json::from(id as usize)),
        ("deleted", Json::from(deleted)),
        ("pending", Json::from(me.pending_mutations())),
    ]))
}

/// `POST /admin/compact`: works pending mutations into a replacement
/// serving engine now, without waiting for the background compactor. An
/// empty (or `{}`) body runs the normal policy — incremental: the reply's
/// `mode` is `"append"` when the copy only grew, `"repair"` when deleted
/// rows were physically removed from it first; `{"mode": "full"}` forces
/// the from-scratch `"fold"` (re-training data-driven operators and
/// clearing the stale-row debt) even when the incremental path would do.
/// `"none"` means nothing was pending.
fn compact(state: &ServerState, req: &Request) -> Response {
    let Some(me) = &state.mutable else {
        return bad(IMMUTABLE);
    };
    let full = if req.body.is_empty() {
        false
    } else {
        let body = match req.json_body() {
            Ok(b) => b,
            Err(e) => return bad(&e),
        };
        match body.get("mode").map(|m| m.as_str().map(str::to_string)) {
            None => false,
            Some(Some(m)) if m == "full" => true,
            Some(Some(m)) if m == "auto" => false,
            _ => return bad("`mode` must be \"auto\" or \"full\""),
        }
    };
    let report = if full {
        me.compact_full()
    } else {
        me.compact()
    };
    match report {
        Ok(r) => Response::ok(Json::obj([
            ("epoch", Json::from(r.epoch)),
            ("mode", Json::from(r.mode)),
            ("dropped", Json::from(r.dropped)),
            ("appended", Json::from(r.appended)),
            ("len", Json::from(r.len)),
        ])),
        Err(e) => bad(&e.to_string()),
    }
}

/// `POST /admin/swap`: build (`index` + `dco`, optional `ef`/`nprobe`) or
/// reopen (`snapshot` = a container written by `Engine::save_snapshot`) a
/// replacement engine, then atomically install it. A build needs the
/// server's retained base vectors; `snapshot` is self-sufficient and
/// works even on a server booted with `--snapshot` (no base). The
/// rebuild runs on this request's worker thread; every other worker
/// keeps serving the old engine until the moment of the swap.
fn swap(state: &ServerState, req: &Request) -> Response {
    if state.mutable.is_some() {
        return bad(
            "this server serves a live-mutable engine whose compactor swaps \
             engines automatically; /admin/swap is disabled (use /admin/compact)",
        );
    }
    let body = match req.json_body() {
        Ok(b) => b,
        Err(e) => return bad(&e),
    };
    let built = if let Some(path) = body.get("snapshot") {
        let Some(path) = path.as_str() else {
            return bad("`snapshot` must be a container file path string");
        };
        Engine::open_snapshot(Path::new(path))
    } else {
        let current = state.handle.engine();
        let index = body
            .get("index")
            .map(|v| v.as_str().map(str::to_string))
            .unwrap_or_else(|| Some(current.config().index.to_string()));
        let dco = body
            .get("dco")
            .map(|v| v.as_str().map(str::to_string))
            .unwrap_or_else(|| Some(current.config().dco.to_string()));
        let (Some(index), Some(dco)) = (index, dco) else {
            return bad("`index` and `dco` must be spec strings");
        };
        if body.get("index").is_none() && body.get("dco").is_none() {
            return bad("swap needs `snapshot` or at least one of `index` / `dco`");
        }
        let Some(base) = &state.base else {
            return bad(NO_BASE);
        };
        EngineConfig::from_strs(&index, &dco).and_then(|cfg| {
            let params = match params_from(&body, &current) {
                Ok(p) => p,
                // Spec parse errors and param errors share the 400 path;
                // reuse the message.
                Err(_) => {
                    return Err(ddc_engine::EngineError::Config(
                        "`ef` / `nprobe` must be non-negative integers".into(),
                    ))
                }
            };
            Engine::build(base, state.train.as_ref(), cfg.with_params(params))
        })
    };
    match built {
        Ok(engine) => {
            let index = engine.config().index.to_string();
            let dco = engine.config().dco.to_string();
            let epoch = state.handle.swap(engine);
            Response::ok(Json::obj([
                ("epoch", Json::from(epoch)),
                ("index", Json::from(index)),
                ("dco", Json::from(dco)),
            ]))
        }
        Err(e) => bad(&e.to_string()),
    }
}

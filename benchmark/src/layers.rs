//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each layer's public functions.
//!
//! HTTP requests of the traced passes carry `"explain": true`; afterwards
//! the same query ids are replayed in-process at every boundary —
//! `Engine::search*` → `SearchIndex::search_prepared*` → `QueryDco`
//! prepare / compare → `linalg` kernels. Each replay records a span (name,
//! start, end, parent, query id); a layer's self time is its spans minus
//! their children. Replays are separate calls, so spans nest by parent
//! link, not by timestamp. No span lives inside any crate.

use crate::host::Calib;
use crate::report::{median, plain, Report, PER_LAYER};
use crate::run::{
    drive, latencies, percentile_us, prepare, results_dir, set_up, space_amp, Checker, Explain,
    PassCounts, Res, WARMUP_PASSES,
};
use crate::workload::{Fixture, Kind, Op, Spec, Tape, BATCH, K, TAGS};
use ddc_cluster::KMeansConfig;
use ddc_core::{Counters, DcoSpec, Decision, DynDco, DynQueryDco, QueryBatch, QueryDco};
use ddc_engine::{Engine, FilterPredicate, Metric};
use ddc_index::{IndexSpec, SearchIndex, SearchResult};
use ddc_linalg::{kernels, Pca};
use ddc_quant::{Opq, OpqConfig};
use ddc_server::Json;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timed passes, alternately without and with `"explain": true` (the last
/// one with), so host drift between them does not read as tracing overhead.
const TIMED_PASSES: usize = 4;
pub const PASSES: usize = WARMUP_PASSES + TIMED_PASSES;

struct Span {
    name: &'static str,
    qid: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// In-memory span store, written out when the run ends.
struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn record(
        &mut self,
        name: &'static str,
        qid: u32,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.spans.push(Span {
            name,
            qid,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent,
        });
        self.spans.len() as u32 - 1
    }

    /// Times `f` as a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        qid: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.record(name, qid, parent, start, end), out)
    }

    /// Median duration of the spans called `name`, in µs: the typical
    /// query, as `search_p50_us` is the typical request. (Sums — and with
    /// them span-minus-children self times — are in the trace file.)
    fn median_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        median(&durations)
    }

    fn write(&self, path: &Path, workload: &str) -> Res<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.name)),
                    ("qid", Json::from(s.qid as usize)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as usize)),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::from(workload)),
            (
                "note",
                Json::from(
                    "spans of one query share `qid` (its tape entry); `parent` indexes this \
                     array; replays are separate calls, so nesting is by parent, not by time",
                ),
            ),
            ("spans", Json::Arr(spans)),
        ]);
        std::fs::write(path, doc.dump())?;
        Ok(())
    }
}

/// Wraps an evaluator and logs the candidate stream an index feeds it:
/// `(id, τ)` per `test`, `(id, NaN)` per `exact`.
struct Recorder<'a> {
    inner: Box<dyn DynQueryDco + 'a>,
    log: Vec<(u32, f32)>,
}

impl QueryDco for Recorder<'_> {
    fn exact(&mut self, id: u32) -> f32 {
        self.log.push((id, f32::NAN));
        self.inner.exact(id)
    }

    fn test(&mut self, id: u32, tau: f32) -> Decision {
        self.log.push((id, tau));
        self.inner.test(id, tau)
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }
}

/// One value out of a Prometheus exposition: the sample whose line starts
/// with `series` (`name{labels}` or a bare name), 0 when absent.
fn sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

fn stage_sum_us(text: &str, stage: &str) -> f64 {
    sample(
        text,
        &format!("ddc_stage_duration_seconds_sum{{stage=\"{stage}\"}}"),
    ) * 1e6
}

/// Runs `f` once: its wall time in seconds, and what it returned.
fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// `linalg.*`: kernels over fixture rows, at the operator's shapes.
fn linalg_metrics(fx: &Fixture, step: usize, out: &mut HashMap<&'static str, f64>) {
    let (n, dim) = (fx.base.len(), fx.base.dim());
    let pairs = 40_000;
    let full = if fx.metric == Metric::InnerProduct {
        kernels::dot
    } else {
        kernels::l2_sq
    };
    let (t, _) = secs(|| {
        let mut acc = 0.0f32;
        for i in 0..pairs {
            acc += full(fx.base.get(i % n), fx.base.get((i * 7919 + 13) % n));
        }
        black_box(acc)
    });
    out.insert("linalg.dist_ns_per_dim", t * 1e9 / (pairs * dim) as f64);

    let step = step.clamp(1, dim);
    let (t, _) = secs(|| {
        let mut acc = 0.0f32;
        for i in 0..pairs {
            let (a, b) = (fx.base.get(i % n), fx.base.get((i * 7919 + 13) % n));
            let mut lo = 0;
            while lo < dim {
                acc += kernels::l2_sq_range(a, b, lo, (lo + step).min(dim));
                lo += step;
            }
        }
        black_box(acc)
    });
    out.insert("linalg.range_ns_per_dim", t * 1e9 / (pairs * dim) as f64);

    let rotation = ddc_linalg::random_orthogonal_f32(dim, 1);
    let queries = fx.queries.len().min(8 * BATCH) / BATCH * BATCH;
    if queries == 0 {
        return;
    }
    let xs = &fx.queries.as_flat()[..queries * dim];
    let mut rotated = vec![0.0f32; queries * dim];
    let (t, _) = secs(|| {
        for (x, y) in xs.chunks_exact(dim).zip(rotated.chunks_exact_mut(dim)) {
            kernels::matvec_f32(&rotation, dim, dim, x, y);
        }
        black_box(&mut rotated);
    });
    out.insert("linalg.rotate_us_per_query", t * 1e6 / queries as f64);
    let (t, _) = secs(|| {
        for (x, y) in xs
            .chunks_exact(BATCH * dim)
            .zip(rotated.chunks_exact_mut(BATCH * dim))
        {
            kernels::matvec_batch_f32(&rotation, dim, dim, x, BATCH, y);
        }
        black_box(&mut rotated);
    });
    out.insert("linalg.rotate_batch_us_per_query", t * 1e6 / queries as f64);
}

/// The fits behind set-up, timed one by one from the workload's own specs.
fn fit_metrics(spec: &Spec, fx: &Fixture, out: &mut HashMap<&'static str, f64>) -> Res<usize> {
    let cfg = spec.config();
    let (pca, step) = match &cfg.dco {
        DcoSpec::DdcRes(c) => (Some((c.pca_samples, c.seed)), c.delta_d),
        DcoSpec::DdcPca(c) => (Some((c.pca_samples, c.seed)), c.delta_d),
        DcoSpec::AdSampling(c) => (None, c.delta_d),
        _ => (None, fx.base.dim()),
    };
    if let Some((samples, seed)) = pca {
        out.insert(
            "linalg.pca_fit_s",
            secs(|| Pca::fit_rows(&fx.base, samples, seed)).0,
        );
    }
    if let IndexSpec::Ivf(c) = &cfg.index {
        let mut k = KMeansConfig::new(c.nlist);
        (k.max_iters, k.seed, k.threads) = (c.train_iters, c.seed, c.threads);
        let (t, model) = secs(|| ddc_cluster::train(&fx.base, &k));
        model?;
        out.insert("cluster.kmeans_s", t);
    }
    if let DcoSpec::DdcOpq(c) = &cfg.dco {
        // `m = 0` is DDCopq's "auto": D/4 subspaces.
        let m = if c.m == 0 { fx.base.dim() / 4 } else { c.m };
        let mut o = OpqConfig::new(m.max(1));
        (o.pq.nbits, o.pq.seed, o.opq_iters) = (c.nbits, c.seed, c.opq_iters);
        let (t, model) = secs(|| Opq::train_rows(&fx.base, &o));
        model?;
        out.insert("quant.opq_train_s", t);
    }
    Ok(step)
}

/// The tape entries replayed in-process: the first search requests of the
/// last pass, `trace_queries` queries' worth.
fn traced_entries(spec: &Spec, tape: &Tape) -> Vec<usize> {
    tape.pass(PASSES - 1)
        .filter(|&at| matches!(tape.ops[at], Op::Search { .. } | Op::Batch { .. }))
        .take((spec.trace_queries / spec.queries_per_request()).max(1))
        .collect()
}

/// One replayed request: its tape entry (the shared span id), its query
/// rows and its filter tag.
struct Job<'a> {
    qid: u32,
    rows: Vec<&'a [f32]>,
    tag: Option<u64>,
}

fn job_of<'a>(fx: &'a Fixture, tape: &Tape, at: usize) -> Job<'a> {
    let (rows, tag) = match tape.ops[at] {
        Op::Search { query, tag, .. } => (vec![fx.queries.get(query as usize)], tag),
        Op::Batch { first, .. } => (
            (0..BATCH)
                .map(|i| fx.queries.get(first as usize + i))
                .collect(),
            None,
        ),
        _ => unreachable!("only search entries are replayed"),
    };
    Job {
        qid: at as u32,
        rows,
        tag,
    }
}

/// One query of a replayed request, under the engine span it belongs to.
struct Query<'a> {
    qid: u32,
    row: &'a [f32],
    tag: Option<u64>,
    engine_span: u32,
}

/// The three in-process layers under the server, as the replay sees them.
struct Layers<'a> {
    spec: &'a Spec,
    fx: &'a Fixture,
    tape: &'a Tape,
    engine: &'a Engine,
    index: &'a (dyn SearchIndex + Send + Sync),
    dco: &'a (dyn DynDco + Send + Sync),
}

impl Layers<'_> {
    /// Replays the traced entries at the engine, index and core boundaries.
    fn replay(
        &self,
        entries: &[usize],
        http_spans: &HashMap<usize, u32>,
        trace: &mut Trace,
        out: &mut HashMap<&'static str, f64>,
    ) -> Result<(), String> {
        let Layers {
            spec,
            fx,
            tape,
            engine,
            index,
            dco,
        } = *self;
        let params = spec.params;
        let index_search =
            |eval: &mut dyn DynQueryDco, q: &[f32], tag: Option<u64>| -> SearchResult {
                match tag {
                    Some(t) => index.search_prepared_filtered(dco, eval, q, K, &params, &|row| {
                        row as u64 % TAGS == t
                    }),
                    None => index.search_prepared(dco, eval, q, K, &params),
                }
            };
        // One sweep per boundary, each over all entries: every level then
        // meets the same cache and allocator state the server's own search
        // thread does, instead of rows the level above just touched.
        let jobs: Vec<Job> = entries.iter().map(|&at| job_of(fx, tape, at)).collect();
        let mut queries = Vec::new();
        for job in &jobs {
            let parent = http_spans.get(&(job.qid as usize)).copied();
            let (engine_span, answered) = match spec.kind {
                Kind::Batch => {
                    let batch = QueryBatch::from_rows(fx.base.dim(), &job.rows)
                        .map_err(|e| e.to_string())?;
                    trace.span("engine.search_batch", job.qid, parent, || {
                        engine
                            .search_batch_with(&batch, K, &params)
                            .map(|r| r.len())
                    })
                }
                Kind::Filtered => trace.span("engine.search", job.qid, parent, || {
                    let filter = FilterPredicate::Eq(job.tag.unwrap_or(0));
                    engine
                        .search_filtered_with(job.rows[0], K, &params, &filter)
                        .map(|_| 1)
                }),
                _ => trace.span("engine.search", job.qid, parent, || {
                    engine.search_with(job.rows[0], K, &params).map(|_| 1)
                }),
            };
            answered.map_err(|e| e.to_string())?;
            queries.extend(job.rows.iter().map(|&row| Query {
                qid: job.qid,
                row,
                tag: job.tag,
                engine_span,
            }));
        }
        if spec.kind == Kind::Batch {
            // The batched rotation: part of the engine call, but outside
            // the per-fragment search stage the server reports.
            for (job, first) in jobs.iter().zip(queries.chunks(BATCH)) {
                let batch =
                    QueryBatch::from_rows(fx.base.dim(), &job.rows).map_err(|e| e.to_string())?;
                trace.span(
                    "core.prepare_batch",
                    job.qid,
                    Some(first[0].engine_span),
                    || black_box(dco.begin_batch_dyn(&batch).len()),
                );
            }
        }
        let mut counters = Counters::default();
        let mut index_spans = Vec::with_capacity(queries.len());
        for q in &queries {
            let (span, r) = trace.span("index.search", q.qid, Some(q.engine_span), || {
                index_search(&mut *dco.begin_dyn(q.row), q.row, q.tag)
            });
            counters.merge(&r.counters);
            index_spans.push(span);
        }
        for (q, &parent) in queries.iter().zip(&index_spans) {
            trace.span("core.prepare", q.qid, Some(parent), || {
                black_box(dco.begin_dyn(q.row).counters())
            });
        }
        // The candidate stream of every query, recorded untimed, then
        // replayed against a fresh evaluator.
        let logs: Vec<Vec<(u32, f32)>> = queries
            .iter()
            .map(|q| {
                let mut recorder = Recorder {
                    inner: dco.begin_dyn(q.row),
                    log: Vec::new(),
                };
                index_search(&mut recorder, q.row, q.tag);
                recorder.log
            })
            .collect();
        let (mut pruned, mut false_pruned) = (0u64, 0u64);
        for ((q, &parent), log) in queries.iter().zip(&index_spans).zip(&logs) {
            let mut eval = dco.begin_dyn(q.row);
            trace.span("core.compare", q.qid, Some(parent), || {
                for &(id, tau) in log {
                    if tau.is_nan() {
                        black_box(eval.exact(id));
                    } else {
                        black_box(eval.test(id, tau));
                    }
                }
            });
            // Waste ratio of the probabilistic contract: pruned candidates
            // whose exact distance beats τ after all.
            let (mut tester, mut judge) = (dco.begin_dyn(q.row), dco.begin_dyn(q.row));
            for &(id, tau) in log.iter().filter(|(_, tau)| !tau.is_nan()) {
                if tester.test(id, tau).is_pruned() {
                    pruned += 1;
                    false_pruned += (judge.exact(id) < tau) as u64;
                }
            }
        }
        let queries = queries.len();

        // Self time = a layer's span minus the spans under it, on the
        // typical (median) query; by construction the layers add up to the
        // engine call.
        let engine_name = if spec.kind == Kind::Batch {
            "engine.search_batch"
        } else {
            "engine.search"
        };
        let engine_us = trace.median_us(engine_name) / spec.queries_per_request() as f64;
        let index_us = trace.median_us("index.search");
        let prepare_us = trace.median_us("core.prepare");
        let compare_ns: f64 = trace
            .spans
            .iter()
            .filter(|s| s.name == "core.compare")
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum();
        let ns_per_candidate = compare_ns / counters.candidates.max(1) as f64;
        let candidates = counters.candidates as f64 / queries as f64;
        out.insert("engine.search_us_per_query", engine_us);
        out.insert("engine.self_us_per_query", engine_us - index_us);
        out.insert("index.search_us_per_query", index_us);
        out.insert(
            "index.self_us_per_query",
            index_us - prepare_us - candidates * ns_per_candidate / 1e3,
        );
        out.insert("core.prepare_us_per_query", prepare_us);
        out.insert("core.ns_per_candidate", ns_per_candidate);
        out.insert("index.candidates_per_query", candidates);
        out.insert("index.candidates_per_result", candidates / K as f64);
        out.insert("core.dims_scanned_frac", counters.scan_rate());
        out.insert("core.pruned_frac", counters.pruned_rate());
        out.insert(
            "core.false_prune_frac",
            false_pruned as f64 / pruned.max(1) as f64,
        );

        // Solo against batched engine calls over the same queries (the
        // filtered path has no batch form).
        if spec.kind != Kind::Filtered {
            let rows: Vec<&[f32]> = jobs.iter().flat_map(|j| j.rows.iter().copied()).collect();
            let rows = &rows[..rows.len() / BATCH * BATCH];
            if !rows.is_empty() {
                let (solo, _) = secs(|| {
                    for q in rows {
                        black_box(engine.search_with(q, K, &params).map(|r| r.neighbors.len()))
                            .ok();
                    }
                });
                let batches = rows
                    .chunks_exact(BATCH)
                    .map(|c| QueryBatch::from_rows(fx.base.dim(), c))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                let (batched, _) = secs(|| {
                    for b in &batches {
                        black_box(engine.search_batch_with(b, K, &params).map(|r| r.len())).ok();
                    }
                });
                out.insert(
                    "engine.batch_us_per_query",
                    batched * 1e6 / rows.len() as f64,
                );
                out.insert("engine.batch_gain", solo / batched);
            }
        }
        Ok(())
    }
}

pub fn run_traced(spec: &Spec, seed: u64, seconds: u64) -> Res<Report> {
    let (fx, tape) = prepare(spec, seed, seconds, PASSES);
    let plain_requests = tape.requests(spec, &fx, false);
    let explain_requests = tape.requests(spec, &fx, true);
    let calib = Calib::new();
    let calib_before = calib.reading();
    let mut out: HashMap<&'static str, f64> = HashMap::new();

    // The layers on their own, built from the same specs the engine uses
    // (builds are deterministic, so these are the served structures).
    let cfg = spec.config();
    let step = fit_metrics(spec, &fx, &mut out)?;
    let (t, dco) = secs(|| cfg.dco.build_rows(&fx.base, Some(&fx.train)));
    let dco = dco?;
    out.insert("core.build_s", t);
    let (t, index) = secs(|| cfg.index.build_rows(&fx.base));
    let index = index?;
    out.insert("index.build_s", t);
    out.insert(
        "core.extra_bytes_per_vec",
        dco.extra_bytes() as f64 / spec.n as f64,
    );
    out.insert(
        "index.bytes_per_vec",
        index.memory_bytes() as f64 / spec.n as f64,
    );

    let (served, mut client, _) = set_up(spec, &fx)?;
    if let Some(path) = &served.snapshot {
        out.insert("vecs.snapshot_save_ms", served.snapshot_save_ms);
        let opens: Vec<f64> = (0..20)
            .map(|_| secs(|| Engine::open_snapshot(path)).0 * 1e3)
            .collect();
        out.insert("vecs.snapshot_open_ms", median(&opens));
        out.insert(
            "vecs.snapshot_bytes_per_vec",
            std::fs::metadata(path)?.len() as f64 / spec.n as f64,
        );
    }

    // HTTP: warm-up, then untraced and traced passes in turn.
    let mut checker = Checker::new(spec, &fx, &tape);
    let (mut counts, mut plain_counts) = (PassCounts::default(), PassCounts::default());
    let mut explains: Vec<Explain> = Vec::new();
    let entries = traced_entries(spec, &tape);
    let mut trace = Trace {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut http_spans = HashMap::new();
    let (mut untraced_p50s, mut traced_p50s) = (Vec::new(), Vec::new());
    let (mut search_lat, mut write_lat) = (Vec::new(), Vec::new());
    let mut before = String::new();
    for p in 0..PASSES {
        let traced = p >= WARMUP_PASSES && (p - WARMUP_PASSES) % 2 == 1;
        if p == WARMUP_PASSES {
            before = client.get("/metrics")?;
        }
        let requests = if traced {
            &explain_requests
        } else {
            &plain_requests
        };
        let log = drive(&mut client, &requests[tape.pass(p)])?;
        let c = checker.check(p, &log, &mut explains);
        if p < WARMUP_PASSES {
            continue;
        }
        counts.add(&c);
        if !traced {
            // An explain block carries timings, so its length wanders.
            plain_counts.add(&c);
        }
        let lat = latencies(&tape, p, &log, true);
        let p50 = percentile_us(&lat, 50.0);
        if traced {
            traced_p50s.push(p50);
        } else {
            untraced_p50s.push(p50);
        }
        search_lat.extend(lat);
        write_lat.extend(latencies(&tape, p, &log, false));
        if p == PASSES - 1 {
            // Client-side spans of the entries replayed below.
            for ((at, &sent), &ns) in tape.pass(p).zip(&log.sent_ns).zip(&log.lat_ns) {
                if entries.binary_search(&at).is_ok() {
                    let start = log.started + Duration::from_nanos(sent);
                    let end = start + Duration::from_nanos(ns);
                    http_spans.insert(
                        at,
                        trace.record("http.request", at as u32, None, start, end),
                    );
                }
            }
        }
    }
    let after = client.get("/metrics")?;

    let traced_p50 = median(&traced_p50s);
    let untraced_p50 = median(&untraced_p50s);
    // Stage time per request, from the `/metrics` histograms' sums over
    // the timed passes.
    let searches = search_lat.len() as f64;
    let requests = searches + write_lat.len() as f64;
    let stage =
        |name: &str, per: f64| (stage_sum_us(&after, name) - stage_sum_us(&before, name)) / per;
    out.insert("server.parse_us", stage("parse", requests));
    out.insert("server.serialize_us", stage("serialize", searches));
    out.insert("server.write_us", stage("write", requests));
    let p50_of = |f: fn(&Explain) -> f64| median(&explains.iter().map(f).collect::<Vec<_>>()) / 1e3;
    let in_server_engine_us = if explains.is_empty() {
        // No explain on this path: per-request means of the stage
        // histograms (a batch sums its fragments).
        out.insert("server.queue_wait_us", stage("queue_wait", searches));
        out.insert("server.search_us", stage("search", searches));
        stage("search", searches)
    } else {
        out.insert("server.queue_wait_us", p50_of(|e| e.queue_wait_ns));
        out.insert("server.search_us", p50_of(|e| e.search_ns));
        p50_of(|e| e.batch_ns)
    };
    out.insert(
        "server.request_bytes",
        plain_counts.request_bytes as f64 / plain_counts.requests as f64,
    );
    out.insert(
        "server.response_bytes",
        plain_counts.response_bytes as f64 / plain_counts.requests as f64,
    );
    out.insert("server.search_p99_us", percentile_us(&search_lat, 99.0));
    if !write_lat.is_empty() {
        out.insert("server.write_p50_us", percentile_us(&write_lat, 50.0));
    }
    out.insert("trace.search_p50_us", traced_p50);
    out.insert("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0);
    if spec.kind == Kind::Mutable {
        out.insert("engine.overlay_rows_mean", tape.overlay_rows_mean);
        let compactions = sample(&after, "ddc_mutation_compactions_total");
        out.insert("engine.compact_count", compactions);
        out.insert(
            "engine.compact_ms",
            sample(&after, "ddc_compaction_duration_seconds_sum") * 1e3 / compactions.max(1.0),
        );
    }
    let (_, live) = space_amp(spec, &fx, &mut client)?;

    // In-process replays against the engine the server is serving.
    linalg_metrics(&fx, step, &mut out);
    let engine = served.guard.handle().engine();
    let layers = Layers {
        spec,
        fx: &fx,
        tape: &tape,
        engine: &engine,
        index: &*index,
        dco: &*dco,
    };
    // On a thread of its own, as the server runs searches: the main
    // thread's allocator arena trims and regrows its heap around the
    // per-query visited set, which doubles the replayed search time.
    std::thread::scope(|s| {
        s.spawn(|| layers.replay(&entries, &http_spans, &mut trace, &mut out))
            .join()
            .map_err(|_| "the replay thread panicked".to_string())?
    })?;
    // The engine call costs the same traced or not, so what is left of
    // the untraced request is the server's own. A batch's fragments report
    // their search stage only; the batched rotation before them is
    // replayed.
    let in_server_engine_us = in_server_engine_us
        + if spec.kind == Kind::Batch {
            trace.median_us("core.prepare_batch")
        } else {
            0.0
        };
    let server_self_us = untraced_p50 - in_server_engine_us;
    out.insert("server.self_us_per_request", server_self_us);
    // "The layers must add up": the server's share plus the replayed
    // engine call (itself the sum of the layers under it) against the
    // request a client saw.
    let rebuilt =
        server_self_us + spec.queries_per_request() as f64 * out["engine.search_us_per_query"];
    out.insert(
        "trace.reconstruction_err",
        (rebuilt - untraced_p50).abs() / untraced_p50,
    );
    if let Some(mutable) = &served.mutable {
        // The run is over; the live engine may now be written to freely.
        let upserts: Vec<f64> = (0..fx.pool.len().min(200))
            .map(|i| secs(|| mutable.upsert(u32::MAX - i as u32, fx.pool.get(i))).0 * 1e6)
            .collect();
        out.insert("engine.upsert_us", median(&upserts));
    }
    drop((engine, client, served));
    let calib_ns = [calib_before, calib.reading()];
    out.insert("host.calib_ns", median(&calib_ns));

    std::fs::create_dir_all(results_dir())?;
    trace.write(
        &results_dir().join(format!("trace_{}.json", spec.name)),
        spec.name,
    )?;

    let mut problems: Vec<String> = checker.first_problem.take().into_iter().collect();
    if live != tape.final_live {
        problems.push(format!(
            "server reports {live} live rows, the mirror {}",
            tape.final_live
        ));
    }
    Ok(Report {
        workload: spec.name,
        seed,
        seconds,
        traced: true,
        attempted: counts.requests,
        failed: counts.failed,
        problems,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| plain(name, unit, out.get(name).copied().unwrap_or(0.0)))
            .collect(),
        calib_ns,
    })
}

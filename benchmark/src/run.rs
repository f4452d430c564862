//! The untraced run: set-up, count-paced passes over the tape, answer
//! checking, and the six end-to-end metrics.

use crate::host::Calib;
use crate::http::Client;
use crate::report::{plain, repeated, Metric, Report};
use crate::workload::{Fixture, Kind, Op, Spec, Tape, BATCH, K, RECALL_BAND, TAGS};
use ddc_engine::{Engine, MutableConfig, MutableEngine};
use ddc_server::{Json, Server, ServerConfig, ServerGuard};
use ddc_vecs::VecSet;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Untimed passes before measuring (caches, lazy set-up, adaptive window).
pub const WARMUP_PASSES: usize = 1;
/// Timed passes; the timing metrics are medians over them.
pub const TIMED_PASSES: usize = 5;

/// Noise rule 1: one worker, adaptive coalescing (a solo caller pays no
/// window), and a 32-query batch fills the collector so it never waits for
/// company either. The read timeout only has to outlast a compaction.
fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        read_timeout: Duration::from_secs(120),
        coalesce_max_batch: BATCH,
        ..ServerConfig::default()
    }
}

/// A booted server and what the benchmark keeps of its boot.
pub struct Served {
    pub guard: ServerGuard,
    pub mutable: Option<Arc<MutableEngine>>,
    pub snapshot: Option<PathBuf>,
    pub snapshot_save_ms: f64,
}

/// `benchmark/results` of the checkout this binary was built in: where
/// traces go, and (under `tmp/`) snapshot containers. Gitignored.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn scratch_dir() -> Res<PathBuf> {
    let dir = results_dir().join("tmp");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One set-up: fixture in memory → engine built (→ snapshot saved and
/// reopened) → server answering `/healthz`. Returns the wall time too.
pub fn set_up(spec: &Spec, fx: &Fixture) -> Res<(Served, Client, f64)> {
    static SNAPSHOTS: AtomicUsize = AtomicUsize::new(0);
    let started = Instant::now();
    let cfg = server_config();
    let (mut mutable, mut snapshot, mut snapshot_save_ms) = (None, None, 0.0);
    let server = match spec.kind {
        Kind::Solo => {
            let engine = Engine::build(&fx.base, Some(&fx.train), spec.config())?;
            let path = scratch_dir()?.join(format!(
                "{}_{}_{}.snap",
                spec.name,
                std::process::id(),
                SNAPSHOTS.fetch_add(1, Ordering::Relaxed)
            ));
            let save = Instant::now();
            engine.save_snapshot(&path)?;
            snapshot_save_ms = save.elapsed().as_secs_f64() * 1e3;
            drop(engine);
            let server = Server::bind_snapshot(&cfg, &path)?;
            snapshot = Some(path);
            server
        }
        Kind::Batch | Kind::Filtered => {
            let mut engine = Engine::build(&fx.base, Some(&fx.train), spec.config())?;
            if let Some(p) = &fx.payloads {
                engine.set_payloads(p.clone())?;
            }
            // The retained base only feeds `/admin/swap` rebuilds, which
            // no workload issues.
            Server::bind(&cfg, engine, VecSet::new(fx.base.dim()), None)?
        }
        Kind::Mutable => {
            let engine = MutableEngine::build(
                fx.base.clone(),
                Some(fx.train.clone()),
                spec.config(),
                // Noise rule 3: no count trigger and a tick that never
                // comes; compaction happens only where the tape says so.
                MutableConfig {
                    compact_threshold: 0,
                    compact_interval: Duration::from_secs(86_400),
                    ..MutableConfig::default()
                },
            )?;
            let server = Server::bind_mutable(&cfg, Arc::clone(&engine))?;
            mutable = Some(engine);
            server
        }
    };
    let guard = server.spawn()?;
    let mut client = Client::connect(guard.addr())?;
    client.get("/healthz")?;
    let served = Served {
        guard,
        mutable,
        snapshot,
        snapshot_save_ms,
    };
    Ok((served, client, started.elapsed().as_secs_f64()))
}

/// Dropping a [`Served`] removes its snapshot container (the mapping
/// outlives the name); dropping its guard then stops and joins the server.
impl Drop for Served {
    fn drop(&mut self) {
        if let Some(path) = &self.snapshot {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What one pass put on and took off the wire.
pub struct PassLog {
    pub started: Instant,
    pub wall_s: f64,
    /// Per request: when it was sent (since `started`) and how long the
    /// whole response took.
    pub sent_ns: Vec<u64>,
    pub lat_ns: Vec<u64>,
    pub status: Vec<u16>,
    pub request_bytes: Vec<usize>,
    pub response_bytes: Vec<usize>,
    bodies: Vec<u8>,
    ends: Vec<usize>,
}

impl PassLog {
    fn body(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bodies[start..self.ends[i]]
    }
}

/// Sends `requests` back to back on the one connection. Bodies are kept raw
/// and parsed after the pass, so checking is never inside a timed interval.
pub fn drive(client: &mut Client, requests: &[Vec<u8>]) -> Res<PassLog> {
    let n = requests.len();
    let mut log = PassLog {
        started: Instant::now(),
        wall_s: 0.0,
        sent_ns: Vec::with_capacity(n),
        lat_ns: Vec::with_capacity(n),
        status: Vec::with_capacity(n),
        request_bytes: Vec::with_capacity(n),
        response_bytes: Vec::with_capacity(n),
        bodies: Vec::new(),
        ends: Vec::with_capacity(n),
    };
    for request in requests {
        let sent = Instant::now();
        let reply = client.send(request, &mut log.bodies)?;
        log.lat_ns.push(sent.elapsed().as_nanos() as u64);
        log.sent_ns
            .push(sent.duration_since(log.started).as_nanos() as u64);
        log.status.push(reply.status);
        log.request_bytes.push(request.len());
        log.response_bytes.push(reply.wire_bytes);
        log.ends.push(log.bodies.len());
    }
    log.wall_s = log.started.elapsed().as_secs_f64();
    Ok(log)
}

/// The server's `explain` block of one traced `/search`.
#[derive(Debug, Clone, Copy)]
pub struct Explain {
    pub queue_wait_ns: f64,
    pub search_ns: f64,
    pub batch_ns: f64,
}

/// Counts one checked pass yields. All of them repeat exactly for a seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PassCounts {
    pub requests: u64,
    pub failed: u64,
    pub queries: u64,
    pub writes: u64,
    pub compactions: u64,
    pub hits: u64,
    pub scored: u64,
    pub dims_scanned: u64,
    pub candidates: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    /// FNV-1a over every returned id and distance bit pattern.
    pub answers: u64,
}

impl PassCounts {
    pub fn add(&mut self, o: &PassCounts) {
        self.requests += o.requests;
        self.failed += o.failed;
        self.queries += o.queries;
        self.writes += o.writes;
        self.compactions += o.compactions;
        self.hits += o.hits;
        self.scored += o.scored;
        self.dims_scanned += o.dims_scanned;
        self.candidates += o.candidates;
        self.request_bytes += o.request_bytes;
        self.response_bytes += o.response_bytes;
        self.answers = fnv(self.answers, o.answers);
    }
}

/// Checks every answer of every pass, in tape order (the mutable workload's
/// live set advances with the tape).
pub struct Checker<'a> {
    tape: &'a Tape,
    live: Vec<bool>,
    pub first_problem: Option<String>,
}

impl<'a> Checker<'a> {
    pub fn new(spec: &'a Spec, fx: &Fixture, tape: &'a Tape) -> Checker<'a> {
        let mut live = vec![false; spec.n + fx.pool.len()];
        live[..spec.n].fill(true);
        Checker {
            tape,
            live,
            first_problem: None,
        }
    }

    pub fn live_rows(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Checks pass `p`'s log; `explains` collects trace blocks when the
    /// requests carried `"explain": true`.
    pub fn check(&mut self, p: usize, log: &PassLog, explains: &mut Vec<Explain>) -> PassCounts {
        let mut c = PassCounts {
            answers: 0xCBF2_9CE4_8422_2325,
            ..PassCounts::default()
        };
        for (i, at) in self.tape.pass(p).enumerate() {
            c.requests += 1;
            c.request_bytes += log.request_bytes[i] as u64;
            c.response_bytes += log.response_bytes[i] as u64;
            let op = &self.tape.ops[at];
            // Attempts are counted before the answer is looked at: a failed
            // search is still a query, and a scored one a recall miss.
            match op {
                Op::Search { scored, .. } => {
                    c.queries += 1;
                    c.scored += scored.is_some() as u64;
                }
                Op::Batch { scored, .. } => {
                    c.queries += BATCH as u64;
                    c.scored += if scored.is_some() { BATCH as u64 } else { 0 };
                }
                Op::Upsert { .. } | Op::Delete { .. } => c.writes += 1,
                Op::Compact => c.compactions += 1,
            }
            let outcome = if log.status[i] != 200 {
                Err(format!("status {}", log.status[i]))
            } else {
                std::str::from_utf8(log.body(i))
                    .map_err(|e| e.to_string())
                    .and_then(|s| Json::parse(s).map_err(|e| e.to_string()))
                    .and_then(|body| self.check_op(op, &body, &mut c, explains))
            };
            if let Err(why) = outcome {
                c.failed += 1;
                self.first_problem
                    .get_or_insert_with(|| format!("pass {p} entry {at} ({op:?}): {why}"));
            }
            // The tape moves on whether or not the server agreed.
            match op {
                Op::Upsert { id, .. } => self.live[*id as usize] = true,
                Op::Delete { id } => self.live[*id as usize] = false,
                _ => {}
            }
        }
        c
    }

    fn check_op(
        &self,
        op: &Op,
        body: &Json,
        c: &mut PassCounts,
        explains: &mut Vec<Explain>,
    ) -> Result<(), String> {
        match op {
            Op::Search { tag, scored, .. } => {
                let ids = self.check_result(body, *tag, c)?;
                if let Some(s) = scored {
                    c.hits += recall_hits(&self.tape.oracle[*s as usize], &ids);
                }
                if let Some(t) = body.get("trace") {
                    let ns = |key| t.get(key).and_then(Json::as_f64).ok_or("bad trace block");
                    explains.push(Explain {
                        queue_wait_ns: ns("queue_wait_nanos")?,
                        search_ns: ns("search_nanos")?,
                        batch_ns: ns("batch_nanos")?,
                    });
                }
                Ok(())
            }
            Op::Batch { scored, .. } => {
                let results = body
                    .get("results")
                    .and_then(Json::as_arr)
                    .filter(|r| r.len() == BATCH)
                    .ok_or("`results` is not an array of the batch size")?;
                for (i, r) in results.iter().enumerate() {
                    let ids = self.check_result(r, None, c)?;
                    if let Some(s) = scored {
                        c.hits += recall_hits(&self.tape.oracle[*s as usize + i], &ids);
                    }
                }
                Ok(())
            }
            Op::Upsert { replaces, .. } => {
                let got = body.get("replaced").and_then(Json::as_bool);
                (got == Some(*replaces))
                    .then_some(())
                    .ok_or_else(|| format!("`replaced` is {got:?}, the mirror says {replaces}"))
            }
            Op::Delete { .. } => (body.get("deleted").and_then(Json::as_bool) == Some(true))
                .then_some(())
                .ok_or_else(|| "a live id was not deleted".to_string()),
            Op::Compact => Ok(()),
        }
    }

    /// One result object: at most `K` distinct ids, ascending distances,
    /// every id live at this tape position and passing the filter.
    fn check_result(
        &self,
        r: &Json,
        tag: Option<u64>,
        c: &mut PassCounts,
    ) -> Result<Vec<u32>, String> {
        let ids: Vec<u32> = r
            .get("ids")
            .and_then(Json::as_arr)
            .and_then(|a| a.iter().map(|v| v.as_usize().map(|x| x as u32)).collect())
            .ok_or("`ids` is not an array of integers")?;
        let dists: Vec<f64> = r
            .get("distances")
            .and_then(Json::as_arr)
            .and_then(|a| a.iter().map(Json::as_f64).collect())
            .ok_or("`distances` is not an array of numbers")?;
        if ids.len() > K || ids.len() != dists.len() {
            return Err(format!("{} ids, {} distances", ids.len(), dists.len()));
        }
        if dists.windows(2).any(|w| w[0] > w[1]) {
            return Err("distances are not ascending".into());
        }
        for (i, &id) in ids.iter().enumerate() {
            if ids[..i].contains(&id) {
                return Err(format!("id {id} returned twice"));
            }
            if !self.live.get(id as usize).copied().unwrap_or(false) {
                return Err(format!("id {id} is not live here"));
            }
            if tag.is_some_and(|t| id as u64 % TAGS != t) {
                return Err(format!("id {id} fails the filter"));
            }
            c.answers = fnv(c.answers, id as u64);
            c.answers = fnv(c.answers, (dists[i] as f32).to_bits() as u64);
        }
        let counters = r.get("counters").ok_or("no `counters`")?;
        let count = |key| {
            counters
                .get(key)
                .and_then(Json::as_usize)
                .ok_or("bad `counters`")
        };
        c.dims_scanned += count("dims_scanned")? as u64;
        c.candidates += count("candidates")? as u64;
        Ok(ids)
    }
}

fn recall_hits(oracle: &[u32], got: &[u32]) -> u64 {
    got.iter().filter(|id| oracle.contains(id)).count() as u64
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// p-th percentile (nearest rank) of a latency sample, in µs.
pub fn percentile_us(lat_ns: &[u64], p: f64) -> f64 {
    let mut v = lat_ns.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64 / 1e3
}

/// Latencies of the pass's search requests (`search`) or writes.
pub fn latencies(tape: &Tape, p: usize, log: &PassLog, search: bool) -> Vec<u64> {
    tape.pass(p)
        .zip(&log.lat_ns)
        .filter(|(at, _)| match tape.ops[*at] {
            Op::Search { .. } | Op::Batch { .. } => search,
            Op::Upsert { .. } | Op::Delete { .. } => !search,
            Op::Compact => false,
        })
        .map(|(_, &ns)| ns)
        .collect()
}

/// `space_amp` from `/stats`, plus the server's own live-row count.
pub fn space_amp(spec: &Spec, fx: &Fixture, client: &mut Client) -> Res<(f64, usize)> {
    let stats = Json::parse(&client.get("/stats")?)?;
    let field = |v: &Json, key: &str| -> Res<usize> {
        v.get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("/stats has no `{key}`").into())
    };
    let (bytes, live) = match spec.kind {
        Kind::Solo => (
            field(&stats, "storage_mapped_bytes")?,
            field(&stats, "len")?,
        ),
        Kind::Mutable => {
            let m = stats.get("mutation").ok_or("/stats has no `mutation`")?;
            (field(&stats, "total_bytes")?, field(m, "live")?)
        }
        _ => (field(&stats, "total_bytes")?, field(&stats, "len")?),
    };
    Ok((bytes as f64 / (live * fx.base.dim() * 4) as f64, live))
}

/// Everything a run needs before the first timed request.
pub fn prepare(spec: &Spec, seed: u64, seconds: u64, passes: usize) -> (Fixture, Tape) {
    let pass_len = spec.pass_len(seconds);
    let fx = Fixture::generate(spec, seed, pass_len, passes);
    let tape = Tape::generate(spec, &fx, seed, pass_len, passes);
    (fx, tape)
}

/// The end-to-end metrics plus the raw counts behind them.
pub struct Untraced {
    pub report: Report,
    pub counts: PassCounts,
}

pub fn run_untraced(spec: &Spec, seed: u64, seconds: u64, smoke: bool) -> Res<Untraced> {
    let passes = WARMUP_PASSES + TIMED_PASSES;
    let (fx, tape) = prepare(spec, seed, seconds, passes);
    let requests = tape.requests(spec, &fx, false);
    let calib = Calib::new();

    let calib_before = calib.reading();
    let mut setups = Vec::new();
    let (served, mut client) = loop {
        let (served, client, secs) = set_up(spec, &fx)?;
        setups.push(secs);
        if setups.len() == spec.setup_repeats {
            break (served, client);
        }
        drop((client, served));
    };

    let mut checker = Checker::new(spec, &fx, &tape);
    let mut counts = PassCounts::default();
    let (mut p50s, mut rates) = (Vec::new(), Vec::new());
    let mut problems = Vec::new();
    let mut first_answers = None;
    for p in 0..passes {
        let log = drive(&mut client, &requests[tape.pass(p)])?;
        let c = checker.check(p, &log, &mut Vec::new());
        if p < WARMUP_PASSES {
            if c.failed > 0 {
                problems.push(format!("{} failed operations while warming up", c.failed));
            }
            continue;
        }
        p50s.push(percentile_us(&latencies(&tape, p, &log, true), 50.0));
        rates.push((c.queries + c.writes) as f64 / log.wall_s);
        if spec.kind != Kind::Mutable && *first_answers.get_or_insert(c.answers) != c.answers {
            problems.push(format!("pass {p} answered differently from the first pass"));
        }
        counts.add(&c);
    }
    let (amp, live) = space_amp(spec, &fx, &mut client)?;
    drop((client, served));
    let calib_ns = [calib_before, calib.reading()];

    let recall = counts.hits as f64 / (counts.scored as f64 * K as f64);
    problems.extend(checker.first_problem.take());
    if live != tape.final_live || checker.live_rows() != tape.final_live {
        problems.push(format!(
            "server reports {live} live rows, the mirror {}",
            tape.final_live
        ));
    }
    if !smoke && !(RECALL_BAND.0..=RECALL_BAND.1).contains(&recall) {
        problems.push(format!(
            "recall_at_10 {recall:.4} left [{}, {}]",
            RECALL_BAND.0, RECALL_BAND.1
        ));
    }
    let metrics: Vec<Metric> = vec![
        repeated("setup_s", "s", &setups),
        repeated("search_p50_us", "us", &p50s),
        repeated("ops_per_s", "1/s", &rates),
        plain("recall_at_10", "ratio", recall),
        plain(
            "dims_per_query",
            "dims",
            counts.dims_scanned as f64 / counts.queries as f64,
        ),
        plain("space_amp", "ratio", amp),
    ];
    Ok(Untraced {
        report: Report {
            workload: spec.name,
            seed,
            seconds,
            traced: false,
            attempted: counts.requests,
            failed: counts.failed,
            problems,
            metrics,
            calib_ns,
        },
        counts,
    })
}

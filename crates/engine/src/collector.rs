//! Server-side micro-batching: a submission queue that coalesces
//! concurrent search requests into engine batches.
//!
//! The batch entry points ([`Engine::search_batch`],
//! [`Engine::search_batch_parallel_with`]) amortize the `O(D²)` per-query
//! evaluator setup the paper accounts in §VI-A — but only callers that
//! *arrive* with a batch benefit. A serving workload arrives as many
//! independent requests, most of them a single query;
//! [`BatchCollector`] converts that concurrency into batches: the first
//! submission opens a small coalescing window, every request arriving
//! inside it (or until `max_batch` queries are pending) joins the same
//! drain, and results fan back out through per-request callbacks. There
//! is one way in, [`BatchCollector::submit`]: a request is a
//! [`QueryBatch`] of one or more queries (solo = one) plus `k`, the
//! search parameters and an optional [`FilterPredicate`].
//!
//! Results are **bit-identical** to solo execution: the collector only
//! ever calls the engine's batch path, whose parity with per-query
//! [`Engine::search`] is pinned across the full index × DCO grid by
//! `crates/engine/tests/parity.rs`. Requests with differing `k`, search
//! parameters or predicate never share an engine call (they are
//! grouped), so coalescing is invisible to every caller except in
//! latency — bounded by the window — and throughput.
//!
//! Each drain runs against one [`ServingHandle`] snapshot taken at
//! execution time; callbacks receive the epoch of that snapshot, so a
//! server can attribute every coalesced response to exactly one
//! installed engine even across hot swaps.
//!
//! ```
//! use ddc_core::QueryBatch;
//! use ddc_engine::{BatchCollector, CollectorConfig, Engine, EngineConfig};
//! use ddc_engine::{ServingHandle, WorkerPool};
//! use ddc_vecs::SynthSpec;
//! use std::sync::{mpsc, Arc};
//!
//! let w = SynthSpec::tiny_test(8, 120, 3).generate();
//! let cfg = EngineConfig::from_strs("flat", "exact").unwrap();
//! let engine = Engine::build(&w.base, None, cfg).unwrap();
//! let handle = Arc::new(ServingHandle::new(engine));
//! let pool = Arc::new(WorkerPool::new(2));
//! let collector = BatchCollector::new(
//!     Arc::clone(&handle),
//!     Arc::clone(&pool),
//!     CollectorConfig::default(),
//! );
//!
//! let params = handle.engine().config().params;
//! let (tx, rx) = mpsc::channel();
//! collector.submit(
//!     QueryBatch::from_rows(8, &[w.queries.get(0)]).unwrap(),
//!     3,
//!     params,
//!     None,
//!     Box::new(move |epoch, _meta, results| {
//!         tx.send((epoch, results.unwrap()[0].ids())).unwrap();
//!     }),
//! );
//! let (epoch, ids) = rx.recv().unwrap();
//! assert_eq!(epoch, 0);
//! assert_eq!(ids.len(), 3);
//! ```

use crate::error::EngineError;
use crate::filter::FilterPredicate;
use crate::handle::ServingHandle;
use crate::pool::WorkerPool;
use ddc_core::QueryBatch;
use ddc_index::{SearchParams, SearchResult};
use ddc_obs::{AtomicHistogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Execution metadata delivered alongside every result: how long the
/// request queued, and the shape and duration of the engine batch it
/// rode in. `batch_nanos` is the whole batch's execution time (shared by
/// every batchmate); a query's own traversal time is its result's
/// `elapsed_nanos`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecMeta {
    /// Nanos from submission until the drained batch began executing.
    pub queue_wait_nanos: u64,
    /// Queries sharing this engine batch (1 = the query ran solo).
    pub batch_len: usize,
    /// Wall-clock nanos of the engine batch call (0 for a request that
    /// never reached the engine).
    pub batch_nanos: u64,
}

/// Completion callback of one submitted request: the serving epoch it
/// executed under, its [`ExecMeta`], and one result per query in
/// submission order (all or nothing).
pub type SearchCallback =
    Box<dyn FnOnce(u64, ExecMeta, Result<Vec<SearchResult>, EngineError>) + Send + 'static>;

/// Coalescing knobs.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// The longest the first pending submission waits for company before
    /// the batch executes — the *ceiling* the window adapts under: solo
    /// drains (no company arrived, no backlog) halve the live window
    /// toward zero so an idle trickle stops paying it as pure latency;
    /// any drain that coalesced or left a backlog doubles it back toward
    /// this value (the crate-private `WindowController` holds the exact
    /// policy). Zero disables waiting (submissions still coalesce
    /// whenever they outpace the collector).
    pub window: Duration,
    /// Executes the batch early once this many queries are pending. A
    /// drain takes whole requests until it holds this many queries, so
    /// the last one taken may overshoot it.
    pub max_batch: usize,
}

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig {
            window: Duration::from_micros(200),
            max_batch: 64,
        }
    }
}

/// The adaptive-window policy: multiplicative decrease on evidence of
/// idleness, multiplicative increase on evidence of load.
///
/// Each queue drain reports how many jobs it took (`batch`) and how many
/// it left behind (`backlog`). A drain of one job with nothing queued
/// means the window bought nothing — waiting was pure added latency —
/// so the window halves (200µs reaches zero in eight idle drains). A
/// drain that coalesced (`batch >= 2`) or left a backlog means arrivals
/// outpace execution and a wider window converts that concurrency into
/// bigger batches, so the window doubles (re-seeding at one eighth of
/// the ceiling from zero) and saturates at the configured ceiling.
///
/// Deterministic and clock-free on purpose: the controller sees only
/// drain shapes, so it unit-tests without timers and cannot oscillate on
/// scheduler jitter faster than the drains themselves.
#[derive(Debug, Clone)]
pub(crate) struct WindowController {
    base_us: u64,
    cur_us: u64,
}

impl WindowController {
    pub(crate) fn new(ceiling: Duration) -> WindowController {
        let base_us = ceiling.as_micros() as u64;
        WindowController {
            base_us,
            cur_us: base_us,
        }
    }

    /// The window the next drain should wait.
    pub(crate) fn window(&self) -> Duration {
        Duration::from_micros(self.cur_us)
    }

    /// Feeds one drain observation: `batch` jobs taken, `backlog` left
    /// queued after the take.
    pub(crate) fn observe(&mut self, batch: usize, backlog: usize) {
        if self.base_us == 0 {
            return; // waiting is disabled outright; nothing to adapt
        }
        if batch >= 2 || backlog > 0 {
            self.cur_us = (self.cur_us * 2)
                .clamp(1, self.base_us)
                .max(self.base_us / 8);
        } else {
            self.cur_us /= 2;
        }
    }
}

/// Upper edges (inclusive, in queries) of the batch-size histogram
/// buckets; one extra bucket counts batches above the last edge.
pub const SIZE_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];
/// Upper edges (inclusive, in microseconds) of the queue-wait histogram
/// buckets; one extra bucket counts waits above the last edge.
pub const WAIT_BUCKETS_US: [u64; 6] = [50, 100, 200, 500, 1000, 5000];

/// A snapshot of the collector's accumulated counters.
#[derive(Debug, Clone, Default)]
pub struct CollectorStats {
    /// Queries submitted (a request of `n` queries counts `n`).
    pub submitted: u64,
    /// Engine batches executed (a batch of one still counts).
    pub batches: u64,
    /// Batches that actually coalesced (size ≥ 2).
    pub coalesced_batches: u64,
    /// Largest batch executed so far.
    pub max_batch: u64,
    /// Batch-size distribution over the [`SIZE_BUCKETS`] edges.
    pub size_hist: HistogramSnapshot,
    /// Queue-wait distribution (microseconds) over the
    /// [`WAIT_BUCKETS_US`] edges, one observation per request. Wait =
    /// submission to the moment its batch starts.
    pub wait_us_hist: HistogramSnapshot,
    /// The coalescing window the next drain will wait, in microseconds:
    /// the configured ceiling until traffic moves it.
    pub window_us: u64,
}

struct Counters {
    submitted: AtomicU64,
    batches: AtomicU64,
    coalesced_batches: AtomicU64,
    max_batch: AtomicU64,
    size_hist: AtomicHistogram,
    wait_us_hist: AtomicHistogram,
    window_us: AtomicU64,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            submitted: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            size_hist: AtomicHistogram::new(&SIZE_BUCKETS),
            wait_us_hist: AtomicHistogram::new(&WAIT_BUCKETS_US),
            window_us: AtomicU64::new(0),
        }
    }
}

/// One submitted request.
struct Pending {
    queries: QueryBatch,
    k: usize,
    params: SearchParams,
    filter: Option<FilterPredicate>,
    enqueued: Instant,
    done: SearchCallback,
}

struct Queue {
    jobs: Vec<Pending>,
    shutdown: bool,
}

impl Queue {
    /// Queries pending across `jobs`.
    fn rows(&self) -> usize {
        self.jobs.iter().map(|j| j.queries.len()).sum()
    }
}

struct Shared {
    queue: Mutex<Queue>,
    arrived: Condvar,
    cfg: CollectorConfig,
    handle: Arc<ServingHandle>,
    pool: Arc<WorkerPool>,
    stats: Counters,
}

/// The coalescing queue: submissions go in, batched executions come out
/// through each submission's callback. See the module docs.
///
/// Dropping the collector drains the queue — every already-submitted
/// search still executes and fires its callback — then joins the
/// collector thread.
pub struct BatchCollector {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for BatchCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchCollector")
            .field("window", &self.shared.cfg.window)
            .field("max_batch", &self.shared.cfg.max_batch)
            .finish()
    }
}

impl BatchCollector {
    /// Starts the collector thread over `handle`'s current (and future)
    /// engines, running parallel batches on `pool`.
    pub fn new(
        handle: Arc<ServingHandle>,
        pool: Arc<WorkerPool>,
        cfg: CollectorConfig,
    ) -> BatchCollector {
        let cfg = CollectorConfig {
            window: cfg.window,
            max_batch: cfg.max_batch.max(1),
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: Vec::new(),
                shutdown: false,
            }),
            arrived: Condvar::new(),
            cfg,
            handle,
            pool,
            stats: Counters::new(),
        });
        shared
            .stats
            .window_us
            .store(cfg.window.as_micros() as u64, Ordering::Relaxed);
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("ddc-coalesce".into())
            .spawn(move || collector_loop(&worker))
            .expect("spawn collector thread");
        BatchCollector {
            shared,
            thread: Some(thread),
        }
    }

    /// Enqueues one request: `queries` searched for their `k` nearest
    /// neighbors under `params`, restricted to rows matching `filter`
    /// when one is given. Its queries share the queue (and therefore the
    /// coalescing window and the engine call) with each other *and* with
    /// whatever compatible requests arrive alongside them.
    ///
    /// `done` fires exactly once — on the collector thread — with the
    /// epoch of the engine snapshot the request executed under and one
    /// result per query in submission order. The request is *not*
    /// checked against the engine here: a dimension mismatch (or a
    /// predicate on an engine without payloads) against the engine
    /// installed at execution time surfaces as an `Err` in the callback,
    /// individually, without failing batchmates. An empty request is
    /// answered immediately, on the calling thread.
    ///
    /// Callbacks run on the collector thread and must not block on it
    /// (hand heavy work to another thread).
    pub fn submit(
        &self,
        queries: QueryBatch,
        k: usize,
        params: SearchParams,
        filter: Option<FilterPredicate>,
        done: SearchCallback,
    ) {
        let rows = queries.len();
        let s = &self.shared;
        if rows == 0 {
            return done(s.handle.epoch(), ExecMeta::default(), Ok(Vec::new()));
        }
        s.stats.submitted.fetch_add(rows as u64, Ordering::Relaxed);
        let mut q = s.queue.lock().expect("collector queue poisoned");
        q.jobs.push(Pending {
            queries,
            k,
            params,
            filter,
            enqueued: Instant::now(),
            done,
        });
        drop(q);
        s.arrived.notify_one();
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CollectorStats {
        let s = &self.shared.stats;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CollectorStats {
            submitted: load(&s.submitted),
            batches: load(&s.batches),
            coalesced_batches: load(&s.coalesced_batches),
            max_batch: load(&s.max_batch),
            size_hist: s.size_hist.snapshot(),
            wait_us_hist: s.wait_us_hist.snapshot(),
            window_us: load(&s.window_us),
        }
    }
}

impl Drop for BatchCollector {
    fn drop(&mut self) {
        if let Ok(mut q) = self.shared.queue.lock() {
            q.shutdown = true;
        }
        self.shared.arrived.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn collector_loop(s: &Shared) {
    let mut win = WindowController::new(s.cfg.window);
    let mut q = s.queue.lock().expect("collector queue poisoned");
    loop {
        while q.jobs.is_empty() {
            if q.shutdown {
                return;
            }
            q = s.arrived.wait(q).expect("collector queue poisoned");
        }
        // Coalescing window: measured from the first pending arrival so a
        // steady trickle cannot delay any request beyond one window. On
        // shutdown the wait is skipped — remaining jobs drain immediately.
        let window = win.window();
        if !window.is_zero() {
            let deadline = q.jobs[0].enqueued + window;
            while !q.shutdown && q.rows() < s.cfg.max_batch {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = s
                    .arrived
                    .wait_timeout(q, deadline - now)
                    .expect("collector queue poisoned");
                q = guard;
            }
        }
        let (mut take, mut taken) = (0, 0);
        while take < q.jobs.len() && taken < s.cfg.max_batch {
            taken += q.jobs[take].queries.len();
            take += 1;
        }
        let jobs: Vec<Pending> = q.jobs.drain(..take).collect();
        win.observe(taken, q.jobs.len());
        s.stats
            .window_us
            .store(win.window().as_micros() as u64, Ordering::Relaxed);
        drop(q);
        execute(s, jobs);
        q = s.queue.lock().expect("collector queue poisoned");
    }
}

/// Runs one drain: group the requests that may share an engine call,
/// screen dimensions, execute each group through the engine's batch
/// path, fan results out.
fn execute(s: &Shared, jobs: Vec<Pending>) {
    let snap = s.handle.snapshot();
    let started = Instant::now();
    let waited = |job: &Pending| started.duration_since(job.enqueued);
    // Requests sharing a key may legally share an engine call; the key
    // is plain integers and an exactly-compared predicate, no floats.
    let mut groups: Vec<Vec<Pending>> = Vec::new();
    for job in jobs {
        s.stats.wait_us_hist.record(waited(&job).as_micros() as u64);
        let shares = |head: &Pending| {
            (head.k, head.params, &head.filter) == (job.k, job.params, &job.filter)
        };
        match groups.iter_mut().find(|g| shares(&g[0])) {
            Some(group) => group.push(job),
            None => groups.push(vec![job]),
        }
    }
    let dim = snap.engine.dim();
    for group in groups {
        // Dimension screen: a bad request fails alone instead of
        // poisoning the whole group with the engine's batch-level
        // dimension error.
        let (ok, bad): (Vec<Pending>, Vec<Pending>) =
            group.into_iter().partition(|j| j.queries.dim() == dim);
        for job in bad {
            let meta = ExecMeta {
                queue_wait_nanos: waited(&job).as_nanos() as u64,
                ..ExecMeta::default()
            };
            let actual = job.queries.dim();
            (job.done)(
                snap.epoch,
                meta,
                Err(EngineError::Index(ddc_index::IndexError::Dimension {
                    expected: dim,
                    actual,
                })),
            );
        }
        let Some(first) = ok.first() else {
            continue;
        };
        // A request alone in its group (every drain at concurrency 1)
        // is searched as submitted; company is copied into one batch.
        let merged = (ok.len() > 1).then(|| {
            let rows: Vec<&[f32]> = ok.iter().flat_map(|j| j.queries.iter()).collect();
            QueryBatch::from_rows(dim, &rows).expect("rows screened to the engine's dimension")
        });
        let batch = merged.as_ref().unwrap_or(&first.queries);
        let started = Instant::now();
        // Shards across the pool when that can help; the collector
        // thread participates as the caller, so a saturated pool cannot
        // deadlock the batch.
        let result = Arc::clone(&snap.engine).search_batch_parallel_with(
            &s.pool,
            batch,
            first.k,
            &first.params,
            first.filter.as_ref(),
        );
        let batch_nanos = started.elapsed().as_nanos() as u64;
        let size = batch.len();
        s.stats.batches.fetch_add(1, Ordering::Relaxed);
        if size >= 2 {
            s.stats.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        }
        s.stats.max_batch.fetch_max(size as u64, Ordering::Relaxed);
        s.stats.size_hist.record(size as u64);
        // The error is not `Clone`; fan the message out instead.
        let mut results = result.map(Vec::into_iter).map_err(|e| e.to_string());
        for job in ok {
            let meta = ExecMeta {
                queue_wait_nanos: waited(&job).as_nanos() as u64,
                batch_len: size,
                batch_nanos,
            };
            let mine = match &mut results {
                Ok(all) => Ok(all.by_ref().take(job.queries.len()).collect()),
                Err(msg) => Err(EngineError::Config(msg.clone())),
            };
            (job.done)(snap.epoch, meta, mine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use ddc_vecs::SynthSpec;
    use std::sync::mpsc;

    fn setup(dco: &str) -> (Arc<ServingHandle>, Arc<WorkerPool>, ddc_vecs::Workload) {
        let w = SynthSpec::tiny_test(12, 260, 41).generate();
        let cfg = EngineConfig::from_strs("flat", dco).unwrap();
        let engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
        (
            Arc::new(ServingHandle::new(engine)),
            Arc::new(WorkerPool::new(2)),
            w,
        )
    }

    fn collector(
        handle: &Arc<ServingHandle>,
        pool: &Arc<WorkerPool>,
        window: Duration,
        max_batch: usize,
    ) -> BatchCollector {
        let cfg = CollectorConfig { window, max_batch };
        BatchCollector::new(Arc::clone(handle), Arc::clone(pool), cfg)
    }

    /// A request of one query.
    fn solo(q: &[f32]) -> QueryBatch {
        QueryBatch::from_rows(q.len(), &[q]).unwrap()
    }

    fn fingerprint(r: &SearchResult) -> (Vec<(u32, u32)>, Vec<u64>) {
        (
            r.neighbors
                .iter()
                .map(|n| (n.id, n.dist.to_bits()))
                .collect(),
            vec![
                r.counters.candidates,
                r.counters.pruned,
                r.counters.exact,
                r.counters.dims_scanned,
                r.counters.dims_full,
            ],
        )
    }

    #[test]
    fn coalesces_into_one_batch_bit_identical_to_solo() {
        let (handle, pool, w) = setup("ddcres(init_d=4,delta_d=4,seed=5)");
        // A long window so every submission below lands in one batch
        // deterministically.
        let collector = collector(&handle, &pool, Duration::from_millis(250), 64);
        let params = handle.engine().config().params;
        // Four solo requests, then queries 4 and 5 as one request of two.
        let n = 6;
        let pair = QueryBatch::from_rows(12, &[w.queries.get(4), w.queries.get(5)]).unwrap();
        let mut requests: Vec<_> = (0..4).map(|qi| (qi, solo(w.queries.get(qi)))).collect();
        requests.push((4, pair));
        let (tx, rx) = mpsc::channel();
        for (first, queries) in requests {
            let tx = tx.clone();
            collector.submit(
                queries,
                5,
                params,
                None,
                Box::new(move |epoch, meta, results| {
                    tx.send((first, epoch, meta, results.unwrap())).unwrap();
                }),
            );
        }
        let engine = handle.engine();
        for _ in 0..5 {
            let (first, epoch, meta, results) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(epoch, 0);
            assert_eq!(
                meta.batch_len, n,
                "request {first} must ride the shared batch"
            );
            assert_eq!(results.len(), if first == 4 { 2 } else { 1 });
            for (i, got) in results.iter().enumerate() {
                let qi = first + i;
                let solo = engine.search_with(w.queries.get(qi), 5, &params).unwrap();
                assert_eq!(fingerprint(got), fingerprint(&solo), "query {qi}");
            }
        }
        let stats = collector.stats();
        assert_eq!(stats.submitted, n as u64);
        assert_eq!(stats.batches, 1, "all submissions must share one batch");
        assert_eq!(stats.coalesced_batches, 1);
        assert_eq!(stats.max_batch, n as u64);
        assert_eq!(stats.size_hist.count_for(n as u64), 1);
        assert_eq!(stats.wait_us_hist.count(), 5, "one wait per request");
    }

    #[test]
    fn mixed_k_and_dim_submissions_split_and_fail_individually() {
        let (handle, pool, w) = setup("exact");
        let collector = collector(&handle, &pool, Duration::from_millis(250), 64);
        let params = handle.engine().config().params;
        let (tx, rx) = mpsc::channel();
        for (tag, query, k) in [
            (0u8, w.queries.get(0), 3usize),
            (1, w.queries.get(1), 7),
            (2, &[1.0; 5][..], 3), // wrong dimension
        ] {
            let tx = tx.clone();
            collector.submit(
                solo(query),
                k,
                params,
                None,
                Box::new(move |_, _, result| tx.send((tag, result)).unwrap()),
            );
        }
        let mut ok = 0;
        let mut dim_errors = 0;
        for _ in 0..3 {
            let (tag, result) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            match result {
                Ok(r) => {
                    ok += 1;
                    let k = if tag == 0 { 3 } else { 7 };
                    assert_eq!(r[0].neighbors.len(), k);
                }
                Err(e) => {
                    dim_errors += 1;
                    assert_eq!(tag, 2);
                    assert!(e.to_string().contains("dimension"), "{e}");
                }
            }
        }
        assert_eq!((ok, dim_errors), (2, 1));
        // One drain, two (k-grouped) batches, no coalesced ones.
        let stats = collector.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.coalesced_batches, 0);
    }

    #[test]
    fn drop_drains_pending_submissions() {
        let (handle, pool, w) = setup("exact");
        // would stall without drain-on-drop
        let collector = collector(&handle, &pool, Duration::from_secs(5), 64);
        let params = handle.engine().config().params;
        let (tx, rx) = mpsc::channel();
        for qi in 0..4 {
            let tx = tx.clone();
            collector.submit(
                solo(w.queries.get(qi)),
                2,
                params,
                None,
                Box::new(move |_, _, result| tx.send(result.is_ok()).unwrap()),
            );
        }
        drop(collector);
        for _ in 0..4 {
            assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        }
    }

    #[test]
    fn callbacks_report_the_execution_epoch_across_swaps() {
        let (handle, pool, w) = setup("exact");
        let collector = collector(&handle, &pool, Duration::ZERO, 64);
        let params = handle.engine().config().params;
        let run_one = || {
            let (tx, rx) = mpsc::channel();
            collector.submit(
                solo(w.queries.get(0)),
                3,
                params,
                None,
                Box::new(move |epoch, _, result| tx.send((epoch, result.is_ok())).unwrap()),
            );
            rx.recv_timeout(Duration::from_secs(10)).unwrap()
        };
        assert_eq!(run_one(), (0, true));
        let cfg =
            EngineConfig::from_strs("flat", "adsampling(epsilon0=2.1,delta_d=4,seed=2)").unwrap();
        handle.swap(Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap());
        assert_eq!(run_one(), (1, true));
    }

    #[test]
    fn window_controller_starts_at_the_ceiling() {
        let win = WindowController::new(Duration::from_micros(200));
        assert_eq!(win.window(), Duration::from_micros(200));
    }

    #[test]
    fn window_controller_decays_to_zero_on_idle_solo_drains() {
        let mut win = WindowController::new(Duration::from_micros(200));
        // 200 halves to zero in eight steps; every later idle drain
        // stays there.
        for _ in 0..8 {
            win.observe(1, 0);
        }
        assert_eq!(win.window(), Duration::ZERO);
        win.observe(1, 0);
        assert_eq!(win.window(), Duration::ZERO);
    }

    #[test]
    fn window_controller_recovers_under_load_and_saturates_at_the_ceiling() {
        let base = Duration::from_micros(200);
        let mut win = WindowController::new(base);
        for _ in 0..20 {
            win.observe(1, 0); // idle all the way down
        }
        assert_eq!(win.window(), Duration::ZERO);
        // First loaded drain re-seeds at an eighth of the ceiling, then
        // doubles: 25 → 50 → 100 → 200, never past the ceiling.
        win.observe(4, 0);
        assert_eq!(win.window(), Duration::from_micros(25));
        for _ in 0..10 {
            win.observe(4, 0);
        }
        assert_eq!(win.window(), base);
    }

    #[test]
    fn window_controller_treats_backlog_as_load() {
        let mut win = WindowController::new(Duration::from_micros(200));
        win.observe(1, 0);
        assert_eq!(win.window(), Duration::from_micros(100));
        // A solo take that left jobs queued is load, not idleness.
        win.observe(1, 3);
        assert_eq!(win.window(), Duration::from_micros(200));
    }

    #[test]
    fn window_controller_keeps_zero_ceilings_at_zero() {
        let mut win = WindowController::new(Duration::ZERO);
        win.observe(8, 10);
        assert_eq!(win.window(), Duration::ZERO);
    }

    #[test]
    fn adaptive_collector_publishes_its_window_and_stays_correct() {
        let (handle, pool, w) = setup("exact");
        let base_us = 200_000; // wide, so the gauge moves visibly
        let collector = collector(&handle, &pool, Duration::from_micros(base_us), 64);
        assert_eq!(collector.stats().window_us, base_us);
        let params = handle.engine().config().params;
        let run_one = |qi: usize| {
            let (tx, rx) = mpsc::channel();
            collector.submit(
                solo(w.queries.get(qi)),
                3,
                params,
                None,
                Box::new(move |_, _, result| tx.send(result.unwrap()[0].ids()).unwrap()),
            );
            rx.recv_timeout(Duration::from_secs(10)).unwrap()
        };
        let engine = handle.engine();
        // Sequential solo traffic: each drain takes exactly one job, so
        // the published window halves per request — and answers stay
        // identical to library searches throughout.
        let mut last = base_us;
        for qi in 0..4 {
            let ids = run_one(qi);
            assert_eq!(ids, engine.search(w.queries.get(qi), 3).unwrap().ids());
            let now = collector.stats().window_us;
            assert!(now < last, "window did not shrink: {now} >= {last}");
            last = now;
        }
    }

    #[test]
    fn empty_requests_are_answered_immediately() {
        let (handle, pool, _w) = setup("exact");
        let collector = BatchCollector::new(handle, pool, CollectorConfig::default());
        let (tx, rx) = mpsc::channel();
        collector.submit(
            QueryBatch::from_rows(12, &[]).unwrap(),
            3,
            SearchParams::new(),
            None,
            Box::new(move |epoch, _, results| tx.send((epoch, results.unwrap().len())).unwrap()),
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), (0, 0));
        assert_eq!(collector.stats().submitted, 0);
    }
}

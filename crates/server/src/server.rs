//! The server proper: configuration, shared serving state, and the
//! lifecycle around the nonblocking reactor loop (`crate::reactor`).
//!
//! Connections do not occupy [`WorkerPool`] workers: the reactor thread
//! multiplexes all of them (epoll on Linux, timed polling elsewhere) and
//! the pool runs one job per request — a search is one engine call on
//! the worker that takes it. Idle keep-alive connections therefore cost
//! one registered fd each — the concurrent-client ceiling is
//! [`ServerConfig::max_connections`], not the worker count.

use crate::error::ServerError;
use ddc_engine::{CompactorHandle, Engine, MutableEngine, ServingHandle, WorkerPool};
use ddc_vecs::{SharedRows, VecSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads: each request runs as one job on one of them,
    /// taken from one FIFO queue (never connections — the reactor owns
    /// those).
    pub workers: usize,
    /// Idle allowance per connection: a client stalled this long
    /// mid-request is answered `408`; one idle between requests is
    /// closed silently. Also bounds how long a stalled response flush
    /// may linger.
    pub read_timeout: Duration,
    /// Maximum accepted request-body size.
    pub max_body_bytes: usize,
    /// Maximum simultaneously-open connections; clients over the cap
    /// get a best-effort `503` and are dropped.
    pub max_connections: usize,
    /// Inert: nothing reads it. The benchmark harness still sets it;
    /// ROADMAP item 1's benchmark change deletes that use and this field.
    #[doc(hidden)]
    pub coalesce_max_batch: usize,
    /// `Some(n)` emits one structured JSON access-log line on stderr for
    /// every `n`-th finished request (`1` = every request; `0` counts as
    /// 1); `None` logs nothing.
    pub access_log: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8321".into(),
            workers: 4,
            read_timeout: Duration::from_secs(5),
            max_body_bytes: 32 * 1024 * 1024,
            max_connections: 1024,
            coalesce_max_batch: 64,
            access_log: None,
        }
    }
}

/// Everything the handlers share: the hot-swappable engine slot, the
/// worker pool, and the vector store swaps rebuild from (which may be a zero-copy memory map —
/// rebuilds then stream rows straight off disk).
///
/// `base` is `None` when the server was booted from a snapshot container
/// ([`Server::bind_snapshot`]): the engine's working set lives inside the
/// mapped snapshot, so there are no standalone base vectors — swaps are
/// then limited to other snapshots.
pub(crate) struct ServerState {
    pub(crate) handle: Arc<ServingHandle>,
    pub(crate) pool: WorkerPool,
    pub(crate) base: Option<SharedRows>,
    pub(crate) train: Option<VecSet>,
    /// The write head when the server was booted mutable
    /// ([`Server::bind_mutable`]); `/upsert`, `/delete`, and
    /// `/admin/compact` reject with 400 when absent.
    pub(crate) mutable: Option<Arc<MutableEngine>>,
    /// Keeps the background compactor alive for the server's lifetime;
    /// dropping the state stops and joins it.
    pub(crate) _compactor: Option<CompactorHandle>,
    pub(crate) started: Instant,
    pub(crate) stop: AtomicBool,
    pub(crate) max_body_bytes: usize,
    pub(crate) read_timeout: Duration,
    pub(crate) max_connections: usize,
    /// Live gauge of open connections, published by the reactor.
    pub(crate) open_conns: AtomicUsize,
    /// Shared observability state: request/status ledger, latency and
    /// stage histograms, DCO series, `/metrics` rendering, access logs.
    pub(crate) obs: Arc<crate::metrics::ServerObs>,
}

/// A bound-but-not-yet-serving server.
///
/// [`Server::serve`] blocks the calling thread on the reactor loop (what
/// `ddc-serve` does); [`Server::spawn`] moves the loop to a background
/// thread and returns a [`ServerGuard`] for tests and embedding.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `cfg.addr` and assembles the serving state around `engine`.
    ///
    /// `base` (and optionally `train`) are retained for `/admin/swap`
    /// rebuilds — they must be the vectors `engine` was built over. Pass a
    /// resident [`VecSet`] or any [`SharedRows`]: with a mapped `.fvecs`
    /// file the served dataset stays on disk, and swap rebuilds read rows
    /// through the map as well, so a swap never copies the matrix.
    ///
    /// # Errors
    /// Bind failures.
    pub fn bind(
        cfg: &ServerConfig,
        engine: Engine,
        base: impl Into<SharedRows>,
        train: Option<VecSet>,
    ) -> Result<Server, ServerError> {
        Server::bind_inner(
            cfg,
            Arc::new(ServingHandle::new(engine)),
            Some(base.into()),
            train,
            None,
        )
    }

    /// Boots the server straight from a snapshot container written by
    /// [`ddc_engine::Engine::save_snapshot`]: the engine opens in `O(ms)`
    /// (memory-mapped, nothing rebuilt) and serves its working set
    /// zero-copy out of the container. No base vectors are retained, so
    /// `/admin/swap` accepts only `snapshot` (another container) —
    /// rebuild (`index`/`dco`) requests get a clean 400.
    ///
    /// # Errors
    /// Bind failures; snapshot open/validation failures.
    pub fn bind_snapshot(
        cfg: &ServerConfig,
        snapshot: &std::path::Path,
    ) -> Result<Server, ServerError> {
        let engine = Engine::open_snapshot(snapshot)?;
        Server::bind_inner(cfg, Arc::new(ServingHandle::new(engine)), None, None, None)
    }

    /// Serves a live-mutable engine: searches go through `mutable`'s
    /// [`ServingHandle`] exactly like an immutable boot, and the server
    /// additionally answers `/upsert`, `/delete`, and `/admin/compact`.
    /// A background compactor is spawned with the [`MutableEngine`]'s
    /// configured threshold/interval and runs until shutdown, landing
    /// replacement engines in the shared handle mid-traffic.
    ///
    /// The mutable engine owns its base rows as the rebuild source of
    /// truth, and its compactor already swaps engines underneath the
    /// handle — so `/admin/swap` is disabled on this boot (400).
    ///
    /// # Errors
    /// Bind failures.
    pub fn bind_mutable(
        cfg: &ServerConfig,
        mutable: Arc<MutableEngine>,
    ) -> Result<Server, ServerError> {
        let handle = mutable.handle();
        let compactor = mutable.spawn_compactor();
        Server::bind_inner(cfg, handle, None, None, Some((mutable, compactor)))
    }

    fn bind_inner(
        cfg: &ServerConfig,
        handle: Arc<ServingHandle>,
        base: Option<SharedRows>,
        train: Option<VecSet>,
        mutable: Option<(Arc<MutableEngine>, CompactorHandle)>,
    ) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let (mutable, compactor) = match mutable {
            Some((m, c)) => (Some(m), Some(c)),
            None => (None, None),
        };
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                handle,
                pool: WorkerPool::new(cfg.workers),
                base,
                train,
                mutable,
                _compactor: compactor,
                started: Instant::now(),
                stop: AtomicBool::new(false),
                max_body_bytes: cfg.max_body_bytes,
                read_timeout: cfg.read_timeout,
                max_connections: cfg.max_connections,
                open_conns: AtomicUsize::new(0),
                obs: Arc::new(crate::metrics::ServerObs::new(cfg.access_log)),
            }),
        })
    }

    /// The bound address (resolves the ephemeral port of `addr: ...:0`).
    ///
    /// # Errors
    /// Socket introspection failures.
    pub fn local_addr(&self) -> Result<SocketAddr, ServerError> {
        Ok(self.listener.local_addr()?)
    }

    /// The hot-swap handle of the served engine.
    pub fn handle(&self) -> &ServingHandle {
        &self.state.handle
    }

    /// Runs the reactor loop on the calling thread until shutdown is
    /// requested (via a [`ServerGuard`] from [`Server::spawn`], or by
    /// the process ending).
    ///
    /// # Errors
    /// Fatal poller/listener failures; per-connection errors are
    /// handled inline.
    pub fn serve(self) -> Result<(), ServerError> {
        crate::reactor::run(self.listener, self.state).map_err(ServerError::Io)
    }

    /// Starts the reactor loop on a background thread.
    pub fn spawn(self) -> Result<ServerGuard, ServerError> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let thread = std::thread::Builder::new()
            .name("ddc-server-reactor".into())
            .spawn(move || {
                if let Err(e) = self.serve() {
                    eprintln!("ddc-server: reactor failed: {e}");
                }
            })
            .map_err(ServerError::Io)?;
        Ok(ServerGuard {
            addr,
            state,
            thread: Some(thread),
        })
    }
}

/// Owner of a spawned server: exposes the bound address and the engine
/// handle, and shuts the reactor down on [`ServerGuard::shutdown`] or
/// drop.
pub struct ServerGuard {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerGuard {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hot-swap handle of the served engine (for embedding scenarios:
    /// swap without going through HTTP).
    pub fn handle(&self) -> &ServingHandle {
        &self.state.handle
    }

    /// Stops the reactor, wakes it, and joins it. Open connections drop
    /// with the reactor; handler threads drain when the pool drops with
    /// the last state reference.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.state.stop.store(true, Ordering::Relaxed);
        // The reactor re-checks the flag per wakeup; poke the listener.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

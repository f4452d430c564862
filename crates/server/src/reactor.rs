//! The nonblocking readiness loop: one thread owns the listener and
//! every connection, multiplexed through `epoll` on Linux (raw
//! syscalls through the libc-free shim the mmap in `ddc_vecs::store`
//! uses too, [`ddc_vecs::sys`]) with a timed-tick fallback elsewhere.
//!
//! Why a reactor: the previous accept loop submitted each connection to
//! the [`ddc_engine::WorkerPool`] as a blocking job, so every idle
//! keep-alive connection pinned a worker and concurrent clients were
//! capped at pool size. Here idle connections cost one registered fd
//! and ~100 bytes of state; the pool only ever runs *request handlers*
//! and batch shards, never waits on sockets.
//!
//! ```text
//!        epoll_pwait ──▶ [listener] accept → register Conn
//!             │          [eventfd]  drain completion queue
//!             │          [conn fd]  Conn::on_readable / on_writable
//!             ▼                        │ complete request
//!       idle sweep (408/close)         ▼
//!                          routes::handle ──▶ pool job / BatchCollector
//!                                               │ Response (any thread)
//!                          Completions::push ◀──┘
//!                            (eventfd wakeup → reactor writes it out)
//! ```
//!
//! Handlers finish on other threads, so responses come back through
//! [`Completions`]: a mutex-guarded queue plus a [`Waker`] (an
//! `eventfd` registered in the epoll set; the fallback poller ticks on
//! its own). The reactor drains it after every wakeup, writes each
//! response into its connection, and re-arms interest.

use crate::conn::{Conn, ConnEvent};
use crate::http::{Request, Response};
use crate::routes::{self, Responder};
use crate::server::ServerState;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

// ---------------------------------------------------------------------------
// Raw epoll/eventfd calls (libc-free, through `ddc_vecs::sys`)
// ---------------------------------------------------------------------------

/// Raw `epoll` + `eventfd` calls for the Linux targets this repository
/// supports, through the shared libc-free [`ddc_vecs::sys`] shim.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use ddc_vecs::sys::{check, syscall6};
    use std::io;

    const EPOLL_CLOEXEC: usize = 0x8_0000;
    const EFD_CLOEXEC: usize = 0x8_0000;
    const EFD_NONBLOCK: usize = 0x800;

    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;

    pub(super) const EPOLLIN: u32 = 0x1;
    pub(super) const EPOLLOUT: u32 = 0x4;
    pub(super) const EPOLLERR: u32 = 0x8;
    pub(super) const EPOLLHUP: u32 = 0x10;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
    }

    /// The kernel's `struct epoll_event`: packed on x86_64 (the kernel
    /// ABI packs it there), naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    fn close_fd(fd: i32) {
        // SAFETY: closing an fd this module opened and owns.
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    }

    /// An owned epoll instance.
    pub(super) struct Epoll {
        fd: i32,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: no pointers involved; the kernel validates flags.
            let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            Ok(Epoll { fd: fd as i32 })
        }

        fn ctl(&self, op: usize, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            let mut events = 0u32;
            if read {
                events |= EPOLLIN;
            }
            if write {
                events |= EPOLLOUT;
            }
            let ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it and
            // validates every argument (a bad fd returns EBADF).
            check(unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.fd as usize,
                    op,
                    fd as usize,
                    std::ptr::addr_of!(ev) as usize,
                    0,
                    0,
                )
            })
            .map(|_| ())
        }

        pub fn add(&self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
        }

        pub fn modify(&self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
        }

        pub fn del(&self, fd: i32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
        }

        /// Blocks up to `timeout_ms` for readiness; appends `(token,
        /// readable, writable)` triples to `out`. Error and hangup
        /// conditions surface as readable so handlers observe them via
        /// `read()` (EOF / ECONNRESET).
        pub fn wait(&self, timeout_ms: i32, out: &mut Vec<(u64, bool, bool)>) -> io::Result<()> {
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            let n = loop {
                // SAFETY: the events buffer lives across the call and its
                // capacity is passed alongside; no sigmask (NULL).
                let ret = check(unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        self.fd as usize,
                        events.as_mut_ptr() as usize,
                        events.len(),
                        timeout_ms as usize,
                        0,
                        0,
                    )
                });
                match ret {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            };
            for ev in events.iter().take(n) {
                let ev = *ev; // copy out of the (possibly packed) array
                let bits = ev.events;
                let readable = bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0;
                let writable = bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0;
                out.push((ev.data, readable, writable));
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            close_fd(self.fd);
        }
    }

    /// An owned nonblocking eventfd — the reactor's cross-thread wakeup.
    pub(super) struct EventFd {
        fd: i32,
    }

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            // SAFETY: no pointers involved.
            let fd = check(unsafe {
                syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0)
            })?;
            Ok(EventFd { fd: fd as i32 })
        }

        pub fn raw(&self) -> i32 {
            self.fd
        }

        /// Adds 1 to the counter, waking an epoll waiter. Best-effort:
        /// a full counter (u64::MAX - 1 pending wakeups) cannot happen
        /// at this queue's scale.
        pub fn signal(&self) {
            let one: u64 = 1;
            // SAFETY: writing 8 owned bytes to an fd this struct owns.
            let _ = unsafe {
                syscall6(
                    nr::WRITE,
                    self.fd as usize,
                    std::ptr::addr_of!(one) as usize,
                    8,
                    0,
                    0,
                    0,
                )
            };
        }

        /// Zeroes the counter so the next `signal` edge wakes again.
        pub fn drain(&self) {
            let mut count = 0u64;
            // SAFETY: reading 8 bytes into owned storage from an owned
            // nonblocking fd; EAGAIN when already zero is fine.
            let _ = unsafe {
                syscall6(
                    nr::READ,
                    self.fd as usize,
                    std::ptr::addr_of_mut!(count) as usize,
                    8,
                    0,
                    0,
                    0,
                )
            };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            close_fd(self.fd);
        }
    }
}

/// Stub for platforms without the raw-syscall shim: `Epoll::new` fails,
/// steering [`Poller::new`] to the tick fallback; nothing else is ever
/// called.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::io;

    pub(super) struct Epoll;

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll shim unavailable on this target",
            ))
        }

        pub fn add(&self, _: i32, _: u64, _: bool, _: bool) -> io::Result<()> {
            unreachable!("stub Epoll cannot be constructed")
        }

        pub fn modify(&self, _: i32, _: u64, _: bool, _: bool) -> io::Result<()> {
            unreachable!("stub Epoll cannot be constructed")
        }

        pub fn del(&self, _: i32) -> io::Result<()> {
            unreachable!("stub Epoll cannot be constructed")
        }

        pub fn wait(&self, _: i32, _: &mut Vec<(u64, bool, bool)>) -> io::Result<()> {
            unreachable!("stub Epoll cannot be constructed")
        }
    }

    pub(super) struct EventFd;

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "eventfd shim unavailable on this target",
            ))
        }

        pub fn raw(&self) -> i32 {
            -1
        }

        pub fn signal(&self) {}

        pub fn drain(&self) {}
    }
}

#[cfg(unix)]
fn raw_fd(s: &impl std::os::fd::AsRawFd) -> i32 {
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_: &T) -> i32 {
    -1
}

// ---------------------------------------------------------------------------
// Poller abstraction
// ---------------------------------------------------------------------------

/// How often the fallback poller ticks (it cannot observe readiness, so
/// it reports every registered interest and lets handlers hit
/// `WouldBlock`).
const TICK: Duration = Duration::from_millis(2);

enum Poller {
    Epoll(sys::Epoll),
    /// Portable fallback: a registry of interests, polled on a short
    /// timer. Functionally identical, just O(conns) per tick.
    Tick(HashMap<u64, (bool, bool)>),
}

impl Poller {
    /// Builds the platform poller and its waker. The epoll variant
    /// registers the waker eventfd under [`WAKER_TOKEN`]; the tick
    /// variant needs no waker (its tick bounds completion latency).
    fn new() -> (Poller, Waker) {
        if let Ok(ep) = sys::Epoll::new() {
            if let Ok(wfd) = sys::EventFd::new() {
                let wfd = Arc::new(wfd);
                if ep.add(wfd.raw(), WAKER_TOKEN, true, false).is_ok() {
                    return (Poller::Epoll(ep), Waker(Some(wfd)));
                }
            }
        }
        (Poller::Tick(HashMap::new()), Waker(None))
    }

    fn register(&mut self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
        match self {
            Poller::Epoll(ep) => ep.add(fd, token, read, write),
            Poller::Tick(map) => {
                map.insert(token, (read, write));
                Ok(())
            }
        }
    }

    fn modify(&mut self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
        match self {
            Poller::Epoll(ep) => ep.modify(fd, token, read, write),
            Poller::Tick(map) => {
                map.insert(token, (read, write));
                Ok(())
            }
        }
    }

    fn deregister(&mut self, fd: i32, token: u64) -> io::Result<()> {
        match self {
            Poller::Epoll(ep) => ep.del(fd),
            Poller::Tick(map) => {
                map.remove(&token);
                Ok(())
            }
        }
    }

    fn wait(&mut self, timeout: Duration, out: &mut Vec<(u64, bool, bool)>) -> io::Result<()> {
        match self {
            Poller::Epoll(ep) => {
                let ms = timeout.as_millis().min(i32::MAX as u128).max(1) as i32;
                ep.wait(ms, out)
            }
            Poller::Tick(map) => {
                std::thread::sleep(timeout.min(TICK));
                out.extend(
                    map.iter()
                        .filter(|(_, (r, w))| *r || *w)
                        .map(|(&t, &(r, w))| (t, r, w)),
                );
                Ok(())
            }
        }
    }

    fn drain_waker(&self, waker: &Waker) {
        if let (Poller::Epoll(_), Some(wfd)) = (self, &waker.0) {
            wfd.drain();
        }
    }
}

/// Wakes the reactor out of `epoll_pwait` from another thread. A no-op
/// on the tick poller, whose tick already bounds wakeup latency.
pub(crate) struct Waker(Option<Arc<sys::EventFd>>);

impl Waker {
    fn wake(&self) {
        if let Some(wfd) = &self.0 {
            wfd.signal();
        }
    }
}

/// The cross-thread response queue: handlers finish on pool (or
/// collector) threads and push here; the reactor drains after every
/// wakeup and writes each response into its connection.
pub(crate) struct Completions {
    queue: Mutex<Vec<(u64, Response)>>,
    waker: Waker,
}

impl Completions {
    /// Queues `resp` for the connection registered under `token` and
    /// wakes the reactor. Safe to call from any thread, including after
    /// the connection (or the whole reactor) is gone — the response is
    /// then simply dropped.
    pub(crate) fn push(&self, token: u64, resp: Response) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((token, resp));
        self.waker.wake();
    }

    fn take(&self) -> Vec<(u64, Response)> {
        std::mem::take(
            &mut *self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

// ---------------------------------------------------------------------------
// The reactor proper
// ---------------------------------------------------------------------------

/// Runs the readiness loop until `state.stop` is set. Owns the listener
/// and every connection for its whole life.
pub(crate) fn run(listener: TcpListener, state: Arc<ServerState>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (poller, waker) = Poller::new();
    let mut reactor = Reactor {
        listener,
        state,
        poller,
        completions: Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            waker,
        }),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        events: Vec::new(),
    };
    reactor
        .poller
        .register(raw_fd(&reactor.listener), LISTENER_TOKEN, true, false)?;
    reactor.run_loop()
}

struct Reactor {
    listener: TcpListener,
    state: Arc<ServerState>,
    poller: Poller,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    events: Vec<(u64, bool, bool)>,
}

impl Reactor {
    fn run_loop(&mut self) -> io::Result<()> {
        while !self.state.stop.load(Ordering::Relaxed) {
            // Wake at least often enough for the idle sweep to observe
            // timeouts with useful resolution.
            let sweep_every = (self.state.read_timeout / 4)
                .clamp(Duration::from_millis(10), Duration::from_millis(500));
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            self.poller.wait(sweep_every, &mut events)?;
            for (token, readable, writable) in events.drain(..) {
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.poller.drain_waker(&self.completions.waker),
                    _ => self.drive_conn(token, readable, writable),
                }
            }
            self.events = events;
            self.drain_completions();
            self.sweep_idle();
        }
        Ok(())
    }

    /// Accepts until the listener would block, registering each new
    /// connection (or refusing it over the connection cap).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.state.stop.load(Ordering::Relaxed) {
                        return; // the shutdown poke, not a client
                    }
                    if self.conns.len() >= self.state.max_connections {
                        refuse(stream, &self.state.obs);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns
                        .insert(token, Conn::new(stream, Arc::clone(&self.state.obs)));
                    self.publish_open_conns();
                    if self.sync_interest(token).is_err() {
                        self.close_conn(token);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient accept failures (EMFILE under fd
                    // pressure); the listener itself stays valid.
                    eprintln!("ddc-server: accept failed: {e}");
                    return;
                }
            }
        }
    }

    /// Applies one readiness edge to a connection.
    fn drive_conn(&mut self, token: u64, readable: bool, writable: bool) {
        // Write first: a drained response re-enters framing and may
        // surface the next pipelined request before the read edge.
        if writable {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let ev = conn.on_writable(self.state.max_body_bytes);
            if !self.apply(token, ev) {
                return;
            }
        }
        if readable {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let ev = conn.on_readable(self.state.max_body_bytes);
            if !self.apply(token, ev) {
                return;
            }
        }
        if self.sync_interest(token).is_err() {
            self.close_conn(token);
        }
    }

    /// Handles a [`ConnEvent`]; false when the connection was closed.
    fn apply(&mut self, token: u64, ev: ConnEvent) -> bool {
        match ev {
            ConnEvent::Idle => true,
            ConnEvent::Request(req, framing_nanos) => {
                self.dispatch(token, req, framing_nanos);
                true
            }
            ConnEvent::Closed => {
                self.close_conn(token);
                false
            }
        }
    }

    /// Hands a framed request to the routing layer. The responder
    /// captures only the completion queue, the token, and the
    /// observability handle, so handlers can outlive the connection
    /// (the response is then dropped — but still counted: this wrapper
    /// is the exactly-once accounting point for every request that
    /// framed successfully, whatever its handler or connection does).
    fn dispatch(&mut self, token: u64, req: Request, framing_nanos: u64) {
        let completions = Arc::clone(&self.completions);
        let obs = Arc::clone(&self.state.obs);
        let endpoint = crate::metrics::ServerObs::endpoint_index(&req.path);
        let accepted = Instant::now();
        let respond: Responder = Box::new(move |resp| {
            obs.record_request(endpoint, resp.status, accepted.elapsed().as_nanos() as u64);
            completions.push(token, resp);
        });
        routes::handle(&self.state, req, framing_nanos, respond);
    }

    /// Writes queued responses into their connections.
    fn drain_completions(&mut self) {
        for (token, resp) in self.completions.take() {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // connection died while its handler ran
            };
            if !conn.is_busy() {
                continue;
            }
            let close = self.state.stop.load(Ordering::Relaxed);
            conn.enqueue_response(&resp, close);
            // Optimistic flush: most responses fit the socket buffer,
            // skipping a poller round-trip.
            let ev = conn.on_writable(self.state.max_body_bytes);
            if self.apply(token, ev) && self.sync_interest(token).is_err() {
                self.close_conn(token);
            }
        }
    }

    /// Enforces the read timeout: idle connections close silently (the
    /// `HttpError::Io` analogue), stalled mid-request clients get a 408,
    /// and draining connections whose flush itself stalls are dropped.
    /// `Busy` connections are exempt — the engine owes them a response.
    fn sweep_idle(&mut self) {
        let timeout = self.state.read_timeout;
        let now = Instant::now();
        let mut silent = Vec::new();
        let mut stalled = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.is_busy() || now.duration_since(conn.last_activity) <= timeout {
                continue;
            }
            if !conn.is_draining() && conn.has_partial_input() {
                stalled.push(token);
            } else {
                silent.push(token);
            }
        }
        for token in silent {
            self.close_conn(token);
        }
        for token in stalled {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.enqueue_error(408, "request timed out waiting for the rest of the request");
            // Draining resets the activity clock: the client gets one
            // more timeout period to collect the 408 before the sweep's
            // draining branch drops the connection.
            let ev = conn.on_writable(self.state.max_body_bytes);
            if self.apply(token, ev) && self.sync_interest(token).is_err() {
                self.close_conn(token);
            }
        }
    }

    /// Reconciles a connection's desired interest with the poller,
    /// deregistering entirely at `(false, false)` so a hung-up peer
    /// cannot spin a level-triggered poller while the connection waits.
    fn sync_interest(&mut self, token: u64) -> io::Result<()> {
        let Some(conn) = self.conns.get(&token) else {
            return Ok(());
        };
        let (read, write) = conn.interest();
        let want = (read || write).then_some((read, write));
        if conn.registered == want {
            return Ok(());
        }
        let fd = raw_fd(&conn.stream);
        let registered = conn.registered;
        match (registered, want) {
            (None, Some((r, w))) => self.poller.register(fd, token, r, w)?,
            (Some(_), Some((r, w))) => self.poller.modify(fd, token, r, w)?,
            (Some(_), None) => self.poller.deregister(fd, token)?,
            (None, None) => {}
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.registered = want;
        }
        Ok(())
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.registered.is_some() {
                let _ = self.poller.deregister(raw_fd(&conn.stream), token);
            }
        }
        self.publish_open_conns();
    }

    fn publish_open_conns(&self) {
        self.state
            .open_conns
            .store(self.conns.len(), Ordering::Relaxed);
    }
}

/// Best-effort 503 for a connection over the cap, then drop it. Runs on
/// a briefly-blocking socket so the refusal usually reaches the client.
/// The refusal is booked on the `none` endpoint before the write is
/// attempted — a refused client counts whether or not it saw the 503.
fn refuse(stream: TcpStream, obs: &crate::metrics::ServerObs) {
    obs.record_request(crate::metrics::EP_NONE, 503, 0);
    let mut wire = Vec::new();
    let _ = Response::error(503, "connection limit reached; retry or raise --max-conns")
        .write_to(&mut wire, true);
    let mut stream = stream;
    stream.set_nonblocking(false).ok();
    stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .ok();
    let _ = stream.write_all(&wire);
}

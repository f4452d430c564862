//! Per-connection state machine for the nonblocking reactor.
//!
//! Each accepted socket becomes a [`Conn`]: a nonblocking `TcpStream`
//! plus a read buffer (bytes accumulated until
//! [`crate::http::parse_request`] finds a complete request), a write
//! buffer (serialized responses draining toward the socket), and the
//! framing state. The reactor drives it edge by edge:
//!
//! ```text
//!            readable                    complete request
//!  Reading ───────────▶ rbuf grows ─────────────────────▶ Busy
//!     ▲                     │ framing error                 │ response
//!     │                     ▼                               ▼ enqueued
//!     │                 Draining (error queued,         wbuf drains
//!     │                  input ignored, close           (writable edges)
//!     │                  after flush)                       │
//!     └─────────── flushed; parse pipelined leftovers ◀────┘
//! ```
//!
//! One request is in flight per connection at a time: while `Busy`, the
//! connection accepts more bytes only up to a readahead cap (pipelined
//! requests wait in `rbuf`), which backpressures request floods without
//! letting a half-closed peer spin the poller. All methods are
//! non-blocking — they do bounded work against the socket and return a
//! [`ConnEvent`] for the reactor to act on.

use crate::http::{parse_request, HttpError, Parsed, Request, Response};
use crate::metrics::{ServerObs, EP_NONE};
use ddc_obs::Stage;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Bytes a `Busy` connection may accumulate beyond the in-flight request
/// (pipelined followers) before reads are parked until the response
/// flushes.
const READAHEAD_CAP: usize = 256 * 1024;

/// Framing state of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Accumulating bytes toward the next request.
    Reading,
    /// One request dispatched; waiting for its response.
    Busy,
    /// A framing/timeout error response is queued; input is ignored and
    /// the connection closes once the write buffer drains.
    Draining,
}

/// What the reactor should do after driving a connection.
#[derive(Debug)]
pub(crate) enum ConnEvent {
    /// Nothing actionable; wait for the next readiness edge.
    Idle,
    /// A complete request was framed (the connection is now `Busy`),
    /// with the nanos its framing took — the first half of the `parse`
    /// stage, which the routing layer books (0 when observability is
    /// off).
    Request(Request, u64),
    /// The connection is finished; deregister and drop it.
    Closed,
}

pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    state: State,
    /// Peer sent EOF (half-close); no more bytes will arrive.
    eof_seen: bool,
    /// Close once the write buffer drains (client asked, error, EOF).
    close_after_flush: bool,
    /// Last moment bytes moved on this socket (or a response was
    /// queued); the reactor's idle sweep measures from here.
    pub(crate) last_activity: Instant,
    /// The `(read, write)` interest currently registered with the
    /// poller; `None` when deregistered. Owned by the reactor.
    pub(crate) registered: Option<(bool, bool)>,
    /// Shared observability: framing errors are booked here
    /// (exactly once, on the `none` endpoint), and the write stage
    /// timer records through it.
    obs: Arc<ServerObs>,
    /// When the oldest still-unflushed response was enqueued; drained
    /// into the `write` stage histogram once `wbuf` empties.
    write_started: Option<Instant>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, obs: Arc<ServerObs>) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            state: State::Reading,
            eof_seen: false,
            close_after_flush: false,
            last_activity: Instant::now(),
            registered: None,
            obs,
            write_started: None,
        }
    }

    /// The readiness this connection currently needs from the poller.
    pub(crate) fn interest(&self) -> (bool, bool) {
        let write = self.wpos < self.wbuf.len();
        let read = !self.eof_seen
            && self.state != State::Draining
            && (self.state == State::Reading || self.rbuf.len() < READAHEAD_CAP);
        (read, write)
    }

    /// True while a dispatched request awaits its response.
    pub(crate) fn is_busy(&self) -> bool {
        self.state == State::Busy
    }

    /// True when the read buffer holds a request prefix (a stalled
    /// client mid-request — the 408 case, not the silent-close case).
    pub(crate) fn has_partial_input(&self) -> bool {
        !self.rbuf.is_empty()
    }

    /// True when an error response is already queued and the connection
    /// is only waiting for its write buffer to drain.
    pub(crate) fn is_draining(&self) -> bool {
        self.state == State::Draining
    }

    /// Drains the socket into the read buffer and tries to frame a
    /// request. Called on read-readiness edges.
    pub(crate) fn on_readable(&mut self, max_body_bytes: usize) -> ConnEvent {
        let mut chunk = [0u8; 8 * 1024];
        while !self.eof_seen {
            if self.state != State::Reading && self.rbuf.len() >= READAHEAD_CAP {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => self.eof_seen = true,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ConnEvent::Closed,
            }
        }
        self.advance(max_body_bytes)
    }

    /// Flushes as much of the write buffer as the socket accepts. When a
    /// response finishes flushing, either closes (if requested) or
    /// resumes framing the pipelined leftovers.
    pub(crate) fn on_writable(&mut self, max_body_bytes: usize) -> ConnEvent {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return ConnEvent::Closed,
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return ConnEvent::Idle,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ConnEvent::Closed,
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        if let Some(t) = self.write_started.take() {
            self.obs
                .stages()
                .record(Stage::Write, t.elapsed().as_nanos() as u64);
        }
        if self.close_after_flush {
            return ConnEvent::Closed;
        }
        self.advance(max_body_bytes)
    }

    /// Appends the response for the in-flight request and returns the
    /// connection to framing (the reactor follows up with a write
    /// attempt). `close` marks the connection for close-after-flush.
    pub(crate) fn enqueue_response(&mut self, resp: &Response, close: bool) {
        debug_assert!(self.state == State::Busy);
        if close {
            self.close_after_flush = true;
        }
        resp.write_to(&mut self.wbuf, self.close_after_flush)
            .expect("writing to a Vec cannot fail");
        self.mark_write_started();
        self.state = State::Reading;
        self.last_activity = Instant::now();
    }

    /// Queues an error response and puts the connection into `Draining`:
    /// remaining input is ignored and the socket closes once the
    /// response flushes. This is the accounting point for requests that
    /// died before a path was parsed (framing 400/413, timeout 408) —
    /// entering `Draining` guarantees `advance` never errors this
    /// connection again, so the status is booked exactly once.
    pub(crate) fn enqueue_error(&mut self, status: u16, msg: &str) {
        debug_assert!(self.state != State::Draining);
        self.obs.record_request(
            EP_NONE,
            status,
            self.last_activity.elapsed().as_nanos() as u64,
        );
        self.close_after_flush = true;
        self.state = State::Draining;
        Response::error(status, msg)
            .write_to(&mut self.wbuf, true)
            .expect("writing to a Vec cannot fail");
        self.mark_write_started();
        self.last_activity = Instant::now();
    }

    /// Starts the `write` stage clock unless an earlier response is
    /// still flushing (the span then covers both until the buffer
    /// drains).
    fn mark_write_started(&mut self) {
        if ddc_obs::enabled() && self.write_started.is_none() {
            self.write_started = Some(Instant::now());
        }
    }

    /// Tries to frame the next request out of the read buffer. Only
    /// meaningful in `Reading`; `Busy`/`Draining` connections wait.
    fn advance(&mut self, max_body_bytes: usize) -> ConnEvent {
        if self.state != State::Reading {
            if self.state == State::Draining && self.eof_seen && self.wbuf_drained() {
                // Nothing left to send the error to.
                return ConnEvent::Closed;
            }
            return ConnEvent::Idle;
        }
        let parse_timing = ddc_obs::enabled().then(Instant::now);
        match parse_request(&self.rbuf, max_body_bytes) {
            Ok(Parsed::Complete(req, consumed)) => {
                let framing_nanos = parse_timing.map_or(0, |t| t.elapsed().as_nanos() as u64);
                self.rbuf.drain(..consumed);
                self.state = State::Busy;
                if req.wants_close() {
                    self.close_after_flush = true;
                }
                self.last_activity = Instant::now();
                ConnEvent::Request(req, framing_nanos)
            }
            Ok(Parsed::Partial) => {
                if self.eof_seen {
                    if self.rbuf.is_empty() {
                        // Clean end of a keep-alive connection; flush any
                        // remaining response bytes first.
                        if self.wbuf_drained() {
                            return ConnEvent::Closed;
                        }
                        self.close_after_flush = true;
                    } else {
                        // The peer hung up mid-request: answer 400
                        // best-effort (mirrors the blocking reader's
                        // `eof inside headers`).
                        self.enqueue_error(400, "malformed request: eof mid-request");
                    }
                }
                ConnEvent::Idle
            }
            Err(e) => {
                let status = match e {
                    HttpError::TooLarge(_) => 413,
                    _ => 400,
                };
                self.enqueue_error(status, &e.to_string());
                ConnEvent::Idle
            }
        }
    }

    fn wbuf_drained(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }
}

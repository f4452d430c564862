//! Per-connection state machine for the nonblocking reactor.
//!
//! Each accepted socket becomes a [`Conn`]: a nonblocking `TcpStream`
//! plus a read buffer (bytes accumulated until
//! [`crate::http::parse_head`] frames a head — parsed once, then
//! remembered — and its declared body has arrived behind it), a write
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

use crate::http::{parse_head, Head, HttpError, Request, Response};
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

/// Bytes read before a head is looked for (a longer head takes another
/// gulp); once framed, its body's room is reserved in one piece.
const HEAD_GULP: usize = 16 * 1024;

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
    /// Unframed input. Once `head` is framed its bytes are dropped from
    /// here, so this holds the body (and any pipelined followers) from
    /// offset 0 and can be handed over as the request body, uncopied.
    rbuf: Vec<u8>,
    /// The head of the request whose body is still arriving, with the
    /// framing nanos spent on it on earlier edges.
    head: Option<(Head, u64)>,
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
            head: None,
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
        !self.rbuf.is_empty() || self.head.is_some()
    }

    /// True when an error response is already queued and the connection
    /// is only waiting for its write buffer to drain.
    pub(crate) fn is_draining(&self) -> bool {
        self.state == State::Draining
    }

    /// Drains the socket into the read buffer — straight into its spare
    /// capacity — and tries to frame a request. Called on read-readiness
    /// edges.
    pub(crate) fn on_readable(&mut self, max_body_bytes: usize) -> ConnEvent {
        while !self.eof_seen {
            // At most the rest of the declared body plus the readahead
            // cap, however much the peer sends.
            let room = match (self.state, &self.head) {
                (State::Reading, None) => HEAD_GULP,
                (_, head) => {
                    let body_len = head.as_ref().map_or(0, |(head, _)| head.body_len);
                    let cap = body_len.saturating_add(READAHEAD_CAP);
                    cap.saturating_sub(self.rbuf.len())
                }
            };
            // A framed head reserved its whole body already: topping the
            // buffer up here would double it whenever an edge found less
            // than a gulp of that room left — a copy paid or not by timing.
            if self.head.is_none() {
                self.rbuf.reserve(room.min(HEAD_GULP));
            }
            let had = self.rbuf.len();
            let read = (&self.stream).take(room as u64).read_to_end(&mut self.rbuf);
            if self.rbuf.len() > had {
                self.last_activity = Instant::now();
            }
            match read {
                Ok(n) if n < room => self.eof_seen = true,
                // The gulp (or the readahead cap) is full: frame what is
                // here before reading on.
                Ok(_) => match self.advance(max_body_bytes) {
                    ConnEvent::Idle if self.state == State::Reading => {}
                    ev => return ev,
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
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
        self.write_started.get_or_insert_with(Instant::now);
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
        let started = Instant::now();
        let elapsed = || started.elapsed().as_nanos() as u64;
        if self.head.is_none() {
            match parse_head(&self.rbuf, max_body_bytes) {
                Ok(Some(head)) => {
                    self.rbuf.drain(..head.len);
                    self.rbuf
                        .reserve(head.body_len.saturating_sub(self.rbuf.len()));
                    self.head = Some((head, 0));
                }
                Ok(None) => {}
                Err(e) => {
                    let status = match e {
                        HttpError::TooLarge(_) => 413,
                        _ => 400,
                    };
                    self.enqueue_error(status, &e.to_string());
                    return ConnEvent::Idle;
                }
            }
        }
        match self.head.take() {
            Some((head, earlier_nanos)) if self.rbuf.len() >= head.body_len => {
                let body = if self.rbuf.len() == head.body_len {
                    std::mem::take(&mut self.rbuf)
                } else {
                    self.rbuf.drain(..head.body_len).collect()
                };
                let req = Request { body, ..head.req };
                self.state = State::Busy;
                if req.wants_close() {
                    self.close_after_flush = true;
                }
                self.last_activity = Instant::now();
                ConnEvent::Request(req, earlier_nanos + elapsed())
            }
            waiting => {
                self.head = waiting.map(|(head, nanos)| (head, nanos + elapsed()));
                if self.eof_seen {
                    if self.rbuf.is_empty() && self.head.is_none() {
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
        }
    }

    fn wbuf_drained(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::net::TcpListener;

    /// A client socket and the `Conn` serving its other end.
    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        (client, Conn::new(served, Arc::new(ServerObs::new(None))))
    }

    /// Writes `bytes` and returns once all of them wait on the served
    /// side, so the next `on_readable` sees exactly this arrival.
    fn send(client: &mut TcpStream, conn: &Conn, bytes: &[u8]) {
        client.write_all(bytes).unwrap();
        let mut seen = [0u8; 1024];
        while !bytes.is_empty() && !matches!(conn.stream.peek(&mut seen), Ok(n) if n >= bytes.len())
        {
            std::thread::yield_now();
        }
    }

    const POST: &[u8] = b"POST /search HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"k\": 3}\n";
    const GET: &[u8] = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";

    /// A POST with a body and a pipelined GET behind it, in one write
    /// and cut in two at every offset: nothing is framed before the whole
    /// body is there, the body is exactly its Content-Length, and the
    /// follower is framed once the first response has flushed.
    #[test]
    fn body_stops_at_content_length_with_a_pipelined_follower() {
        let raw = [POST, GET].concat();
        for cut in 0..=raw.len() {
            let (mut client, mut conn) = pair();
            send(&mut client, &conn, &raw[..cut]);
            let mut sent = cut;
            let mut ev = conn.on_readable(1024);
            if cut < POST.len() {
                assert!(matches!(ev, ConnEvent::Idle), "cut {cut}: {ev:?}");
                assert!(!conn.is_busy(), "cut {cut}");
                assert_eq!(conn.has_partial_input(), cut > 0, "cut {cut}");
                send(&mut client, &conn, &raw[cut..]);
                sent = raw.len();
                ev = conn.on_readable(1024);
            }
            let ConnEvent::Request(first, _) = ev else {
                panic!("cut {cut}: no request framed: {ev:?}");
            };
            assert_eq!(
                (first.method.as_str(), first.path.as_str()),
                ("POST", "/search")
            );
            assert_eq!(first.body, b"{\"k\": 3}\n", "cut {cut}");
            assert!(conn.is_busy() && !first.wants_close());

            // The rest of the follower arrives while the first request is
            // in flight: parked, not framed.
            send(&mut client, &conn, &raw[sent..]);
            let ev = conn.on_readable(1024);
            assert!(matches!(ev, ConnEvent::Idle), "cut {cut}: {ev:?}");

            conn.enqueue_response(&Response::ok(Json::Null), false);
            let ConnEvent::Request(second, _) = conn.on_writable(1024) else {
                panic!("cut {cut}: follower not framed after the flush");
            };
            assert_eq!(
                (second.method.as_str(), second.path.as_str()),
                ("GET", "/healthz")
            );
            assert!(second.body.is_empty() && second.wants_close(), "cut {cut}");
            conn.enqueue_response(&Response::ok(Json::Null), false);
            assert!(matches!(conn.on_writable(1024), ConnEvent::Closed));
            drop(conn);
            let mut answers = String::new();
            client.read_to_string(&mut answers).unwrap();
            assert_eq!(answers.matches("HTTP/1.1 200 OK").count(), 2, "cut {cut}");
            assert!(
                answers.ends_with("Connection: close\r\n\r\nnull"),
                "cut {cut}"
            );
        }
    }

    /// A body arriving over many edges lands in the room reserved when
    /// its head framed: no edge regrows the buffer, however little of
    /// that room is left.
    #[test]
    fn a_body_in_pieces_fills_the_room_reserved_at_framing() {
        const BODY_LEN: usize = 40_000;
        let (mut client, mut conn) = pair();
        let head = format!("POST /upsert HTTP/1.1\r\nContent-Length: {BODY_LEN}\r\n\r\n");
        send(&mut client, &conn, head.as_bytes());
        let piece = [b'b'; 1000];
        for _ in 0..BODY_LEN / piece.len() {
            assert!(matches!(conn.on_readable(1 << 20), ConnEvent::Idle));
            assert_eq!(conn.rbuf.capacity(), BODY_LEN);
            send(&mut client, &conn, &piece);
        }
        let ConnEvent::Request(req, _) = conn.on_readable(1 << 20) else {
            panic!("the whole body is here");
        };
        assert_eq!((req.body.len(), req.body.capacity()), (BODY_LEN, BODY_LEN));
    }

    /// A body longer than one gulp, sent by a peer that keeps sending
    /// past it: the body arrives whole and the buffer stops at the
    /// readahead cap behind it.
    #[test]
    fn an_oversending_peer_is_read_up_to_the_readahead_cap() {
        const BODY_LEN: usize = 100_000;
        let (mut client, mut conn) = pair();
        let writer = std::thread::spawn(move || {
            let head = format!("POST /upsert HTTP/1.1\r\nContent-Length: {BODY_LEN}\r\n\r\n");
            // The peer may be gone before all of this is written.
            let _ = client
                .write_all(head.as_bytes())
                .and_then(|()| client.write_all(&vec![b'b'; BODY_LEN]))
                .and_then(|()| client.write_all(&vec![b'x'; 8 * READAHEAD_CAP]));
        });
        let req = loop {
            match conn.on_readable(1 << 20) {
                ConnEvent::Request(req, _) => break req,
                ConnEvent::Idle => std::thread::yield_now(),
                ConnEvent::Closed => panic!("closed mid-request"),
            }
        };
        assert!(req.body.len() == BODY_LEN && req.body.iter().all(|&b| b == b'b'));
        for _ in 0..100 {
            assert!(matches!(conn.on_readable(1 << 20), ConnEvent::Idle));
            assert!(conn.rbuf.len() <= READAHEAD_CAP);
            assert!(conn.rbuf.iter().all(|&b| b == b'x'));
            std::thread::yield_now();
        }
        drop(conn);
        writer.join().unwrap();
    }
}

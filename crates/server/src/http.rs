//! Hand-rolled HTTP/1.1 framing: request parsing and response writing
//! over any `Read`/`Write` pair (the server feeds it `TcpStream`s; tests
//! feed it byte buffers).
//!
//! Scope is deliberately narrow — exactly what the serving endpoints
//! need: request line + headers + `Content-Length` body, keep-alive by
//! default (HTTP/1.1 semantics), `Connection: close` honored, and hard
//! limits on header and body sizes since the parser faces network input.
//! Chunked transfer encoding is rejected rather than implemented.

use crate::json::Json;
use std::io::{BufRead, Read, Write};

/// Maximum bytes for the request line and for each header line.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Maximum number of headers.
const MAX_HEADERS: usize = 64;

/// A parsed request: method, path (query string stripped), lower-cased
/// header names, raw body bytes.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component, without the query string.
    pub path: String,
    /// `(lower-case name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body (empty when there was no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    ///
    /// `Connection` is a comma-separated option list — `keep-alive,
    /// close` is legal and means close — and may appear on several
    /// header lines, so every token of every `Connection` header is
    /// trimmed and matched case-insensitively.
    pub fn wants_close(&self) -> bool {
        self.headers
            .iter()
            .filter(|(k, _)| k == "connection")
            .flat_map(|(_, v)| v.split(','))
            .any(|token| token.trim().eq_ignore_ascii_case("close"))
    }

    /// The body parsed as JSON.
    ///
    /// # Errors
    /// Non-UTF-8 or malformed JSON, as a human-readable message.
    pub fn json_body(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        Json::parse(text).map_err(|e| e.to_string())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The request violates the framing this server speaks; the
    /// connection should answer 400 and close.
    Malformed(String),
    /// Declared body or header sizes exceed the configured limits (413).
    TooLarge(String),
    /// The socket failed or timed out; close without answering.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads one request from `r`.
///
/// Returns `Ok(None)` on a clean end-of-stream before any request byte —
/// the normal end of a keep-alive connection.
///
/// # Errors
/// [`HttpError::Malformed`] / [`HttpError::TooLarge`] for protocol
/// violations (answer 400/413 and close), [`HttpError::Io`] for socket
/// failures and read timeouts (close silently).
pub fn read_request(
    r: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line(r)? else {
        return Ok(None);
    };
    let (method, path) = parse_request_line(&line)?;
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(r)? else {
            return Err(HttpError::Malformed("eof inside headers".into()));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers".into()));
        }
        headers.push(parse_header_line(&line)?);
    }

    let req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    let len = content_length(&req, max_body_bytes)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|_| HttpError::Malformed("body shorter than Content-Length".into()))?;
    Ok(Some(Request { body, ..req }))
}

/// A request head framed off the front of a buffer by [`parse_head`].
#[derive(Debug)]
pub struct Head {
    /// The request, its body still empty.
    pub req: Request,
    /// Buffer bytes the head occupies; the body starts right after.
    pub len: usize,
    /// The declared `Content-Length` (0 without one), within the limit.
    pub body_len: usize,
}

/// Incremental variant of [`read_request`] for nonblocking connections:
/// parses the request line and headers out of the front of `buf` without
/// consuming it; `None` while the buffer holds only a prefix of them
/// (read more bytes and retry). The caller waits for `body_len` more
/// bytes behind the head — once framed, a head is not parsed again.
///
/// Framing semantics are shared with [`read_request`] (same helpers
/// parse the request line, headers, and `Content-Length`), so the two
/// entry points accept and reject exactly the same byte streams.
/// Protocol violations surface as soon as they are visible in the
/// prefix — an over-long line or an over-limit declared body fails
/// without waiting for the rest of the request.
///
/// # Errors
/// Same as [`read_request`], minus [`HttpError::Io`] (no socket here).
pub fn parse_head(buf: &[u8], max_body_bytes: usize) -> Result<Option<Head>, HttpError> {
    let Some((line, mut pos)) = take_line(buf, 0)? else {
        return Ok(None);
    };
    let (method, path) = parse_request_line(&line)?;
    let mut headers = Vec::new();
    loop {
        let Some((line, next)) = take_line(buf, pos)? else {
            return Ok(None);
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers".into()));
        }
        headers.push(parse_header_line(&line)?);
    }
    let req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    let body_len = content_length(&req, max_body_bytes)?;
    Ok(Some(Head {
        req,
        len: pos,
        body_len,
    }))
}

/// Validates the request line into `(method, path)`.
fn parse_request_line(line: &str) -> Result<(String, String), HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed("bad request line".into()));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("bad request line".into()));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    if !path.starts_with('/') {
        return Err(HttpError::Malformed(
            "target must be an absolute path".into(),
        ));
    }
    Ok((method.to_string(), path))
}

/// Splits one header line into `(lower-case name, value)`.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::Malformed(format!("bad header line `{line}`")));
    };
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// The declared body length of a fully-parsed head, validated against
/// the framing rules and the configured limit.
fn content_length(req: &Request, max_body_bytes: usize) -> Result<usize, HttpError> {
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported; send Content-Length".into(),
        ));
    }
    // Reject duplicate Content-Length outright (even agreeing ones): an
    // intermediary picking the other copy is the classic
    // request-smuggling desync (RFC 9112 §6.3).
    if req
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .count()
        > 1
    {
        return Err(HttpError::Malformed("duplicate Content-Length".into()));
    }
    let len = match req.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("bad Content-Length".into()))?,
        None => 0,
    };
    if len > max_body_bytes {
        return Err(HttpError::TooLarge(format!(
            "body of {len} bytes exceeds the {max_body_bytes}-byte limit"
        )));
    }
    Ok(len)
}

/// The next `\n`-terminated line of `buf` starting at `start`, with the
/// terminator (and an optional `\r`) stripped; `None` when the buffer
/// ends before the terminator. Mirrors [`read_line`]'s limits: a line
/// whose content exceeds [`MAX_LINE_BYTES`] fails even unterminated.
fn take_line(buf: &[u8], start: usize) -> Result<Option<(String, usize)>, HttpError> {
    let rest = &buf[start..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(nl) if nl > MAX_LINE_BYTES => Err(HttpError::TooLarge("header line too long".into())),
        Some(nl) => {
            let mut line = &rest[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            let line = std::str::from_utf8(line)
                .map_err(|_| HttpError::Malformed("header bytes are not UTF-8".into()))?;
            Ok(Some((line.to_string(), start + nl + 1)))
        }
        None if rest.len() > MAX_LINE_BYTES => {
            Err(HttpError::TooLarge("header line too long".into()))
        }
        None => Ok(None),
    }
}

/// One CRLF-terminated line, without the terminator. `None` on immediate
/// EOF.
fn read_line(r: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let mut limited = r.take(MAX_LINE_BYTES as u64 + 1);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return if buf.len() > MAX_LINE_BYTES {
            Err(HttpError::TooLarge("header line too long".into()))
        } else {
            Err(HttpError::Malformed("eof mid-line".into()))
        };
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::Malformed("header bytes are not UTF-8".into()))
}

/// An outgoing response: status code, content type, and body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (`application/json` for every JSON
    /// constructor; `/metrics` uses the Prometheus text type).
    pub content_type: &'static str,
    /// Serialized body.
    pub body: String,
}

impl Response {
    /// A response with the given status and JSON body.
    pub fn json(status: u16, body: Json) -> Response {
        Response::json_text(status, body.dump())
    }

    /// A response whose JSON body is already serialized.
    pub fn json_text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A plain-text response (the Prometheus exposition content type,
    /// since `/metrics` is the one non-JSON endpoint).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body,
        }
    }

    /// `200 OK` with a JSON body.
    pub fn ok(body: Json) -> Response {
        Response::json(200, body)
    }

    /// An error response: `{"error": msg}` with the given status.
    pub fn error(status: u16, msg: &str) -> Response {
        Response::json(status, Json::obj([("error", Json::from(msg))]))
    }

    /// Writes status line, headers, and body. `close` controls the
    /// `Connection` header.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        )?;
        w.write_all(self.body.as_bytes())
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes), 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /search?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 9\r\n\r\n{\"k\": 3}\n";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/search");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert_eq!(req.body, b"{\"k\": 3}\n");
        assert!(!req.wants_close());
        assert_eq!(
            req.json_body().unwrap().get("k").and_then(Json::as_usize),
            Some(3)
        );
    }

    #[test]
    fn keep_alive_reads_consecutive_requests() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        let first = read_request(&mut r, 1024).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(!first.wants_close());
        let second = read_request(&mut r, 1024).unwrap().unwrap();
        assert_eq!(second.path, "/stats");
        assert!(second.wants_close());
        assert!(read_request(&mut r, 1024).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn rejects_bad_framing() {
        assert!(matches!(
            parse(b"GARBAGE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET x HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: zzz\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Duplicate Content-Length is a request-smuggling vector — even
        // when both copies agree.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 0\r\n\r\nab"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn enforces_size_limits() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert!(matches!(
            parse(long.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn wants_close_tokenizes_connection_lists() {
        let req = |v: &str| {
            parse(format!("GET / HTTP/1.1\r\nConnection: {v}\r\n\r\n").as_bytes())
                .unwrap()
                .unwrap()
        };
        assert!(req("close").wants_close());
        assert!(req("CLOSE").wants_close());
        // The regression: a legal comma-separated option list containing
        // `close` used to be ignored entirely.
        assert!(req("keep-alive, close").wants_close());
        assert!(req("Keep-Alive,Close").wants_close());
        assert!(req("close, TE").wants_close());
        assert!(!req("keep-alive").wants_close());
        assert!(!req("close-notify").wants_close(), "whole-token match only");
        // Connection may also be spread over several header lines.
        let raw = b"GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: TE, close\r\n\r\n";
        assert!(parse(raw).unwrap().unwrap().wants_close());
    }

    #[test]
    fn incremental_parser_handles_split_arrivals() {
        let raw =
            b"POST /search HTTP/1.1\r\nContent-Length: 9\r\nConnection: close\r\n\r\n{\"k\": 3}\n";
        let head_len = raw.len() - 9;
        for cut in 0..head_len {
            assert!(
                matches!(parse_head(&raw[..cut], 1024), Ok(None)),
                "cut at {cut} must be partial"
            );
        }
        // From the blank line on, the head is framed whatever follows it.
        for cut in head_len..=raw.len() {
            let head = parse_head(&raw[..cut], 1024).unwrap().unwrap();
            assert_eq!((head.len, head.body_len), (head_len, 9), "cut at {cut}");
            assert_eq!(head.req.method, "POST");
            assert_eq!(head.req.path, "/search");
            assert!(head.req.body.is_empty());
            assert!(head.req.wants_close());
        }
    }

    #[test]
    fn incremental_parser_rejects_on_the_visible_prefix() {
        // Framing violations fail as soon as the prefix shows them — no
        // waiting for the body or the rest of the head.
        assert!(matches!(
            parse_head(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n", 1024),
            Err(HttpError::TooLarge(_))
        ));
        assert!(matches!(
            parse_head(b"GARBAGE LINE HERE\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
        // An unterminated over-long line cannot become valid with more
        // bytes; it must error now rather than buffer forever.
        let unterminated = "a".repeat(10_000);
        assert!(matches!(
            parse_head(unterminated.as_bytes(), 1024),
            Err(HttpError::TooLarge(_))
        ));
        assert!(matches!(
            parse_head(
                b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab",
                1024
            ),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::ok(Json::obj([("status", Json::from("ok"))]))
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 15\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"status\":\"ok\"}"));

        let mut out = Vec::new();
        Response::error(404, "no such endpoint")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("{\"error\":\"no such endpoint\"}"));

        let mut out = Vec::new();
        Response::text(200, "ddc_up 1\n".into())
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        assert!(text.ends_with("\r\n\r\nddc_up 1\n"));
    }
}

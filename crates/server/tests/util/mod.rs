//! Raw-TCP test client shared by the server integration suites (a
//! subdirectory module, so cargo does not treat it as a test target).

#![allow(dead_code)]

use ddc_server::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive client connection speaking just enough HTTP/1.1 to test
/// the server from the outside.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Sends one request and reads one response. `close` sets
    /// `Connection: close`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
    ) -> (u16, Json) {
        let (status, text) = self.request_raw(method, path, body, close);
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("bad body {text:?}: {e}"));
        (status, json)
    }

    /// [`Conn::request`] without the JSON parse, for non-JSON endpoints
    /// (`/metrics` answers with the Prometheus text exposition).
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
    ) -> (u16, String) {
        let body = body.unwrap_or("");
        let connection = if close { "Connection: close\r\n" } else { "" };
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: test\r\n{connection}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        self.writer.flush().expect("flush request");
        self.read_response()
    }

    /// Writes raw request bytes — any part of one or several requests —
    /// unbuffered, so each call reaches the server as its own segment.
    pub fn send(&mut self, bytes: &[u8]) {
        self.writer.set_nodelay(true).expect("nodelay");
        self.writer.write_all(bytes).expect("write bytes");
    }

    /// Reads the next response on the connection.
    pub fn read_response(&mut self) -> (u16, String) {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("header line");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().expect("content-length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        let text = String::from_utf8(body).expect("utf-8 body");
        (status, text)
    }
}

/// One-shot request on a fresh connection (`Connection: close`).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
    Conn::open(addr).request(method, path, body, true)
}

/// One-shot request returning the raw body text (for `/metrics`).
pub fn request_text(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, String) {
    Conn::open(addr).request_raw(method, path, body, true)
}

/// A result fingerprint that attributes a response to one engine build:
/// ids, distance bits, and the per-query work counters. Distances of two
/// operators can coincide to the last bit (they approximate the same
/// metric), but their scan/prune counters cannot.
pub type Fingerprint = (Vec<(u32, u32)>, Vec<u64>);

/// Extracts the [`Fingerprint`] from a `/search`-shaped response.
pub fn fingerprint(body: &Json) -> Fingerprint {
    let ids = body.get("ids").and_then(Json::as_arr).expect("ids");
    let dists = body
        .get("distances")
        .and_then(Json::as_f32_vec)
        .expect("distances");
    let neighbors = ids
        .iter()
        .zip(dists)
        .map(|(id, d)| (id.as_usize().expect("id") as u32, d.to_bits()))
        .collect();
    let c = body.get("counters").expect("counters");
    let counter = |key: &str| c.get(key).and_then(Json::as_usize).expect("counter") as u64;
    let counters = ["candidates", "pruned", "exact", "dims_scanned", "dims_full"]
        .map(counter)
        .to_vec();
    (neighbors, counters)
}

/// The engine-side [`Fingerprint`] of a library search result, for
/// comparing HTTP responses against direct `Engine` calls.
pub fn result_fingerprint(r: &ddc_index::SearchResult) -> Fingerprint {
    let neighbors = r
        .neighbors
        .iter()
        .map(|n| (n.id, n.dist.to_bits()))
        .collect();
    let c = &r.counters;
    let counters = vec![c.candidates, c.pruned, c.exact, c.dims_scanned, c.dims_full];
    (neighbors, counters)
}

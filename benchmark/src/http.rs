//! The load generator's side of the wire: one blocking keep-alive
//! HTTP/1.1 connection (noise rule 1: one thread, one connection, closed
//! loop).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Renders one request. Done before timing starts, so building bodies is
/// never on a measured path.
pub fn frame(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// What came back for one request.
pub struct Reply {
    pub status: u16,
    /// Response bytes on the wire (head + body).
    pub wire_bytes: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A forced compaction answers in seconds at most; a hung server
        // must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends `request` and blocks until the whole response arrived; the
    /// body is appended to `body`.
    pub fn send(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-utf8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        body.extend_from_slice(&self.buf[head_end..head_end + len]);
        Ok(Reply {
            status,
            wire_bytes: head_end + len,
        })
    }

    /// `GET path`: the body of a 200, an error for anything else.
    pub fn get(&mut self, path: &str) -> io::Result<String> {
        let mut body = Vec::new();
        let reply = self.send(
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
            &mut body,
        )?;
        let body = String::from_utf8_lossy(&body).into_owned();
        if reply.status != 200 {
            return Err(bad(&format!("{path} answered {}: {body}", reply.status)));
        }
        Ok(body)
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk)? {
            0 => Err(bad("server closed the connection")),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

//! The one HTTP/1.1 codec both endpoints share: a bounded request
//! reader, a response writer, and the raw client the scrapers, the load
//! generator and the tests use.
//!
//! The metrics endpoint ([`crate::serve`]) and the request server
//! (`fbmpk-serve`) answer one request per connection
//! (`Connection: close`). The reader bounds the head at
//! [`MAX_HEAD_BYTES`] and the body at [`MAX_BODY_BYTES`], and every way
//! a request can fail to arrive maps to a typed [`ReadError`]: garbage,
//! an early close and a peer that stalls past [`IO_TIMEOUT`]
//! are [`ReadError::Malformed`] (answered 400), an oversized head or
//! body is [`ReadError::TooLarge`] (answered 413). Only a transport
//! error with nobody left to answer is [`ReadError::Io`].

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Read and write timeout both endpoints set per connection: a stuck
/// peer costs at most this long, and a stall mid-request is answered 400.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Lower-cased header names with trimmed values.
    pub headers: Vec<(String, String)>,
    /// The body (`Content-Length` bytes).
    pub body: String,
}

impl Request {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Why a request could not be read (each maps to a typed response).
#[derive(Debug)]
pub enum ReadError {
    /// Syntactically broken, cut short or stalled request → 400.
    Malformed(&'static str),
    /// Head or body over the bound → 413.
    TooLarge(&'static str),
    /// Transport error (peer vanished); nothing to respond to.
    Io(std::io::Error),
}

impl ReadError {
    /// The typed answer to send back; `None` when the peer is gone.
    pub fn response(&self) -> Option<Response> {
        match self {
            ReadError::Malformed(msg) => Some(Response::text(400, format!("{msg}\n"))),
            ReadError::TooLarge(msg) => Some(Response::text(413, format!("{msg}\n"))),
            ReadError::Io(_) => None,
        }
    }
}

/// One `read` from the peer. A read timeout (`WouldBlock` or `TimedOut`,
/// depending on the platform) is the peer's fault, so it becomes a typed
/// `Malformed(stalled)` instead of a silently dropped connection.
fn read_some<R: Read>(
    stream: &mut R,
    buf: &mut [u8],
    stalled: &'static str,
) -> Result<usize, ReadError> {
    stream.read(buf).map_err(|e| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ReadError::Malformed(stalled),
        _ => ReadError::Io(e),
    })
}

/// Reads and parses one request from `stream` with bounded head and
/// body sizes. A socket's read timeout (set by the caller) bounds how
/// long a slow client can hold the reader.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, ReadError> {
    let mut buf = vec![0u8; MAX_HEAD_BYTES];
    let mut len = 0;
    let head_end = loop {
        if let Some(pos) = buf[..len].windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if len == buf.len() {
            return Err(ReadError::TooLarge("request head exceeds the size bound"));
        }
        let n = read_some(stream, &mut buf[len..], "request head stalled past the read timeout")?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed before the header terminator"));
        }
        len += n;
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) =
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty()
        || !method.bytes().all(|b| b.is_ascii_uppercase())
        || !path.starts_with('/')
        || !version.starts_with("HTTP/")
        || parts.next().is_some()
    {
        return Err(ReadError::Malformed("bad request line"));
    }
    let headers = lines
        .map(parse_header)
        .collect::<Option<Vec<_>>>()
        .ok_or(ReadError::Malformed("bad header line"))?;
    let content_length = find_header(&headers, "content-length")
        .map(|v| v.parse::<usize>().map_err(|_| ReadError::Malformed("bad Content-Length")))
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge("request body exceeds the size bound"));
    }
    // Body bytes already read past the terminator, then the remainder.
    let mut body = buf[head_end + 4..len].to_vec();
    while body.len() < content_length {
        let mut chunk = vec![0u8; (content_length - body.len()).min(64 * 1024)];
        let n = read_some(stream, &mut chunk, "request body stalled past the read timeout")?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body =
        String::from_utf8(body).map_err(|_| ReadError::Malformed("request body is not UTF-8"))?;
    let path = path.split('?').next().unwrap_or(path).to_string();
    Ok(Request { method: method.to_string(), path, headers, body })
}

/// `Name: value` → lower-cased name and trimmed value.
fn parse_header(line: &str) -> Option<(String, String)> {
    let (name, value) = line.split_once(':')?;
    Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let name = name.to_ascii_lowercase();
    headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(&'static str, String)>,
    /// The body.
    pub body: String,
}

impl Response {
    /// A `text/plain` response with no extra headers.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response { status, content_type: "text/plain", headers: Vec::new(), body: body.into() }
    }

    /// Replaces the content type (the exposition format has its own).
    pub fn with_content_type(mut self, content_type: &'static str) -> Self {
        self.content_type = content_type;
        self
    }

    /// Appends an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Writes the response (`Connection: close`: one request per
    /// connection).
    pub fn write<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        out.write_all(head.as_bytes())?;
        out.write_all(self.body.as_bytes())?;
        out.flush()
    }
}

/// A response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased header names with trimmed values.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

impl ClientResponse {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Sends one request over a fresh [`TcpStream`] and reads the full
/// response. An `Err` is an *untyped* failure (connect refused, reset,
/// timeout, unparseable response): the load generator counts those
/// separately because both endpoints promise typed answers, never
/// dropped connections.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    parse_response(&response)
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "unparseable response"))
}

/// Parses a raw response (status line, headers, body).
pub fn parse_response(raw: &str) -> Option<ClientResponse> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let mut lines = head.lines();
    let status = lines.next()?.split(' ').nth(1)?.parse::<u16>().ok()?;
    let headers = lines.filter_map(parse_header).collect();
    Some(ClientResponse { status, headers, body: body.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn read(mut raw: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut raw)
    }

    #[test]
    fn parses_post_with_body() {
        let req = read(
            b"POST /v1/power HTTP/1.1\r\nHost: x\r\nX-Tenant: alice\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/power");
        assert_eq!(req.header("x-tenant"), Some("alice"));
        assert_eq!(req.header("X-Tenant"), Some("alice"));
        assert_eq!(req.body, "hello");
    }

    #[test]
    fn strips_query_string() {
        let req = read(b"GET /v1/stats?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.path, "/v1/stats");
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(read(b"not http at all\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(read(b"\x00\x01\x02\xff\r\n\r\n"), Err(ReadError::Malformed(_))));
        let huge = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(matches!(read(&huge), Err(ReadError::TooLarge(_))));
        assert!(matches!(
            read(b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"),
            Err(ReadError::TooLarge(_))
        ));
        assert!(matches!(
            read(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    /// A reader that hands out `data`, then reports a read timeout — a
    /// peer that went quiet mid-request.
    struct Stalling<'a>(&'a [u8]);

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "timed out"));
            }
            self.0.read(buf)
        }
    }

    #[test]
    fn stalled_peer_is_malformed_not_io() {
        let mut head = Stalling(b"GET /metrics HTTP/1.1\r\n");
        assert!(matches!(read_request(&mut head), Err(ReadError::Malformed(_))));
        let mut body = Stalling(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc");
        assert!(matches!(read_request(&mut body), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn parses_a_response() {
        let r = parse_response(
            "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nX-Fbmpk-Shed: queue-full\r\n\r\nqueue full\n",
        )
        .unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.header("retry-after"), Some("3"));
        assert_eq!(r.header("X-Fbmpk-Shed"), Some("queue-full"));
        assert_eq!(r.body, "queue full\n");
    }

    const VALID: &[u8] =
        b"POST /v1/power?x=1 HTTP/1.1\r\nHost: a\r\nX-Tenant: t\r\nContent-Length: 4\r\n\r\nk=2\n";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes end in a request or a typed error, never a
        /// panic, and a parsed request respects both size bounds.
        #[test]
        fn random_bytes_never_panic(raw in proptest::collection::vec(0u8..=255, 0..600)) {
            if let Ok(req) = read(&raw) {
                prop_assert!(req.body.len() <= MAX_BODY_BYTES);
                prop_assert!(req.path.starts_with('/'));
            }
        }

        /// A valid request with bytes overwritten, inserted, removed or
        /// cut off: still no panic, and the intact request parses with
        /// its exact body.
        #[test]
        fn mutated_heads_never_panic(
            edits in proptest::collection::vec((0usize..VALID.len(), 0u8..=255, 0u8..3), 0..6),
            cut in 0usize..=2 * VALID.len(),
        ) {
            let mut raw = VALID.to_vec();
            for &(pos, byte, op) in &edits {
                let pos = pos.min(raw.len().saturating_sub(1));
                match op {
                    0 if !raw.is_empty() => raw[pos] = byte,
                    1 => raw.insert(pos, byte),
                    _ if !raw.is_empty() => { raw.remove(pos); }
                    _ => {}
                }
            }
            raw.truncate(cut);
            let untouched = raw == VALID;
            match read(&raw) {
                Ok(req) => {
                    prop_assert!(req.path.starts_with('/'));
                    if untouched {
                        prop_assert_eq!(req.body.as_str(), "k=2\n");
                        prop_assert_eq!(req.header("x-tenant"), Some("t"));
                    }
                }
                Err(ReadError::Io(e)) => prop_assert!(false, "in-memory read failed: {e}"),
                Err(_) => prop_assert!(!untouched, "the valid head must parse"),
            }
        }
    }
}

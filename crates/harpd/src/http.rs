//! A minimal, strict HTTP/1.1 message layer over blocking sockets.
//!
//! Hand-rolled like the workspace's JSON writer: no dependency, no async.
//! The parser is *incremental* — [`try_parse`] consumes a byte buffer and
//! either yields a complete [`Request`] plus the bytes it consumed, asks
//! for more input, or rejects with an [`HttpError`] carrying the 4xx
//! status to answer with. Incremental parsing is what makes split reads
//! and pipelined requests (several messages already buffered) natural: the
//! connection loop keeps a rolling buffer and re-parses as bytes arrive.
//!
//! Hard limits keep a hostile peer from pinning a worker: request heads
//! over [`MAX_HEAD_BYTES`] are rejected with 431, bodies over
//! `MAX_BODY_BYTES` with 413, and more than `MAX_HEADERS` header
//! lines with 431. Anything malformed — a bad start-line, a non-CRLF
//! line ending, a header without a colon, an unparsable
//! `content-length` — is a clean 400, never a panic and never a hang.

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body bytes (inline scenario files stay far below).
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Maximum header count.
pub(crate) const MAX_HEADERS: usize = 64;

/// A parse or I/O failure with the HTTP status that answers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Response status (4xx for protocol violations, 408 for timeouts).
    pub status: u16,
    /// Human-readable detail, returned in the error body.
    pub message: String,
}

impl HttpError {
    /// Builds an error with `status` and `message`.
    #[must_use]
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method token, upper-case (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path without the query string, e.g. `/networks/t1/schedule`.
    pub path: String,
    /// Decoded query pairs in request order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `content-length`).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this one.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lower-case) header name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query key.
    #[must_use]
    pub(crate) fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// A 400 [`HttpError`] when the body is not valid UTF-8.
    pub(crate) fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::new(400, "request body is not valid UTF-8"))
    }
}

/// Outcome of one [`try_parse`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A complete request and the number of buffer bytes it consumed
    /// (strip them before parsing the next pipelined message).
    Complete(Request, usize),
    /// The buffer holds only a prefix of a message; read more bytes.
    Incomplete,
}

fn bad(message: impl Into<String>) -> HttpError {
    HttpError::new(400, message)
}

/// Percent-decodes a URL component (`%41` → `A`, `+` is *not* treated as a
/// space — the daemon's tokens and tenant ids never encode spaces).
fn percent_decode(s: &str) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| bad("malformed percent-encoding"))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| bad("percent-encoding decodes to invalid UTF-8"))
}

fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), HttpError> {
    if !target.starts_with('/') {
        return Err(bad("request target must be origin-form (start with '/')"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut pairs = Vec::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        pairs.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok((percent_decode(path)?, pairs))
}

/// Attempts to parse one request from the front of `buf`.
///
/// # Errors
///
/// An [`HttpError`] (4xx) when the buffered bytes can never become a valid
/// message: malformed start-line or header, oversized head/body, bare-LF
/// line endings, unsupported transfer framing.
pub fn try_parse(buf: &[u8]) -> Result<Parsed, HttpError> {
    // Locate the head terminator within the size limit.
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    let head_end = window.windows(4).position(|w| w == b"\r\n\r\n");
    let Some(head_end) = head_end else {
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::new(431, "request head exceeds 16 KiB"));
        }
        // A bare "\n\n" will never grow a CRLF terminator; fail early so a
        // sloppy client gets a 400 instead of a read-timeout 408.
        if window.windows(2).any(|w| w == b"\n\n") {
            return Err(bad("header lines must end with CRLF"));
        }
        return Ok(Parsed::Incomplete);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| bad("request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or_default();
    if start.chars().any(|c| c.is_control()) {
        return Err(bad("control character in start-line"));
    }
    let mut parts = start.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(bad("start-line must be 'METHOD target HTTP/1.x'"));
    };
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(bad("method must be upper-case ASCII"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(bad("unsupported HTTP version"));
    }
    let (path, query) = parse_target(target)?;

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(431, "too many header lines"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("header line without ':'"))?;
        if name.is_empty()
            || name
                .chars()
                .any(|c| c.is_whitespace() || c.is_control() || c == ',')
        {
            return Err(bad("malformed header name"));
        }
        if value.chars().any(|c| c.is_control() && c != '\t') {
            return Err(bad("control character in header value"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let find = |n: &str| {
        headers
            .iter()
            .find(|(name, _)| name == n)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(bad(
            "transfer-encoding is not supported; send content-length",
        ));
    }
    let content_length = match find("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| bad("unparsable content-length"))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body exceeds 4 MiB"));
    }
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(Parsed::Incomplete);
    }

    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(v) if v == "close" => false,
        Some(v) if v == "keep-alive" => true,
        _ => version == "HTTP/1.1",
    };
    Ok(Parsed::Complete(
        Request {
            method: method.to_owned(),
            path,
            query,
            headers,
            body: buf[body_start..total].to_vec(),
            keep_alive,
        },
        total,
    ))
}

/// One response, always framed with `content-length` (no chunking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `content-type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// When set, the server closes the connection after writing.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self::json_bytes(status, body.into_bytes())
    }

    /// A JSON response from already-assembled bytes (the handlers build
    /// bodies with [`harp_obs::json::JsonBuf`] into pooled buffers).
    #[must_use]
    pub(crate) fn json_bytes(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body,
            close: false,
        }
    }

    /// A plain-text response (Prometheus exposition uses its own type).
    #[must_use]
    pub fn text(status: u16, content_type: &'static str, body: String) -> Self {
        Self {
            status,
            content_type,
            body: body.into_bytes(),
            close: false,
        }
    }

    /// The canonical error body for an [`HttpError`].
    #[must_use]
    pub(crate) fn from_error(err: &HttpError) -> Self {
        let mut r = Self::json(
            err.status,
            format!("{{\"error\": \"{}\"}}\n", escape_json(&err.message)),
        );
        // Framing may be lost after a protocol error; never reuse the
        // connection.
        r.close = true;
        r
    }

    /// Serialises status line, headers and body onto `stream`.
    ///
    /// # Errors
    ///
    /// The underlying socket write error.
    pub(crate) fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let connection = if self.close { "close" } else { "keep-alive" };
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Canonical reason phrase for the statuses the daemon emits.
#[must_use]
pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Status",
    }
}

/// Escapes a string for embedding in a JSON string literal — the shared
/// workspace helper, re-exported where the daemon's handlers historically
/// found it.
pub use harp_obs::json::escape_json;

/// Reads the next complete request from `stream`, buffering leftovers in
/// `buf` across calls (pipelining), and reports the microseconds spent
/// *parsing* the message (CPU over all incremental [`try_parse`] passes,
/// excluding socket waits) — the `parse` span of the request trace.
///
/// Returns `Ok(None)` on clean end-of-stream (peer closed between
/// requests) and on a read timeout with nothing buffered (idle keep-alive
/// connection going away).
///
/// # Errors
///
/// A parse [`HttpError`], 408 when a partial message times out, or 400
/// when the peer closes mid-message.
pub(crate) fn next_request_timed(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> Result<Option<(Request, u64)>, HttpError> {
    let mut chunk = [0u8; 8 * 1024];
    let mut parse_us: u64 = 0;
    loop {
        let started = std::time::Instant::now();
        let parsed = try_parse(buf);
        parse_us = parse_us
            .saturating_add(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        match parsed? {
            Parsed::Complete(req, consumed) => {
                buf.drain(..consumed);
                return Ok(Some((req, parse_us)));
            }
            Parsed::Incomplete => {}
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(bad("peer closed mid-request"));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::new(408, "timed out mid-request"));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(bad(format!("socket read failed: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(raw: &str) -> Request {
        match try_parse(raw.as_bytes()).expect("parses") {
            Parsed::Complete(req, consumed) => {
                assert_eq!(consumed, raw.len());
                req
            }
            Parsed::Incomplete => panic!("expected complete parse"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse_ok("GET /networks/t1/schedule?verbose=1&x=%2F HTTP/1.1\r\nhost: a\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/networks/t1/schedule");
        assert_eq!(req.query_value("verbose"), Some("1"));
        assert_eq!(req.query_value("x"), Some("/"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_and_detects_close() {
        let req = parse_ok(
            "POST /networks HTTP/1.1\r\ncontent-length: 4\r\nConnection: close\r\n\r\nabcd",
        );
        assert_eq!(req.body, b"abcd");
        assert!(!req.keep_alive);
        assert_eq!(req.header("connection"), Some("close"));
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse_ok("GET /health HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        let req = parse_ok("GET /health HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
    }

    #[test]
    fn incomplete_until_body_arrives() {
        let raw = "POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\n12345";
        assert_eq!(try_parse(raw.as_bytes()).unwrap(), Parsed::Incomplete);
        let full = format!("{raw}67890");
        assert!(matches!(
            try_parse(full.as_bytes()).unwrap(),
            Parsed::Complete(_, _)
        ));
    }

    #[test]
    fn pipelined_requests_report_consumed_bytes() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let Parsed::Complete(req, consumed) = try_parse(raw.as_bytes()).unwrap() else {
            panic!()
        };
        assert_eq!(req.path, "/a");
        let Parsed::Complete(req2, consumed2) = try_parse(&raw.as_bytes()[consumed..]).unwrap()
        else {
            panic!()
        };
        assert_eq!(req2.path, "/b");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn malformed_start_lines_are_400() {
        for raw in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/2.0\r\n\r\n",
            "GET /x%zz HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad header\r\n\r\n",
            "GET /x HTTP/1.1\r\nna me: v\r\n\r\n",
            "GET /x HTTP/1.1\r\ncontent-length: ten\r\n\r\n",
            "GET /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ] {
            let err = try_parse(raw.as_bytes()).unwrap_err();
            assert_eq!(err.status, 400, "{raw:?} -> {err}");
        }
    }

    #[test]
    fn bare_lf_heads_fail_fast() {
        let err = try_parse(b"GET /x HTTP/1.1\n\n").unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES));
        let err = try_parse(&raw).unwrap_err();
        assert_eq!(err.status, 431);
        let mut many = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(try_parse(&many).unwrap_err().status, 431);
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(try_parse(raw.as_bytes()).unwrap_err().status, 413);
    }

    #[test]
    fn response_serialises_with_content_length() {
        let r = Response::json(200, "{}".into());
        assert_eq!(r.status, 200);
        assert!(!r.close);
        let err = Response::from_error(&HttpError::new(431, "too big"));
        assert!(err.close);
        assert!(String::from_utf8(err.body).unwrap().contains("too big"));
    }

    #[test]
    fn escape_json_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}

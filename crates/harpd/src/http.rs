//! A minimal, strict HTTP/1.1 message layer over blocking sockets.
//!
//! Hand-rolled like the workspace's JSON writer: no dependency, no async.
//! The parser is *incremental* — [`try_parse`] reads a byte buffer and
//! either yields a complete [`Request`] plus the bytes it consumed, asks
//! for more input, or rejects with an [`HttpError`] carrying the 4xx
//! status to answer with. Incremental parsing is what makes split reads
//! and pipelined requests (several messages already buffered) natural: the
//! connection loop keeps a rolling buffer and re-parses as bytes arrive.
//!
//! A [`Request`] borrows that buffer and allocates only what it keeps: a
//! path that needs percent-decoding. The query and the header lines stay
//! raw slices, checked here once and read on lookup; the body is a slice.
//!
//! Hard limits keep a hostile peer from pinning a worker: request heads
//! over [`MAX_HEAD_BYTES`] are rejected with 431, bodies over
//! `MAX_BODY_BYTES` with 413, and more than `MAX_HEADERS` header
//! lines with 431. Anything malformed — a bad start-line, a non-CRLF
//! line ending, a header without a colon, a `%` not followed by two hex
//! digits, a `content-length` that is not all digits or that a second
//! `content-length` contradicts — is a clean 400, never a panic and never
//! a hang.

use std::borrow::Cow;
use std::fmt;
use std::io::{IoSlice, Read, Write};
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

/// One parsed request, borrowed from the buffer it was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<'a> {
    /// Method token, upper-case (`GET`, `POST`, ...).
    pub method: &'a str,
    /// Decoded path without the query string, e.g. `/networks/t1/schedule`:
    /// borrowed unless it contained a `%`.
    pub path: Cow<'a, str>,
    /// The raw query string after `?` (empty when none), whose escapes
    /// [`try_parse`] has checked; [`Request::query_value`] decodes.
    pub(crate) query: &'a str,
    /// The raw header lines after the start-line, CRLF-separated, each
    /// checked by [`try_parse`]; [`Request::header`] reads them.
    pub(crate) headers: &'a str,
    /// Request body (empty when no `content-length`).
    pub body: &'a [u8],
    /// Whether the connection may serve another request after this one.
    pub keep_alive: bool,
}

impl<'a> Request<'a> {
    /// The trimmed value of the first header named `name`, matched
    /// case-insensitively.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&'a str> {
        header_lines(self.headers)
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// The decoded value of the first query pair whose decoded key is
    /// `key` (a key without `=` has the empty value).
    #[must_use]
    pub(crate) fn query_value(&self, key: &str) -> Option<Cow<'a, str>> {
        // `try_parse` checked every pair, so decoding cannot fail.
        let (_, value) =
            query_pairs(self.query).find(|(k, _)| percent_decode(k).is_ok_and(|k| k == key))?;
        percent_decode(value).ok()
    }

    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// A 400 [`HttpError`] when the body is not valid UTF-8.
    pub(crate) fn body_str(&self) -> Result<&'a str, HttpError> {
        std::str::from_utf8(self.body)
            .map_err(|_| HttpError::new(400, "request body is not valid UTF-8"))
    }
}

/// Outcome of one [`try_parse`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// A complete request and the number of buffer bytes it consumed
    /// (strip them before parsing the next pipelined message).
    Complete(Request<'a>, usize),
    /// The buffer holds only a prefix of a message; read more bytes.
    Incomplete,
}

fn bad(message: impl Into<String>) -> HttpError {
    HttpError::new(400, message)
}

/// `(name, trimmed value)` of each line of a checked header block.
fn header_lines(block: &str) -> impl Iterator<Item = (&str, &str)> {
    block
        .split("\r\n")
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name, value.trim()))
}

/// The raw `(key, value)` pairs of a query string.
fn query_pairs(query: &str) -> impl Iterator<Item = (&str, &str)> {
    query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
}

/// The bytes `s` percent-decodes to, with `None` for a `%` not followed
/// by exactly two hex digits (`+` is *not* a space: the daemon's tokens
/// and tenant ids never encode spaces).
fn decode_bytes(s: &str) -> impl Iterator<Item = Option<u8>> + '_ {
    let hex = |b: Option<u8>| char::from(b?).to_digit(16);
    let mut bytes = s.bytes();
    std::iter::from_fn(move || {
        let b = bytes.next()?;
        if b != b'%' {
            return Some(Some(b));
        }
        let (hi, lo) = (hex(bytes.next()), hex(bytes.next()));
        // Two hex digits fit a byte.
        Some(hi.zip(lo).map(|(hi, lo)| (hi << 4 | lo) as u8))
    })
}

/// Percent-decodes a URL component, borrowing it when it has no `%`.
fn percent_decode(s: &str) -> Result<Cow<'_, str>, HttpError> {
    if !s.contains('%') {
        return Ok(Cow::Borrowed(s));
    }
    let bytes: Vec<u8> = decode_bytes(s)
        .collect::<Option<_>>()
        .ok_or_else(|| bad("malformed percent-encoding"))?;
    String::from_utf8(bytes)
        .map(Cow::Owned)
        .map_err(|_| bad("percent-encoding decodes to invalid UTF-8"))
}

/// A `content-length` value: one or more ASCII digits, nothing else.
fn content_length(value: &str) -> Result<usize, HttpError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad("unparsable content-length"));
    }
    value.parse().map_err(|_| bad("unparsable content-length"))
}

/// Attempts to parse one request from the front of `buf`.
///
/// # Errors
///
/// An [`HttpError`] (4xx) when the buffered bytes can never become a valid
/// message: malformed start-line or header, oversized head/body, bare-LF
/// line endings, unsupported or contradictory framing.
pub fn try_parse(buf: &[u8]) -> Result<Parsed<'_>, HttpError> {
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
    let (start, headers) = head.split_once("\r\n").unwrap_or((head, ""));
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
    if !target.starts_with('/') {
        return Err(bad("request target must be origin-form (start with '/')"));
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let path = percent_decode(path)?;
    for (k, v) in query_pairs(query) {
        percent_decode(k)?;
        percent_decode(v)?;
    }

    let (mut length, mut chunked, mut connection) = (None, false, None);
    // Only a head without header lines has an empty one.
    for (i, line) in headers.split("\r\n").filter(|l| !l.is_empty()).enumerate() {
        if i >= MAX_HEADERS {
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
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n = content_length(value)?;
            // RFC 9112 §6.3: differing lengths leave the framing unknown.
            if length.is_some_and(|first| first != n) {
                return Err(bad("conflicting content-length headers"));
            }
            length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = true;
        } else if name.eq_ignore_ascii_case("connection") && connection.is_none() {
            connection = Some(value);
        }
    }
    if chunked {
        return Err(bad(
            "transfer-encoding is not supported; send content-length",
        ));
    }
    let content_length = length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body exceeds 4 MiB"));
    }
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(Parsed::Incomplete);
    }

    let keep_alive = match connection {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    Ok(Parsed::Complete(
        Request {
            method,
            path,
            query,
            headers,
            body: &buf[body_start..total],
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

    /// The canonical error body for an [`HttpError`], written into `buf`
    /// (a buffer from the response pool, like every other body).
    #[must_use]
    pub(crate) fn from_error(err: &HttpError, buf: Vec<u8>) -> Self {
        let mut b = harp_obs::json::JsonBuf::reuse(buf);
        b.raw("{\"error\": ").string(&err.message).raw("}\n");
        let mut r = Self::json_bytes(err.status, b.into_bytes());
        // Framing may be lost after a protocol error; never reuse the
        // connection.
        r.close = true;
        r
    }

    /// Serialises status line, headers and body onto `out`. The head is
    /// formatted on the stack and leaves with the body in one vectored
    /// write; only a short write takes a second.
    ///
    /// # Errors
    ///
    /// The underlying write error.
    pub(crate) fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut head = [0u8; 256];
        let mut cursor = std::io::Cursor::new(&mut head[..]);
        write!(
            cursor,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        )?;
        let len = cursor.position() as usize;
        let head = &head[..len];
        let written = loop {
            match out.write_vectored(&[IoSlice::new(head), IoSlice::new(&self.body)]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                result => break result?,
            }
        };
        if written < head.len() {
            out.write_all(&head[written..])?;
            out.write_all(&self.body)?;
        } else {
            out.write_all(&self.body[written - head.len()..])?;
        }
        out.flush()
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

/// Reads more bytes of the message `buf` holds a prefix of.
///
/// Returns `Ok(false)` on clean end-of-stream (peer closed between
/// requests) and on a read timeout with nothing buffered (idle keep-alive
/// connection going away).
///
/// # Errors
///
/// 408 when a partial message times out, or 400 when the peer closes
/// mid-message or the read fails.
pub(crate) fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<bool, HttpError> {
    let mut chunk = [0u8; 8 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Ok(false),
            Ok(0) => return Err(bad("peer closed mid-request")),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(true);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() {
                    return Ok(false);
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

    fn parse_ok(raw: &str) -> Request<'_> {
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
        assert_eq!(req.query_value("verbose").as_deref(), Some("1"));
        assert_eq!(req.query_value("x").as_deref(), Some("/"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn borrows_what_needs_no_decoding() {
        let req = parse_ok("GET /networks/t%31/schedule?a%3Db=%C3%A9&flag HTTP/1.1\r\n\r\n");
        assert!(matches!(req.path, Cow::Owned(_)), "decoded: {:?}", req.path);
        assert_eq!(req.path, "/networks/t1/schedule");
        assert_eq!(req.query_value("a=b").as_deref(), Some("\u{e9}"));
        assert_eq!(req.query_value("flag").as_deref(), Some(""));
        assert_eq!(req.query_value("a"), None);
        let req = parse_ok("GET /networks/t1/schedule?x=1 HTTP/1.1\r\n\r\n");
        assert!(matches!(req.path, Cow::Borrowed(_)));
        assert!(matches!(req.query_value("x"), Some(Cow::Borrowed("1"))));
    }

    #[test]
    fn headers_match_case_insensitively_and_trim() {
        let req =
            parse_ok("GET /x HTTP/1.1\r\nX-Harpd-Token: \t s3 \r\nx-harpd-token: second\r\n\r\n");
        assert_eq!(req.header("x-harpd-token"), Some("s3"));
        assert_eq!(req.header("X-HARPD-TOKEN"), Some("s3"));
        assert_eq!(req.header("host"), None);
        assert_eq!(parse_ok("GET /x HTTP/1.1\r\n\r\n").header(""), None);
    }

    #[test]
    fn an_escape_is_exactly_two_hex_digits() {
        // `u8::from_str_radix` would take the sign: `%+1` is byte 1.
        for raw in [
            "GET /x%+1 HTTP/1.1\r\n\r\n",
            "GET /x?a=%+f HTTP/1.1\r\n\r\n",
            "GET /x?%+fa=1 HTTP/1.1\r\n\r\n",
            "GET /x%4 HTTP/1.1\r\n\r\n",
            "GET /x?a=%4 HTTP/1.1\r\n\r\n",
            "GET /x?a=%C3 HTTP/1.1\r\n\r\n",
            "GET /x?a=%C3%28 HTTP/1.1\r\n\r\n",
        ] {
            let err = try_parse(raw.as_bytes()).unwrap_err();
            assert_eq!(err.status, 400, "{raw:?} -> {err}");
        }
        assert_eq!(parse_ok("GET /%7e%7E HTTP/1.1\r\n\r\n").path, "/~~");
    }

    #[test]
    fn content_length_is_digits_and_agrees_with_itself() {
        for raw in [
            "POST /x HTTP/1.1\r\ncontent-length: +4\r\n\r\nabcd",
            "POST /x HTTP/1.1\r\ncontent-length: -0\r\n\r\n",
            "POST /x HTTP/1.1\r\ncontent-length: 4 4\r\n\r\nabcd",
            "POST /x HTTP/1.1\r\ncontent-length:\r\n\r\n",
            "POST /x HTTP/1.1\r\ncontent-length: 4\r\nContent-Length: 10\r\n\r\nabcd",
            "POST /x HTTP/1.1\r\ncontent-length: 10\r\ncontent-length: 4\r\n\r\nabcd",
        ] {
            let err = try_parse(raw.as_bytes()).unwrap_err();
            assert_eq!(err.status, 400, "{raw:?} -> {err}");
        }
        // Repeating the same length leaves the framing known.
        let req =
            parse_ok("POST /x HTTP/1.1\r\ncontent-length: 4\r\nContent-Length:  4 \r\n\r\nabcd");
        assert_eq!(req.body, b"abcd");
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
        let err = Response::from_error(&HttpError::new(431, "too \"big\"\n"), b"old".to_vec());
        assert!(err.close);
        assert_eq!(err.body, b"{\"error\": \"too \\\"big\\\"\\n\"}\n");
    }

    /// Counts the calls that reach the socket.
    #[derive(Default)]
    struct Wire {
        bytes: Vec<u8>,
        writes: usize,
        /// Accept at most this many bytes per call (0: unlimited).
        limit: usize,
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            let mut taken = 0;
            for buf in bufs {
                let room = if self.limit == 0 {
                    buf.len()
                } else {
                    (self.limit - taken).min(buf.len())
                };
                self.bytes.extend_from_slice(&buf[..room]);
                taken += room;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn head_and_body_leave_in_one_write() {
        let mut r = Response::json(409, "{\"error\": \"x\"}".into());
        r.close = true;
        let expected = "HTTP/1.1 409 Conflict\r\ncontent-type: application/json\r\ncontent-length: 14\r\nconnection: close\r\n\r\n{\"error\": \"x\"}";
        let mut wire = Wire::default();
        r.write_to(&mut wire).unwrap();
        assert_eq!(
            (wire.writes, String::from_utf8(wire.bytes).unwrap().as_str()),
            (1, expected)
        );
        // A short write finishes the head, then the body.
        for limit in [7, 100, 108] {
            let mut wire = Wire {
                limit,
                ..Wire::default()
            };
            r.write_to(&mut wire).unwrap();
            assert_eq!(String::from_utf8(wire.bytes).unwrap(), expected, "{limit}");
        }
    }

    #[test]
    fn escape_json_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}

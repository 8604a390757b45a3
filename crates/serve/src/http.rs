//! A deliberately small HTTP/1.1 implementation.
//!
//! Enough of the protocol for a loopback/intranet prediction service and
//! its load generator: request line + headers + `Content-Length` bodies,
//! keep-alive (the HTTP/1.1 default) with `Connection: close` honored,
//! and hard limits on header and body size so a hostile peer cannot make
//! the server buffer unboundedly. No chunked encoding, no TLS — artifacts
//! of the vendored-dependency policy, documented in DESIGN.md.
//!
//! The parsing core is the **incremental** [`RequestParser`]: push
//! whatever bytes the socket produced, ask whether a complete request is
//! buffered. It never touches a socket, so a request may arrive one byte
//! at a time across any number of reads; the event loop abandons it
//! (with a 408) only when the *per-request deadline* expires.

use std::time::Duration;

/// Longest accepted request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body, bytes. Prediction bodies are a few
/// hundred bytes; this leaves room for batched client extensions.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Default wall-clock budget for one request to arrive in full once its
/// first byte has been seen. Expiry answers 408 Request Timeout.
pub const DEFAULT_REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Request method, pre-classified so routing does not compare strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Post,
    /// Anything else — still routable (to a 404) without owning the name.
    Other,
}

impl Method {
    pub fn classify(bytes: &[u8]) -> Self {
        match bytes {
            b"GET" => Method::Get,
            b"POST" => Method::Post,
            _ => Method::Other,
        }
    }
}

/// A complete request described as byte ranges into the parser's window
/// (see [`RequestParser::window`]) — no `String` per method/path, no
/// copied body. The frame stays valid until [`RequestParser::consume`]
/// or the next [`RequestParser::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Classified method (exact bytes via [`Frame::method_bytes`]).
    pub method: Method,
    method_range: (usize, usize),
    path_range: (usize, usize),
    head_len: usize,
    body_len: usize,
    /// Client asked to close after this exchange.
    pub close: bool,
}

impl Frame {
    /// Total bytes this request occupies on the wire (head + body);
    /// pass to [`RequestParser::consume`] once routed.
    pub fn wire_len(&self) -> usize {
        self.head_len + self.body_len
    }

    /// Method bytes within `window` (always valid UTF-8 — the head is
    /// checked before a frame is produced).
    pub fn method_bytes<'a>(&self, window: &'a [u8]) -> &'a [u8] {
        &window[self.method_range.0..self.method_range.1]
    }

    /// Path bytes within `window`.
    pub fn path_bytes<'a>(&self, window: &'a [u8]) -> &'a [u8] {
        &window[self.path_range.0..self.path_range.1]
    }

    /// Body bytes within `window`.
    pub fn body<'a>(&self, window: &'a [u8]) -> &'a [u8] {
        &window[self.head_len..self.head_len + self.body_len]
    }
}

/// Protocol-level failure while reading a request; each is answered
/// before the connection closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The per-request deadline expired with a request still partially
    /// delivered. Answered with 408 Request Timeout.
    Deadline,
    /// Malformed request line or header.
    Malformed(String),
    /// Head or body over the configured limits.
    TooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Deadline => write!(f, "request deadline expired"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Consumed prefix past which [`RequestParser::push`] compacts the
/// buffer (memmoves the unconsumed tail to the front) instead of letting
/// it grow. Small enough that the memmove is cheap, large enough that a
/// burst of pipelined requests is consumed with pure cursor bumps.
const COMPACT_AT: usize = 4096;

/// Incremental request parser: a byte buffer plus "is a complete request
/// buffered yet?". Feed it with [`RequestParser::push`]; it never
/// touches a socket itself.
///
/// Consumption is cursor-based: [`RequestParser::peek`] describes the
/// frontmost complete request as byte ranges ([`Frame`]) without copying
/// anything, and [`RequestParser::consume`] advances past it — no
/// `Vec::drain` per request (an O(buffered-bytes) memmove under
/// pipelining).
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    pos: usize,
}

impl RequestParser {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read off the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos >= COMPACT_AT {
            self.buf.copy_within(self.pos.., 0);
            let tail = self.buf.len() - self.pos;
            self.buf.truncate(tail);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes of an incomplete request are sitting in the buffer — i.e. a
    /// request has *started* (deadline applies) but has not finished.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// The unconsumed bytes. [`Frame`] ranges index into this slice.
    pub fn window(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Describe the frontmost request if fully delivered, without
    /// copying or consuming anything.
    ///
    /// `Ok(None)` means "need more bytes". Errors are terminal for the
    /// connection: the buffer cannot be re-synchronized after a malformed
    /// or oversized head.
    pub fn peek(&self) -> Result<Option<Frame>, HttpError> {
        let window = self.window();
        let Some(head_len) = find_head_end(window) else {
            if window.len() > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge("header"));
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("header"));
        }
        let frame = parse_head(window, head_len)?;
        if window.len() < frame.wire_len() {
            return Ok(None);
        }
        Ok(Some(frame))
    }

    /// Advance past `n` consumed bytes (a routed frame's
    /// [`Frame::wire_len`]), invalidating outstanding frames.
    pub fn consume(&mut self, n: usize) {
        self.pos += n;
        debug_assert!(self.pos <= self.buf.len());
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
    }
}

/// Find the end of the head (the index one past the blank line), if the
/// blank line has arrived. Accepts both CRLF and bare-LF line endings.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1..i + 3) {
                Some([b'\r', b'\n']) => return Some(i + 3),
                Some([b'\n', _]) => return Some(i + 2),
                _ => {}
            }
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(i + 2);
            }
        }
        i += 1;
    }
    None
}

/// Parse request line + headers of `window[..head_len]` into a
/// [`Frame`]. Allocation-free on success: method and path are recorded
/// as byte ranges (offsets into `window`), header names are matched with
/// `eq_ignore_ascii_case` instead of lowercased copies, and only the
/// error paths build `String`s.
fn parse_head(window: &[u8], head_len: usize) -> Result<Frame, HttpError> {
    let head = std::str::from_utf8(&window[..head_len])
        .map_err(|_| HttpError::Malformed("head is not utf-8".into()))?;
    let base = head.as_ptr() as usize;
    // Byte offset of a head substring within `window`.
    let range_of = |s: &str| {
        let start = s.as_ptr() as usize - base;
        (start, start + s.len())
    };
    let mut lines = head.lines();
    let line = lines.next().unwrap_or_default();
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("request line {:?}", line.trim_end())));
    }

    let mut content_length: Option<usize> = None;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(HttpError::Malformed(format!("header {trimmed:?}")));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Strict digits only: `usize::parse` would accept `+7`,
            // and a lenient parse here invites smuggling mismatches
            // with any stricter intermediary.
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Malformed(format!("content-length {value:?}")));
            }
            let n = value
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("content-length {value:?}")))?;
            // Duplicate headers must agree; conflicting duplicates are
            // the classic request-smuggling vector.
            if content_length.is_some_and(|prev| prev != n) {
                return Err(HttpError::Malformed("conflicting content-length".into()));
            }
            if n > MAX_BODY_BYTES {
                return Err(HttpError::TooLarge("body"));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            // Token-wise match: `Connection` is a comma-separated
            // token list, and substring matching would treat e.g.
            // `not-close` as a close request.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }
    Ok(Frame {
        method: Method::classify(method.as_bytes()),
        method_range: range_of(method),
        path_range: range_of(path),
        head_len,
        body_len: content_length.unwrap_or(0),
        close,
    })
}

/// Static head template for the overwhelmingly common response shape,
/// up to the Content-Length digits.
const HEAD_200_PREFIX: &[u8] =
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: ";
const HEAD_TAIL_KEEPALIVE: &[u8] = b"\r\nConnection: keep-alive\r\n\r\n";
const HEAD_TAIL_CLOSE: &[u8] = b"\r\nConnection: close\r\n\r\n";

/// Append one decimal integer to a growable in-memory buffer without
/// going through `format!` (stack digits, one `write_all`).
fn write_decimal<W: std::io::Write>(out: &mut W, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let _ = out.write_all(&digits[i..]);
}

/// Render a response (head + JSON body) into a reusable buffer —
/// `Vec<u8>` or the event loop's per-connection `VecDeque<u8>` — with
/// static head templates and integer fast-format: zero heap allocations
/// beyond what `out` itself may grow. Byte-identical to the `format!`
/// rendering this replaces.
///
/// Writes to in-memory buffers are infallible, so errors are ignored and
/// the signature stays `()`.
pub fn render_response_into<W: std::io::Write>(
    out: &mut W,
    status: u16,
    reason: &str,
    body: &[u8],
    close: bool,
) {
    if status == 200 && reason == "OK" {
        let _ = out.write_all(HEAD_200_PREFIX);
    } else {
        let _ = out.write_all(b"HTTP/1.1 ");
        write_decimal(out, u64::from(status));
        let _ = out.write_all(b" ");
        let _ = out.write_all(reason.as_bytes());
        let _ = out.write_all(b"\r\nContent-Type: application/json\r\nContent-Length: ");
    }
    write_decimal(out, body.len() as u64);
    let _ = out.write_all(if close { HEAD_TAIL_CLOSE } else { HEAD_TAIL_KEEPALIVE });
    let _ = out.write_all(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request taken off a parser, with owned fields.
    #[derive(Debug, PartialEq, Eq)]
    struct Parsed {
        method: Vec<u8>,
        path: Vec<u8>,
        body: Vec<u8>,
        close: bool,
    }

    /// Peek and consume the frontmost request, if fully buffered.
    fn take(p: &mut RequestParser) -> Result<Option<Parsed>, HttpError> {
        let Some(f) = p.peek()? else { return Ok(None) };
        let win = p.window();
        let req = Parsed {
            method: f.method_bytes(win).to_vec(),
            path: f.path_bytes(win).to_vec(),
            body: f.body(win).to_vec(),
            close: f.close,
        };
        p.consume(f.wire_len());
        Ok(Some(req))
    }

    /// Parse a full byte sequence through the incremental parser.
    fn parse_whole(input: &[u8]) -> Result<Option<Parsed>, HttpError> {
        let mut p = RequestParser::new();
        p.push(input);
        take(&mut p)
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse_whole(b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, b"POST");
        assert_eq!(req.path, b"/predict");
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn honors_connection_close_and_http10() {
        let req =
            parse_whole(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(req.close);
        let req = parse_whole(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(req.close);
    }

    #[test]
    fn connection_matching_is_token_wise() {
        // `not-close` must NOT be read as a close request (the old
        // substring match did exactly that).
        let req = parse_whole(b"GET / HTTP/1.1\r\nConnection: not-close\r\n\r\n").unwrap().unwrap();
        assert!(!req.close);
        // ...but a close token anywhere in the list counts.
        let req =
            parse_whole(b"GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n").unwrap().unwrap();
        assert!(req.close);
        // HTTP/1.0 + explicit keep-alive token stays open.
        let req =
            parse_whole(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap().unwrap();
        assert!(!req.close);
    }

    #[test]
    fn malformed_request_line_errors() {
        assert!(matches!(parse_whole(b"NONSENSE\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse_whole(b"GET /x SPDY/99\r\n\r\n"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn content_length_is_strict_digits() {
        // `usize::parse` would happily accept `+7`; we must not.
        for bad in ["+7", " 7 x", "0x10", "7.0", ""] {
            let head = format!("POST /p HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n1234567");
            assert!(
                matches!(parse_whole(head.as_bytes()), Err(HttpError::Malformed(_))),
                "content-length {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn conflicting_duplicate_content_length_is_rejected() {
        let err = parse_whole(
            b"POST /p HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 8\r\n\r\n12345678",
        )
        .err();
        assert_eq!(err, Some(HttpError::Malformed("conflicting content-length".into())));
        // Duplicates that agree are legal (RFC 9112 permits coalescing).
        let req = parse_whole(
            b"POST /p HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn oversized_declarations_are_rejected() {
        let huge = format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(parse_whole(huge.as_bytes()).err(), Some(HttpError::TooLarge("body")));
        let mut head = String::from("GET /p HTTP/1.1\r\n");
        for i in 0..2000 {
            head.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(64)));
        }
        head.push_str("\r\n");
        assert_eq!(parse_whole(head.as_bytes()).err(), Some(HttpError::TooLarge("header")));
    }

    #[test]
    fn parser_accepts_byte_at_a_time_delivery() {
        let wire = b"POST /predict HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let mut p = RequestParser::new();
        for (i, b) in wire.iter().enumerate() {
            assert_eq!(take(&mut p).unwrap(), None, "complete before byte {i}?");
            p.push(std::slice::from_ref(b));
        }
        let req = take(&mut p).unwrap().unwrap();
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(!p.has_partial(), "buffer fully consumed");
    }

    #[test]
    fn request_split_mid_header_or_before_body_parses_once_complete() {
        let split = |first: &[u8], rest: &[u8]| {
            let mut p = RequestParser::new();
            p.push(first);
            assert_eq!(take(&mut p).unwrap(), None);
            assert!(p.has_partial());
            p.push(rest);
            let req = take(&mut p).unwrap().expect("complete after the second push");
            assert!(!p.has_partial());
            req
        };
        let req = split(b"POST /p HTTP/1.1\r\nContent-Length: 7\r\n\r\n", b"{\"a\":1}");
        assert_eq!(req.body, b"{\"a\":1}");
        let req = split(b"GET /healthz HTTP/1.1\r\nX-Slow", b"-Header: 1\r\n\r\n");
        assert_eq!(req.path, b"/healthz");
    }

    #[test]
    fn parser_keeps_pipelined_surplus() {
        let mut p = RequestParser::new();
        p.push(b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(take(&mut p).unwrap().unwrap().path, b"/healthz");
        assert_eq!(take(&mut p).unwrap().unwrap().path, b"/metrics");
        assert_eq!(take(&mut p).unwrap(), None);
    }

    #[test]
    fn render_into_matches_legacy_format_rendering() {
        for (status, reason, body, close) in [
            (200, "OK", "{\"rate\":12.5}", false),
            (200, "OK", "", true),
            (404, "Not Found", "{\"error\":\"no route GET /x\"}", false),
            (503, "Service Unavailable", "{\"error\":\"overloaded\"}", true),
        ] {
            let expected = format!(
                "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: {}\r\n\r\n{body}",
                body.len(),
                if close { "close" } else { "keep-alive" },
            );
            let mut out = Vec::new();
            render_response_into(&mut out, status, reason, body.as_bytes(), close);
            assert_eq!(out, expected.as_bytes(), "render mismatch for {status} {reason}");
        }
    }

    #[test]
    fn peek_exposes_byte_ranges_and_consume_advances() {
        let mut p = RequestParser::new();
        p.push(
            b"POST /predict HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}GET /h HTTP/1.1\r\n\r\n",
        );
        let f = p.peek().unwrap().unwrap();
        assert_eq!(f.method, Method::Post);
        let win = p.window();
        assert_eq!(f.method_bytes(win), b"POST");
        assert_eq!(f.path_bytes(win), b"/predict");
        assert_eq!(f.body(win), b"{\"a\":1}");
        // Peeking is idempotent: nothing consumed yet.
        assert_eq!(p.peek().unwrap().unwrap(), f);
        p.consume(f.wire_len());
        let f2 = p.peek().unwrap().unwrap();
        assert_eq!(f2.method, Method::Get);
        assert_eq!(f2.path_bytes(p.window()), b"/h");
        assert_eq!(f2.body(p.window()), b"");
        p.consume(f2.wire_len());
        assert!(!p.has_partial());
        assert_eq!(p.peek().unwrap(), None);
    }

    #[test]
    fn push_compacts_consumed_prefix_without_losing_tail() {
        let mut p = RequestParser::new();
        // One large request (consumed) followed by a partial head, then
        // pushes that trigger compaction.
        let pad = "z".repeat(8 * 1024);
        let big = format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n{pad}", pad.len());
        p.push(big.as_bytes());
        p.push(b"GET /next HT");
        let f = p.peek().unwrap().unwrap();
        p.consume(f.wire_len());
        assert!(p.has_partial());
        p.push(b"TP/1.1\r\n\r\n");
        let req = take(&mut p).unwrap().unwrap();
        assert_eq!(req.path, b"/next");
        assert!(!p.has_partial());
    }
}

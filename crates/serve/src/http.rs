//! Incremental HTTP/1.1 request parsing and response rendering.
//!
//! Only what the query API needs: `GET`/`HEAD`, a path + query target, and
//! the connection-management headers (`connection`, `content-length`,
//! `transfer-encoding`). There are **no blocking socket reads here** — the
//! epoll reactor (the `reactor` module) accumulates whatever bytes a
//! non-blocking read yielded into a per-connection buffer and feeds it to
//! [`parse_head`], which either asks for more bytes ([`Feed::Incomplete`]),
//! returns a complete head plus how many buffer bytes it consumed (so
//! pipelined requests parse back-to-back from one buffer), or fails with a
//! structured [`HttpError`] → the caller renders a JSON 4xx and closes.
//!
//! Reassembly is transparent: parsing a head from bytes that arrived one
//! byte at a time is byte-for-byte identical to parsing it from a single
//! buffer (gated by unit tests here and a proptest in
//! `tests/integration_reactor.rs`).
//!
//! Responses always carry `content-length` plus an explicit `connection:
//! keep-alive` or `connection: close` reflecting the actual disposition.

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parse-level failure with the status it should produce.
#[derive(Clone, Debug, PartialEq)]
pub struct HttpError {
    /// Status code (400, 405, 414, 431, 505…).
    pub status: u16,
    /// Machine-readable code.
    pub code: &'static str,
    /// Human detail.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            code,
            message: message.into(),
        }
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// `GET` or `HEAD`.
    pub method: String,
    /// Decoded path component (no query).
    pub path: String,
    /// Raw query string (after `?`, may be empty).
    pub query: String,
}

/// One complete request head parsed out of a connection buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedHead {
    /// The request line.
    pub req: Request,
    /// Whether the client permits connection reuse after this exchange
    /// (HTTP/1.1 defaults to yes, HTTP/1.0 to no; an explicit `connection`
    /// header overrides either way).
    pub keep_alive: bool,
    /// Bytes of the input buffer this head consumed, including the blank
    /// line. The next pipelined request begins here.
    pub consumed: usize,
}

/// Result of feeding buffered bytes to the parser.
#[derive(Clone, Debug, PartialEq)]
pub enum Feed {
    /// No complete head yet; read more bytes and call again.
    Incomplete,
    /// A complete head (there may be more requests after `consumed`).
    Parsed(ParsedHead),
}

/// Incrementally parse one request head from the front of `buf`.
///
/// Stateless over the buffer: callers re-feed the same (growing) buffer
/// until it holds a full head, then drain `consumed` bytes. Errors are
/// terminal for the connection — the buffer contents after a malformed head
/// are untrustworthy, so the caller answers the error and closes.
pub fn parse_head(buf: &[u8]) -> Result<Feed, HttpError> {
    let Some((head_end, sep_len)) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(
                431,
                "head_too_large",
                "request head over 8 KiB",
            ));
        }
        return Ok(Feed::Incomplete);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::new(
            431,
            "head_too_large",
            "request head over 8 KiB",
        ));
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::new(400, "bad_encoding", "request head is not UTF-8"))?;
    let mut lines = head.lines();
    let (req, mut keep_alive) = parse_request_line(lines.next().unwrap_or(""))?;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            // Tolerate stray header-less lines (telnet users); they carry
            // nothing we act on.
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            let n: u64 = value.parse().map_err(|_| {
                HttpError::new(
                    400,
                    "bad_content_length",
                    format!("unparsable content-length {value:?}"),
                )
            })?;
            if n > 0 {
                return Err(HttpError::new(
                    400,
                    "body_not_supported",
                    "request bodies are not accepted; the API is GET/HEAD only",
                ));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::new(
                400,
                "body_not_supported",
                "transfer-encoding is not accepted; the API is GET/HEAD only",
            ));
        }
    }
    Ok(Feed::Parsed(ParsedHead {
        req,
        keep_alive,
        consumed: head_end + sep_len,
    }))
}

/// Find the head terminator: byte offset where the head ends plus the
/// terminator's length. Accepts `\r\n\r\n` or (leniently, for telnet and
/// printf-style test clients) a bare `\n\n` — whichever comes first.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let crlf = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| (p, 4));
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|p| (p, 2));
    match (crlf, lf) {
        (Some(c), Some(l)) => Some(if c.0 <= l.0 { c } else { l }),
        (c, l) => c.or(l),
    }
}

/// Parse `GET /path?query HTTP/1.1` → the request plus the version's
/// default keep-alive disposition (1.1 persistent, 1.0 one-shot).
pub fn parse_request_line(line: &str) -> Result<(Request, bool), HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::new(
            400,
            "bad_request_line",
            format!("malformed request line {line:?}"),
        ));
    };
    if method.is_empty() || target.is_empty() {
        return Err(HttpError::new(
            400,
            "bad_request_line",
            "empty method or target",
        ));
    }
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::new(
            505,
            "bad_version",
            format!("unsupported version {version:?}"),
        ));
    }
    if !matches!(method, "GET" | "HEAD") {
        return Err(HttpError::new(
            405,
            "method_not_allowed",
            format!("method {method} not allowed; use GET"),
        ));
    }
    if target.len() > 4096 {
        return Err(HttpError::new(
            414,
            "uri_too_long",
            "request target over 4096 bytes",
        ));
    }
    if !target.starts_with('/') {
        return Err(HttpError::new(
            400,
            "bad_target",
            format!("target {target:?} must be absolute"),
        ));
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Ok((
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
        },
        version == "HTTP/1.1",
    ))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// Render a response head. `content_type` is the media type
/// (`application/json` everywhere except the Prometheus text exposition);
/// `keep_alive` selects the `connection:` disposition the reactor actually
/// applies after flushing.
pub fn render_head(
    status: u16,
    body_len: usize,
    cache_state: Option<&str>,
    content_type: &str,
    keep_alive: bool,
) -> String {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {body_len}\r\nconnection: {}\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(state) = cache_state {
        head.push_str("x-cache: ");
        head.push_str(state);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Render a full response (head + body) into one owned buffer. `head_only`
/// elides the body (HEAD requests) while `content-length` still reflects
/// the would-be body.
pub fn render_response(
    status: u16,
    body: &str,
    cache_state: Option<&str>,
    content_type: &str,
    keep_alive: bool,
    head_only: bool,
) -> Vec<u8> {
    let head = render_head(status, body.len(), cache_state, content_type, keep_alive);
    let mut out = Vec::with_capacity(head.len() + if head_only { 0 } else { body.len() });
    out.extend_from_slice(head.as_bytes());
    if !head_only {
        out.extend_from_slice(body.as_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_target_with_query() {
        let (r, ka) =
            parse_request_line("GET /v1/characterize?domain=wordlm HTTP/1.1").expect("ok");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/characterize");
        assert_eq!(r.query, "domain=wordlm");
        assert!(ka, "HTTP/1.1 defaults to keep-alive");
        let (r, ka) = parse_request_line("HEAD / HTTP/1.0").expect("ok");
        assert_eq!(r.method, "HEAD");
        assert_eq!(r.query, "");
        assert!(!ka, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn malformed_request_lines_are_structured_errors() {
        assert_eq!(parse_request_line("").unwrap_err().status, 400);
        assert_eq!(parse_request_line("GET").unwrap_err().status, 400);
        assert_eq!(parse_request_line("GET /").unwrap_err().status, 400);
        assert_eq!(
            parse_request_line("GET / HTTP/1.1 extra")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse_request_line("POST / HTTP/1.1").unwrap_err().status,
            405
        );
        assert_eq!(parse_request_line("GET / SPDY/9").unwrap_err().status, 505);
        assert_eq!(
            parse_request_line("GET noslash HTTP/1.1")
                .unwrap_err()
                .status,
            400
        );
        let long = format!("GET /{} HTTP/1.1", "a".repeat(5000));
        assert_eq!(parse_request_line(&long).unwrap_err().status, 414);
    }

    #[test]
    fn head_end_detection_handles_both_line_endings() {
        assert!(find_head_end(b"GET / HTTP/1.1\r\n\r\n").is_some());
        assert!(find_head_end(b"GET / HTTP/1.1\n\n").is_some());
        assert!(find_head_end(b"GET / HTTP/1.1\r\n").is_none());
        // Whichever terminator comes first wins.
        assert_eq!(find_head_end(b"a\n\nb\r\n\r\n"), Some((1, 2)));
        assert_eq!(find_head_end(b"a\r\n\r\nb\n\n"), Some((1, 4)));
    }

    #[test]
    fn incremplete_feeds_ask_for_more_until_the_head_lands() {
        let wire = b"GET /v1/healthz HTTP/1.1\r\nhost: t\r\n\r\n";
        for split in 0..wire.len() {
            let fed = parse_head(&wire[..split]).expect("prefix parses or waits");
            assert_eq!(fed, Feed::Incomplete, "split at {split}");
        }
        match parse_head(wire).expect("full head") {
            Feed::Parsed(head) => {
                assert_eq!(head.req.path, "/v1/healthz");
                assert_eq!(head.consumed, wire.len());
                assert!(head.keep_alive);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn split_at_every_byte_boundary_equals_single_buffer_parse() {
        // Reassembling from two fragments must match the one-shot parse for
        // every possible split point — the reactor's partial-read contract.
        let wire = b"GET /v1/sweep?points=3 HTTP/1.1\r\nconnection: close\r\nhost: x\r\n\r\nGET";
        let whole = parse_head(wire).expect("whole parses");
        for split in 0..=wire.len() {
            let mut buf = Vec::new();
            buf.extend_from_slice(&wire[..split]);
            let first = parse_head(&buf).expect("prefix never errors");
            buf.extend_from_slice(&wire[split..]);
            let rejoined = parse_head(&buf).expect("rejoined parses");
            assert_eq!(rejoined, whole, "split at {split}");
            if let Feed::Parsed(ref head) = first {
                // If the prefix already held the whole head, it must agree.
                assert_eq!(Feed::Parsed(head.clone()), whole, "early split {split}");
            }
        }
        match whole {
            Feed::Parsed(head) => {
                assert!(!head.keep_alive, "explicit close honored");
                // Trailing pipelined bytes are not consumed.
                assert_eq!(&wire[head.consumed..], b"GET");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipelined_heads_parse_back_to_back() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b?x=1 HTTP/1.1\r\nconnection: close\r\n\r\n";
        let mut buf = wire.to_vec();
        let Feed::Parsed(first) = parse_head(&buf).expect("first") else {
            panic!("first incomplete");
        };
        assert_eq!(first.req.path, "/a");
        assert!(first.keep_alive);
        buf.drain(..first.consumed);
        let Feed::Parsed(second) = parse_head(&buf).expect("second") else {
            panic!("second incomplete");
        };
        assert_eq!(second.req.path, "/b");
        assert_eq!(second.req.query, "x=1");
        assert!(!second.keep_alive);
        assert_eq!(second.consumed, buf.len());
    }

    #[test]
    fn connection_header_overrides_version_default() {
        let ka = |wire: &[u8]| match parse_head(wire).expect("parses") {
            Feed::Parsed(head) => head.keep_alive,
            other => panic!("unexpected {other:?}"),
        };
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nconnection: x, close\r\n\r\n"));
    }

    #[test]
    fn oversized_heads_and_bodies_are_rejected() {
        // Head over the cap without a terminator: reject as soon as the
        // buffer exceeds the bound, not only at a terminator.
        let mut huge = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        huge.extend(std::iter::repeat_n(b'x', MAX_HEAD_BYTES + 1));
        assert_eq!(parse_head(&huge).unwrap_err().status, 431);
        // A declared request body is a structured 400.
        let body = b"GET / HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        let err = parse_head(body).unwrap_err();
        assert_eq!((err.status, err.code), (400, "body_not_supported"));
        let chunked = b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        assert_eq!(parse_head(chunked).unwrap_err().code, "body_not_supported");
        let bad = b"GET / HTTP/1.1\r\ncontent-length: banana\r\n\r\n";
        assert_eq!(parse_head(bad).unwrap_err().code, "bad_content_length");
        // content-length: 0 is harmless.
        let empty = b"GET / HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
        assert!(matches!(parse_head(empty), Ok(Feed::Parsed(_))));
    }

    #[test]
    fn rendered_heads_reflect_the_disposition() {
        let ka = render_head(200, 2, Some("hit"), "application/json", true);
        assert!(ka.contains("connection: keep-alive\r\n"), "{ka}");
        assert!(ka.contains("x-cache: hit\r\n"), "{ka}");
        assert!(ka.contains("content-length: 2\r\n"), "{ka}");
        let close = render_head(400, 10, None, "application/json", false);
        assert!(close.contains("connection: close\r\n"), "{close}");
        assert!(!close.contains("x-cache"), "{close}");
        let head_only = render_response(200, "body", None, "application/json", true, true);
        assert!(!head_only.ends_with(b"body"), "HEAD elides the body");
        assert!(String::from_utf8(head_only)
            .expect("utf8")
            .contains("content-length: 4"));
    }
}

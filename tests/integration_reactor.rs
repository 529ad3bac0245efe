//! End-to-end tests of the epoll reactor front end: HTTP/1.1 keep-alive
//! connection reuse, pipelined requests on one connection, error-close
//! policy, version-default negotiation, reactor metrics exposure, and a
//! property check that incremental parsing over arbitrary splits agrees
//! with single-buffer parsing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use obs::Json;
use proptest::prelude::*;
use serve::http::{self, Feed};
use serve::{ServeConfig, Server};

/// Boot a server on an ephemeral port with small limits suited to tests.
fn test_server() -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        cache_entries: 64,
        queue_depth: 64,
        deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

/// A keep-alive test client: one connection, `content-length`-framed reads.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One framed response off a persistent connection.
struct Reply {
    status: u16,
    body: String,
    close: bool,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, request: &str) {
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
    }

    fn get(&mut self, path: &str) -> Reply {
        self.send(&format!("GET {path} HTTP/1.1\r\nhost: test\r\n\r\n"));
        self.read_reply()
    }

    fn read_reply(&mut self) -> Reply {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill().expect("response head");
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("UTF-8 head");
        let body_start = head_end + 4;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .and_then(|v| v.parse().ok())
            .expect("content-length header");
        let close = head
            .lines()
            .any(|l| l.eq_ignore_ascii_case("connection: close"));
        while self.buf.len() < body_start + content_length {
            self.fill().expect("response body");
        }
        let body = String::from_utf8(self.buf[body_start..body_start + content_length].to_vec())
            .expect("UTF-8 body");
        self.buf.drain(..body_start + content_length);
        Reply {
            status,
            body,
            close,
        }
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 8192];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("eof".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// True when the server has closed its side (read returns EOF).
    fn at_eof(&mut self) -> bool {
        let mut byte = [0u8; 1];
        matches!(self.stream.read(&mut byte), Ok(0))
    }
}

#[test]
fn one_connection_serves_many_requests() {
    let server = test_server();
    let mut client = Client::connect(server.local_addr());
    for i in 0..8 {
        let reply = client.get("/v1/healthz");
        assert_eq!(reply.status, 200, "request {i}: {}", reply.body);
        assert!(!reply.close, "request {i} must not close a 1.1 connection");
        let doc = Json::parse(&reply.body).expect("healthz JSON");
        assert!(matches!(doc, Json::Obj(_)));
    }
    // The reactor finalizes a response (and bumps these counters) just
    // after the writev that delivers it, so the client can observe the
    // response a beat before the counters move: poll briefly.
    let state = server.state();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let reuses = loop {
        let reuses = state
            .reactor
            .keepalive_reuses
            .load(std::sync::atomic::Ordering::Relaxed);
        if reuses >= 7 || std::time::Instant::now() > deadline {
            break reuses;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        reuses >= 7,
        "eight requests on one connection are seven reuses, got {reuses}"
    );
    assert_eq!(state.metrics.requests.value(), 8);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = test_server();
    let mut client = Client::connect(server.local_addr());
    // Three distinguishable requests written before any response is read.
    client.send(concat!(
        "GET /v1/healthz HTTP/1.1\r\nhost: test\r\n\r\n",
        "GET /v1 HTTP/1.1\r\nhost: test\r\n\r\n",
        "GET /v1/metrics HTTP/1.1\r\nhost: test\r\n\r\n",
    ));
    let first = client.read_reply();
    let second = client.read_reply();
    let third = client.read_reply();
    assert_eq!(first.status, 200);
    assert!(first.body.contains("\"uptime_seconds\""), "{}", first.body);
    assert!(first.body.contains("\"status\""), "{}", first.body);
    assert_eq!(second.status, 200);
    assert!(second.body.contains("\"endpoints\""), "{}", second.body);
    assert_eq!(third.status, 200);
    assert!(third.body.contains("\"reactor\""), "{}", third.body);
}

#[test]
fn error_responses_close_the_connection() {
    let server = test_server();
    let mut client = Client::connect(server.local_addr());
    let reply = client.get("/v1/nonexistent");
    assert_eq!(reply.status, 404);
    assert!(reply.close, "4xx must carry connection: close");
    assert!(client.at_eof(), "server must actually close after an error");
}

#[test]
fn http_10_defaults_to_close_and_header_overrides() {
    let server = test_server();
    let addr = server.local_addr();

    // HTTP/1.0 without a connection header: one-shot.
    let mut client = Client::connect(addr);
    client.send("GET /v1/healthz HTTP/1.0\r\nhost: test\r\n\r\n");
    let reply = client.read_reply();
    assert_eq!(reply.status, 200);
    assert!(reply.close, "1.0 defaults to close");
    assert!(client.at_eof());

    // HTTP/1.0 with an explicit keep-alive: persistent.
    let mut client = Client::connect(addr);
    client.send("GET /v1/healthz HTTP/1.0\r\nhost: test\r\nconnection: keep-alive\r\n\r\n");
    let reply = client.read_reply();
    assert_eq!(reply.status, 200);
    assert!(
        !reply.close,
        "explicit keep-alive overrides the 1.0 default"
    );
    let again = client.get("/v1/healthz");
    assert_eq!(again.status, 200, "connection stayed usable");

    // HTTP/1.1 with an explicit close: one-shot.
    let mut client = Client::connect(addr);
    client.send("GET /v1/healthz HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n");
    let reply = client.read_reply();
    assert!(reply.close, "explicit close overrides the 1.1 default");
    assert!(client.at_eof());
}

#[test]
fn reactor_metrics_surface_in_both_expositions() {
    let server = test_server();
    let mut client = Client::connect(server.local_addr());
    for _ in 0..3 {
        assert_eq!(client.get("/v1/healthz").status, 200);
    }
    // JSON exposition: the reactor section reflects this live connection.
    let reply = client.get("/v1/metrics");
    let doc = Json::parse(&reply.body).expect("metrics JSON");
    let connections = doc
        .get("reactor")
        .and_then(|r| r.get("connections_open"))
        .and_then(Json::as_f64)
        .expect("reactor.connections_open");
    assert!(connections >= 1.0, "this very connection is open");
    let reuses = doc
        .get("reactor")
        .and_then(|r| r.get("keepalive_reuses"))
        .and_then(Json::as_f64)
        .expect("reactor.keepalive_reuses");
    // Rendered mid-request: responses 2 and 3 have flushed as reuses; the
    // metrics response itself only becomes the third reuse after this body
    // is already serialized.
    assert!(reuses >= 2.0, "got {reuses} reuses");
    // Prometheus exposition: the serve_* series render with values.
    let scrape = client.get("/metrics");
    for series in [
        "serve_connections_open",
        "serve_keepalive_reuses_total",
        "serve_bytes_cache_hits_total",
        "serve_bytes_cache_misses_total",
        "serve_epoll_wakeups_total",
    ] {
        assert!(
            scrape.body.contains(series),
            "missing {series} in /metrics:\n{}",
            scrape.body
        );
    }
}

#[test]
fn graceful_shutdown_drains_keepalive_connections() {
    let mut server = test_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    assert_eq!(client.get("/v1/healthz").status, 200);
    server.shutdown();
    // The draining reactor closes the idle connection and refuses new ones.
    assert!(
        client.at_eof(),
        "idle keep-alive connection closed on drain"
    );
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_err(),
        "listener is gone after shutdown"
    );
}

/// A realistic pipelined byte stream for the parser property below.
const PIPELINED: &[u8] = b"GET /v1/healthz HTTP/1.1\r\nhost: a\r\n\r\nGET /v1/characterize?domain=wordlm HTTP/1.0\r\nconnection: keep-alive\r\n\r\nHEAD /v1/metrics HTTP/1.1\r\nconnection: close\r\n\r\n";

/// Parse every complete head out of a buffer fed in `chunks`-sized pieces,
/// mirroring the reactor's accumulate-and-reparse loop.
fn incremental_parse(stream: &[u8], splits: &[usize]) -> Vec<(String, String, bool)> {
    let mut buf: Vec<u8> = Vec::new();
    let mut out = Vec::new();
    let mut cursor = 0;
    let mut feed_points: Vec<usize> = splits.to_vec();
    feed_points.push(stream.len());
    for point in feed_points {
        let point = point.min(stream.len());
        if point <= cursor {
            continue;
        }
        buf.extend_from_slice(&stream[cursor..point]);
        cursor = point;
        while let Ok(Feed::Parsed(head)) = http::parse_head(&buf) {
            buf.drain(..head.consumed);
            out.push((head.req.method, head.req.path, head.keep_alive));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding the byte stream in arbitrary fragments yields exactly the
    /// parse a single whole-buffer feed yields.
    #[test]
    fn reassembled_parse_equals_single_buffer_parse(
        mut splits in proptest::collection::vec(0usize..PIPELINED.len(), 0..6)
    ) {
        splits.sort_unstable();
        let whole = incremental_parse(PIPELINED, &[]);
        prop_assert_eq!(whole.len(), 3);
        let pieces = incremental_parse(PIPELINED, &splits);
        prop_assert_eq!(whole, pieces);
    }
}

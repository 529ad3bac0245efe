//! Byte-identity tests for the response-bytes cache: a warm hit served
//! straight from pre-serialized bytes must be indistinguishable from a
//! fresh serialization — byte-identical body, head differing only in its
//! `x-cache` disposition — across every cacheable endpoint. Also pins the
//! admission policy (debug requests never enter the bytes cache) and the
//! HEAD/GET consistency of cached entries.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use serve::{ServeConfig, Server};

/// Every memoized (bytes-cacheable) endpoint, with representative queries.
const CACHEABLE: &[&str] = &[
    "/v1/characterize?domain=wordlm&subbatch=16",
    "/v1/characterize?domain=nmt&subbatch=32",
    "/v1/sweep?domain=charlm&lo=1000000&hi=8000000&points=3&subbatch=8",
    "/v1/project?domain=speech",
    "/v1/subbatch?domain=charlm&params=10000000",
    "/v1/plan?domain=resnet&accels=16384",
    "/v1/plan/search?domain=resnet&accels=4096",
    "/v1/infer/characterize?batch=64&prompt=512&context=1024",
    "/v1/infer/sweep?batch=1,4&context=512,2048",
    "/v1/infer/plan?tpot_ms=50&ttft_ms=500&tokens_per_s=20000",
];

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

/// One exchange on a fresh connection; returns (status, head, body).
fn exchange(addr: SocketAddr, method: &str, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    stream
        .write_all(
            format!("{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

/// Head lines with the `x-cache` disposition removed (it is the one line
/// allowed to differ between a fresh render and a bytes-cache hit).
fn head_minus_cache_line(head: &str) -> Vec<String> {
    head.lines()
        .filter(|l| !l.starts_with("x-cache: "))
        .map(str::to_string)
        .collect()
}

fn x_cache(head: &str) -> Option<String> {
    head.lines()
        .find_map(|l| l.strip_prefix("x-cache: ").map(str::to_string))
}

#[test]
fn cached_bytes_are_identical_to_fresh_serialization_on_every_endpoint() {
    let server = test_server();
    let addr = server.local_addr();
    for path in CACHEABLE {
        let (cold_status, cold_head, cold_body) = exchange(addr, "GET", path);
        assert_eq!(cold_status, 200, "{path}: {cold_body}");
        assert_eq!(
            x_cache(&cold_head).as_deref(),
            Some("miss"),
            "{path}: first touch must be a miss"
        );
        let (warm_status, warm_head, warm_body) = exchange(addr, "GET", path);
        assert_eq!(warm_status, 200, "{path}: {warm_body}");
        assert_eq!(
            x_cache(&warm_head).as_deref(),
            Some("hit"),
            "{path}: repeat must hit"
        );
        assert_eq!(
            cold_body, warm_body,
            "{path}: zero-copy cached bytes must equal fresh serialization"
        );
        assert_eq!(
            head_minus_cache_line(&cold_head),
            head_minus_cache_line(&warm_head),
            "{path}: heads may differ only in x-cache"
        );
    }
    let state = server.state();
    let hits = state.reactor.bytes_cache_hits.load(Ordering::Relaxed);
    assert_eq!(
        hits,
        CACHEABLE.len() as u64,
        "every repeat was served from the bytes cache"
    );
    assert_eq!(
        state.cache.alias_count(),
        CACHEABLE.len(),
        "each endpoint admitted exactly one pre-serialized entry"
    );
}

#[test]
fn head_requests_serve_cached_metadata_without_the_body() {
    let server = test_server();
    let addr = server.local_addr();
    let path = "/v1/characterize?domain=wordlm&subbatch=16";
    let (_, _, get_body) = exchange(addr, "GET", path);
    // Warm HEAD: served from the bytes cache, body elided, length intact.
    let (status, head, body) = exchange(addr, "HEAD", path);
    assert_eq!(status, 200);
    assert_eq!(x_cache(&head).as_deref(), Some("hit"));
    assert!(body.is_empty(), "HEAD must not carry a body");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.parse().ok())
        .expect("content-length");
    assert_eq!(
        content_length,
        get_body.len(),
        "HEAD advertises the cached body's true length"
    );
}

#[test]
fn debug_requests_bypass_the_bytes_cache() {
    let server = test_server();
    let addr = server.local_addr();
    let path = "/v1/characterize?domain=wordlm&subbatch=16&debug=timings";
    let (status, _, body) = exchange(addr, "GET", path);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"timings_us\""),
        "debug body carries timings: {body}"
    );
    let (status, _, body) = exchange(addr, "GET", path);
    assert_eq!(status, 200, "{body}");
    let state = server.state();
    assert_eq!(
        state.reactor.bytes_cache_hits.load(Ordering::Relaxed),
        0,
        "debug responses are per-request and never served from bytes"
    );
    assert_eq!(
        state.cache.alias_count(),
        0,
        "debug responses are never admitted to the bytes cache"
    );
}

#[test]
fn two_spellings_of_one_query_share_one_cached_response() {
    let server = test_server();
    let addr = server.local_addr();
    let (status, first_head, first_body) =
        exchange(addr, "GET", "/v1/characterize?domain=wordlm&subbatch=16");
    assert_eq!(status, 200, "{first_body}");
    assert_eq!(x_cache(&first_head).as_deref(), Some("miss"));
    for _ in 0..2 {
        let (status, head, body) =
            exchange(addr, "GET", "/v1/characterize?subbatch=16&domain=wordlm");
        assert_eq!(status, 200, "{body}");
        assert_eq!(x_cache(&head).as_deref(), Some("hit"));
        assert_eq!(body, first_body, "reordered query answers the same bytes");
    }
    let state = server.state();
    assert_eq!(
        state.cache.stats.misses.load(Ordering::Relaxed),
        1,
        "the query-key layer computed once for both spellings"
    );
    assert_eq!(
        state.reactor.bytes_cache_hits.load(Ordering::Relaxed),
        1,
        "only the repeat of the second spelling hit by raw target"
    );
}

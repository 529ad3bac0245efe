//! End-to-end tests of the `serve` HTTP query server: boot on an ephemeral
//! port, hit every endpoint, and check the memoization contract — repeated
//! queries return byte-identical bodies from cache, concurrent identical
//! queries compute once, and hostile input gets structured errors, never a
//! crash.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use obs::Json;
use proptest::prelude::*;
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

/// Plain-text HTTP GET; returns (status, x-cache header, body).
fn get(addr: SocketAddr, path: &str) -> (u16, Option<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n").as_bytes(),
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
    let cache = head
        .lines()
        .find_map(|l| l.strip_prefix("x-cache: ").map(str::to_string));
    (status, cache, body.to_string())
}

/// Write raw bytes and read whatever comes back (for malformed-input tests).
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(bytes);
    let mut out = Vec::new();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).to_string()
}

#[test]
fn every_endpoint_returns_parsable_json() {
    let server = test_server();
    let addr = server.local_addr();
    let endpoints = [
        "/",
        "/v1/healthz",
        "/v1/characterize?domain=wordlm&subbatch=16",
        "/v1/sweep?domain=charlm&lo=1000000&hi=8000000&points=3&subbatch=8",
        "/v1/project?domain=resnet",
        "/v1/subbatch?domain=charlm&params=10000000",
        "/v1/plan?domain=resnet&accels=16384",
        "/v1/metrics",
    ];
    for path in endpoints {
        let (status, _, body) = get(addr, path);
        assert_eq!(status, 200, "{path}: {body}");
        let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{path}: bad JSON ({e}): {body}"));
        assert!(matches!(doc, Json::Obj(_)), "{path}: non-object body");
    }
    // The metrics endpoint saw all of the traffic above.
    let (_, _, body) = get(addr, "/v1/metrics");
    let doc = Json::parse(&body).expect("metrics JSON");
    let total = doc
        .path("requests.total")
        .and_then(Json::as_f64)
        .expect("total");
    assert!(total >= endpoints.len() as f64, "metrics counted {total}");
}

#[test]
fn repeated_query_is_a_cache_hit_with_identical_body() {
    let server = test_server();
    let addr = server.local_addr();
    let path = "/v1/characterize?domain=nmt&subbatch=32";
    let (s1, c1, b1) = get(addr, path);
    let (s2, c2, b2) = get(addr, path);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(c1.as_deref(), Some("miss"));
    assert_eq!(c2.as_deref(), Some("hit"));
    assert_eq!(b1, b2, "cached body must be byte-identical");
    // And the hit is visible in metrics.
    let (_, _, metrics) = get(addr, "/v1/metrics");
    let doc = Json::parse(&metrics).expect("metrics JSON");
    assert_eq!(doc.path("cache.hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(doc.path("cache.misses").and_then(Json::as_f64), Some(1.0));
}

#[test]
fn concurrent_identical_queries_compute_once() {
    let server = test_server();
    let addr = server.local_addr();
    let path = "/v1/subbatch?domain=wordlm&params=50000000";
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let (status, _, body) = get(addr, path);
                    assert_eq!(status, 200, "{body}");
                    body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "divergent bodies");
    // Single-flight: exactly one compute; everyone else hit or coalesced.
    let stats = &server.state().cache.stats;
    assert_eq!(stats.misses.load(Ordering::Relaxed), 1, "computed once");
    assert_eq!(
        stats.hits.load(Ordering::Relaxed) + stats.coalesced.load(Ordering::Relaxed),
        7,
        "other seven requests served from the flight or the cache"
    );
}

#[test]
fn sweep_grid_matches_brute_force_and_caches() {
    let server = test_server();
    let addr = server.local_addr();
    let path = "/v1/sweep?domain=nmt&lo=1000000&hi=9000000&points=3&subbatch=16";
    let (s1, c1, b1) = get(addr, path);
    let (s2, c2, b2) = get(addr, path);
    assert_eq!((s1, s2), (200, 200), "{b1}");
    assert_eq!(c1.as_deref(), Some("miss"));
    assert_eq!(c2.as_deref(), Some("hit"));
    assert_eq!(b1, b2, "cached grid must be byte-identical");
    let doc = Json::parse(&b1).expect("sweep JSON");
    let points = match doc.get("points") {
        Some(Json::Arr(points)) => points,
        other => panic!("points missing or not an array: {other:?}"),
    };
    assert_eq!(points.len(), 3);
    // The symbolic grid served over HTTP equals brute-force characterization
    // of the same configurations, bit for bit.
    let configs = modelzoo::sweep_configs(modelzoo::Domain::Nmt, 1_000_000, 9_000_000, 3);
    for (served, cfg) in points.iter().zip(&configs) {
        let expect = analysis::characterize(cfg, 16);
        assert_eq!(
            served.get("params").and_then(Json::as_f64),
            Some(expect.params)
        );
        assert_eq!(
            served.get("flops_per_step").and_then(Json::as_f64),
            Some(expect.flops_per_step)
        );
        assert_eq!(
            served.get("footprint_bytes").and_then(Json::as_f64),
            Some(expect.footprint_bytes)
        );
    }
    // Hostile grids are structured 400s.
    for bad in [
        "/v1/sweep?domain=nmt&lo=9000000&hi=1000000",
        "/v1/sweep?domain=nmt&points=1000",
        "/v1/sweep?domain=nmt&subbatch=0",
        "/v1/sweep?domain=nmt&lo=7",
    ] {
        let (status, _, body) = get(addr, bad);
        assert_eq!(status, 400, "{bad}: {body}");
    }
}

#[test]
fn characterize_matches_the_brute_force_oracle_on_every_domain() {
    // `/v1/characterize` is answered by the family engine; every field of
    // the served point must equal a fresh graph rebuild, bit for bit.
    let server = test_server();
    let addr = server.local_addr();
    let params = 3_000_000u64;
    for domain in modelzoo::Domain::ALL {
        let cfg = modelzoo::ModelConfig::default_for(domain).with_target_params(params);
        for subbatch in [8u64, 48] {
            let path = format!(
                "/v1/characterize?domain={}&params={params}&subbatch={subbatch}",
                domain.key()
            );
            let (status, _, body) = get(addr, &path);
            assert_eq!(status, 200, "{path}: {body}");
            let doc = Json::parse(&body).expect("characterize JSON");
            let expect = analysis::characterize(&cfg, subbatch);
            for (field, want) in [
                ("params", expect.params),
                ("flops_per_step", expect.flops_per_step),
                ("flops_per_sample", expect.flops_per_sample),
                ("bytes_per_step", expect.bytes_per_step),
                ("op_intensity", expect.op_intensity),
                ("footprint_bytes", expect.footprint_bytes),
                ("seq_len", expect.seq_len as f64),
            ] {
                let got = doc.path(&format!("point.{field}")).and_then(Json::as_f64);
                assert_eq!(got, Some(want), "{path}: {field}");
            }
        }
    }
}

#[test]
fn malformed_requests_get_structured_errors_and_never_kill_the_server() {
    let server = test_server();
    let addr = server.local_addr();
    let attacks: &[&[u8]] = &[
        b"BLARG\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET / HTTP/1.1 junk\r\n\r\n",
        b"POST /v1/healthz HTTP/1.1\r\n\r\n",
        b"GET /v1/healthz SPDY/9\r\n\r\n",
        b"GET noslash HTTP/1.1\r\n\r\n",
        b"\xff\xfe\x00\x01\r\n\r\n",
        b"GET /v1/characterize?domain=%zz HTTP/1.1\r\n\r\n",
        b"GET /v1/characterize?domain=wordlm&domain=nmt HTTP/1.1\r\n\r\n",
        b"GET /v1/characterize?domain=wordlm&subbatch=banana HTTP/1.1\r\n\r\n",
        b"GET /v1/characterize?domain=wordlm&subbatch=184467440737095516159999 HTTP/1.1\r\n\r\n",
        b"GET /v1/characterize?domain=wordlm&params=1 HTTP/1.1\r\n\r\n",
        b"GET /v1/plan?domain=wordlm&days=-4 HTTP/1.1\r\n\r\n",
        b"GET /v1/plan?domain=wordlm&days=nan HTTP/1.1\r\n\r\n",
        b"GET /v1/healthz?surprise=1 HTTP/1.1\r\n\r\n",
    ];
    for attack in attacks {
        let response = raw_exchange(addr, attack);
        let status: u16 = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                panic!(
                    "no status for {:?}: {response:?}",
                    String::from_utf8_lossy(attack)
                )
            });
        assert!(
            (400..=599).contains(&status),
            "{:?} -> {status}",
            String::from_utf8_lossy(attack)
        );
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
        let doc =
            Json::parse(body).unwrap_or_else(|e| panic!("unparsable error body ({e}): {body:?}"));
        assert!(
            doc.get("error").is_some(),
            "error body missing code: {body}"
        );
    }
    // Oversized request head.
    let mut huge = Vec::from(&b"GET /v1/healthz HTTP/1.1\r\n"[..]);
    huge.extend(std::iter::repeat_n(b'x', 10_000));
    let response = raw_exchange(addr, &huge);
    assert!(
        response.contains("431") || response.contains("414"),
        "{response:?}"
    );
    // A long query string (within URI bounds) is a structured 400.
    let long_query = format!(
        "GET /v1/characterize?domain={} HTTP/1.1\r\n\r\n",
        "x".repeat(3000)
    );
    let response = raw_exchange(addr, long_query.as_bytes());
    assert!(response.contains("query_too_long"), "{response:?}");

    // After all of that abuse the server still answers cleanly.
    let (status, _, body) = get(addr, "/v1/healthz");
    assert_eq!(status, 200, "{body}");
    let (_, _, metrics) = get(addr, "/v1/metrics");
    let doc = Json::parse(&metrics).expect("metrics JSON");
    // Exactly one 5xx: the 505 protocol rejection for the SPDY probe. Any
    // more would mean a handler turned hostile input into an internal error.
    assert_eq!(
        doc.path("requests.status_5xx").and_then(Json::as_f64),
        Some(1.0),
        "malformed input must never be an internal server error: {metrics}"
    );
}

#[test]
fn plan_search_returns_frontier_and_caches() {
    let server = test_server();
    let addr = server.local_addr();
    let path = "/v1/plan/search?domain=resnet&accel=v100,a100&micro=1,2&days=7";
    let (s1, c1, b1) = get(addr, path);
    let (s2, c2, b2) = get(addr, path);
    assert_eq!((s1, s2), (200, 200), "{b1}");
    assert_eq!(c1.as_deref(), Some("miss"));
    assert_eq!(c2.as_deref(), Some("hit"));
    assert_eq!(b1, b2, "cached search must be byte-identical");

    let doc = Json::parse(&b1).expect("search JSON");
    assert!(
        matches!(doc.get("feasible"), Some(Json::Bool(true))),
        "{b1}"
    );
    let pareto = match doc.get("pareto") {
        Some(Json::Arr(points)) => points,
        other => panic!("pareto missing or not an array: {other:?}"),
    };
    assert!(!pareto.is_empty(), "{b1}");
    let feasible_count = doc
        .path("feasible_count")
        .and_then(Json::as_f64)
        .expect("feasible_count");
    assert!(pareto.len() as f64 <= feasible_count);
    let considered = doc
        .path("stats.considered")
        .and_then(Json::as_f64)
        .expect("considered");
    let evaluated = doc
        .path("stats.evaluated")
        .and_then(Json::as_f64)
        .expect("evaluated");
    assert!(evaluated <= considered, "{b1}");

    // The served argmin is exactly what the library's own search returns
    // for the same request.
    let req = analysis::PlanSearchRequest {
        domain: modelzoo::Domain::ImageClassification,
        accels: vec![
            (
                "v100".into(),
                roofline::Accelerator::by_key("v100").expect("v100"),
            ),
            (
                "a100".into(),
                roofline::Accelerator::by_key("a100").expect("a100"),
            ),
        ],
        subbatches: vec![modelzoo::Domain::ImageClassification.default_subbatch()],
        microbatches: vec![1, 2],
        target_epoch_days: 7.0,
        max_total_accelerators: 16_384,
    };
    let expect = analysis::plan_search(&req).best.expect("library feasible");
    assert_eq!(
        doc.path("best.accel").and_then(Json::as_str),
        Some(expect.accel_key.as_str())
    );
    assert_eq!(
        doc.path("best.plan.total_accelerators")
            .and_then(Json::as_f64),
        Some(expect.plan.total_accelerators as f64)
    );
    assert_eq!(
        doc.path("best.plan.step_seconds").and_then(Json::as_f64),
        Some(expect.plan.step_seconds)
    );
    assert_eq!(
        doc.path("best.plan.epoch_days").and_then(Json::as_f64),
        Some(expect.plan.epoch_days)
    );
}

#[test]
fn plan_endpoint_is_a_restriction_of_plan_search() {
    // `/v1/plan` must be exactly `/v1/plan/search` restricted to the
    // server's reference accelerator, the domain default subbatch, and
    // micro=2 — same enumeration, bit-identical plan JSON.
    let server = test_server();
    let addr = server.local_addr();
    for query in [
        "domain=resnet&accels=4096&days=7",
        "domain=wordlm&accels=16384&days=30",
        "domain=nmt&accels=512&days=0.02",
    ] {
        let (s1, _, plan_body) = get(addr, &format!("/v1/plan?{query}"));
        let (s2, _, search_body) =
            get(addr, &format!("/v1/plan/search?{query}&accel=v100&micro=2"));
        assert_eq!((s1, s2), (200, 200), "{query}: {plan_body} {search_body}");
        let plan_doc = Json::parse(&plan_body).expect("plan JSON");
        let search_doc = Json::parse(&search_body).expect("search JSON");
        assert_eq!(
            plan_doc.get("feasible"),
            search_doc.get("feasible"),
            "{query}"
        );
        let plan = plan_doc.get("plan").expect("plan field");
        match search_doc.path("best.plan") {
            Some(best) => assert_eq!(plan.render(), best.render(), "{query}"),
            None => assert!(matches!(plan, Json::Null), "{query}: {plan_body}"),
        }
    }
}

#[test]
fn plan_search_rejects_hostile_grids_with_structured_400s() {
    let server = test_server();
    let addr = server.local_addr();
    let rejects = [
        (
            "/v1/plan/search?domain=resnet&accel=k80",
            "unknown_accelerator",
        ),
        (
            "/v1/plan/search?domain=resnet&accel=v100,v100",
            "bad_parameter",
        ),
        (
            "/v1/plan/search?domain=resnet&accel=",
            "unknown_accelerator",
        ),
        ("/v1/plan/search?domain=resnet&subbatch=0", "bad_parameter"),
        (
            "/v1/plan/search?domain=resnet&subbatch=banana",
            "bad_parameter",
        ),
        (
            "/v1/plan/search?domain=resnet&subbatch=184467440737095516159999",
            "bad_parameter",
        ),
        ("/v1/plan/search?domain=resnet&micro=4,4", "bad_parameter"),
        (
            "/v1/plan/search?domain=resnet&micro=99999999",
            "bad_parameter",
        ),
        (
            "/v1/plan/search?domain=resnet&micro=1,2,3,4,5,6,7,8,9",
            "grid_too_large",
        ),
        (
            "/v1/plan/search?domain=resnet&subbatch=1,2,4,8,16&micro=1,2,4,8",
            "grid_too_large",
        ),
        ("/v1/plan/search?domain=resnet&days=0", "days_out_of_range"),
        (
            "/v1/plan/search?domain=resnet&days=inf",
            "days_out_of_range",
        ),
        (
            "/v1/plan/search?domain=resnet&accels=0",
            "accels_out_of_range",
        ),
        (
            "/v1/plan/search?domain=resnet&accels=99999999999",
            "accels_out_of_range",
        ),
        (
            "/v1/plan/search?domain=resnet&surprise=1",
            "unknown_parameter",
        ),
        ("/v1/plan/search?accel=v100", "missing_parameter"),
    ];
    for (path, code) in rejects {
        let (status, _, body) = get(addr, path);
        assert_eq!(status, 400, "{path}: {body}");
        let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{path}: bad JSON ({e}): {body}"));
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some(code),
            "{path}: {body}"
        );
    }
    // All that hostility produced structured 4xx only — never a 5xx — and
    // the server still answers real queries.
    let (status, _, body) = get(addr, "/v1/plan/search?domain=resnet&accel=v100");
    assert_eq!(status, 200, "{body}");
    let (_, _, metrics) = get(addr, "/v1/metrics");
    let doc = Json::parse(&metrics).expect("metrics JSON");
    assert_eq!(
        doc.path("requests.status_5xx").and_then(Json::as_f64),
        Some(0.0),
        "hostile grids must never be internal errors: {metrics}"
    );
    assert_eq!(
        doc.path("requests.status_4xx").and_then(Json::as_f64),
        Some(rejects.len() as f64),
        "{metrics}"
    );
}

#[test]
fn head_requests_elide_the_body() {
    let server = test_server();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"HEAD /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.is_empty(), "HEAD must not carry a body: {body:?}");
    // Content-length still reflects the would-be body.
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.parse().ok())
        .expect("content-length");
    assert!(len > 0);
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let mut server = test_server();
    let addr = server.local_addr();
    let (status, _, _) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);
    server.shutdown();
    // New connections are refused (or reset) once the listener is gone.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(
        refused.is_err() || {
            // Accept loop may leave the socket in a transient state; a
            // request on it must not succeed.
            let mut s = refused.expect("connected");
            let _ = s.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n");
            let mut out = Vec::new();
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = s.read_to_end(&mut out);
            out.is_empty()
        },
        "server answered after shutdown"
    );
}

fn arb_domain() -> impl Strategy<Value = modelzoo::Domain> {
    prop_oneof![
        Just(modelzoo::Domain::WordLm),
        Just(modelzoo::Domain::CharLm),
        Just(modelzoo::Domain::Nmt),
        Just(modelzoo::Domain::Speech),
        Just(modelzoo::Domain::ImageClassification),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The memoized path returns exactly what a fresh computation returns:
    /// for randomized small configs, the cached second response is
    /// byte-identical to the first, and its numbers agree with calling the
    /// analysis layer directly.
    #[test]
    fn cache_hit_equals_fresh_computation(
        domain in arb_domain(),
        params in 1_000_000u64..20_000_000,
        subbatch_pow in 0u32..6,
    ) {
        let subbatch = 1u64 << subbatch_pow;
        let server = test_server();
        let addr = server.local_addr();
        let path = format!("/v1/characterize?domain={}&params={params}&subbatch={subbatch}", domain.key());
        let (s1, c1, fresh) = get(addr, &path);
        let (s2, c2, cached) = get(addr, &path);
        prop_assert_eq!((s1, s2), (200, 200));
        prop_assert_eq!(c1.as_deref(), Some("miss"));
        prop_assert_eq!(c2.as_deref(), Some("hit"));
        prop_assert_eq!(&fresh, &cached);

        let doc = Json::parse(&cached).expect("JSON");
        let got_params = doc.path("point.params").and_then(Json::as_f64).expect("params");
        let cfg = modelzoo::ModelConfig::default_for(domain).with_target_params(params);
        let expect = analysis::characterize(&cfg, subbatch);
        prop_assert_eq!(got_params, expect.params);
        let got_flops = doc.path("point.flops_per_step").and_then(Json::as_f64).expect("flops");
        // JSON round-trips f64 exactly (integral or {:?} formatting).
        prop_assert_eq!(got_flops, expect.flops_per_step);
    }
}

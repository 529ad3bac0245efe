//! End-to-end tests of the telemetry plane: the Prometheus text exposition
//! and the JSON metrics endpoint must agree (they render from one
//! registry), `debug=timings` stage breakdowns must account for the
//! request's wall time, and the flight recorder must retain recent and
//! slowest requests with full per-stage timings.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use obs::Json;
use serve::{ServeConfig, Server};

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

/// Plain-text HTTP GET; returns (status, content-type, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
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
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("content-type: ").map(str::to_string))
        .unwrap_or_default();
    (status, content_type, body.to_string())
}

/// Parse a Prometheus text exposition into `series id → value` (the id is
/// `name` or `name{labels}` exactly as rendered).
fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("unparsable value in {line:?}: {e}"));
        let prior = out.insert(series.to_string(), value);
        assert!(prior.is_none(), "duplicate series {series:?}");
    }
    out
}

/// The bare metric name of a series id (`name{labels}` → `name`).
fn metric_name(series: &str) -> &str {
    series.split('{').next().expect("nonempty")
}

#[test]
fn exposition_is_well_formed() {
    let server = test_server();
    let addr = server.local_addr();
    // Generate some traffic so families and histograms have samples.
    for path in [
        "/v1/characterize?domain=wordlm&subbatch=16",
        "/v1/characterize?domain=wordlm&subbatch=16",
        "/v1/healthz",
        "/does/not/exist",
    ] {
        let _ = get(addr, path);
    }
    let (status, content_type, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        content_type.starts_with("text/plain"),
        "exposition content type: {content_type:?}"
    );
    let samples = parse_exposition(&text);
    assert!(!samples.is_empty(), "empty exposition:\n{text}");

    // Every metric name is legal and carries HELP + TYPE metadata.
    let mut helped = std::collections::BTreeSet::new();
    let mut typed = std::collections::BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split(' ').next().expect("name").to_string());
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.insert(rest.split(' ').next().expect("name").to_string());
        }
    }
    for series in samples.keys() {
        let name = metric_name(series);
        let mut chars = name.chars();
        let first = chars.next().expect("nonempty name");
        assert!(
            first.is_ascii_alphabetic() || first == '_' || first == ':',
            "bad first char in {name:?}"
        );
        assert!(
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad char in {name:?}"
        );
        // Histogram children (_bucket/_sum/_count) share the parent's
        // HELP/TYPE metadata.
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| helped.contains(*b))
            .unwrap_or(name);
        assert!(helped.contains(base), "{name} has no # HELP line:\n{text}");
        assert!(typed.contains(base), "{name} has no # TYPE line:\n{text}");
    }

    // The tentpole's required coverage: server, cache, pool, engine LRU,
    // and interner series all render from the one registry.
    for required in [
        "frontier_requests_total",
        "frontier_requests_in_flight",
        "frontier_request_latency_us_count",
        "frontier_cache_hits_total",
        "frontier_cache_entries",
        "frontier_pool_queue_depth",
        "frontier_engine_instances_cached",
        "frontier_infer_engine_families_built_total",
        "frontier_infer_engine_instances_cached",
        "frontier_infer_engine_instance_capacity",
        "frontier_symath_table_len",
        "frontier_flight_recorded_total",
        "frontier_uptime_seconds",
    ] {
        assert!(
            samples.keys().any(|s| metric_name(s) == required),
            "missing required series {required}:\n{text}"
        );
    }
    // Label values render with the endpoint names the JSON side uses.
    assert!(
        samples.contains_key("frontier_requests_by_endpoint_total{endpoint=\"characterize\"}"),
        "{text}"
    );
    assert!(
        samples.contains_key("frontier_responses_total{class=\"2xx\"}"),
        "{text}"
    );
}

#[test]
fn text_and_json_metrics_agree_on_shared_series() {
    let server = test_server();
    let addr = server.local_addr();
    for path in [
        "/v1/characterize?domain=wordlm&subbatch=16",
        "/v1/characterize?domain=wordlm&subbatch=16",
        "/v1/project?domain=speech",
        "/v1/healthz",
        "/v1/characterize?domain=klingon",
        // A sweep drives the batched register VM, so its counters move.
        "/v1/sweep?domain=charlm&lo=1000000&hi=8000000&points=3&subbatch=8",
    ] {
        let _ = get(addr, path);
    }
    // Scrape text → JSON → text. Monotone counters must satisfy A ≤ J ≤ B:
    // both endpoints read the same live registry, so any drift between the
    // scrapes is real traffic (including the scrapes themselves), never a
    // second bookkeeping path.
    let (_, _, text_a) = get(addr, "/metrics");
    let (_, _, json_body) = get(addr, "/v1/metrics");
    let (_, _, text_b) = get(addr, "/metrics");
    let a = parse_exposition(&text_a);
    let b = parse_exposition(&text_b);
    let j = Json::parse(&json_body).expect("metrics JSON");

    let shared = [
        ("frontier_requests_total", "requests.total"),
        (
            "frontier_responses_total{class=\"2xx\"}",
            "requests.status_2xx",
        ),
        (
            "frontier_responses_total{class=\"4xx\"}",
            "requests.status_4xx",
        ),
        (
            "frontier_responses_total{class=\"5xx\"}",
            "requests.status_5xx",
        ),
        (
            "frontier_requests_rejected_total{reason=\"queue_full\"}",
            "requests.rejected_queue_full",
        ),
        ("frontier_cache_hits_total", "cache.hits"),
        ("frontier_cache_misses_total", "cache.misses"),
        ("frontier_cache_coalesced_total", "cache.coalesced"),
        ("frontier_cache_evictions_total", "cache.evictions"),
        ("frontier_cache_failures_total", "cache.failures"),
        ("frontier_request_latency_us_count", "latency_us.count"),
        ("frontier_flight_recorded_total", "flight.recorded"),
        (
            "frontier_requests_by_endpoint_total{endpoint=\"characterize\"}",
            "requests.by_endpoint.characterize",
        ),
        (
            "frontier_requests_by_endpoint_total{endpoint=\"healthz\"}",
            "requests.by_endpoint.healthz",
        ),
        ("frontier_symath_intern_hits_total", "symath.intern_hits"),
        ("frontier_symath_memo_hits_total", "symath.memo_hits"),
        (
            "frontier_symath_batch_programs_compiled_total",
            "symath_batch.programs_compiled",
        ),
        ("frontier_symath_batch_evals_total", "symath_batch.evals"),
        ("frontier_symath_batch_points_total", "symath_batch.points"),
        (
            "frontier_engine_families_built_total",
            "engine.families_built",
        ),
        (
            "frontier_infer_engine_families_built_total",
            "infer_engine.families_built",
        ),
    ];
    for (series, json_path) in shared {
        let va = *a
            .get(series)
            .unwrap_or_else(|| panic!("{series} missing from first scrape:\n{text_a}"));
        let vb = *b
            .get(series)
            .unwrap_or_else(|| panic!("{series} missing from second scrape:\n{text_b}"));
        let vj = j
            .path(json_path)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{json_path} missing from JSON: {json_body}"));
        assert!(
            va <= vj && vj <= vb,
            "{series}: text {va} ≤ json {vj} ≤ text {vb} violated"
        );
    }
    // Exact-valued per-server facts agree outright (nothing else drives
    // this server between scrapes; capacity is static).
    assert_eq!(
        a.get("frontier_cache_capacity").copied(),
        j.path("cache.capacity").and_then(Json::as_f64)
    );
    for (series, json_path) in [
        (
            "frontier_engine_instance_capacity",
            "engine.instance_capacity",
        ),
        (
            "frontier_infer_engine_instance_capacity",
            "infer_engine.instance_capacity",
        ),
    ] {
        assert_eq!(
            a.get(series).copied(),
            j.path(json_path).and_then(Json::as_f64),
            "{series}"
        );
    }
    // The serving engine's occupancy is in the JSON too.
    assert!(
        j.path("infer_engine.instances_cached")
            .and_then(Json::as_f64)
            .is_some(),
        "{json_body}"
    );
    // And the cache series carry the expected traffic: one hit, three
    // misses (first characterize, project, sweep).
    assert_eq!(j.path("cache.hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(j.path("cache.misses").and_then(Json::as_f64), Some(3.0));
    // The sweep ran through the batched register VM: its three grid points
    // were priced in (at least) one batched evaluation.
    let batch_points = j
        .path("symath_batch.points")
        .and_then(Json::as_f64)
        .expect("symath_batch.points in JSON");
    assert!(batch_points >= 3.0, "batch VM priced {batch_points} points");
}

/// Sum the non-null stage entries of a `timings_us` object.
fn stage_sum_us(timings: &Json) -> f64 {
    [
        "queue_us",
        "parse_us",
        "cache_lookup_us",
        "singleflight_wait_us",
        "compute_us",
        "serialize_us",
        "write_us",
    ]
    .iter()
    .filter_map(|k| timings.get(k).and_then(Json::as_f64))
    .sum()
}

#[test]
fn debug_timings_account_for_wall_time_on_cached_and_uncached_requests() {
    let server = test_server();
    let addr = server.local_addr();
    let path = "/v1/characterize?domain=nmt&subbatch=32&debug=timings";
    for pass in ["uncached", "cached"] {
        let (status, _, body) = get(addr, path);
        assert_eq!(status, 200, "{pass}: {body}");
        let doc = Json::parse(&body).expect("JSON body");
        let debug = doc.get("debug").unwrap_or_else(|| {
            panic!("{pass}: debug=timings response missing debug block: {body}")
        });
        let id = debug
            .get("request_id")
            .and_then(Json::as_f64)
            .expect("request_id") as u64;
        let timings = debug.get("timings_us").expect("timings_us");
        assert!(
            matches!(timings.get("write_us"), Some(Json::Null)),
            "{pass}: write stage is unknowable before the socket write: {body}"
        );
        let body_total = debug
            .get("total_us")
            .and_then(Json::as_f64)
            .expect("total_us");
        assert!(
            stage_sum_us(timings) <= body_total + 1.0,
            "{pass}: stages exceed the body's own total: {body}"
        );

        // The flight-recorder record has the complete breakdown including
        // the write stage; its stage sum must account for the recorded
        // wall time within 10% (plus a small absolute allowance for the
        // untimed dispatch glue between stages).
        let (_, _, dump) = get(addr, "/v1/debug/requests");
        let dump = Json::parse(&dump).expect("debug requests JSON");
        let recent = match dump.get("recent") {
            Some(Json::Arr(records)) => records,
            other => panic!("recent missing: {other:?}"),
        };
        let record = recent
            .iter()
            .find(|r| r.get("id").and_then(Json::as_f64) == Some(id as f64))
            .unwrap_or_else(|| panic!("{pass}: request {id} not in the flight ring"));
        let total = record
            .get("total_us")
            .and_then(Json::as_f64)
            .expect("total_us");
        let stages = record.get("stages").expect("stages");
        let sum = stage_sum_us(stages);
        assert!(
            sum <= total + 1.0,
            "{pass}: stage sum {sum} > total {total}"
        );
        let unaccounted = total - sum;
        let allowance = (total * 0.10).max(1_000.0);
        assert!(
            unaccounted <= allowance,
            "{pass}: stages account for {sum} of {total} µs \
             ({unaccounted} µs untimed > {allowance} µs allowance): {record:?}"
        );
    }
    // A bogus debug value is a structured 400, and never reaches handlers.
    let (status, _, body) = get(addr, "/v1/healthz?debug=everything");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_parameter"), "{body}");
}

#[test]
fn flight_recorder_retains_recent_and_slowest_requests() {
    let server = test_server();
    let addr = server.local_addr();
    // One slow (uncached compute) request among cheap ones.
    let slow_path = "/v1/sweep?domain=charlm&lo=1000000&hi=8000000&points=3";
    let (status, _, _) = get(addr, slow_path);
    assert_eq!(status, 200);
    for _ in 0..5 {
        let (status, _, _) = get(addr, "/v1/healthz");
        assert_eq!(status, 200);
    }
    let (status, _, body) = get(addr, "/v1/debug/requests");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("JSON");
    assert_eq!(
        doc.get("capacity").and_then(Json::as_f64),
        Some(ServeConfig::default().flight_entries as f64)
    );
    let recorded = doc
        .get("recorded")
        .and_then(Json::as_f64)
        .expect("recorded");
    assert!(recorded >= 6.0, "{body}");

    let recent = match doc.get("recent") {
        Some(Json::Arr(records)) => records,
        other => panic!("recent missing: {other:?}"),
    };
    assert!(!recent.is_empty());
    // Newest first.
    let ids: Vec<f64> = recent
        .iter()
        .map(|r| r.get("id").and_then(Json::as_f64).expect("id"))
        .collect();
    assert!(
        ids.windows(2).all(|w| w[0] > w[1]),
        "recent not newest-first: {ids:?}"
    );
    // Every record carries endpoint, status, and a stages object.
    for record in recent {
        assert!(record.get("endpoint").and_then(Json::as_str).is_some());
        assert_eq!(record.get("status").and_then(Json::as_f64), Some(200.0));
        assert!(record.get("stages").is_some());
    }

    let slowest = match doc.get("slowest") {
        Some(Json::Arr(records)) => records,
        other => panic!("slowest missing: {other:?}"),
    };
    assert!(!slowest.is_empty());
    let totals: Vec<f64> = slowest
        .iter()
        .map(|r| r.get("total_us").and_then(Json::as_f64).expect("total"))
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "slowest not sorted descending: {totals:?}"
    );
    // The expensive sweep outlasts a healthz ping, so it leads the set.
    assert_eq!(
        slowest[0].get("endpoint").and_then(Json::as_str),
        Some("sweep"),
        "{body}"
    );
}

#[test]
fn sampled_requests_emit_server_side_spans() {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_entries: 16,
        queue_depth: 16,
        trace_sample_every: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let (status, _, _) = get(addr, "/v1/characterize?domain=wordlm&subbatch=16");
    assert_eq!(status, 200);
    // Sampled requests land in the process-global recorder as a synthetic
    // request span plus per-stage children.
    let events = obs::recorder().events();
    let request_spans: Vec<_> = events
        .iter()
        .filter(|e| e.name == "serve.request")
        .collect();
    assert!(
        !request_spans.is_empty(),
        "no serve.request span among {} events",
        events.len()
    );
    assert!(
        events.iter().any(|e| e.name.starts_with("serve.stage.")),
        "no per-stage child spans"
    );
    // And the flight record remembers it was sampled.
    let (_, _, body) = get(addr, "/v1/debug/requests");
    let doc = Json::parse(&body).expect("JSON");
    assert_eq!(doc.get("sample_every").and_then(Json::as_f64), Some(1.0));
    let recent = match doc.get("recent") {
        Some(Json::Arr(records)) => records,
        other => panic!("recent missing: {other:?}"),
    };
    assert!(
        recent
            .iter()
            .any(|r| matches!(r.get("sampled"), Some(Json::Bool(true)))),
        "{body}"
    );
}

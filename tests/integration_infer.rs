//! End-to-end tests of the `/v1/infer/*` serving endpoints: characterize,
//! sweep, and SLO plan search over HTTP. Checks the memoization contract
//! (repeat queries are byte-identical cache hits), bit-identity between the
//! served numbers and the library's brute-force path, a hand-checked golden
//! SLO plan, and the hostile-input contract (structured 400s, zero 5xx).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use obs::Json;
use proptest::prelude::*;
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

/// A small served shape (cheap family build) as query parameters.
const SMALL_SHAPE: &str = "heads=4&head_dim=16&layers=3&vocab=2000";

fn small_config() -> analysis::InferConfig {
    analysis::InferConfig {
        vocab: 2000,
        heads: 4,
        head_dim: 16,
        layers: 3,
        ff_mult: 4,
        tied_embedding: true,
    }
}

#[test]
fn characterize_matches_brute_force_and_caches() {
    let server = test_server();
    let addr = server.local_addr();
    let path = format!("/v1/infer/characterize?{SMALL_SHAPE}&batch=8&prompt=16&context=96");
    let (s1, c1, b1) = get(addr, &path);
    let (s2, c2, b2) = get(addr, &path);
    assert_eq!((s1, s2), (200, 200), "{b1}");
    assert_eq!(c1.as_deref(), Some("miss"));
    assert_eq!(c2.as_deref(), Some("hit"));
    assert_eq!(b1, b2, "cached body must be byte-identical");

    // The served numbers equal the brute-force concrete build, bit for bit.
    let expect = analysis::characterize_infer(&small_config(), 8, 16, 96);
    let doc = Json::parse(&b1).expect("JSON");
    for (json_path, value) in [
        ("point.params", expect.params),
        ("point.weight_bytes", expect.weight_bytes),
        ("point.kv_cache_bytes", expect.kv_cache_bytes),
        ("point.serving_bytes", expect.serving_bytes()),
        ("point.prefill.flops", expect.prefill_flops),
        ("point.prefill.bytes", expect.prefill_bytes),
        ("point.prefill.op_intensity", expect.prefill_intensity),
        ("point.decode.flops", expect.decode_flops),
        ("point.decode.bytes", expect.decode_bytes),
        ("point.decode.op_intensity", expect.decode_intensity),
    ] {
        assert_eq!(
            doc.path(json_path).and_then(Json::as_f64),
            Some(value),
            "{json_path}: {b1}"
        );
    }
    // Decode intensity is the memory-bound regime: far below prefill's.
    assert!(expect.decode_intensity < expect.prefill_intensity / 2.0);
}

#[test]
fn sweep_grid_matches_engine_and_caches() {
    let server = test_server();
    let addr = server.local_addr();
    let path = format!("/v1/infer/sweep?{SMALL_SHAPE}&prompt=16&batch=1,4,16&context=64,128");
    let (s1, c1, b1) = get(addr, &path);
    let (s2, c2, b2) = get(addr, &path);
    assert_eq!((s1, s2), (200, 200), "{b1}");
    assert_eq!(c1.as_deref(), Some("miss"));
    assert_eq!(c2.as_deref(), Some("hit"));
    assert_eq!(b1, b2, "cached grid must be byte-identical");

    let doc = Json::parse(&b1).expect("JSON");
    let points = match doc.get("points") {
        Some(Json::Arr(points)) => points,
        other => panic!("points missing or not an array: {other:?}"),
    };
    assert_eq!(points.len(), 6, "3 batches × 2 contexts");
    // Row order is the request's batch-major grid, and every row is
    // bit-identical to the brute-force characterization of that cell.
    let cfg = small_config();
    let grid = [(1, 64), (1, 128), (4, 64), (4, 128), (16, 64), (16, 128)];
    for (served, &(b, ctx)) in points.iter().zip(&grid) {
        let expect = analysis::characterize_infer(&cfg, b, 16, ctx);
        assert_eq!(served.get("batch").and_then(Json::as_f64), Some(b as f64));
        assert_eq!(
            served.get("context").and_then(Json::as_f64),
            Some(ctx as f64)
        );
        assert_eq!(
            served.get("kv_cache_bytes").and_then(Json::as_f64),
            Some(expect.kv_cache_bytes)
        );
        assert_eq!(
            served.path("decode.flops").and_then(Json::as_f64),
            Some(expect.decode_flops)
        );
    }
}

#[test]
fn plan_reproduces_the_golden_slo_plan() {
    let server = test_server();
    let addr = server.local_addr();
    // The golden request: default ~100M model, 512-token prompts, 1024-token
    // context, 50 ms/token p99, 500 ms TTFT, 20k tokens/s, V100s only.
    let path = "/v1/infer/plan?accel=v100&tpot_ms=50&ttft_ms=500&tokens_per_s=20000&accels=64";
    let (s1, c1, b1) = get(addr, path);
    let (s2, c2, b2) = get(addr, path);
    assert_eq!((s1, s2), (200, 200), "{b1}");
    assert_eq!(c1.as_deref(), Some("miss"));
    assert_eq!(c2.as_deref(), Some("hit"));
    assert_eq!(b1, b2, "cached plan must be byte-identical");

    let doc = Json::parse(&b1).expect("JSON");
    assert!(
        matches!(doc.get("feasible"), Some(Json::Bool(true))),
        "{b1}"
    );

    // The served argmin equals the library's own search for the same
    // request, field for field.
    let req = analysis::InferPlanRequest {
        config: analysis::InferConfig::default(),
        accels: vec![(
            "v100".into(),
            roofline::Accelerator::by_key("v100").expect("v100"),
        )],
        batches: vec![1, 4, 16, 64, 256],
        prompt: 512,
        context: 1024,
        slo: parsim::SloTarget {
            p99_token_seconds: 0.050,
            ttft_seconds: 0.500,
        },
        target_tokens_per_s: 20_000.0,
        max_total_accelerators: 64,
    };
    let expect = analysis::infer_plan(&req).best.expect("library feasible");
    assert_eq!(
        doc.path("best.accel").and_then(Json::as_str),
        Some(expect.accel_key.as_str())
    );
    for (json_path, value) in [
        ("best.batch", expect.batch as f64),
        ("best.replicas", expect.replicas as f64),
        ("best.total_accelerators", expect.total_accelerators as f64),
        ("best.tokens_per_s", expect.tokens_per_s),
        ("best.p99_token_seconds", expect.p99_token_seconds),
        ("best.ttft_seconds", expect.ttft_seconds),
        ("best.mem_per_accel_gb", expect.mem_per_accel_gb),
    ] {
        assert_eq!(
            doc.path(json_path).and_then(Json::as_f64),
            Some(value),
            "{json_path}: {b1}"
        );
    }

    // Hand-check the golden plan. The argmin meets every stated constraint…
    assert!(expect.p99_token_seconds <= 0.050);
    assert!(expect.ttft_seconds <= 0.500);
    assert!(expect.tokens_per_s >= 20_000.0);
    // …the replica count is minimal on the pow2 ladder (half as many
    // replicas of the same profile would miss the demand)…
    let per_replica = expect.tokens_per_s / expect.replicas as f64;
    assert!(expect.replicas == 1 || (expect.replicas / 2) as f64 * per_replica < 20_000.0);
    // …and no feasible point uses fewer accelerators.
    let feasible = analysis::infer_plan(&req).feasible;
    assert!(feasible
        .iter()
        .all(|p| p.total_accelerators >= expect.total_accelerators));
}

#[test]
fn plan_search_stats_are_consistent_and_infeasible_is_clean() {
    let server = test_server();
    let addr = server.local_addr();
    // An impossible token SLO: nothing survives the latency floor.
    let (status, _, body) = get(
        addr,
        &format!("/v1/infer/plan?{SMALL_SHAPE}&prompt=16&context=64&tpot_ms=0.000001"),
    );
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).expect("JSON");
    assert!(matches!(doc.get("feasible"), Some(Json::Bool(false))));
    assert!(matches!(doc.get("best"), Some(Json::Null)));
    let considered = doc
        .path("stats.considered")
        .and_then(Json::as_f64)
        .expect("considered");
    let evaluated = doc
        .path("stats.evaluated")
        .and_then(Json::as_f64)
        .expect("evaluated");
    let pruned_latency = doc
        .path("stats.pruned_latency")
        .and_then(Json::as_f64)
        .expect("pruned_latency");
    assert!(evaluated <= considered);
    assert!(pruned_latency > 0.0, "{body}");
}

#[test]
fn hostile_infer_queries_get_structured_400s_and_never_5xx() {
    let server = test_server();
    let addr = server.local_addr();
    let rejects = [
        // Bad serving shapes.
        ("/v1/infer/characterize?batch=0", "batch_out_of_range"),
        ("/v1/infer/characterize?batch=999999", "batch_out_of_range"),
        ("/v1/infer/characterize?context=0", "context_out_of_range"),
        (
            "/v1/infer/characterize?context=99999999",
            "context_out_of_range",
        ),
        (
            "/v1/infer/characterize?prompt=2048&context=1024",
            "context_below_prompt",
        ),
        ("/v1/infer/characterize?heads=0", "shape_out_of_range"),
        ("/v1/infer/characterize?heads=1000", "shape_out_of_range"),
        ("/v1/infer/characterize?head_dim=0", "shape_out_of_range"),
        ("/v1/infer/characterize?layers=0", "shape_out_of_range"),
        ("/v1/infer/characterize?layers=100000", "shape_out_of_range"),
        ("/v1/infer/characterize?vocab=1", "shape_out_of_range"),
        ("/v1/infer/characterize?ff=0", "shape_out_of_range"),
        ("/v1/infer/characterize?tied=banana", "bad_parameter"),
        ("/v1/infer/characterize?batch=banana", "bad_parameter"),
        (
            "/v1/infer/characterize?batch=184467440737095516159999",
            "bad_parameter",
        ),
        ("/v1/infer/characterize?surprise=1", "unknown_parameter"),
        // Bad sweep grids.
        ("/v1/infer/sweep?batch=1,1", "bad_parameter"),
        ("/v1/infer/sweep?batch=0", "bad_parameter"),
        ("/v1/infer/sweep?batch=1,2,3,4,5,6,7,8,9", "grid_too_large"),
        (
            "/v1/infer/sweep?prompt=512&context=256",
            "context_below_prompt",
        ),
        ("/v1/infer/sweep?prompt=0", "context_out_of_range"),
        // Bad SLOs.
        ("/v1/infer/plan?tpot_ms=0", "slo_out_of_range"),
        ("/v1/infer/plan?tpot_ms=-5", "slo_out_of_range"),
        ("/v1/infer/plan?tpot_ms=nan", "slo_out_of_range"),
        ("/v1/infer/plan?ttft_ms=inf", "slo_out_of_range"),
        ("/v1/infer/plan?ttft_ms=99999999999", "slo_out_of_range"),
        ("/v1/infer/plan?tokens_per_s=0", "slo_out_of_range"),
        ("/v1/infer/plan?tokens_per_s=-1", "slo_out_of_range"),
        // Bad fleets and accelerators.
        ("/v1/infer/plan?accel=k80", "unknown_accelerator"),
        ("/v1/infer/plan?accel=v100,v100", "bad_parameter"),
        ("/v1/infer/plan?accel=", "unknown_accelerator"),
        ("/v1/infer/plan?accels=0", "accels_out_of_range"),
        ("/v1/infer/plan?accels=99999999999", "accels_out_of_range"),
        ("/v1/infer/plan?batch=0", "bad_parameter"),
        ("/v1/infer/plan?days=7", "unknown_parameter"),
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
    // All structured 4xx, zero 5xx — and the server still answers.
    let (status, _, body) = get(
        addr,
        &format!("/v1/infer/characterize?{SMALL_SHAPE}&batch=1&prompt=8&context=16"),
    );
    assert_eq!(status, 200, "{body}");
    let (_, _, metrics) = get(addr, "/v1/metrics");
    let doc = Json::parse(&metrics).expect("metrics JSON");
    assert_eq!(
        doc.path("requests.status_5xx").and_then(Json::as_f64),
        Some(0.0),
        "hostile infer queries must never be internal errors: {metrics}"
    );
    assert_eq!(
        doc.path("requests.status_4xx").and_then(Json::as_f64),
        Some(rejects.len() as f64),
        "{metrics}"
    );
}

/// A pool of parameter values mixing valid, boundary, and hostile inputs.
fn arb_value() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..300_000).prop_map(|v| v.to_string()),
        Just("0".to_string()),
        Just("-1".to_string()),
        Just("nan".to_string()),
        Just("inf".to_string()),
        Just("banana".to_string()),
        Just("184467440737095516159999".to_string()),
        Just("1,2,4".to_string()),
        Just("".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized hostile queries against every `/v1/infer/*` endpoint are
    /// always structured 200s or 400s — never a 5xx, never a hang.
    #[test]
    fn randomized_infer_queries_never_500(
        endpoint in prop_oneof![
            Just("/v1/infer/characterize"),
            Just("/v1/infer/sweep"),
            Just("/v1/infer/plan"),
        ],
        key in prop_oneof![
            Just("batch"), Just("prompt"), Just("context"), Just("heads"),
            Just("head_dim"), Just("layers"), Just("vocab"), Just("ff"),
            Just("tied"), Just("tpot_ms"), Just("ttft_ms"),
            Just("tokens_per_s"), Just("accel"), Just("accels"), Just("junk"),
        ],
        value in arb_value(),
    ) {
        let server = test_server();
        let addr = server.local_addr();
        let path = format!("{endpoint}?{SMALL_SHAPE}&prompt=8&context=16&{key}={value}");
        let (status, _, body) = get(addr, &path);
        prop_assert!(
            status == 200 || status == 400,
            "{path} -> {status}: {body}"
        );
        let doc = Json::parse(&body);
        prop_assert!(doc.is_ok(), "{path}: unparsable body {body:?}");
        if status == 400 {
            prop_assert!(
                doc.expect("parsed").get("error").is_some(),
                "{path}: 400 without error code: {body}"
            );
        }
    }
}

//! Endpoint handlers: URL → (validated query) → memoized analysis → JSON.
//!
//! Expensive endpoints (`characterize`, `sweep`, `project`, `subbatch`,
//! `plan*`, `infer/*`) run through the
//! [`ResponseCache`](crate::cache::ResponseCache) keyed by
//! [`frontier::QueryKey`], so a repeat query is a hash lookup returning the
//! byte-identical response. The compute renders that response once — body
//! and both `x-cache: hit` heads, one [`CachedBytes`] — and [`Routed`]
//! hands the same `Arc` to the reactor, which aliases it under the raw
//! request target for its warm path. A miss on `characterize`, `sweep`,
//! `project`, `subbatch` or `plan*` is priced by the process-wide
//! [`analysis::FamilyEngine`] and one on `infer/*` by [`InferEngine`]:
//! cached symbolic families, no per-request graph rebuild. `healthz` and
//! `metrics` are always live.

use std::sync::Arc;
use std::time::Instant;

use analysis::{
    fig11_batches, frontier_row, subbatch_analysis, InferConfig, InferEngine, InferPlanRequest,
    InferPoint, PlanSearchRequest,
};
use frontier::QueryKey;
use modelzoo::{Domain, ModelConfig};
use parsim::{InferPlanPoint, ModelParallelism, Plan, SearchPoint, SloTarget};
use roofline::Accelerator;
use scaling::scaling_for;

use crate::cache::{CachedBytes, Outcome};
use crate::http::Request;
use crate::json::Json;
use crate::query::{ApiError, Query};
use crate::trace::{elapsed_us, RequestTrace, Stage};
use crate::AppState;

/// Media type of the Prometheus text exposition.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Bounds on user-supplied model scale, keeping hostile queries from
/// requesting a graph build that exhausts the machine.
const MIN_PARAMS: u64 = 100_000;
const MAX_PARAMS: u64 = 200_000_000_000;
const MAX_SUBBATCH: u64 = 1 << 20;
/// Accelerator-count search caps for `/v1/plan` and `/v1/plan/search`.
const MAX_ACCELS: u64 = 1 << 22;
/// Grid-size cap for `/v1/sweep`.
const MAX_SWEEP_POINTS: usize = 64;
/// Grid-size cap for `/v1/plan/search`: accelerators × subbatches ×
/// microbatch options.
const MAX_SEARCH_GRID: usize = 64;
/// Per-list length cap for `/v1/plan/search` comma lists.
const MAX_SEARCH_LIST: usize = 8;
/// Bound on a pipeline microbatch count (beyond this the schedule model is
/// meaningless and the request is almost certainly hostile).
const MAX_MICROBATCHES: u64 = 1 << 16;
/// Bounds on `/v1/infer/*` serving-shape parameters. Context/prompt cap at
/// 1Mi tokens; batch at 64Ki sequences; the structural caps keep a hostile
/// query from forcing a pathological family build.
const MAX_INFER_BATCH: u64 = 1 << 16;
const MAX_CONTEXT: u64 = 1 << 20;
const MAX_HEADS: u64 = 256;
const MAX_HEAD_DIM: u64 = 1024;
const MAX_LAYERS: u64 = 256;
const MAX_VOCAB: u64 = 2_000_000;
const MAX_FF_MULT: u64 = 64;
/// Bound on an SLO expressed in milliseconds (about 11.5 days).
const MAX_SLO_MS: f64 = 1e9;

/// One endpoint's handler function.
type Handler = fn(&AppState, &Query, &mut RequestTrace) -> Result<Routed, ApiError>;

/// A response body: rendered for this request alone, or the cache's shared
/// pre-rendered response.
pub enum Body {
    /// Rendered for this request (dynamic endpoints, errors, debug output).
    Owned(String),
    /// A memoized response: the same allocation the cache holds.
    Cached(Arc<CachedBytes>),
}

impl Body {
    /// The body text.
    pub fn as_str(&self) -> &str {
        match self {
            Body::Owned(body) => body,
            Body::Cached(entry) => &entry.body,
        }
    }
}

/// A routed response, ready to serialize.
pub struct Routed {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Body,
    /// `hit` / `miss` / `coalesced` for cacheable endpoints.
    pub cache_state: Option<&'static str>,
    /// Endpoint label for metrics.
    pub endpoint: &'static str,
    /// Media type (`application/json` except the text exposition).
    pub content_type: &'static str,
}

impl Routed {
    fn ok(body: String, endpoint: &'static str) -> Routed {
        Routed {
            status: 200,
            body: Body::Owned(body),
            cache_state: None,
            endpoint,
            content_type: "application/json",
        }
    }

    fn err(e: &ApiError, endpoint: &'static str) -> Routed {
        Routed {
            status: e.status,
            body: Body::Owned(e.body().render()),
            cache_state: None,
            endpoint,
            content_type: "application/json",
        }
    }
}

/// Consume the transport-level `debug` parameter. `debug=timings` opts the
/// response into the per-stage breakdown; any other value is a 400.
fn take_debug(q: &mut Query) -> Result<bool, ApiError> {
    match q.take("debug").as_deref() {
        None => Ok(false),
        Some("timings") => Ok(true),
        Some(other) => Err(ApiError::bad_request(
            "bad_parameter",
            format!("parameter debug={other:?}; the only supported value is \"timings\""),
        )),
    }
}

/// Dispatch one parsed request.
pub fn dispatch(state: &AppState, req: &Request, trace: &mut RequestTrace) -> Routed {
    let (endpoint, handler): (&'static str, Handler) = match req.path.as_str() {
        "/v1/characterize" => ("characterize", characterize_route),
        "/v1/sweep" => ("sweep", sweep_route),
        "/v1/project" => ("project", project_route),
        "/v1/subbatch" => ("subbatch", subbatch_route),
        "/v1/plan" => ("plan", plan_route),
        "/v1/plan/search" => ("plan_search", plan_search_route),
        "/v1/infer/characterize" => ("infer_characterize", infer_characterize_route),
        "/v1/infer/sweep" => ("infer_sweep", infer_sweep_route),
        "/v1/infer/plan" => ("infer_plan", infer_plan_route),
        "/v1/healthz" => ("healthz", healthz_route),
        "/v1/metrics" => ("metrics", metrics_route),
        "/metrics" => ("metrics_text", metrics_text_route),
        "/v1/debug/requests" => ("debug_requests", debug_requests_route),
        "/" | "/v1" => ("index", index_route),
        _ => {
            let e = ApiError {
                status: 404,
                code: "not_found",
                message: format!("no route for {:?}", req.path),
            };
            return Routed::err(&e, "unknown");
        }
    };
    state.metrics.record_endpoint(endpoint);
    let parse_start = Instant::now();
    let parsed = Query::parse(&req.query);
    trace.add(Stage::Parse, elapsed_us(parse_start));
    let result = parsed.and_then(|mut q| {
        let debug = take_debug(&mut q)?;
        handler(state, &q, trace).map(|routed| (routed, debug))
    });
    match result {
        Ok((mut routed, debug)) => {
            if debug {
                augment_with_timings(&mut routed, trace);
            }
            routed
        }
        Err(e) => Routed::err(&e, endpoint),
    }
}

/// Attach the request's per-stage breakdown to a JSON response body
/// (`debug=timings`). The write stage is unknown until after the socket
/// write, so the body reports it as `null`; the flight-recorder record
/// (`/v1/debug/requests`) carries the complete breakdown.
fn augment_with_timings(routed: &mut Routed, trace: &mut RequestTrace) {
    if routed.content_type != "application/json" {
        return;
    }
    let reparse_start = Instant::now();
    let Ok(doc) = Json::parse(routed.body.as_str()) else {
        return;
    };
    trace.add(Stage::Serialize, elapsed_us(reparse_start));
    let debug = Json::obj()
        .set("request_id", trace.id)
        .set("sampled", trace.sampled)
        .set(
            "timings_us",
            trace.timings_json().set("write_us", Json::Null),
        )
        .set("total_us", trace.elapsed_us());
    let render_start = Instant::now();
    routed.body = Body::Owned(doc.set("debug", debug).render());
    trace.add(Stage::Serialize, elapsed_us(render_start));
}

/// Run `render` through the response cache under `key`, crediting lookup,
/// single-flight wait, compute, and serialization to the trace context.
fn memoized(
    state: &AppState,
    key: &QueryKey,
    endpoint: &'static str,
    trace: &mut RequestTrace,
    render: impl FnOnce() -> Json,
) -> Result<Routed, ApiError> {
    let serialize_us = std::cell::Cell::new(0u64);
    let (result, outcome, timing) = state.cache.get_or_compute_timed(key.hash128(), || {
        let doc = render();
        let serialize_start = Instant::now();
        let bytes = CachedBytes::new(endpoint, "application/json", doc.render());
        serialize_us.set(elapsed_us(serialize_start));
        Ok(bytes)
    });
    trace.add(Stage::CacheLookup, timing.lookup_us);
    trace.add(Stage::SingleFlightWait, timing.wait_us);
    trace.add(Stage::Serialize, serialize_us.get());
    trace.add(
        Stage::Compute,
        timing.compute_us.saturating_sub(serialize_us.get()),
    );
    let cache_state = match outcome {
        Outcome::Hit => "hit",
        Outcome::Miss => "miss",
        Outcome::Coalesced => "coalesced",
    };
    match result {
        Ok(entry) => Ok(Routed {
            status: 200,
            body: Body::Cached(entry),
            cache_state: Some(cache_state),
            endpoint,
            content_type: "application/json",
        }),
        Err(message) => Err(ApiError {
            status: 500,
            code: "compute_failed",
            message,
        }),
    }
}

fn bounded_params(q: &Query) -> Result<Option<u64>, ApiError> {
    let Some(params) = q.opt::<u64>("params")? else {
        return Ok(None);
    };
    if !(MIN_PARAMS..=MAX_PARAMS).contains(&params) {
        return Err(ApiError::bad_request(
            "params_out_of_range",
            format!("params must be in {MIN_PARAMS}..={MAX_PARAMS}, got {params}"),
        ));
    }
    Ok(Some(params))
}

fn config_for(domain: Domain, params: Option<u64>) -> ModelConfig {
    let cfg = ModelConfig::default_for(domain);
    match params {
        Some(target) => cfg.with_target_params(target),
        None => cfg,
    }
}

// ---------------------------------------------------------------- endpoints

/// `GET /v1/characterize?domain=&params=&subbatch=` — one Table 2 / Figures
/// 7–10 measurement, answered by the process-wide
/// [`analysis::FamilyEngine`] as a one-row grid over the configuration's
/// cached instance: no graph is rebuilt or differentiated per request. The
/// point is bit-identical to the brute-force [`analysis::characterize`],
/// which stays as the test oracle.
fn characterize_route(
    state: &AppState,
    q: &Query,
    trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    q.check_known(&["domain", "params", "subbatch"])?;
    let domain = q.domain()?;
    let params = bounded_params(q)?;
    let subbatch = q
        .opt::<u64>("subbatch")?
        .unwrap_or_else(|| domain.default_subbatch());
    if !(1..=MAX_SUBBATCH).contains(&subbatch) {
        return Err(ApiError::bad_request(
            "subbatch_out_of_range",
            format!("subbatch must be in 1..={MAX_SUBBATCH}, got {subbatch}"),
        ));
    }
    let cfg = config_for(domain, params);
    let bindings = symath::Bindings::new().with(modelzoo::BATCH_SYM, subbatch as f64);
    let key = QueryKey::new("characterize")
        .config(&cfg)
        .bindings(&bindings);
    memoized(state, &key, "characterize", trace, move || {
        let point = analysis::FamilyEngine::global().characterize(&cfg, subbatch);
        Json::obj()
            .set("domain", domain.key())
            .set("subbatch", subbatch)
            .set(
                "point",
                Json::obj()
                    .set("params", point.params)
                    .set("flops_per_step", point.flops_per_step)
                    .set("flops_per_sample", point.flops_per_sample)
                    .set("bytes_per_step", point.bytes_per_step)
                    .set("op_intensity", point.op_intensity)
                    .set("footprint_bytes", point.footprint_bytes)
                    .set("seq_len", point.seq_len),
            )
    })
}

/// `GET /v1/sweep?domain=&lo=&hi=&points=&subbatch=` — a whole Figures 7–10
/// grid in one query. The grid is answered through the process-wide
/// [`analysis::FamilyEngine`]: one width-symbolic family build (shared with
/// every other sweep of the same structural family), then exact per-point
/// substitution. The memo key is therefore built from the *family* key plus
/// the grid parameters, not from any single concrete configuration — two
/// grids over the same family share the engine's cached symbolic build even
/// when their memoized bodies differ.
fn sweep_route(state: &AppState, q: &Query, trace: &mut RequestTrace) -> Result<Routed, ApiError> {
    q.check_known(&["domain", "lo", "hi", "points", "subbatch"])?;
    let domain = q.domain()?;
    let lo = q.opt::<u64>("lo")?.unwrap_or(1_000_000);
    let hi = q.opt::<u64>("hi")?.unwrap_or(10_000_000_000);
    for (name, v) in [("lo", lo), ("hi", hi)] {
        if !(MIN_PARAMS..=MAX_PARAMS).contains(&v) {
            return Err(ApiError::bad_request(
                "params_out_of_range",
                format!("{name} must be in {MIN_PARAMS}..={MAX_PARAMS}, got {v}"),
            ));
        }
    }
    if lo >= hi {
        return Err(ApiError::bad_request(
            "empty_range",
            format!("lo must be below hi, got lo={lo} hi={hi}"),
        ));
    }
    let points = q.opt::<usize>("points")?.unwrap_or(9);
    if !(2..=MAX_SWEEP_POINTS).contains(&points) {
        return Err(ApiError::bad_request(
            "points_out_of_range",
            format!("points must be in 2..={MAX_SWEEP_POINTS}, got {points}"),
        ));
    }
    let subbatch = q
        .opt::<u64>("subbatch")?
        .unwrap_or_else(|| domain.default_subbatch());
    if !(1..=MAX_SUBBATCH).contains(&subbatch) {
        return Err(ApiError::bad_request(
            "subbatch_out_of_range",
            format!("subbatch must be in 1..={MAX_SUBBATCH}, got {subbatch}"),
        ));
    }
    let key = QueryKey::new("sweep")
        .field("family", ModelConfig::default_for(domain).family_key())
        .field("lo", lo)
        .field("hi", hi)
        .field("points", points)
        .field("subbatch", subbatch);
    memoized(state, &key, "sweep", trace, move || {
        let engine = analysis::FamilyEngine::global();
        let jobs: Vec<_> = modelzoo::sweep_configs(domain, lo, hi, points)
            .into_iter()
            .map(|cfg| (cfg, subbatch))
            .collect();
        let mut grid = engine.characterize_many(&jobs);
        grid.sort_by(|a, b| a.params.partial_cmp(&b.params).expect("finite"));
        let rendered: Vec<Json> = grid
            .iter()
            .map(|p| {
                Json::obj()
                    .set("params", p.params)
                    .set("flops_per_step", p.flops_per_step)
                    .set("flops_per_sample", p.flops_per_sample)
                    .set("bytes_per_step", p.bytes_per_step)
                    .set("op_intensity", p.op_intensity)
                    .set("footprint_bytes", p.footprint_bytes)
                    .set("seq_len", p.seq_len)
            })
            .collect();
        Json::obj()
            .set("domain", domain.key())
            .set("subbatch", subbatch)
            .set("lo", lo)
            .set("hi", hi)
            .set("count", grid.len() as u64)
            .set("points", rendered)
    })
}

/// `GET /v1/project?domain=` — Table 1 projection + Table 3 frontier row.
fn project_route(
    state: &AppState,
    q: &Query,
    trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    q.check_known(&["domain"])?;
    let domain = q.domain()?;
    let key = QueryKey::new("project")
        .domain(domain)
        .field("accel", &state.accel.name);
    let accel = state.accel.clone();
    memoized(state, &key, "project", trace, move || {
        let projection = scaling_for(domain).project();
        let row = frontier_row(domain, &accel);
        Json::obj()
            .set("domain", domain.key())
            .set("label", domain.label())
            .set(
                "projection",
                Json::obj()
                    .set("data_scale", projection.data_scale)
                    .set("model_scale", projection.model_scale)
                    .set("target_data_samples", projection.target_data_samples)
                    .set("target_data_gb", projection.target_data_gb)
                    .set("target_params", projection.target_params),
            )
            .set(
                "requirements",
                Json::obj()
                    .set("built_params", row.built_params)
                    .set("subbatch", row.subbatch)
                    .set("tflops_per_step", row.tflops_per_step)
                    .set("mem_tb_per_step", row.mem_tb_per_step)
                    .set("min_mem_gb", row.min_mem_gb)
                    .set("step_seconds", row.step.seconds)
                    .set("step_bound", format!("{:?}", row.step.bound))
                    .set("flop_utilization", row.step.flop_utilization)
                    .set("epoch_days", row.epoch_days),
            )
    })
}

/// `GET /v1/subbatch?domain=&params=` — Figure 11 sweep + points of
/// interest. Defaults to the frontier-scale model of the domain.
fn subbatch_route(
    state: &AppState,
    q: &Query,
    trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    q.check_known(&["domain", "params"])?;
    let domain = q.domain()?;
    let params = bounded_params(q)?;
    let target =
        params.unwrap_or_else(|| scaling_for(domain).project().target_params.round() as u64);
    let cfg =
        ModelConfig::default_for(domain).with_target_params(target.clamp(MIN_PARAMS, MAX_PARAMS));
    let key = QueryKey::new("subbatch")
        .config(&cfg)
        .field("accel", &state.accel.name);
    let accel = state.accel.clone();
    memoized(state, &key, "subbatch", trace, move || {
        let analysis = subbatch_analysis(&cfg, &fig11_batches(), &accel);
        let points: Vec<Json> = analysis
            .points
            .iter()
            .map(|p| {
                Json::obj()
                    .set("batch", p.batch)
                    .set("op_intensity", p.op_intensity)
                    .set("step_seconds", p.step_seconds)
                    .set("sec_per_sample", p.sec_per_sample)
            })
            .collect();
        Json::obj()
            .set("domain", domain.key())
            .set("params", cfg.param_formula())
            .set("chosen", analysis.chosen)
            .set("saturation", analysis.saturation)
            .set(
                "ridge_match",
                analysis.ridge_match.map_or(Json::Null, Json::Num),
            )
            .set("intensity_limit", analysis.intensity_limit)
            .set("points", points)
    })
}

/// The registry key of the server's reference accelerator (falls back to
/// its display name for a non-registry part).
fn accel_key_for(accel: &Accelerator) -> String {
    Accelerator::registry()
        .into_iter()
        .find(|(_, a)| a == accel)
        .map(|(k, _)| k.to_string())
        .unwrap_or_else(|| accel.name.clone())
}

/// Shared `days` validation for the plan endpoints.
fn bounded_days(q: &Query) -> Result<f64, ApiError> {
    let days = q.opt::<f64>("days")?.unwrap_or(7.0);
    if !days.is_finite() || days <= 0.0 || days > 100_000.0 {
        return Err(ApiError::bad_request(
            "days_out_of_range",
            format!("days must be a positive number of days, got {days}"),
        ));
    }
    Ok(days)
}

/// Shared `accels` (fleet-size cap) validation for the plan endpoints.
fn bounded_max_accels(q: &Query) -> Result<u64, ApiError> {
    let max_accels = q.opt::<u64>("accels")?.unwrap_or(16_384);
    if !(1..=MAX_ACCELS).contains(&max_accels) {
        return Err(ApiError::bad_request(
            "accels_out_of_range",
            format!("accels must be in 1..={MAX_ACCELS}, got {max_accels}"),
        ));
    }
    Ok(max_accels)
}

/// Parse a comma list of integers in `lo..=hi`; `None` when absent.
fn comma_list_u64(
    q: &Query,
    key: &'static str,
    lo: u64,
    hi: u64,
) -> Result<Option<Vec<u64>>, ApiError> {
    let Some(raw) = q.raw(key) else {
        return Ok(None);
    };
    let mut out = Vec::new();
    for piece in raw.split(',') {
        let v: u64 = piece.trim().parse().map_err(|_| {
            ApiError::bad_request(
                "bad_parameter",
                format!("parameter {key}={piece:?} is not a valid value"),
            )
        })?;
        if !(lo..=hi).contains(&v) {
            return Err(ApiError::bad_request(
                "bad_parameter",
                format!("parameter {key}: {v} outside {lo}..={hi}"),
            ));
        }
        if out.contains(&v) {
            return Err(ApiError::bad_request(
                "bad_parameter",
                format!("parameter {key}: {v} listed twice"),
            ));
        }
        out.push(v);
    }
    if out.len() > MAX_SEARCH_LIST {
        return Err(ApiError::bad_request(
            "grid_too_large",
            format!("parameter {key}: at most {MAX_SEARCH_LIST} values"),
        ));
    }
    Ok(Some(out))
}

fn plan_json(plan: &Plan) -> Json {
    Json::obj()
        .set("dp_workers", plan.dp_workers)
        .set("mp_ways", plan.mp_ways)
        .set("total_accelerators", plan.total_accelerators)
        .set("step_seconds", plan.step_seconds)
        .set("epoch_days", plan.epoch_days)
        .set("flop_utilization", plan.flop_utilization)
        .set("mem_per_accel_gb", plan.mem_per_accel_gb)
}

/// One search point, rendered.
fn search_point_json(p: &SearchPoint) -> Json {
    let micro = match p.parallelism {
        ModelParallelism::None => Json::Null,
        ModelParallelism::LayerPipeline { microbatches } => Json::Num(microbatches as f64),
    };
    Json::obj()
        .set("accel", p.accel_key.as_str())
        .set("subbatch", p.subbatch)
        .set("microbatches", micro)
        .set("plan", plan_json(&p.plan))
}

/// `GET /v1/plan?domain=&accels=&days=` — auto-parallelism plan for the
/// domain's frontier model: fewest accelerators (≤ `accels`) meeting the
/// `days` epoch deadline (default 7). A single-accelerator restriction of
/// the `/v1/plan/search` space — both endpoints run the same
/// `parsim::search` enumeration.
fn plan_route(state: &AppState, q: &Query, trace: &mut RequestTrace) -> Result<Routed, ApiError> {
    q.check_known(&["domain", "accels", "days"])?;
    let domain = q.domain()?;
    let max_accels = bounded_max_accels(q)?;
    let days = bounded_days(q)?;
    let key = QueryKey::new("plan")
        .domain(domain)
        .field("accels", max_accels)
        .field("days", format!("{days:?}"))
        .field("accel", &state.accel.name);
    let accel = state.accel.clone();
    memoized(state, &key, "plan", trace, move || {
        let req = PlanSearchRequest {
            domain,
            accels: vec![(accel_key_for(&accel), accel.clone())],
            subbatches: vec![domain.default_subbatch()],
            microbatches: vec![2],
            target_epoch_days: days,
            max_total_accelerators: max_accels,
        };
        let space = analysis::plan_search_space(&req);
        let result = parsim::search(&space);
        let profile = &space.profiles[0];
        // Epoch time of one lone worker (informational; no allreduce).
        let single_worker_epoch_days = space.dataset_samples / profile.step.samples_per_step
            * profile.step.compute_seconds
            / 86_400.0;
        let base = Json::obj()
            .set("domain", domain.key())
            .set("target_epoch_days", days)
            .set("max_accelerators", max_accels)
            .set("stages", profile.stages.len())
            .set("single_worker_epoch_days", single_worker_epoch_days)
            .set("feasible", result.best.is_some());
        match result.best {
            Some(point) => base.set("plan", plan_json(&point.plan)),
            None => base.set("plan", Json::Null),
        }
    })
}

/// `GET /v1/plan/search?domain=&days=&accels=&accel=&subbatch=&micro=` —
/// plan search over the accelerator registry: rank every (accelerator ×
/// subbatch × parallelism × worker count) configuration for the domain's
/// frontier model. `accel` is a comma list of registry keys (default: the
/// whole registry); `subbatch` and `micro` are comma lists of candidates.
/// Returns the Pareto frontier over (epoch days, fleet size, per-device
/// footprint) plus the argmin plan and pruning counters.
fn plan_search_route(
    state: &AppState,
    q: &Query,
    trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    q.check_known(&["domain", "days", "accels", "accel", "subbatch", "micro"])?;
    let domain = q.domain()?;
    let max_accels = bounded_max_accels(q)?;
    let days = bounded_days(q)?;
    let accel_keys = accel_key_list(q)?;
    let subbatches = comma_list_u64(q, "subbatch", 1, MAX_SUBBATCH)?
        .unwrap_or_else(|| vec![domain.default_subbatch()]);
    let micros = comma_list_u64(q, "micro", 1, MAX_MICROBATCHES)?.unwrap_or_else(|| vec![2]);
    let grid = accel_keys.len() * subbatches.len() * micros.len();
    if grid > MAX_SEARCH_GRID {
        return Err(ApiError::bad_request(
            "grid_too_large",
            format!("accel×subbatch×micro grid is {grid}, cap {MAX_SEARCH_GRID}"),
        ));
    }
    let join = |v: &[u64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let key = QueryKey::new("plan_search")
        .domain(domain)
        .field("accels", max_accels)
        .field("days", format!("{days:?}"))
        .field("accel", accel_keys.join(","))
        .field("subbatch", join(&subbatches))
        .field("micro", join(&micros));
    memoized(state, &key, "plan_search", trace, move || {
        let req = PlanSearchRequest {
            domain,
            accels: accel_keys
                .iter()
                .map(|k| (k.clone(), Accelerator::by_key(k).expect("validated key")))
                .collect(),
            subbatches,
            microbatches: micros,
            target_epoch_days: days,
            max_total_accelerators: max_accels,
        };
        let space = analysis::plan_search_space(&req);
        let result = parsim::search(&space);
        let pareto: Vec<Json> = result.pareto.iter().map(search_point_json).collect();
        let base = Json::obj()
            .set("domain", domain.key())
            .set("target_epoch_days", days)
            .set("max_accelerators", max_accels)
            .set(
                "accelerators",
                accel_keys
                    .iter()
                    .map(|k| Json::Str(k.clone()))
                    .collect::<Vec<_>>(),
            )
            .set("profiles", space.profiles.len())
            .set(
                "stats",
                Json::obj()
                    .set("considered", result.stats.considered)
                    .set("evaluated", result.stats.evaluated)
                    .set("pruned_memory", result.stats.pruned_memory)
                    .set("pruned_over_cap", result.stats.pruned_over_cap)
                    .set("pruned_comm_bound", result.stats.pruned_comm_bound),
            )
            .set("feasible_count", result.feasible.len())
            .set("pareto", pareto)
            .set("feasible", result.best.is_some());
        match result.best {
            Some(point) => base.set("best", search_point_json(&point)),
            None => base.set("best", Json::Null),
        }
    })
}

/// Parse the `accel` comma list of registry keys; defaults to the whole
/// registry. Shared by `/v1/plan/search` and `/v1/infer/plan`.
fn accel_key_list(q: &Query) -> Result<Vec<String>, ApiError> {
    let Some(raw) = q.raw("accel") else {
        return Ok(Accelerator::KEYS.iter().map(|k| k.to_string()).collect());
    };
    let mut keys = Vec::new();
    for piece in raw.split(',') {
        let key = piece.trim();
        if Accelerator::by_key(key).is_none() {
            return Err(ApiError::bad_request(
                "unknown_accelerator",
                format!(
                    "unknown accelerator {key:?}; expected one of {}",
                    Accelerator::KEYS.join(", ")
                ),
            ));
        }
        if keys.iter().any(|k| k == key) {
            return Err(ApiError::bad_request(
                "bad_parameter",
                format!("accelerator {key:?} listed twice"),
            ));
        }
        keys.push(key.to_string());
    }
    Ok(keys)
}

// ------------------------------------------------------- /v1/infer endpoints

/// Query parameters shared by every `/v1/infer/*` endpoint: the served
/// model's structural shape.
const INFER_CONFIG_PARAMS: [&str; 6] = ["heads", "head_dim", "layers", "vocab", "ff", "tied"];

/// Parse the served-model shape, defaulting to [`InferConfig::default`]
/// (a ~100M-parameter decoder) with every field individually overridable.
fn infer_config_from(q: &Query) -> Result<InferConfig, ApiError> {
    let d = InferConfig::default();
    let cfg = InferConfig {
        vocab: q.opt::<u64>("vocab")?.unwrap_or(d.vocab),
        heads: q.opt::<u64>("heads")?.unwrap_or(d.heads),
        head_dim: q.opt::<u64>("head_dim")?.unwrap_or(d.head_dim),
        layers: q.opt::<u64>("layers")?.unwrap_or(d.layers),
        ff_mult: q.opt::<u64>("ff")?.unwrap_or(d.ff_mult),
        tied_embedding: q.opt::<bool>("tied")?.unwrap_or(d.tied_embedding),
    };
    for (name, v, lo, hi) in [
        ("heads", cfg.heads, 1, MAX_HEADS),
        ("head_dim", cfg.head_dim, 1, MAX_HEAD_DIM),
        ("layers", cfg.layers, 1, MAX_LAYERS),
        ("vocab", cfg.vocab, 2, MAX_VOCAB),
        ("ff", cfg.ff_mult, 1, MAX_FF_MULT),
    ] {
        if !(lo..=hi).contains(&v) {
            return Err(ApiError::bad_request(
                "shape_out_of_range",
                format!("{name} must be in {lo}..={hi}, got {v}"),
            ));
        }
    }
    Ok(cfg)
}

/// Memo-key fields identifying an [`InferConfig`].
fn infer_config_key(key: QueryKey, cfg: &InferConfig) -> QueryKey {
    key.field("vocab", cfg.vocab)
        .field("heads", cfg.heads)
        .field("head_dim", cfg.head_dim)
        .field("layers", cfg.layers)
        .field("ff", cfg.ff_mult)
        .field("tied", cfg.tied_embedding)
}

/// Shared `prompt`/`context` validation: both in range, prompt ≤ context
/// (the decode context includes the prompt).
fn bounded_prompt_context(q: &Query) -> Result<(u64, u64), ApiError> {
    let prompt = q.opt::<u64>("prompt")?.unwrap_or(512);
    let context = q.opt::<u64>("context")?.unwrap_or(1024);
    for (name, v) in [("prompt", prompt), ("context", context)] {
        if !(1..=MAX_CONTEXT).contains(&v) {
            return Err(ApiError::bad_request(
                "context_out_of_range",
                format!("{name} must be in 1..={MAX_CONTEXT}, got {v}"),
            ));
        }
    }
    if prompt > context {
        return Err(ApiError::bad_request(
            "context_below_prompt",
            format!("context ({context}) must be at least prompt ({prompt})"),
        ));
    }
    Ok((prompt, context))
}

/// One characterized serving point, rendered.
fn infer_point_json(p: &InferPoint) -> Json {
    Json::obj()
        .set("batch", p.batch)
        .set("prompt", p.prompt)
        .set("context", p.context)
        .set("params", p.params)
        .set("weight_bytes", p.weight_bytes)
        .set("kv_cache_bytes", p.kv_cache_bytes)
        .set("serving_bytes", p.serving_bytes())
        .set(
            "prefill",
            Json::obj()
                .set("flops", p.prefill_flops)
                .set("bytes", p.prefill_bytes)
                .set("op_intensity", p.prefill_intensity),
        )
        .set(
            "decode",
            Json::obj()
                .set("flops", p.decode_flops)
                .set("bytes", p.decode_bytes)
                .set("op_intensity", p.decode_intensity),
        )
}

/// `GET /v1/infer/characterize?batch=&prompt=&context=&heads=&head_dim=&layers=&vocab=&ff=&tied=`
/// — one forward-only serving measurement: prefill and decode phases split,
/// KV-cache footprint included. Answered through the process-wide
/// [`analysis::InferEngine`] (symbolic family build + exact substitution).
fn infer_characterize_route(
    state: &AppState,
    q: &Query,
    trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    let mut known = vec!["batch", "prompt", "context"];
    known.extend(INFER_CONFIG_PARAMS);
    q.check_known(&known)?;
    let cfg = infer_config_from(q)?;
    let (prompt, context) = bounded_prompt_context(q)?;
    let batch = q.opt::<u64>("batch")?.unwrap_or(1);
    if !(1..=MAX_INFER_BATCH).contains(&batch) {
        return Err(ApiError::bad_request(
            "batch_out_of_range",
            format!("batch must be in 1..={MAX_INFER_BATCH}, got {batch}"),
        ));
    }
    let key = infer_config_key(QueryKey::new("infer_characterize"), &cfg)
        .field("batch", batch)
        .field("prompt", prompt)
        .field("context", context);
    memoized(state, &key, "infer_characterize", trace, move || {
        let point = InferEngine::global().characterize(&cfg, batch, prompt, context);
        Json::obj()
            .set("d_model", cfg.d_model())
            .set("point", infer_point_json(&point))
    })
}

/// `GET /v1/infer/sweep?prompt=&batch=&context=&...` — a decode
/// batch × context grid in one query, through the shared engine: `batch`
/// and `context` are comma lists (defaults `1,4,16,64,256` × the single
/// default context).
fn infer_sweep_route(
    state: &AppState,
    q: &Query,
    trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    let mut known = vec!["batch", "prompt", "context"];
    known.extend(INFER_CONFIG_PARAMS);
    q.check_known(&known)?;
    let cfg = infer_config_from(q)?;
    let prompt = q.opt::<u64>("prompt")?.unwrap_or(512);
    if !(1..=MAX_CONTEXT).contains(&prompt) {
        return Err(ApiError::bad_request(
            "context_out_of_range",
            format!("prompt must be in 1..={MAX_CONTEXT}, got {prompt}"),
        ));
    }
    let batches =
        comma_list_u64(q, "batch", 1, MAX_INFER_BATCH)?.unwrap_or_else(|| vec![1, 4, 16, 64, 256]);
    let contexts = comma_list_u64(q, "context", 1, MAX_CONTEXT)?.unwrap_or_else(|| vec![1024]);
    if let Some(&ctx) = contexts.iter().find(|&&c| c < prompt) {
        return Err(ApiError::bad_request(
            "context_below_prompt",
            format!("context ({ctx}) must be at least prompt ({prompt})"),
        ));
    }
    let grid: Vec<(u64, u64)> = batches
        .iter()
        .flat_map(|&b| contexts.iter().map(move |&c| (b, c)))
        .collect();
    if grid.len() > MAX_SWEEP_POINTS {
        return Err(ApiError::bad_request(
            "grid_too_large",
            format!(
                "batch×context grid is {}, cap {MAX_SWEEP_POINTS}",
                grid.len()
            ),
        ));
    }
    let join = |v: &[u64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let key = infer_config_key(QueryKey::new("infer_sweep"), &cfg)
        .field("prompt", prompt)
        .field("batch", join(&batches))
        .field("context", join(&contexts));
    memoized(state, &key, "infer_sweep", trace, move || {
        let points = InferEngine::global().characterize_grid(&cfg, prompt, &grid);
        Json::obj()
            .set("d_model", cfg.d_model())
            .set("prompt", prompt)
            .set("count", points.len() as u64)
            .set(
                "points",
                points.iter().map(infer_point_json).collect::<Vec<_>>(),
            )
    })
}

/// Shared millisecond-SLO validation for `/v1/infer/plan`.
fn bounded_slo_ms(q: &Query, key: &'static str, default_ms: f64) -> Result<f64, ApiError> {
    let ms = q.opt::<f64>(key)?.unwrap_or(default_ms);
    if !ms.is_finite() || ms <= 0.0 || ms > MAX_SLO_MS {
        return Err(ApiError::bad_request(
            "slo_out_of_range",
            format!("{key} must be a positive number of milliseconds, got {ms}"),
        ));
    }
    Ok(ms)
}

/// One SLO plan point, rendered.
fn infer_plan_point_json(p: &InferPlanPoint) -> Json {
    Json::obj()
        .set("accel", p.accel_key.as_str())
        .set("batch", p.batch)
        .set("replicas", p.replicas)
        .set("total_accelerators", p.total_accelerators)
        .set("tokens_per_s", p.tokens_per_s)
        .set("p99_token_seconds", p.p99_token_seconds)
        .set("ttft_seconds", p.ttft_seconds)
        .set("mem_per_accel_gb", p.mem_per_accel_gb)
}

/// `GET /v1/infer/plan?tpot_ms=&ttft_ms=&tokens_per_s=&accel=&batch=&accels=&prompt=&context=&...`
/// — SLO-driven serving plan search: rank every (accelerator × decode batch
/// × replica count) configuration under a p99 token-latency bound
/// (`tpot_ms`, default 50), a TTFT bound (`ttft_ms`, default 500), and an
/// aggregate throughput demand (`tokens_per_s`, default 20000). `accel` is
/// a comma list of registry keys; `batch` a comma list of decode batch
/// sizes; `accels` caps the fleet. Returns the Pareto frontier over (fleet
/// size, token latency, per-device memory) plus the argmin plan and pruning
/// counters.
fn infer_plan_route(
    state: &AppState,
    q: &Query,
    trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    let mut known = vec![
        "tpot_ms",
        "ttft_ms",
        "tokens_per_s",
        "accel",
        "accels",
        "batch",
        "prompt",
        "context",
    ];
    known.extend(INFER_CONFIG_PARAMS);
    q.check_known(&known)?;
    let cfg = infer_config_from(q)?;
    let (prompt, context) = bounded_prompt_context(q)?;
    let tpot_ms = bounded_slo_ms(q, "tpot_ms", 50.0)?;
    let ttft_ms = bounded_slo_ms(q, "ttft_ms", 500.0)?;
    let tokens_per_s = q.opt::<f64>("tokens_per_s")?.unwrap_or(20_000.0);
    if !tokens_per_s.is_finite() || tokens_per_s <= 0.0 {
        return Err(ApiError::bad_request(
            "slo_out_of_range",
            format!("tokens_per_s must be a positive rate, got {tokens_per_s}"),
        ));
    }
    let max_accels = bounded_max_accels(q)?;
    let accel_keys = accel_key_list(q)?;
    let batches =
        comma_list_u64(q, "batch", 1, MAX_INFER_BATCH)?.unwrap_or_else(|| vec![1, 4, 16, 64, 256]);
    if accel_keys.len() * batches.len() > MAX_SEARCH_GRID {
        return Err(ApiError::bad_request(
            "grid_too_large",
            format!(
                "accel×batch grid is {}, cap {MAX_SEARCH_GRID}",
                accel_keys.len() * batches.len()
            ),
        ));
    }
    let join = |v: &[u64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let key = infer_config_key(QueryKey::new("infer_plan"), &cfg)
        .field("prompt", prompt)
        .field("context", context)
        .field("tpot_ms", format!("{tpot_ms:?}"))
        .field("ttft_ms", format!("{ttft_ms:?}"))
        .field("tokens_per_s", format!("{tokens_per_s:?}"))
        .field("accels", max_accels)
        .field("accel", accel_keys.join(","))
        .field("batch", join(&batches));
    memoized(state, &key, "infer_plan", trace, move || {
        let req = InferPlanRequest {
            config: cfg,
            accels: accel_keys
                .iter()
                .map(|k| (k.clone(), Accelerator::by_key(k).expect("validated key")))
                .collect(),
            batches,
            prompt,
            context,
            slo: SloTarget {
                p99_token_seconds: tpot_ms / 1e3,
                ttft_seconds: ttft_ms / 1e3,
            },
            target_tokens_per_s: tokens_per_s,
            max_total_accelerators: max_accels,
        };
        let space = analysis::infer_search_space(&req);
        let result = parsim::infer_search(&space);
        let pareto: Vec<Json> = result.pareto.iter().map(infer_plan_point_json).collect();
        let base = Json::obj()
            .set(
                "slo",
                Json::obj()
                    .set("p99_token_seconds", tpot_ms / 1e3)
                    .set("ttft_seconds", ttft_ms / 1e3)
                    .set("tokens_per_s", tokens_per_s),
            )
            .set("prompt", prompt)
            .set("context", context)
            .set("max_accelerators", max_accels)
            .set(
                "accelerators",
                accel_keys
                    .iter()
                    .map(|k| Json::Str(k.clone()))
                    .collect::<Vec<_>>(),
            )
            .set("profiles", space.profiles.len())
            .set(
                "stats",
                Json::obj()
                    .set("considered", result.stats.considered)
                    .set("evaluated", result.stats.evaluated)
                    .set("pruned_memory", result.stats.pruned_memory)
                    .set("pruned_latency", result.stats.pruned_latency)
                    .set("pruned_over_cap", result.stats.pruned_over_cap),
            )
            .set("feasible_count", result.feasible.len())
            .set("pareto", pareto)
            .set("feasible", result.best.is_some());
        match result.best {
            Some(point) => base.set("best", infer_plan_point_json(&point)),
            None => base.set("best", Json::Null),
        }
    })
}

/// `GET /v1/healthz` — liveness.
fn healthz_route(
    state: &AppState,
    q: &Query,
    _trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    q.check_known(&[])?;
    let body = Json::obj()
        .set("status", "ok")
        .set("uptime_seconds", state.started.elapsed().as_secs_f64())
        .render();
    Ok(Routed::ok(body, "healthz"))
}

/// `GET /v1/metrics` — request counts, cache effectiveness, reactor and
/// connection stats, latency quantiles, training and serving engine cache
/// occupancy, and `symath` interner counters.
fn metrics_route(
    state: &AppState,
    q: &Query,
    _trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    q.check_known(&[])?;
    use std::sync::atomic::Ordering;
    let m = &state.metrics;
    let c = &state.cache.stats;
    let lat = &m.latency;
    let engine = analysis::FamilyEngine::global();
    let infer_engine = InferEngine::global();
    let interner = symath::intern_stats();
    let batch = symath::batch_stats();
    let by_endpoint = m
        .endpoint_counts()
        .into_iter()
        .fold(Json::obj(), |acc, (name, count)| acc.set(&name, count));
    let body = Json::obj()
        .set("uptime_seconds", state.started.elapsed().as_secs_f64())
        .set(
            "requests",
            Json::obj()
                .set("total", m.requests.value())
                .set("in_flight", u64::try_from(m.in_flight.value()).unwrap_or(0))
                .set("status_2xx", m.class_count(0))
                .set("status_4xx", m.class_count(1))
                .set("status_5xx", m.class_count(2))
                .set("rejected_queue_full", m.rejected_queue_full.value())
                .set("rejected_deadline", m.rejected_deadline.value())
                .set("by_endpoint", by_endpoint),
        )
        .set(
            "cache",
            Json::obj()
                .set("entries", state.cache.len())
                .set("capacity", state.cache.capacity())
                .set("hits", c.hits.load(Ordering::Relaxed))
                .set("misses", c.misses.load(Ordering::Relaxed))
                .set("coalesced", c.coalesced.load(Ordering::Relaxed))
                .set("evictions", c.evictions.load(Ordering::Relaxed))
                .set("failures", c.failures.load(Ordering::Relaxed))
                .set("hit_rate", state.cache.hit_rate()),
        )
        .set(
            "reactor",
            Json::obj()
                .set(
                    "connections_open",
                    state.reactor.connections_open.load(Ordering::Relaxed),
                )
                .set(
                    "keepalive_reuses",
                    state.reactor.keepalive_reuses.load(Ordering::Relaxed),
                )
                .set(
                    "bytes_cache_entries",
                    u64::try_from(state.cache.alias_count()).unwrap_or(0),
                )
                .set(
                    "bytes_cache_hits",
                    state.reactor.bytes_cache_hits.load(Ordering::Relaxed),
                )
                .set(
                    "bytes_cache_misses",
                    state.reactor.bytes_cache_misses.load(Ordering::Relaxed),
                )
                .set(
                    "epoll_wakeups",
                    state.reactor.epoll_wakeups.load(Ordering::Relaxed),
                ),
        )
        .set("pool", Json::obj().set("queue_depth", state.pool.queued()))
        .set(
            "latency_us",
            Json::obj()
                .set("count", lat.count())
                .set("mean", lat.mean_us())
                .set("p50", lat.quantile_us(0.50))
                .set("p90", lat.quantile_us(0.90))
                .set("p95", lat.quantile_us(0.95))
                .set("p99", lat.quantile_us(0.99))
                .set("max", lat.max_us()),
        )
        .set(
            "engine",
            Json::obj()
                .set("families_built", engine.families_built() as u64)
                .set("instances_cached", engine.instances_cached() as u64)
                .set("instance_capacity", engine.instance_capacity() as u64),
        )
        .set(
            "infer_engine",
            Json::obj()
                .set("families_built", infer_engine.families_built() as u64)
                .set("instances_cached", infer_engine.instances_cached() as u64)
                .set("instance_capacity", infer_engine.instance_capacity() as u64),
        )
        .set(
            "symath",
            Json::obj()
                .set("table_len", interner.table_len)
                .set("intern_hits", interner.intern_hits)
                .set("intern_misses", interner.intern_misses)
                .set("intern_hit_rate", interner.intern_hit_rate())
                .set("memo_hits", interner.memo_hits)
                .set("memo_misses", interner.memo_misses)
                .set("memo_hit_rate", interner.memo_hit_rate())
                .set("memo_entries", interner.memo_entries)
                .set("batch_programs", interner.batch_programs),
        )
        .set(
            "symath_batch",
            Json::obj()
                .set("programs_compiled", batch.programs_compiled)
                .set("program_cache_hits", batch.program_cache_hits)
                .set("instructions", batch.instructions)
                .set("registers", batch.registers)
                .set("cse_reuses", batch.cse_reuses)
                .set("evals", batch.evals)
                .set("points", batch.points),
        )
        .set(
            "flight",
            Json::obj()
                .set("recorded", state.flight.recorded())
                .set("capacity", state.flight.capacity()),
        )
        .render();
    Ok(Routed::ok(body, "metrics"))
}

/// `GET /metrics` — Prometheus text exposition, rendered in one pass from
/// the same registry `/v1/metrics` reads.
fn metrics_text_route(
    state: &AppState,
    q: &Query,
    trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    q.check_known(&[])?;
    let serialize_start = Instant::now();
    let body = state.registry.render_prometheus();
    trace.add(Stage::Serialize, elapsed_us(serialize_start));
    Ok(Routed {
        status: 200,
        body: Body::Owned(body),
        cache_state: None,
        endpoint: "metrics_text",
        content_type: PROMETHEUS_CONTENT_TYPE,
    })
}

/// `GET /v1/debug/requests` — dump the flight recorder: the ring of recent
/// requests (newest first) and the slowest-K retention set (slowest first),
/// each with per-stage timings.
fn debug_requests_route(
    state: &AppState,
    q: &Query,
    _trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    q.check_known(&[])?;
    let recent: Vec<Json> = state
        .flight
        .recent()
        .iter()
        .map(crate::flight::RequestRecord::to_json)
        .collect();
    let slowest: Vec<Json> = state
        .flight
        .slowest()
        .iter()
        .map(crate::flight::RequestRecord::to_json)
        .collect();
    let body = Json::obj()
        .set("capacity", state.flight.capacity())
        .set("recorded", state.flight.recorded())
        .set("sample_every", state.sample_every)
        .set("recent", recent)
        .set("slowest", slowest)
        .render();
    Ok(Routed::ok(body, "debug_requests"))
}

/// `GET /` — endpoint index.
fn index_route(
    _state: &AppState,
    q: &Query,
    _trace: &mut RequestTrace,
) -> Result<Routed, ApiError> {
    q.check_known(&[])?;
    let endpoints = vec![
        Json::Str("/v1/characterize?domain=&params=&subbatch=".into()),
        Json::Str("/v1/sweep?domain=&lo=&hi=&points=&subbatch=".into()),
        Json::Str("/v1/project?domain=".into()),
        Json::Str("/v1/subbatch?domain=&params=".into()),
        Json::Str("/v1/plan?domain=&accels=&days=".into()),
        Json::Str("/v1/plan/search?domain=&days=&accels=&accel=&subbatch=&micro=".into()),
        Json::Str("/v1/infer/characterize?batch=&prompt=&context=&heads=&head_dim=&layers=&vocab=&ff=&tied=".into()),
        Json::Str("/v1/infer/sweep?prompt=&batch=&context=&heads=&head_dim=&layers=&vocab=&ff=&tied=".into()),
        Json::Str("/v1/infer/plan?tpot_ms=&ttft_ms=&tokens_per_s=&accel=&batch=&accels=&prompt=&context=".into()),
        Json::Str("/v1/healthz".into()),
        Json::Str("/v1/metrics".into()),
        Json::Str("/metrics".into()),
        Json::Str("/v1/debug/requests".into()),
    ];
    let body = Json::obj()
        .set("service", "frontier-serve")
        .set("endpoints", endpoints)
        .render();
    Ok(Routed::ok(body, "index"))
}

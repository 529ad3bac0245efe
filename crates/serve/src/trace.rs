//! Request-scoped trace context: a request id plus per-stage monotonic
//! timings threaded from `handle_connection` down through parse, cache,
//! compute, and response writing.
//!
//! Every request carries one [`RequestTrace`]; stages accumulate
//! microseconds as the request moves through the server. The stage set is
//! disjoint by construction (each covers a distinct code region), so the
//! stage sum is a lower bound on — and in practice within a few percent of
//! — the request's wall-clock latency. The trace surfaces three ways:
//!
//! * the opt-in `debug=timings` query parameter echoes the breakdown in the
//!   response body,
//! * every finished request's stages land in the
//!   [flight recorder](crate::flight::FlightRecorder),
//! * sampled requests (`--trace-sample-rate`) are promoted to full
//!   [`obs`] spans, so `--trace` captures server-side Chrome timelines.

use std::time::Instant;

use obs::Json;

/// Stages a request passes through, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Accept-to-worker queue wait.
    Queue,
    /// HTTP head read + request-line and query-string parsing.
    Parse,
    /// Memo-cache shard lookup (lock + probe).
    CacheLookup,
    /// Blocked on another request's in-flight compute (coalesced requests).
    SingleFlightWait,
    /// Analysis compute (cache misses only).
    Compute,
    /// JSON rendering of the response body.
    Serialize,
    /// Writing status + body to the socket.
    Write,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 7;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Queue,
        Stage::Parse,
        Stage::CacheLookup,
        Stage::SingleFlightWait,
        Stage::Compute,
        Stage::Serialize,
        Stage::Write,
    ];

    /// Stable snake_case key used in JSON bodies and span names.
    pub fn key(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Parse => "parse",
            Stage::CacheLookup => "cache_lookup",
            Stage::SingleFlightWait => "singleflight_wait",
            Stage::Compute => "compute",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Queue => 0,
            Stage::Parse => 1,
            Stage::CacheLookup => 2,
            Stage::SingleFlightWait => 3,
            Stage::Compute => 4,
            Stage::Serialize => 5,
            Stage::Write => 6,
        }
    }
}

/// Microseconds elapsed since `start`, saturating.
pub fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One request's trace context.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Monotonic per-server request id (1-based).
    pub id: u64,
    /// When the connection was accepted (latency epoch).
    pub accepted: Instant,
    /// Whether this request was sampled for full span capture.
    pub sampled: bool,
    stages: [u64; STAGE_COUNT],
}

impl RequestTrace {
    /// A fresh trace for request `id` accepted at `accepted`.
    pub fn new(id: u64, accepted: Instant, sampled: bool) -> RequestTrace {
        RequestTrace {
            id,
            accepted,
            sampled,
            stages: [0; STAGE_COUNT],
        }
    }

    /// Accumulate `us` into `stage` (stages may be visited more than once,
    /// e.g. head parse and query parse both land in [`Stage::Parse`]).
    pub fn add(&mut self, stage: Stage, us: u64) {
        self.stages[stage.index()] = self.stages[stage.index()].saturating_add(us);
    }

    /// Microseconds accumulated in `stage`.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.stages[stage.index()]
    }

    /// All stage timings, indexed like [`Stage::ALL`].
    pub fn stages(&self) -> [u64; STAGE_COUNT] {
        self.stages
    }

    /// Sum over all stages.
    pub fn sum_us(&self) -> u64 {
        self.stages.iter().sum()
    }

    /// Wall-clock microseconds since the request was accepted.
    pub fn elapsed_us(&self) -> u64 {
        elapsed_us(self.accepted)
    }

    /// The per-stage breakdown as a JSON object (`{"queue_us": .., ...}`).
    pub fn timings_json(&self) -> Json {
        Stage::ALL.iter().fold(Json::obj(), |acc, stage| {
            acc.set(&format!("{}_us", stage.key()), self.stage_us(*stage))
        })
    }

    /// Emit this request's timeline into the global obs recorder: one
    /// `serve.request` span covering `total_us`, with one `serve.stage.*`
    /// child span per nonzero stage laid out back-to-back. The layout is
    /// synthetic (stages are cumulative sums, not raw timestamps) but the
    /// durations are measured, so the Chrome trace reads true.
    pub fn emit_spans(&self, target: &str, endpoint: &str, status: u16, total_us: u64) {
        let rec = obs::recorder();
        let end_us = rec.now_us();
        let start_us = end_us.saturating_sub(total_us);
        rec.record(obs::TraceEvent {
            name: "serve.request".to_string(),
            category: "serve".to_string(),
            start_us,
            dur_us: total_us,
            thread: 0,
            kind: obs::EventKind::Complete,
            args: vec![
                ("id".to_string(), obs::Json::from(self.id)),
                ("target".to_string(), obs::Json::from(target)),
                ("endpoint".to_string(), obs::Json::from(endpoint)),
                ("status".to_string(), obs::Json::from(u64::from(status))),
            ],
        });
        let mut offset = start_us;
        for stage in Stage::ALL {
            let dur = self.stage_us(stage);
            if dur == 0 {
                continue;
            }
            rec.record(obs::TraceEvent {
                name: format!("serve.stage.{}", stage.key()),
                category: "serve".to_string(),
                start_us: offset,
                dur_us: dur,
                thread: 0,
                kind: obs::EventKind::Complete,
                args: vec![("id".to_string(), obs::Json::from(self.id))],
            });
            offset = offset.saturating_add(dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_accumulate_and_sum() {
        let mut t = RequestTrace::new(7, Instant::now(), false);
        t.add(Stage::Parse, 10);
        t.add(Stage::Parse, 5);
        t.add(Stage::Compute, 100);
        assert_eq!(t.stage_us(Stage::Parse), 15);
        assert_eq!(t.sum_us(), 115);
        let json = t.timings_json();
        assert_eq!(json.path("parse_us").and_then(Json::as_f64), Some(15.0));
        assert_eq!(json.path("compute_us").and_then(Json::as_f64), Some(100.0));
        assert_eq!(json.path("queue_us").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn sampled_traces_emit_request_and_stage_spans() {
        let before = obs::recorder().len();
        let mut t = RequestTrace::new(42, Instant::now(), true);
        t.add(Stage::Queue, 3);
        t.add(Stage::Compute, 20);
        t.emit_spans("/v1/test", "test", 200, 30);
        let events = obs::recorder().events();
        let new: Vec<_> = events.iter().skip(before).collect();
        assert!(new.iter().any(|e| e.name == "serve.request"));
        assert!(new.iter().any(|e| e.name == "serve.stage.queue"));
        assert!(new.iter().any(|e| e.name == "serve.stage.compute"));
        // Zero-duration stages are elided.
        assert!(!new.iter().any(|e| e.name == "serve.stage.parse"));
    }
}

//! Lightweight observability for the frontier workspace, and its one JSON
//! type.
//!
//! The only dependency is `parking_lot`, for the recorder and registry locks.
//! The pieces:
//!
//! * **Spans** — RAII wall-clock timers ([`span`], [`Span`]) that record into
//!   a global, thread-safe [`Recorder`]. Dropping a span emits a "complete"
//!   event with its duration; spans can carry key/value arguments.
//! * **Counters and instants** — point-in-time measurements
//!   ([`Recorder::counter`], [`Recorder::instant`]) for things like FLOP
//!   totals or sweep sizes.
//! * **Export** — [JSONL](Recorder::write_jsonl) for line-oriented tooling,
//!   and a [Chrome-trace-compatible](Recorder::write_chrome_trace) JSON
//!   array that loads in `chrome://tracing` / Perfetto for timeline views.
//! * **JSON** — [`Json`], a document tree with a builder, a compact writer
//!   and a parser. Trace export, the query server's `/v1` bodies and the
//!   bench binaries' summaries all write through it.
//! * **Metrics** — a name → instrument [registry](metrics::Registry) of
//!   sharded counters, gauges, and log₂ histograms with Prometheus text
//!   exposition; see [`metrics`].
//!
//! The `--trace <path>` flag in the bench binaries (or the `FRONTIER_TRACE`
//! environment variable, see [`trace_path_from_env`]) selects the output
//! file; tracing costs one mutex push per event when enabled and nothing is
//! written unless an export is requested.

mod json;
pub mod metrics;
mod recorder;
mod span;

pub use json::{escape as json_escape, Json};
pub use recorder::{recorder, EventKind, Recorder, TraceEvent};
pub use span::{span, time, Span};

/// Environment variable consulted when no `--trace` flag is given.
pub const TRACE_ENV: &str = "FRONTIER_TRACE";

/// Trace path from the `FRONTIER_TRACE` environment variable, if set and
/// non-empty.
pub fn trace_path_from_env() -> Option<String> {
    match std::env::var(TRACE_ENV) {
        Ok(path) if !path.is_empty() => Some(path),
        _ => None,
    }
}

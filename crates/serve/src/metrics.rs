//! Server metrics, registered into an [`obs::metrics::Registry`].
//!
//! This module used to own a bespoke histogram and a bag of loose atomics;
//! both now live in `obs::metrics` and every serve-tier series registers
//! into one per-server registry, so `GET /metrics` (Prometheus text) and
//! `GET /v1/metrics` (JSON) render from the same instruments. Series follow
//! the `frontier_` naming convention documented in DESIGN.md § "Telemetry
//! plane": `_total` counters, `_us` histogram units, one `{label}`
//! dimension at most.
//!
//! The registry is per-[`AppState`](crate::AppState), not process-global:
//! tests boot several servers in one process and assert exact per-server
//! counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use obs::metrics::Histogram;
use obs::metrics::{Counter, CounterFamily, Gauge, Registry};

/// Response status classes, in `by_class` order.
const CLASSES: [&str; 4] = ["2xx", "4xx", "5xx", "other"];

/// Server-wide metrics: registry-backed handles for the request path.
pub struct Metrics {
    /// Total requests (all endpoints, all statuses).
    pub requests: Arc<Counter>,
    /// Requests currently being handled.
    pub in_flight: Arc<Gauge>,
    /// Responses by status class, labeled `class` ∈ 2xx/4xx/5xx/other.
    by_class: [Arc<Counter>; 4],
    /// Requests per endpoint label.
    by_endpoint: CounterFamily,
    /// Requests refused because the queue was full.
    pub rejected_queue_full: Arc<Counter>,
    /// Requests refused because their deadline passed while queued.
    pub rejected_deadline: Arc<Counter>,
    /// End-to-end request latency.
    pub latency: Arc<Histogram>,
}

impl Metrics {
    /// Register every request-path series into `registry`.
    pub fn new(registry: &Registry) -> Metrics {
        let rejected = registry.counter_family(
            "frontier_requests_rejected_total",
            "Requests refused before dispatch, by reason.",
            "reason",
        );
        let by_class = registry.counter_family(
            "frontier_responses_total",
            "Responses by status class.",
            "class",
        );
        Metrics {
            requests: registry.counter(
                "frontier_requests_total",
                "Requests handled (all endpoints, all statuses).",
            ),
            in_flight: registry.gauge(
                "frontier_requests_in_flight",
                "Requests currently being handled.",
            ),
            by_class: std::array::from_fn(|i| by_class.with(CLASSES[i])),
            by_endpoint: registry.counter_family(
                "frontier_requests_by_endpoint_total",
                "Requests by endpoint label.",
                "endpoint",
            ),
            rejected_queue_full: rejected.with("queue_full"),
            rejected_deadline: rejected.with("deadline"),
            latency: registry.histogram(
                "frontier_request_latency_us",
                "End-to-end request latency in microseconds.",
            ),
        }
    }

    /// Count a request against its endpoint label.
    pub fn record_endpoint(&self, endpoint: &str) {
        self.by_endpoint.with(endpoint).inc();
    }

    /// Record a finished request.
    pub fn record_response(&self, status: u16, elapsed_us: u64) {
        self.requests.inc();
        let class = match status {
            200..=299 => 0,
            400..=499 => 1,
            500..=599 => 2,
            _ => 3,
        };
        self.by_class[class].inc();
        self.latency.record_us(elapsed_us);
    }

    /// Count of responses in the given class index ([2xx, 4xx, 5xx, other]).
    pub fn class_count(&self, class: usize) -> u64 {
        self.by_class[class].value()
    }

    /// Per-endpoint request counts, sorted by endpoint label.
    pub fn endpoint_counts(&self) -> Vec<(String, u64)> {
        self.by_endpoint.snapshot()
    }
}

/// Reactor-plane instruments: connection accounting, raw-target cache
/// effectiveness, and event-loop health. These live as plain atomics (the
/// reactor thread bumps them on its hot path; a registry `Counter` handle
/// would work too, but the atomics keep the reactor free of `Arc` clones
/// per event) and are registered as `serve_*` callback series by
/// `register_external_series`, so they render in both `/metrics` and
/// `/v1/metrics`.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Connections currently open (accepted, not yet closed). Gauge.
    pub connections_open: AtomicU64,
    /// Responses served on a connection that had already served at least
    /// one (keep-alive connection reuse).
    pub keepalive_reuses: AtomicU64,
    /// Requests answered by raw-target alias from the response cache.
    pub bytes_cache_hits: AtomicU64,
    /// Cacheable requests whose raw target had no alias (sent to the
    /// worker pool).
    pub bytes_cache_misses: AtomicU64,
    /// `epoll_wait` returns that delivered at least one event.
    pub epoll_wakeups: AtomicU64,
}

impl ReactorStats {
    /// One connection accepted.
    pub fn connection_opened(&self) {
        // Relaxed everywhere in this impl: standalone monotone tallies /
        // gauges observed only by scrapes; no value is published through
        // them.
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection closed.
    pub fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = Histogram::default();
        for us in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 5000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        // p50 lands in the 8–15 µs bucket.
        assert!(h.quantile_us(0.5) <= 15, "{}", h.quantile_us(0.5));
        // p99 must reflect the outlier (clamped to max).
        assert_eq!(h.quantile_us(0.99), 5000);
        assert_eq!(h.max_us(), 5000);
        assert!((h.mean_us() - 509.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let h = Histogram::default();
        h.record_us(u64::MAX);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
    }

    #[test]
    fn status_classes_bucket_correctly() {
        let registry = Registry::new();
        let m = Metrics::new(&registry);
        m.record_response(200, 10);
        m.record_response(404, 10);
        m.record_response(503, 10);
        m.record_response(200, 10);
        assert_eq!(m.class_count(0), 2);
        assert_eq!(m.class_count(1), 1);
        assert_eq!(m.class_count(2), 1);
        assert_eq!(m.requests.value(), 4);
    }

    #[test]
    fn endpoint_counts_come_from_the_family() {
        let registry = Registry::new();
        let m = Metrics::new(&registry);
        m.record_endpoint("characterize");
        m.record_endpoint("characterize");
        m.record_endpoint("healthz");
        assert_eq!(
            m.endpoint_counts(),
            vec![("characterize".to_string(), 2), ("healthz".to_string(), 1)]
        );
        // The same counts appear in the registry's exposition.
        let text = registry.render_prometheus();
        assert!(text.contains("frontier_requests_by_endpoint_total{endpoint=\"characterize\"} 2"));
    }
}

//! Concurrent HTTP/1.1 JSON query server over the characterization
//! pipeline.
//!
//! The paper's analyses (characterization sweeps, frontier projections,
//! subbatch selection, parallelism planning) are deterministic pure
//! functions of `(domain, model config, bindings)` — ideal memoization
//! targets. This crate serves them over plain `std::net` sockets behind a
//! single-threaded epoll reactor:
//!
//! ```text
//! epoll reactor (one thread: accept, parse, keep-alive, writev)
//!   ├─ response cache, by raw target ─► warm hit: zero-copy writev
//!   ├─ dynamic endpoints ─────────────► dispatched inline
//!   └─ cold computes ─────────────────► bounded worker pool ──► route dispatch
//!                                         └─ response cache, by QueryKey
//!                                            (sharded, single-flight)
//!                                              └─ analysis  (eventfd completes
//!                                                            back to the reactor)
//! ```
//!
//! One [`cache::ResponseCache`] holds each response once — body and
//! pre-rendered heads in one allocation — under its `QueryKey`, with a
//! raw-target alias index sharing the same `Arc` for the reactor's warm
//! path. Everything is `std`-only: hand-rolled HTTP, histogram, and raw-FFI
//! epoll (see the `reactor` module); bodies are built with `obs::Json` and
//! the LRU is `analysis::Lru`.
//! See `DESIGN.md` § "Event-driven serve tier" for the connection state
//! machine and the response cache,
//! § "Serving layer" for cache keying and shutdown semantics, and
//! § "Telemetry plane" for the metric registry, the request-scoped trace
//! context, and the flight recorder threaded through every request.

pub mod cache;
pub mod flags;
pub mod flight;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod query;
mod reactor;
pub mod routes;
pub mod signal;
pub mod trace;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::metrics::Registry;
use roofline::Accelerator;

use cache::ResponseCache;
use flight::{FlightRecorder, RequestRecord};
use metrics::{Metrics, ReactorStats};
use pool::{QueueWatcher, WorkerPool};
use reactor::{Completions, Reactor};
use trace::RequestTrace;

/// Cap on the global obs recorder once a server is running: sampled spans
/// must not grow memory without bound on a long-lived process.
const RECORDER_CAPACITY: usize = 65_536;

/// Server construction parameters (see the `serve` binary's flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:8080`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling cold computes.
    pub threads: usize,
    /// Response-cache capacity: the bound on resident responses, and
    /// separately on the raw-target aliases that point at them.
    pub cache_entries: usize,
    /// Bounded queue depth between the reactor and the workers.
    pub queue_depth: usize,
    /// Per-request deadline: a request still queued after this long is
    /// answered 503 instead of computed.
    pub deadline: Duration,
    /// Flight-recorder ring capacity, in request records.
    pub flight_entries: usize,
    /// Promote every Nth request to full span capture (0 disables
    /// sampling). Derived from `--trace-sample-rate` in the binary.
    pub trace_sample_every: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            threads: std::thread::available_parallelism().map_or(4, usize::from),
            cache_entries: 1024,
            queue_depth: 256,
            deadline: Duration::from_secs(30),
            flight_entries: 512,
            trace_sample_every: 0,
        }
    }
}

/// Shared server state: the response cache, the telemetry plane
/// (registry, metrics, flight recorder, reactor stats), and the reference
/// accelerator all roofline-derived endpoints price against.
pub struct AppState {
    /// Memoized, pre-serialized responses: one allocation each, found by
    /// `QueryKey` (single-flight, sharded) or by raw-target alias.
    pub cache: ResponseCache,
    /// Metric registry backing both `/metrics` and `/v1/metrics`.
    pub registry: Arc<Registry>,
    /// Request counters and latency histogram (registry-backed).
    pub metrics: Metrics,
    /// Reactor-plane counters: connections, keep-alive reuse, bytes-cache
    /// effectiveness, epoll wakeups.
    pub reactor: ReactorStats,
    /// Always-on ring + slowest-K set of finished requests.
    pub flight: FlightRecorder,
    /// Worker-pool queue-depth observer.
    pub pool: QueueWatcher,
    /// Reference accelerator (Table 4's V100-like part).
    pub accel: Accelerator,
    /// Server start time (for uptime reporting).
    pub started: Instant,
    /// Queued-request deadline.
    pub deadline: Duration,
    /// Promote every Nth request to full span capture (0 = off).
    pub sample_every: u64,
    /// Monotonic request-id source (first request gets id 1).
    next_id: AtomicU64,
}

impl AppState {
    /// Mint the next request id (1-based, monotonic).
    pub(crate) fn next_request_id(&self) -> u64 {
        // Relaxed: ids only need uniqueness, not ordering against other
        // request state.
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// accepting, drains in-flight requests, and joins every thread.
pub struct Server {
    state: Arc<AppState>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    completions: Arc<Completions>,
    reactor_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start accepting.
    pub fn start(config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        obs::recorder().set_capacity(RECORDER_CAPACITY);
        let pool = WorkerPool::new(config.threads, config.queue_depth);
        let shards = config.threads.clamp(1, 16);
        let registry = Arc::new(Registry::new());
        let metrics = Metrics::new(&registry);
        let state = Arc::new(AppState {
            cache: ResponseCache::new(config.cache_entries.max(1), shards),
            registry,
            metrics,
            reactor: ReactorStats::default(),
            flight: FlightRecorder::new(config.flight_entries.max(1)),
            pool: pool.watcher(),
            accel: Accelerator::v100_like(),
            started: Instant::now(),
            deadline: config.deadline,
            sample_every: config.trace_sample_every,
            next_id: AtomicU64::new(0),
        });
        register_external_series(&state);
        let stop = Arc::new(AtomicBool::new(false));
        let completions = Arc::new(Completions::new()?);
        let reactor = Reactor::new(
            listener,
            Arc::clone(&state),
            pool,
            Arc::clone(&completions),
            Arc::clone(&stop),
        )?;
        let reactor_thread = std::thread::Builder::new()
            .name("serve-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");
        Ok(Server {
            state,
            local_addr,
            stop,
            completions,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared state handle (tests inspect metrics through this).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Pop the reactor out of epoll_wait so it notices the flag now.
        self.completions.nudge();
        if let Some(handle) = self.reactor_thread.take() {
            let _ = handle.join();
        }
    }

    /// Serve until SIGTERM/SIGINT, then shut down gracefully. The reactor
    /// polls the signal flag itself, so drain starts within one epoll tick
    /// of delivery; this thread just waits to join.
    pub fn run_until_signal(mut self) {
        signal::install();
        while !signal::requested() && !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Register series whose values live outside `serve::metrics` — cache shard
/// counters, reactor-plane stats, pool queue depth, engine LRU occupancy,
/// interner tables — as registry callbacks. Callbacks capture a
/// `Weak<AppState>` (the registry is owned *by* the state, so a strong
/// capture would leak a cycle) and read the live value at exposition time.
///
/// Engine and interner series read process-wide singletons: in a
/// multi-server test process they aggregate across servers, exactly as the
/// JSON endpoint always has.
fn register_external_series(state: &Arc<AppState>) {
    use std::sync::atomic::Ordering::Relaxed;
    let r = &state.registry;
    let w = |f: fn(&AppState) -> u64| {
        let weak: Weak<AppState> = Arc::downgrade(state);
        move || weak.upgrade().map_or(0, |s| f(&s))
    };
    r.counter_fn(
        "frontier_cache_hits_total",
        "Cache lookups satisfied from a resident value.",
        w(|s| s.cache.stats.hits.load(Relaxed)),
    );
    r.counter_fn(
        "frontier_cache_misses_total",
        "Cache lookups that computed the value.",
        w(|s| s.cache.stats.misses.load(Relaxed)),
    );
    r.counter_fn(
        "frontier_cache_coalesced_total",
        "Cache lookups that waited on another request's compute.",
        w(|s| s.cache.stats.coalesced.load(Relaxed)),
    );
    r.counter_fn(
        "frontier_cache_evictions_total",
        "Cache values evicted to stay under capacity.",
        w(|s| s.cache.stats.evictions.load(Relaxed)),
    );
    r.counter_fn(
        "frontier_cache_failures_total",
        "Cache computes that failed (panicked or errored).",
        w(|s| s.cache.stats.failures.load(Relaxed)),
    );
    {
        let weak = Arc::downgrade(state);
        r.gauge_fn(
            "frontier_cache_entries",
            "Resident responses in the response cache.",
            move || weak.upgrade().map_or(0.0, |s| s.cache.len() as f64),
        );
    }
    {
        let weak = Arc::downgrade(state);
        r.gauge_fn(
            "frontier_cache_capacity",
            "Nominal response-cache capacity in responses.",
            move || weak.upgrade().map_or(0.0, |s| s.cache.capacity() as f64),
        );
    }
    // Reactor plane: connection accounting, raw-target cache
    // effectiveness, event-loop health.
    {
        let weak = Arc::downgrade(state);
        r.gauge_fn(
            "serve_connections_open",
            "Connections currently open on the reactor.",
            move || {
                weak.upgrade()
                    .map_or(0.0, |s| s.reactor.connections_open.load(Relaxed) as f64)
            },
        );
    }
    r.counter_fn(
        "serve_keepalive_reuses_total",
        "Responses served on an already-used keep-alive connection.",
        w(|s| s.reactor.keepalive_reuses.load(Relaxed)),
    );
    r.counter_fn(
        "serve_bytes_cache_hits_total",
        "Requests answered by raw target from the pre-serialized response cache.",
        w(|s| s.reactor.bytes_cache_hits.load(Relaxed)),
    );
    r.counter_fn(
        "serve_bytes_cache_misses_total",
        "Cacheable requests whose raw target had no cached response.",
        w(|s| s.reactor.bytes_cache_misses.load(Relaxed)),
    );
    r.counter_fn(
        "serve_epoll_wakeups_total",
        "epoll_wait returns that delivered at least one event.",
        w(|s| s.reactor.epoll_wakeups.load(Relaxed)),
    );
    {
        let weak = Arc::downgrade(state);
        r.gauge_fn(
            "serve_bytes_cache_entries",
            "Raw-target aliases resident in the response cache.",
            move || weak.upgrade().map_or(0.0, |s| s.cache.alias_count() as f64),
        );
    }
    {
        let watcher = state.pool.clone();
        r.gauge_fn(
            "frontier_pool_queue_depth",
            "Jobs queued between the reactor and the workers.",
            move || watcher.queued() as f64,
        );
    }
    r.counter_fn(
        "frontier_flight_recorded_total",
        "Requests deposited in the flight recorder.",
        w(|s| s.flight.recorded()),
    );
    {
        let weak = Arc::downgrade(state);
        r.gauge_fn(
            "frontier_uptime_seconds",
            "Seconds since the server started.",
            move || {
                weak.upgrade()
                    .map_or(0.0, |s| s.started.elapsed().as_secs_f64())
            },
        );
    }
    // Process-wide singletons (shared across servers in one process).
    r.counter_fn(
        "frontier_engine_families_built_total",
        "Symbolic model families built by the process-wide FamilyEngine.",
        || analysis::FamilyEngine::global().families_built() as u64,
    );
    r.gauge_fn(
        "frontier_engine_instances_cached",
        "Concrete instances resident in the FamilyEngine LRU.",
        || analysis::FamilyEngine::global().instances_cached() as f64,
    );
    r.gauge_fn(
        "frontier_engine_instance_capacity",
        "FamilyEngine LRU capacity.",
        || analysis::FamilyEngine::global().instance_capacity() as f64,
    );
    r.counter_fn(
        "frontier_infer_engine_families_built_total",
        "Symbolic serving families built by the process-wide InferEngine.",
        || analysis::InferEngine::global().families_built() as u64,
    );
    r.gauge_fn(
        "frontier_infer_engine_instances_cached",
        "Serving instances resident in the InferEngine LRU.",
        || analysis::InferEngine::global().instances_cached() as f64,
    );
    r.gauge_fn(
        "frontier_infer_engine_instance_capacity",
        "InferEngine LRU capacity.",
        || analysis::InferEngine::global().instance_capacity() as f64,
    );
    r.gauge_fn(
        "frontier_symath_table_len",
        "Expressions resident in the symath intern table.",
        || symath::intern_stats().table_len as f64,
    );
    r.counter_fn(
        "frontier_symath_intern_hits_total",
        "Intern-table hits.",
        || symath::intern_stats().intern_hits,
    );
    r.counter_fn(
        "frontier_symath_intern_misses_total",
        "Intern-table misses (fresh expressions).",
        || symath::intern_stats().intern_misses,
    );
    r.counter_fn(
        "frontier_symath_memo_hits_total",
        "Operation-memo hits (add/mul/pow/bind).",
        || symath::intern_stats().memo_hits,
    );
    r.counter_fn(
        "frontier_symath_memo_misses_total",
        "Operation-memo misses.",
        || symath::intern_stats().memo_misses,
    );
    r.gauge_fn(
        "frontier_symath_memo_entries",
        "Entries across the add/mul/pow/bind operation memo tables.",
        || symath::intern_stats().memo_entries as f64,
    );
    r.counter_fn(
        "frontier_symath_batch_programs_compiled_total",
        "Batched register-VM programs compiled for grid evaluation.",
        || symath::batch_stats().programs_compiled,
    );
    r.counter_fn(
        "frontier_symath_batch_program_cache_hits_total",
        "Batched register-VM program cache hits.",
        || symath::batch_stats().program_cache_hits,
    );
    r.counter_fn(
        "frontier_symath_batch_cse_reuses_total",
        "Subexpressions shared across roots by batched program compilation.",
        || symath::batch_stats().cse_reuses,
    );
    r.counter_fn(
        "frontier_symath_batch_evals_total",
        "Grid evaluations answered by the batched register VM.",
        || symath::batch_stats().evals,
    );
    r.counter_fn(
        "frontier_symath_batch_points_total",
        "Grid points priced by the batched register VM.",
        || symath::batch_stats().points,
    );
}

/// RAII accounting for one request: increments `in_flight` on construction
/// and — on drop, which runs even while a route handler's panic unwinds
/// toward the pool's `catch_unwind` — records the response (status class +
/// latency sample), decrements `in_flight`, deposits the flight-recorder
/// record, and emits sampled spans. A panicking route therefore cannot
/// leak an in-flight count or skip its latency sample; it reports as the
/// default 500.
///
/// The guard owns an `Arc<AppState>` so it can travel with the request:
/// created on the reactor thread, carried into a worker for cold computes,
/// and dropped back on the reactor after the response bytes flush — the
/// latency sample covers the full first-byte-to-last-byte span.
pub(crate) struct RequestGuard {
    pub(crate) state: Arc<AppState>,
    pub(crate) trace: RequestTrace,
    pub(crate) target: String,
    pub(crate) endpoint: &'static str,
    pub(crate) status: u16,
    pub(crate) cache_state: Option<&'static str>,
}

impl RequestGuard {
    pub(crate) fn new(state: Arc<AppState>, trace: RequestTrace) -> RequestGuard {
        state.metrics.in_flight.add(1);
        RequestGuard {
            state,
            trace,
            target: String::new(),
            endpoint: "unhandled",
            status: 500,
            cache_state: None,
        }
    }
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        let total_us = self.trace.elapsed_us();
        self.state.metrics.record_response(self.status, total_us);
        self.state.metrics.in_flight.sub(1);
        if self.trace.sampled {
            self.trace
                .emit_spans(&self.target, self.endpoint, self.status, total_us);
        }
        self.state.flight.record(RequestRecord {
            id: self.trace.id,
            target: std::mem::take(&mut self.target),
            endpoint: self.endpoint,
            status: self.status,
            cache_state: self.cache_state,
            total_us,
            stages: self.trace.stages(),
            sampled: self.trace.sampled,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Stage;

    /// Build an [`AppState`] without binding a socket, for guard tests.
    fn test_state() -> Arc<AppState> {
        let pool = WorkerPool::new(1, 4);
        let registry = Arc::new(Registry::new());
        let metrics = Metrics::new(&registry);
        Arc::new(AppState {
            cache: ResponseCache::new(8, 1),
            registry,
            metrics,
            reactor: ReactorStats::default(),
            flight: FlightRecorder::new(8),
            pool: pool.watcher(),
            accel: Accelerator::v100_like(),
            started: Instant::now(),
            deadline: Duration::from_secs(30),
            sample_every: 0,
            next_id: AtomicU64::new(0),
        })
    }

    #[test]
    fn guard_accounts_for_panicking_requests() {
        let state = test_state();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let trace = RequestTrace::new(1, Instant::now(), false);
            let _guard = RequestGuard::new(Arc::clone(&state), trace);
            assert_eq!(state.metrics.in_flight.value(), 1);
            panic!("route exploded");
        }));
        assert!(result.is_err(), "the panic propagated");
        // The guard ran during unwind: accounting is intact.
        assert_eq!(state.metrics.in_flight.value(), 0, "no leaked in-flight");
        assert_eq!(state.metrics.requests.value(), 1);
        assert_eq!(state.metrics.class_count(2), 1, "counted as a 5xx");
        assert_eq!(state.metrics.latency.count(), 1, "latency sample taken");
        let records = state.flight.recent();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].status, 500);
        assert_eq!(records[0].endpoint, "unhandled");
    }

    #[test]
    fn guard_records_the_finished_request() {
        let state = test_state();
        {
            let mut trace = RequestTrace::new(9, Instant::now(), false);
            trace.add(Stage::Compute, 1234);
            let mut guard = RequestGuard::new(Arc::clone(&state), trace);
            guard.endpoint = "characterize";
            guard.status = 200;
            guard.cache_state = Some("miss");
            guard.target = "/v1/characterize?domain=wordlm".to_string();
        }
        assert_eq!(state.metrics.in_flight.value(), 0);
        assert_eq!(state.metrics.class_count(0), 1);
        let records = state.flight.recent();
        assert_eq!(records[0].id, 9);
        assert_eq!(records[0].cache_state, Some("miss"));
        assert_eq!(records[0].stages[4], 1234, "compute stage preserved");
    }

    #[test]
    fn request_ids_are_monotonic_from_one() {
        let state = test_state();
        assert_eq!(state.next_request_id(), 1);
        assert_eq!(state.next_request_id(), 2);
        assert_eq!(state.next_request_id(), 3);
    }
}

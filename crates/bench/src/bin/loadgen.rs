//! `loadgen` — TCP load generator for the `serve` query server.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--threads N] [--requests M]
//!         [--keep-alive] [--pipeline-depth D] [--summary PATH] [--spawn]
//! ```
//!
//! Drives a mixed endpoint workload with `--threads` clients issuing
//! `--requests` requests each, and reports throughput plus p50/p95/p99
//! latency — separately for the **cold** pass (first time each expensive
//! query is seen, cache empty), the **warm per-connection** pass (every
//! repeat is a cache hit, but each request pays a fresh TCP connect), and
//! optionally a **warm keep-alive** pass (`--keep-alive`: one persistent
//! connection per thread, optionally pipelined `--pipeline-depth` deep).
//! With `--spawn` it boots an in-process server on an ephemeral port first,
//! so one command produces an end-to-end benchmark.
//!
//! Every client socket sets `TCP_NODELAY`, and connection setup is timed as
//! its own `connect_us` component — earlier versions folded connect (and
//! Nagle/delayed-ACK stalls) into warm p50, which made every endpoint
//! report an identical flat ~5 ms.
//!
//! `--summary PATH` writes the numbers as JSON (see `BENCH_serve.json`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::Mutex;

use obs::Json;
use serve::flags::Flags;
use serve::{ServeConfig, Server};

const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--threads N] [--requests M] \
[--keep-alive] [--pipeline-depth D] [--summary PATH] [--spawn]
  --addr            server to drive (default 127.0.0.1:8080)
  --threads         concurrent client threads (default 4)
  --requests        requests per thread in each warm pass (default 50)
  --keep-alive      add a warm pass over persistent connections
  --pipeline-depth  requests in flight per keep-alive connection (default 1)
  --summary         write a JSON summary to this path
  --spawn           boot an in-process serve instance on an ephemeral port";

/// The mixed workload. Expensive analysis queries plus cheap liveness
/// traffic, all against the default-scale models so the cold pass stays in
/// seconds.
const MIX: &[&str] = &[
    "/v1/characterize?domain=wordlm&subbatch=16",
    "/v1/characterize?domain=nmt&subbatch=32",
    "/v1/sweep?domain=wordlm&lo=1000000&hi=100000000&points=7",
    "/v1/project?domain=speech",
    "/v1/subbatch?domain=charlm&params=10000000",
    "/v1/plan?domain=resnet&accels=16384",
    "/v1/infer/characterize?batch=64&prompt=512&context=1024",
    "/v1/infer/sweep?batch=1,4,16,64&context=512,2048",
    "/v1/infer/plan?tpot_ms=50&ttft_ms=500&tokens_per_s=20000",
    "/v1/healthz",
    "/v1/metrics",
];

/// The paths whose first computation is expensive (cold pass targets).
const EXPENSIVE: usize = 9;

/// One parsed HTTP response.
struct Response {
    status: u16,
    cache: Option<String>,
    /// The server signalled it will close the connection after this.
    close: bool,
}

/// One per-connection HTTP exchange. Returns the response plus how long
/// the TCP connect took (`connect_us`), so connection setup is never
/// silently folded into service latency.
fn fetch(addr: SocketAddr, path: &str) -> Result<(Response, u64), String> {
    let connect_start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let connect_us = u64::try_from(connect_start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, _body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response without head/body separator".to_string())?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {:?}", head.lines().next().unwrap_or("")))?;
    let cache = head
        .lines()
        .find_map(|l| l.strip_prefix("x-cache: ").map(str::to_string));
    Ok((
        Response {
            status,
            cache,
            close: true,
        },
        connect_us,
    ))
}

/// A persistent keep-alive client: one connection reused across requests
/// (reconnecting if the server closes it), responses framed by
/// `content-length` rather than EOF. Supports writing a batch of pipelined
/// requests before reading any response.
struct KeepAliveClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the previous response (pipelined successors).
    buf: Vec<u8>,
    reconnects: u64,
}

impl KeepAliveClient {
    fn new(addr: SocketAddr) -> KeepAliveClient {
        KeepAliveClient {
            addr,
            stream: None,
            buf: Vec::new(),
            reconnects: 0,
        }
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
            self.buf.clear();
            self.stream = Some(stream);
            self.reconnects += 1;
        }
        Ok(self.stream.as_mut().expect("just ensured"))
    }

    fn drop_connection(&mut self) {
        self.stream = None;
        self.buf.clear();
    }

    /// Write `paths` back-to-back (one flush), then read the matching
    /// responses in order. Returns one `Response` per request.
    fn pipelined(&mut self, paths: &[&str]) -> Result<Vec<Response>, String> {
        let stream = self.ensure_connected()?;
        let mut wire = String::new();
        for path in paths {
            wire.push_str(&format!("GET {path} HTTP/1.1\r\nhost: loadgen\r\n\r\n"));
        }
        if let Err(e) = stream.write_all(wire.as_bytes()) {
            self.drop_connection();
            return Err(format!("write: {e}"));
        }
        let mut responses = Vec::with_capacity(paths.len());
        for _ in paths {
            match self.read_response() {
                Ok(resp) => {
                    let close = resp.close;
                    responses.push(resp);
                    if close {
                        // Server is done with this connection; any further
                        // pipelined requests in this batch were discarded.
                        self.drop_connection();
                        if responses.len() < paths.len() {
                            return Err("connection closed mid-pipeline".to_string());
                        }
                    }
                }
                Err(e) => {
                    self.drop_connection();
                    return Err(e);
                }
            }
        }
        Ok(responses)
    }

    /// Read one `content-length`-framed response from the connection.
    fn read_response(&mut self) -> Result<Response, String> {
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let body_start = head_end + 4;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {:?}", head.lines().next().unwrap_or("")))?;
        let mut content_length = 0usize;
        let mut cache = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value
                        .parse()
                        .map_err(|_| format!("bad content-length {value:?}"))?;
                }
                "x-cache" => cache = Some(value.to_string()),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        while self.buf.len() < body_start + content_length {
            self.fill()?;
        }
        self.buf.drain(..body_start + content_length);
        Ok(Response {
            status,
            cache,
            close,
        })
    }

    /// Pull more bytes off the socket into the buffer.
    fn fill(&mut self) -> Result<(), String> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| "connection closed".to_string())?;
        let mut chunk = [0u8; 16 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => Err("connection closed mid-response".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Exact per-request latency samples. The server's own `Histogram` is
/// log₂-bucketed — right for unbounded rolling metrics, but quantile
/// readback returns bucket upper bounds, so a warm pass whose latencies all
/// land in one bucket reports p50 == p95 == p99 == max. A load generator
/// knows its request count up front; it can afford every sample and report
/// true order statistics.
#[derive(Default)]
struct Samples(Mutex<Vec<u64>>);

impl Samples {
    fn record_us(&self, us: u64) {
        self.0.lock().expect("samples lock").push(us);
    }

    fn sorted_us(&self) -> Vec<u64> {
        let mut v = self.0.lock().expect("samples lock").clone();
        v.sort_unstable();
        v
    }
}

/// Nearest-rank quantile of an ascending sample vector (0 when empty).
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `{p50_us, p95_us, p99_us, max_us}` of a sample set.
fn quantiles_json(sorted: &[u64]) -> Json {
    Json::obj()
        .set("p50_us", quantile_us(sorted, 0.5))
        .set("p95_us", quantile_us(sorted, 0.95))
        .set("p99_us", quantile_us(sorted, 0.99))
        .set("max_us", sorted.last().copied().unwrap_or(0))
}

/// Warm-pass latency samples and error counts broken out per endpoint path,
/// for the machine-readable summary CI diffs against `BENCH_serve.json`.
#[derive(Default)]
struct PerEndpoint(Mutex<std::collections::BTreeMap<String, (Vec<u64>, u64)>>);

impl PerEndpoint {
    fn record(&self, path: &str, us: u64, ok: bool) {
        let mut map = self.0.lock().expect("per-endpoint lock");
        let entry = map.entry(path.to_string()).or_default();
        entry.0.push(us);
        if !ok {
            entry.1 += 1;
        }
    }

    /// `{path: {count, p50_us, p95_us, p99_us, errors}}`.
    fn to_json(&self) -> Json {
        let map = self.0.lock().expect("per-endpoint lock");
        let mut doc = Json::obj();
        for (path, (samples, errors)) in map.iter() {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            doc = doc.set(
                path.as_str(),
                Json::obj()
                    .set("count", sorted.len())
                    .set("p50_us", quantile_us(&sorted, 0.5))
                    .set("p95_us", quantile_us(&sorted, 0.95))
                    .set("p99_us", quantile_us(&sorted, 0.99))
                    .set("errors", *errors),
            );
        }
        doc
    }
}

#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
    transport_errors: AtomicU64,
    cache_hits: AtomicU64,
}

impl Counters {
    fn record_response(&self, resp: &Response) {
        match resp.status {
            200..=299 => self.ok.fetch_add(1, Ordering::Relaxed),
            400..=499 => self.client_errors.fetch_add(1, Ordering::Relaxed),
            _ => self.server_errors.fetch_add(1, Ordering::Relaxed),
        };
        if matches!(resp.cache.as_deref(), Some("hit" | "coalesced")) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("ok", self.ok.load(Ordering::Relaxed))
            .set("client_errors", self.client_errors.load(Ordering::Relaxed))
            .set("server_errors", self.server_errors.load(Ordering::Relaxed))
            .set(
                "transport_errors",
                self.transport_errors.load(Ordering::Relaxed),
            )
            .set("cache_hits", self.cache_hits.load(Ordering::Relaxed))
    }

    fn failed(&self) -> u64 {
        self.server_errors.load(Ordering::Relaxed) + self.transport_errors.load(Ordering::Relaxed)
    }
}

/// One per-connection exchange with split timing: `connect_us` recorded
/// apart from the service (write→last byte) time that lands in `samples`.
fn timed_fetch(
    addr: SocketAddr,
    path: &str,
    samples: &Samples,
    connects: &Samples,
    counters: &Counters,
) -> Result<Response, String> {
    let start = Instant::now();
    let result = fetch(addr, path);
    let total_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    match result {
        Ok((resp, connect_us)) => {
            connects.record_us(connect_us);
            samples.record_us(total_us.saturating_sub(connect_us));
            counters.record_response(&resp);
            Ok(resp)
        }
        Err(e) => {
            samples.record_us(total_us);
            counters.transport_errors.fetch_add(1, Ordering::Relaxed);
            Err(e)
        }
    }
}

struct Config {
    addr_flag: String,
    threads: usize,
    requests: usize,
    keep_alive: bool,
    pipeline_depth: usize,
    summary_path: Option<String>,
    spawn: bool,
}

fn parse_flags(flags: &Flags) -> Result<Config, String> {
    flags.check_known(&[
        "--addr",
        "--threads",
        "--requests",
        "--keep-alive",
        "--pipeline-depth",
        "--summary",
        "--spawn",
        "--help",
    ])?;
    Ok(Config {
        addr_flag: flags.get_or("--addr", "127.0.0.1:8080".to_string())?,
        threads: flags.get_or("--threads", 4usize)?,
        requests: flags.get_or("--requests", 50usize)?,
        keep_alive: flags.switch("--keep-alive"),
        pipeline_depth: flags.get_or("--pipeline-depth", 1usize)?,
        summary_path: flags.get::<String>("--summary")?,
        spawn: flags.switch("--spawn"),
    })
}

/// Warm pass over persistent connections: one keep-alive client per
/// thread, `depth` requests pipelined per batch. Returns
/// `(samples, counters, elapsed_seconds, reconnects)`.
fn keepalive_pass(
    addr: SocketAddr,
    threads: usize,
    requests: usize,
    depth: usize,
) -> (Arc<Samples>, Arc<Counters>, f64, u64) {
    let samples = Arc::new(Samples::default());
    let counters = Arc::new(Counters::default());
    let reconnects = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads.max(1) {
        let samples = Arc::clone(&samples);
        let counters = Arc::clone(&counters);
        let reconnects = Arc::clone(&reconnects);
        handles.push(std::thread::spawn(move || {
            let mut client = KeepAliveClient::new(addr);
            let mut sent = 0usize;
            while sent < requests {
                let batch_len = depth.max(1).min(requests - sent);
                let paths: Vec<&str> = (0..batch_len)
                    .map(|k| MIX[(t + sent + k) % MIX.len()])
                    .collect();
                let start = Instant::now();
                match client.pipelined(&paths) {
                    Ok(responses) => {
                        // Individual responses inside a pipelined batch are
                        // not separable on the wire; attribute an equal
                        // share of the batch time to each.
                        let per_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
                            / batch_len as u64;
                        for resp in &responses {
                            samples.record_us(per_us);
                            counters.record_response(resp);
                        }
                    }
                    Err(_) => {
                        counters
                            .transport_errors
                            .fetch_add(batch_len as u64, Ordering::Relaxed);
                    }
                }
                sent += batch_len;
            }
            // First connect is expected; anything beyond it is a
            // mid-run reconnect worth surfacing.
            reconnects.fetch_add(client.reconnects.saturating_sub(1), Ordering::Relaxed);
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    (
        samples,
        counters,
        started.elapsed().as_secs_f64(),
        reconnects.load(Ordering::Relaxed),
    )
}

fn main() -> ExitCode {
    let flags = Flags::from_env();
    if flags.switch("--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let config = match parse_flags(&flags) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (threads, requests) = (config.threads, config.requests);

    // Optionally boot the server in-process (ephemeral port, drained on exit).
    let spawned = if config.spawn {
        let serve_config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        match Server::start(&serve_config) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("loadgen: failed to spawn server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr: SocketAddr = match spawned {
        Some(ref server) => server.local_addr(),
        None => match config
            .addr_flag
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
        {
            Some(addr) => addr,
            None => {
                eprintln!("loadgen: cannot resolve {:?}\n{USAGE}", config.addr_flag);
                return ExitCode::from(2);
            }
        },
    };
    println!("loadgen: driving http://{addr} with {threads} threads x {requests} requests");

    // Cold pass: first touch of each expensive endpoint, sequentially, while
    // the cache has never seen them.
    let cold = Samples::default();
    let cold_connects = Samples::default();
    let cold_counters = Counters::default();
    for path in &MIX[..EXPENSIVE] {
        if let Err(e) = timed_fetch(addr, path, &cold, &cold_connects, &cold_counters) {
            eprintln!("loadgen: cold {path}: {e}");
        }
    }

    // Warm per-connection pass: concurrent mixed traffic, a fresh TCP
    // connection per request; every expensive query repeats the cold pass,
    // so it should be served from cache.
    let warm = Arc::new(Samples::default());
    let warm_connects = Arc::new(Samples::default());
    let warm_characterize = Arc::new(Samples::default());
    let per_endpoint = Arc::new(PerEndpoint::default());
    let counters = Arc::new(Counters::default());
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads.max(1) {
        let warm = Arc::clone(&warm);
        let warm_connects = Arc::clone(&warm_connects);
        let warm_characterize = Arc::clone(&warm_characterize);
        let per_endpoint = Arc::clone(&per_endpoint);
        let counters = Arc::clone(&counters);
        handles.push(std::thread::spawn(move || {
            for i in 0..requests {
                let path = MIX[(t + i) % MIX.len()];
                let samples: &Samples = if path.starts_with("/v1/characterize") {
                    &warm_characterize
                } else {
                    &warm
                };
                let start = Instant::now();
                let result = timed_fetch(addr, path, samples, &warm_connects, &counters);
                let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                let endpoint = path.split('?').next().unwrap_or(path);
                let ok = matches!(&result, Ok(resp) if (200..300).contains(&resp.status));
                per_endpoint.record(endpoint, us, ok);
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Warm keep-alive pass: same mix, persistent pipelined connections.
    let keepalive = if config.keep_alive {
        Some(keepalive_pass(
            addr,
            threads,
            requests,
            config.pipeline_depth,
        ))
    } else {
        None
    };
    drop(spawned); // graceful drain before reporting

    let total = (threads.max(1) * requests) as u64;
    let throughput = if elapsed > 0.0 {
        total as f64 / elapsed
    } else {
        0.0
    };
    let cold_sorted = cold.sorted_us();
    let warm_sorted = warm.sorted_us();
    let warm_connect_sorted = warm_connects.sorted_us();
    let warm_char_sorted = warm_characterize.sorted_us();
    let cold_p50 = quantile_us(&cold_sorted, 0.5);
    let warm_char_p50 = quantile_us(&warm_char_sorted, 0.5);
    let speedup = if warm_char_p50 > 0 {
        cold_p50 as f64 / warm_char_p50 as f64
    } else {
        f64::INFINITY
    };

    println!(
        "\ncold pass ({} expensive endpoints, cache empty):",
        EXPENSIVE
    );
    println!(
        "  p50 {} us   max {} us",
        cold_p50,
        cold_sorted.last().copied().unwrap_or(0)
    );
    println!(
        "warm per-connection pass ({total} requests in {elapsed:.2}s, {throughput:.0} req/s):"
    );
    println!(
        "  characterize p50 {} us   all-endpoints p50 {} us  p95 {} us  p99 {} us",
        warm_char_p50,
        quantile_us(&warm_sorted, 0.5),
        quantile_us(&warm_sorted, 0.95),
        quantile_us(&warm_sorted, 0.99),
    );
    println!(
        "  connect p50 {} us  p99 {} us (reported apart from service time)",
        quantile_us(&warm_connect_sorted, 0.5),
        quantile_us(&warm_connect_sorted, 0.99),
    );
    println!("  cold/warm characterize p50 speedup: {speedup:.0}x");
    println!(
        "  ok {}  4xx {}  5xx {}  transport errors {}  cache hits {}",
        counters.ok.load(Ordering::Relaxed),
        counters.client_errors.load(Ordering::Relaxed),
        counters.server_errors.load(Ordering::Relaxed),
        counters.transport_errors.load(Ordering::Relaxed),
        counters.cache_hits.load(Ordering::Relaxed),
    );
    if let Some((ka_samples, ka_counters, ka_elapsed, ka_reconnects)) = &keepalive {
        let ka_sorted = ka_samples.sorted_us();
        let ka_total = ka_sorted.len() as u64;
        let ka_throughput = if *ka_elapsed > 0.0 {
            ka_total as f64 / ka_elapsed
        } else {
            0.0
        };
        println!(
            "warm keep-alive pass ({ka_total} requests in {ka_elapsed:.2}s, depth {}): {ka_throughput:.0} req/s",
            config.pipeline_depth.max(1),
        );
        println!(
            "  p50 {} us  p95 {} us  p99 {} us  reconnects {ka_reconnects}",
            quantile_us(&ka_sorted, 0.5),
            quantile_us(&ka_sorted, 0.95),
            quantile_us(&ka_sorted, 0.99),
        );
        println!(
            "  ok {}  4xx {}  5xx {}  transport errors {}  cache hits {}",
            ka_counters.ok.load(Ordering::Relaxed),
            ka_counters.client_errors.load(Ordering::Relaxed),
            ka_counters.server_errors.load(Ordering::Relaxed),
            ka_counters.transport_errors.load(Ordering::Relaxed),
            ka_counters.cache_hits.load(Ordering::Relaxed),
        );
    }

    if let Some(path) = &config.summary_path {
        let mut doc = Json::obj()
            .set("threads", threads)
            .set("requests_per_thread", requests)
            .set("total_requests", total)
            .set("elapsed_seconds", elapsed)
            .set("throughput_rps", throughput)
            .set(
                "cold",
                Json::obj()
                    .set("p50_us", cold_p50)
                    .set("max_us", cold_sorted.last().copied().unwrap_or(0)),
            )
            .set(
                "warm",
                Json::obj()
                    .set("characterize_p50_us", warm_char_p50)
                    .set("p50_us", quantile_us(&warm_sorted, 0.5))
                    .set("p95_us", quantile_us(&warm_sorted, 0.95))
                    .set("p99_us", quantile_us(&warm_sorted, 0.99))
                    .set("max_us", warm_sorted.last().copied().unwrap_or(0)),
            )
            .set("connect", quantiles_json(&warm_connect_sorted))
            .set("cold_over_warm_characterize_p50", speedup)
            .set("per_endpoint", per_endpoint.to_json())
            .set("responses", counters.to_json());
        if let Some((ka_samples, ka_counters, ka_elapsed, ka_reconnects)) = &keepalive {
            let ka_sorted = ka_samples.sorted_us();
            let ka_total = ka_sorted.len() as u64;
            let ka_throughput = if *ka_elapsed > 0.0 {
                ka_total as f64 / ka_elapsed
            } else {
                0.0
            };
            doc = doc.set(
                "warm_keepalive",
                Json::obj()
                    .set("pipeline_depth", config.pipeline_depth.max(1))
                    .set("total_requests", ka_total)
                    .set("elapsed_seconds", *ka_elapsed)
                    .set("throughput_rps", ka_throughput)
                    .set("reconnects", *ka_reconnects)
                    .set("p50_us", quantile_us(&ka_sorted, 0.5))
                    .set("p95_us", quantile_us(&ka_sorted, 0.95))
                    .set("p99_us", quantile_us(&ka_sorted, 0.99))
                    .set("max_us", ka_sorted.last().copied().unwrap_or(0))
                    .set("responses", ka_counters.to_json()),
            );
        }
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("loadgen: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  summary -> {path}");
    }

    let mut failed = counters.failed();
    if let Some((_, ka_counters, ..)) = &keepalive {
        failed += ka_counters.failed();
    }
    if failed > 0 {
        eprintln!("loadgen: {failed} failed requests");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

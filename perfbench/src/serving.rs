//! `serve_hot` and `serve_cold`: the query server over TCP.
//!
//! The server runs in process on the program CPU (one reactor thread and
//! one worker thread, both inheriting that placement); the load generator
//! is the main thread on the client CPU, with one keep-alive connection and
//! one request in flight.

use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use serve::flight::RequestRecord;
use serve::trace::Stage;
use serve::{ServeConfig, Server};

use crate::ledger::Ledger;
use crate::runner::{ratio, Metrics, Workload};
use crate::stats::{percentile, Rng};
use crate::sys::{pin_current_thread, IdleSpinner, Placement};

/// Server settings shared by both serve workloads. The memo cache is small
/// enough that `serve_cold` evicts within a run; the flight ring holds the
/// traced phase's requests for the stage medians.
fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        cache_entries: 256,
        queue_depth: 64,
        deadline: Duration::from_secs(30),
        flight_entries: 4096,
        trace_sample_every: 0,
    }
}

/// Start the server with every thread it spawns on the program CPU, then
/// move the calling thread to the client CPU.
fn start_server(placement: Placement) -> io::Result<Server> {
    pin_current_thread(placement.program)?;
    let server = Server::start(&serve_config())?;
    pin_current_thread(placement.client)?;
    Ok(server)
}

/// How a response was served, from its `x-cache` header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheState {
    Hit,
    Miss,
    Other,
}

/// A blocking HTTP/1.1 client on one keep-alive connection. The response
/// body stays in the client's buffer until the next request.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    body: std::ops::Range<usize>,
}

/// Status line and headers of the last response.
pub struct Response {
    pub status: u16,
    pub cache: CacheState,
}

impl Client {
    /// Connect to `server`. A `spinning` client polls its socket instead
    /// of sleeping in `read`, so its own CPU never halts between the request
    /// and the response; use it only on a CPU of its own.
    pub fn connect(server: &Server, spinning: bool) -> io::Result<Client> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_nonblocking(spinning)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
            body: 0..0,
        })
    }

    /// Send `GET target` and read the whole response.
    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        let request = format!("GET {target} HTTP/1.1\r\nhost: perfbench\r\n\r\n");
        let mut sent = 0;
        let started = Instant::now();
        while sent < request.len() {
            match self.stream.write(&request.as_bytes()[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => wait_or_time_out(started)?,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        let mut chunk = [0u8; 1 << 14];
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.read_some(&mut chunk)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::other("non-UTF-8 response head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("bad status line"))?;
        let mut length = None;
        let mut cache = CacheState::Other;
        for line in head.lines() {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            match (k.trim().to_ascii_lowercase().as_str(), v.trim()) {
                ("content-length", v) => length = v.parse::<usize>().ok(),
                ("x-cache", "hit") => cache = CacheState::Hit,
                ("x-cache", "miss") => cache = CacheState::Miss,
                _ => {}
            }
        }
        let length = length.ok_or_else(|| io::Error::other("no content-length"))?;
        while self.buf.len() < head_end + length {
            self.read_some(&mut chunk)?;
        }
        self.body = head_end..head_end + length;
        Ok(Response { status, cache })
    }

    fn read_some(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        let started = Instant::now();
        let n = loop {
            match self.stream.read(chunk) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => wait_or_time_out(started)?,
                r => break r?,
            }
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.clone()]
    }
}

/// How long a request may wait for the socket before it fails.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One spin of a polling client, or a timeout error after [`IO_TIMEOUT`].
fn wait_or_time_out(started: Instant) -> io::Result<()> {
    if started.elapsed() > IO_TIMEOUT {
        return Err(io::Error::new(io::ErrorKind::TimedOut, "no response"));
    }
    std::hint::spin_loop();
    Ok(())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Reactor and cache counters, read before and after the traced phase.
#[derive(Clone, Copy, Default)]
struct Counters {
    bytes_hits: u64,
    bytes_misses: u64,
    memo_hits: u64,
    memo_misses: u64,
    evictions: u64,
    wakeups: u64,
    last_id: u64,
}

impl Counters {
    fn read(server: &Server) -> Counters {
        let s = server.state();
        Counters {
            bytes_hits: s.reactor.bytes_cache_hits.load(Relaxed),
            bytes_misses: s.reactor.bytes_cache_misses.load(Relaxed),
            memo_hits: s.cache.stats.hits.load(Relaxed),
            memo_misses: s.cache.stats.misses.load(Relaxed),
            evictions: s.cache.stats.evictions.load(Relaxed),
            wakeups: s.reactor.epoll_wakeups.load(Relaxed),
            last_id: s.flight.recent().first().map_or(0, |r| r.id),
        }
    }
}

/// State shared by both serve workloads: the server, the connection, and
/// the traced-phase bookkeeping.
struct Session {
    server: Server,
    client: Client,
    spinning: bool,
    traced: bool,
    before: Counters,
    requests: u64,
    /// Client-observed latency of each traced request, microseconds.
    client_us: Vec<f64>,
    /// Declared last: dropped after the server has shut down.
    _spinner: Option<IdleSpinner>,
}

impl Session {
    /// Start the server and connect. A `spinning` session keeps both CPUs
    /// out of idle halt between requests (see `IdleSpinner`): the client
    /// polls its socket and the program CPU runs an idle-class spinner. It
    /// needs a CPU for each side; sharing one, both must sleep.
    fn start(placement: Placement, spinning: bool) -> io::Result<Session> {
        let server = start_server(placement)?;
        let spinning = spinning && placement.client != placement.program;
        let spinner = if spinning {
            Some(IdleSpinner::start(placement.program)?)
        } else {
            None
        };
        let client = Client::connect(&server, spinning)?;
        Ok(Session {
            server,
            client,
            spinning,
            traced: false,
            before: Counters::default(),
            requests: 0,
            client_us: Vec::new(),
            _spinner: spinner,
        })
    }

    /// Reconnect after a failed request so the next op starts clean.
    fn reconnect(&mut self) {
        match Client::connect(&self.server, self.spinning) {
            Ok(c) => self.client = c,
            Err(e) => eprintln!("perfbench: reconnect failed: {e}"),
        }
    }

    /// One timed request; `None` on an I/O error.
    fn request(&mut self, target: &str) -> Option<Response> {
        let start = Instant::now();
        let result = if self.traced {
            let _span = obs::span("perfbench.request");
            self.client.get(target)
        } else {
            self.client.get(target)
        };
        if self.traced {
            self.requests += 1;
            self.client_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        match result {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("perfbench: GET {target}: {e}");
                None
            }
        }
    }

    fn set_traced(&mut self) {
        self.traced = true;
        self.before = Counters::read(&self.server);
    }

    /// Flight records of the traced phase.
    fn traced_records(&self) -> Vec<RequestRecord> {
        self.server
            .state()
            .flight
            .recent()
            .into_iter()
            .filter(|r| r.id > self.before.last_id)
            .collect()
    }

    fn layers(&self, ops: u64, m: &mut Metrics) {
        let after = Counters::read(&self.server);
        let b = self.before;
        let records = self.traced_records();
        let stage_median = |stage: Stage| {
            let i = Stage::ALL
                .iter()
                .position(|&s| s == stage)
                .expect("stage listed");
            let v: Vec<f64> = records.iter().map(|r| r.stages[i] as f64).collect();
            percentile(&v, 0.5)
        };
        m.layer("serve.parse_us", stage_median(Stage::Parse));
        m.layer("serve.write_us", stage_median(Stage::Write));
        m.layer("serve.queue_us", stage_median(Stage::Queue));
        m.layer("serve.compute_ms", stage_median(Stage::Compute) / 1e3);
        m.layer("serve.serialize_us", stage_median(Stage::Serialize));
        m.layer("serve.cache_lookup_us", stage_median(Stage::CacheLookup));
        let bh = (after.bytes_hits - b.bytes_hits) as f64;
        let bm = (after.bytes_misses - b.bytes_misses) as f64;
        m.layer("serve.bytes_cache_hit_ratio", ratio(bh, bh + bm));
        let mh = (after.memo_hits - b.memo_hits) as f64;
        let mm = (after.memo_misses - b.memo_misses) as f64;
        m.layer("serve.memo_hit_ratio", ratio(mh, mh + mm));
        let requests = self.requests as f64;
        m.layer(
            "serve.memo_evictions",
            ratio((after.evictions - b.evictions) as f64, ops as f64),
        );
        m.layer(
            "serve.epoll_wakeups_per_request",
            ratio((after.wakeups - b.wakeups) as f64, requests),
        );
        let server_us: Vec<f64> = records.iter().map(|r| r.total_us as f64).collect();
        m.layer(
            "serve.server_share",
            ratio(
                percentile(&server_us, 0.5),
                percentile(&self.client_us, 0.5),
            ),
        );
    }
}

/// Targets cycled by `serve_hot`: every memoized endpoint, warmed in set-up.
pub const HOT_TARGETS: [&str; 10] = [
    "/v1/characterize?domain=wordlm&params=20000000&subbatch=64",
    "/v1/characterize?domain=resnet&params=5000000&subbatch=32",
    "/v1/sweep?domain=nmt&lo=1000000&hi=100000000&points=5",
    "/v1/project?domain=speech",
    "/v1/subbatch?domain=wordlm&params=50000000",
    "/v1/plan?domain=resnet&days=14",
    "/v1/plan/search?domain=nmt&days=30&micro=1,2,4",
    "/v1/infer/characterize?batch=16&prompt=256&context=2048",
    "/v1/infer/sweep?prompt=128&batch=1,8,64&context=1024,4096",
    "/v1/infer/plan?tpot_ms=40&ttft_ms=800&tokens_per_s=50000",
];

/// `serve_hot`: one request per op, every one a bytes-cache hit.
pub struct ServeHot {
    session: Session,
    /// First body served per target, in `HOT_TARGETS` order.
    bodies: Vec<Vec<u8>>,
    next: usize,
    last: Option<Response>,
}

impl ServeHot {
    /// Set-up: start the server, connect, compute every target once and
    /// fetch it again so the second answer comes from the bytes cache.
    pub fn setup(placement: Placement) -> io::Result<ServeHot> {
        // Requests take tens of microseconds, less than waking a halted
        // CPU on a loaded host, so both CPUs are kept awake.
        let mut session = Session::start(placement, true)?;
        let mut bodies = Vec::new();
        for target in HOT_TARGETS {
            for attempt in 0..2 {
                let r = session.client.get(target)?;
                if r.status != 200 {
                    return Err(io::Error::other(format!("warm-up {target}: {}", r.status)));
                }
                if attempt == 0 {
                    bodies.push(session.client.body().to_vec());
                }
            }
        }
        Ok(ServeHot {
            session,
            bodies,
            next: 0,
            last: None,
        })
    }
}

impl Workload for ServeHot {
    fn prepare(&mut self) {
        self.next = (self.next + 1) % HOT_TARGETS.len();
    }

    fn execute(&mut self) {
        self.last = self.session.request(HOT_TARGETS[self.next]);
    }

    fn check(&mut self) -> bool {
        let ok = match &self.last {
            Some(r) => {
                r.status == 200
                    && r.cache == CacheState::Hit
                    && self.session.client.body() == self.bodies[self.next].as_slice()
            }
            None => false,
        };
        if self.last.is_none() {
            self.session.reconnect();
        }
        ok
    }

    fn verify(&mut self) -> u64 {
        0
    }

    fn set_traced(&mut self) {
        self.session.set_traced();
    }

    fn rss_after_ops(&self) -> u64 {
        65_536
    }

    fn layers(&self, _ledger: &Ledger, ops: u64, m: &mut Metrics) {
        self.session.layers(ops, m);
    }

    fn info(&self) -> Vec<(String, String)> {
        vec![("targets".into(), HOT_TARGETS.len().to_string())]
    }
}

/// `serve_cold`: one op is a round of seven never-seen requests, each a
/// miss in both caches.
pub struct ServeCold {
    session: Session,
    rng: Rng,
    /// Memo identities already requested (endpoint-prefixed).
    seen: HashSet<String>,
    round: Vec<String>,
    responses: Vec<Option<Response>>,
}

/// Endpoints of one cold round, in order.
pub const COLD_ROUND: [&str; 7] = [
    "characterize(wordlm)",
    "characterize(nmt)",
    "sweep(wordlm)",
    "infer/characterize",
    "infer/sweep",
    "plan/search(wordlm)",
    "infer/plan",
];

impl ServeCold {
    /// Set-up: start the server, connect, and run two untimed rounds so
    /// the model families and engines the round reaches are built.
    pub fn setup(seed: u64, placement: Placement) -> io::Result<ServeCold> {
        // Rounds take ~100 ms of compute: wake-up delays are noise-free at
        // that scale, and a polling client would only compete with the
        // program for the host's cores.
        let session = Session::start(placement, false)?;
        let mut cold = ServeCold {
            session,
            rng: Rng::new(seed, 3),
            seen: HashSet::new(),
            round: Vec::new(),
            responses: Vec::new(),
        };
        for _ in 0..2 {
            cold.prepare();
            for target in cold.round.clone() {
                let r = cold.session.client.get(&target)?;
                if r.status != 200 {
                    return Err(io::Error::other(format!("warm-up {target}: {}", r.status)));
                }
            }
        }
        Ok(cold)
    }

    /// Draw until `make` yields a memo identity not requested before.
    fn fresh(&mut self, mut make: impl FnMut(&mut Rng) -> (String, String)) -> String {
        loop {
            let (identity, target) = make(&mut self.rng);
            if self.seen.insert(identity) {
                return target;
            }
        }
    }

    fn characterize_target(&mut self, domain: &'static str, d: modelzoo::Domain) -> String {
        self.fresh(|rng| {
            let params = rng.log_uniform(1e6, 1e9) as u64;
            let subbatch = 1u64 << rng.range(3, 8);
            // The memo key is the resolved configuration: two `params`
            // values that round to one width are the same request.
            let cfg = modelzoo::ModelConfig::default_for(d).with_target_params(params);
            (
                format!("characterize {cfg:?} {subbatch}"),
                format!("/v1/characterize?domain={domain}&params={params}&subbatch={subbatch}"),
            )
        })
    }
}

impl Workload for ServeCold {
    fn prepare(&mut self) {
        let mut round = vec![
            self.characterize_target("wordlm", modelzoo::Domain::WordLm),
            self.characterize_target("nmt", modelzoo::Domain::Nmt),
        ];
        round.push(self.fresh(|rng| {
            let lo = rng.range(1_000_000, 9_000_000);
            let hi = rng.range(100_000_000, 900_000_000);
            (
                format!("sweep {lo} {hi}"),
                format!("/v1/sweep?domain=wordlm&lo={lo}&hi={hi}"),
            )
        }));
        round.push(self.fresh(|rng| {
            let batch = rng.range(1, 256);
            let prompt = rng.range(16, 2048);
            let context = prompt + rng.range(0, 4096);
            (
                format!("infer/characterize {batch} {prompt} {context}"),
                format!("/v1/infer/characterize?batch={batch}&prompt={prompt}&context={context}"),
            )
        }));
        round.push(self.fresh(|rng| {
            let prompt = rng.range(16, 1024);
            let b = rng.range(1, 64);
            let c = prompt + rng.range(0, 2048);
            let list = format!("batch={b},{},{}&context={c},{}", b + 64, b + 192, c + 1024);
            (
                format!("infer/sweep {prompt} {list}"),
                format!("/v1/infer/sweep?prompt={prompt}&{list}"),
            )
        }));
        round.push(self.fresh(|rng| {
            let days = format!("{:.6}", rng.log_uniform(1.0, 60.0));
            (
                format!("plan/search {days}"),
                format!("/v1/plan/search?domain=wordlm&days={days}"),
            )
        }));
        round.push(self.fresh(|rng| {
            let tpot = format!("{:.6}", rng.log_uniform(10.0, 200.0));
            (
                format!("infer/plan {tpot}"),
                format!("/v1/infer/plan?tpot_ms={tpot}"),
            )
        }));
        self.round = round;
    }

    fn execute(&mut self) {
        self.responses.clear();
        for i in 0..self.round.len() {
            let r = self.session.request(&self.round[i]);
            let failed = r.is_none();
            self.responses.push(r);
            if failed {
                break;
            }
        }
    }

    fn check(&mut self) -> bool {
        let ok = self.responses.len() == self.round.len()
            && self.responses.iter().all(|r| {
                r.as_ref()
                    .is_some_and(|r| r.status == 200 && r.cache == CacheState::Miss)
            });
        if self.responses.iter().any(Option::is_none) {
            self.session.reconnect();
        }
        ok
    }

    fn verify(&mut self) -> u64 {
        0
    }

    fn set_traced(&mut self) {
        self.session.set_traced();
    }

    fn rss_after_ops(&self) -> u64 {
        64
    }

    fn layers(&self, ledger: &Ledger, ops: u64, m: &mut Metrics) {
        self.session.layers(ops, m);
        let per_op = |ms: f64| ms / ops as f64;
        let fp = ledger.get("cgraph.footprint");
        m.layer("cgraph.footprint_ms", per_op(fp.outer_us as f64 / 1e3));
        m.layer("cgraph.footprint_calls", per_op(fp.outer_calls as f64));
        for (metric, span) in [
            ("analysis.characterize_ms", "analysis.characterize"),
            ("modelzoo.build_training_ms", "modelzoo.build_training"),
            ("cgraph.autodiff_ms", "cgraph.autodiff"),
            (
                "analysis.plan_search_space_ms",
                "analysis.plan_search_space",
            ),
            ("parsim.search_ms", "parsim.search"),
            ("parsim.infer_search_ms", "parsim.infer_search"),
        ] {
            m.layer(metric, per_op(ledger.outer_ms(span)));
        }
        m.layer(
            "analysis.infer_characterize_ms",
            per_op(
                ledger.outer_ms("analysis.characterize_infer_symbolic")
                    + ledger.outer_ms("analysis.characterize_infer_grid"),
            ),
        );
        m.layer(
            "analysis.characterize_many_self_ms",
            per_op(ledger.get("analysis.characterize_many").self_us as f64 / 1e3),
        );
        m.layer(
            "analysis.instances_cached",
            analysis::FamilyEngine::global().instances_cached() as f64,
        );
    }

    fn info(&self) -> Vec<(String, String)> {
        vec![("round".into(), COLD_ROUND.join(","))]
    }
}

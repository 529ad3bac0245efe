//! Std-only epoll reactor: the serve tier's event-driven front end.
//!
//! One thread owns an epoll instance and every connection. The previous
//! front end parked a worker thread per connection (blocking reads, one
//! request per connection, `connection: close`), so warm latency was pure
//! connection overhead — `BENCH_serve.json` showed a flat ~5 ms p50 across
//! every endpoint including `/v1/healthz`, the classic Nagle/delayed-ACK +
//! thread-handoff signature. The reactor replaces all of that:
//!
//! ```text
//! epoll_wait ──► accept (non-blocking, TCP_NODELAY)
//!            ──► readable: buffer bytes ─► incremental parse ─► per request:
//!                  cache target hit ─► writev(head, body) [reactor inline]
//!                  dynamic endpoint ─► dispatch inline ─► write
//!                  cold compute     ─► worker pool ─► completion + eventfd
//!            ──► writable: resume partial writes (backpressure)
//!            ──► eventfd: drain worker completions ─► write, parse next
//! ```
//!
//! The syscall layer uses the same no-libc FFI discipline as
//! [`crate::signal`]: `epoll_create1`/`epoll_ctl`/`epoll_wait`, `eventfd`,
//! and `writev` are declared `extern "C"` against the C library every Rust
//! binary already links. Linux-only, like epoll itself.
//!
//! **Connection state machine.** Each connection loops through
//! `Reading → Dispatched → Writing → (keep-alive? Reading : Closed)`:
//! partial reads accumulate in `inbuf` until [`crate::http::parse_head`]
//! yields a complete head; pipelined requests parse back-to-back from the
//! same buffer (responses stay in order because parsing pauses while a
//! request is at the worker pool); responses queue in `outbox` and flush
//! with `writev`, resuming from the recorded offset when the socket
//! backpressures (`EPOLLOUT` subscribed only while the outbox is
//! non-empty). Keep-alive follows HTTP/1.1 semantics (1.1 persistent, 1.0
//! one-shot, explicit `connection:` header wins); error responses and
//! drain-mode responses always close.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cache::CachedBytes;
use crate::http::{self, Feed, HttpError, ParsedHead};
use crate::pool::WorkerPool;
use crate::query::ApiError;
use crate::routes::{self, Body};
use crate::signal;
use crate::trace::{elapsed_us, RequestTrace, Stage};
use crate::{AppState, RequestGuard};

/// How long a client may dribble a partial request head before the reactor
/// answers 408 and closes.
pub const HEAD_TIMEOUT: Duration = Duration::from_secs(2);

/// Idle keep-alive connections are reaped after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// How long graceful drain waits for in-flight requests before force-close.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Max scatter-gather segments per `writev` call (well under `IOV_MAX`).
const MAX_IOV: usize = 64;

/// epoll tokens for the two always-registered fds.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

// --------------------------------------------------------------- raw FFI

/// Raw syscall surface, declared against the already-linked C library —
/// the same no-dependency discipline as `signal.rs`.
mod ffi {
    /// Matches `struct iovec` from `<sys/uio.h>`.
    #[repr(C)]
    pub struct IoVec {
        pub base: *const u8,
        pub len: usize,
    }

    /// Matches `struct epoll_event`; packed on x86-64 (the kernel ABI),
    /// naturally aligned elsewhere.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
        pub fn close(fd: i32) -> i32;
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;
}

// ------------------------------------------------------- wakeup + results

/// A non-blocking eventfd the worker pool writes to wake the reactor out of
/// `epoll_wait` when a completion lands.
struct WakeFd(i32);

impl WakeFd {
    fn new() -> io::Result<WakeFd> {
        let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd(fd))
    }

    /// Nudge the reactor (safe from any thread; coalesces in the kernel).
    fn wake(&self) {
        let one: u64 = 1;
        let _ = unsafe { ffi::write(self.0, std::ptr::addr_of!(one).cast(), 8) };
    }

    /// Consume pending wakeups so level-triggered epoll goes quiet.
    fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = unsafe { ffi::read(self.0, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { ffi::close(self.0) };
    }
}

/// The worker→reactor bridge: completed cold computes queue here; the
/// eventfd write pops the reactor out of `epoll_wait`.
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    wake: WakeFd,
}

impl Completions {
    pub(crate) fn new() -> io::Result<Completions> {
        Ok(Completions {
            queue: Mutex::new(Vec::new()),
            wake: WakeFd::new()?,
        })
    }

    fn post(&self, completion: Completion) {
        self.queue
            .lock()
            .expect("completions lock")
            .push(completion);
        self.wake.wake();
    }

    /// Wake the reactor without posting work (shutdown nudge).
    pub(crate) fn nudge(&self) {
        self.wake.wake();
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completions lock"))
    }
}

/// One finished cold compute, heading back to its connection.
struct Completion {
    token: u64,
    payload: Payload,
    close_after: bool,
    guard: Option<RequestGuard>,
}

// ------------------------------------------------------------ connections

/// Bytes queued for one response.
enum Payload {
    /// Owned head+body (fresh renders, errors) — one `write` slice.
    Owned(Vec<u8>),
    /// Zero-copy cached response: pre-rendered head + shared body, two
    /// `writev` slices, no re-encode.
    Cached {
        entry: Arc<CachedBytes>,
        keep_alive: bool,
        head_only: bool,
    },
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Owned(buf) => buf.len(),
            Payload::Cached {
                entry,
                keep_alive,
                head_only,
            } => {
                let head = if *keep_alive {
                    entry.head_keep_alive.len()
                } else {
                    entry.head_close.len()
                };
                head + if *head_only { 0 } else { entry.body.len() }
            }
        }
    }

    /// The logical byte stream from `offset` on, as up to two slices.
    fn slices(&self, offset: usize) -> (&[u8], &[u8]) {
        match self {
            Payload::Owned(buf) => (&buf[offset..], &[]),
            Payload::Cached {
                entry,
                keep_alive,
                head_only,
            } => {
                let head: &[u8] = if *keep_alive {
                    &entry.head_keep_alive
                } else {
                    &entry.head_close
                };
                let body: &[u8] = if *head_only {
                    &[]
                } else {
                    entry.body.as_bytes()
                };
                if offset < head.len() {
                    (&head[offset..], body)
                } else {
                    (&body[offset - head.len()..], &[])
                }
            }
        }
    }
}

/// One queued response with partial-write resume state.
struct Outgoing {
    payload: Payload,
    offset: usize,
    close_after: bool,
    guard: Option<RequestGuard>,
    enqueued: Instant,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed (partial heads, pipelined requests).
    inbuf: Vec<u8>,
    /// Responses queued for write, in request order.
    outbox: VecDeque<Outgoing>,
    /// A request from this connection is at the worker pool; parsing is
    /// paused (and `EPOLLIN` unsubscribed) until its completion returns so
    /// responses stay in request order.
    busy: bool,
    /// A close-bearing response was queued; ignore any further input.
    stop_parsing: bool,
    /// The peer half-closed (read returned 0).
    peer_closed: bool,
    /// When the first unparsed byte of the current head arrived (dribble
    /// timeout epoch and per-request latency epoch).
    first_byte_at: Option<Instant>,
    /// Last read/write/accept activity (idle reaping).
    last_activity: Instant,
    /// Responses fully flushed on this connection (>1 ⇒ keep-alive reuse).
    served: u64,
    /// Events currently subscribed with `epoll_ctl` (avoids redundant MODs).
    interest: u32,
}

enum FlushOutcome {
    /// Everything queued was written (or the outbox was empty).
    Drained,
    /// The socket backpressured; `EPOLLOUT` will resume.
    Blocked,
    /// The connection should close (close-after response or write error).
    Close,
}

// ---------------------------------------------------------------- reactor

/// The event loop. Owns the listener, the epoll instance, every live
/// connection, and the worker pool for cold computes.
pub(crate) struct Reactor {
    epfd: i32,
    listener: Option<TcpListener>,
    state: Arc<AppState>,
    pool: WorkerPool,
    completions: Arc<Completions>,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        state: Arc<AppState>,
        pool: WorkerPool,
        completions: Arc<Completions>,
        stop: Arc<AtomicBool>,
    ) -> io::Result<Reactor> {
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let reactor = Reactor {
            epfd,
            state,
            pool,
            completions,
            stop,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            draining: false,
            drain_deadline: None,
            listener: Some(listener),
        };
        reactor.epoll_add(
            reactor.listener.as_ref().expect("listener").as_raw_fd(),
            TOKEN_LISTENER,
            ffi::EPOLLIN,
        )?;
        reactor.epoll_add(reactor.completions.wake.0, TOKEN_WAKE, ffi::EPOLLIN)?;
        Ok(reactor)
    }

    fn epoll_add(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
        let mut ev = ffi::EpollEvent {
            events,
            data: token,
        };
        if unsafe { ffi::epoll_ctl(self.epfd, ffi::EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn epoll_mod(&self, fd: i32, token: u64, events: u32) {
        let mut ev = ffi::EpollEvent {
            events,
            data: token,
        };
        let _ = unsafe { ffi::epoll_ctl(self.epfd, ffi::EPOLL_CTL_MOD, fd, &mut ev) };
    }

    fn epoll_del(&self, fd: i32) {
        let _ = unsafe { ffi::epoll_ctl(self.epfd, ffi::EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
    }

    /// Run until shutdown: the only loop that touches sockets.
    pub(crate) fn run(mut self) {
        let mut events = vec![ffi::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            self.maybe_begin_drain();
            if self.draining {
                let deadline_passed = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
                if self.conns.is_empty() || deadline_passed {
                    break;
                }
            }
            let timeout_ms = if self.draining { 10 } else { 50 };
            let n = unsafe {
                ffi::epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                break; // unrecoverable epoll failure; fall through to drain
            }
            if n > 0 {
                // Relaxed: standalone monotone tally for scrapes.
                self.state
                    .reactor
                    .epoll_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            for ev in events.iter().take(n as usize) {
                let ev = *ev; // copy out of the (possibly packed) buffer
                match ev.data {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.completions.wake.drain(),
                    token => self.conn_event(token, ev.events),
                }
            }
            self.drain_completions();
            if n == 0 {
                self.sweep_timeouts();
            }
        }
        // Force-close whatever remains (drain deadline passed or fatal
        // epoll error); queued guards record their requests as they drop.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
        self.pool.shutdown();
    }

    /// Begin graceful drain on the shutdown flag or SIGTERM/SIGINT: drop
    /// the listener (new connects are refused), close idle connections, and
    /// let in-flight requests finish within [`DRAIN_DEADLINE`].
    fn maybe_begin_drain(&mut self) {
        if !self.draining && (self.stop.load(Ordering::SeqCst) || signal::requested()) {
            self.draining = true;
            self.drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
            if let Some(listener) = self.listener.take() {
                self.epoll_del(listener.as_raw_fd());
            }
        }
        if self.draining {
            let idle: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.busy && c.outbox.is_empty())
                .map(|(t, _)| *t)
                .collect();
            for token in idle {
                self.close_conn(token);
            }
        }
    }

    fn accept_ready(&mut self) {
        let Some(listener) = self.listener.as_ref() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(true);
                    // Kill Nagle: responses are complete writes; waiting for
                    // the delayed ACK was the flat-5ms artifact.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll_add(stream.as_raw_fd(), token, ffi::EPOLLIN)
                        .is_err()
                    {
                        continue; // kernel refused; drop the stream
                    }
                    self.state.reactor.connection_opened();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            inbuf: Vec::new(),
                            outbox: VecDeque::new(),
                            busy: false,
                            stop_parsing: false,
                            peer_closed: false,
                            first_byte_at: None,
                            last_activity: Instant::now(),
                            served: 0,
                            interest: ffi::EPOLLIN,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient (ECONNABORTED…); retry on next event
            }
        }
    }

    fn conn_event(&mut self, token: u64, events: u32) {
        if events & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        if events & ffi::EPOLLIN != 0 {
            self.readable(token);
        }
        if events & ffi::EPOLLOUT != 0 {
            if let Some(conn) = self.conns.get_mut(&token) {
                match flush(conn, &self.state) {
                    FlushOutcome::Close => {
                        self.close_conn(token);
                        return;
                    }
                    FlushOutcome::Drained | FlushOutcome::Blocked => {}
                }
            }
            // The write may have unblocked a paused pipeline.
            self.advance(token);
        }
    }

    /// Pull everything the socket has, then parse/serve what arrived.
    fn readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    if conn.first_byte_at.is_none() {
                        conn.first_byte_at = Some(Instant::now());
                    }
                    conn.last_activity = Instant::now();
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break; // short read ⇒ socket drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.advance(token);
    }

    /// Parse and serve buffered requests, then flush and refresh interest.
    fn advance(&mut self, token: u64) {
        self.process_input(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match flush(conn, &self.state) {
            FlushOutcome::Close => {
                self.close_conn(token);
                return;
            }
            FlushOutcome::Drained | FlushOutcome::Blocked => {}
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Peer gone, nothing pending, nothing to say: close quietly. A
        // half-closed connection mid-head is answered 400 by process_input.
        if conn.peer_closed && conn.outbox.is_empty() && !conn.busy {
            self.close_conn(token);
            return;
        }
        self.update_interest(token);
    }

    /// Parse as many complete heads as the buffer holds; serve each.
    /// Pauses while a request is at the worker pool (response ordering) or
    /// after a close-bearing response.
    fn process_input(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy || conn.stop_parsing {
                return;
            }
            match http::parse_head(&conn.inbuf) {
                Ok(Feed::Incomplete) => {
                    if conn.peer_closed && !conn.inbuf.is_empty() {
                        // EOF mid-head: structured 400, matching the old
                        // blocking front end.
                        self.respond_http_error(
                            token,
                            HttpError {
                                status: 400,
                                code: "truncated",
                                message: "connection closed mid-request".to_string(),
                            },
                        );
                    }
                    return;
                }
                Ok(Feed::Parsed(head)) => {
                    let started = conn.first_byte_at.take().unwrap_or_else(Instant::now);
                    conn.inbuf.drain(..head.consumed);
                    if !conn.inbuf.is_empty() {
                        // Pipelined successor: its latency epoch starts now.
                        conn.first_byte_at = Some(Instant::now());
                    }
                    self.begin_request(token, head, started);
                }
                Err(e) => {
                    self.respond_http_error(token, e);
                    return;
                }
            }
        }
    }

    /// Serve one parsed request: raw-target cache hit and dynamic endpoints
    /// inline on the reactor thread; cold cacheable computes at the pool.
    fn begin_request(&mut self, token: u64, head: ParsedHead, started: Instant) {
        let state = Arc::clone(&self.state);
        let target = if head.req.query.is_empty() {
            head.req.path.clone()
        } else {
            format!("{}?{}", head.req.path, head.req.query)
        };
        let id = state.next_request_id();
        let sampled = state.sample_every != 0 && id.is_multiple_of(state.sample_every);
        let mut trace = RequestTrace::new(id, started, sampled);
        trace.add(Stage::Parse, elapsed_us(started));
        let mut guard = RequestGuard::new(Arc::clone(&state), trace);
        guard.target = target.clone();
        let head_only = head.req.method == "HEAD";
        // Drain mode answers in-flight work but stops reusing connections.
        let keep_alive = head.keep_alive && !self.draining;

        let cacheable = bytes_cacheable(&head.req.path, &head.req.query);
        if cacheable {
            let probe_start = Instant::now();
            if let Some(entry) = state.cache.get_target(&target) {
                guard.trace.add(Stage::CacheLookup, elapsed_us(probe_start));
                // Relaxed: standalone monotone tally.
                state
                    .reactor
                    .bytes_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                state.metrics.record_endpoint(entry.endpoint);
                guard.endpoint = entry.endpoint;
                guard.status = entry.status;
                guard.cache_state = Some("hit");
                self.enqueue(
                    token,
                    Payload::Cached {
                        entry,
                        keep_alive,
                        head_only,
                    },
                    !keep_alive,
                    Some(guard),
                );
                return;
            }
            state
                .reactor
                .bytes_cache_misses
                .fetch_add(1, Ordering::Relaxed);
        }

        if !pool_routed(&head.req.path) {
            // Dynamic endpoints (healthz, metrics, index, debug, 404s) are
            // cheap: dispatch inline, no pool round-trip.
            let routed = routes::dispatch(&state, &head.req, &mut guard.trace);
            let close = !keep_alive || routed.status >= 400;
            let bytes = http::render_response(
                routed.status,
                routed.body.as_str(),
                routed.cache_state,
                routed.content_type,
                !close,
                head_only,
            );
            guard.endpoint = routed.endpoint;
            guard.status = routed.status;
            guard.cache_state = routed.cache_state;
            self.enqueue(token, Payload::Owned(bytes), close, Some(guard));
            return;
        }

        // Cold compute: hand off to the pool; the completion comes back
        // through the eventfd. Provisional guard values record the request
        // honestly if the pool rejects the job and drops it.
        guard.endpoint = "rejected_queue_full";
        guard.status = 503;
        let job = ColdJob {
            state: Arc::clone(&state),
            completions: Arc::clone(&self.completions),
            token,
            req: head.req,
            target,
            head_only,
            keep_alive,
            cacheable,
            guard: Some(guard),
            dispatched: Instant::now(),
            started_running: false,
            posted: false,
        };
        match self.pool.submit(move || job.run()) {
            Ok(()) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.busy = true;
                    if !keep_alive {
                        conn.stop_parsing = true;
                    }
                }
            }
            Err(_) => {
                // The dropped job's guard just recorded the 503; tell the
                // client, honestly, that the bounded queue is full.
                self.state.metrics.rejected_queue_full.inc();
                let body = ApiError {
                    status: 503,
                    code: "queue_full",
                    message: "server overloaded: bounded worker queue is full".to_string(),
                }
                .body()
                .render();
                let bytes =
                    http::render_response(503, &body, None, "application/json", false, head_only);
                self.enqueue(token, Payload::Owned(bytes), true, None);
            }
        }
    }

    /// Answer a parse-level error and close (malformed input is terminal
    /// for the connection — the rest of the buffer is untrustworthy).
    fn respond_http_error(&mut self, token: u64, e: HttpError) {
        let state = Arc::clone(&self.state);
        let started = self
            .conns
            .get_mut(&token)
            .and_then(|c| c.first_byte_at.take())
            .unwrap_or_else(Instant::now);
        let id = state.next_request_id();
        let sampled = state.sample_every != 0 && id.is_multiple_of(state.sample_every);
        let mut trace = RequestTrace::new(id, started, sampled);
        trace.add(Stage::Parse, elapsed_us(started));
        let mut guard = RequestGuard::new(state, trace);
        guard.target = "<unparsed>".to_string();
        guard.endpoint = "bad_request";
        guard.status = e.status;
        let body = ApiError {
            status: e.status,
            code: e.code,
            message: e.message,
        }
        .body()
        .render();
        let bytes = http::render_response(e.status, &body, None, "application/json", false, false);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inbuf.clear();
        }
        self.enqueue(token, Payload::Owned(bytes), true, Some(guard));
    }

    /// Queue one response on a connection (callers flush afterwards via
    /// [`Reactor::advance`] so pipelined responses coalesce into one
    /// `writev`).
    fn enqueue(
        &mut self,
        token: u64,
        payload: Payload,
        close_after: bool,
        guard: Option<RequestGuard>,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // connection died first; the guard records on drop
        };
        conn.outbox.push_back(Outgoing {
            payload,
            offset: 0,
            close_after,
            guard,
            enqueued: Instant::now(),
        });
        if close_after {
            conn.stop_parsing = true;
        }
    }

    /// Pull finished cold computes from the workers and resume their
    /// connections.
    fn drain_completions(&mut self) {
        for completion in self.completions.take() {
            let Completion {
                token,
                payload,
                close_after,
                guard,
            } = completion;
            let Some(conn) = self.conns.get_mut(&token) else {
                // Client vanished mid-compute; the guard still records.
                continue;
            };
            conn.busy = false;
            conn.outbox.push_back(Outgoing {
                payload,
                offset: 0,
                close_after,
                guard,
                enqueued: Instant::now(),
            });
            if close_after {
                conn.stop_parsing = true;
            }
            self.advance(token);
        }
    }

    /// Reap dribbled heads past [`HEAD_TIMEOUT`] (structured 408) and idle
    /// keep-alive connections past [`IDLE_TIMEOUT`]. Runs on quiet ticks.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let dribbling: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.busy
                    && !c.stop_parsing
                    && !c.inbuf.is_empty()
                    && c.first_byte_at
                        .is_some_and(|t| now.duration_since(t) > HEAD_TIMEOUT)
            })
            .map(|(t, _)| *t)
            .collect();
        for token in dribbling {
            self.respond_http_error(
                token,
                HttpError {
                    status: 408,
                    code: "head_timeout",
                    message: "request head not completed in time".to_string(),
                },
            );
            self.advance(token);
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.busy
                    && c.outbox.is_empty()
                    && c.inbuf.is_empty()
                    && now.duration_since(c.last_activity) > IDLE_TIMEOUT
            })
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    /// Recompute and apply the epoll interest mask for one connection:
    /// `EPOLLIN` while parsing is allowed, `EPOLLOUT` while the outbox is
    /// non-empty.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = 0;
        if !conn.busy && !conn.stop_parsing && !conn.peer_closed {
            want |= ffi::EPOLLIN;
        }
        if !conn.outbox.is_empty() {
            want |= ffi::EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            self.epoll_mod(fd, token, want);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll_del(conn.stream.as_raw_fd());
            self.state.reactor.connection_closed();
            // Dropping `conn` drops any queued guards (requests the client
            // abandoned record their final state) and closes the socket.
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        unsafe { ffi::close(self.epfd) };
    }
}

/// The memoized analysis endpoints — the only paths routed through the
/// worker pool (everything else is cheap enough to dispatch inline).
fn pool_routed(path: &str) -> bool {
    matches!(
        path,
        "/v1/characterize"
            | "/v1/sweep"
            | "/v1/project"
            | "/v1/subbatch"
            | "/v1/plan"
            | "/v1/plan/search"
            | "/v1/infer/characterize"
            | "/v1/infer/sweep"
            | "/v1/infer/plan"
    )
}

/// May this request's raw target alias a cached response? Memoized
/// endpoints only, and never with a `debug` parameter (those responses
/// carry per-request timing blocks). Percent-encoded queries are skipped
/// conservatively — `%64ebug` decodes to `debug` and must not alias a
/// cacheable key.
fn bytes_cacheable(path: &str, query: &str) -> bool {
    pool_routed(path) && !query.contains("debug") && !query.contains('%')
}

/// Flush the outbox with `writev`, resuming partial writes from the
/// recorded offset. Finalizes each fully-written response: credits the
/// write stage, drops the request guard (telemetry), counts keep-alive
/// reuse, and reports `Close` when a close-bearing response finished.
fn flush(conn: &mut Conn, state: &AppState) -> FlushOutcome {
    loop {
        if conn.outbox.is_empty() {
            return FlushOutcome::Drained;
        }
        let mut iov: Vec<ffi::IoVec> = Vec::with_capacity(MAX_IOV.min(conn.outbox.len() * 2));
        for outgoing in &conn.outbox {
            if iov.len() + 2 > MAX_IOV {
                break;
            }
            let (first, second) = outgoing.payload.slices(outgoing.offset);
            if !first.is_empty() {
                iov.push(ffi::IoVec {
                    base: first.as_ptr(),
                    len: first.len(),
                });
            }
            if !second.is_empty() {
                iov.push(ffi::IoVec {
                    base: second.as_ptr(),
                    len: second.len(),
                });
            }
        }
        if iov.is_empty() {
            // Zero-length responses (fully written already): finalize below.
            if finalize_written(conn, state, 0) {
                return FlushOutcome::Close;
            }
            continue;
        }
        let n = unsafe { ffi::writev(conn.stream.as_raw_fd(), iov.as_ptr(), iov.len() as i32) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return match e.kind() {
                io::ErrorKind::WouldBlock => FlushOutcome::Blocked,
                io::ErrorKind::Interrupted => continue,
                _ => FlushOutcome::Close,
            };
        }
        conn.last_activity = Instant::now();
        if finalize_written(conn, state, n as usize) {
            return FlushOutcome::Close;
        }
    }
}

/// Advance outbox offsets by `written` bytes, completing any responses that
/// finished. Returns true when a completed response demands close.
fn finalize_written(conn: &mut Conn, state: &AppState, written: usize) -> bool {
    let mut remaining = written;
    loop {
        let Some(front) = conn.outbox.front_mut() else {
            return false;
        };
        let left = front.payload.len() - front.offset;
        if remaining < left {
            front.offset += remaining;
            return false;
        }
        remaining -= left;
        let mut done = conn.outbox.pop_front().expect("front exists");
        if let Some(mut guard) = done.guard.take() {
            guard.trace.add(Stage::Write, elapsed_us(done.enqueued));
            drop(guard); // records metrics, flight record, sampled spans
        }
        conn.served += 1;
        if conn.served > 1 {
            // Relaxed: standalone monotone tally.
            state
                .reactor
                .keepalive_reuses
                .fetch_add(1, Ordering::Relaxed);
        }
        if done.close_after {
            return true;
        }
        if remaining == 0 && conn.outbox.front().is_none_or(|o| o.offset == 0) {
            // Nothing partially written remains; let the outer loop decide
            // whether to issue another writev.
            return false;
        }
    }
}

// --------------------------------------------------------- cold computes

/// A cold cacheable request, running on a worker thread. Owns the request
/// guard while computing; posts the rendered response back through
/// [`Completions`]. The `Drop` impl guarantees the connection is never
/// stranded: if dispatch panics mid-run, a 500 completion still posts.
struct ColdJob {
    state: Arc<AppState>,
    completions: Arc<Completions>,
    token: u64,
    req: http::Request,
    target: String,
    head_only: bool,
    keep_alive: bool,
    cacheable: bool,
    guard: Option<RequestGuard>,
    dispatched: Instant,
    started_running: bool,
    posted: bool,
}

impl ColdJob {
    fn run(mut self) {
        self.started_running = true;
        let mut guard = self.guard.take().expect("guard present until run");
        guard.endpoint = "unhandled";
        guard.status = 500;
        guard.trace.add(Stage::Queue, elapsed_us(self.dispatched));
        let state = Arc::clone(&self.state);
        if self.dispatched.elapsed() > state.deadline {
            state.metrics.rejected_deadline.inc();
            guard.endpoint = "rejected_deadline";
            guard.status = 503;
            let body = ApiError {
                status: 503,
                code: "deadline_exceeded",
                message: "request sat in queue past its deadline".to_string(),
            }
            .body()
            .render();
            let bytes =
                http::render_response(503, &body, None, "application/json", false, self.head_only);
            let token = self.token;
            self.post(Completion {
                token,
                payload: Payload::Owned(bytes),
                close_after: true,
                guard: Some(guard),
            });
            return;
        }
        let routed = routes::dispatch(&state, &self.req, &mut guard.trace);
        guard.endpoint = routed.endpoint;
        guard.status = routed.status;
        guard.cache_state = routed.cache_state;
        let close = !self.keep_alive || routed.status >= 400;
        match &routed.body {
            Body::Cached(entry) if self.cacheable && routed.status == 200 => {
                // Alias the cached response under this raw target: the next
                // identical request is answered by the reactor's warm path.
                state
                    .cache
                    .alias(std::mem::take(&mut self.target), Arc::clone(entry));
            }
            _ => {}
        }
        let bytes = http::render_response(
            routed.status,
            routed.body.as_str(),
            routed.cache_state,
            routed.content_type,
            !close,
            self.head_only,
        );
        let token = self.token;
        self.post(Completion {
            token,
            payload: Payload::Owned(bytes),
            close_after: close,
            guard: Some(guard),
        });
    }

    fn post(&mut self, completion: Completion) {
        self.posted = true;
        self.completions.post(completion);
    }
}

impl Drop for ColdJob {
    fn drop(&mut self) {
        // Only the panic-during-run path: a job dropped before running
        // (pool rejection) is answered inline by the reactor, and its guard
        // — still inside `self` — records the 503 as this struct's fields
        // drop.
        if self.started_running && !self.posted {
            let body = ApiError {
                status: 500,
                code: "internal_error",
                message: "request handler panicked".to_string(),
            }
            .body()
            .render();
            let bytes =
                http::render_response(500, &body, None, "application/json", false, self.head_only);
            self.completions.post(Completion {
                token: self.token,
                payload: Payload::Owned(bytes),
                close_after: true,
                guard: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cacheable_paths_are_the_memoized_endpoints() {
        assert!(pool_routed("/v1/characterize"));
        assert!(pool_routed("/v1/infer/plan"));
        assert!(!pool_routed("/v1/healthz"));
        assert!(!pool_routed("/metrics"));
        assert!(!pool_routed("/nope"));
    }

    #[test]
    fn debug_and_encoded_queries_skip_the_bytes_cache() {
        assert!(bytes_cacheable("/v1/characterize", "domain=wordlm"));
        assert!(!bytes_cacheable("/v1/characterize", "debug=timings"));
        assert!(!bytes_cacheable(
            "/v1/characterize",
            "domain=wordlm&%64ebug=timings"
        ));
        assert!(!bytes_cacheable("/v1/healthz", ""));
    }

    #[test]
    fn payload_slices_resume_across_the_head_body_boundary() {
        let entry = Arc::new(CachedBytes {
            status: 200,
            endpoint: "characterize",
            head_keep_alive: b"HEAD".to_vec(),
            head_close: b"HEADC".to_vec(),
            body: "0123456789".to_string(),
        });
        let payload = Payload::Cached {
            entry,
            keep_alive: true,
            head_only: false,
        };
        assert_eq!(payload.len(), 14);
        let (a, b) = payload.slices(0);
        assert_eq!((a, b), (&b"HEAD"[..], &b"0123456789"[..]));
        let (a, b) = payload.slices(2);
        assert_eq!((a, b), (&b"AD"[..], &b"0123456789"[..]));
        let (a, b) = payload.slices(4);
        assert_eq!((a, b), (&b"0123456789"[..], &b""[..]));
        let (a, b) = payload.slices(9);
        assert_eq!((a, b), (&b"56789"[..], &b""[..]));
    }

    #[test]
    fn head_only_payload_elides_the_body() {
        let entry = Arc::new(CachedBytes {
            status: 200,
            endpoint: "characterize",
            head_keep_alive: b"KA".to_vec(),
            head_close: b"CLOSE".to_vec(),
            body: "body".to_string(),
        });
        let payload = Payload::Cached {
            entry,
            keep_alive: false,
            head_only: true,
        };
        assert_eq!(payload.len(), 5);
        let (a, b) = payload.slices(0);
        assert_eq!((a, b), (&b"CLOSE"[..], &b""[..]));
    }

    #[test]
    fn wakefd_round_trips() {
        let wake = WakeFd::new().expect("eventfd");
        wake.wake();
        wake.wake();
        wake.drain(); // coalesced: one read clears both
        let mut buf = [0u8; 8];
        let n = unsafe { ffi::read(wake.0, buf.as_mut_ptr(), 8) };
        assert!(n < 0, "drained eventfd reads EAGAIN, got {n}");
    }
}

//! The global, thread-safe event recorder and its export formats.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::thread::ThreadId;
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::Json;

/// What kind of trace event this is (maps onto Chrome trace phases).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A timed span (Chrome phase `X`).
    Complete,
    /// A point-in-time marker (Chrome phase `i`).
    Instant,
    /// A named scalar sample (Chrome phase `C`).
    Counter,
}

impl EventKind {
    fn phase(self) -> &'static str {
        match self {
            EventKind::Complete => "X",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        }
    }

    fn label(self) -> &'static str {
        match self {
            EventKind::Complete => "span",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        }
    }
}

/// One recorded event, timestamped relative to the recorder's epoch.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name, e.g. `"cgraph.autodiff"`.
    pub name: String,
    /// Category, e.g. `"cgraph"` (the part before the first `.` by default).
    pub category: String,
    /// Microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds (0 for instants/counters).
    pub dur_us: u64,
    /// Small dense id for the recording thread.
    pub thread: u64,
    /// Complete span, instant marker, or counter sample.
    pub kind: EventKind,
    /// Key/value payload.
    pub args: Vec<(String, Json)>,
}

impl TraceEvent {
    /// Render as a single JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        Json::obj()
            .set("name", self.name.as_str())
            .set("cat", self.category.as_str())
            .set("kind", self.kind.label())
            .set("ts_us", self.start_us)
            .set("dur_us", self.dur_us)
            .set("tid", self.thread)
            .set("args", Json::Obj(self.args.clone()))
            .render()
    }

    /// Render as one Chrome trace event object (no trailing comma).
    pub fn to_chrome(&self) -> String {
        let mut event = Json::obj()
            .set("name", self.name.as_str())
            .set("cat", self.category.as_str())
            .set("ph", self.kind.phase())
            .set("ts", self.start_us);
        if self.kind == EventKind::Complete {
            event = event.set("dur", self.dur_us);
        }
        if self.kind == EventKind::Instant {
            event = event.set("s", "t");
        }
        event
            .set("pid", 1u64)
            .set("tid", self.thread)
            .set("args", Json::Obj(self.args.clone()))
            .render()
    }
}

#[derive(Default)]
struct State {
    events: Vec<TraceEvent>,
    threads: HashMap<ThreadId, u64>,
}

/// Thread-safe append-only event log with a monotonic epoch.
///
/// By default the log is unbounded (batch runs export and exit). Long-lived
/// processes — the query server records spans on every sampled request —
/// call [`Recorder::set_capacity`] to cap memory: once full, the oldest
/// quarter of the log is dropped in one batch, keeping amortized recording
/// cost O(1).
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
    capacity: std::sync::atomic::AtomicUsize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder whose epoch is "now".
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
            capacity: std::sync::atomic::AtomicUsize::new(usize::MAX),
        }
    }

    /// Bound the event log to roughly `capacity` events (oldest dropped in
    /// batches once exceeded). `usize::MAX` (the default) is unbounded.
    pub fn set_capacity(&self, capacity: usize) {
        // Relaxed: the bound is advisory; enforcement happens under the
        // state mutex on the next record.
        self.capacity
            .store(capacity.max(16), std::sync::atomic::Ordering::Relaxed);
    }

    fn enforce_capacity(&self, state: &mut State) {
        let cap = self.capacity.load(std::sync::atomic::Ordering::Relaxed);
        if state.events.len() > cap {
            // Drop the oldest quarter in one batch so a full log does not
            // pay an O(len) shift on every subsequent event.
            let drop = (state.events.len() - cap)
                .max(cap / 4)
                .min(state.events.len());
            state.events.drain(..drop);
        }
    }

    /// Microseconds elapsed since this recorder's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn thread_id(state: &mut State) -> u64 {
        let next = state.threads.len() as u64;
        *state
            .threads
            .entry(std::thread::current().id())
            .or_insert(next)
    }

    /// Append a fully-formed event, stamping the calling thread's id.
    pub fn record(&self, mut event: TraceEvent) {
        let mut state = self.state.lock();
        event.thread = Self::thread_id(&mut state);
        state.events.push(event);
        self.enforce_capacity(&mut state);
    }

    /// Append an event verbatim, preserving its `thread` and timestamps.
    /// Used for synthetic timelines (e.g. simulated pipeline schedules where
    /// `thread` encodes the pipeline stage and time is simulated).
    pub fn record_raw(&self, event: TraceEvent) {
        let mut state = self.state.lock();
        state.events.push(event);
        self.enforce_capacity(&mut state);
    }

    /// Record an instant marker with arguments.
    pub fn instant(&self, name: &str, args: Vec<(String, Json)>) {
        self.record(TraceEvent {
            name: name.to_string(),
            category: category_of(name),
            start_us: self.now_us(),
            dur_us: 0,
            thread: 0,
            kind: EventKind::Instant,
            args,
        });
    }

    /// Record a named counter sample.
    pub fn counter(&self, name: &str, value: f64) {
        self.record(TraceEvent {
            name: name.to_string(),
            category: category_of(name),
            start_us: self.now_us(),
            dur_us: 0,
            thread: 0,
            kind: EventKind::Counter,
            args: vec![("value".to_string(), Json::Num(value))],
        });
    }

    /// Snapshot all events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.lock().events.clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.state.lock().events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all recorded events (thread ids are kept).
    pub fn clear(&self) {
        self.state.lock().events.clear();
    }

    /// Write one JSON object per line to `writer`.
    pub fn write_jsonl_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        for event in self.state.lock().events.iter() {
            writeln!(writer, "{}", event.to_jsonl())?;
        }
        Ok(())
    }

    /// Write all events to `path` as JSONL.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        self.write_jsonl_to(&mut file)?;
        file.flush()
    }

    /// Write all events to `writer` as a Chrome-trace JSON array, loadable in
    /// `chrome://tracing` or Perfetto.
    pub fn write_chrome_trace_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        writeln!(writer, "[")?;
        let state = self.state.lock();
        for (i, event) in state.events.iter().enumerate() {
            let comma = if i + 1 < state.events.len() { "," } else { "" };
            writeln!(writer, "{}{}", event.to_chrome(), comma)?;
        }
        writeln!(writer, "]")
    }

    /// Write all events to `path` in Chrome trace format.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        self.write_chrome_trace_to(&mut file)?;
        file.flush()
    }
}

/// The process-wide recorder used by [`crate::span`] and friends.
pub fn recorder() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

pub(crate) fn category_of(name: &str) -> String {
    match name.split_once('.') {
        Some((cat, _)) => cat.to_string(),
        None => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let rec = Recorder::new();
        rec.counter("sweep.points", 42.0);
        rec.instant("parsim.start", vec![("stages".into(), Json::from(4u64))]);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Counter);
        assert_eq!(events[0].category, "sweep");
        assert_eq!(events[1].kind, EventKind::Instant);
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn jsonl_lines_are_objects() {
        let rec = Recorder::new();
        rec.counter("c", 1.25);
        rec.instant("i", vec![("stages".into(), Json::from(4u64))]);
        let mut buf = Vec::new();
        rec.write_jsonl_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<Json> = text
            .lines()
            .map(|line| Json::parse(line).expect("each line parses"))
            .collect();
        assert_eq!(lines.len(), 2);
        let counter = &lines[0];
        assert_eq!(counter.path("name").and_then(Json::as_str), Some("c"));
        assert_eq!(counter.path("kind").and_then(Json::as_str), Some("counter"));
        assert!(counter.path("ts_us").and_then(Json::as_f64).is_some());
        assert_eq!(counter.path("dur_us").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            counter.path("args.value").and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(
            lines[1].path("args.stages").and_then(Json::as_f64),
            Some(4.0)
        );
    }

    #[test]
    fn chrome_trace_is_array() {
        let rec = Recorder::new();
        rec.counter("a", 1.0);
        rec.instant("b", vec![]);
        rec.record(TraceEvent {
            name: "s.span".into(),
            category: "s".into(),
            start_us: 10,
            dur_us: 25,
            thread: 0,
            kind: EventKind::Complete,
            args: vec![("ops".into(), Json::from(7u64))],
        });
        let mut buf = Vec::new();
        rec.write_chrome_trace_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let doc = Json::parse(&text).expect("the trace parses");
        let events = doc.as_arr().expect("a JSON array");
        assert_eq!(events.len(), 3);
        let phase = |i: usize| events[i].path("ph").and_then(Json::as_str);
        assert_eq!(
            (phase(0), phase(1), phase(2)),
            (Some("C"), Some("i"), Some("X"))
        );
        assert_eq!(
            events[0].path("args.value").and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(events[1].path("s").and_then(Json::as_str), Some("t"));
        let span = &events[2];
        assert_eq!(span.path("name").and_then(Json::as_str), Some("s.span"));
        assert_eq!(span.path("ts").and_then(Json::as_f64), Some(10.0));
        assert_eq!(span.path("dur").and_then(Json::as_f64), Some(25.0));
        assert_eq!(span.path("args.ops").and_then(Json::as_f64), Some(7.0));
        // Only complete spans carry a duration.
        assert!(events[0].get("dur").is_none());
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let rec = Recorder::new();
        rec.set_capacity(32);
        for i in 0..200 {
            rec.counter("cap.test", f64::from(i));
        }
        let events = rec.events();
        assert!(events.len() <= 32, "len {}", events.len());
        // The newest event survived; the oldest did not.
        let values: Vec<f64> = events
            .iter()
            .filter_map(|e| match e.args.first() {
                Some((_, Json::Num(v))) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(values.last().copied(), Some(199.0));
        assert!(values.first().copied() > Some(0.0));
    }

    #[test]
    fn threads_get_dense_ids() {
        let rec = std::sync::Arc::new(Recorder::new());
        rec.counter("main", 0.0);
        let clone = rec.clone();
        std::thread::spawn(move || clone.counter("worker", 1.0))
            .join()
            .unwrap();
        let events = rec.events();
        assert_eq!(events[0].thread, 0);
        assert_eq!(events[1].thread, 1);
    }
}

//! RAII spans recording wall-clock durations into the global recorder.

use std::time::Instant;

use crate::json::Json;
use crate::recorder::{category_of, recorder, EventKind, Recorder, TraceEvent};

/// A live span; records a `Complete` event with its wall-clock duration when
/// dropped. Create with [`span`] (global recorder) or [`Span::on`].
pub struct Span {
    recorder: &'static Recorder,
    name: String,
    start: Instant,
    start_us: u64,
    args: Vec<(String, Json)>,
}

impl Span {
    /// Start a span on an explicit recorder (`'static` so spans can outlive
    /// the scope that created them; the global recorder qualifies).
    pub fn on(recorder: &'static Recorder, name: &str) -> Span {
        Span {
            recorder,
            name: name.to_string(),
            start: Instant::now(),
            start_us: recorder.now_us(),
            args: Vec::new(),
        }
    }

    /// Attach a key/value argument (builder style).
    pub fn with_arg(mut self, key: &str, value: impl Into<Json>) -> Span {
        self.args.push((key.to_string(), value.into()));
        self
    }

    /// Attach a key/value argument to a span already in scope.
    pub fn arg(&mut self, key: &str, value: impl Into<Json>) {
        self.args.push((key.to_string(), value.into()));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        let name = std::mem::take(&mut self.name);
        self.recorder.record(TraceEvent {
            category: category_of(&name),
            name,
            start_us: self.start_us,
            dur_us,
            thread: 0,
            kind: EventKind::Complete,
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Start a span on the global recorder. Bind it to keep it alive:
/// `let _span = obs::span("cgraph.autodiff");`
pub fn span(name: &str) -> Span {
    Span::on(recorder(), name)
}

/// Run `f` inside a span on the global recorder and return its result.
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let before = recorder().len();
        {
            let mut s = span("test.span_records").with_arg("k", 7u64);
            s.arg("j", "v");
        }
        let events = recorder().events();
        let event = events
            .iter()
            .skip(before)
            .find(|e| e.name == "test.span_records")
            .expect("span event recorded");
        assert_eq!(event.kind, EventKind::Complete);
        assert_eq!(event.category, "test");
        assert_eq!(event.args.len(), 2);
    }

    #[test]
    fn time_returns_value() {
        let out = time("test.time_returns", || 5 + 5);
        assert_eq!(out, 10);
        assert!(recorder()
            .events()
            .iter()
            .any(|e| e.name == "test.time_returns"));
    }
}

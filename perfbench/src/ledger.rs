//! The per-layer time ledger: aggregates the `obs` spans recorded during
//! each op by name, with self time computed by interval containment.
//!
//! Spans on one thread nest properly, so a span that starts inside another
//! span's interval on the same thread is its descendant. A span's self time
//! is its duration minus the durations of its direct children. A span is
//! *outermost* for its name when no ancestor has the same name — the
//! footprint simulator nests two `cgraph.footprint` spans inside the
//! outermost one for `Scheduler::Best`, and only the outermost one measures
//! the call.

use std::collections::{BTreeMap, HashMap};

use obs::{EventKind, TraceEvent};

/// Totals for one span name, summed over every op recorded so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Duration of outermost spans of this name, microseconds.
    pub outer_us: u64,
    /// Number of outermost spans of this name.
    pub outer_calls: u64,
    /// Self time over every span of this name, microseconds.
    pub self_us: u64,
}

/// Span totals by name across the ops fed to it.
#[derive(Default)]
pub struct Ledger {
    totals: BTreeMap<String, SpanTotals>,
}

impl Ledger {
    /// Fold one batch of recorded events (one op's worth) into the totals.
    pub fn add(&mut self, events: &[TraceEvent]) {
        let mut by_thread: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
        for e in events.iter().filter(|e| e.kind == EventKind::Complete) {
            by_thread.entry(e.thread).or_default().push(e);
        }
        for spans in by_thread.values_mut() {
            // Parents first: earlier start, and on a tie the longer span.
            spans.sort_by(|a, b| a.start_us.cmp(&b.start_us).then(b.dur_us.cmp(&a.dur_us)));
            self.add_thread(spans);
        }
    }

    fn add_thread(&mut self, spans: &[&TraceEvent]) {
        // Open ancestors: (index into `spans`, end time, child time so far).
        let mut stack: Vec<(usize, u64, u64)> = Vec::new();
        let close = |totals: &mut BTreeMap<String, SpanTotals>,
                     (i, _, child_us): (usize, u64, u64)| {
            let span = spans[i];
            let t = totals.entry(span.name.clone()).or_default();
            t.self_us += span.dur_us.saturating_sub(child_us);
        };
        for (i, span) in spans.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if top.1 > span.start_us {
                    break;
                }
                stack.pop();
                close(&mut self.totals, top);
            }
            if let Some(parent) = stack.last_mut() {
                parent.2 += span.dur_us;
            }
            let nested_in_same_name = stack.iter().any(|&(j, _, _)| spans[j].name == span.name);
            if !nested_in_same_name {
                let t = self.totals.entry(span.name.clone()).or_default();
                t.outer_us += span.dur_us;
                t.outer_calls += 1;
            }
            stack.push((i, span.start_us + span.dur_us, 0));
        }
        while let Some(top) = stack.pop() {
            close(&mut self.totals, top);
        }
    }

    /// Totals for `name` (zero when never recorded).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Outermost time of `name`, milliseconds.
    pub fn outer_ms(&self, name: &str) -> f64 {
        self.get(name).outer_us as f64 / 1e3
    }

    /// Every name with its totals, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &SpanTotals)> {
        self.totals.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, thread: u64, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            category: String::new(),
            start_us,
            dur_us,
            thread,
            kind: EventKind::Complete,
            args: Vec::new(),
        }
    }

    #[test]
    fn nested_same_name_spans_count_once() {
        // Best-scheduler footprint: one outer span wrapping two inner ones.
        let events = vec![
            span("analysis.characterize_many", 0, 0, 100),
            span("cgraph.footprint", 0, 10, 60),
            span("cgraph.footprint", 0, 11, 20),
            span("cgraph.footprint", 0, 31, 38),
        ];
        let mut ledger = Ledger::default();
        ledger.add(&events);
        let fp = ledger.get("cgraph.footprint");
        assert_eq!(fp.outer_us, 60);
        assert_eq!(fp.outer_calls, 1);
        assert_eq!(fp.self_us, 2 + 20 + 38);
        assert_eq!(ledger.get("analysis.characterize_many").self_us, 40);
    }

    #[test]
    fn threads_do_not_nest_into_each_other() {
        let events = vec![span("a", 0, 0, 100), span("b", 1, 10, 50)];
        let mut ledger = Ledger::default();
        ledger.add(&events);
        assert_eq!(ledger.get("a").self_us, 100);
        assert_eq!(ledger.get("b").outer_us, 50);
    }

    #[test]
    fn siblings_close_before_the_next_starts() {
        let events = vec![
            span("p", 0, 0, 100),
            span("c", 0, 0, 30),
            span("c", 0, 30, 30),
            span("d", 0, 70, 10),
        ];
        let mut ledger = Ledger::default();
        ledger.add(&events);
        assert_eq!(ledger.get("p").self_us, 30);
        assert_eq!(ledger.get("c").outer_calls, 2);
        assert_eq!(ledger.get("d").self_us, 10);
    }
}

//! Export simulated pipeline schedules as trace events.

use obs::{EventKind, Json, TraceEvent};

use crate::pipeline_des::PipelineEvent;

/// Convert a traced pipeline schedule into Chrome-trace events on a
/// *simulated* timeline: `thread` encodes the pipeline stage (one track per
/// stage) and timestamps are simulated seconds scaled to microseconds. Feed
/// the result to [`obs::Recorder::record_raw`] or write it directly with
/// [`obs::Recorder::write_chrome_trace`].
pub fn pipeline_trace_events(events: &[PipelineEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .map(|e| TraceEvent {
            name: format!("microbatch {}", e.microbatch),
            category: "parsim.pipeline".to_string(),
            start_us: (e.start_seconds * 1e6) as u64,
            dur_us: ((e.end_seconds - e.start_seconds) * 1e6).max(1.0) as u64,
            thread: e.stage as u64,
            kind: EventKind::Complete,
            args: vec![
                ("stage".to_string(), Json::from(e.stage)),
                ("microbatch".to_string(), Json::from(e.microbatch)),
                (
                    "duration_seconds".to_string(),
                    Json::from(e.end_seconds - e.start_seconds),
                ),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline_des::simulate_pipeline_traced;

    #[test]
    fn events_map_to_stage_tracks() {
        let (_, events) = simulate_pipeline_traced(&[0.5, 0.25], 3);
        let trace = pipeline_trace_events(&events);
        assert_eq!(trace.len(), events.len());
        for (t, e) in trace.iter().zip(&events) {
            assert_eq!(t.thread, e.stage as u64);
            assert_eq!(t.start_us, (e.start_seconds * 1e6) as u64);
            assert!(t.dur_us >= 1);
            assert_eq!(t.kind, EventKind::Complete);
        }
        // Renders to valid chrome-trace JSON objects.
        assert!(trace[0].to_chrome().contains("\"ph\":\"X\""));
    }
}

//! The closed-loop driver shared by every workload, and the metric table.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::ledger::Ledger;
use crate::sys::rss_peak_mb;

/// One workload: a closed loop of identical-composition ops. Only
/// [`Workload::execute`] runs inside the timed region.
pub trait Workload {
    /// Draw the next op's inputs from the seeded generator (untimed).
    fn prepare(&mut self);
    /// Run one op against the program under test (timed).
    fn execute(&mut self);
    /// Cheap per-op output checks and counter reads (untimed). Returns
    /// false when the op failed.
    fn check(&mut self) -> bool;
    /// Extra per-op work of the traced phase, run after the op's spans are
    /// collected (untimed). Returns false when it found a wrong output.
    fn traced_extras(&mut self) -> bool {
        true
    }
    /// Oracle checks deferred until the timed loop is over. Returns the
    /// number of ops found wrong.
    fn verify(&mut self) -> u64;
    /// Switch the per-op counter reads of the traced phase on.
    fn set_traced(&mut self);
    /// Per-layer metrics of the traced phase (`ops` traced ops).
    fn layers(&self, ledger: &Ledger, ops: u64, out: &mut Metrics);
    /// Free-form facts for the info line (sample counts, placement, …).
    fn info(&self) -> Vec<(String, String)> {
        Vec::new()
    }
    /// Ops after which peak resident memory is read. Fresh inputs grow the
    /// program's tables with every op, so memory compares equal work only
    /// at a fixed op count; every run on a working host reaches it.
    fn rss_after_ops(&self) -> u64;
}

/// What one closed loop measured.
#[derive(Default)]
pub struct LoopResult {
    /// Latency of every attempted op, milliseconds.
    pub lat_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output was wrong or that errored.
    pub failed: u64,
    /// Program-recorded `obs` events, summed over ops (traced loops only).
    pub program_events: u64,
    /// Peak resident set after [`Workload::rss_after_ops`] ops (or at the
    /// end of a loop that ran fewer), MiB.
    pub rss_peak_mb: f64,
}

impl LoopResult {
    /// Completed ops per second of timed wall clock.
    pub fn ops_per_s(&self) -> f64 {
        let busy_s: f64 = self.lat_ms.iter().sum::<f64>() / 1e3;
        (self.attempted - self.failed) as f64 / busy_s
    }
}

/// Spans the benchmark records itself carry this prefix, so they are never
/// counted as the program's own events.
pub const BENCH_SPAN_PREFIX: &str = "perfbench.";

/// Run `w` in a closed loop for `seconds`. With a ledger, every op is
/// wrapped in a `perfbench.op` span and the op's recorded spans are folded
/// into the ledger. The global recorder is emptied after every op in both
/// modes, outside the timed region, so its growth does not depend on how
/// many ops a run completes.
pub fn closed_loop(
    w: &mut dyn Workload,
    seconds: f64,
    mut ledger: Option<&mut Ledger>,
) -> LoopResult {
    let recorder = obs::recorder();
    let mut out = LoopResult::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let rss_after = w.rss_after_ops();
    while Instant::now() < deadline {
        w.prepare();
        let start = Instant::now();
        if ledger.is_some() {
            let _span = obs::span("perfbench.op");
            w.execute();
        } else {
            w.execute();
        }
        let elapsed = start.elapsed();
        out.attempted += 1;
        out.lat_ms.push(elapsed.as_secs_f64() * 1e3);
        if out.attempted == rss_after {
            out.rss_peak_mb = rss_peak_mb();
        }
        let mut ok = w.check();
        if let Some(ledger) = ledger.as_deref_mut() {
            let events = recorder.events();
            out.program_events += events
                .iter()
                .filter(|e| !e.name.starts_with(BENCH_SPAN_PREFIX))
                .count() as u64;
            ledger.add(&events);
            recorder.clear();
            ok &= w.traced_extras();
        }
        recorder.clear();
        if !ok {
            out.failed += 1;
        }
    }
    if out.attempted < rss_after {
        out.rss_peak_mb = rss_peak_mb();
    }
    out
}

/// Every per-layer metric the traced run reports, with its unit. Each
/// workload reports all of them; a layer the workload does not reach reads
/// 0. Values are per op unless noted, and each names the end-to-end metric
/// it should move:
///
/// | metric | source | should move |
/// |---|---|---|
/// | `cgraph.footprint_*` | outermost `cgraph.footprint` spans | `sweep` p50 / ops_per_s; `serve_cold` p50 |
/// | `symath.bind_ms`, `batch_compile_ms`, `batch_eval_ms` | timed stage-by-stage replay | `sweep` p50 |
/// | `symath.*_new*` | `intern_stats()` / `batch_stats()` deltas | `sweep` rss_peak_mb |
/// | `symath.batch_cache_hit_ratio` | `batch_stats()` hits / (hits + compiled) | `sweep` p50 |
/// | `analysis.characterize_many_self_ms` | span self time | `sweep` p50 |
/// | `analysis.instances_cached` | `FamilyEngine::instances_cached()`, a gauge | `sweep` rss_peak_mb |
/// | `analysis.characterize_ms`, `modelzoo.build_training_ms`, `cgraph.autodiff_ms` | spans | `serve_cold` p50 |
/// | `analysis.plan_search_space_ms`, `analysis.infer_characterize_ms` | spans | `serve_cold` p90 |
/// | `parsim.*` | timed calls, `SearchResult.stats` | `plan` p50 / ops_per_s |
/// | `obs.events_per_op` | program events recorded per op | `plan`, `sweep` rss_peak_mb |
/// | `modelzoo.build_family_ms`, `engine.family_*_ms` | spans during set-up, per run | `setup_s` |
/// | `serve.parse_us`, `serve.write_us` | flight-recorder stage medians, per request | `serve_hot` p50 |
/// | `serve.queue_us`, `compute_ms`, `serialize_us`, `cache_lookup_us` | flight-recorder stage medians | `serve_cold` p50 |
/// | `serve.bytes_cache_hit_ratio`, `epoll_wakeups_per_request`, `server_share` | reactor counters, server / client median | `serve_hot` ops_per_s |
/// | `serve.memo_hit_ratio`, `serve.memo_evictions` | memo-cache counters | `serve_cold` p50 / rss_peak_mb |
/// | `trace.op_ms`, `trace.overhead_ms` | traced op time; traced minus untraced p50 | — |
pub const PER_LAYER: [(&str, &str); 39] = [
    ("cgraph.footprint_ms", "ms"),
    ("cgraph.footprint_calls", "count"),
    ("symath.bind_ms", "ms"),
    ("symath.batch_compile_ms", "ms"),
    ("symath.batch_eval_ms", "ms"),
    ("symath.intern_new_nodes", "count"),
    ("symath.memo_new_entries", "count"),
    ("symath.batch_programs_new", "count"),
    ("symath.batch_cache_hit_ratio", "ratio"),
    ("analysis.characterize_many_self_ms", "ms"),
    ("analysis.instances_cached", "count"),
    ("analysis.characterize_ms", "ms"),
    ("modelzoo.build_training_ms", "ms"),
    ("cgraph.autodiff_ms", "ms"),
    ("analysis.plan_search_space_ms", "ms"),
    ("analysis.infer_characterize_ms", "ms"),
    ("parsim.search_ms", "ms"),
    ("parsim.infer_search_ms", "ms"),
    ("parsim.considered", "count"),
    ("parsim.evaluated", "count"),
    ("parsim.pruned", "count"),
    ("parsim.evaluated_ratio", "ratio"),
    ("obs.events_per_op", "count"),
    ("modelzoo.build_family_ms", "ms"),
    ("engine.family_stats_ms", "ms"),
    ("engine.family_plan_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.write_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.compute_ms", "ms"),
    ("serve.serialize_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.bytes_cache_hit_ratio", "ratio"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.memo_evictions", "count"),
    ("serve.epoll_wakeups_per_request", "count"),
    ("serve.server_share", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Named metric values with units, rendered as the result line's
/// `metrics` object.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// The per-layer table with every metric at 0.
    pub fn per_layer() -> Metrics {
        Metrics(PER_LAYER.iter().map(|&(n, u)| (n, (0.0, u))).collect())
    }

    /// Set `name`. Per-layer names must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    /// Set a per-layer metric, keeping its declared unit.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let entry = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        entry.0 = value;
    }

    /// Render as a JSON object. Non-finite values render as 0 (JSON has no
    /// NaN); a ratio over zero attempts is 0 by that rule.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

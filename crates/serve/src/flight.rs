//! Always-on flight recorder: a fixed-size, lock-sharded ring of recent
//! request records plus a slowest-K retention set.
//!
//! Every finished request — success, error, or panic (the RAII guard in
//! `lib.rs` records during unwind) — deposits one [`RequestRecord`]. The
//! ring answers "what just happened"; the retention set answers "what were
//! the worst requests since boot" even after the ring has cycled past them.
//! Both are dumpable at runtime via `GET /v1/debug/requests`.
//!
//! Recording is designed to stay off the hot path's neck: the ring shard is
//! selected by request id (round-robin, so one mutex sees 1/N of requests),
//! and the slowest-K set is guarded by an atomic threshold — once the set
//! is full, requests faster than the current K-th slowest skip the lock
//! entirely.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use obs::Json;

use crate::trace::{Stage, STAGE_COUNT};

/// Ring shards. Eight matches the counter sharding in `obs::metrics`.
const RING_SHARDS: usize = 8;

/// Size of the slowest-request retention set.
pub const SLOWEST_K: usize = 16;

/// One finished request, as retained by the recorder.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Per-server request id (1-based, monotonic).
    pub id: u64,
    /// Request target (`path?query`), or a placeholder for unparsable heads.
    pub target: String,
    /// Endpoint label (matches the metrics `endpoint` label).
    pub endpoint: &'static str,
    /// Response status.
    pub status: u16,
    /// `hit` / `miss` / `coalesced` for cacheable endpoints.
    pub cache_state: Option<&'static str>,
    /// End-to-end latency in microseconds.
    pub total_us: u64,
    /// Per-stage timings, indexed like [`Stage::ALL`].
    pub stages: [u64; STAGE_COUNT],
    /// Whether the request was promoted to full span capture.
    pub sampled: bool,
}

/// The recorder: recent ring + slowest-K set.
pub struct FlightRecorder {
    shards: Vec<Mutex<VecDeque<RequestRecord>>>,
    per_shard: usize,
    slowest: Mutex<Vec<RequestRecord>>,
    /// Admission threshold for the slowest set: 0 until the set is full,
    /// then the K-th slowest total. Requests at or under it skip the lock.
    slow_floor: AtomicU64,
    recorded: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining roughly `entries` recent requests.
    pub fn new(entries: usize) -> FlightRecorder {
        let per_shard = entries.max(RING_SHARDS).div_ceil(RING_SHARDS);
        FlightRecorder {
            shards: (0..RING_SHARDS)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_shard)))
                .collect(),
            per_shard,
            slowest: Mutex::new(Vec::with_capacity(SLOWEST_K)),
            slow_floor: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// Total requests recorded since boot (monotonic).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Deposit one finished request.
    pub fn record(&self, record: RequestRecord) {
        // Relaxed: a standalone monotonic tally; readers only need a value
        // that is eventually ≥ the ring contents they observe.
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.maybe_retain_slowest(&record);
        let shard = &self.shards[(record.id as usize) % self.shards.len()];
        let mut ring = shard.lock().expect("flight ring lock");
        if ring.len() >= self.per_shard {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    fn maybe_retain_slowest(&self, record: &RequestRecord) {
        // Relaxed fast path: the floor is a monotone admission hint. A
        // stale (lower) floor admits a request that no longer qualifies —
        // the locked re-check below discards it — and a stale-high floor is
        // impossible since the floor only rises under the lock we'd take.
        if record.total_us <= self.slow_floor.load(Ordering::Relaxed) {
            return;
        }
        let mut slowest = self.slowest.lock().expect("flight slowest lock");
        let full = slowest.len() >= SLOWEST_K;
        if full && record.total_us <= slowest.last().map_or(0, |r| r.total_us) {
            return;
        }
        let at = slowest
            .binary_search_by(|r| record.total_us.cmp(&r.total_us))
            .unwrap_or_else(|i| i);
        slowest.insert(at, record.clone());
        slowest.truncate(SLOWEST_K);
        if slowest.len() >= SLOWEST_K {
            self.slow_floor
                .store(slowest.last().map_or(0, |r| r.total_us), Ordering::Relaxed);
        }
    }

    /// Recent requests across all shards, newest first.
    pub fn recent(&self) -> Vec<RequestRecord> {
        let mut out: Vec<RequestRecord> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("flight ring lock")
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|r| std::cmp::Reverse(r.id));
        out
    }

    /// The slowest-K requests since boot, slowest first.
    pub fn slowest(&self) -> Vec<RequestRecord> {
        self.slowest.lock().expect("flight slowest lock").clone()
    }
}

impl RequestRecord {
    /// Render as the JSON object served by `/v1/debug/requests`.
    pub fn to_json(&self) -> Json {
        let stages = Stage::ALL
            .iter()
            .enumerate()
            .fold(Json::obj(), |acc, (i, stage)| {
                acc.set(&format!("{}_us", stage.key()), self.stages[i])
            });
        Json::obj()
            .set("id", self.id)
            .set("target", self.target.as_str())
            .set("endpoint", self.endpoint)
            .set("status", u64::from(self.status))
            .set("cache", self.cache_state.map_or(Json::Null, Json::from))
            .set("total_us", self.total_us)
            .set("stages", stages)
            .set("sampled", self.sampled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, total_us: u64) -> RequestRecord {
        RequestRecord {
            id,
            target: format!("/v1/test?id={id}"),
            endpoint: "test",
            status: 200,
            cache_state: None,
            total_us,
            stages: [0; STAGE_COUNT],
            sampled: false,
        }
    }

    #[test]
    fn ring_keeps_newest_and_bounds_capacity() {
        let fr = FlightRecorder::new(16);
        for id in 1..=100 {
            fr.record(rec(id, 10));
        }
        assert_eq!(fr.recorded(), 100);
        let recent = fr.recent();
        assert!(recent.len() <= fr.capacity());
        assert_eq!(recent.first().map(|r| r.id), Some(100));
        // Newest-first ordering.
        assert!(recent.windows(2).all(|w| w[0].id > w[1].id));
    }

    #[test]
    fn slowest_set_retains_outliers_after_ring_cycles() {
        let fr = FlightRecorder::new(8);
        fr.record(rec(1, 1_000_000)); // the slow one
        for id in 2..=200 {
            fr.record(rec(id, 5));
        }
        assert!(
            !fr.recent().iter().any(|r| r.id == 1),
            "ring cycled past the slow request"
        );
        let slowest = fr.slowest();
        assert_eq!(
            slowest.first().map(|r| r.id),
            Some(1),
            "retention set kept it"
        );
        // Slowest-first ordering.
        assert!(slowest.windows(2).all(|w| w[0].total_us >= w[1].total_us));
    }

    #[test]
    fn slowest_set_is_bounded_and_sorted() {
        let fr = FlightRecorder::new(8);
        for id in 1..=100 {
            fr.record(rec(id, id * 10));
        }
        let slowest = fr.slowest();
        assert_eq!(slowest.len(), SLOWEST_K);
        assert_eq!(slowest.first().map(|r| r.total_us), Some(1000));
        assert_eq!(
            slowest.last().map(|r| r.total_us),
            Some((100 - SLOWEST_K as u64 + 1) * 10)
        );
    }
}

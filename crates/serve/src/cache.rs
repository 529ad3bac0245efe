//! The serve tier's one response cache: sharded, content-addressed, with
//! single-flight compute and a raw-target alias index.
//!
//! Each cached response is one [`CachedBytes`] allocation — the rendered
//! JSON body plus both pre-rendered `x-cache: hit` heads — held behind an
//! `Arc`. It is stored under its [`frontier::QueryKey`] 128-bit content
//! hash, and the reactor additionally aliases it under each raw request
//! target (`/path?query`) that produced it, so a warm hit is one lock, one
//! probe, and a single `writev` with no canonicalization and no re-encode.
//! An alias and its entry share the same `Arc`; they evict independently
//! (each map is its own [`Lru`]), which is safe because every value is a
//! pure function of its query and can never go stale.
//!
//! **Single-flight:** the first request for a key installs a flight and
//! computes outside the lock; concurrent requests for the same key block
//! on the flight's condvar and receive the same `Arc` — an expensive
//! characterization is computed exactly once no matter how many clients ask
//! simultaneously. A pending flight is never an LRU entry, so it is never
//! evicted. A panicking compute poisons nobody: the flight is removed,
//! waiters get the error, and later requests recompute.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use analysis::Lru;

use crate::http;
use crate::trace::elapsed_us;

/// How a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Value was already resident.
    Hit,
    /// This request computed the value.
    Miss,
    /// Another in-flight request computed it; this one waited.
    Coalesced,
}

/// Where a lookup's time went, for the request trace context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupTiming {
    /// Shard lock + probe (all outcomes).
    pub lookup_us: u64,
    /// Blocked on another request's flight (coalesced only).
    pub wait_us: u64,
    /// Running the compute closure (miss only; includes serialization done
    /// inside the closure).
    pub compute_us: u64,
}

/// A fully pre-serialized response: the JSON body plus two pre-rendered
/// heads (`x-cache: hit`, one per connection disposition). Rendered once,
/// inside the memoized compute; a warm hit is a single `writev` of
/// `[head, body]` — zero re-encode, zero copy of the body bytes.
#[derive(Debug)]
pub struct CachedBytes {
    /// HTTP status the cached exchange produced (always 200: only
    /// successful responses are cached).
    pub status: u16,
    /// Endpoint label for metrics/flight records.
    pub endpoint: &'static str,
    /// The response body, byte-identical to fresh serialization.
    pub body: String,
    /// Pre-rendered head ending in `connection: keep-alive` + `x-cache: hit`.
    pub head_keep_alive: Vec<u8>,
    /// Pre-rendered head ending in `connection: close` + `x-cache: hit`.
    pub head_close: Vec<u8>,
}

impl CachedBytes {
    /// A status-200 response for `endpoint`, with both hit heads rendered.
    pub fn new(endpoint: &'static str, content_type: &str, body: String) -> CachedBytes {
        let head = |keep_alive| {
            http::render_head(200, body.len(), Some("hit"), content_type, keep_alive).into_bytes()
        };
        CachedBytes {
            status: 200,
            endpoint,
            head_keep_alive: head(true),
            head_close: head(false),
            body,
        }
    }
}

type ComputeResult = Result<Arc<CachedBytes>, String>;

struct Flight {
    done: Mutex<Option<ComputeResult>>,
    cv: Condvar,
}

struct Shard {
    /// Resident responses by `QueryKey` hash.
    ready: Lru<u128, Arc<CachedBytes>>,
    /// Computes in progress by `QueryKey` hash.
    flights: HashMap<u128, Arc<Flight>>,
    /// Raw request target → the same `Arc` as its `ready` entry.
    aliases: Lru<String, Arc<CachedBytes>>,
}

/// Cache hit/miss/eviction counters (all monotonic).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups satisfied from a resident value (by key or by target).
    pub hits: AtomicU64,
    /// Lookups that computed the value.
    pub misses: AtomicU64,
    /// Lookups that waited on another request's compute.
    pub coalesced: AtomicU64,
    /// Values evicted from the query-key index to stay under capacity.
    pub evictions: AtomicU64,
    /// Computes that failed (panicked or returned an error).
    pub failures: AtomicU64,
}

/// The response cache (see the module docs).
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    /// Counters, exposed for `/v1/metrics`.
    pub stats: CacheStats,
}

impl ResponseCache {
    /// A cache bounded to roughly `capacity` resident responses and, apart
    /// from those, `capacity` raw-target aliases, spread over `shards`
    /// independently locked shards.
    pub fn new(capacity: usize, shards: usize) -> ResponseCache {
        let shards = shards.clamp(1, 64);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        ResponseCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        ready: Lru::new(per_shard_capacity),
                        flights: HashMap::new(),
                        aliases: Lru::new(per_shard_capacity),
                    })
                })
                .collect(),
            per_shard_capacity,
            stats: CacheStats::default(),
        }
    }

    fn sum(&self, f: fn(&Shard) -> usize) -> usize {
        self.shards
            .iter()
            .map(|s| f(&s.lock().expect("cache shard lock")))
            .sum()
    }

    /// Total resident responses across shards.
    pub fn len(&self) -> usize {
        self.sum(|s| s.ready.len())
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident raw-target aliases across shards.
    pub fn alias_count(&self) -> usize {
        self.sum(|s| s.aliases.len())
    }

    /// Nominal capacity (responses).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Lock the shard holding `key`'s entry or flight.
    fn shard(&self, key: u128) -> MutexGuard<'_, Shard> {
        // High bits select the shard; the map hashes the full key.
        let idx = ((key >> 96) as usize) % self.shards.len();
        self.shards[idx].lock().expect("cache shard lock")
    }

    /// Lock the shard holding `target`'s alias.
    fn target_shard(&self, target: &str) -> MutexGuard<'_, Shard> {
        let mut h = DefaultHasher::new();
        target.hash(&mut h);
        let idx = (h.finish() as usize) % self.shards.len();
        self.shards[idx].lock().expect("cache shard lock")
    }

    /// The reactor's warm path: the response aliased under the raw request
    /// `target`, refreshing its recency. A hit counts as a cache hit.
    pub fn get_target(&self, target: &str) -> Option<Arc<CachedBytes>> {
        let hit = self.target_shard(target).aliases.get(target)?;
        // Relaxed: standalone monotone tally (see `get_or_compute_timed`).
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Alias `value` (a response this cache produced) under the raw request
    /// `target`, evicting the least-recently-used alias if the shard is
    /// over capacity. An existing alias is kept (both are the same bytes).
    pub fn alias(&self, target: String, value: Arc<CachedBytes>) {
        self.target_shard(&target).aliases.insert(target, value);
    }

    /// Look up `key`, computing the response with `compute` on a miss.
    /// Returns the response and how it was obtained. `compute` errors
    /// (including panics, reported as errors) are not cached.
    pub fn get_or_compute(
        &self,
        key: u128,
        compute: impl FnOnce() -> Result<CachedBytes, String>,
    ) -> (ComputeResult, Outcome) {
        let (result, outcome, _) = self.get_or_compute_timed(key, compute);
        (result, outcome)
    }

    /// [`Self::get_or_compute`], additionally reporting where the lookup's
    /// time went (shard probe / flight wait / compute) for the request
    /// trace context.
    pub fn get_or_compute_timed(
        &self,
        key: u128,
        compute: impl FnOnce() -> Result<CachedBytes, String>,
    ) -> (ComputeResult, Outcome, LookupTiming) {
        let probe_start = Instant::now();
        let mut shard = self.shard(key);
        if let Some(value) = shard.ready.get(&key) {
            drop(shard);
            // Relaxed: standalone monotone tally. Exact cross-thread
            // visibility in tests is given by the response write happening
            // before the test's next request (TCP read → happens-before).
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            let timing = LookupTiming {
                lookup_us: elapsed_us(probe_start),
                ..LookupTiming::default()
            };
            return (Ok(value), Outcome::Hit, timing);
        }
        let flight = match shard.flights.get(&key) {
            Some(f) => Arc::clone(f),
            None => {
                let f = Arc::new(Flight {
                    done: Mutex::new(None),
                    cv: Condvar::new(),
                });
                shard.flights.insert(key, Arc::clone(&f));
                drop(shard);
                let lookup_us = elapsed_us(probe_start);
                let compute_start = Instant::now();
                let result = self.run_flight(key, f, compute);
                let timing = LookupTiming {
                    lookup_us,
                    wait_us: 0,
                    compute_us: elapsed_us(compute_start),
                };
                return (result, Outcome::Miss, timing);
            }
        };
        drop(shard);
        // Wait for the in-flight compute.
        let lookup_us = elapsed_us(probe_start);
        // Relaxed: standalone monotone tally (see `hits` above).
        self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        let wait_start = Instant::now();
        let mut done = flight.done.lock().expect("flight lock");
        while done.is_none() {
            done = flight.cv.wait(done).expect("flight wait");
        }
        (
            done.as_ref().expect("flight finished").clone(),
            Outcome::Coalesced,
            LookupTiming {
                lookup_us,
                wait_us: elapsed_us(wait_start),
                compute_us: 0,
            },
        )
    }

    fn run_flight(
        &self,
        key: u128,
        flight: Arc<Flight>,
        compute: impl FnOnce() -> Result<CachedBytes, String>,
    ) -> ComputeResult {
        // Relaxed: standalone monotone tally; the value itself is published
        // via the shard mutex / flight condvar, never via this counter.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let result: ComputeResult = match catch_unwind(AssertUnwindSafe(compute)) {
            Ok(Ok(bytes)) => Ok(Arc::new(bytes)),
            Ok(Err(e)) => Err(e),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "computation panicked".into());
                Err(format!("computation panicked: {msg}"))
            }
        };
        if result.is_err() {
            // Relaxed: standalone monotone tally, observed only by scrapes.
            self.stats.failures.fetch_add(1, Ordering::Relaxed);
        }
        let result = {
            let mut shard = self.shard(key);
            shard.flights.remove(&key);
            // A failed compute leaves no entry, so a later request retries.
            result.map(|value| {
                let (kept, evicted) = shard.ready.insert(key, value);
                // Relaxed: standalone monotone tally; the removals
                // themselves are ordered by the shard mutex held here.
                self.stats
                    .evictions
                    .fetch_add(evicted as u64, Ordering::Relaxed);
                kept
            })
        };
        // Wake everyone coalesced on this flight.
        *flight.done.lock().expect("flight lock") = Some(result.clone());
        flight.cv.notify_all();
        result
    }

    /// Hit rate over all lookups so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        // Relaxed loads: the counters are independent; a scrape landing
        // mid-request may see hits/misses skewed by one, harmless in a ratio.
        let hits =
            self.stats.hits.load(Ordering::Relaxed) + self.stats.coalesced.load(Ordering::Relaxed);
        let total = hits + self.stats.misses.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn json(body: &str) -> CachedBytes {
        CachedBytes::new("characterize", "application/json", body.to_string())
    }

    #[test]
    fn second_lookup_hits_with_identical_value() {
        let cache = ResponseCache::new(8, 2);
        let (first, o1) = cache.get_or_compute(42, || Ok(json("body")));
        let (second, o2) = cache.get_or_compute(42, || Ok(json("OTHER")));
        assert_eq!(o1, Outcome::Miss);
        assert_eq!(o2, Outcome::Hit);
        assert!(Arc::ptr_eq(&first.expect("ok"), &second.expect("ok")));
        assert_eq!(cache.stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_identical_queries_compute_once() {
        let cache = Arc::new(ResponseCache::new(8, 4));
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let (value, _) = cache.get_or_compute(7, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok(json("expensive"))
                });
                value.expect("ok")
            }));
        }
        let values: Vec<Arc<CachedBytes>> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight");
        assert!(values.iter().all(|v| v.body == "expensive"));
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let cache = ResponseCache::new(4, 1);
        for key in 0..8u128 {
            let (v, _) = cache.get_or_compute(key, || Ok(json(&format!("v{key}"))));
            v.expect("ok");
        }
        assert!(cache.len() <= 4, "len {} over capacity", cache.len());
        assert!(cache.stats.evictions.load(Ordering::Relaxed) >= 4);
        // The most recent key is still resident.
        let (_, outcome) = cache.get_or_compute(7, || Ok(json("recomputed")));
        assert_eq!(outcome, Outcome::Hit);
    }

    #[test]
    fn failed_computes_are_not_cached_and_retry() {
        let cache = ResponseCache::new(8, 1);
        let (r1, _) = cache.get_or_compute(1, || Err("boom".into()));
        assert!(r1.is_err());
        let (r2, outcome) = cache.get_or_compute(1, || Ok(json("recovered")));
        assert_eq!(outcome, Outcome::Miss);
        assert_eq!(r2.expect("ok").body, "recovered");
        assert_eq!(cache.stats.failures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_computes_become_errors() {
        let cache = ResponseCache::new(8, 1);
        let (r, _) = cache.get_or_compute(2, || panic!("kaboom"));
        let err = r.expect_err("panic becomes error");
        assert!(err.contains("kaboom"), "{err}");
        // Cache stays usable.
        let (r2, _) = cache.get_or_compute(2, || Ok(json("fine")));
        assert_eq!(r2.expect("ok").body, "fine");
    }

    #[test]
    fn bytes_cache_round_trips_and_shares_the_body() {
        let cache = ResponseCache::new(8, 2);
        let target = "/v1/characterize?domain=nmt";
        assert!(cache.get_target(target).is_none());
        let (value, _) = cache.get_or_compute(3, || Ok(json("{\"x\":1}")));
        cache.alias(target.to_string(), value.expect("ok"));
        let hit = cache.get_target(target).expect("resident");
        assert_eq!(hit.body, "{\"x\":1}");
        assert_eq!(hit.endpoint, "characterize");
        assert_eq!(hit.status, 200);
        let head = String::from_utf8(hit.head_keep_alive.clone()).expect("utf8");
        assert!(head.contains("x-cache: hit"), "{head}");
        assert!(head.contains("connection: keep-alive"), "{head}");
        assert!(head.contains(&format!("content-length: {}", hit.body.len())));
        let head = String::from_utf8(hit.head_close.clone()).expect("utf8");
        assert!(head.contains("connection: close"), "{head}");
    }

    #[test]
    fn bytes_cache_evicts_least_recently_used() {
        let cache = ResponseCache::new(4, 1);
        let value = Arc::new(json("{}"));
        for i in 0..8 {
            cache.alias(format!("/k{i}"), Arc::clone(&value));
            // Keep /k0 hot so the eviction victim is always something else.
            let _ = cache.get_target("/k0");
        }
        assert!(
            cache.alias_count() <= 4,
            "aliases {} over capacity",
            cache.alias_count()
        );
        assert!(cache.get_target("/k0").is_some(), "hot alias survived");
        assert!(cache.get_target("/k1").is_none(), "cold alias evicted");
    }

    #[test]
    fn an_alias_and_its_entry_are_one_allocation() {
        let cache = ResponseCache::new(8, 2);
        let (value, _) = cache.get_or_compute(5, || Ok(json("{\"y\":2}")));
        cache.alias("/a".to_string(), value.expect("ok"));
        cache.alias(
            "/b".to_string(),
            cache.get_or_compute(5, || unreachable!()).0.expect("ok"),
        );
        let (entry, outcome) = cache.get_or_compute(5, || unreachable!());
        assert_eq!(outcome, Outcome::Hit);
        let entry = entry.expect("ok");
        assert!(Arc::ptr_eq(&entry, &cache.get_target("/a").expect("alias")));
        assert!(Arc::ptr_eq(&entry, &cache.get_target("/b").expect("alias")));
    }

    #[test]
    fn an_alias_serves_after_its_entry_is_evicted() {
        let cache = ResponseCache::new(1, 1);
        let (value, _) = cache.get_or_compute(1, || Ok(json("first")));
        cache.alias("/first".to_string(), value.expect("ok"));
        cache
            .get_or_compute(2, || Ok(json("second")))
            .0
            .expect("ok");
        assert_eq!(cache.stats.evictions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1);
        let hit = cache
            .get_target("/first")
            .expect("alias outlives its entry");
        assert_eq!(hit.body, "first");
    }
}

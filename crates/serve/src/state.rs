//! Shared server state: the wrapped [`Engine`], a sharded concurrent
//! cache of serialized response bodies, single-flight deduplication of
//! identical in-flight queries, and the counters behind `GET /stats`.
//!
//! Two cache layers cooperate:
//!
//! * the **body cache** (here) maps an idempotency key — the query's
//!   canonical serialization — to the exact response bytes, so a repeat
//!   of a served query costs one shard-map lookup and no serialization;
//! * the **engine caches** (`delta_model::engine`, persisted as cache
//!   format v3) map query fingerprints to results, so even a body-cache
//!   miss after a warm restart re-serializes a stored result instead of
//!   replaying the backend — zero layer replays, byte-identical bytes.
//!
//! Single-flight: the first thread to miss on a key becomes the
//! **leader** and evaluates; threads that arrive with the same key while
//! the evaluation is in flight park on the leader's `Flight` and share
//! its result. `GET /stats` therefore shows N concurrent duplicates as N
//! requests but a single miss.

use crate::error::ApiError;
use delta_model::engine::Engine;
use delta_model::Backend;
use delta_obs::{span, Counter, Gauge, Histogram, Registry};
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Shard count for the body cache: enough to keep a handful of worker
/// threads off each other's locks, small enough that `/stats` can sum
/// entry counts cheaply.
const BODY_CACHE_SHARDS: usize = 16;

/// One in-flight evaluation that duplicate requests can join.
#[derive(Default)]
struct Flight {
    slot: Mutex<Option<Result<String, ApiError>>>,
    done: Condvar,
}

impl Flight {
    fn wait(&self) -> Result<String, ApiError> {
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        while slot.is_none() {
            slot = self.done.wait(slot).expect("flight slot poisoned");
        }
        slot.clone().expect("checked above")
    }

    fn fulfill(&self, result: Result<String, ApiError>) {
        *self.slot.lock().expect("flight slot poisoned") = Some(result);
        self.done.notify_all();
    }
}

/// Per-endpoint request counters (cumulative since startup).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct RequestCounters {
    /// `POST /eval` requests.
    pub eval: u64,
    /// `POST /step` requests.
    pub step: u64,
    /// `POST /sweep` requests (one per sweep, not per query).
    pub sweep: u64,
    /// Individual queries carried by sweeps.
    pub sweep_queries: u64,
    /// `GET /stats` requests.
    pub stats: u64,
}

/// Body-cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct BodyCacheCounters {
    /// Responses served straight from the body cache.
    pub hits: u64,
    /// Evaluations actually performed (single-flight leaders).
    pub misses: u64,
    /// Requests that joined an identical in-flight evaluation instead of
    /// starting their own.
    pub deduped: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// Mirror of [`delta_model::engine::CacheStats`] with a serializable
/// shape (the core type does not derive `Serialize`).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct EngineCacheCounters {
    /// Per-layer queries answered from the engine cache.
    pub hits: u64,
    /// Per-layer queries that ran a backend evaluation.
    pub misses: u64,
    /// Whole-step queries answered from the step cache (zero replays).
    pub step_hits: u64,
    /// Whole-step queries that ran an evaluation.
    pub step_misses: u64,
    /// Full-layer replays run by the backend (0 for backends without
    /// replay machinery, like the analytical model).
    pub replays: u64,
}

/// The `GET /stats` response document.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StatsResponse {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Requests currently being handled (includes this `/stats` call).
    pub in_flight: u64,
    /// Per-endpoint request counters.
    pub requests: RequestCounters,
    /// Body-cache counters (the serve-layer cache).
    pub cache: BodyCacheCounters,
    /// Engine-cache counters (the layer/step result cache beneath).
    pub engine: EngineCacheCounters,
}

/// Everything the worker threads share.
pub struct ServeState<B: Backend> {
    /// The wrapped evaluation engine (its own caches are the persistent
    /// warm store).
    pub engine: Engine<B>,
    /// Body-cache shards, behind an `Arc` so the metrics registry's
    /// scrape-time entry gauge can read them.
    shards: Arc<Vec<Mutex<HashMap<String, String>>>>,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    /// The metrics registry behind `GET /metrics`: every counter below
    /// is registered in it (same atomics), plus the engine cache
    /// counters and scrape-time gauges.
    registry: Registry,
    hits: Counter,
    misses: Counter,
    deduped: Counter,
    in_flight: Gauge,
    requests_eval: Counter,
    requests_step: Counter,
    requests_sweep: Counter,
    requests_sweep_queries: Counter,
    requests_stats: Counter,
    latency_eval: Histogram,
    latency_step: Histogram,
    latency_sweep: Histogram,
    latency_stats: Histogram,
    queue_wait: Histogram,
    started: Instant,
    cache_file: Option<PathBuf>,
    dirty: AtomicBool,
}

/// Which endpoint a request counter tick belongs to.
#[derive(Debug, Clone, Copy)]
pub enum Endpoint {
    /// `POST /eval`.
    Eval,
    /// `POST /step`.
    Step,
    /// `POST /sweep`.
    Sweep,
    /// `GET /stats`.
    Stats,
}

impl<B: Backend> ServeState<B> {
    /// Wraps `backend` in an engine; if `cache_file` exists it is loaded
    /// as the warm store (errors propagate — a mismatched cache file is
    /// a configuration mistake, not something to silently ignore).
    /// Returns the state and the number of warm entries loaded.
    pub fn new(backend: B, cache_file: Option<PathBuf>) -> std::io::Result<(ServeState<B>, usize)> {
        let engine = Engine::new(backend);
        let mut warm = 0;
        if let Some(path) = &cache_file {
            if path.exists() {
                warm = engine.load_cache(path)?;
            }
        }
        let shards: Arc<Vec<Mutex<HashMap<String, String>>>> = Arc::new(
            (0..BODY_CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        );
        let started = Instant::now();

        // Every instrument lives in this per-server registry (NOT a
        // process global — tests run several servers in one process and
        // each asserts its own exact counts).
        let registry = Registry::default();
        let req = |endpoint| {
            registry.counter(
                "delta_serve_requests_total",
                "Requests received, by endpoint",
                &[("endpoint", endpoint)],
            )
        };
        let lat = |endpoint| {
            registry.histogram(
                "delta_serve_request_seconds",
                "Request handling latency, by endpoint",
                &[("endpoint", endpoint)],
            )
        };
        let state = ServeState {
            hits: registry.counter(
                "delta_serve_body_cache_hits_total",
                "Responses served straight from the body cache",
                &[],
            ),
            misses: registry.counter(
                "delta_serve_body_cache_misses_total",
                "Evaluations actually performed (single-flight leaders)",
                &[],
            ),
            deduped: registry.counter(
                "delta_serve_deduped_total",
                "Requests that joined an identical in-flight evaluation",
                &[],
            ),
            in_flight: registry.gauge(
                "delta_serve_in_flight",
                "Requests currently being handled",
                &[],
            ),
            requests_eval: req("eval"),
            requests_step: req("step"),
            requests_sweep: req("sweep"),
            requests_stats: req("stats"),
            requests_sweep_queries: registry.counter(
                "delta_serve_sweep_queries_total",
                "Individual queries carried by sweep requests",
                &[],
            ),
            latency_eval: lat("eval"),
            latency_step: lat("step"),
            latency_sweep: lat("sweep"),
            latency_stats: lat("stats"),
            queue_wait: registry.histogram(
                "delta_serve_queue_seconds",
                "Time from accepting a connection to a handler picking it up",
                &[],
            ),
            engine,
            shards: Arc::clone(&shards),
            flights: Mutex::new(HashMap::new()),
            registry,
            started,
            cache_file,
            dirty: AtomicBool::new(false),
        };
        let counters = state.engine.cache_counters();
        state.registry.register_counter(
            "delta_engine_cache_hits_total",
            "Per-layer queries answered from the engine cache",
            &[],
            &counters.hits,
        );
        state.registry.register_counter(
            "delta_engine_cache_misses_total",
            "Per-layer queries that ran a backend evaluation",
            &[],
            &counters.misses,
        );
        state.registry.register_counter(
            "delta_engine_step_cache_hits_total",
            "Whole-step queries answered from the step cache",
            &[],
            &counters.step_hits,
        );
        state.registry.register_counter(
            "delta_engine_step_cache_misses_total",
            "Whole-step queries that ran an evaluation",
            &[],
            &counters.step_misses,
        );
        state.registry.gauge_fn(
            "delta_serve_body_cache_entries",
            "Body-cache entries currently resident",
            &[],
            move || {
                shards
                    .iter()
                    .map(|s| s.lock().map(|m| m.len()).unwrap_or(0) as f64)
                    .sum()
            },
        );
        state.registry.gauge_fn(
            "delta_serve_uptime_seconds",
            "Seconds since the server started",
            &[],
            move || started.elapsed().as_secs_f64(),
        );
        Ok((state, warm))
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, String>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// The cached single-flight evaluation path. `key` is the query's
    /// idempotency key; `evaluate` runs at most once per key across all
    /// concurrent callers (errors are shared with the flight's joiners
    /// but not cached — a later retry re-evaluates).
    pub fn cached(
        &self,
        key: &str,
        evaluate: impl FnOnce() -> Result<String, ApiError>,
    ) -> Result<String, ApiError> {
        let _span = span!("serve.dedup");
        // Fast path: a settled result needs no coordination.
        if let Some(body) = self
            .shard(key)
            .lock()
            .expect("body cache poisoned")
            .get(key)
        {
            self.hits.inc();
            return Ok(body.clone());
        }
        enum Role {
            Hit(String),
            Join(Arc<Flight>),
            Lead(Arc<Flight>),
        }
        // Slow path: the flights map is the coordination point. The
        // re-check under its lock closes the race against a leader that
        // settled between our fast-path miss and here (leaders insert
        // into the shard before removing their flight).
        let role = {
            let mut flights = self.flights.lock().expect("flights poisoned");
            if let Some(body) = self
                .shard(key)
                .lock()
                .expect("body cache poisoned")
                .get(key)
            {
                Role::Hit(body.clone())
            } else if let Some(f) = flights.get(key) {
                Role::Join(f.clone())
            } else {
                let f = Arc::new(Flight::default());
                flights.insert(key.to_string(), f.clone());
                Role::Lead(f)
            }
        };
        match role {
            Role::Hit(body) => {
                self.hits.inc();
                Ok(body)
            }
            Role::Join(flight) => {
                self.deduped.inc();
                flight.wait()
            }
            Role::Lead(flight) => {
                self.misses.inc();
                let result = {
                    let _span = span!("serve.evaluate");
                    evaluate()
                };
                if let Ok(body) = &result {
                    self.shard(key)
                        .lock()
                        .expect("body cache poisoned")
                        .insert(key.to_string(), body.clone());
                    self.dirty.store(true, Ordering::Relaxed);
                }
                flight.fulfill(result.clone());
                self.flights.lock().expect("flights poisoned").remove(key);
                result
            }
        }
    }

    /// Counts one request against `endpoint`.
    pub fn count_request(&self, endpoint: Endpoint) {
        let counter = match endpoint {
            Endpoint::Eval => &self.requests_eval,
            Endpoint::Step => &self.requests_step,
            Endpoint::Sweep => &self.requests_sweep,
            Endpoint::Stats => &self.requests_stats,
        };
        counter.inc();
    }

    /// Records one request's handling latency against `endpoint`.
    pub fn observe_latency(&self, endpoint: Endpoint, elapsed: Duration) {
        let histogram = match endpoint {
            Endpoint::Eval => &self.latency_eval,
            Endpoint::Step => &self.latency_step,
            Endpoint::Sweep => &self.latency_sweep,
            Endpoint::Stats => &self.latency_stats,
        };
        histogram.observe(elapsed);
    }

    /// Records how long an accepted connection waited for a handler.
    pub fn observe_queue_wait(&self, waited: Duration) {
        self.queue_wait.observe(waited);
    }

    /// Counts `n` queries carried by a sweep.
    pub fn count_sweep_queries(&self, n: u64) {
        self.requests_sweep_queries.add(n);
    }

    /// Marks a connection as being handled; the guard decrements on
    /// drop.
    pub fn enter(&self) -> InFlightGuard {
        self.in_flight.inc();
        InFlightGuard {
            gauge: self.in_flight.clone(),
        }
    }

    /// The `GET /metrics` body: every registered instrument in the
    /// Prometheus text exposition format, plus the backend's replay
    /// counter (read at scrape time — the generic engine owns the
    /// backend, so it cannot be registered as a shared handle).
    pub fn metrics_text(&self) -> String {
        let mut out = self.registry.render();
        let replays = self.engine.backend().replays().unwrap_or(0);
        out.push_str("# HELP delta_engine_replays_total Full-layer replays run by the backend\n");
        out.push_str("# TYPE delta_engine_replays_total counter\n");
        out.push_str(&format!("delta_engine_replays_total {replays}\n"));
        out
    }

    /// A point-in-time stats snapshot.
    pub fn snapshot(&self) -> StatsResponse {
        let engine = self.engine.cache_stats();
        StatsResponse {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            in_flight: self.in_flight.get(),
            requests: RequestCounters {
                eval: self.requests_eval.get(),
                step: self.requests_step.get(),
                sweep: self.requests_sweep.get(),
                sweep_queries: self.requests_sweep_queries.get(),
                stats: self.requests_stats.get(),
            },
            cache: BodyCacheCounters {
                hits: self.hits.get(),
                misses: self.misses.get(),
                deduped: self.deduped.get(),
                entries: self
                    .shards
                    .iter()
                    .map(|s| s.lock().expect("body cache poisoned").len() as u64)
                    .sum(),
            },
            engine: EngineCacheCounters {
                hits: engine.hits,
                misses: engine.misses,
                step_hits: engine.step_hits,
                step_misses: engine.step_misses,
                replays: self.engine.backend().replays().unwrap_or(0),
            },
        }
    }

    /// Persists the engine caches to the configured cache file if any
    /// new result landed since the last save. Returns the entry count
    /// written, `None` when nothing needed saving or no file is
    /// configured. Failures are returned for the caller to report; the
    /// dirty flag is re-armed so the next save retries.
    pub fn save_if_dirty(&self) -> Option<std::io::Result<usize>> {
        let path = self.cache_file.as_ref()?;
        if !self.dirty.swap(false, Ordering::Relaxed) {
            return None;
        }
        let result = self.engine.save_cache(path);
        if result.is_err() {
            self.dirty.store(true, Ordering::Relaxed);
        }
        Some(result)
    }
}

/// RAII in-flight marker returned by [`ServeState::enter`].
pub struct InFlightGuard {
    gauge: Gauge,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.gauge.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_model::{Delta, GpuSpec};
    use std::sync::atomic::AtomicU64;

    fn state() -> ServeState<Delta> {
        ServeState::new(Delta::new(GpuSpec::titan_xp()), None)
            .expect("no cache file, cannot fail")
            .0
    }

    #[test]
    fn cached_serves_repeats_without_reevaluating() {
        let s = state();
        let calls = AtomicU64::new(0);
        for _ in 0..3 {
            let body = s
                .cached("k", || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    Ok("body".into())
                })
                .unwrap();
            assert_eq!(body, "body");
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let snap = s.snapshot();
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(snap.cache.hits, 2);
        assert_eq!(snap.cache.entries, 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let s = state();
        let err = s
            .cached("k", || Err(ApiError::bad_request("invalid_query", "no")))
            .unwrap_err();
        assert_eq!(err.status, 400);
        // The retry evaluates again and can succeed.
        let body = s.cached("k", || Ok("fine".into())).unwrap();
        assert_eq!(body, "fine");
        assert_eq!(s.snapshot().cache.misses, 2);
    }

    #[test]
    fn concurrent_duplicates_share_one_evaluation() {
        let s = Arc::new(state());
        let calls = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            let calls = calls.clone();
            handles.push(std::thread::spawn(move || {
                s.cached("dup", move || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    // Hold the flight open long enough for the others to
                    // pile in.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Ok("shared".into())
                })
                .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), "shared");
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1, "single-flight");
        let snap = s.snapshot();
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(snap.cache.hits + snap.cache.deduped, 7);
    }

    #[test]
    fn in_flight_guard_counts() {
        let s = state();
        {
            let _a = s.enter();
            let _b = s.enter();
            assert_eq!(s.snapshot().in_flight, 2);
        }
        assert_eq!(s.snapshot().in_flight, 0);
    }
}

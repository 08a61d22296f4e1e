//! `serve_mixed`: an open loop that models independent users. Seeded
//! Poisson traffic goes over TCP to an in-process `delta serve` on the
//! analytical `Delta` backend: cold `/eval` queries (body-cache
//! inserts), warm repeats (body-cache hits), and bursts of duplicate
//! `/step` queries (single-flight). Every request is timed from when it
//! was due, so a late generator shows as latency, not as a lighter load.
//!
//! Each server's body cache is primed with [`PRIMED`] cold queries before
//! its timed segment, so warm repeats have answered queries to draw
//! from at once and the realised class shares match [`MIX`]; each run
//! prints the shares it sent.
//!
//! A run measures a reference phase at a fixed rate (`p50_ms`) and the
//! service time the server spends on it (`run_s`). Traced
//! runs add two per-layer figures that are too host-sensitive to gate
//! on a shared 2-vCPU host: the phase's tail (`serve.p99_ms`; it moved
//! by a third between runs as neighbours delayed the sleeping threads'
//! wake-ups) and `serve.max_rps` from a rate ladder — the highest
//! offered rate whose p99 stays within [`LATENCY_LIMIT_MS`] and whose
//! backlog does not grow, refined by bisection between the last passing
//! and the first failing rung (it spread by 31%: the phase between the
//! two workers' accept-poll sleeps sets the capacity).

use crate::design_sweep::{self, Accuracy};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::{self, Recording};
use crate::stats;
use delta_bench::serve_client::request;
use delta_model::query::{EvalQuery, Parallelism, StepQuery};
use delta_model::{ConvLayer, Delta, Engine, GpuSpec};
use delta_obs::span;
use delta_serve::{ServeConfig, ServerHandle};
use serde::Value;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// p99 latency (from due time) a ladder rung may not exceed.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Offered rate of the reference phase: below every `serve.max_rps` the
/// ladder measured on the reference host (about 340–670 rps, so 22–45%
/// of capacity). The phase measures latency below saturation, where a
/// faster server shows as lower latency and not as a different
/// queueing regime.
pub const REFERENCE_RPS: f64 = 150.0;
/// First ladder rung; each next rung is √2 higher.
const LADDER_START_RPS: f64 = 200.0;
/// Highest ladder rung tried.
const LADDER_MAX_RPS: f64 = 25_600.0;
/// Share of requests per class: cold `/eval`, warm `/eval` repeat, and
/// duplicate `/step` (in bursts of [`BURST`]). An assumption, not a
/// trace: design-space users mostly ask new questions (half the
/// traffic), re-ask earlier ones often enough that the body cache
/// matters (a third), and some clients fire the same step concurrently
/// (the rest), so all three serve paths carry real load.
pub const MIX: (f64, f64, f64) = (0.5, 0.35, 0.15);
/// Identical `/step` requests per burst, all due at the same instant.
const BURST: usize = 3;
/// A warm repeat reuses a primed query or a cold query sent at least
/// this many requests earlier, so its first answer is already in the
/// body cache.
const WARM_DISTANCE: usize = 64;
/// Cold queries each server answers before its timed segment (untimed,
/// but checked like every other response).
const PRIMED: usize = 64;
/// Client threads and server workers: one per core of the reference
/// host, so the load never needs more threads than `nproc`.
const THREADS: usize = 2;
/// Entries in the warm store (the v3 cache file) the server loads at
/// start-up, as a restarted production server would. An assumption
/// sized so that loading it, the restart's real cost, is most of
/// `setup_s` (about 0.45 s on the reference host) and far above timer
/// noise.
const WARM_STORE_ENTRIES: u64 = 300;
/// Where the warm store lives while a run lasts (relative to the
/// working directory; removed at the end of the run).
const WORK_DIR: &str = ".perfbench";

/// Run size.
pub struct Size {
    /// Requests in the reference phase (≥ 1000 leaves ten samples
    /// beyond p99).
    pub reference: usize,
    /// Servers the reference phase is split over; each is one set-up
    /// (`setup_s` is their median).
    pub segments: usize,
    /// Seconds each ladder rung offers load in traced runs (0 skips the
    /// ladder).
    pub dwell_s: f64,
    /// Bisection steps between the last passing and first failing rung.
    pub bisections: usize,
}

impl Size {
    /// The benchmark size for a `seconds`-long measurement: the
    /// reference phase offers `seconds` worth of requests.
    pub fn full(seconds: f64) -> Size {
        Size {
            reference: ((seconds * REFERENCE_RPS) as usize).max(1000),
            segments: 5,
            dwell_s: 1.0,
            bisections: 3,
        }
    }

    /// A small size that still touches every layer this workload
    /// measures.
    pub fn probe() -> Size {
        Size {
            reference: 300,
            segments: 2,
            dwell_s: 0.5,
            bisections: 1,
        }
    }
}

/// Request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Warm,
    Dup,
}

/// One scheduled request.
struct Request {
    due: Duration,
    class: Class,
    /// Index into the generator's query table.
    query: usize,
}

/// A distinct query the generator has issued, with its wire form.
struct Query {
    path: &'static str,
    body: String,
    kind: QueryKind,
}

enum QueryKind {
    Eval(EvalQuery),
    Step(StepQuery),
}

/// Seeded traffic generator. Query shapes come from a mixed-radix
/// counter, so every cold query and every burst is distinct for the
/// whole run; arrival gaps and classes come from the seed.
struct Generator {
    rng: Rng,
    queries: Vec<Query>,
    /// Indices of cold queries, in issue order.
    cold: Vec<usize>,
    /// Leading entries of `cold` the server answered before the
    /// schedule started.
    primed: usize,
    counter: u64,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        let mut rng = Rng::new(seed, 2);
        let counter = rng.below(1 << 20);
        Generator {
            rng,
            queries: Vec::new(),
            cold: Vec::new(),
            primed: 0,
            counter,
        }
    }

    /// A fresh conv layer no earlier call returned.
    fn layer(&mut self, label: String) -> ConvLayer {
        let k = self.counter;
        self.counter += 1;
        let filter = if self.rng.below(2) == 0 { 1 } else { 3 };
        ConvLayer::builder(label)
            .batch(1 + (k % 8) as u32)
            .input(
                16 * (1 + ((k / 8) % 8) as u32),
                7 + ((k / 64) % 22) as u32,
                7 + ((k / 64) % 22) as u32,
            )
            .output_channels(16 + (k / 1408) as u32 % 4096)
            .filter(filter, filter)
            .pad(filter / 2)
            .build()
            .expect("generated layers are valid")
    }

    fn push(&mut self, path: &'static str, kind: QueryKind) -> usize {
        let body = match &kind {
            QueryKind::Eval(q) => serde_json::to_string(q),
            QueryKind::Step(q) => serde_json::to_string(q),
        }
        .expect("queries serialize");
        self.queries.push(Query { path, body, kind });
        self.queries.len() - 1
    }

    /// Starts over for a fresh server: `n` new cold queries for it to
    /// answer before the schedule, the pool warm repeats first draw on.
    fn prime(&mut self, n: usize) -> Vec<usize> {
        self.cold.clear();
        let primed = (0..n).map(|_| self.cold_query()).collect();
        self.primed = n;
        primed
    }

    fn cold_query(&mut self) -> usize {
        let layer = self.layer("e".into());
        let q = self.push(
            "/eval",
            QueryKind::Eval(EvalQuery::forward(&layer, Parallelism::Single)),
        );
        self.cold.push(q);
        q
    }

    /// `n` requests arriving as a Poisson process at `rate` per second.
    fn phase(&mut self, rate: f64, n: usize) -> Vec<Request> {
        // An arrival is a burst with probability p, so that bursts carry
        // MIX.2 of all requests: BURST·p / (1 − p + BURST·p) = MIX.2.
        let burst_share = MIX.2 / (BURST as f64 - MIX.2 * (BURST as f64 - 1.0));
        let mut out = Vec::with_capacity(n + BURST);
        let mut t = 0.0;
        while out.len() < n {
            t += -(1.0 - self.rng.unit()).ln() / rate;
            let due = Duration::from_secs_f64(t);
            let answered = self
                .primed
                .max(self.cold.len().saturating_sub(WARM_DISTANCE));
            if self.rng.unit() < burst_share {
                let layers: Vec<ConvLayer> = (0..2).map(|i| self.layer(format!("s{i}"))).collect();
                let q = self.push(
                    "/step",
                    QueryKind::Step(StepQuery::new(&layers, Parallelism::Single)),
                );
                for _ in 0..BURST {
                    out.push(Request {
                        due,
                        class: Class::Dup,
                        query: q,
                    });
                }
            } else if self.rng.unit() < MIX.1 / (MIX.0 + MIX.1) && answered > 0 {
                let q = self.cold[self.rng.below(answered as u64) as usize];
                out.push(Request {
                    due,
                    class: Class::Warm,
                    query: q,
                });
            } else {
                let q = self.cold_query();
                out.push(Request {
                    due,
                    class: Class::Cold,
                    query: q,
                });
            }
        }
        out
    }
}

/// One request's outcome.
#[derive(Clone)]
struct Sample {
    class: Class,
    query: usize,
    /// From due time to the last response byte.
    latency_ms: f64,
    /// From due time to the first byte written.
    lateness_ms: f64,
    /// From the first byte written to the last response byte.
    service_ms: f64,
    status: u16,
    /// Digest and length of the response body.
    body: (u64, usize),
}

/// What the checks compare a response body by: its FNV-1a digest and
/// length (keeping thousands of bodies would make the run's peak memory
/// depend on how far the ladder climbs).
fn body_key(body: &str) -> (u64, usize) {
    let mut d = stats::Digest::default();
    d.bytes(body.as_bytes());
    (d.value(), body.len())
}

/// Plays `schedule` against `addr` from [`THREADS`] client threads,
/// each sending the next request when it falls due.
fn play(addr: SocketAddr, queries: &[Query], schedule: &[Request]) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = schedule.get(i) else {
                            return mine;
                        };
                        let due = t0 + req.due;
                        while let Some(wait) = due.checked_duration_since(Instant::now()) {
                            if wait > Duration::from_micros(300) {
                                std::thread::sleep(wait - Duration::from_micros(200));
                            } else {
                                std::thread::yield_now();
                            }
                        }
                        let q = &queries[req.query];
                        let sent = Instant::now();
                        let result = {
                            let _op = spans::operation("request");
                            let _s = span!("bench.request");
                            request(addr, "POST", q.path, &q.body)
                        };
                        let done = Instant::now();
                        let (status, body) = result.unwrap_or_else(|e| (0, e.to_string()));
                        let body = body_key(&body);
                        mine.push((
                            i,
                            Sample {
                                class: req.class,
                                query: req.query,
                                latency_ms: (done - due).as_secs_f64() * 1e3,
                                lateness_ms: (sent.saturating_duration_since(due)).as_secs_f64()
                                    * 1e3,
                                service_ms: (done - sent).as_secs_f64() * 1e3,
                                status,
                                body,
                            },
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Whether a phase kept up: p99 within the limit and lateness not
/// trending up (the last fifth's median lateness within 1 ms of the
/// first fifth's).
fn keeps_up(samples: &[Sample]) -> (bool, f64) {
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let p99 = stats::percentile(&lat, 0.99);
    let fifth = (samples.len() / 5).max(1);
    let lateness =
        |s: &[Sample]| stats::median(&s.iter().map(|x| x.lateness_ms).collect::<Vec<_>>());
    let first = lateness(&samples[..fifth]);
    let last = lateness(&samples[samples.len() - fifth..]);
    (p99 <= LATENCY_LIMIT_MS && last <= first + 1.0, p99)
}

/// Writes the warm store: earlier traffic from a shape family the mix
/// never draws (batches 9–16), so it warms nothing the run measures.
fn write_warm_store(path: &Path, gpu: &GpuSpec) -> std::io::Result<Vec<u8>> {
    let layers: Vec<ConvLayer> = (0..WARM_STORE_ENTRIES)
        .map(|k| {
            ConvLayer::builder("w")
                .batch(9 + (k % 8) as u32)
                .input(
                    16 * (1 + ((k / 8) % 8) as u32),
                    7 + ((k / 64) % 22) as u32,
                    7 + ((k / 64) % 22) as u32,
                )
                .output_channels(16 + (k / 1408) as u32)
                .filter(3, 3)
                .pad(1)
                .build()
                .expect("warm-store layers are valid")
        })
        .collect();
    let engine = Engine::new(Delta::new(gpu.clone()));
    engine
        .evaluate_network(&layers, &Parallelism::Single)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    engine.save_cache(path)?;
    std::fs::read(path)
}

/// A server on the analytical backend with its warm store, as `delta
/// serve --cache-file` runs it.
fn start_server(gpu: &GpuSpec, store: &Path) -> std::io::Result<ServerHandle> {
    let _s = span!("serve.spawn");
    delta_serve::spawn(
        Delta::new(gpu.clone()),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: THREADS,
            cache_file: Some(store.to_path_buf()),
            save_every: Duration::from_secs(3600),
        },
    )
}

/// `GET /stats` as a JSON tree.
fn server_stats(addr: SocketAddr) -> Option<Value> {
    let (status, body) = request(addr, "GET", "/stats", "").ok()?;
    (status == 200)
        .then(|| serde_json::from_str(&body).ok())
        .flatten()
}

fn stat(v: &Value, section: &str, key: &str) -> f64 {
    match v.get(section).and_then(|s| s.get(key)) {
        Some(Value::U64(n)) => *n as f64,
        Some(Value::I64(n)) => *n as f64,
        Some(Value::F64(n)) => *n,
        _ => f64::NAN,
    }
}

/// `/stats` counters summed over the run's timed segments.
#[derive(Default)]
struct Counters {
    eval: f64,
    step: f64,
    body_hits: f64,
    deduped: f64,
    engine_hits: f64,
    engine_misses: f64,
}

impl Counters {
    /// Adds the counts between two `/stats` snapshots of one server.
    fn add(&mut self, before: &Value, after: &Value) {
        let d = |section, key| stat(after, section, key) - stat(before, section, key);
        self.eval += d("requests", "eval");
        self.step += d("requests", "step");
        self.body_hits += d("cache", "hits");
        self.deduped += d("cache", "deduped");
        self.engine_hits += d("engine", "hits");
        self.engine_misses += d("engine", "misses");
    }
}

/// Sends a fresh server its primed queries, one at a time (untimed; the
/// responses are checked with the rest), and returns its `/stats` after
/// them.
fn prime_server(
    addr: SocketAddr,
    gen: &mut Generator,
    all: &mut Vec<Sample>,
) -> Result<Value, String> {
    for q in gen.prime(PRIMED) {
        let query = &gen.queries[q];
        let (status, body) =
            request(addr, "POST", query.path, &query.body).unwrap_or_else(|e| (0, e.to_string()));
        all.push(Sample {
            class: Class::Cold,
            query: q,
            latency_ms: 0.0,
            lateness_ms: 0.0,
            service_ms: 0.0,
            status,
            body: body_key(&body),
        });
    }
    server_stats(addr).ok_or_else(|| "GET /stats failed".into())
}

/// Restores the warm store, then starts a server on it and sends one
/// warm-up request: the set-up a restarted server pays. Returns the
/// server and the set-up's host seconds.
fn set_up(
    gpu: &GpuSpec,
    store: &Path,
    pristine: &[u8],
    gen: &mut Generator,
) -> Result<(ServerHandle, f64), String> {
    std::fs::write(store, pristine).map_err(|e| format!("warm store: {e}"))?;
    let warm_up = gen.cold_query();
    let t = Instant::now();
    let server = start_server(gpu, store).map_err(|e| format!("server: {e}"))?;
    let q = &gen.queries[warm_up];
    match request(server.addr(), "POST", q.path, &q.body) {
        Ok((200, _)) => Ok((server, t.elapsed().as_secs_f64())),
        other => Err(format!("warm-up request failed: {other:?}")),
    }
}

/// Runs the workload.
pub fn run(seed: u64, size: &Size, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let gpu = GpuSpec::titan_xp();
    let mut gen = Generator::new(seed);
    println!(
        "serve_mixed: delta serve ({THREADS} workers, model backend on {}), {THREADS} client threads, \
         mix cold/warm/dup {:.0}/{:.0}/{:.0}%, reference {REFERENCE_RPS} rps x {} over {} servers",
        gpu.name(),
        MIX.0 * 100.0,
        MIX.1 * 100.0,
        MIX.2 * 100.0,
        size.reference,
        size.segments
    );
    let store = Path::new(WORK_DIR).join("serve_warm_store.json");
    let pristine =
        match std::fs::create_dir_all(WORK_DIR).and_then(|()| write_warm_store(&store, &gpu)) {
            Ok(bytes) => bytes,
            Err(e) => {
                out.problem(format!("warm store: {e}"));
                return out;
            }
        };

    // The reference phase, split over several servers: each segment
    // sets a server up (timed: `setup_s`), primes it (untimed), plays
    // its share of the schedule, and is shut down. Where the two
    // workers' accept-poll sleeps fall relative to each other is fixed
    // per server and moves latency, so pooling several servers averages
    // it out. In traced runs every other segment is traced.
    let mut setup_s = Vec::new();
    let mut all: Vec<Sample> = Vec::new();
    let mut ref_samples = Vec::new();
    let mut traced_samples = Vec::new();
    let mut counters = Counters::default();
    let mut recording = Recording::new();
    for seg in 0..size.segments {
        let (server, secs) = match set_up(&gpu, &store, &pristine, &mut gen) {
            Ok(s) => s,
            Err(e) => {
                out.problem(e);
                return out;
            }
        };
        setup_s.push(secs);
        // Warm repeats only reuse queries this server has answered.
        let before = match prime_server(server.addr(), &mut gen, &mut all) {
            Ok(doc) => doc,
            Err(e) => {
                out.problem(e);
                return out;
            }
        };
        let schedule = gen.phase(REFERENCE_RPS, size.reference / size.segments);
        let trace_this = traced && seg % 2 == 1;
        if trace_this {
            recording.resume();
        }
        let samples = play(server.addr(), &gen.queries, &schedule);
        if trace_this {
            recording.pause();
            traced_samples.extend(samples.iter().cloned());
        } else {
            ref_samples.extend(samples.iter().cloned());
        }
        all.extend(samples);
        match server_stats(server.addr()) {
            Some(doc) => counters.add(&before, &doc),
            None => out.problem("GET /stats failed"),
        }
        server.shutdown();
    }

    // Traced runs also climb the rate ladder, on one more server, then
    // bisect between the last passing and the first failing rung.
    let mut max_rps = f64::NAN;
    if traced && size.dwell_s > 0.0 {
        match set_up(&gpu, &store, &pristine, &mut gen) {
            Ok((server, _)) => {
                if let Err(e) = prime_server(server.addr(), &mut gen, &mut all) {
                    out.problem(e);
                }
                let mut rungs = Vec::new();
                let mut try_rate = |rate: f64, all: &mut Vec<Sample>, gen: &mut Generator| {
                    let n = ((rate * size.dwell_s) as usize).max(100);
                    let schedule = gen.phase(rate, n);
                    let samples = play(server.addr(), &gen.queries, &schedule);
                    let (ok, p99) = keeps_up(&samples);
                    rungs.push(format!(
                        "{rate:.0}:{}{p99:.1}",
                        if ok { "ok/" } else { "FAIL/" }
                    ));
                    all.extend(samples);
                    ok
                };
                let (mut lo, mut hi) = (0.0, f64::NAN);
                let mut rate = LADDER_START_RPS;
                while rate <= LADDER_MAX_RPS {
                    if try_rate(rate, &mut all, &mut gen) {
                        lo = rate;
                        rate *= std::f64::consts::SQRT_2;
                    } else {
                        hi = rate;
                        break;
                    }
                }
                if hi.is_finite() && lo > 0.0 {
                    for _ in 0..size.bisections {
                        let mid = (lo * hi).sqrt();
                        if try_rate(mid, &mut all, &mut gen) {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                }
                max_rps = lo;
                println!("  ladder (rate:verdict/p99 ms): {}", rungs.join(" "));
                server.shutdown();
            }
            Err(e) => out.problem(e),
        }
    }
    let _ = std::fs::remove_dir_all(WORK_DIR);

    // Output checks: every body byte-identical to the direct engine
    // serialization of its query (warm bodies therefore equal cold ones).
    let reference_engine = Engine::new(Delta::new(gpu.clone()));
    let mut expected: HashMap<usize, (u64, usize)> = HashMap::new();
    let mut direct_ms: HashMap<usize, f64> = HashMap::new();
    for s in &all {
        if expected.contains_key(&s.query) {
            continue;
        }
        let t = Instant::now();
        let body = match &gen.queries[s.query].kind {
            QueryKind::Eval(q) => reference_engine
                .evaluate(q)
                .map(|e| serde_json::to_string(&e)),
            QueryKind::Step(q) => reference_engine
                .evaluate_step(q)
                .map(|e| serde_json::to_string(&e)),
        };
        direct_ms.insert(s.query, t.elapsed().as_secs_f64() * 1e3);
        match body {
            Ok(Ok(b)) => {
                expected.insert(s.query, body_key(&b));
            }
            _ => out.problem(format!("reference evaluation of query {} failed", s.query)),
        }
    }
    for s in &all {
        out.attempted += 1;
        if s.status != 200 || expected.get(&s.query) != Some(&s.body) {
            out.failed += 1;
        }
    }

    // Accuracy (deterministic): the served model against the simulator.
    let acc = accuracy(&gpu).unwrap_or_else(|e| {
        out.problem(e);
        Accuracy::default()
    });

    let lat = |samples: &[Sample], class: Option<Class>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.latency_ms)
            .collect()
    };
    let ref_lat = lat(&ref_samples, None);
    let share = |class| {
        ref_samples.iter().filter(|s| s.class == class).count() as f64
            / ref_samples.len().max(1) as f64
            * 100.0
    };
    let shares = format!(
        "{:.1}/{:.1}/{:.1}%",
        share(Class::Cold),
        share(Class::Warm),
        share(Class::Dup)
    );
    println!(
        "  realised mix cold/warm/dup {shares} of {} requests",
        ref_samples.len()
    );
    out.e2e(
        "setup_s",
        stats::median(&setup_s),
        format!("median of {} set-ups", setup_s.len()),
    );
    let service_s: f64 = ref_samples.iter().map(|s| s.service_ms).sum::<f64>() / 1e3;
    out.e2e(
        "run_s",
        service_s,
        format!(
            "summed service time (send to last byte) of {} requests",
            ref_samples.len()
        ),
    );
    out.e2e(
        "p50_ms",
        stats::percentile(&ref_lat, 0.5),
        format!(
            "{} requests at {REFERENCE_RPS} rps, mix {shares}",
            ref_lat.len()
        ),
    );
    out.e2e(
        "model_err_dram",
        acc.dram,
        "GMAE over 8 layers of the mix family, model vs simulator",
    );
    out.e2e(
        "model_err_speedup",
        acc.speedup,
        "GMAE over the Fig. 16a options on 8 layers of the mix family",
    );

    if traced {
        for (name, class) in [
            ("serve.cold_ms", Class::Cold),
            ("serve.warm_ms", Class::Warm),
            ("serve.dup_ms", Class::Dup),
        ] {
            let v = lat(&ref_samples, Some(class));
            out.layer(
                name,
                stats::median(&v),
                format!("client p50 of {} requests", v.len()),
            );
        }
        let cold_direct: Vec<f64> = ref_samples
            .iter()
            .filter(|s| s.class == Class::Cold)
            .filter_map(|s| direct_ms.get(&s.query).copied())
            .collect();
        out.layer(
            "serve.overhead_ms",
            stats::median(&lat(&ref_samples, Some(Class::Cold))) - stats::median(&cold_direct),
            "cold p50: client latency - direct Engine::evaluate",
        );
        let c = &counters;
        out.layer(
            "serve.p99_ms",
            stats::percentile(&ref_lat, 0.99),
            format!("{} requests at {REFERENCE_RPS} rps", ref_lat.len()),
        );
        out.layer(
            "serve.max_rps",
            max_rps,
            format!("ladder: p99 <= {LATENCY_LIMIT_MS} ms and no backlog growth"),
        );
        out.layer(
            "serve.body_hit_rate",
            c.body_hits / (c.eval + c.step),
            "/stats cache hits / eval+step requests",
        );
        out.layer(
            "serve.dedup_ratio",
            c.deduped / c.step,
            "/stats deduped / step requests",
        );
        let (h, m) = (c.engine_hits, c.engine_misses);
        out.layer(
            "engine.hit_rate",
            h / (h + m),
            format!("/stats engine {h} hits, {m} misses"),
        );
        let lateness: Vec<f64> = ref_samples.iter().map(|s| s.lateness_ms).collect();
        out.layer(
            "serve.gen_lateness_ms",
            stats::percentile(&lateness, 0.99),
            "p99 send lateness at the reference rate",
        );
        let mut warm_us = Vec::new();
        for s in ref_samples.iter().filter(|s| s.class == Class::Cold) {
            if let QueryKind::Eval(q) = &gen.queries[s.query].kind {
                let t = Instant::now();
                let _ = reference_engine.evaluate(q);
                warm_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        out.layer(
            "engine.warm_eval_us",
            stats::median(&warm_us),
            format!("p50 of {} cached Engine::evaluate", warm_us.len()),
        );
        out.layer(
            "model.analyze_us",
            stats::median(&acc.analyze_us),
            format!("Delta::analyze over {} layers", acc.analyze_us.len()),
        );
        recording.report_self_times(&mut out, traced_samples.len(), "request");
        let traced_lat = lat(&traced_samples, None);
        out.layer(
            "obs.overhead_pct",
            (stats::median(&traced_lat) / stats::median(&ref_lat) - 1.0) * 100.0,
            "traced vs untraced reference-phase p50",
        );
    }
    out
}

/// Model-vs-simulator accuracy over a fixed sample of the serve mix's
/// layer family: the same eight layers for every seed, so the metric
/// compares across seeds.
fn accuracy(gpu: &GpuSpec) -> Result<Accuracy, String> {
    let mut family = Generator::new(0);
    let layers: Vec<ConvLayer> = (0..8).map(|i| family.layer(format!("a{i}"))).collect();
    let sim = design_sweep::simulate_points(gpu, &layers)?;
    design_sweep::accuracy(gpu, &layers, &sim)
}

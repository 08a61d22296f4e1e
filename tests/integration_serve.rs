//! Integration suite for `delta serve`: real sockets, real HTTP.
//!
//! Pins the wire contract end to end:
//!
//! * responses are **byte-identical** to a direct `Engine` evaluation of
//!   the same query;
//! * N concurrent duplicate `StepQuery`s cost **one** evaluation
//!   (single-flight dedup), observable via `GET /stats`;
//! * a warm restart from the persistent cache file answers with **zero
//!   layer replays** (the simulator's shared replay counter proves it);
//! * malformed input — invalid JSON, unknown fields, NaN bandwidths,
//!   mixed-fleet `Multi` queries — gets a structured 400 over the
//!   socket, never a dropped connection or a panic;
//! * `GET /metrics` serves the Prometheus exposition format with the
//!   engine cache counters, the backend replay counter, and per-endpoint
//!   request counts and latency histograms.

use delta_model::engine::Engine;
use delta_model::query::{EvalQuery, Parallelism, Pass, StepQuery};
use delta_model::{ConvLayer, Delta, GpuSpec, InterconnectKind, TopologyKind};
use delta_serve::{spawn, ServeConfig};
use delta_sim::{SimConfig, Simulator};
use serde::{Serialize, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

/// Sends one request and returns `(status, response headers, body)`.
fn request_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line has a code")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), body.to_string())
}

/// Sends one request and returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _head, body) = request_full(addr, method, path, body);
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(addr, "POST", path, body)
}

/// An in-process server over the analytical model (instant answers).
fn model_server() -> delta_serve::ServerHandle {
    spawn(
        Delta::new(GpuSpec::titan_xp()),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind 127.0.0.1:0")
}

fn small_layer(label: &str) -> ConvLayer {
    ConvLayer::builder(label)
        .batch(2)
        .input(16, 8, 8)
        .output_channels(16)
        .filter(3, 3)
        .pad(1)
        .build()
        .expect("valid layer")
}

/// A cheap-but-real multi-GPU step query (the simulator replays each
/// unique shape once under it).
fn step_query() -> StepQuery {
    StepQuery {
        layers: vec![small_layer("conv1"), small_layer("conv2")],
        parallelism: Parallelism::Multi {
            devices: vec![GpuSpec::titan_xp(); 2],
            interconnect: InterconnectKind::NvLink,
            topology: Some(TopologyKind::Ring),
        },
        bucket_mb: 4,
        overlap: true,
    }
}

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializable")
}

/// A scratch cache-file path unique to this test process.
fn scratch_cache(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "delta_serve_test_{}_{name}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn eval_round_trip_is_byte_identical_to_direct_engine() {
    let server = model_server();
    let query = EvalQuery::new(&small_layer("q"), Pass::Wgrad, Parallelism::Single);
    let (status, body) = post(server.addr(), "/eval", &json(&query));
    assert_eq!(status, 200, "{body}");

    let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
    let direct = json(&engine.evaluate(&query).expect("direct evaluation"));
    assert_eq!(body, direct, "socket bytes == direct Engine bytes");
    server.shutdown();
}

#[test]
fn step_round_trip_is_byte_identical_to_direct_engine() {
    let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
    let server = spawn(
        sim,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let query = step_query();
    let (status, body) = post(server.addr(), "/step", &json(&query));
    assert_eq!(status, 200, "{body}");

    let engine = Engine::new(Simulator::new(GpuSpec::titan_xp(), SimConfig::default()));
    let direct = json(&engine.evaluate_step(&query).expect("direct evaluation"));
    assert_eq!(body, direct, "socket bytes == direct Engine bytes");
    server.shutdown();
}

#[test]
fn concurrent_duplicate_steps_dedup_to_one_miss() {
    const N: usize = 6;
    let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
    let counter = sim.clone();
    let server = spawn(
        sim,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: N,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let body = json(&step_query());

    let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || post(addr, "/step", &body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (status, body) in &responses {
        assert_eq!(*status, 200, "{body}");
        assert_eq!(body, &responses[0].1, "all duplicates byte-identical");
    }
    let direct_sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
    let direct_counter = direct_sim.clone();
    let direct_engine = Engine::new(direct_sim);
    let direct = json(&direct_engine.evaluate_step(&step_query()).unwrap());
    assert_eq!(responses[0].1, direct, "and identical to a direct Engine");

    // Single-flight is observable via /stats: N step requests, one body
    // cache miss (the leader), everyone else joined its flight or hit
    // the settled cache.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200, "{stats}");
    let stats: Value = serde_json::from_str(&stats).expect("stats is JSON");
    let count = |path: &[&str]| -> u64 {
        let mut v = &stats;
        for key in path {
            v = v.get(key).unwrap_or_else(|| panic!("stats has {path:?}"));
        }
        match v {
            Value::U64(n) => *n,
            other => panic!("{path:?} is not a count: {other:?}"),
        }
    };
    assert_eq!(count(&["requests", "step"]), N as u64);
    assert_eq!(
        count(&["cache", "misses"]),
        1,
        "one evaluation for {N} requests"
    );
    assert_eq!(
        count(&["cache", "hits"]) + count(&["cache", "deduped"]),
        (N - 1) as u64
    );
    // The engine beneath evaluated the step exactly once, and each
    // unique (shape, pass) replayed once — 2 layers × 3 passes here.
    assert_eq!(count(&["engine", "step_misses"]), 1);
    assert_eq!(count(&["engine", "step_hits"]), 0);
    assert_eq!(
        counter.replay_count(),
        direct_counter.replay_count(),
        "the served step cost exactly one engine evaluation's replays"
    );
    // The same replay count is visible on the wire (the counter /stats
    // used to omit).
    assert_eq!(count(&["engine", "replays"]), counter.replay_count());
    server.shutdown();
}

#[test]
fn warm_restart_from_cache_file_replays_nothing() {
    let cache = scratch_cache("warm_restart");
    let query = step_query();
    let config = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_file: Some(cache.clone()),
        ..ServeConfig::default()
    };

    // Cold server: evaluate once, persist on shutdown.
    let cold_sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
    let cold_counter = cold_sim.clone();
    let server = spawn(cold_sim, config()).expect("bind cold");
    let (status, cold_body) = post(server.addr(), "/step", &json(&query));
    assert_eq!(status, 200, "{cold_body}");
    assert!(cold_counter.replay_count() > 0, "cold run simulates");
    server.shutdown();
    assert!(cache.exists(), "shutdown saved the cache file");

    // Warm server: a fresh simulator (fresh replay counter) over the
    // saved cache answers the same query without simulating anything.
    let warm_sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
    let warm_counter = warm_sim.clone();
    let server = spawn(warm_sim, config()).expect("bind warm");
    let (status, warm_body) = post(server.addr(), "/step", &json(&query));
    assert_eq!(status, 200, "{warm_body}");
    assert_eq!(warm_body, cold_body, "warm restart is byte-identical");
    assert_eq!(warm_counter.replay_count(), 0, "zero layer replays");
    server.shutdown();
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn sweep_streams_ndjson_with_per_item_results_and_errors() {
    let server = model_server();
    let eval = EvalQuery::new(&small_layer("s"), Pass::Fwd, Parallelism::Single);
    let step = StepQuery::new(&[small_layer("s")], Parallelism::Single);
    let body = format!(
        "[{}, {}, {}, {{\"nonsense\": true}}]",
        json(&eval),
        json(&eval),
        json(&step)
    );
    let (status, response) = post(server.addr(), "/sweep", &body);
    assert_eq!(status, 200, "{response}");
    let mut lines: Vec<Value> = response
        .lines()
        .map(|l| serde_json::from_str(l).expect("each line is JSON"))
        .collect();
    assert_eq!(lines.len(), 4, "one line per element: {response}");
    lines.sort_by_key(|l| match l.get("index") {
        Some(Value::U64(i)) => *i,
        other => panic!("line without index: {other:?}"),
    });
    // Elements 0 and 1 are duplicates: identical result bytes, matching
    // the dedicated endpoint's bytes.
    let (_, direct) = post(server.addr(), "/eval", &json(&eval));
    let result_json = |line: &Value| json(line.get("result").expect("result line"));
    assert_eq!(result_json(&lines[0]), result_json(&lines[1]));
    assert_eq!(result_json(&lines[0]), direct);
    assert!(lines[2].get("result").is_some(), "step element evaluated");
    // Element 3 is garbage: a structured per-line error, not a dropped
    // stream.
    let err = lines[3].get("error").expect("error line");
    assert_eq!(err.get("status"), Some(&Value::U64(400)));
    server.shutdown();
}

#[test]
fn malformed_input_gets_structured_400s_over_the_socket() {
    // Simulator backend so fleet validation is reachable too.
    let server = spawn(
        Simulator::new(GpuSpec::titan_xp(), SimConfig::default()),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let expect_400 = |path: &str, body: &str, code: &str| {
        let (status, response) = post(addr, path, body);
        assert_eq!(status, 400, "{path} {body} -> {response}");
        let v: Value = serde_json::from_str(&response).expect("error body is JSON");
        let err = v.get("error").expect("error envelope");
        assert_eq!(
            err.get("code"),
            Some(&Value::Str(code.into())),
            "{path} {body} -> {response}"
        );
        assert_eq!(err.get("status"), Some(&Value::U64(400)));
        assert!(
            matches!(err.get("message"), Some(Value::Str(m)) if !m.is_empty()),
            "{response}"
        );
    };

    // Invalid JSON (and its NaN variant: JSON cannot carry NaN tokens).
    expect_400("/eval", "{\"shape\":", "invalid_json");
    expect_400("/eval", "", "invalid_json");

    // Unknown fields at any nesting level.
    let good = json(&EvalQuery::new(
        &small_layer("m"),
        Pass::Fwd,
        Parallelism::Single,
    ));
    let unknown_top = good.replacen("{", "{\"typo\":1,", 1);
    expect_400("/eval", &unknown_top, "unknown_field");

    // Missing fields are typed-deserialization errors.
    expect_400("/step", "{\"layers\": []}", "invalid_query");

    // A NaN bandwidth in a GpuSpec: NaN is not JSON, so the body is
    // rejected at the parser with a structured 400 — it cannot smuggle a
    // non-finite spec into the engine.
    let multi = json(&EvalQuery::new(
        &small_layer("m"),
        Pass::Fwd,
        Parallelism::multi(&GpuSpec::titan_xp(), 2, InterconnectKind::Ideal),
    ));
    let nan_spec = multi.replacen("\"dram_bw_gbps\":450.0", "\"dram_bw_gbps\":NaN", 1);
    assert_ne!(nan_spec, multi, "substitution hit the serialized field");
    expect_400("/eval", &nan_spec, "invalid_json");

    // A mixed fleet reaches the simulator and is rejected as a domain
    // error, mapped to a structured 400.
    let mixed = json(&EvalQuery::new(
        &small_layer("m"),
        Pass::Fwd,
        Parallelism::Multi {
            devices: vec![GpuSpec::titan_xp(), GpuSpec::v100()],
            interconnect: InterconnectKind::NvLink,
            topology: None,
        },
    ));
    expect_400("/eval", &mixed, "invalid_gpu");

    server.shutdown();
}

#[test]
fn routing_errors_are_structured_too() {
    let server = model_server();
    let addr = server.addr();
    let (status, body) = request(addr, "GET", "/eval", "");
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("method_not_allowed"), "{body}");
    let (status, body) = request(addr, "POST", "/stats", "");
    assert_eq!(status, 405, "{body}");
    let (status, body) = request(addr, "GET", "/no-such-endpoint", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("not_found"), "{body}");
    server.shutdown();
}

#[test]
fn stats_reports_uptime_and_in_flight() {
    let server = model_server();
    let (status, body) = request(server.addr(), "GET", "/stats", "");
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).expect("stats is JSON");
    assert!(
        matches!(v.get("uptime_seconds"), Some(Value::F64(s)) if *s >= 0.0),
        "{body}"
    );
    // The /stats request itself is in flight while the snapshot is
    // taken.
    assert!(
        matches!(v.get("in_flight"), Some(Value::U64(n)) if *n >= 1),
        "{body}"
    );
    server.shutdown();
}

#[test]
fn metrics_exposes_prometheus_text_with_cache_counters_and_latency() {
    let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
    let counter = sim.clone();
    let server = spawn(
        sim,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    // Drive one step evaluation so the counters move.
    let (status, body) = post(addr, "/step", &json(&step_query()));
    assert_eq!(status, 200, "{body}");

    let (status, head, text) = request_full(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{text}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "Prometheus exposition content type: {head}"
    );

    // The engine's cache counters, absorbed into the registry behind
    // the unchanged `CacheStats` accessors.
    for metric in [
        "delta_engine_cache_hits_total",
        "delta_engine_cache_misses_total",
        "delta_engine_step_cache_hits_total",
        "delta_engine_step_cache_misses_total",
    ] {
        assert!(text.contains(&format!("# TYPE {metric} counter")), "{text}");
        assert!(text.contains(&format!("\n{metric} ")), "{text}");
    }
    // The backend's replay counter rides along, appended at scrape
    // time, and agrees with the simulator's own count.
    assert!(
        text.contains(&format!(
            "\ndelta_engine_replays_total {}\n",
            counter.replay_count()
        )),
        "replay counter must match the simulator's: {text}"
    );
    assert!(counter.replay_count() > 0, "the step simulated something");

    // Request counters are labeled per endpoint (the one /step request
    // is counted before handling, so the count is exact).
    assert!(
        text.contains("delta_serve_requests_total{endpoint=\"step\"} 1"),
        "{text}"
    );
    // The latency histogram exposes cumulative log-spaced buckets:
    // every count nondecreasing toward +Inf.
    let step_bucket = "delta_serve_request_seconds_bucket{endpoint=\"step\",le=\"";
    let counts: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with(step_bucket))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(!counts.is_empty(), "step latency buckets present: {text}");
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "cumulative bucket counts are monotone: {counts:?}"
    );
    assert!(
        text.contains("delta_serve_request_seconds_count{endpoint=\"step\"}"),
        "{text}"
    );
    // Accept-to-pickup time: every connection so far was picked up once
    // (the /metrics request itself included).
    assert!(
        text.contains("# TYPE delta_serve_queue_seconds histogram"),
        "{text}"
    );
    assert!(
        text.contains("\ndelta_serve_queue_seconds_count 2\n"),
        "{text}"
    );

    // Wrong method gets the structured 405, like every other endpoint.
    let (status, body) = post(addr, "/metrics", "");
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("method_not_allowed"), "{body}");
    server.shutdown();
}

#[test]
fn healthz_reports_the_backend_fingerprint() {
    // The identity triple must match what the engine's cache guard and
    // the fleet handshake would compute for the same backend.
    let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
    let want = delta_model::BackendFingerprint::of(&sim);
    let server = spawn(
        sim,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind 127.0.0.1:0");

    let (status, body) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).expect("healthz is JSON");
    let field = |k: &str| match v.get(k) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("healthz field {k} missing or not a string: {other:?} in {body}"),
    };
    assert_eq!(field("version"), env!("CARGO_PKG_VERSION"));
    assert_eq!(field("backend"), want.backend);
    assert_eq!(field("gpu"), want.gpu);
    assert_eq!(field("config_fingerprint"), want.config);
    // Build info: the on-disk cache format this server reads/writes.
    assert_eq!(
        v.get("cache_format_version"),
        Some(&Value::U64(u64::from(
            delta_model::engine::CACHE_FORMAT_VERSION
        ))),
        "{body}"
    );

    // Wrong method gets the structured 405, like every other endpoint.
    let (status, body) = request(server.addr(), "POST", "/healthz", "");
    assert_eq!(status, 405, "{body}");
    server.shutdown();
}

/// Reads until the server closes, keeping whatever arrived before a
/// reset (a server that stops reading early may reset the connection
/// after its response).
fn read_until_closed(stream: &mut TcpStream) -> String {
    let mut bytes = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The peak resident set of this test process, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// A model server with `threads` handlers.
fn model_server_with(threads: usize) -> delta_serve::ServerHandle {
    spawn(
        Delta::new(GpuSpec::titan_xp()),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads,
            ..ServeConfig::default()
        },
    )
    .expect("bind 127.0.0.1:0")
}

/// `n` peers that connect and then send nothing.
fn silent_peers(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|_| TcpStream::connect(addr).expect("connect silent peer"))
        .collect()
}

#[test]
fn an_oversized_request_line_gets_a_400_and_memory_stays_bounded() {
    const LINE_BYTES: usize = 80 << 20;
    let server = model_server();
    let before = peak_rss_kib();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    // The line is streamed from one small chunk, so the client itself
    // never holds it; a write error means the server stopped reading.
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'a'; 64 << 10];
        let mut sent = 0;
        let _ = writer.write_all(b"GET /");
        while sent < LINE_BYTES && writer.write_all(&chunk).is_ok() {
            sent += chunk.len();
        }
        let _ = writer.shutdown(std::net::Shutdown::Write);
    });
    let response = read_until_closed(&mut stream);
    sender.join().expect("sender thread");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("malformed_request"), "{response}");
    let grown_kib = peak_rss_kib().saturating_sub(before);
    assert!(
        grown_kib < 8 << 10,
        "an {LINE_BYTES}-byte request line grew the peak RSS by {grown_kib} KiB"
    );
    server.shutdown();
}

#[test]
fn silent_peers_cannot_starve_healthz() {
    const THREADS: usize = 2;
    let server = model_server_with(THREADS);
    let mut peers = silent_peers(server.addr(), THREADS + 1);
    let started = std::time::Instant::now();
    let (status, body) = request(server.addr(), "GET", "/healthz", "");
    let elapsed = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "/healthz behind {} silent peers took {elapsed:?}",
        THREADS + 1
    );
    // The silent peers themselves were told why they were dropped.
    let response = read_until_closed(&mut peers[0]);
    assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
    assert!(response.contains("request_timeout"), "{response}");
    server.shutdown();
}

#[test]
fn a_connection_span_covers_accept_to_close_and_carries_the_queue_wait() {
    // Span recording is process-wide; no other test in this binary
    // asserts on spans, and recording never changes a response.
    delta_obs::trace::set_enabled(true);
    let server = model_server();
    let query = EvalQuery::new(&small_layer("traced"), Pass::Fwd, Parallelism::Single);
    let (status, body) = post(server.addr(), "/eval", &json(&query));
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    let events = delta_obs::trace::drain();
    let conns: Vec<_> = events.iter().filter(|e| e.name == "serve.conn").collect();
    assert!(
        conns
            .iter()
            .all(|c| c.args.iter().any(|(k, _)| k == "queue_us")),
        "{conns:?}"
    );
    let nested = events.iter().any(|e| {
        e.name == "serve.request"
            && conns
                .iter()
                .any(|c| c.id == e.parent && c.dur_us >= e.dur_us)
    });
    assert!(
        nested,
        "a serve.request span nests in its serve.conn: {events:?}"
    );
}

#[test]
fn a_flood_of_silent_peers_still_gets_a_complete_answer_within_a_second() {
    const THREADS: usize = 2;
    let server = model_server_with(THREADS);
    let _peers = silent_peers(server.addr(), 2 * THREADS + 2);
    let started = std::time::Instant::now();
    let (status, body) = request(server.addr(), "GET", "/healthz", "");
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "/healthz behind {} silent peers took {elapsed:?}",
        2 * THREADS + 2
    );
    match status {
        200 => {}
        503 => {
            let v: Value = serde_json::from_str(&body).expect("503 body is JSON");
            let err = v.get("error").expect("error envelope");
            assert_eq!(
                err.get("code"),
                Some(&Value::Str("overloaded".into())),
                "{body}"
            );
            assert_eq!(err.get("status"), Some(&Value::U64(503)), "{body}");
        }
        other => panic!("expected 200 or a structured 503, got {other}: {body}"),
    }
    server.shutdown();
}

#[test]
fn shutdown_is_prompt_while_a_silent_peer_is_connected() {
    let server = model_server();
    let _peer = silent_peers(server.addr(), 1);
    // Wait until a handler holds the peer, so shutdown has to wait for
    // it: the peer and this /stats request are then both in flight.
    let in_flight = || {
        let (_, body) = request(server.addr(), "GET", "/stats", "");
        let stats: Value = serde_json::from_str(&body).expect("stats is JSON");
        match stats.get("in_flight") {
            Some(Value::U64(n)) => *n,
            other => panic!("in_flight is not a count: {other:?}"),
        }
    };
    while in_flight() < 2 {}
    let started = std::time::Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "shutdown with a silent peer took {elapsed:?}"
    );
}

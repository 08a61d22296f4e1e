//! The daemon: one acceptor thread and a bounded pool of handler
//! threads over one listener, request routing, the endpoint handlers,
//! and graceful shutdown (SIGINT/SIGTERM or [`ServerHandle::shutdown`])
//! with a final cache save.
//!
//! The connection model is deliberately simple: one request per
//! connection, `Connection: close` on every response. The acceptor
//! blocks in `accept(2)` and never reads from a socket; it queues each
//! connection for the handlers. The server holds at most two
//! connections per handler — one being handled, one waiting — and the
//! acceptor answers a structured `503 overloaded` itself past that. A
//! handler gives the client [`http::HEAD_DEADLINE`] from accept to
//! deliver the request head, so peers that connect and stay silent hold
//! a handler for at most that long. Shutdown wakes the blocked `accept`
//! with one loopback connection to the bound port.

use crate::error::ApiError;
use crate::http;
use crate::state::{Endpoint, ServeState};
use crate::validate;
use delta_model::query::{EvalQuery, StepQuery};
use delta_model::Backend;
use delta_obs::span;
use serde::{Deserialize, Serialize, Value};
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor backs off after a failed `accept` (the process
/// is out of descriptors, say) before it tries again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port —
    /// the bound address is on the returned handle).
    pub addr: String,
    /// Handler-thread count. It is also the number of accepted
    /// connections that may wait for a busy handler; past that the
    /// server answers `503 overloaded`.
    pub threads: usize,
    /// Optional persistent warm store: a cache-format-v3 file loaded at
    /// startup and saved on shutdown and periodically while dirty.
    pub cache_file: Option<PathBuf>,
    /// Interval between periodic cache saves.
    pub save_every: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            threads: 4,
            cache_file: None,
            save_every: Duration::from_secs(30),
        }
    }
}

/// An accepted connection and when it was accepted.
type Accepted = (TcpStream, Instant);

/// A running server: its bound address and the means to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    /// Dropping the sender wakes the housekeeper for good.
    housekeeper: Option<(Sender<()>, JoinHandle<()>)>,
    finish: Option<Box<dyn FnOnce() + Send>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets the handlers finish the connections they
    /// hold, joins every thread, and runs the final cache save.
    /// Idempotent with [`Drop`] (dropping an un-shutdown handle also
    /// stops the server).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            wake_listener(self.addr);
            // The acceptor drops the queue's sender on exit, which ends
            // every handler once the queue is empty.
            let _ = acceptor.join();
        }
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
        if let Some((wake, h)) = self.housekeeper.take() {
            drop(wake);
            let _ = h.join();
        }
        if let Some(finish) = self.finish.take() {
            finish();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Makes one connection to the listener bound at `addr`, so that an
/// `accept` blocked on it returns. An unspecified bind address
/// (`0.0.0.0`, `[::]`) is reached through loopback.
fn wake_listener(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// Binds `config.addr` and starts the acceptor and the handler pool.
/// Returns once the listener is live; the handle's address is ready for
/// clients immediately. Prints a startup line (and the warm-store size,
/// if any) to stderr.
pub fn spawn<B>(backend: B, config: ServeConfig) -> std::io::Result<ServerHandle>
where
    B: Backend + Send + Sync + 'static,
{
    let (state, warm) = ServeState::new(backend, config.cache_file.clone())?;
    let state = Arc::new(state);
    if warm > 0 {
        eprintln!(
            "serve: warm store loaded {warm} entries from {}",
            config
                .cache_file
                .as_ref()
                .expect("warm > 0 implies a cache file")
                .display()
        );
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let threads = config.threads.max(1);
    let (queue, pending) = mpsc::channel::<Accepted>();
    let pending = Arc::new(Mutex::new(pending));
    let admitted = Arc::new(AtomicUsize::new(0));
    let handlers = (0..threads)
        .map(|_| {
            let pending = Arc::clone(&pending);
            let admitted = Arc::clone(&admitted);
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || handler_loop(&pending, &admitted, &state, &shutdown))
        })
        .collect();
    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let admission = Admission {
            admitted,
            capacity: 2 * threads,
        };
        std::thread::spawn(move || accept_loop(&listener, &queue, &admission, &shutdown))
    };
    // Housekeeping: periodic cache saves while dirty, until the handle
    // drops the sender.
    let (wake, woken) = mpsc::channel::<()>();
    let housekeeper = {
        let state = Arc::clone(&state);
        let save_every = config.save_every;
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = woken.recv_timeout(save_every) {
                report_save(&state);
            }
        })
    };
    eprintln!("serve: listening on http://{addr} ({threads} worker threads)");
    Ok(ServerHandle {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        handlers,
        housekeeper: Some((wake, housekeeper)),
        finish: Some(Box::new(move || report_save(&state))),
    })
}

/// Runs a save-if-dirty pass and reports the outcome to stderr.
fn report_save<B: Backend>(state: &ServeState<B>) {
    match state.save_if_dirty() {
        Some(Ok(n)) => eprintln!("serve: saved {n} cache entries"),
        Some(Err(e)) => eprintln!("serve: cache save failed: {e}"),
        None => {}
    }
}

/// Runs the server in the foreground until SIGINT/SIGTERM, then shuts
/// down gracefully (final cache save included). This is what `delta
/// serve` calls.
pub fn run<B>(backend: B, config: ServeConfig) -> std::io::Result<()>
where
    B: Backend + Send + Sync + 'static,
{
    let signal = TerminationSignal::install()?;
    let handle = spawn(backend, config)?;
    signal.wait()?;
    eprintln!("serve: shutting down");
    handle.shutdown();
    Ok(())
}

/// The write end of the socket pair the signal handler wakes [`run`]
/// through (-1 until installed).
#[cfg(unix)]
static SIGNAL_FD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(-1);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    extern "C" {
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    // SAFETY: write(2) is async-signal-safe, the buffer is one valid
    // byte, and the descriptor stays open for the life of the process
    // once installed (before that it is -1, and write fails with EBADF).
    // If the socket is full, an earlier signal's byte is already
    // waiting, so a failed write loses nothing.
    unsafe {
        write(SIGNAL_FD.load(Ordering::SeqCst), [1u8].as_ptr(), 1);
    }
}

/// SIGINT/SIGTERM, as a byte to block on: the handler writes one byte
/// into a socket pair and [`TerminationSignal::wait`] reads it.
#[cfg(unix)]
struct TerminationSignal(std::os::unix::net::UnixStream);

#[cfg(unix)]
impl TerminationSignal {
    /// Installs the handlers with `signal(2)` straight from the C
    /// runtime Rust already links — the environment has no
    /// `libc`/`signal-hook` crate to lean on.
    fn install() -> std::io::Result<TerminationSignal> {
        use std::os::unix::io::IntoRawFd;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let (waiter, notifier) = std::os::unix::net::UnixStream::pair()?;
        notifier.set_nonblocking(true)?;
        // A signal can arrive at any time from here on, so the write end
        // stays open for the life of the process.
        SIGNAL_FD.store(notifier.into_raw_fd(), Ordering::SeqCst);
        // SAFETY: `on_signal` only loads an atomic and calls write(2),
        // both async-signal-safe, so it may run at any point.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        Ok(TerminationSignal(waiter))
    }

    /// Blocks until a termination signal arrives.
    fn wait(mut self) -> std::io::Result<()> {
        use std::io::Read;
        self.0.read_exact(&mut [0u8; 1])
    }
}

/// Without Unix signals there is nothing to wait for: the server runs
/// until the process is killed.
#[cfg(not(unix))]
struct TerminationSignal;

#[cfg(not(unix))]
impl TerminationSignal {
    fn install() -> std::io::Result<TerminationSignal> {
        Ok(TerminationSignal)
    }

    fn wait(self) -> std::io::Result<()> {
        loop {
            std::thread::park();
        }
    }
}

/// How many connections the server may hold at once.
struct Admission {
    /// Connections queued or being handled; a handler releases its
    /// connection's count when done with it.
    admitted: Arc<AtomicUsize>,
    /// The limit: one connection being handled and one waiting, per
    /// handler. The count covers the handlers' own connections too, so
    /// a burst that arrives before idle handlers wake up to take it is
    /// not refused while they are free.
    capacity: usize,
}

/// The acceptor: blocks in `accept` and queues each connection for the
/// handlers, answering `503 overloaded` past the admission limit, until
/// shutdown. Returning drops the queue's sender.
fn accept_loop(
    listener: &TcpListener,
    queue: &Sender<Accepted>,
    admission: &Admission,
    shutdown: &AtomicBool,
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else {
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        if admission.admitted.fetch_add(1, Ordering::SeqCst) >= admission.capacity {
            admission.admitted.fetch_sub(1, Ordering::SeqCst);
            reject_overloaded(stream);
        } else if queue.send((stream, Instant::now())).is_err() {
            return;
        }
    }
}

/// Answers a connection no handler can take with a structured 503.
/// The acceptor must never wait on a peer, so the write is nonblocking:
/// a fresh connection's send buffer takes this small response whole.
fn reject_overloaded(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    let _ = http::write_error(&mut stream, &ApiError::overloaded());
    let _ = stream.shutdown(Shutdown::Write);
}

/// One handler: takes queued connections and serves each, until the
/// acceptor has gone and the queue is empty. Connections still queued
/// at shutdown are closed unanswered.
fn handler_loop<B: Backend>(
    pending: &Mutex<Receiver<Accepted>>,
    admitted: &AtomicUsize,
    state: &Arc<ServeState<B>>,
    shutdown: &AtomicBool,
) {
    loop {
        let next = pending.lock().expect("connection queue poisoned").recv();
        let Ok((stream, accepted)) = next else {
            return;
        };
        if !shutdown.load(Ordering::SeqCst) {
            serve_connection(stream, accepted, state);
        }
        admitted.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves one accepted connection, from pickup to close, inside its
/// `serve.conn` span.
fn serve_connection<B: Backend>(
    mut stream: TcpStream,
    accepted: Instant,
    state: &Arc<ServeState<B>>,
) {
    let waited = accepted.elapsed();
    state.observe_queue_wait(waited);
    let _conn = if delta_obs::trace::enabled() {
        delta_obs::trace::span_since(
            "serve.conn",
            accepted,
            vec![("queue_us".into(), (waited.as_micros() as u64).into())],
        )
    } else {
        delta_obs::SpanGuard::disabled()
    };
    let _guard = state.enter();
    // Connection handling errors mean the peer went away mid-exchange;
    // there is nobody left to tell.
    let _ = handle_connection(&mut stream, accepted, state);
    // The FIN goes out ahead of the close, so a client whose request was
    // not read to the end still reads the response, not a reset.
    let _ = stream.shutdown(Shutdown::Write);
}

/// Reads one request, routes it, writes one response.
fn handle_connection<B: Backend>(
    stream: &mut TcpStream,
    accepted: Instant,
    state: &Arc<ServeState<B>>,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(http::IO_TIMEOUT))?;
    let request = match http::read_request(stream, accepted)? {
        Ok(r) => r,
        Err(e) => return http::write_error(stream, &e),
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/eval") => {
            state.count_request(Endpoint::Eval);
            let _span = span!("serve.request", endpoint = "eval");
            let started = Instant::now();
            let outcome = respond(stream, handle_eval(state, &request.body));
            state.observe_latency(Endpoint::Eval, started.elapsed());
            outcome
        }
        ("POST", "/step") => {
            state.count_request(Endpoint::Step);
            let _span = span!("serve.request", endpoint = "step");
            let started = Instant::now();
            let outcome = respond(stream, handle_step(state, &request.body));
            state.observe_latency(Endpoint::Step, started.elapsed());
            outcome
        }
        ("POST", "/sweep") => {
            state.count_request(Endpoint::Sweep);
            let _span = span!("serve.request", endpoint = "sweep");
            let started = Instant::now();
            let outcome = handle_sweep(state, &request.body, stream);
            state.observe_latency(Endpoint::Sweep, started.elapsed());
            outcome
        }
        ("GET", "/stats") => {
            state.count_request(Endpoint::Stats);
            let started = Instant::now();
            let body = serde_json::to_string(&state.snapshot())
                .map_err(|e| ApiError::internal(format!("stats serialization failed: {e}")));
            let outcome = respond(stream, body);
            state.observe_latency(Endpoint::Stats, started.elapsed());
            outcome
        }
        ("GET", "/healthz") => {
            let body = serde_json::to_string(&health(state))
                .map_err(|e| ApiError::internal(format!("healthz serialization failed: {e}")));
            respond(stream, body)
        }
        ("GET", "/metrics") => {
            let body = state.metrics_text();
            http::write_response(stream, 200, "text/plain; version=0.0.4", body.as_bytes())
        }
        (method, path @ ("/eval" | "/step" | "/sweep")) => {
            http::write_error(stream, &ApiError::method_not_allowed(method, path, "POST"))
        }
        (method, path @ ("/stats" | "/healthz" | "/metrics")) => {
            http::write_error(stream, &ApiError::method_not_allowed(method, path, "GET"))
        }
        (_, path) => http::write_error(stream, &ApiError::not_found(path)),
    }
}

/// `GET /healthz` body: liveness plus the identity triple a client
/// needs to decide whether this server's answers are interchangeable
/// with another evaluator's — the same
/// [`BackendFingerprint`](delta_model::BackendFingerprint) the
/// engine's persistent-cache guard and the fleet handshake compare.
#[derive(Debug, Clone, Serialize)]
pub struct Health {
    /// Crate version of the serving binary.
    pub version: String,
    /// On-disk engine cache format revision this server reads and
    /// writes ([`delta_model::engine::CACHE_FORMAT_VERSION`]).
    pub cache_format_version: u32,
    /// Backend identifier (`"model"` or `"sim"`).
    pub backend: String,
    /// The device the backend evaluates on.
    pub gpu: String,
    /// The backend's configuration fingerprint (sampling limits etc.);
    /// empty for backends without such knobs.
    pub config_fingerprint: String,
}

/// Assembles the `GET /healthz` payload from the live backend.
fn health<B: Backend>(state: &Arc<ServeState<B>>) -> Health {
    let fp = delta_model::BackendFingerprint::of(state.engine.backend());
    Health {
        version: env!("CARGO_PKG_VERSION").to_string(),
        cache_format_version: delta_model::engine::CACHE_FORMAT_VERSION,
        backend: fp.backend,
        gpu: fp.gpu,
        config_fingerprint: fp.config,
    }
}

/// Writes a handler outcome as a complete JSON response.
fn respond(stream: &mut TcpStream, result: Result<String, ApiError>) -> std::io::Result<()> {
    match result {
        Ok(body) => http::write_response(stream, 200, "application/json", body.as_bytes()),
        Err(e) => http::write_error(stream, &e),
    }
}

/// Parses `body` as a JSON document (or a structured 400).
fn parse_body(body: &[u8]) -> Result<Value, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("invalid_json", "request body is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| ApiError::bad_request("invalid_json", format!("invalid JSON body: {e}")))
}

/// Typed deserialization of a validated tree (or a structured 400).
fn typed<T: Deserialize>(v: &Value, what: &str) -> Result<T, ApiError> {
    T::from_value(v)
        .map_err(|e| ApiError::bad_request("invalid_query", format!("cannot decode {what}: {e}")))
}

/// The idempotency key of an eval query: its injective fingerprint
/// (`EvalQuery` is label-free already).
fn eval_key(query: &EvalQuery) -> String {
    format!("eval:{}", query.fingerprint())
}

/// The idempotency key of a step query: its canonical serialization,
/// which — unlike [`StepQuery::fingerprint`] — keeps the layer labels,
/// because the response body names rows and spans after them. The
/// engine's step cache underneath is keyed on the label-free
/// fingerprint, so two steps differing only in labels still share one
/// evaluation (the second is relabeled, not replayed).
fn step_key(query: &StepQuery) -> String {
    serde_json::to_string(query)
        .map(|json| format!("step:{json}"))
        .unwrap_or_else(|_| format!("step:debug:{query:?}"))
}

fn handle_eval<B: Backend>(state: &Arc<ServeState<B>>, body: &[u8]) -> Result<String, ApiError> {
    let query: EvalQuery = {
        let _span = span!("serve.parse", endpoint = "eval");
        let tree = parse_body(body)?;
        validate::eval_query(&tree)?;
        typed(&tree, "an EvalQuery")?
    };
    state.cached(&eval_key(&query), || {
        let estimate = state.engine.evaluate(&query).map_err(ApiError::from)?;
        let _span = span!("serve.serialize", endpoint = "eval");
        serde_json::to_string(&estimate)
            .map_err(|e| ApiError::internal(format!("result serialization failed: {e}")))
    })
}

fn handle_step<B: Backend>(state: &Arc<ServeState<B>>, body: &[u8]) -> Result<String, ApiError> {
    let query: StepQuery = {
        let _span = span!("serve.parse", endpoint = "step");
        let tree = parse_body(body)?;
        validate::step_query(&tree)?;
        typed(&tree, "a StepQuery")?
    };
    state.cached(&step_key(&query), || {
        let evaluation = state.engine.evaluate_step(&query).map_err(ApiError::from)?;
        let _span = span!("serve.serialize", endpoint = "step");
        serde_json::to_string(&evaluation)
            .map_err(|e| ApiError::internal(format!("result serialization failed: {e}")))
    })
}

/// One sweep element, auto-detected by shape: an object with a `shape`
/// key is an `EvalQuery`, one with a `layers` key is a `StepQuery`.
enum SweepItem {
    Eval(EvalQuery),
    Step(StepQuery),
}

/// Parses and validates one sweep element.
fn sweep_item(v: &Value, index: usize) -> Result<SweepItem, ApiError> {
    let is_map = matches!(v, Value::Map(_));
    if is_map && v.get("shape").is_some() {
        validate::eval_query(v)?;
        Ok(SweepItem::Eval(typed(v, "an EvalQuery")?))
    } else if is_map && v.get("layers").is_some() {
        validate::step_query(v)?;
        Ok(SweepItem::Step(typed(v, "a StepQuery")?))
    } else {
        Err(ApiError::bad_request(
            "invalid_query",
            format!(
                "sweep element {index} is neither an EvalQuery (needs `shape`) \
                 nor a StepQuery (needs `layers`)"
            ),
        ))
    }
}

/// `POST /sweep`: a JSON array of queries, answered as NDJSON lines in
/// completion order. Each line is `{"index": i, "result": ...}` or
/// `{"index": i, "error": {...}}`; the whole batch shares the body cache
/// and single-flight dedup, so duplicate elements cost one evaluation.
fn handle_sweep<B: Backend>(
    state: &Arc<ServeState<B>>,
    body: &[u8],
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let items: Vec<Value> = match parse_body(body) {
        Ok(Value::Seq(items)) => items,
        Ok(_) => {
            return http::write_error(
                stream,
                &ApiError::bad_request("invalid_query", "sweep body must be a JSON array"),
            )
        }
        Err(e) => return http::write_error(stream, &e),
    };
    state.count_sweep_queries(items.len() as u64);
    http::write_stream_head(stream)?;
    // Fan the elements over a small worker pool; lines stream back in
    // completion order. Workers pull indices from a shared counter, so
    // an expensive step query never blocks the cheap eval next to it.
    let (tx, rx) = mpsc::channel::<(usize, String)>();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let items = &items;
            let state = Arc::clone(state);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let line = sweep_line(&state, item, i);
                if tx.send((i, line)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Stream lines as they complete. A write failure means the
        // client hung up; stop writing but let the workers drain (their
        // sends fail silently once the receiver is dropped).
        let mut alive = true;
        for (_, line) in rx {
            if alive {
                alive = stream
                    .write_all(line.as_bytes())
                    .and_then(|()| stream.write_all(b"\n"))
                    .and_then(|()| stream.flush())
                    .is_ok();
            }
        }
    });
    Ok(())
}

/// Evaluates one sweep element into its NDJSON line.
fn sweep_line<B: Backend>(state: &Arc<ServeState<B>>, item: &Value, index: usize) -> String {
    let outcome = sweep_item(item, index).and_then(|q| match q {
        SweepItem::Eval(query) => state.cached(&eval_key(&query), || {
            let estimate = state.engine.evaluate(&query).map_err(ApiError::from)?;
            serde_json::to_string(&estimate)
                .map_err(|e| ApiError::internal(format!("result serialization failed: {e}")))
        }),
        SweepItem::Step(query) => state.cached(&step_key(&query), || {
            let evaluation = state.engine.evaluate_step(&query).map_err(ApiError::from)?;
            serde_json::to_string(&evaluation)
                .map_err(|e| ApiError::internal(format!("result serialization failed: {e}")))
        }),
    });
    match outcome {
        // `body` is already a serialized JSON document, so splicing it
        // into the line keeps the result bytes identical to the
        // dedicated endpoints' responses.
        Ok(body) => format!("{{\"index\":{index},\"result\":{body}}}"),
        Err(e) => {
            let line = Value::Map(vec![
                ("index".into(), Value::U64(index as u64)),
                (
                    "error".into(),
                    e.to_value().get("error").cloned().unwrap_or(Value::Null),
                ),
            ]);
            serde_json::to_string(&line)
                .unwrap_or_else(|_| format!("{{\"index\":{index},\"error\":null}}"))
        }
    }
}

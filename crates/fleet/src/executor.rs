//! The executor daemon: one process, one [`Simulator`], answering
//! unit-replay jobs over TCP.
//!
//! An executor is deliberately dumb: it holds no plan, no query, and no
//! cross-job state. It handshakes (refusing any coordinator whose
//! [`BackendFingerprint`] differs from its own), then answers each
//! [`JobMsg`] with the corresponding unit replay — `Sequential` /
//! `Column` / `Segment` — computed by exactly the entry points the
//! in-process sharded runner uses. All the distributed-systems
//! intelligence (partitioning, retry, merge) lives in the
//! [`coordinator`](crate::coordinator); executors can therefore be
//! killed, restarted, and duplicated freely without affecting the
//! merged result.
//!
//! All I/O blocks: one thread waits in `accept`, and each connection's
//! thread waits in its frame read, so a frame may arrive in pieces with
//! any pause between them. A halt (shutdown, or an injected death)
//! shuts every open connection down, which ends those reads, and wakes
//! `accept` with one loopback connection to the bound port.
//!
//! For tests and the `fleet_scaling` experiment, a [`FaultPlan`] can
//! make an executor die after N jobs, stall without replying, or send
//! every reply twice — the fault injection behind the failure-path
//! tests.

use crate::protocol::PROTOCOL_VERSION;
use crate::protocol::{
    read_frame, write_frame, Hello, HelloReply, JobKind, JobMsg, JobReply, WireSpan,
};
use delta_model::BackendFingerprint;
use delta_obs::span;
use delta_sim::Simulator;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// How long the accept loop backs off after a failed `accept` (the
/// process is out of descriptors, say) before it tries again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Fault injection for tests and the recovery experiment. The default
/// plan injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Die abruptly (close every connection, stop accepting, no
    /// replies) once this many jobs have been *received* across all
    /// connections — the "executor killed mid-job" scenario.
    pub die_after_jobs: Option<u64>,
    /// Stop replying (read jobs, never answer) once this many jobs
    /// have been received — the straggler/timeout scenario.
    pub stall_after_jobs: Option<u64>,
    /// Send every successful reply twice — the duplicate-delivery
    /// scenario the coordinator must absorb idempotently.
    pub duplicate_replies: bool,
}

/// Executor configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Listen address, e.g. `127.0.0.1:7979` (`:0` picks a free port;
    /// read the actual one from [`ExecutorHandle::addr`]).
    pub addr: String,
    /// Fault injection (default: none).
    pub fault: FaultPlan,
}

impl ExecutorConfig {
    /// A fault-free configuration listening on `addr`.
    pub fn new(addr: impl Into<String>) -> ExecutorConfig {
        ExecutorConfig {
            addr: addr.into(),
            fault: FaultPlan::default(),
        }
    }
}

/// Handle to a spawned executor: its bound address and a shutdown
/// switch. Dropping the handle shuts the executor down.
#[derive(Debug)]
pub struct ExecutorHandle {
    addr: SocketAddr,
    state: Arc<ExecutorState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ExecutorHandle {
    /// The address the executor actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every connection (a job in progress
    /// finishes, but its reply is not delivered), and waits for every
    /// executor thread to exit.
    pub fn shutdown(&mut self) {
        self.state.halt();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ExecutorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-executor shared state: the simulator, the fault plan, the
/// global received-job counter the plan's thresholds compare against,
/// and the open connections.
#[derive(Debug)]
struct ExecutorState {
    sim: Simulator,
    fingerprint: BackendFingerprint,
    fault: FaultPlan,
    jobs_received: AtomicU64,
    /// The bound address, for the connection that wakes `accept`.
    addr: SocketAddr,
    live: Mutex<Live>,
    /// Notified when the executor halts (releases stalled jobs).
    halted: Condvar,
}

/// The executor's open connections, and whether it has halted.
#[derive(Debug, Default)]
struct Live {
    /// Set by [`ExecutorState::halt`]: on shutdown, and when
    /// `die_after_jobs` fires (the executor is then dead to redial
    /// attempts too, not just to the connection that tripped it).
    halted: bool,
    next_id: u64,
    /// A clone of each open connection, so a halt can end its blocked
    /// read.
    streams: HashMap<u64, TcpStream>,
}

impl ExecutorState {
    /// Locks the connection table. A panic cannot leave it half
    /// updated (each update is one flag store or one map insert or
    /// remove), and a halt must still reach every connection, so a
    /// poisoned lock is recovered.
    fn live(&self) -> MutexGuard<'_, Live> {
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stops the executor: no more accepts, every connection shut down
    /// (its blocked read returns), every stalled job released.
    fn halt(&self) {
        {
            let mut live = self.live();
            if live.halted {
                return;
            }
            live.halted = true;
            for stream in live.streams.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        self.halted.notify_all();
        wake_listener(self.addr);
    }

    fn is_halted(&self) -> bool {
        self.live().halted
    }

    /// Registers an open connection until the returned guard drops;
    /// `None` when the executor has already halted.
    fn register(&self, stream: &TcpStream) -> io::Result<Option<Registration<'_>>> {
        let clone = stream.try_clone()?;
        let mut live = self.live();
        if live.halted {
            return Ok(None);
        }
        let id = live.next_id;
        live.next_id += 1;
        live.streams.insert(id, clone);
        Ok(Some(Registration { state: self, id }))
    }

    /// Blocks until the executor halts.
    fn wait_for_halt(&self) {
        let live = self.live();
        let _halted = self
            .halted
            .wait_while(live, |live| !live.halted)
            .unwrap_or_else(|e| e.into_inner());
    }
}

/// An open connection's entry in [`Live::streams`], removed on drop.
struct Registration<'a> {
    state: &'a ExecutorState,
    id: u64,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        self.state.live().streams.remove(&self.id);
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

/// Spawns an executor for `sim` in background threads of this process
/// and returns its handle. This is what the integration tests and the
/// `fleet_scaling` experiment use; the `delta executor` daemon wraps
/// it via [`run`].
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn(sim: Simulator, config: ExecutorConfig) -> io::Result<ExecutorHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let fingerprint = BackendFingerprint::of(&sim);
    let state = Arc::new(ExecutorState {
        sim,
        fingerprint,
        fault: config.fault,
        jobs_received: AtomicU64::new(0),
        addr,
        live: Mutex::new(Live::default()),
        halted: Condvar::new(),
    });
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_state));
    Ok(ExecutorHandle {
        addr,
        state,
        accept_thread: Some(accept_thread),
    })
}

/// Spawns `n` fault-free executors on loopback ports picked by the OS —
/// the single-machine convenience behind `delta fleet-run
/// --local-executors`. Each executor gets a clone of `sim` (same GPU
/// and configuration, hence the same fingerprint). Returns the handles;
/// collect addresses via [`ExecutorHandle::addr`].
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_local_executors(sim: &Simulator, n: u32) -> io::Result<Vec<ExecutorHandle>> {
    (0..n.max(1))
        .map(|_| spawn(sim.clone(), ExecutorConfig::new("127.0.0.1:0")))
        .collect()
}

/// Runs an executor in the foreground until SIGINT/SIGTERM — the
/// `delta executor` daemon body.
///
/// # Errors
///
/// Propagates bind failures.
pub fn run(sim: Simulator, config: ExecutorConfig) -> io::Result<()> {
    let signal = TerminationSignal::install()?;
    let mut handle = spawn(sim, config)?;
    eprintln!("executor: listening on {}", handle.addr());
    signal.wait()?;
    eprintln!("executor: shutting down");
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
/// into a socket pair and [`TerminationSignal::wait`] reads it (same
/// approach as `delta_serve`).
#[cfg(unix)]
struct TerminationSignal(std::os::unix::net::UnixStream);

#[cfg(unix)]
impl TerminationSignal {
    /// Installs the handlers with `signal(2)` straight from the C
    /// runtime Rust already links — the environment has no `libc`
    /// crate to lean on.
    fn install() -> io::Result<TerminationSignal> {
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
    fn wait(mut self) -> io::Result<()> {
        use std::io::Read;
        self.0.read_exact(&mut [0u8; 1])
    }
}

/// Without Unix signals there is nothing to wait for: the executor runs
/// until the process is killed.
#[cfg(not(unix))]
struct TerminationSignal;

#[cfg(not(unix))]
impl TerminationSignal {
    fn install() -> io::Result<TerminationSignal> {
        Ok(TerminationSignal)
    }

    fn wait(self) -> io::Result<()> {
        loop {
            std::thread::park();
        }
    }
}

/// Blocks in `accept` until the executor halts; one thread per
/// connection (a coordinator opens one connection per distributed run,
/// so the thread count stays at the fleet's coordinator count).
fn accept_loop(listener: &TcpListener, state: &Arc<ExecutorState>) {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if state.is_halted() {
            break;
        }
        let Ok(stream) = conn else {
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        let conn_state = Arc::clone(state);
        workers.push(std::thread::spawn(move || {
            // Connection errors mean the peer went away
            // mid-exchange; there is nobody left to tell.
            let _ = handle_connection(stream, &conn_state);
        }));
    }
    for w in workers {
        let _ = w.join();
    }
}

/// One connection: handshake, then a job/reply loop until the peer
/// closes, the executor halts, or a fault fires. Reads block; a halt
/// shuts the connection down, which ends them.
fn handle_connection(mut stream: TcpStream, state: &ExecutorState) -> io::Result<()> {
    let Some(_registration) = state.register(&stream)? else {
        return Ok(());
    };
    stream.set_nodelay(true).ok();

    // Handshake.
    let hello: Hello = read_frame(&mut stream)?;
    let reply = handshake_reply(&hello, &state.fingerprint);
    let accepted = reply.ok;
    write_frame(&mut stream, &reply)?;
    if !accepted {
        return Ok(());
    }

    loop {
        let job: JobMsg = match read_frame(&mut stream) {
            Ok(j) => j,
            // Peer closed or executor halted: done.
            Err(_) => return Ok(()),
        };
        let received = state.jobs_received.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(n) = state.fault.die_after_jobs {
            if received > n {
                // Die abruptly: no reply, no more accepts. The
                // coordinator sees a closed socket and re-dispatches.
                state.halt();
                return Ok(());
            }
        }
        if let Some(n) = state.fault.stall_after_jobs {
            if received > n {
                // Stall: hold the job until the executor halts. The
                // coordinator's per-job timeout fires and re-dispatches.
                state.wait_for_halt();
                return Ok(());
            }
        }
        let reply = traced_answer(&state.sim, &job);
        write_frame(&mut stream, &reply)?;
        if state.fault.duplicate_replies && reply.ok {
            write_frame(&mut stream, &reply)?;
        }
    }
}

/// Builds the handshake verdict: protocol revision first, then the
/// fingerprint comparison shared with the engine's cache-header guard
/// ([`BackendFingerprint::mismatch`]). A refusal names both
/// fingerprints so the operator can see exactly which knob disagrees.
fn handshake_reply(hello: &Hello, ours: &BackendFingerprint) -> HelloReply {
    let error = if hello.protocol != PROTOCOL_VERSION {
        Some(format!(
            "protocol revision mismatch: coordinator speaks v{}, executor speaks \
             v{PROTOCOL_VERSION}",
            hello.protocol
        ))
    } else {
        hello.fingerprint.mismatch(ours).map(|_| {
            format!(
                "fingerprint mismatch: coordinator expects {}, executor runs {ours}; \
                 results would not be interchangeable",
                hello.fingerprint
            )
        })
    };
    HelloReply {
        ok: error.is_none(),
        error,
        fingerprint: ours.clone(),
        version: env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// Runs one job, capturing executor-side spans when the coordinator
/// asked for them ([`JobMsg::trace`]): recording is switched on, the
/// job's correlation id is installed for the duration, and the spans
/// this connection thread recorded are attached to the reply. One job
/// runs at a time per connection thread and span buffers are
/// per-thread, so `drain_thread` returns exactly this job's spans.
fn traced_answer(sim: &Simulator, job: &JobMsg) -> JobReply {
    if !job.trace {
        return answer(sim, job);
    }
    delta_obs::trace::set_enabled(true);
    // Anything left from earlier untraced work on this thread would
    // misattribute to this job: discard it first.
    let _ = delta_obs::trace::drain_thread();
    let mut reply = {
        let _corr = delta_obs::trace::with_correlation(job.corr);
        let kind = match job.kind {
            JobKind::Sequential => "sequential",
            JobKind::Column => "column",
            JobKind::Segment => "segment",
        };
        let _span = span!("fleet.execute", job = job.id, kind = kind);
        answer(sim, job)
    };
    reply.spans = delta_obs::trace::drain_thread()
        .into_iter()
        .map(WireSpan::from)
        .collect();
    reply
}

/// Runs one job through the simulator's unit-replay entry points.
fn answer(sim: &Simulator, job: &JobMsg) -> JobReply {
    let layer = match job.shape.to_layer() {
        Ok(l) => l,
        Err(e) => return JobReply::failure(job.id, format!("invalid job shape: {e}")),
    };
    let mut reply = JobReply::success(job.id);
    let outcome = match job.kind {
        JobKind::Sequential => {
            reply.sequential = Some(sim.run_sequential(&layer));
            Ok(())
        }
        JobKind::Column => sim.replay_column_unit(&layer, job.col).map(|part| {
            reply.column = Some(part);
        }),
        JobKind::Segment => sim
            .replay_segment_unit(&layer, job.col, job.batch_start..job.batch_end)
            .map(|part| {
                reply.segment = Some(part);
            }),
    };
    match outcome {
        Ok(()) => reply,
        Err(e) => JobReply::failure(job.id, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_model::GpuSpec;
    use delta_sim::SimConfig;

    #[test]
    fn handshake_refuses_mismatches_naming_both_sides() {
        let ours = BackendFingerprint {
            backend: "sim".into(),
            gpu: "TITAN Xp".into(),
            config: "{\"a\":1}".into(),
        };
        let mut theirs = ours.clone();
        theirs.gpu = "V100".into();
        let reply = handshake_reply(
            &Hello {
                protocol: PROTOCOL_VERSION,
                fingerprint: theirs,
                version: String::new(),
            },
            &ours,
        );
        assert!(!reply.ok);
        let msg = reply.error.unwrap();
        assert!(msg.contains("V100") && msg.contains("TITAN Xp"), "{msg}");
        assert_eq!(reply.fingerprint, ours);

        let reply = handshake_reply(
            &Hello {
                protocol: PROTOCOL_VERSION + 1,
                fingerprint: ours.clone(),
                version: String::new(),
            },
            &ours,
        );
        assert!(!reply.ok);
        assert!(reply.error.unwrap().contains("protocol revision"));

        let reply = handshake_reply(
            &Hello {
                protocol: PROTOCOL_VERSION,
                fingerprint: ours.clone(),
                version: String::new(),
            },
            &ours,
        );
        assert!(reply.ok && reply.error.is_none());
    }

    #[test]
    fn spawned_executor_binds_and_shuts_down() {
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let mut h = spawn(sim, ExecutorConfig::new("127.0.0.1:0")).unwrap();
        assert_ne!(h.addr().port(), 0);
        h.shutdown();
    }
}

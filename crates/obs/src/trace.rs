//! Lightweight structured spans.
//!
//! A span measures one named stretch of work. Opening one returns a
//! [`SpanGuard`]; dropping the guard records a [`SpanEvent`] carrying
//! the span's monotonic start time, duration, thread id, parent span
//! (the innermost span still open on the same thread), and the
//! thread's current correlation id. Events accumulate in per-thread
//! buffers until [`drain`] collects them for export.
//!
//! Tracing is **off** by default. Every span site first checks the
//! global enable flag with one relaxed atomic load; when off, no
//! clock is read and nothing is allocated, so instrumented hot paths
//! cost a few loads per call. Nothing in this module feeds back into
//! the traced computation — recording is observation only.
//!
//! **Correlation ids** stitch one logical operation across threads and
//! processes: the fleet coordinator mints one id per distributed query
//! ([`next_correlation_id`]), carries it in every job frame, and the
//! executor installs it ([`with_correlation`]) around the job so both
//! sides' spans share it. Foreign spans shipped back over the wire
//! re-enter the local record via [`record_foreign`].

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Global tracing switch. Off by default; every span site loads it
/// (relaxed) before doing any work.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Span ids, process-unique, starting at 1 (0 means "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Correlation ids, process-unique, starting at 1 (0 means "none").
static NEXT_CORRELATION_ID: AtomicU64 = AtomicU64::new(1);
/// Small stable per-process thread indices for trace `tid` fields.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The process-wide monotonic epoch all span timestamps are relative
/// to (first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

type Buffer = Arc<Mutex<Vec<SpanEvent>>>;

/// Registry of every thread's span buffer, so [`drain`] can collect
/// spans recorded by threads that are still alive (rayon pool workers
/// never exit).
fn buffers() -> &'static Mutex<Vec<Buffer>> {
    static BUFFERS: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Locks a mutex, surviving poisoning — a panicked recording thread
/// must not take observability down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// This thread's finished-span buffer, registered globally on
    /// first use.
    static LOCAL: Buffer = {
        let buf: Buffer = Arc::new(Mutex::new(Vec::new()));
        lock(buffers()).push(buf.clone());
        buf
    };
    /// Ids of the spans currently open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's small stable trace id (0 = not yet assigned).
    static TID: Cell<u64> = const { Cell::new(0) };
    /// The correlation id installed on this thread (0 = none).
    static CORR: Cell<u64> = const { Cell::new(0) };
}

/// One value attached to a span by the [`crate::span!`] macro.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

macro_rules! arg_from {
    ($($t:ty => $variant:ident as $conv:ty),+ $(,)?) => {
        $(impl From<$t> for ArgValue {
            fn from(v: $t) -> Self {
                ArgValue::$variant(v as $conv)
            }
        })+
    };
}
arg_from! {
    u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, usize => U64 as u64,
    i64 => I64 as i64, i32 => I64 as i64,
    f64 => F64 as f64, f32 => F64 as f64,
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One finished span. `Cow` fields are borrowed `'static` literals for
/// spans recorded in this process and owned strings for spans that
/// crossed a process boundary (fleet executors ship theirs back in the
/// job reply).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Process-unique span id (≥ 1).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for roots.
    pub parent: u64,
    /// The span's name (dot-separated stage path, e.g. `sim.replay`).
    pub name: Cow<'static, str>,
    /// Start time in microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Id of the recording process.
    pub pid: u32,
    /// Small stable index of the recording thread.
    pub tid: u64,
    /// Correlation id stitching this span to a logical operation
    /// (0 = none).
    pub corr: u64,
    /// Extra key/value context from the span site.
    pub args: Vec<(Cow<'static, str>, ArgValue)>,
}

/// Turns span recording on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mints a fresh correlation id (process-unique, never 0).
pub fn next_correlation_id() -> u64 {
    NEXT_CORRELATION_ID.fetch_add(1, Ordering::Relaxed)
}

/// The correlation id installed on this thread (0 = none).
pub fn current_correlation() -> u64 {
    CORR.with(|c| c.get())
}

/// Installs `id` as this thread's correlation id until the returned
/// guard drops (the previous id is then restored). Spans recorded
/// while the guard lives carry `id`.
pub fn with_correlation(id: u64) -> CorrelationGuard {
    let prev = CORR.with(|c| c.replace(id));
    CorrelationGuard { prev }
}

/// Restores the previously installed correlation id on drop.
#[must_use = "dropping the guard immediately uninstalls the correlation id"]
pub struct CorrelationGuard {
    prev: u64,
}

impl Drop for CorrelationGuard {
    fn drop(&mut self) {
        CORR.with(|c| c.set(self.prev));
    }
}

/// This thread's small stable trace id, assigned on first use.
fn thread_tid() -> u64 {
    TID.with(|t| {
        let mut tid = t.get();
        if tid == 0 {
            tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(tid);
        }
        tid
    })
}

/// The live half of an enabled [`SpanGuard`].
struct ActiveSpan {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    started: Instant,
    ts_us: u64,
    args: Vec<(Cow<'static, str>, ArgValue)>,
}

/// RAII handle for one open span: records the [`SpanEvent`] when
/// dropped. When tracing is disabled the guard is inert (and free).
#[must_use = "a span measures the scope of its guard; dropping it immediately records nothing useful"]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// The inert guard a disabled span site returns.
    #[inline]
    pub fn disabled() -> Self {
        SpanGuard(None)
    }

    /// This span's id, or 0 when tracing is disabled.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let dur_us = active.started.elapsed().as_micros() as u64;
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else {
                // Out-of-order drop (e.g. a forgotten guard): remove
                // our frame wherever it is so the stack stays sane.
                stack.retain(|&id| id != active.id);
            }
        });
        let event = SpanEvent {
            id: active.id,
            parent: active.parent,
            name: active.name,
            ts_us: active.ts_us,
            dur_us,
            pid: std::process::id(),
            tid: thread_tid(),
            corr: current_correlation(),
            args: active.args,
        };
        LOCAL.with(|buf| lock(buf).push(event));
    }
}

/// Opens a span named `name`. Prefer the [`crate::span!`] macro, which
/// also skips building the argument list when tracing is off.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    span_with(name, Vec::new())
}

/// Opens a span with pre-built arguments ([`crate::span!`]'s slow
/// path; only reached when tracing is on).
pub fn span_with(name: &'static str, args: Vec<(Cow<'static, str>, ArgValue)>) -> SpanGuard {
    span_since(name, Instant::now(), args)
}

/// Opens a span that began at `started`, before this thread took the
/// work over (a connection accepted by one thread and handled by
/// another). It nests like any span opened on this thread now.
pub fn span_since(
    name: &'static str,
    started: Instant,
    args: Vec<(Cow<'static, str>, ArgValue)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let ts_us = started.duration_since(epoch()).as_micros() as u64;
    SpanGuard(Some(ActiveSpan {
        id,
        parent,
        name: Cow::Borrowed(name),
        started,
        ts_us,
        args,
    }))
}

/// Opens a span; with `key = value` pairs the values are only
/// evaluated when tracing is enabled.
///
/// ```
/// let _guard = delta_obs::span!("sim.replay");
/// let _guard = delta_obs::span!("sim.replay", col = 3u64, pass = "fwd");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::span_with(
                $name,
                vec![$(
                    (
                        ::std::borrow::Cow::Borrowed(stringify!($key)),
                        $crate::trace::ArgValue::from($val),
                    )
                ),+],
            )
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}

/// Records spans that were recorded in another process (or drained
/// from another buffer) into this thread's buffer, preserving their
/// original ids, timestamps, pid, and tid.
pub fn record_foreign(events: Vec<SpanEvent>) {
    if events.is_empty() {
        return;
    }
    LOCAL.with(|buf| lock(buf).extend(events));
}

/// Drains and returns every span recorded so far, across all threads.
pub fn drain() -> Vec<SpanEvent> {
    let mut registry = lock(buffers());
    let mut out = Vec::new();
    for buf in registry.iter() {
        out.append(&mut lock(buf));
    }
    // Buffers owned only by the registry belong to exited threads and
    // are now empty: drop them.
    registry.retain(|buf| Arc::strong_count(buf) > 1);
    out
}

/// Drains and returns only the spans recorded by the **current**
/// thread (the fleet executor uses this to ship one job's spans back
/// in the reply without touching other threads' spans).
pub fn drain_thread() -> Vec<SpanEvent> {
    LOCAL.with(|buf| std::mem::take(&mut *lock(buf)))
}

/// Escapes `s` into `out` as a JSON string literal (without quotes).
fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders `events` as a Chrome trace-event JSON document (complete
/// `"X"` events), loadable by Perfetto / `chrome://tracing`.
///
/// Span ids, parent links, and correlation ids ride in each event's
/// `args` (`span_id`, `parent_id`, `correlation_id`) next to the span
/// site's own key/value pairs. Events are ordered by `(pid, tid, ts)`
/// so the output is deterministic for a given event set.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.pid, e.tid, e.ts_us, e.id));
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        push_json_escaped(&mut out, &e.name);
        out.push_str("\",\"cat\":\"delta\",\"ph\":\"X\",\"ts\":");
        out.push_str(&e.ts_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&e.dur_us.to_string());
        out.push_str(",\"pid\":");
        out.push_str(&e.pid.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"args\":{\"span_id\":");
        out.push_str(&e.id.to_string());
        out.push_str(",\"parent_id\":");
        out.push_str(&e.parent.to_string());
        out.push_str(",\"correlation_id\":");
        out.push_str(&e.corr.to_string());
        for (key, value) in &e.args {
            out.push_str(",\"");
            push_json_escaped(&mut out, key);
            out.push_str("\":");
            match value {
                ArgValue::U64(v) => out.push_str(&v.to_string()),
                ArgValue::I64(v) => out.push_str(&v.to_string()),
                ArgValue::F64(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
                // JSON has no NaN/Infinity tokens.
                ArgValue::F64(v) => {
                    out.push('"');
                    out.push_str(&v.to_string());
                    out.push('"');
                }
                ArgValue::Str(v) => {
                    out.push('"');
                    push_json_escaped(&mut out, v);
                    out.push('"');
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace tests share process-global state (the enable flag and
    /// the span buffers), so they run under one lock and drain before
    /// and after.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let _ = drain();
        guard
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _gate = exclusive();
        {
            let guard = crate::span!("outer", layer = "conv1");
            assert_eq!(guard.id(), 0);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn nesting_produces_parent_links() {
        let _gate = exclusive();
        set_enabled(true);
        {
            let _a = crate::span!("a");
            {
                let _b = crate::span!("b");
                let _c = crate::span!("c");
            }
            let _d = crate::span!("d");
        }
        set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 4);
        let by_name = |n: &str| events.iter().find(|e| e.name == n).expect("span recorded");
        let (a, b, c, d) = (by_name("a"), by_name("b"), by_name("c"), by_name("d"));
        assert_eq!(a.parent, 0, "a is a root");
        assert_eq!(b.parent, a.id, "b nests in a");
        assert_eq!(c.parent, b.id, "c nests in b");
        assert_eq!(d.parent, a.id, "d nests in a, after b closed");
        assert!(a.ts_us <= b.ts_us && b.ts_us <= c.ts_us);
        let same_tid = events.iter().all(|e| e.tid == a.tid && e.tid >= 1);
        assert!(same_tid, "one thread, one tid");
    }

    #[test]
    fn a_span_since_an_earlier_instant_covers_it_and_nests() {
        let _gate = exclusive();
        set_enabled(true);
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        {
            let _conn = span_since("conn", started, vec![("queue_us".into(), 7u64.into())]);
            let _inner = crate::span!("inner");
        }
        set_enabled(false);
        let events = drain();
        let conn = events.iter().find(|e| e.name == "conn").expect("conn");
        let inner = events.iter().find(|e| e.name == "inner").expect("inner");
        assert!(conn.dur_us >= 5_000, "{conn:?}");
        assert!(conn.dur_us >= inner.dur_us + 5_000, "{conn:?} {inner:?}");
        assert_eq!(inner.parent, conn.id);
        assert_eq!(conn.args, vec![("queue_us".into(), ArgValue::U64(7))]);
    }

    #[test]
    fn correlation_ids_are_installed_and_restored() {
        let _gate = exclusive();
        set_enabled(true);
        let id = next_correlation_id();
        assert_eq!(current_correlation(), 0);
        {
            let _corr = with_correlation(id);
            assert_eq!(current_correlation(), id);
            let _s = crate::span!("job");
        }
        assert_eq!(current_correlation(), 0);
        let _uncorrelated = crate::span!("after");
        drop(_uncorrelated);
        set_enabled(false);
        let events = drain();
        assert_eq!(events.iter().find(|e| e.name == "job").unwrap().corr, id);
        assert_eq!(events.iter().find(|e| e.name == "after").unwrap().corr, 0);
    }

    #[test]
    fn spans_from_other_threads_are_drained_too() {
        let _gate = exclusive();
        set_enabled(true);
        std::thread::spawn(|| {
            let _s = crate::span!("worker");
        })
        .join()
        .expect("worker thread");
        let _local = crate::span!("local");
        drop(_local);
        set_enabled(false);
        let events = drain();
        let worker = events
            .iter()
            .find(|e| e.name == "worker")
            .expect("worker span");
        let local = events
            .iter()
            .find(|e| e.name == "local")
            .expect("local span");
        assert_ne!(worker.tid, local.tid, "distinct threads get distinct tids");
    }

    #[test]
    fn drain_thread_takes_only_this_threads_spans() {
        let _gate = exclusive();
        set_enabled(true);
        std::thread::spawn(|| {
            let _s = crate::span!("elsewhere");
        })
        .join()
        .expect("worker thread");
        {
            let _s = crate::span!("here");
        }
        let mine = drain_thread();
        set_enabled(false);
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "here");
        let rest = drain();
        assert!(rest.iter().any(|e| e.name == "elsewhere"));
        assert!(!rest.iter().any(|e| e.name == "here"), "already taken");
    }

    #[test]
    fn foreign_spans_survive_re_recording() {
        let _gate = exclusive();
        set_enabled(true);
        let foreign = SpanEvent {
            id: 999_001,
            parent: 0,
            name: Cow::Owned("fleet.execute".to_string()),
            ts_us: 5,
            dur_us: 7,
            pid: 4242,
            tid: 3,
            corr: 17,
            args: vec![(Cow::Borrowed("job"), ArgValue::U64(4))],
        };
        record_foreign(vec![foreign.clone()]);
        set_enabled(false);
        let events = drain();
        assert_eq!(events, vec![foreign]);
    }

    #[test]
    fn chrome_export_escapes_and_orders() {
        let events = vec![
            SpanEvent {
                id: 2,
                parent: 1,
                name: Cow::Borrowed("b\"quoted\""),
                ts_us: 10,
                dur_us: 1,
                pid: 1,
                tid: 1,
                corr: 0,
                args: vec![(Cow::Borrowed("note"), ArgValue::Str("a\\b".into()))],
            },
            SpanEvent {
                id: 1,
                parent: 0,
                name: Cow::Borrowed("a"),
                ts_us: 5,
                dur_us: 9,
                pid: 1,
                tid: 1,
                corr: 3,
                args: vec![],
            },
        ];
        let json = chrome_trace_json(&events);
        let a = json.find("\"name\":\"a\"").expect("a present");
        let b = json.find("b\\\"quoted\\\"").expect("b escaped");
        assert!(a < b, "events ordered by timestamp: {json}");
        assert!(json.contains("\"correlation_id\":3"), "{json}");
        assert!(json.contains("\"note\":\"a\\\\b\""), "{json}");
    }
}

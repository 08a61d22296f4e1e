//! Traced-run analysis over recorded [`SpanEvent`]s: per-layer self
//! time (span time minus the time of its child spans), and span-name
//! lookups for the per-layer metrics.
//!
//! A span's layer is the first dot-separated component of its name
//! (`sim.replay_column` → `sim`). The benchmark's own wrappers around
//! public calls are named after the callee's layer (`model.analyze`),
//! and its client-side work after `bench`.

use crate::report::Outcome;
use delta_obs::{ArgValue, SpanEvent};
use std::collections::HashMap;

/// The layers self time is reported for, with their metric names. (The
/// analytical model has no spans of its own on the serving path; its
/// time shows under `engine`, and `model.analyze_us` times it
/// directly.)
const SELF_TIMES: [(&str, &str); 5] = [
    ("bench", "self.bench_ms"),
    ("engine", "self.engine_ms"),
    ("sim", "self.sim_ms"),
    ("serve", "self.serve_ms"),
    ("fleet", "self.fleet_ms"),
];

/// Spans recorded during one traced stretch of work.
#[derive(Debug, Default)]
pub struct Recording {
    events: Vec<SpanEvent>,
}

impl Recording {
    /// An empty recording; discards spans buffered before it.
    pub fn new() -> Recording {
        delta_obs::trace::drain();
        Recording::default()
    }

    /// Arms tracing: spans from now on belong to this recording.
    pub fn resume(&self) {
        delta_obs::trace::set_enabled(true);
    }

    /// Disarms tracing and collects every thread's spans so far.
    pub fn pause(&mut self) {
        delta_obs::trace::set_enabled(false);
        self.events.append(&mut delta_obs::trace::drain());
    }

    /// Total self time per layer in microseconds: each span's duration
    /// minus the durations of its direct children, summed by layer.
    fn self_us(&self) -> HashMap<&str, f64> {
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for e in &self.events {
            if e.parent != 0 {
                *child_us.entry(e.parent).or_default() += e.dur_us;
            }
        }
        let mut out: HashMap<&str, f64> = HashMap::new();
        for e in &self.events {
            let own = e
                .dur_us
                .saturating_sub(child_us.get(&e.id).copied().unwrap_or(0));
            let layer = e.name.split('.').next().unwrap_or("");
            *out.entry(layer).or_default() += own as f64;
        }
        out
    }

    /// Adds each layer's self time per operation (ms) to `out`, for
    /// the layers that recorded spans; `ops` operations of `kind` ran
    /// while recording.
    pub fn report_self_times(&self, out: &mut Outcome, ops: usize, kind: &str) {
        let self_us = self.self_us();
        let ops = ops.max(1);
        for (layer, name) in SELF_TIMES {
            if let Some(us) = self_us.get(layer) {
                out.layer(
                    name,
                    us / ops as f64 / 1e3,
                    format!("self time per {kind} ({ops} traced)"),
                );
            }
        }
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|e| e.dur_us as f64 / 1e3).collect()
    }

    /// Sum over spans named `name` of their integer argument `arg`.
    pub fn arg_sum(&self, name: &str, arg: &str) -> u64 {
        self.named(name)
            .filter_map(|e| {
                e.args
                    .iter()
                    .find(|(k, _)| k == arg)
                    .and_then(|(_, v)| match v {
                        ArgValue::U64(n) => Some(*n),
                        ArgValue::I64(n) => u64::try_from(*n).ok(),
                        _ => None,
                    })
            })
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanEvent> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }
}

/// One open operation: a fresh correlation id installed on this thread
/// plus the root `bench.op` span carrying it. Fields drop in order, so
/// the span records before the id is uninstalled.
pub struct Operation {
    _span: delta_obs::SpanGuard,
    _corr: delta_obs::CorrelationGuard,
}

/// Opens one operation of `kind`.
pub fn operation(kind: &'static str) -> Operation {
    let corr = delta_obs::trace::with_correlation(delta_obs::trace::next_correlation_id());
    Operation {
        _span: delta_obs::span!("bench.op", kind = kind),
        _corr: corr,
    }
}

//! What a workload run hands back, and the catalogs of metrics the
//! benchmark prints: the end-to-end metrics (untraced runs) and the
//! per-layer metrics (traced runs), each with the end-to-end metric and
//! workload a change in that layer should move.

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// How it was measured (sample count, source), for the human log.
    pub note: String,
}

impl Metric {
    /// A metric with its provenance note.
    pub fn new(name: &'static str, value: f64, note: impl Into<String>) -> Metric {
        Metric {
            name,
            value,
            note: note.into(),
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed work.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Check failures that invalidate the whole run (determinism,
    /// goldens, missing data).
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (filled in traced runs only).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Records a run-invalidating check failure.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.end_to_end.push(Metric::new(name, value, note));
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.layers.push(Metric::new(name, value, note));
    }

    /// `success_rate`: operations that completed and passed their
    /// output check over operations attempted.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }
}

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; `README.md` gives each one's definition per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("p50_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("model_err_dram", "ratio"),
    ("model_err_speedup", "ratio"),
];

/// Per-layer metrics: `(name, unit, what it should move)`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "engine.hit_rate",
        "ratio",
        "run_s on design_sweep; p50_ms on serve_mixed",
    ),
    ("engine.fanout_eff", "ratio", "run_s on design_sweep"),
    ("engine.warm_eval_us", "us", "p50_ms on serve_mixed"),
    ("sim.replays", "count", "run_s on design_sweep"),
    ("sim.replay_ms", "ms", "run_s on design_sweep"),
    (
        "sim.ctas_per_s",
        "1/s",
        "run_s on design_sweep and fleet_step",
    ),
    ("sim.unit_ms", "ms", "p50_ms on fleet_step"),
    ("sim.merge_ms", "ms", "p50_ms on fleet_step"),
    (
        "model.analyze_us",
        "us",
        "p50_ms on serve_mixed (cold share)",
    ),
    (
        "serve.p99_ms",
        "ms",
        "tail latency of serve_mixed (its p50_ms)",
    ),
    ("serve.cold_ms", "ms", "p50_ms on serve_mixed"),
    ("serve.warm_ms", "ms", "p50_ms on serve_mixed"),
    ("serve.dup_ms", "ms", "p50_ms on serve_mixed"),
    (
        "serve.max_rps",
        "1/s",
        "capacity of serve_mixed (serve.p99_ms at higher rates)",
    ),
    (
        "serve.overhead_ms",
        "ms",
        "p50_ms and serve.max_rps on serve_mixed",
    ),
    ("serve.body_hit_rate", "ratio", "p50_ms on serve_mixed"),
    ("serve.dedup_ratio", "ratio", "p50_ms on serve_mixed"),
    (
        "serve.gen_lateness_ms",
        "ms",
        "validity of p50_ms/serve.p99_ms on serve_mixed",
    ),
    (
        "fleet.jobs_per_query",
        "count",
        "p50_ms and success_rate on fleet_step",
    ),
    (
        "fleet.redispatches",
        "count",
        "p50_ms and success_rate on fleet_step",
    ),
    ("fleet.overhead_ms", "ms", "p50_ms on fleet_step"),
    (
        "self.bench_ms",
        "ms",
        "p50_ms (client-side work per operation)",
    ),
    (
        "self.engine_ms",
        "ms",
        "run_s on design_sweep; p50_ms on serve_mixed",
    ),
    (
        "self.sim_ms",
        "ms",
        "run_s on design_sweep; p50_ms on fleet_step",
    ),
    ("self.serve_ms", "ms", "p50_ms on serve_mixed"),
    ("self.fleet_ms", "ms", "p50_ms on fleet_step"),
    (
        "obs.overhead_pct",
        "%",
        "none: tracing cost, traced vs untraced rounds",
    ),
];

/// The unit of a catalog metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|(n, ..)| *n == name)
                .map(|(_, u, _)| *u)
        })
        .unwrap_or("?")
}

//! `design_sweep`: the paper's headline use (§VII-C, Fig. 16). A closed
//! loop with one caller runs the baseline plus the nine
//! `DesignOption::paper_options()` over ResNet152 with the trace-driven
//! simulator through `engine::evaluate_design_space`. Every point gets a
//! fresh engine, so every point is cold, as a new design always is.
//!
//! One operation is one design point; one round is all ten points in
//! the seeded order. A run does whole rounds: at least
//! [`MIN_ROUNDS`], then more while the next one is expected to end
//! within `--seconds` ([`stats::another_round`]). Each point is timed
//! by its fastest round: the work per point is fixed, and neighbours on
//! a shared host only ever add time to it, by tens of percent over
//! seconds to minutes, which a median over one run cannot average out.

use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::{self, Recording};
use crate::stats::{self, Digest};
use delta_bench::stats::gmae;
use delta_model::engine::{self, NetworkEvaluation};
use delta_model::query::{EvalQuery, Parallelism};
use delta_model::{ConvLayer, Delta, DesignOption, Engine, GpuSpec};
use delta_obs::span;
use delta_sim::{SimConfig, Simulator};
use std::cell::RefCell;
use std::collections::HashSet;
use std::time::Instant;

/// Goldens captured from this benchmark at the commit that added it:
/// one `b<batch>x<layers>/<option> <digest>` line per design point.
const GOLDENS: &str = include_str!("../golden/design_sweep.txt");

/// Run size.
pub struct Size {
    /// ResNet152 mini-batch.
    pub batch: u32,
    /// Leading ResNet152 layers swept (`None` = all 155).
    pub layers: Option<usize>,
    /// Design points per round (baseline first in the pool, then the
    /// nine paper options).
    pub points: usize,
    /// Rounds every run does.
    pub min_rounds: usize,
    /// Host seconds the rounds may take; more rounds run while the next
    /// one is expected to end within it.
    pub budget_s: f64,
    /// Fewest set-ups per run (`setup_s` is their median); a run also
    /// sets up once before each round.
    pub setups: usize,
}

/// Rounds every full-size run does, however slow the host.
pub const MIN_ROUNDS: usize = 3;

impl Size {
    /// The benchmark size for a `seconds`-long measurement.
    pub fn full(seconds: f64) -> Size {
        Size {
            batch: 4,
            layers: None,
            points: 10,
            min_rounds: MIN_ROUNDS,
            budget_s: seconds,
            setups: 5,
        }
    }

    /// A small size that still touches every layer this workload
    /// measures (used to fill per-layer metrics in other workloads'
    /// traced runs).
    pub fn probe() -> Size {
        Size {
            batch: 1,
            layers: Some(24),
            points: 2,
            min_rounds: 2,
            budget_s: 0.0,
            setups: 1,
        }
    }
}

/// The simulator for one design point: the scaled device plus the
/// option's CTA-tile growth (what `delta scaling --backend sim` builds).
pub fn scaled_simulator(
    opt: &DesignOption,
    base: &GpuSpec,
) -> Result<Simulator, delta_model::Error> {
    let tile_scale = (opt.cta_tile_hw > 128).then_some(opt.cta_tile_hw / 128);
    Ok(Simulator::new(
        opt.apply(base)?,
        SimConfig {
            tile_scale,
            ..SimConfig::default()
        },
    ))
}

/// Digest of every simulated statistic of one point, in row order.
fn digest(eval: &NetworkEvaluation) -> Digest {
    let mut d = Digest::default();
    for row in &eval.rows {
        let e = &row.estimate;
        d.bytes(row.label.as_bytes());
        for v in [
            e.l1_bytes,
            e.l2_bytes,
            e.dram_read_bytes,
            e.dram_write_bytes,
            e.l1_miss_rate,
            e.l2_miss_rate,
            e.cycles,
            e.seconds,
            e.link_bytes,
        ] {
            d.f64(v);
        }
    }
    d
}

/// The golden key of `option` over `layers` layers at `batch`.
fn golden_key(option: &str, batch: u32, layers: usize) -> String {
    format!("b{batch}x{layers}/{option}")
}

/// The golden digest for `key`, if captured.
fn golden(key: &str) -> Option<&'static str> {
    GOLDENS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            l.split_once(' ')
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| v.trim())
        })
}

/// One round's measurements.
struct Round {
    wall_s: f64,
    /// Per-point latency in ms, in execution order.
    latencies_ms: Vec<f64>,
    /// Replays per point, in execution order.
    replays: Vec<u64>,
    points: Vec<engine::DesignPointEvaluation>,
}

/// Runs one round: every option through one `evaluate_design_space`
/// call. Point boundaries are observed from outside through the
/// backend factory, which the engine calls once per point, in order.
fn round(order: &[DesignOption], layers: &[ConvLayer], base: &GpuSpec) -> Result<Round, String> {
    let starts: RefCell<Vec<(Instant, Simulator)>> = RefCell::new(Vec::new());
    // The open operation (correlation id + root span) of the current
    // point; replaced as the engine moves to the next point.
    let op = RefCell::new(None);
    let t0 = Instant::now();
    let points = {
        let _call = span!("engine.evaluate_design_space", points = order.len());
        let points = engine::evaluate_design_space(order, layers, |opt| {
            drop(op.take());
            let sim = scaled_simulator(opt, base)?;
            starts.borrow_mut().push((Instant::now(), sim.clone()));
            *op.borrow_mut() = Some(spans::operation("design_point"));
            Ok(sim)
        });
        drop(op.take());
        points.map_err(|e| format!("design sweep failed: {e}"))?
    };
    let end = Instant::now();
    let starts = starts.into_inner();
    let latencies_ms = starts
        .iter()
        .enumerate()
        .map(|(i, (t, _))| {
            let next = starts.get(i + 1).map_or(end, |(n, _)| *n);
            (next - *t).as_secs_f64() * 1e3
        })
        .collect();
    Ok(Round {
        wall_s: (end - t0).as_secs_f64(),
        latencies_ms,
        replays: starts.iter().map(|(_, s)| s.replay_count()).collect(),
        points,
    })
}

/// Runs the workload.
pub fn run(seed: u64, size: &Size, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let base = GpuSpec::titan_xp();
    let mut pool = design_points();
    pool.truncate(size.points);
    let mut order = pool.clone();
    Rng::new(seed, 1).shuffle(&mut order);
    println!(
        "design_sweep: ResNet152 B={} on {}, order [{}]",
        size.batch,
        base.name(),
        order
            .iter()
            .map(|o| o.name.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Set-up: build the network, then one untimed warm-up point (a cold
    // baseline evaluation). One before each round and at least
    // `size.setups` in all, so their median spans the run, as the
    // rounds do, instead of only its first seconds.
    let set_up = |setup_s: &mut Vec<f64>| -> Result<Vec<ConvLayer>, String> {
        let t = Instant::now();
        let net =
            delta_networks::resnet152_full(size.batch).map_err(|e| format!("network: {e}"))?;
        let layers = net.layers()[..size.layers.unwrap_or(net.len()).min(net.len())].to_vec();
        engine::evaluate_design_space(&pool[..1], &layers, |o| scaled_simulator(o, &base))
            .map_err(|e| format!("warm-up: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(layers)
    };
    let mut setup_s = Vec::new();
    let layers = match set_up(&mut setup_s) {
        Ok(l) => l,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };

    // Independent expectation for the deterministic counts: a fresh
    // engine misses once per unique query and hits on every repeat.
    let unique = layers
        .iter()
        .map(|l| EvalQuery::forward(l, Parallelism::Single).fingerprint())
        .collect::<HashSet<_>>()
        .len() as u64;
    let per_round_layers = (layers.len() * order.len()) as u64;

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let mut recording = Recording::new();
    let mut round_replays: Vec<u64> = Vec::new();
    let mut last: Option<Round> = None;
    let mut all_walls = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    while stats::another_round(rounds, started, &all_walls, size.min_rounds, size.budget_s) {
        let r = rounds;
        rounds += 1;
        if r > 0 {
            if let Err(e) = set_up(&mut setup_s) {
                out.problem(e);
            }
        }
        let trace_this = traced && r % 2 == 1;
        if trace_this {
            recording.resume();
        }
        let result = round(&order, &layers, &base);
        if trace_this {
            recording.pause();
        }
        let rd = match result {
            Ok(rd) => rd,
            Err(e) => {
                out.attempted += order.len() as u64;
                out.failed += order.len() as u64;
                out.problem(e);
                continue;
            }
        };
        out.attempted += rd.points.len() as u64;
        for (i, p) in rd.points.iter().enumerate() {
            let got = digest(&p.evaluation).hex();
            let key = golden_key(&p.option.name, size.batch, layers.len());
            if r == 0 {
                println!("  digest {key} {got}");
            }
            if golden(&key) != Some(got.as_str()) {
                out.failed += 1;
                if r == 0 {
                    out.problem(format!(
                        "point {key}: digest {got} does not match golden {:?}",
                        golden(&key)
                    ));
                }
            }
            if rd.replays[i] != unique {
                out.problem(format!(
                    "point {}: {} replays, expected {unique} (one per unique layer)",
                    p.option.name, rd.replays[i]
                ));
            }
        }
        round_replays.push(rd.replays.iter().sum());
        all_walls.push(rd.wall_s);
        if trace_this {
            traced_walls.push(rd.wall_s);
        } else {
            walls.push(rd.wall_s);
            for (samples, ms) in per_point.iter_mut().zip(&rd.latencies_ms) {
                samples.push(*ms);
            }
        }
        last = Some(rd);
    }
    while setup_s.len() < size.setups {
        if let Err(e) = set_up(&mut setup_s) {
            out.problem(e);
            break;
        }
    }
    if round_replays.windows(2).any(|w| w[0] != w[1]) {
        out.problem(format!(
            "replay counts differ between rounds: {round_replays:?}"
        ));
    }
    let Some(last) = last else {
        out.problem("no round completed");
        return out;
    };

    // The sweep digest over every point, in option-name order, so a
    // speed-only change can show every simulated statistic unchanged.
    let mut all = Digest::default();
    let mut by_name: Vec<_> = last.points.iter().collect();
    by_name.sort_by(|a, b| a.option.name.cmp(&b.option.name));
    for p in &by_name {
        all.bytes(digest(&p.evaluation).hex().as_bytes());
    }
    println!("  sweep digest {} ({} points)", all.hex(), by_name.len());

    // Accuracy (deterministic), against the sweep's own simulated points.
    let acc = accuracy(&base, &layers, &last.points).unwrap_or_else(|e| {
        out.problem(e);
        Accuracy::default()
    });

    out.e2e(
        "setup_s",
        stats::median(&setup_s),
        format!("median of {} set-ups", setup_s.len()),
    );
    println!(
        "  round walls (s): {}",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  median round wall {:.3} s, median point {:.1} ms",
        stats::median(&walls),
        stats::median_of_medians(&per_point)
    );
    let best: Vec<f64> = per_point.iter().map(|v| stats::min(v)).collect();
    out.e2e(
        "run_s",
        best.iter().sum::<f64>() / 1e3,
        format!(
            "sum over {} points of each one's fastest of {} rounds",
            best.len(),
            walls.len()
        ),
    );
    out.e2e(
        "p50_ms",
        stats::median(&best),
        format!(
            "median over {} points of each one's fastest of {} rounds",
            best.len(),
            walls.len()
        ),
    );
    out.e2e(
        "model_err_dram",
        acc.dram,
        format!("GMAE over {} layers", layers.len()),
    );
    out.e2e(
        "model_err_speedup",
        acc.speedup,
        "GMAE over the Fig. 16a options",
    );

    if traced {
        layer_metrics(
            &mut out,
            &recording,
            &layers,
            &base,
            &acc.analyze_us,
            LayerCtx {
                per_round_layers,
                unique,
                points: order.len(),
                traced_rounds: traced_walls.len(),
                replays_per_round: round_replays[0],
                overhead_pct: (stats::median(&traced_walls) / stats::median(&walls) - 1.0) * 100.0,
            },
        );
    }
    out
}

/// The baseline followed by the nine Fig. 16a options.
pub fn design_points() -> Vec<DesignOption> {
    let mut points = vec![DesignOption::baseline()];
    points.extend(DesignOption::paper_options());
    points
}

/// Simulates every design point over `layers`, a fresh engine each.
pub fn simulate_points(
    base: &GpuSpec,
    layers: &[ConvLayer],
) -> Result<Vec<engine::DesignPointEvaluation>, String> {
    engine::evaluate_design_space(&design_points(), layers, |o| scaled_simulator(o, base))
        .map_err(|e| format!("simulated design points: {e}"))
}

/// How closely the analytical model tracks the simulator (deterministic).
#[derive(Debug)]
pub struct Accuracy {
    /// GMAE of per-layer DRAM reads at the baseline point.
    pub dram: f64,
    /// GMAE of the non-baseline points' speedups over the baseline.
    pub speedup: f64,
    /// Host microseconds per `Delta::analyze`, one sample per layer
    /// (each the mean of [`ANALYZE_REPS`] calls).
    pub analyze_us: Vec<f64>,
}

impl Default for Accuracy {
    fn default() -> Self {
        Accuracy {
            dram: f64::NAN,
            speedup: f64::NAN,
            analyze_us: Vec::new(),
        }
    }
}

/// Calls per `Delta::analyze` timing sample (one call is sub-microsecond).
const ANALYZE_REPS: u32 = 100;

/// Compares the model with simulated design points `sim` (one of them
/// the baseline) over `layers`.
pub fn accuracy(
    base: &GpuSpec,
    layers: &[ConvLayer],
    sim: &[engine::DesignPointEvaluation],
) -> Result<Accuracy, String> {
    let sim_base = sim
        .iter()
        .find(|p| p.option.name == "baseline")
        .ok_or("no simulated baseline point")?;
    let delta = Delta::new(base.clone());
    let mut ratios = Vec::with_capacity(layers.len());
    let mut analyze_us = Vec::with_capacity(layers.len());
    for (layer, row) in layers.iter().zip(&sim_base.evaluation.rows) {
        let t = Instant::now();
        for _ in 1..ANALYZE_REPS {
            std::hint::black_box(delta.analyze(std::hint::black_box(layer)).ok());
        }
        let report = delta.analyze(layer).map_err(|e| e.to_string())?;
        analyze_us.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(ANALYZE_REPS));
        ratios.push(report.traffic.dram_bytes / row.estimate.dram_read_bytes);
    }
    let options: Vec<DesignOption> = sim.iter().map(|p| p.option.clone()).collect();
    let model = engine::evaluate_design_space(&options, layers, |o| o.model(base))
        .map_err(|e| format!("model design points: {e}"))?;
    let model_base = model
        .iter()
        .find(|p| p.option.name == "baseline")
        .expect("same options as the simulated points");
    let (s0, m0) = (
        sim_base.evaluation.total_seconds(),
        model_base.evaluation.total_seconds(),
    );
    let speedups: Vec<f64> = sim
        .iter()
        .zip(&model)
        .filter(|(s, _)| s.option.name != "baseline")
        .map(|(s, m)| m.speedup_over(m0) / s.speedup_over(s0))
        .collect();
    // `gmae` skips ratios it cannot take a logarithm of; here every one
    // must count.
    if !ratios
        .iter()
        .chain(&speedups)
        .all(|r| r.is_finite() && *r > 0.0)
    {
        return Err("model/simulator ratio is not a positive number".into());
    }
    Ok(Accuracy {
        dram: gmae(&ratios),
        speedup: gmae(&speedups),
        analyze_us,
    })
}

struct LayerCtx {
    per_round_layers: u64,
    unique: u64,
    points: usize,
    traced_rounds: usize,
    replays_per_round: u64,
    overhead_pct: f64,
}

/// Per-layer metrics of a traced run.
fn layer_metrics(
    out: &mut Outcome,
    rec: &Recording,
    layers: &[ConvLayer],
    base: &GpuSpec,
    analyze_us: &[f64],
    ctx: LayerCtx,
) {
    // Engine cache behaviour, from the engine's own spans: every
    // `engine.evaluate` looks up `queries`, every miss batch runs
    // `engine.cache_miss_backend` over the misses.
    let lookups = rec.arg_sum("engine.evaluate", "queries");
    let misses = rec.arg_sum("engine.cache_miss_backend", "queries");
    let expect_lookups = ctx.per_round_layers * ctx.traced_rounds as u64;
    let expect_misses = ctx.unique * (ctx.points * ctx.traced_rounds) as u64;
    if lookups != expect_lookups || misses != expect_misses {
        out.problem(format!(
            "engine counts: {lookups} lookups / {misses} misses, expected {expect_lookups} / {expect_misses}"
        ));
    }
    out.layer(
        "engine.hit_rate",
        (lookups - misses.min(lookups)) as f64 / lookups.max(1) as f64,
        format!(
            "{} hits, {misses} misses over traced rounds",
            lookups - misses.min(lookups)
        ),
    );
    let replay_ms: f64 = rec.durations_ms("sim.replay").iter().sum();
    let evaluate_ms: f64 = rec.durations_ms("engine.evaluate").iter().sum();
    let threads = rayon::current_num_threads() as f64;
    out.layer(
        "engine.fanout_eff",
        replay_ms / (threads * evaluate_ms),
        format!("replay time / ({threads} threads x evaluate_network wall)"),
    );
    out.layer(
        "sim.replays",
        ctx.replays_per_round as f64,
        "per round, exact",
    );

    // Direct calls, outside the sweep: cold Simulator::run per unique
    // layer, then warm Engine::evaluate on cached queries.
    let sim = Simulator::new(base.clone(), SimConfig::default());
    let mut seen = HashSet::new();
    let mut run_ms = Vec::new();
    let (mut ctas, mut run_s) = (0u64, 0.0);
    for l in layers {
        if !seen.insert(EvalQuery::forward(l, Parallelism::Single).fingerprint()) {
            continue;
        }
        let t = Instant::now();
        let m = {
            let _s = span!("sim.run");
            sim.run(l)
        };
        let dt = t.elapsed().as_secs_f64();
        run_ms.push(dt * 1e3);
        run_s += dt;
        ctas += m.simulated_ctas;
    }
    out.layer(
        "sim.replay_ms",
        stats::median(&run_ms),
        format!("p50 of Simulator::run over {} unique layers", run_ms.len()),
    );
    out.layer(
        "sim.ctas_per_s",
        ctas as f64 / run_s,
        format!("{ctas} simulated CTAs"),
    );
    let engine = Engine::new(Simulator::new(base.clone(), SimConfig::default()));
    let queries: Vec<EvalQuery> = layers
        .iter()
        .map(|l| EvalQuery::forward(l, Parallelism::Single))
        .collect();
    if let Err(e) = engine.evaluate_network(layers, &Parallelism::Single) {
        out.problem(format!("warm-up network: {e}"));
    }
    let mut warm_us = Vec::new();
    for q in queries.iter().cycle().take(2000) {
        let t = Instant::now();
        let r = engine.evaluate(q);
        warm_us.push(t.elapsed().as_secs_f64() * 1e6);
        if r.is_err() {
            out.problem("warm evaluate failed");
            break;
        }
    }
    out.layer(
        "engine.warm_eval_us",
        stats::median(&warm_us),
        format!("p50 of {} cached Engine::evaluate", warm_us.len()),
    );
    out.layer(
        "model.analyze_us",
        stats::median(analyze_us),
        format!("Delta::analyze over {} layers", analyze_us.len()),
    );
    rec.report_self_times(out, ctx.points * ctx.traced_rounds, "design point");
    out.layer(
        "obs.overhead_pct",
        ctx.overhead_pct,
        "median traced vs untraced round wall",
    );
}

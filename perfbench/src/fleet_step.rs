//! `fleet_step`: a closed loop with one caller sends a seeded list of
//! multi-GPU `StepQuery`s over the layers of one GPT2-S transformer
//! block on the A100 to a `delta_fleet::Coordinator` with two
//! in-process executors on loopback. Every answer is compared byte for
//! byte with the in-process `evaluate_step` of the same query.
//!
//! The work lands in the fleet (dispatch, framing, merge) and in the
//! simulator's unit-replay entry points on the tensor-core path. One
//! operation is one step query; one round is the whole query list; a
//! run does whole rounds, as many as fit `--seconds` and at least
//! [`MIN_ROUNDS`] ([`stats::another_round`]).

use crate::design_sweep::{accuracy, simulate_points, Accuracy};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::{self, Recording};
use crate::stats;
use delta_fleet::{Coordinator, ExecutorHandle, FleetConfig};
use delta_model::query::{Parallelism, StepQuery};
use delta_model::{Backend, ConvLayer, GpuSpec, InterconnectKind, TopologyKind};
use delta_obs::span;
use delta_sim::{SimConfig, Simulator};
use std::time::Instant;

/// Run size.
pub struct Size {
    /// Block layers queried; each layer appears once per round.
    pub layers: &'static [usize],
    /// Rounds every run does.
    pub min_rounds: usize,
    /// Host seconds the rounds may take; more rounds run while the next
    /// one is expected to end within it.
    pub budget_s: f64,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
}

/// Executors in the fleet (one per core of the reference host).
const EXECUTORS: u32 = 2;

/// Rounds every full-size run does, however slow the host.
pub const MIN_ROUNDS: usize = 3;

/// The block layer the warm-up query and the design-option accuracy
/// sweep use: the projection GEMM, the cheapest to replay.
const PROJ: usize = 2;

impl Size {
    /// The benchmark size for a `seconds`-long measurement.
    pub fn full(seconds: f64) -> Size {
        Size {
            layers: &[0, 1, 2, 3, 4],
            min_rounds: MIN_ROUNDS,
            budget_s: seconds,
            setups: 5,
        }
    }

    /// A small size that still touches every layer this workload
    /// measures.
    pub fn probe() -> Size {
        Size {
            layers: &[PROJ],
            min_rounds: 2,
            budget_s: 0.0,
            setups: 1,
        }
    }
}

/// The seeded query list: every requested block layer once, in seeded
/// order, each with seeded device count, fabric, topology, bucket size
/// and overlap. The knobs change the merge and pricing, not the replay
/// volume, so every seed does the same amount of simulation.
fn queries(seed: u64, block: &[ConvLayer], which: &[usize]) -> Vec<StepQuery> {
    let mut rng = Rng::new(seed, 3);
    let mut order = which.to_vec();
    rng.shuffle(&mut order);
    let gpu = GpuSpec::a100();
    order
        .into_iter()
        .map(|i| {
            let devices = *rng.pick(&[2u32, 4]);
            let interconnect = *rng.pick(&[
                InterconnectKind::NvLink,
                InterconnectKind::Pcie,
                InterconnectKind::Ideal,
            ]);
            let topology = *rng.pick(&[None, Some(TopologyKind::Ring), Some(TopologyKind::Switch)]);
            let mut q = StepQuery::new(
                std::slice::from_ref(&block[i]),
                Parallelism::Multi {
                    devices: vec![gpu.clone(); devices as usize],
                    interconnect,
                    topology,
                },
            );
            q.bucket_mb = *rng.pick(&[4, 25]);
            q.overlap = *rng.pick(&[false, true]);
            q
        })
        .collect()
}

/// A running fleet: executors plus the coordinator dialed to them.
struct Fleet {
    coordinator: Coordinator,
    executors: Vec<ExecutorHandle>,
}

impl Fleet {
    /// Spawns the executors and handshakes the coordinator with them.
    fn start(sim: &Simulator) -> Result<Fleet, String> {
        let executors = {
            let _s = span!("fleet.spawn_local_executors");
            delta_fleet::spawn_local_executors(sim, EXECUTORS).map_err(|e| format!("spawn: {e}"))?
        };
        let addrs = executors.iter().map(|h| h.addr().to_string()).collect();
        let coordinator = {
            let _s = span!("fleet.connect");
            Coordinator::connect(sim.clone(), FleetConfig::new(addrs))
                .map_err(|e| format!("connect: {e}"))?
        };
        Ok(Fleet {
            coordinator,
            executors,
        })
    }

    fn stop(mut self) {
        for e in &mut self.executors {
            e.shutdown();
        }
    }
}

/// The serialized answer of `backend` to `q`, with its host time.
fn answer(backend: &dyn Backend, q: &StepQuery) -> (Result<String, String>, f64) {
    let t = Instant::now();
    let result = backend
        .evaluate_step(q)
        .map_err(|e| e.to_string())
        .and_then(|a| serde_json::to_string(&a).map_err(|e| e.to_string()));
    (result, t.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(seed: u64, size: &Size, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let gpu = GpuSpec::a100();
    let block = match delta_networks::gpt2s(1) {
        Ok(net) => net.layers()[..5].to_vec(),
        Err(e) => {
            out.problem(format!("network: {e}"));
            return out;
        }
    };
    let list = queries(seed, &block, size.layers);
    println!(
        "fleet_step: GPT2-S block B=1 on {}, {EXECUTORS} executors, queries [{}]",
        gpu.name(),
        list.iter()
            .map(|q| format!(
                "{}/g{}/b{}{}",
                q.layers[0].label(),
                q.parallelism.device_count(),
                q.bucket_mb,
                if q.overlap { "/ov" } else { "" }
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let sim = Simulator::new(gpu.clone(), SimConfig::default());
    let warm_up = StepQuery::new(
        std::slice::from_ref(&block[PROJ]),
        Parallelism::multi(&gpu, EXECUTORS, InterconnectKind::NvLink),
    );

    // Set-up: spawn the executors, handshake, one untimed warm-up query.
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..size.setups {
        if let Some(old) = fleet.take() {
            Fleet::stop(old);
        }
        let t = Instant::now();
        let started =
            Fleet::start(&sim).and_then(|f| answer(&f.coordinator, &warm_up).0.map(|_| f));
        match started {
            Ok(f) => fleet = Some(f),
            Err(e) => {
                out.problem(format!("set-up: {e}"));
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let fleet = fleet.expect("at least one set-up");

    // Timed rounds.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_query_ms: Vec<Vec<f64>> = vec![Vec::new(); list.len()];
    let mut answers: Vec<Vec<Result<String, String>>> = vec![Vec::new(); list.len()];
    let mut jobs: Vec<Vec<u64>> = vec![Vec::new(); list.len()];
    let mut recording = Recording::new();
    let before = fleet.coordinator.stats();
    let mut all_walls = Vec::new();
    let started = Instant::now();
    while stats::another_round(
        all_walls.len(),
        started,
        &all_walls,
        size.min_rounds,
        size.budget_s,
    ) {
        let r = all_walls.len();
        let trace_this = traced && r % 2 == 1;
        if trace_this {
            recording.resume();
        }
        let t0 = Instant::now();
        for (i, q) in list.iter().enumerate() {
            let dispatched = fleet.coordinator.stats().dispatched;
            let (result, dt) = {
                let _op = spans::operation("step_query");
                let _s = span!("fleet.evaluate_step");
                answer(&fleet.coordinator, q)
            };
            jobs[i].push(fleet.coordinator.stats().dispatched - dispatched);
            if !trace_this {
                per_query_ms[i].push(dt * 1e3);
            }
            answers[i].push(result);
        }
        let wall = t0.elapsed().as_secs_f64();
        all_walls.push(wall);
        if trace_this {
            recording.pause();
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
    }
    let stats_run = fleet.coordinator.stats();
    Fleet::stop(fleet);

    // Checks: byte identity with the in-process simulator, and the
    // deterministic job counts.
    let mut inproc_ms = Vec::new();
    for (i, q) in list.iter().enumerate() {
        let (reference, dt) = answer(&sim, q);
        inproc_ms.push(dt * 1e3);
        for got in &answers[i] {
            out.attempted += 1;
            let ok = matches!((got, &reference), (Ok(a), Ok(b)) if a == b);
            if !ok {
                out.failed += 1;
            }
        }
        if let Err(e) = &reference {
            out.problem(format!("in-process reference for query {i}: {e}"));
        }
        if jobs[i].windows(2).any(|w| w[0] != w[1]) {
            out.problem(format!(
                "query {i}: job counts differ between rounds: {:?}",
                jobs[i]
            ));
        }
    }
    let redispatches = stats_run.redispatches - before.redispatches;

    // Accuracy (deterministic), single-device on the block's projection
    // GEMM, the cheapest layer to sweep over every design point. (The
    // multi-device answers partition tile columns exactly as the model
    // assumes, so they would agree with it by construction.)
    let proj = std::slice::from_ref(&block[PROJ]);
    let acc = simulate_points(&gpu, proj)
        .and_then(|sim| accuracy(&gpu, proj, &sim))
        .unwrap_or_else(|e| {
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
    out.e2e(
        "run_s",
        stats::median(&walls),
        format!("median of {} rounds", walls.len()),
    );
    out.e2e(
        "p50_ms",
        stats::median_of_medians(&per_query_ms),
        format!(
            "median over {} queries of each one's median over {} rounds",
            per_query_ms.len(),
            walls.len()
        ),
    );
    out.e2e(
        "model_err_dram",
        acc.dram,
        "GMAE on the block projection, single device",
    );
    out.e2e(
        "model_err_speedup",
        acc.speedup,
        "GMAE over the Fig. 16a options on the block projection",
    );

    if traced {
        let n_jobs: u64 = jobs.iter().map(|j| j[0]).sum();
        out.layer(
            "fleet.jobs_per_query",
            n_jobs as f64 / list.len() as f64,
            format!("{n_jobs} jobs over {} queries", list.len()),
        );
        out.layer("fleet.redispatches", redispatches as f64, "over the run");
        let overhead: Vec<f64> = per_query_ms
            .iter()
            .zip(&inproc_ms)
            .map(|(fleet_ms, local)| stats::median(fleet_ms) - local)
            .collect();
        out.layer(
            "fleet.overhead_ms",
            stats::median(&overhead),
            "p50 over queries: fleet wall - in-process evaluate_step",
        );
        let mut units = recording.durations_ms("sim.replay_column");
        units.extend(recording.durations_ms("sim.replay_segment"));
        out.layer(
            "sim.unit_ms",
            stats::median(&units),
            format!("p50 of {} unit replays", units.len()),
        );
        let merges = recording.durations_ms("sim.merge");
        out.layer(
            "sim.merge_ms",
            stats::median(&merges),
            format!("p50 of {} merges", merges.len()),
        );
        let (mut ctas, mut secs) = (0u64, 0.0);
        for l in size.layers.iter().map(|i| &block[*i]) {
            let t = Instant::now();
            ctas += sim.run(l).simulated_ctas;
            secs += t.elapsed().as_secs_f64();
        }
        out.layer(
            "sim.ctas_per_s",
            ctas as f64 / secs,
            format!("Simulator::run over {} block layers", size.layers.len()),
        );
        out.layer(
            "model.analyze_us",
            stats::median(&acc.analyze_us),
            format!("Delta::analyze over {} layers", acc.analyze_us.len()),
        );
        recording.report_self_times(&mut out, list.len() * traced_walls.len(), "query");
        out.layer(
            "obs.overhead_pct",
            (stats::median(&traced_walls) / stats::median(&walls) - 1.0) * 100.0,
            "median traced vs untraced round wall",
        );
    }
    out
}

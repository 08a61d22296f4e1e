//! Host-time benchmark of the DeLTA workspace.
//!
//! ```text
//! perfbench --workload design_sweep|serve_mixed|fleet_step --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds seeded inputs, runs a fixed list of work sized from
//! `--seconds`, checks every output, and prints the metrics — the
//! end-to-end catalog untraced, the per-layer catalog traced — followed
//! by one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when any check fails, 2 on a usage error.
//!
//! A traced run measures its own workload's layers from spans and
//! direct calls; catalog entries for layers the workload never touches
//! come from a small probe of the workload that does.

mod design_sweep;
mod fleet_step;
mod report;
mod rng;
mod serve_mixed;
mod spans;
mod stats;

use report::{Metric, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload design_sweep|serve_mixed|fleet_step --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// Runs `workload` at full size (or its probe size).
fn run_workload(workload: &str, args: &Args, probe: bool, traced: bool) -> Option<Outcome> {
    Some(match workload {
        "design_sweep" => {
            let size = if probe {
                design_sweep::Size::probe()
            } else {
                design_sweep::Size::full(args.seconds)
            };
            design_sweep::run(args.seed, &size, traced)
        }
        "serve_mixed" => {
            let size = if probe {
                serve_mixed::Size::probe()
            } else {
                serve_mixed::Size::full(args.seconds)
            };
            serve_mixed::run(args.seed, &size, traced)
        }
        "fleet_step" => {
            let size = if probe {
                fleet_step::Size::probe()
            } else {
                fleet_step::Size::full(args.seconds)
            };
            fleet_step::run(args.seed, &size, traced)
        }
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("error: --workload is required\n{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut outcome) = run_workload(&args.workload, &args, false, args.trace) else {
        eprintln!("error: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    outcome.e2e_success_and_rss();

    let metrics: Vec<(Metric, &str)> = if args.trace {
        // Fill catalog entries the workload does not touch from probes
        // of the workloads that do (probe failures fail this run too).
        for other in ["design_sweep", "serve_mixed", "fleet_step"] {
            let missing = PER_LAYER
                .iter()
                .any(|(n, ..)| !outcome.layers.iter().any(|m| m.name == *n));
            if other == args.workload || !missing {
                continue;
            }
            let probe = run_workload(other, &args, true, true).expect("known workload");
            outcome.failed += probe.failed;
            outcome.attempted += probe.attempted;
            for p in probe.problems {
                outcome.problem(format!("{other} probe: {p}"));
            }
            for m in probe.layers {
                if !outcome.layers.iter().any(|have| have.name == m.name) {
                    let note = format!("{} [{other} probe]", m.note);
                    outcome.layers.push(Metric::new(m.name, m.value, note));
                }
            }
        }
        collect(
            &mut outcome,
            PER_LAYER.iter().map(|(n, _, moves)| (*n, *moves)),
            true,
        )
    } else {
        collect(
            &mut outcome,
            END_TO_END.iter().map(|(n, _)| (*n, "")),
            false,
        )
    };

    println!(
        "--- {} (seed {}, {} metrics) ---",
        args.workload,
        args.seed,
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for (m, moves) in &metrics {
        let unit = report::unit_of(m.name);
        if moves.is_empty() {
            println!("{:<22} {:>14.6} {:<6} {}", m.name, m.value, unit, m.note);
        } else {
            println!(
                "{:<22} {:>14.6} {:<6} {} -> moves {moves}",
                m.name, m.value, unit, m.note
            );
        }
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, _)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                report::unit_of(m.name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Picks the catalog's metrics out of the outcome, in catalog order. A
/// missing or non-finite value is a failed check: it is printed as 0 and
/// the run is marked incorrect.
fn collect<'a>(
    outcome: &mut Outcome,
    catalog: impl Iterator<Item = (&'static str, &'a str)>,
    per_layer: bool,
) -> Vec<(Metric, &'a str)> {
    let pool = if per_layer {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    let mut missing = Vec::new();
    let picked = catalog
        .map(|(name, moves)| match pool.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => (m.clone(), moves),
            _ => {
                missing.push(name);
                (Metric::new(name, 0.0, "MISSING"), moves)
            }
        })
        .collect();
    for name in missing {
        outcome.problem(format!("metric {name} was not measured"));
    }
    picked
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

impl Outcome {
    /// Adds the two end-to-end metrics every workload shares.
    fn e2e_success_and_rss(&mut self) {
        let rate = self.success_rate();
        let note = format!(
            "{} of {} operations",
            self.attempted - self.failed.min(self.attempted),
            self.attempted
        );
        self.e2e("success_rate", rate, note);
        self.e2e("peak_rss_mb", stats::peak_rss_mb(), "VmHWM of this process");
    }
}

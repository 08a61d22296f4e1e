//! Integration suite for the distributed executor fleet: real sockets,
//! real worker processes' worth of isolation (each executor owns its
//! own `Simulator`), and the merge contract checked the strictest way
//! available — **byte-identical JSON** between the distributed answer
//! and the in-process one.
//!
//! Pins, end to end:
//!
//! * `EvalQuery` answers (Single / Sharded / Multi, forward and wgrad)
//!   are bitwise identical to the local backend for executor counts
//!   {1, 2, 4};
//! * `StepQuery` answers (table + timeline) are bitwise identical too;
//! * killing an executor mid-run re-queues its jobs and still answers
//!   bitwise identically;
//! * duplicate reply delivery is dropped idempotently;
//! * a stalled fleet exhausts the bounded retry budget with a clean
//!   `Error::Fleet`, never a hang or a partial result;
//! * the handshake refuses a mismatched backend fingerprint with an
//!   error naming both sides.

use delta_fleet::{
    spawn_local_executors, Coordinator, ExecutorConfig, FaultPlan, FleetConfig, PROTOCOL_VERSION,
};
use delta_model::{
    Backend, ConvLayer, Error, EvalQuery, GpuSpec, InterconnectKind, Parallelism, Pass, StepQuery,
};
use delta_sim::{SimConfig, Simulator};
use std::time::Duration;

fn sim() -> Simulator {
    Simulator::new(GpuSpec::titan_xp(), SimConfig::default())
}

/// Co = 512 -> LARGE tile -> several tile columns (the column axis).
fn wide_layer() -> ConvLayer {
    ConvLayer::builder("wide")
        .batch(2)
        .input(16, 14, 14)
        .output_channels(512)
        .filter(3, 3)
        .pad(1)
        .build()
        .unwrap()
}

/// Few columns, many batches -> the row axis under high worker counts.
fn narrow_layer() -> ConvLayer {
    ConvLayer::builder("narrow")
        .batch(64)
        .input(64, 14, 14)
        .output_channels(128)
        .filter(3, 3)
        .pad(1)
        .build()
        .unwrap()
}

/// Spawns `n` local executors and a coordinator over them, with test
/// patience (short timeout so failure paths run fast, generous budget
/// unless a test overrides it).
fn fleet(n: u32) -> (Vec<delta_fleet::ExecutorHandle>, Coordinator) {
    let handles = spawn_local_executors(&sim(), n).expect("spawn executors");
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    let config = FleetConfig {
        executors: addrs,
        job_timeout: Duration::from_secs(10),
        retry_budget: 3,
    };
    let coordinator = Coordinator::connect(sim(), config).expect("handshake");
    (handles, coordinator)
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialize")
}

fn devices(g: usize) -> Parallelism {
    Parallelism::Multi {
        devices: vec![GpuSpec::titan_xp(); g],
        interconnect: InterconnectKind::NvLink,
        topology: None,
    }
}

#[test]
fn eval_queries_are_bitwise_identical_for_every_executor_count() {
    let local = sim();
    let queries = [
        EvalQuery::new(&wide_layer(), Pass::Fwd, Parallelism::Single),
        EvalQuery::new(
            &wide_layer(),
            Pass::Fwd,
            Parallelism::Sharded { workers: 3 },
        ),
        // More workers than the narrow layer has columns: the row axis.
        EvalQuery::new(
            &narrow_layer(),
            Pass::Fwd,
            Parallelism::Sharded { workers: 5 },
        ),
        EvalQuery::new(
            &wide_layer(),
            Pass::Dgrad,
            Parallelism::Sharded { workers: 2 },
        ),
        EvalQuery::new(&wide_layer(), Pass::Fwd, devices(2)),
        // Wgrad under Multi exercises the all-reduce surcharge path.
        EvalQuery::new(&wide_layer(), Pass::Wgrad, devices(2)),
    ];
    let expected: Vec<String> = queries
        .iter()
        .map(|q| json(&local.evaluate(q).expect("local evaluate")))
        .collect();
    for executors in [1u32, 2, 4] {
        let (_handles, coordinator) = fleet(executors);
        for (q, want) in queries.iter().zip(&expected) {
            let got = json(&coordinator.evaluate(q).expect("fleet evaluate"));
            assert_eq!(&got, want, "executors={executors} query={q:?}");
        }
    }
}

#[test]
fn step_queries_are_bitwise_identical_for_every_executor_count() {
    let local = sim();
    let layers = [wide_layer(), narrow_layer()];
    let queries = [
        StepQuery::new(&layers, Parallelism::Sharded { workers: 4 }),
        StepQuery::new(&layers, devices(2)),
    ];
    let expected: Vec<String> = queries
        .iter()
        .map(|q| json(&local.evaluate_step(q).expect("local step")))
        .collect();
    for executors in [1u32, 2, 4] {
        let (_handles, coordinator) = fleet(executors);
        for (q, want) in queries.iter().zip(&expected) {
            let got = json(&coordinator.evaluate_step(q).expect("fleet step"));
            assert_eq!(&got, want, "executors={executors}");
        }
    }
}

#[test]
fn a_mid_run_executor_death_recovers_bitwise() {
    let local = sim();
    let query = EvalQuery::new(
        &wide_layer(),
        Pass::Fwd,
        Parallelism::Sharded { workers: 4 },
    );
    let want = json(&local.evaluate(&query).expect("local evaluate"));

    // One healthy executor, one that dies after its first job: its
    // remaining jobs must be re-queued onto the survivor.
    let healthy = delta_fleet::executor::spawn(sim(), ExecutorConfig::new("127.0.0.1:0"))
        .expect("spawn healthy");
    let doomed = delta_fleet::executor::spawn(
        sim(),
        ExecutorConfig {
            addr: "127.0.0.1:0".into(),
            fault: FaultPlan {
                die_after_jobs: Some(1),
                ..FaultPlan::default()
            },
        },
    )
    .expect("spawn doomed");
    let coordinator = Coordinator::connect(
        sim(),
        FleetConfig {
            executors: vec![healthy.addr().to_string(), doomed.addr().to_string()],
            job_timeout: Duration::from_secs(10),
            retry_budget: 5,
        },
    )
    .expect("handshake");

    let got = json(&coordinator.evaluate(&query).expect("fleet evaluate"));
    assert_eq!(got, want, "death recovery must not change a single byte");
    let stats = coordinator.stats();
    assert!(
        stats.redispatches >= 1,
        "the dead executor's job must have been re-dispatched: {stats:?}"
    );
    assert!(
        stats.executors_lost >= 1,
        "the dead executor must be detected as lost: {stats:?}"
    );
    drop((healthy, doomed));
}

#[test]
fn duplicate_reply_delivery_is_dropped_idempotently() {
    let local = sim();
    let query = EvalQuery::new(
        &wide_layer(),
        Pass::Fwd,
        Parallelism::Sharded { workers: 4 },
    );
    let want = json(&local.evaluate(&query).expect("local evaluate"));

    let chatty = delta_fleet::executor::spawn(
        sim(),
        ExecutorConfig {
            addr: "127.0.0.1:0".into(),
            fault: FaultPlan {
                duplicate_replies: true,
                ..FaultPlan::default()
            },
        },
    )
    .expect("spawn chatty");
    let coordinator = Coordinator::connect(
        sim(),
        FleetConfig {
            executors: vec![chatty.addr().to_string()],
            job_timeout: Duration::from_secs(10),
            retry_budget: 3,
        },
    )
    .expect("handshake");

    let got = json(&coordinator.evaluate(&query).expect("fleet evaluate"));
    assert_eq!(got, want, "duplicate delivery must not change a byte");
    assert!(
        coordinator.stats().duplicates_dropped >= 1,
        "at least one duplicate must have been observed and dropped: {:?}",
        coordinator.stats()
    );
    drop(chatty);
}

#[test]
fn a_stalled_fleet_exhausts_the_retry_budget_cleanly() {
    let stalled = delta_fleet::executor::spawn(
        sim(),
        ExecutorConfig {
            addr: "127.0.0.1:0".into(),
            fault: FaultPlan {
                stall_after_jobs: Some(0),
                ..FaultPlan::default()
            },
        },
    )
    .expect("spawn stalled");
    let coordinator = Coordinator::connect(
        sim(),
        FleetConfig {
            executors: vec![stalled.addr().to_string()],
            job_timeout: Duration::from_millis(200),
            retry_budget: 2,
        },
    )
    .expect("handshake");

    let query = EvalQuery::new(
        &wide_layer(),
        Pass::Fwd,
        Parallelism::Sharded { workers: 2 },
    );
    let err = coordinator.evaluate(&query).expect_err("must not hang");
    assert!(matches!(err, Error::Fleet { .. }), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains("retry budget") && msg.contains('2'),
        "the error must name the exhausted budget: {msg}"
    );
    drop(stalled);
}

#[test]
fn the_handshake_refuses_a_mismatched_fingerprint_naming_both_sides() {
    // Executor simulates exhaustively; coordinator plans with sampling
    // limits. Their answers would differ, so the fleet must refuse.
    let exhaustive = Simulator::new(GpuSpec::titan_xp(), SimConfig::exhaustive());
    let executor = delta_fleet::executor::spawn(exhaustive, ExecutorConfig::new("127.0.0.1:0"))
        .expect("spawn executor");

    let planner = sim();
    let ours = delta_model::BackendFingerprint::of(&planner);
    let err = Coordinator::connect(planner, FleetConfig::new(vec![executor.addr().to_string()]))
        .expect_err("mismatched fingerprints must be refused");
    let msg = err.to_string();
    assert!(matches!(err, Error::Fleet { .. }), "{msg}");
    assert!(
        msg.contains("fingerprint mismatch"),
        "the refusal must say what is wrong: {msg}"
    );
    // Both sides' sampling configurations appear in the refusal, so the
    // operator can see exactly which knob disagrees.
    assert!(
        msg.contains(&ours.config),
        "the refusal must name the coordinator's fingerprint: {msg}"
    );
    let theirs = delta_model::BackendFingerprint::of(&Simulator::new(
        GpuSpec::titan_xp(),
        SimConfig::exhaustive(),
    ));
    assert!(
        msg.contains(&theirs.config),
        "the refusal must name the executor's fingerprint: {msg}"
    );
}

#[test]
fn trace_correlation_ids_stitch_coordinator_and_executor_spans() {
    // Arm span recording (process-wide and sticky; the other tests in
    // this binary never assert on spans, and the hard observability
    // invariant — checked by the identity tests above, which keep
    // passing whether or not this test armed tracing first — is that
    // recording never changes results).
    delta_obs::trace::set_enabled(true);
    let (_handles, coordinator) = fleet(2);
    let query = EvalQuery::new(
        &wide_layer(),
        Pass::Fwd,
        Parallelism::Sharded { workers: 4 },
    );
    coordinator.evaluate(&query).expect("fleet evaluate");

    // Correlation ids are minted from one process-global counter, so
    // grouping the drained events by nonzero id is robust against
    // spans other concurrently running tests may have recorded.
    let events = delta_obs::trace::drain();
    let mut by_corr: std::collections::HashMap<u64, Vec<String>> = std::collections::HashMap::new();
    for e in &events {
        if e.corr != 0 {
            by_corr.entry(e.corr).or_default().push(e.name.to_string());
        }
    }
    let stitched = by_corr
        .values()
        .filter(|names| {
            names.iter().any(|n| n == "fleet.query")
                && names.iter().any(|n| n == "fleet.dispatch")
                && names.iter().any(|n| n == "fleet.execute")
        })
        .count();
    assert!(
        stitched >= 1,
        "at least one coordinator-issued correlation id must group the \
         query, its dispatches, and the executor-side execute spans \
         shipped back in the replies: {by_corr:?}"
    );
}

#[test]
fn the_protocol_version_is_part_of_the_contract() {
    // A reminder that bumping the schema requires bumping the revision:
    // the constant is public API documented in docs/FLEET.md.
    assert_eq!(PROTOCOL_VERSION, 1);
}

#[test]
fn frame_split_across_a_read_timeout_is_not_lost() {
    use delta_fleet::protocol::{read_frame, write_frame, Hello, HelloReply};
    use std::io::Write;

    let planner = sim();
    let executor = delta_fleet::executor::spawn(sim(), ExecutorConfig::new("127.0.0.1:0"))
        .expect("spawn executor");
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint: delta_model::BackendFingerprint::of(&planner),
            version: String::new(),
        },
    )
    .expect("encode hello");
    let mut stream = std::net::TcpStream::connect(executor.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Half of the length prefix, a pause longer than any read poll the
    // executor might use, then the rest of the frame.
    stream.write_all(&frame[..2]).expect("write prefix half");
    std::thread::sleep(Duration::from_millis(250));
    stream.write_all(&frame[2..]).expect("write rest");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let reply: HelloReply = read_frame(&mut stream).expect("handshake reply within 5 s");
    assert!(reply.ok, "{reply:?}");
}

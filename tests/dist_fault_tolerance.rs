//! Distributed training end to end: rollouts sharded over real worker
//! processes (threads with real TCP sockets here) are bit-identical to
//! single-process training — for any worker count, under mid-iteration
//! worker kills recovered by re-queuing, stragglers past the deadline,
//! torn reply frames, and kill+resume — and degrade into the same quorum
//! semantics as local quarantine when every worker dies.
//!
//! Every fault is injected through the deterministic [`FaultPlan`] hook
//! carried over the wire, so the suite is reproducible: no real crashes,
//! no timing races (the only clock involved is the straggler's stall,
//! which is sized off the coordinator deadline).

use rl_ccd::{Error, FaultPlan, RlConfig, Session, TrainError, TrainOutcome};
use rl_ccd_dist::{serve_worker, DistExecutor};
use rl_ccd_netlist::{generate, DesignSpec, GeneratedDesign, TechNode};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

fn design() -> GeneratedDesign {
    generate(&DesignSpec::new("dist-ft", 420, TechNode::N7, 93))
}

/// Four slots, three iterations, no early stop: every run visits the same
/// iteration indices, which the fault plans below rely on.
fn config() -> RlConfig {
    RlConfig {
        workers: 4,
        max_iterations: 3,
        patience: 4,
        ..RlConfig::fast()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rl-ccd-dist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Real workers on ephemeral loopback ports, each in its own thread.
struct WorkerFleet {
    addrs: Vec<String>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerFleet {
    fn spawn(n: usize) -> Self {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
            addrs.push(listener.local_addr().unwrap().to_string());
            handles.push(std::thread::spawn(move || {
                let _ = serve_worker(listener);
            }));
        }
        Self { addrs, handles }
    }

    /// Stops every worker that is still serving (a fresh connection with a
    /// `Shutdown`; workers that already died refuse the connection) and
    /// joins the threads.
    fn stop(self) {
        for addr in &self.addrs {
            if let Ok(mut conn) = TcpStream::connect(addr) {
                let payload = rl_ccd_dist::encode_request(&rl_ccd_dist::Request::Shutdown);
                let _ = rl_ccd_dist::write_message(&mut conn, &payload);
            }
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

fn dist_session(
    cfg: &RlConfig,
    fleet: &WorkerFleet,
    plan: FaultPlan,
    deadline: Duration,
    checkpoint: Option<(&Path, usize)>,
) -> Session {
    let executor = DistExecutor::connect(&fleet.addrs)
        .expect("connect to workers")
        .with_deadline(deadline);
    let mut builder = Session::builder()
        .design(design())
        .rl_config(cfg.clone())
        .fault_plan(plan)
        .executor(Box::new(executor));
    if let Some((dir, every)) = checkpoint {
        builder = builder.checkpoint(dir, every);
    }
    builder.build().expect("session builds")
}

fn local_outcome(cfg: &RlConfig) -> TrainOutcome {
    Session::builder()
        .design(design())
        .rl_config(cfg.clone())
        .build()
        .expect("local session builds")
        .train()
        .expect("local train")
}

fn assert_same_outcome(a: &TrainOutcome, b: &TrainOutcome) {
    assert_eq!(a.best_selection, b.best_selection, "champion selection");
    assert_eq!(
        a.best_result.final_qor.tns_ps, b.best_result.final_qor.tns_ps,
        "champion TNS"
    );
    assert_eq!(a.history, b.history, "iteration histories");
    assert_eq!(a.params, b.params, "final parameters");
    assert_eq!(a.faults, b.faults, "fault records");
}

/// A generous deadline for tests that never exercise the timeout path.
const NO_TIMEOUT: Duration = Duration::from_secs(300);

#[test]
fn distributed_training_is_bit_identical_for_any_worker_count() {
    let cfg = config();
    let local = local_outcome(&cfg);
    for n in [1usize, 2, 4] {
        let fleet = WorkerFleet::spawn(n);
        let out = dist_session(&cfg, &fleet, FaultPlan::none(), NO_TIMEOUT, None)
            .train()
            .unwrap_or_else(|e| panic!("dist train with {n} workers: {e}"));
        fleet.stop();
        assert_same_outcome(&local, &out);
        assert!(out.faults.is_empty(), "clean run records no faults");
    }
}

/// A design with no violating endpoint trains to the default flow, in
/// process and through a worker alike: every rollout is a zero-step
/// trajectory (an empty gradient crosses the wire), the batch is
/// degenerate, and the default-flow champion stands.
#[test]
fn a_design_with_no_violations_reports_the_default_flow() {
    let mut clean = generate(&DesignSpec::new("clean", 400, TechNode::N7, 5));
    clean.period_ps *= 50.0;
    let cfg = RlConfig::fast();
    let session = |executor: Option<DistExecutor>| {
        let mut builder = Session::builder()
            .design(clean.clone())
            .rl_config(cfg.clone());
        if let Some(executor) = executor {
            builder = builder.executor(Box::new(executor));
        }
        builder.build().expect("session builds")
    };
    let local = session(None);
    assert!(local.env().pool().is_empty(), "the design must be clean");
    let default = local.env().default_flow().final_qor;
    let fleet = WorkerFleet::spawn(1);
    let dist = session(Some(
        DistExecutor::connect(&fleet.addrs).expect("connect to workers"),
    ));
    for (name, session) in [("local", &local), ("dist", &dist)] {
        let out = session
            .train()
            .unwrap_or_else(|e| panic!("{name} training on a clean design: {e}"));
        assert!(out.faults.is_empty(), "{name}: {:?}", out.faults);
        assert!(out.best_selection.is_empty(), "{name}");
        let best = out.best_result.final_qor;
        assert_eq!(best.wns_ps.to_bits(), default.wns_ps.to_bits(), "{name}");
        assert_eq!(best.tns_ps.to_bits(), default.tns_ps.to_bits(), "{name}");
        assert_eq!(
            best.power_mw.to_bits(),
            default.power_mw.to_bits(),
            "{name}"
        );
        assert_eq!(best.nve, default.nve, "{name}");
        assert!(out.history.iter().all(|h| h.steps.iter().all(|&s| s == 0)));
    }
    drop(dist);
    fleet.stop();
}

#[test]
fn worker_kill_mid_iteration_is_requeued_and_stays_bit_identical() {
    let cfg = config();
    let local = local_outcome(&cfg);
    // Worker process 0 dies mid-batch in iteration 1; its pairs are
    // re-queued onto the survivor.
    let plan = FaultPlan::none().with_worker_drop(1, 0);
    let fleet = WorkerFleet::spawn(2);
    let out = dist_session(&cfg, &fleet, plan, NO_TIMEOUT, None)
        .train()
        .expect("killed worker must not kill the run");
    fleet.stop();
    assert_same_outcome(&local, &out);
    assert!(
        out.faults.is_empty(),
        "a transport failure recovered by re-queuing is not a training fault"
    );
}

#[test]
fn torn_reply_frame_is_requeued_and_stays_bit_identical() {
    let cfg = config();
    let local = local_outcome(&cfg);
    // Worker process 1 writes a truncated frame in iteration 0 and dies.
    let plan = FaultPlan::none().with_torn_frame(0, 1);
    let fleet = WorkerFleet::spawn(2);
    let out = dist_session(&cfg, &fleet, plan, NO_TIMEOUT, None)
        .train()
        .expect("torn frame must not kill the run");
    fleet.stop();
    assert_same_outcome(&local, &out);
    assert!(out.faults.is_empty());
}

#[test]
fn straggler_past_the_deadline_is_requeued_and_stays_bit_identical() {
    let cfg = config();
    let local = local_outcome(&cfg);
    // Worker process 1 stalls past the 2 s deadline in iteration 1; the
    // coordinator abandons it and re-queues onto worker 0.
    let plan = FaultPlan::none().with_slow_worker(1, 1);
    let fleet = WorkerFleet::spawn(2);
    let out = dist_session(&cfg, &fleet, plan, Duration::from_secs(2), None)
        .train()
        .expect("straggler must not kill the run");
    fleet.stop();
    assert_same_outcome(&local, &out);
    assert!(out.faults.is_empty());
}

#[test]
fn in_worker_quarantine_matches_the_local_fault_path() {
    let cfg = config();
    // A rollout panic and a NaN reward, quarantined *inside* remote
    // workers, must produce the same records and training trajectory as
    // the same plan running locally.
    let plan = FaultPlan::none()
        .with_worker_panic(1, 2)
        .with_nan_reward(2, 0);
    let local = Session::builder()
        .design(design())
        .rl_config(cfg.clone())
        .fault_plan(plan.clone())
        .build()
        .expect("local session builds")
        .train()
        .expect("local faulted train");
    let fleet = WorkerFleet::spawn(2);
    let out = dist_session(&cfg, &fleet, plan, NO_TIMEOUT, None)
        .train()
        .expect("dist faulted train");
    fleet.stop();
    assert_same_outcome(&local, &out);
    assert_eq!(out.faults.len(), 2, "both injected faults recorded");
}

#[test]
fn losing_every_worker_loses_the_quorum() {
    let cfg = config();
    let plan = FaultPlan::none().with_worker_drop(0, 0);
    let fleet = WorkerFleet::spawn(1);
    let err = dist_session(&cfg, &fleet, plan, NO_TIMEOUT, None)
        .train()
        .expect_err("no workers left must lose the quorum");
    fleet.stop();
    match err {
        Error::Train(TrainError::QuorumLost {
            iteration,
            survivors,
            faults,
            ..
        }) => {
            assert_eq!(iteration, 0);
            assert_eq!(survivors, 0);
            assert_eq!(faults.len(), cfg.workers, "one WorkerLost per pair");
            assert!(faults
                .iter()
                .all(|f| f.kind == rl_ccd::FaultKind::WorkerLost));
        }
        other => panic!("expected QuorumLost, got {other:?}"),
    }
}

#[test]
fn killed_distributed_run_resumes_bit_for_bit() {
    let cfg = config();
    let local = local_outcome(&cfg);
    let dir = tmp_dir("resume");

    // Phase 1: a distributed run "killed" at the iteration-2 boundary
    // (max_iterations cap stands in for the kill; the checkpoint at the
    // boundary is what a real kill would leave behind).
    let mut truncated = cfg.clone();
    truncated.max_iterations = 2;
    let fleet = WorkerFleet::spawn(2);
    dist_session(
        &truncated,
        &fleet,
        FaultPlan::none(),
        NO_TIMEOUT,
        Some((&dir, 2)),
    )
    .train()
    .expect("truncated dist run");
    fleet.stop();

    // Phase 2: resume distributed on a fresh fleet — same outcome as an
    // uninterrupted single-process run, bit for bit.
    let fleet = WorkerFleet::spawn(2);
    let resumed = dist_session(&cfg, &fleet, FaultPlan::none(), NO_TIMEOUT, Some((&dir, 2)))
        .train()
        .expect("resumed dist run");
    fleet.stop();
    assert_same_outcome(&local, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

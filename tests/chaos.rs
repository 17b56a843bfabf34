//! Chaos acceptance: training and serving under injected network faults.
//!
//! The wire layer's [`NetFaultPlan`]/[`FaultPlan`] hooks inject latency,
//! connection resets, silent stalls, and torn frames at exact (connection,
//! frame) or (iteration, worker) coordinates, so every scenario here is
//! deterministic — no real packet loss, no timing races. The contracts
//! under test:
//!
//! - a distributed run through a network storm (delay + reset + stall +
//!   torn frame) retries its way to a result **bit-identical** to the
//!   fault-free run, with no fault records — transport failures recovered
//!   by reconnect + re-issue are invisible to training;
//! - a worker that accepts TCP but never answers is quarantined by the
//!   health probe instead of hanging initialization;
//! - a serve endpoint pushed past scheduler capacity sheds the excess
//!   with typed `Overloaded` responses (never hangs, never errors) and
//!   answers normally again once the burst passes.

use rl_ccd::{FaultPlan, RlCcd, RlConfig, Session, TrainOutcome};
use rl_ccd_dist::{serve_worker, serve_worker_with, DistExecutor, WorkerNet};
use rl_ccd_netlist::{generate, DesignSpec, GeneratedDesign, TechNode};
use rl_ccd_serve::{
    DesignKey, Mode, ModelRegistry, QueryRequest, Response, ServeClient, ServeConfig, Server,
};
use rl_ccd_wire::{NetFaultPlan, RetryPolicy};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn design() -> GeneratedDesign {
    generate(&DesignSpec::new("chaos", 420, TechNode::N7, 29))
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

    /// Like [`WorkerFleet::spawn`], with every worker's accept path wired
    /// through the same [`WorkerNet`] (chaos on accepted connections).
    fn spawn_with(n: usize, net: WorkerNet) -> Self {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
            addrs.push(listener.local_addr().unwrap().to_string());
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let _ = serve_worker_with(listener, net);
            }));
        }
        Self { addrs, handles }
    }

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

fn train_with(executor: DistExecutor, cfg: &RlConfig, plan: FaultPlan) -> TrainOutcome {
    Session::builder()
        .design(design())
        .rl_config(cfg.clone())
        .fault_plan(plan)
        .executor(Box::new(executor))
        .build()
        .expect("session builds")
        .train()
        .expect("distributed train")
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

const NO_TIMEOUT: Duration = Duration::from_secs(300);

/// The headline acceptance run: one fleet weathers injected latency, a
/// connection reset, a stalled connection, and a torn frame — one of each,
/// spread over both workers and all three iterations — and still lands on
/// the exact bits of the clean run.
#[test]
fn network_storm_is_retried_to_a_bit_identical_outcome() {
    let cfg = config();
    let local = local_outcome(&cfg);
    let plan = FaultPlan::none()
        .with_net_delay(0, 0, 40)
        .with_net_reset(1, 0)
        .with_net_stall(1, 1, 150)
        .with_net_torn(2, 1);
    let fleet = WorkerFleet::spawn(2);
    let executor = DistExecutor::connect(&fleet.addrs)
        .expect("connect fleet")
        .with_deadline(NO_TIMEOUT)
        .with_retry(RetryPolicy::seeded(11));
    let out = train_with(executor, &cfg, plan);
    fleet.stop();
    assert_same_outcome(&local, &out);
    assert!(
        out.faults.is_empty(),
        "transport failures recovered by retry must leave no fault records"
    );
}

/// Frame-level chaos attached directly to the transport (the `--chaos-plan`
/// path, including the textual spec parser): injected latency and
/// adversarial segmentation are absorbed without any retry at all.
#[test]
fn wire_plan_latency_and_segmentation_are_harmless() {
    let cfg = config();
    let local = local_outcome(&cfg);
    let plan =
        Arc::new(NetFaultPlan::parse("delay:0:0:30,seg:0:2:3,seg:1:1:5").expect("spec parses"));
    let fleet = WorkerFleet::spawn(2);
    let executor = DistExecutor::connect(&fleet.addrs)
        .expect("connect fleet")
        .with_deadline(NO_TIMEOUT)
        .with_chaos(Arc::clone(&plan));
    let out = train_with(executor, &cfg, FaultPlan::none());
    fleet.stop();
    assert_same_outcome(&local, &out);
    assert!(out.faults.is_empty());
    assert!(plan.fired() >= 1, "plan coordinates were actually hit");
}

/// Chaos on the worker's *accept* path: the plan wraps the connections the
/// worker accepts — previously raw sockets no fault plan could touch —
/// delaying its first probe read and resetting the connection around the
/// first batch reply. The coordinator retries onto a fresh connection (a
/// new worker-side conn id, so the plan does not re-fire), the worker
/// replays the cached reply, and training still lands on the clean run's
/// exact bits.
#[test]
fn worker_side_chaos_on_the_accept_path_is_retried_to_identical_bits() {
    let cfg = config();
    let local = local_outcome(&cfg);
    // Worker-side connection 0 is its first accept; frames count every
    // read and write on it: 0 = probe read (delayed), 5 = first batch
    // reply (connection reset).
    let plan = Arc::new(NetFaultPlan::none().with_delay(0, 0, 30).with_reset(0, 5));
    let fleet = WorkerFleet::spawn_with(
        1,
        WorkerNet {
            chaos: Some(Arc::clone(&plan)),
            conn_base: 0,
        },
    );
    let executor = DistExecutor::connect(&fleet.addrs)
        .expect("connect fleet")
        .with_deadline(Duration::from_secs(30))
        .with_retry(RetryPolicy::seeded(7));
    let out = train_with(executor, &cfg, FaultPlan::none());
    fleet.stop();
    assert_same_outcome(&local, &out);
    assert!(
        out.faults.is_empty(),
        "worker-side transport chaos recovered by retry leaves no fault records"
    );
    assert_eq!(plan.fired(), 2, "both worker-side injections were hit");
}

/// A worker that accepts the TCP connection but never answers anything
/// must not hang initialization: the health probe times out, the worker is
/// quarantined, and training completes on the survivor — bit-identical,
/// because sharding does not affect the trajectory.
#[test]
fn silent_worker_is_quarantined_by_the_probe_not_waited_on_forever() {
    let cfg = config();
    let local = local_outcome(&cfg);
    let fleet = WorkerFleet::spawn(1);
    // Bound but never accepted: connects succeed via the listen backlog,
    // then the peer is silent forever.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind silent port");
    let addrs = vec![
        fleet.addrs[0].clone(),
        silent.local_addr().unwrap().to_string(),
    ];
    let started = Instant::now();
    let executor = DistExecutor::connect(&addrs)
        .expect("connect fleet")
        .with_deadline(Duration::from_secs(2));
    let out = train_with(executor, &cfg, FaultPlan::none());
    fleet.stop();
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "a silent peer must cost one probe timeout, not a hang"
    );
    assert_same_outcome(&local, &out);
    assert!(out.faults.is_empty());
    drop(silent);
}

/// Serve under 2x-and-more scheduler capacity: the excess is shed with
/// typed `Overloaded` (numeric backoff hint, no untyped errors, no hung
/// clients), and the endpoint answers normally once the burst passes.
#[test]
fn overloaded_server_sheds_typed_and_recovers() {
    let config = RlConfig::fast();
    let rho = config.rho;
    let (_, params) = RlCcd::init(config);
    let registry = ModelRegistry::new();
    registry
        .insert_params("default", params, rho)
        .expect("register model");
    let serve_config = ServeConfig {
        max_batch: 1,
        queue_capacity: 2,
        workers: 1,
        ..ServeConfig::default()
    };
    let mut server = Server::start(registry, serve_config);
    let addr = server.bind("127.0.0.1:0").expect("bind server");

    // 8 clients burst-fire into a queue of 2 with one scheduler worker:
    // well past capacity, so some must be shed. Distinct designs defeat
    // the env cache, keeping each accepted request slow enough that the
    // queue genuinely fills.
    let clients = 8usize;
    let barrier = Arc::new(Barrier::new(clients));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).expect("connect");
                barrier.wait();
                let resp = client
                    .query(QueryRequest {
                        model: "default".into(),
                        design: DesignKey {
                            name: format!("burst{c}"),
                            cells: 260,
                            tech: "7nm".into(),
                            seed: c as u64 + 1,
                        },
                        mode: Mode::Greedy,
                        deadline_ms: Some(30_000),
                        auth: None,
                    })
                    .expect("transport survives overload");
                match resp {
                    Response::Ok(_) => (1usize, 0usize),
                    Response::Overloaded { retry_after_ms } => {
                        assert!(retry_after_ms > 0, "backoff hint is a real number");
                        (0, 1)
                    }
                    other => panic!("overload must shed typed, got {other:?}"),
                }
            })
        })
        .collect();
    let (mut ok, mut shed) = (0usize, 0usize);
    for h in handles {
        let (o, s) = h.join().expect("client thread");
        ok += o;
        shed += s;
    }
    assert_eq!(ok + shed, clients, "every client got a typed answer");
    assert!(ok >= 1, "capacity was not zero: someone got through");
    assert!(shed >= 1, "8 clients into a queue of 2 must shed");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "overload must resolve quickly, not by timeout"
    );

    // The burst is over: the same endpoint serves a fresh query normally.
    let mut after = ServeClient::connect(addr.to_string()).expect("reconnect");
    let resp = after
        .query(QueryRequest {
            model: "default".into(),
            design: DesignKey {
                name: "after-burst".into(),
                cells: 260,
                tech: "7nm".into(),
                seed: 99,
            },
            mode: Mode::Greedy,
            deadline_ms: Some(30_000),
            auth: None,
        })
        .expect("post-burst query");
    assert!(
        matches!(resp, Response::Ok(_)),
        "server recovers after shedding: {resp:?}"
    );
    let report = server.shutdown();
    assert_eq!(report.stats.shed as usize, shed, "server counted each shed");
    assert_eq!(report.dropped(), 0, "drain left nothing behind");
}

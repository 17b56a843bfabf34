//! The two workloads, their frozen sizes and counts, set-up, and the
//! measured run of each in both modes (end-to-end, traced).
//!
//! Every workload drives all three paths — train (in-process and over a
//! loopback fleet), query, retrain — so every end-to-end metric exists on
//! both, but at opposite ends of what the layers are sensitive to:
//!
//! * `small_hot`: sub-1k-cell designs and hot caches. A rollout is a few
//!   ms, a cached query a couple, so per-iteration and per-query *fixed*
//!   costs (thread fan-out, gradient reduce, Adam, the per-round codec;
//!   socket, framing, admission, the batch window) do most of the work.
//! * `large_cold`: a 2.5k-cell block and a query working set three times the
//!   env cache. The EP-GNN re-encode per decode step and the tape that
//!   retains it do most of the work; front-ends do almost none.
//!
//! A change to the encoder must show on `large_cold` and predict ~nothing
//! on `small_hot`; a change to a front-end or codec the other way round.

use crate::design::{
    cold_requests, hot_requests, hot_sample_seed, pick, substream, Picked, Query, SizeSpec,
};
use crate::ledger::{Ledger, Trace};
use crate::metrics::Values;
use crate::retrain::{
    retrain_config, retrain_ledger, retrain_phase, staged_retrain, write_inputs, RetrainInputs,
    RetrainPhase,
};
use crate::serve::{
    champion_registry, closed_loop, direct_inference, front_costs, handle_client, onion,
    serve_config, start_daemon, tcp_client, tenant_credentials, Load, Oracle, QueryFn,
};
use crate::stats::{median, percentile, tail_percentile};
use crate::train::{round_codec, staged_suite, train_phase, Fleet, PieceCosts, TrainPhase};
use rand::Rng;
use rl_ccd::RlConfig;
use rl_ccd_bench::Json;
use rl_ccd_daemon::{Daemon, CHAMPION};
use rl_ccd_dist::NetStats;
use rl_ccd_exp::{ExpSink, RetrainConfig};
use rl_ccd_serve::{
    DesignKey, ExperienceHook, Mode, QueryRequest, Response, ServeModel, ServeStats, Server,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What `BENCHMARK.json` freezes as `run_seconds`; counts below are for a
/// run of this length and scale linearly with `--seconds`.
pub const RUN_SECONDS: f64 = 40.0;
/// Fixed sample seeds per design in the hot mix.
const HOT_SEEDS: u64 = 16;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Every path is measured in this many identical rounds and its rate is
/// the median over them, so a slow episode of the machine that swallows a
/// whole round moves nothing; one long phase per path has no such
/// protection.
const ROUNDS: usize = 4;
/// Untimed rounds run first on the train and retrain paths: the first
/// round after a quiet spell pays for first touch of its tape memory and
/// for cores coming back up to speed, and runs 20-40 % slow. (The query
/// path's caches are warmed during set-up, through the same door.)
const WARM_ROUNDS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Daemon tenant port over TCP with credentials; hot caches;
    /// every third query Greedy, the others Sample from `HOT_SEEDS` fixed
    /// seeds per design.
    TenantHot,
    /// In-process `ServeHandle`; designs rotate through 3x the env cache;
    /// Sample only, every seed distinct; `ExpSink` on the experience hook.
    SampledCold,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub train: &'static [SizeSpec],
    /// Iterations per design, executor and round at `RUN_SECONDS`.
    pub train_iterations: usize,
    pub mix: Mix,
    pub serve_designs: usize,
    pub serve_size: SizeSpec,
    /// Query time over all rounds.
    pub serve_seconds: f64,
    /// Every n-th reply is compared with the oracle (all are shape-checked).
    pub oracle_stride: usize,
    pub log_records: usize,
    /// Update steps of each round's `retrain()` call.
    pub retrain_steps: usize,
}

const fn size(spec_cells: usize, tech: &'static str, cells: usize, steps: f64) -> SizeSpec {
    SizeSpec {
        spec_cells,
        tech,
        cells,
        steps,
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "small_hot",
        why: "sub-1k-cell designs, hot caches, tenant TCP port: per-iteration and per-query fixed costs (fan-out, reduce, codec, socket, admission, batch window) do the work; the encoder does little",
        train: &[
            size(500, "5nm", 622, 5.5),
            size(600, "7nm", 764, 7.25),
            size(700, "12nm", 896, 9.3),
            size(800, "5nm", 1002, 8.4),
            size(900, "7nm", 1112, 10.4),
            size(1000, "12nm", 1240, 12.3),
        ],
        train_iterations: 2,
        mix: Mix::TenantHot,
        serve_designs: 4,
        serve_size: size(300, "7nm", 370, 3.75),
        serve_seconds: 28.0,
        oracle_stride: 1,
        log_records: 192,
        retrain_steps: 36,
    },
    Workload {
        name: "large_cold",
        why: "one 2.5k-cell block and a query working set 3x the env cache, in-process: EP-GNN re-encode per decode step and the tape that retains it do the work; front-ends and codecs do almost none",
        train: &[size(2000, "7nm", 2538, 22.5)],
        train_iterations: 2,
        mix: Mix::SampledCold,
        serve_designs: 12,
        serve_size: size(800, "7nm", 1002, 9.2),
        serve_seconds: 16.0,
        oracle_stride: 16,
        log_records: 64,
        retrain_steps: 5,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Closed-loop clients and loopback workers: one per core, at most four.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn scaled(count: usize, scale: f64) -> usize {
    ((count as f64 * scale).round() as usize).max(1)
}

/// The serving side a set-up leaves running.
// One is alive per process; boxing the daemon would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Serving {
    Tenant { daemon: Daemon, addr: SocketAddr },
    InProcess { server: Server, sink: Arc<ExpSink> },
}

/// Everything set-up builds and a run measures against.
#[derive(Debug)]
struct World {
    config: RlConfig,
    train: Vec<Picked>,
    fleets: Vec<Fleet>,
    serve: Vec<Picked>,
    keys: Vec<DesignKey>,
    model: Arc<ServeModel>,
    serving: Serving,
    requests: Vec<Vec<Query>>,
    oracle: Oracle,
    inputs: RetrainInputs,
    dir: PathBuf,
}

/// What tearing a world down reports back.
#[derive(Debug)]
struct Teardown {
    net: NetStats,
    stats: ServeStats,
    dropped: u64,
    tenant_accepted: u64,
    sink_dropped: u64,
}

fn model_config(seed: u64, iterations: usize) -> RlConfig {
    RlConfig {
        seed: substream(seed, 0x30DE1).next_u64(),
        max_iterations: iterations,
        // Iteration counts are part of the workload: never stop early.
        patience: usize::MAX,
        ..RlConfig::default()
    }
}

impl World {
    fn build(w: &Workload, seed: u64, scale: f64, dir: &Path) -> World {
        std::fs::create_dir_all(dir).expect("create the set-up's scratch directory");
        let config = model_config(seed, scaled(w.train_iterations, scale));
        let c = clients();
        let mut rng = substream(seed, 0xDE51);
        let train: Vec<Picked> = w
            .train
            .iter()
            .enumerate()
            .map(|(i, size)| {
                pick(
                    &mut rng,
                    &format!("train{i}"),
                    size,
                    config.rho,
                    config.fanout_cap,
                )
            })
            .collect();
        let fleets = train
            .iter()
            .map(|d| Fleet::start(c, &d.env, &config))
            .collect();
        let serve: Vec<Picked> = (0..w.serve_designs)
            .map(|i| {
                pick(
                    &mut rng,
                    &format!("serve{i}"),
                    &w.serve_size,
                    config.rho,
                    config.fanout_cap,
                )
            })
            .collect();
        let keys: Vec<DesignKey> = serve.iter().map(|d| d.key.clone()).collect();

        let (registry, model) = champion_registry(&config);
        let mut oracle = Oracle::new(model.clone());
        // More requests than any closed loop can send in the window.
        let per_client = ((w.serve_seconds * scale * 4_000.0) as usize).clamp(64, 1_000_000);
        let (serving, requests) = match w.mix {
            Mix::TenantHot => {
                let requests: Vec<Vec<Query>> = (0..c)
                    .map(|client| hot_requests(seed, client, serve.len(), HOT_SEEDS, per_client))
                    .collect();
                let (daemon, addr) = start_daemon(registry, &config, c);
                // Every oracle answer the hot mix can ask for, then the env
                // and selection caches warmed through the tenant port.
                let greedy: Vec<Query> = (0..serve.len())
                    .map(|design| Query {
                        design,
                        mode: Mode::Greedy,
                    })
                    .collect();
                for &query in &greedy {
                    oracle.expected(&serve, query);
                    for slot in 0..HOT_SEEDS {
                        let mode = Mode::Sample(hot_sample_seed(query.design, slot));
                        oracle.expected(
                            &serve,
                            Query {
                                design: query.design,
                                mode,
                            },
                        );
                    }
                }
                warm_up(&mut tcp_client(addr), &greedy, &keys);
                (Serving::Tenant { daemon, addr }, requests)
            }
            Mix::SampledCold => {
                let requests: Vec<Vec<Query>> = (0..c)
                    .map(|client| cold_requests(seed, client, c, serve.len(), per_client))
                    .collect();
                let sink = ExpSink::create(dir.join("served.jsonl")).expect("open experience log");
                let hook: Arc<dyn ExperienceHook> = sink.clone();
                let server = Server::start(registry, serve_config(Some(hook)));
                (Serving::InProcess { server, sink }, requests)
            }
        };
        let inputs = write_inputs(&dir.join("retrain"), &serve, &config, seed, w.log_records);
        World {
            config,
            train,
            fleets,
            serve,
            keys,
            model,
            serving,
            requests,
            oracle,
            inputs,
            dir: dir.to_path_buf(),
        }
    }

    fn clients(&self) -> Vec<QueryFn> {
        (0..self.requests.len())
            .map(|_| match &self.serving {
                Serving::Tenant { addr, .. } => tcp_client(*addr),
                Serving::InProcess { server, .. } => handle_client(server.handle()),
            })
            .collect()
    }

    /// The first `n` requests of every client.
    fn requests_prefix(&self, n: usize) -> Vec<Vec<Query>> {
        self.requests
            .iter()
            .map(|r| r[..r.len().min(n)].to_vec())
            .collect()
    }

    fn teardown(self) -> Teardown {
        let mut net = NetStats::default();
        for fleet in self.fleets {
            let stats = fleet.stop();
            net.retries += stats.retries;
            net.reconnects += stats.reconnects;
        }
        let (drain, tenant_accepted, sink_dropped) = match self.serving {
            Serving::Tenant { daemon, .. } => {
                let report = daemon.shutdown();
                let accepted = report.tenants.iter().map(|t| t.usage.accepted).sum();
                (report.drain, accepted, 0)
            }
            Serving::InProcess { server, sink } => {
                let drain = server.shutdown();
                (drain, 0, sink.finish().map_or(0, |r| r.dropped))
            }
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        Teardown {
            net,
            dropped: drain.dropped(),
            stats: drain.stats,
            tenant_accepted,
            sink_dropped,
        }
    }
}

fn warm_up(client: &mut QueryFn, sequence: &[Query], keys: &[DesignKey]) {
    for query in sequence {
        let reply = client(QueryRequest {
            model: CHAMPION.into(),
            design: keys[query.design].clone(),
            mode: query.mode,
            deadline_ms: Some(300_000),
            auth: Some(tenant_credentials(0)),
        });
        assert!(
            matches!(reply, Ok(Response::Ok(_))),
            "cache warm-up query failed: {reply:?}"
        );
    }
}

/// VmHWM of this process in MiB (0 where /proc is missing).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one workload process reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Values,
    /// Counts, fingerprints and sample sizes: printed and kept in the
    /// results files, not part of the driver's result line.
    pub detail: Json,
    pub ledgers: Vec<Ledger>,
    pub spans: Json,
}

fn query_latency_metrics(
    load: &Load,
    comparable: bool,
    metrics: &mut Values,
    errors: &mut Vec<String>,
) {
    metrics.set("query_p50_ms", load.p50_ms());
    metrics.set("query_p95_ms", load.tail_ms());
    // A full-length run answers enough queries for the pooled p99 kept in
    // `detail` to have ten samples beyond it; fewer means the query phase
    // did not run as sized. A shortened (non-comparable) run is let off.
    if let (true, Err(e)) = (comparable, tail_percentile(&load.latencies_ms, 0.99)) {
        errors.push(format!("query tail: {e}"));
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| num(v)).collect())
}

fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Runs workload `w` once in this process. `traced` selects the per-layer
/// run; otherwise the end-to-end run with `SETUP_REPS` set-ups.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, work: &Path) -> Outcome {
    let scale = seconds / RUN_SECONDS;
    let mut errors: Vec<String> = Vec::new();
    let mut trace = Trace::new(traced);
    let reps = if traced { 1 } else { SETUP_REPS };

    let mut setups = Vec::new();
    let mut world = None;
    for rep in 0..reps {
        if let Some(previous) = world.take() {
            World::teardown(previous);
        }
        let t = Instant::now();
        world = Some(World::build(
            w,
            seed,
            scale,
            &work.join(format!("setup{rep}")),
        ));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up ran");
    println!(
        "{}: seed {seed}, {seconds} s, C = {}, set-ups {:?} s",
        w.name,
        clients(),
        setups
    );
    for d in world.train.iter().chain(&world.serve) {
        println!(
            "  design {} -> {} cells, pool {}, {:.2} uniform steps ({} candidates)",
            d.key,
            d.cells,
            d.env.pool().len(),
            d.uniform_steps,
            d.candidates_tried
        );
    }

    // ROUNDS identical rounds. Within a round the fleet repeats the
    // in-process training runs, so their final parameters must agree bit
    // for bit.
    let serve_time = Duration::from_secs_f64(w.serve_seconds * scale / ROUNDS as f64);
    let auth = w.mix == Mix::TenantHot;
    let cfg = retrain_config(seed, scaled(w.retrain_steps, scale));
    let (mut local, mut dist, mut load) = (
        TrainPhase::default(),
        TrainPhase::default(),
        Load::default(),
    );
    let mut retrained = Vec::new();
    let (mut local_rates, mut dist_rates, mut query_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut cursors = vec![0usize; world.requests.len()];
    // One path at a time, its rounds back to back: memory a path frees is
    // back in use within a second. (Left free for a few seconds it is
    // reported to the hypervisor and costs a host-level fault to get back,
    // which a continuously training process never pays.)
    for round in 0..WARM_ROUNDS + ROUNDS {
        let timed = round >= WARM_ROUNDS;
        let mut quiet = Trace::new(false);
        let l = train_phase(
            &world.train,
            &world.config,
            None,
            if timed { &mut trace } else { &mut quiet },
        );
        let d = train_phase(
            &world.train,
            &world.config,
            Some(&mut world.fleets),
            &mut Trace::new(false),
        );
        if l.params_fp != d.params_fp || l.reward_fp != d.reward_fp {
            errors.push(format!(
                "round {round}: dist run diverged from local: params {} vs {}, rewards {} vs {}",
                d.params_fp.hex(),
                l.params_fp.hex(),
                d.reward_fp.hex(),
                l.reward_fp.hex()
            ));
        }
        if timed {
            local_rates.push(l.rollouts_per_s());
            dist_rates.push(d.rollouts_per_s());
            local.absorb(l);
            dist.absorb(d);
        } else {
            errors.extend(l.errors);
            errors.extend(d.errors);
        }
    }
    for _ in 0..ROUNDS {
        let q = closed_loop(
            world.clients(),
            &world.requests,
            &mut cursors,
            &world.keys,
            auth,
            serve_time,
        );
        query_rates.push(q.rps());
        load.absorb(q);
    }
    for round in 0..WARM_ROUNDS + ROUNDS {
        let r = retrain_phase(
            &world.inputs,
            &world.dir.join(format!("retrained{round}")),
            &cfg,
        );
        errors.extend(r.errors.iter().cloned());
        if round >= WARM_ROUNDS {
            retrained.push(r);
        }
    }
    errors.extend(local.errors.iter().cloned());
    errors.extend(dist.errors.iter().map(|e| format!("dist: {e}")));
    let mut reasons = load.reasons.clone();
    let wrong =
        world
            .oracle
            .count_wrong(&world.serve, &load.answers, w.oracle_stride, &mut reasons);
    errors.extend(reasons);
    if retrained
        .iter()
        .any(|r| r.state_fp != retrained[0].state_fp)
    {
        errors.push("retrain rounds disagree: retrain() is not reproducible".into());
    }
    let retrain_rates: Vec<f64> = retrained.iter().map(|r| r.records_per_s()).collect();
    // A round of median wall stands for the retrain path in the ledger.
    retrained.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let trajectories: usize = retrained.iter().map(|r| r.trajectories).sum();
    let replay_failures: usize = retrained.iter().map(|r| r.report.replay_failures).sum();
    let retrained = retrained.swap_remove(ROUNDS / 2);

    let mut metrics = Values::default();
    let mut ledgers = Vec::new();
    if traced {
        layer_metrics(
            w,
            &world,
            &local,
            &dist,
            &load,
            &retrained,
            &cfg,
            &trace,
            &mut metrics,
            &mut ledgers,
        );
    }
    let model = world.model.clone();
    let inputs_records = world.inputs.records;
    let log_mean_steps = world.inputs.mean_steps;
    let ingest = world.inputs.ingest_records_per_s;
    let down = world.teardown();
    if down.dropped > 0 {
        errors.push(format!("drain dropped {} in-flight queries", down.dropped));
    }

    let attempted = local.attempted + dist.attempted + load.sent() + trajectories;
    let failed = local.failed + dist.failed + load.refused + wrong + replay_failures;
    if traced {
        metrics.set("serve.scheduler.batch_p50", down.stats.batch_p50() as f64);
        metrics.set("serve.shed", down.stats.shed as f64);
        metrics.set("serve.evicted", down.stats.evicted as f64);
        metrics.set("serve.deadline_expired", down.stats.deadline_expired as f64);
        metrics.set("dist.net.retries", down.net.retries as f64);
        metrics.set("dist.net.reconnects", down.net.reconnects as f64);
        metrics.set("exp.sink.dropped", down.sink_dropped as f64);
        metrics.set("exp.sink.ingest_records_per_s", ingest);
        if w.mix == Mix::TenantHot {
            metrics.set("daemon.usage.accepted", down.tenant_accepted as f64);
        }
    } else {
        metrics.set("setup_s", median(&setups));
        metrics.set("train_rollouts_per_s", median(&local_rates));
        metrics.set("train_iter_p50_ms", median(&local.iter_ms));
        metrics.set("dist_rollouts_per_s", median(&dist_rates));
        metrics.set("query_rps", median(&query_rates));
        query_latency_metrics(&load, scale >= 1.0, &mut metrics, &mut errors);
        metrics.set("retrain_records_per_s", median(&retrain_rates));
        metrics.set("peak_rss_mib", peak_rss_mib());
    }

    let detail = Json::Obj(vec![
        Json::field("workload", text(w.name)),
        Json::field("seed", num(seed as f64)),
        Json::field("seconds", num(seconds)),
        Json::field("traced", num(f64::from(u8::from(traced)))),
        Json::field("clients", num(clients() as f64)),
        Json::field("model_fp", text(format!("{:016x}", model.fingerprint))),
        Json::field("train.params_fp", text(local.params_fp.hex())),
        Json::field("train.reward_fp", text(local.reward_fp.hex())),
        Json::field("dist.params_fp", text(dist.params_fp.hex())),
        Json::field("retrain.state_fp", text(retrained.state_fp.hex())),
        Json::field("rounds", num(ROUNDS as f64)),
        Json::field("train.rollouts_per_s.rounds", nums(&local_rates)),
        Json::field("dist.rollouts_per_s.rounds", nums(&dist_rates)),
        Json::field("query.rps.rounds", nums(&query_rates)),
        Json::field("retrain.records_per_s.rounds", nums(&retrain_rates)),
        Json::field("train.iterations", num(local.iter_ms.len() as f64)),
        Json::field("train.rollouts", num(local.rollouts as f64)),
        Json::field("train.steps_per_rollout", num(local.steps_per_rollout())),
        Json::field("train.wall_s", num(local.wall_s)),
        Json::field("train.iter_p50_ms", num(median(&local.iter_ms))),
        Json::field("dist.wall_s", num(dist.wall_s)),
        Json::field("dist.iter_p50_ms", num(median(&dist.iter_ms))),
        Json::field("query.samples", num(load.latencies_ms.len() as f64)),
        Json::field("query.wall_s", num(load.wall_s)),
        Json::field("query.p50_ms", num(load.p50_ms())),
        Json::field("query.p95_ms.windows", nums(&load.window_tail_ms)),
        Json::field(
            "query.pooled_p75_p90_p95_p98_p99_ms",
            nums(&[0.75, 0.90, 0.95, 0.98, 0.99].map(|p| percentile(&load.latencies_ms, p))),
        ),
        Json::field("query.refused", num(load.refused as f64)),
        Json::field("query.wrong", num(wrong as f64)),
        Json::field(
            "retrain.records_loaded",
            num(retrained.report.records_loaded as f64),
        ),
        Json::field("retrain.log_records", num(inputs_records as f64)),
        Json::field("retrain.log_mean_steps", num(log_mean_steps)),
        Json::field(
            "retrain.steps_taken",
            num(retrained.report.steps_taken as f64),
        ),
        Json::field("retrain.trajectories", num(trajectories as f64)),
        Json::field("retrain.wall_s", num(retrained.wall_s)),
        Json::field("setup_s.samples", nums(&setups)),
        Json::field("errors", Json::Arr(errors.iter().map(text).collect())),
    ]);
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
        ledgers,
        spans: trace.to_json(),
    }
}

/// The traced run's per-layer numbers: the executor wrapper's spans, the
/// staged serial replays, the query onion and the standalone piece costs.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    world: &World,
    local: &TrainPhase,
    dist: &TrainPhase,
    load: &Load,
    retrained: &RetrainPhase,
    cfg: &RetrainConfig,
    trace: &Trace,
    m: &mut Values,
    ledgers: &mut Vec<Ledger>,
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let designs = world.train.len() as f64;

    // Train: wrapper spans, then one staged serial iteration per design.
    let batch_p50 = median(&trace.self_ms_of("core.parallel.run_batch"));
    m.set("core.parallel.batch_ms", batch_p50);
    m.set(
        "core.reinforce.update_ms",
        median(&trace.self_ms_of("train.iteration")),
    );
    let (staged, ledger, pieces) = staged_suite(&world.train, &world.config);
    let rollouts = staged.rollouts as f64;
    let mean = |f: fn(&PieceCosts) -> f64| pieces.iter().map(f).sum::<f64>() / designs;
    let gnn_total: f64 = ledger
        .rows
        .iter()
        .find(|r| r.0 == "core.epgnn.forward")
        .map_or(0.0, |r| r.1);
    let other_total: f64 = ledger
        .rows
        .iter()
        .find(|r| r.0 == "core.agent.decode_other")
        .map_or(0.0, |r| r.1);
    m.set("netlist.generate_ms", mean(|p| p.generate_ms));
    m.set("core.env.build_ms", mean(|p| p.env_build_ms));
    m.set("sta.analyze_full_ms", mean(|p| p.analyze_ms));
    m.set("sta.incremental.move_us", mean(|p| p.incremental_move_us));
    m.set("core.features.with_flags_us", mean(|p| p.with_flags_us));
    m.set("core.masking.select_us", mean(|p| p.mask_select_us));
    m.set("core.epgnn.forward_ms", mean(|p| p.gnn_forward_ms));
    m.set("core.epgnn.share_of_rollout", gnn_total / staged.rollout_ms);
    m.set(
        "core.agent.steps_per_rollout",
        staged.steps as f64 / rollouts,
    );
    m.set("core.agent.rollout_ms", staged.rollout_ms / rollouts);
    m.set("core.agent.decode_other_ms", other_total / rollouts);
    m.set("nn.tape.backward_ms", staged.backward_ms / rollouts);
    m.set("nn.tape.nodes", staged.tape_nodes as f64 / rollouts);
    m.set("nn.gradset.reduce_us", staged.reduce_ms * 1e3 / designs);
    m.set("nn.adam.step_us", staged.adam_ms * 1e3 / designs);
    m.set("flow.evaluate_ms", staged.evaluate_ms / rollouts);
    m.set(
        "flow.share_of_rollout",
        staged.evaluate_ms / staged.rollout_work_ms(),
    );
    // Serial work of one batch over the cores it could use, against the
    // wall the real batch took.
    let serial_batch_ms = staged.rollout_work_ms() / designs;
    let lanes = world.config.workers.min(cores) as f64;
    m.set(
        "core.parallel.efficiency",
        serial_batch_ms / (lanes * batch_p50),
    );
    m.set("train.unattributed_share", ledger.unattributed_share());
    ledgers.push(ledger);

    // Dist: what a round adds over an in-process iteration, and its codec.
    let iterations = local.iter_ms.len() as f64;
    m.set(
        "dist.round.added_ms",
        (dist.wall_s - local.wall_s) * 1e3 / iterations,
    );
    let rounds: Vec<_> = world
        .train
        .iter()
        .map(|d| round_codec(&d.env, &world.config, clients()))
        .collect();
    m.set(
        "dist.protocol.codec_ms",
        rounds.iter().map(|r| r.codec_ms).sum::<f64>() / designs,
    );
    m.set(
        "dist.bytes_per_round",
        rounds.iter().map(|r| r.bytes_per_round as f64).sum::<f64>() / designs,
    );

    // Query: the onion, one client per depth over client 0's sequence.
    let sequence = &world.requests[0][..world.requests[0].len().min(4096)];
    let (greedy, sample) =
        direct_inference(&world.model, &world.serve, sequence, Duration::from_secs(3));
    let sample_ms = median(&sample);
    let greedy_ms = if greedy.is_empty() {
        // A sample-only mix still warms its caches greedily once.
        let all_greedy: Vec<Query> = (0..world.serve.len())
            .map(|design| Query {
                design,
                mode: Mode::Greedy,
            })
            .collect();
        median(
            &direct_inference(
                &world.model,
                &world.serve,
                &all_greedy,
                Duration::from_secs(3),
            )
            .0,
        )
    } else {
        median(&greedy)
    };
    m.set("core.infer.sample_ms", sample_ms);
    m.set("core.infer.greedy_ms", greedy_ms);
    let d0 = median(&greedy.iter().chain(&sample).copied().collect::<Vec<_>>());
    let depths = onion(
        &world.config,
        &world.keys,
        sequence,
        Duration::from_secs_f64(2.5),
    );
    m.set("serve.scheduler.added_p50_ms", depths.d1_ms - d0);
    m.set(
        "serve.front_blocking.added_p50_ms",
        depths.d2_ms - depths.d1_ms,
    );
    m.set(
        "serve.front_reactor.added_p50_ms",
        depths.d2r_ms - depths.d1_ms,
    );
    m.set("daemon.front.added_p50_ms", depths.d3_ms - depths.d1_ms);
    let fronts = front_costs(
        &world.model,
        &world.serve,
        &world.requests_prefix(2048),
        &serve_config(None),
    );
    m.set("serve.protocol.codec_us", fronts.codec_us);
    m.set("wire.frame.roundtrip_us", fronts.frame_roundtrip_us);
    m.set("daemon.tenant.admit_us", fronts.admit_us);
    m.set("serve.cache.env_build_ms", fronts.env_build_ms);
    m.set("serve.cache.env_hit_share", fronts.env_hit_share);
    m.set(
        "serve.cache.selection_hit_share",
        fronts.selection_hit_share,
    );
    if w.mix == Mix::SampledCold {
        // No daemon rides this workload: report the onion's tenant-port run.
        m.set("daemon.usage.accepted", depths.d3_accepted as f64);
    }
    let mut query = Ledger::new("query", load.p50_ms());
    query
        .row("core.infer", d0)
        .row("serve.scheduler", depths.d1_ms - d0);
    if w.mix == Mix::TenantHot {
        let front = depths.d3_ms - depths.d1_ms;
        let named = (fronts.codec_us + fronts.frame_roundtrip_us + fronts.admit_us) / 1e3;
        query
            .row("serve.protocol.codec", fronts.codec_us / 1e3)
            .row("wire.frame.roundtrip", fronts.frame_roundtrip_us / 1e3)
            .row("daemon.tenant.admit", fronts.admit_us / 1e3)
            .row("daemon.front.other", front - named);
    }
    m.set("query.unattributed_share", query.unattributed_share());
    ledgers.push(query);

    // Retrain: the staged pieces against the real call's wall.
    let staged = staged_retrain(&world.inputs, &world.dir.join("staged"), &world.config, cfg);
    m.set("core.checkpoint.save_ms", staged.checkpoint_save_ms);
    m.set("core.checkpoint.load_ms", staged.checkpoint_load_ms);
    m.set("exp.record.codec_us", staged.record_codec_us);
    m.set("exp.buffer.push_us", staged.buffer_push_us);
    m.set("exp.rebuild.env_ms", staged.rebuild_env_ms);
    m.set(
        "exp.retrain.load_ms",
        staged.log_load_ms + 2.0 * staged.checkpoint_load_ms,
    );
    m.set("core.replay.teacher_forced_ms", staged.teacher_forced_ms);
    let ledger = retrain_ledger(retrained, &staged, world.inputs.records, cfg);
    m.set("retrain.unattributed_share", ledger.unattributed_share());
    ledgers.push(ledger);

    // Tracing cost: spans recorded x what recording one costs, over the
    // wall of the phase that recorded them.
    let overhead_ms = trace.len() as f64 * Trace::cost_per_span_us() / 1e3;
    m.set(
        "bench.trace_overhead_share",
        overhead_ms / (local.wall_s * 1e3),
    );
}

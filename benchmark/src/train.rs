//! The training path: `try_train_with` on the in-process executor and on a
//! loopback worker fleet, seen through a pass-through executor wrapper, and
//! the staged serial replay of one iteration through its public pieces.

use crate::design::Picked;
use crate::ledger::{Ledger, Trace};
use crate::stats::{median, Fnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{
    select_endpoints, try_train_with, CcdEnv, ExecutorBatch, FaultPlan, LocalExecutor, RlCcd,
    RlConfig, RolloutExecutor, RolloutRequest, SelectionMask, TrainSession,
};
use rl_ccd_dist::{
    decode_request, decode_response, encode_request, encode_response, serve_worker, BatchResponse,
    DistExecutor, NetStats, Request, Response, RolloutItem, RunRequest,
};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, CellId, DesignSpec, Library};
use rl_ccd_nn::{Adam, GradSet, Tape};
use rl_ccd_sta::{analyze, Constraints, EndpointMargins, IncrementalTimer, TimingGraph};
use std::hint::black_box;
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::Instant;

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Pass-through [`RolloutExecutor`]: forwards every batch untouched and
/// notes when it entered and left, how many rollouts survived, and whether
/// any batch came back short or with faults.
#[derive(Debug)]
pub struct TimedExecutor<'a> {
    inner: &'a mut dyn RolloutExecutor,
    batches: Vec<(Instant, Instant)>,
    survivors: usize,
    attempted: usize,
    faults: usize,
    steps: usize,
}

impl<'a> TimedExecutor<'a> {
    pub fn new(inner: &'a mut dyn RolloutExecutor) -> Self {
        Self {
            inner,
            batches: Vec::new(),
            survivors: 0,
            attempted: 0,
            faults: 0,
            steps: 0,
        }
    }
}

impl RolloutExecutor for TimedExecutor<'_> {
    fn run_batch(&mut self, req: &RolloutRequest<'_>) -> ExecutorBatch {
        let entered = Instant::now();
        let batch = self.inner.run_batch(req);
        self.batches.push((entered, Instant::now()));
        self.attempted += req.pairs.len();
        self.survivors += batch.rollouts.len();
        self.faults += batch.faults.len();
        self.steps += batch.rollouts.iter().map(|r| r.steps).sum::<usize>();
        batch
    }
}

/// One untimed batch of `rollouts` rollouts through `executor`.
fn warm_up_batch(
    executor: &mut dyn RolloutExecutor,
    env: &CcdEnv,
    config: &RlConfig,
    rollouts: usize,
) {
    let (model, params) = RlCcd::init(config.clone());
    let pairs: Vec<(usize, u64)> = (0..rollouts).map(|w| (w, 0x3A93 + w as u64)).collect();
    let warm = executor.run_batch(&RolloutRequest {
        iteration: 0,
        pairs: &pairs,
        params: &params,
        model: &model,
        env,
        config,
        plan: &FaultPlan::none(),
    });
    assert_eq!(
        warm.rollouts.len(),
        pairs.len(),
        "warm-up batch lost a rollout"
    );
}

/// `C` loopback `serve_worker` threads behind one [`DistExecutor`]. A fleet
/// serves one design for its whole life (workers initialise once).
#[derive(Debug)]
pub struct Fleet {
    executor: DistExecutor,
    workers: Vec<JoinHandle<()>>,
}

impl Fleet {
    /// Starts the workers, connects, and runs one untimed rollout per
    /// worker so the netlist transfer and the per-worker environment
    /// rebuild are paid before anything is measured.
    pub fn start(workers: usize, env: &CcdEnv, config: &RlConfig) -> Self {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..workers {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
            addrs.push(listener.local_addr().expect("worker addr").to_string());
            handles.push(std::thread::spawn(move || {
                let _ = serve_worker(listener);
            }));
        }
        let mut executor = DistExecutor::connect(&addrs).expect("connect worker fleet");
        warm_up_batch(&mut executor, env, config, workers);
        Self {
            executor,
            workers: handles,
        }
    }

    /// Sends `Shutdown`, joins every worker thread, returns the transport
    /// counters.
    pub fn stop(mut self) -> NetStats {
        let stats = self.executor.net_stats();
        self.executor.shutdown();
        for handle in self.workers {
            let _ = handle.join();
        }
        stats
    }
}

/// What one train phase (all designs, one executor kind) measured.
#[derive(Debug, Default)]
pub struct TrainPhase {
    pub wall_s: f64,
    pub rollouts: usize,
    pub attempted: usize,
    pub failed: usize,
    pub steps: usize,
    pub iter_ms: Vec<f64>,
    pub params_fp: Fnv,
    pub reward_fp: Fnv,
    pub errors: Vec<String>,
}

impl TrainPhase {
    pub fn rollouts_per_s(&self) -> f64 {
        self.rollouts as f64 / self.wall_s
    }

    pub fn steps_per_rollout(&self) -> f64 {
        self.steps as f64 / self.rollouts.max(1) as f64
    }

    /// Folds another round of the same phase into this one: totals add,
    /// samples append, fingerprints chain in round order.
    pub fn absorb(&mut self, round: TrainPhase) {
        self.wall_s += round.wall_s;
        self.rollouts += round.rollouts;
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.steps += round.steps;
        self.iter_ms.extend(round.iter_ms);
        self.params_fp.u64(round.params_fp.0);
        self.reward_fp.u64(round.reward_fp.0);
        self.errors.extend(round.errors);
    }
}

/// Trains every design for `config.max_iterations` iterations, through the
/// design's fleet when `fleets` is given and in-process otherwise, and
/// checks what a clean run guarantees.
pub fn train_phase(
    designs: &[Picked],
    config: &RlConfig,
    mut fleets: Option<&mut [Fleet]>,
    trace: &mut Trace,
) -> TrainPhase {
    let mut phase = TrainPhase::default();
    for (i, design) in designs.iter().enumerate() {
        let mut local = LocalExecutor;
        let inner: &mut dyn RolloutExecutor = match fleets.as_deref_mut() {
            Some(fleets) => &mut fleets[i].executor,
            None => &mut local,
        };
        let mut timed = TimedExecutor::new(inner);
        let started = Instant::now();
        let outcome = try_train_with(&design.env, config, TrainSession::default(), &mut timed);
        let ended = Instant::now();
        phase.wall_s += ended.duration_since(started).as_secs_f64();
        phase.rollouts += timed.survivors;
        phase.attempted += timed.attempted;
        phase.failed += timed.attempted - timed.survivors;
        phase.steps += timed.steps;

        // An iteration runs from one run_batch entry to the next; the last
        // one ends when try_train returns.
        let run_span = trace.record("train.run", None, started, ended);
        for (k, &(entered, left)) in timed.batches.iter().enumerate() {
            let next = timed.batches.get(k + 1).map_or(ended, |b| b.0);
            let iter_span = trace.record("train.iteration", run_span, entered, next);
            trace.record("core.parallel.run_batch", iter_span, entered, left);
            phase
                .iter_ms
                .push(next.duration_since(entered).as_secs_f64() * 1e3);
        }

        let name = &design.key;
        match outcome {
            Err(e) => phase.errors.push(format!("{name}: training failed: {e}")),
            Ok(outcome) => {
                if outcome.history.len() != config.max_iterations {
                    phase.errors.push(format!(
                        "{name}: {} iterations, expected {}",
                        outcome.history.len(),
                        config.max_iterations
                    ));
                }
                if !outcome.faults.is_empty() || timed.faults > 0 {
                    phase
                        .errors
                        .push(format!("{name}: rollout faults in a clean run"));
                }
                if let Some(h) = outcome
                    .history
                    .iter()
                    .find(|h| h.rewards.len() != config.workers)
                {
                    phase.errors.push(format!(
                        "{name}: iteration {} kept {} of {} rollouts",
                        h.iteration,
                        h.rewards.len(),
                        config.workers
                    ));
                }
                let default_tns = design.env.default_flow().final_qor.tns_ps;
                if outcome.best_result.final_qor.tns_ps < default_tns {
                    phase.errors.push(format!(
                        "{name}: best TNS {} worse than the default flow's {default_tns}",
                        outcome.best_result.final_qor.tns_ps
                    ));
                }
                for (pname, tensor) in outcome.params.iter() {
                    phase.params_fp.bytes(pname.as_bytes()).f32s(tensor.data());
                }
                for h in &outcome.history {
                    for &r in &h.rewards {
                        phase.reward_fp.f64(r);
                    }
                    phase.reward_fp.f64(h.greedy_reward);
                }
            }
        }
    }
    phase
}

/// One training iteration replayed serially through the public functions
/// the trainer and its workers call, each piece timed on its own. Times are
/// sums over the iteration's rollouts, in ms.
#[derive(Clone, Debug, Default)]
pub struct StagedIteration {
    pub wall_ms: f64,
    pub rollouts: usize,
    pub steps: usize,
    pub tape_nodes: usize,
    pub rollout_ms: f64,
    pub backward_ms: f64,
    pub accumulate_ms: f64,
    pub tape_drop_ms: f64,
    pub evaluate_ms: f64,
    pub reduce_ms: f64,
    pub adam_ms: f64,
    pub greedy_infer_ms: f64,
    pub greedy_eval_ms: f64,
}

impl StagedIteration {
    /// Everything a worker does for its rollouts.
    pub fn rollout_work_ms(&self) -> f64 {
        self.rollout_ms
            + self.backward_ms
            + self.accumulate_ms
            + self.tape_drop_ms
            + self.evaluate_ms
    }

    fn add(&mut self, other: &StagedIteration) {
        self.wall_ms += other.wall_ms;
        self.rollouts += other.rollouts;
        self.steps += other.steps;
        self.tape_nodes += other.tape_nodes;
        self.rollout_ms += other.rollout_ms;
        self.backward_ms += other.backward_ms;
        self.accumulate_ms += other.accumulate_ms;
        self.tape_drop_ms += other.tape_drop_ms;
        self.evaluate_ms += other.evaluate_ms;
        self.reduce_ms += other.reduce_ms;
        self.adam_ms += other.adam_ms;
        self.greedy_infer_ms += other.greedy_infer_ms;
        self.greedy_eval_ms += other.greedy_eval_ms;
    }
}

/// Replays iteration 0 of a training run on `env`: the same seeds, the same
/// calls in the same order as `run_one_worker` and `run_training`, one
/// rollout at a time.
pub fn staged_iteration(env: &CcdEnv, config: &RlConfig) -> StagedIteration {
    let (model, mut params) = RlCcd::init(config.clone());
    let mut adam = Adam::new(config.learning_rate);
    let mut s = StagedIteration::default();
    // One untimed trajectory first: a tape's first allocation pays page
    // faults that every later same-sized tape in this thread does not, and
    // the pieces are compared at that steady state.
    let warm = model.rollout(&params, env, &mut StdRng::seed_from_u64(config.seed));
    drop(warm.tape.backward(warm.total_log_prob));
    drop(warm);
    let wall = Instant::now();
    let mut scored = Vec::new();
    for w in 0..config.workers {
        let seed = config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(w as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Instant::now();
        let rollout = model.rollout(&params, env, &mut rng);
        s.rollout_ms += ms_since(t);
        s.tape_nodes += rollout.tape.len();
        s.steps += rollout.steps();
        let t = Instant::now();
        let mut gradients = rollout.tape.backward(rollout.total_log_prob);
        s.backward_ms += ms_since(t);
        let t = Instant::now();
        let mut grads = GradSet::new();
        grads.accumulate(&rollout.binding, &mut gradients);
        s.accumulate_ms += ms_since(t);
        let selected = rollout.selected.clone();
        let t = Instant::now();
        drop(gradients);
        drop(rollout);
        s.tape_drop_ms += ms_since(t);
        let t = Instant::now();
        let reward = env.evaluate(&selected).final_qor.tns_ps;
        s.evaluate_ms += ms_since(t);
        scored.push((reward, grads));
    }
    s.rollouts = scored.len();

    let t = Instant::now();
    let n = scored.len() as f64;
    let mean = scored.iter().map(|(r, _)| r).sum::<f64>() / n;
    let std = (scored.iter().map(|(r, _)| (r - mean).powi(2)).sum::<f64>() / n).sqrt();
    let mut merged = GradSet::new();
    for (reward, grads) in scored {
        let advantage = if std > 1e-9 {
            ((reward - mean) / std) as f32
        } else {
            0.0
        };
        let mut local = GradSet::new();
        local.merge(grads);
        local.scale(-advantage);
        merged.merge(local);
    }
    merged.average();
    merged.clip_global_norm(config.grad_clip);
    s.reduce_ms = ms_since(t);
    let t = Instant::now();
    adam.step(&mut params, &merged);
    s.adam_ms = ms_since(t);

    let t = Instant::now();
    let greedy = select_endpoints(&model, &params, env);
    s.greedy_infer_ms = ms_since(t);
    let t = Instant::now();
    black_box(env.evaluate(&greedy));
    s.greedy_eval_ms = ms_since(t);
    s.wall_ms = ms_since(wall);
    s
}

/// Per-call costs of the pieces a decode step is made of, and of building a
/// design, each timed standalone at the design's size.
#[derive(Clone, Debug, Default)]
pub struct PieceCosts {
    pub generate_ms: f64,
    pub env_build_ms: f64,
    pub analyze_ms: f64,
    pub incremental_move_us: f64,
    pub with_flags_us: f64,
    pub gnn_forward_ms: f64,
    pub mask_select_us: f64,
}

const PIECE_REPS: usize = 9;

fn median_of(reps: usize, mut once: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| once()).collect::<Vec<_>>())
}

/// Times the pieces on the design behind `picked`. `steps` is how many
/// encodes one rollout records, so the EP-GNN forward is timed on a tape
/// that grows as a rollout's does.
pub fn piece_costs(picked: &Picked, config: &RlConfig, steps: usize) -> PieceCosts {
    let env = &picked.env;
    let key = &picked.key;
    let tech = Library::parse_tech(&key.tech).expect("picked design has a known tech");
    let spec = DesignSpec::new(key.name.clone(), key.cells, tech, key.seed);
    let mut c = PieceCosts {
        generate_ms: median_of(PIECE_REPS, || {
            let t = Instant::now();
            black_box(generate(&spec));
            ms_since(t)
        }),
        env_build_ms: median_of(PIECE_REPS, || {
            let design = generate(&spec);
            let t = Instant::now();
            black_box(CcdEnv::new(
                design,
                FlowRecipe::default(),
                config.fanout_cap,
            ));
            ms_since(t)
        }),
        ..PieceCosts::default()
    };

    let design = env.design();
    let netlist = &design.netlist;
    let graph = TimingGraph::new(netlist);
    let clocks = env.recipe().clock_schedule(netlist, design.period_ps);
    let constraints = Constraints::with_period(design.period_ps);
    let margins = EndpointMargins::zero(netlist);
    c.analyze_ms = median_of(PIECE_REPS, || {
        let t = Instant::now();
        black_box(analyze(netlist, &graph, &constraints, &clocks, &margins));
        ms_since(t)
    });
    let mut timer = IncrementalTimer::new(netlist, &constraints, &clocks, &margins);
    let flops = netlist.flops().len();
    let moves: Vec<f64> = (0..flops.min(256))
        .map(|r| {
            let target = timer.clock_arrival(r) + 5.0;
            let t = Instant::now();
            timer.set_clock_arrival(netlist, r, target);
            ms_since(t) * 1e3
        })
        .collect();
    c.incremental_move_us = median(&moves);

    // Flags as they stand half-way through a trajectory.
    let flagged: Vec<CellId> = env.pool_cells()[..env.pool().len() / 2].to_vec();
    c.with_flags_us = median_of(PIECE_REPS * 3, || {
        let t = Instant::now();
        black_box(env.features().with_flags(&flagged));
        ms_since(t) * 1e3
    });

    // Two passes over a fresh tape that grows as a rollout's does; the
    // second is timed (same steady state as the staged iteration).
    let (model, params) = RlCcd::init(config.clone());
    let mut encodes = Vec::new();
    for _pass in 0..2 {
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        encodes = (0..steps.max(1))
            .map(|_| {
                let x = tape.leaf(env.features().with_flags(&flagged));
                let t = Instant::now();
                black_box(model.gnn_forward(
                    &mut tape,
                    &binding,
                    x,
                    env.adjacency(),
                    env.readout(),
                ));
                ms_since(t)
            })
            .collect();
    }
    c.gnn_forward_ms = median(&encodes);

    let mut selects = Vec::new();
    let mut mask = SelectionMask::new(env.pool().len(), config.rho);
    while let Some(action) = mask.valid_mask().iter().position(|&v| v) {
        let t = Instant::now();
        black_box(mask.select(action, env.cones()));
        selects.push(ms_since(t) * 1e3);
    }
    c.mask_select_us = median(&selects);
    c
}

/// The train ledger of one design: the staged serial iteration's wall
/// divided among layers. The decode loop cannot be timed from outside
/// `RlCcd::rollout`, so its three nameable pieces are priced at their
/// standalone cost × steps and the rest of the rollout is `decode_other`.
pub fn train_ledger(staged: &StagedIteration, pieces: &PieceCosts) -> Ledger {
    let steps = staged.steps as f64;
    let flags = steps * pieces.with_flags_us / 1e3;
    let gnn = steps * pieces.gnn_forward_ms;
    let mask = steps * pieces.mask_select_us / 1e3;
    let mut ledger = Ledger::new("train", staged.wall_ms);
    ledger
        .row("core.features.with_flags", flags)
        .row("core.epgnn.forward", gnn)
        .row("core.masking.select", mask)
        .row(
            "core.agent.decode_other",
            staged.rollout_ms - flags - gnn - mask,
        )
        .row("nn.tape.backward", staged.backward_ms)
        .row("nn.gradset.accumulate", staged.accumulate_ms)
        .row("nn.tape.drop", staged.tape_drop_ms)
        .row("flow.evaluate", staged.evaluate_ms + staged.greedy_eval_ms)
        .row("nn.gradset.reduce", staged.reduce_ms)
        .row("nn.adam.step", staged.adam_ms)
        .row("core.infer.greedy_eval", staged.greedy_infer_ms);
    ledger
}

/// Staged iterations and piece costs summed over a workload's designs (one
/// iteration each), so a suite of small designs is one ledger.
pub fn staged_suite(
    designs: &[Picked],
    config: &RlConfig,
) -> (StagedIteration, Ledger, Vec<PieceCosts>) {
    let mut total = StagedIteration::default();
    let mut ledger = Ledger::new("train", 0.0);
    let mut costs = Vec::new();
    for design in designs {
        let staged = staged_iteration(&design.env, config);
        let steps_per_rollout = staged.steps.div_ceil(staged.rollouts.max(1));
        let pieces = piece_costs(design, config, steps_per_rollout);
        let one = train_ledger(&staged, &pieces);
        if ledger.rows.is_empty() {
            ledger.rows = one.rows;
        } else {
            for (acc, (_, ms)) in ledger.rows.iter_mut().zip(one.rows) {
                acc.1 += ms;
            }
        }
        total.add(&staged);
        costs.push(pieces);
    }
    ledger.wall_ms = total.wall_ms;
    (total, ledger, costs)
}

/// Codec cost and size of one real dispatch round for `env`: the
/// `RunRequest` a coordinator sends each worker and the `BatchResponse`
/// each sends back, for `workers` workers sharing `config.workers` slots.
#[derive(Clone, Debug, Default)]
pub struct RoundCodec {
    pub codec_ms: f64,
    pub bytes_per_round: usize,
}

pub fn round_codec(env: &CcdEnv, config: &RlConfig, workers: usize) -> RoundCodec {
    let (model, params) = RlCcd::init(config.clone());
    let pairs: Vec<(usize, u64)> = (0..config.workers)
        .map(|w| (w, 0xC0DE + w as u64))
        .collect();
    let batch = LocalExecutor.run_batch(&RolloutRequest {
        iteration: 0,
        pairs: &pairs,
        params: &params,
        model: &model,
        env,
        config,
        plan: &FaultPlan::none(),
    });
    let share = config.workers.div_ceil(workers.max(1));
    let mut rollouts = batch.rollouts.into_iter();
    let mut out = RoundCodec::default();
    let mut once = Vec::new();
    for chunk in pairs.chunks(share) {
        let request = Request::Run(RunRequest {
            iteration: 0,
            req_id: 1,
            budget_ms: Some(120_000),
            pairs: chunk.to_vec(),
            injects: Vec::new(),
            params: params.clone(),
        });
        let response = Response::Batch(BatchResponse {
            items: rollouts
                .by_ref()
                .take(chunk.len())
                .map(|r| RolloutItem {
                    slot: r.slot,
                    seed: r.seed,
                    steps: r.steps,
                    reward: r.reward,
                    selection: r.selected.iter().map(|e| e.index()).collect(),
                    grads: r.log_prob_grads,
                })
                .collect(),
            faults: Vec::new(),
        });
        once.push((request, response));
    }
    out.codec_ms = median_of(PIECE_REPS, || {
        let t = Instant::now();
        for (request, response) in &once {
            let wire = encode_request(request);
            black_box(decode_request(&wire).expect("own request decodes"));
            let wire = encode_response(response);
            black_box(decode_response(&wire).expect("own response decodes"));
        }
        ms_since(t)
    });
    out.bytes_per_round = once
        .iter()
        .map(|(request, response)| encode_request(request).len() + encode_response(response).len())
        .sum();
    out
}

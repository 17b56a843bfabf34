//! Determinism pins: absolute fingerprints of what the workspace computes,
//! checked against the committed `tests/pins.txt` (`name hex` lines).
//!
//! The other determinism tests are relative — kill/resume ≡ clean, chaos ≡
//! clean, dist ≡ local, retrain twice ≡ once — so a change that moves a
//! number the same way on both sides passes all of them. These pins catch
//! that change: training (both kernel modes), retraining, inference, the
//! default flow and the EP-GNN forward pass each leave an FNV-1a 64 digest
//! here, at a scale that keeps the test a few seconds in a debug build.
//!
//! On a mismatch the test prints the whole file it computed. A change that
//! means to move a pin pastes that text into `tests/pins.txt`, so the diff
//! is the record of what moved.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{
    fnv1a64, sample_endpoints, save_training_state, select_endpoints, try_train_with,
    verify_manifest, CcdEnv, ExecutedRollout, ExecutorBatch, InferSession, LocalExecutor, RlCcd,
    RlConfig, RolloutExecutor, RolloutRequest, TrainSession, TrainingState,
};
use rl_ccd_exp::{build_env, feature_fingerprint, retrain, ExpRecord, RetrainConfig};
use rl_ccd_flow::{FlowRecipe, Qor};
use rl_ccd_netlist::{block_suite, generate, EndpointId};
use rl_ccd_nn::{Adam, ParamSet, Tape};
use rl_ccd_serve::DesignKey;
use std::fmt::Write as _;

/// Cell-count scale of the 19-block suite (every block lands at 120–650
/// cells).
const SCALE: f32 = 0.05;

/// Digests in the order they are computed.
#[derive(Default)]
struct Pins(Vec<(String, u64)>);

impl Pins {
    fn pin(&mut self, name: impl Into<String>, bytes: &[u8]) {
        self.0.push((name.into(), fnv1a64(bytes)));
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for (name, digest) in &self.0 {
            let _ = writeln!(out, "{name} {digest:016x}");
        }
        out
    }
}

fn qor_bytes(q: &Qor) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&q.wns_ps.to_bits().to_le_bytes());
    b.extend_from_slice(&q.tns_ps.to_bits().to_le_bytes());
    b.extend_from_slice(&(q.nve as u64).to_le_bytes());
    b.extend_from_slice(&q.power_mw.to_bits().to_le_bytes());
    b
}

fn selection_bytes(selection: &[EndpointId]) -> Vec<u8> {
    selection
        .iter()
        .flat_map(|e| (e.index() as u32).to_le_bytes())
        .collect()
}

fn params_bytes(params: &ParamSet) -> Vec<u8> {
    let mut b = Vec::new();
    for (name, tensor) in params.iter() {
        b.extend_from_slice(name.as_bytes());
        for v in tensor.data() {
            b.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    b
}

/// The training rollout path with every kernel on the scalar reference
/// lane: each `(slot, seed)` runs on a [`Tape::scalar_reference`] tape,
/// backpropagates there, and is scored by the flow — what
/// [`LocalExecutor`] does on the fast lane.
#[derive(Debug)]
struct ScalarKernels;

impl RolloutExecutor for ScalarKernels {
    fn run_batch(&mut self, req: &RolloutRequest<'_>) -> ExecutorBatch {
        let rollouts = req
            .pairs
            .iter()
            .map(|&(slot, seed)| {
                let rollout = req.model.rollout_with_tape(
                    req.params,
                    req.env,
                    Some(&mut StdRng::seed_from_u64(seed)),
                    Tape::scalar_reference(),
                );
                ExecutedRollout {
                    slot,
                    seed,
                    reward: req.env.reward(&rollout.selected),
                    steps: rollout.steps(),
                    selected: rollout.selected.clone(),
                    log_prob_grads: rollout.log_prob_grads(),
                }
            })
            .collect();
        ExecutorBatch {
            rollouts,
            faults: Vec::new(),
        }
    }
}

/// The default flow and the feature matrix of every block of the suite.
fn suite(pins: &mut Pins) -> Vec<CcdEnv> {
    let envs: Vec<CcdEnv> = block_suite(SCALE)
        .iter()
        .map(|spec| CcdEnv::new(generate(spec), FlowRecipe::default(), 24))
        .collect();
    for env in &envs {
        let name = &env.design().spec.name;
        pins.pin(
            format!("flow.{name}.final_qor"),
            &qor_bytes(&env.default_flow().final_qor),
        );
        pins.pin(
            format!("features.{name}"),
            &feature_fingerprint(env).to_le_bytes(),
        );
    }
    envs
}

/// The dense EP-GNN forward pass (paper dimensions) on one design.
fn epgnn(pins: &mut Pins, env: &CcdEnv) {
    let (model, params) = RlCcd::init(RlConfig::default());
    let mut tape = Tape::new();
    let binding = params.bind(&mut tape);
    let x = tape.leaf(env.features().with_flags(&[]));
    let embeddings = model.gnn_forward(&mut tape, &binding, x, env.adjacency(), env.readout());
    let bits: Vec<u8> = tape
        .value(embeddings)
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    pins.pin(format!("epgnn.forward.{}", env.design().spec.name), &bits);
}

/// Greedy and seeded selections through the one-shot inference functions.
fn inference(pins: &mut Pins, envs: &[&CcdEnv]) {
    let (model, params) = RlCcd::init(RlConfig::fast());
    for env in envs {
        let name = &env.design().spec.name;
        pins.pin(
            format!("select.{name}.greedy"),
            &selection_bytes(&select_endpoints(&model, &params, env)),
        );
        for seed in [1u64, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            pins.pin(
                format!("sample.{name}.seed{seed}"),
                &selection_bytes(&sample_endpoints(&model, &params, env, &mut rng)),
            );
        }
    }
}

/// Two training iterations per block, on the fast and the scalar kernels.
fn training(pins: &mut Pins, envs: &[&CcdEnv]) {
    let config = RlConfig {
        max_iterations: 2,
        ..RlConfig::fast()
    };
    for env in envs {
        let name = &env.design().spec.name;
        let lanes: [(&str, &mut dyn RolloutExecutor); 2] =
            [("fast", &mut LocalExecutor), ("scalar", &mut ScalarKernels)];
        for (lane, executor) in lanes {
            let outcome = try_train_with(env, &config, TrainSession::default(), executor)
                .expect("clean training run");
            assert_eq!(outcome.history.len(), 2, "{lane} {name}");
            pins.pin(
                format!("train.{lane}.{name}.params"),
                &params_bytes(&outcome.params),
            );
            let rewards: Vec<u8> = outcome
                .history
                .iter()
                .flat_map(|h| h.rewards.iter().chain([&h.greedy_reward]))
                .flat_map(|r| r.to_bits().to_le_bytes())
                .collect();
            pins.pin(format!("train.{lane}.{name}.rewards"), &rewards);
        }
    }
}

/// A retrain from a fresh base checkpoint over a log of four sampled
/// trajectories on one design (built from its key, as serving and the
/// retrainer build it).
fn retraining(pins: &mut Pins) {
    let dir = std::env::temp_dir().join(format!("rl-ccd-pins-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (base, out) = (dir.join("base"), dir.join("out"));
    let config = RlConfig::fast();
    let key: DesignKey = "pins:300:7nm:5".parse().expect("design key");
    let env = &build_env(&key, config.fanout_cap).expect("known tech");
    let (model, params) = RlCcd::init(config.clone());
    let state = TrainingState {
        next_iteration: 3,
        seed_base: config.seed,
        best_reward: -1.0e9,
        best_mean: -1.0e9,
        stale: 0,
        best_selection: vec![],
        params: params.clone(),
        adam: Adam::new(config.learning_rate),
        history: vec![],
        faults: vec![],
    };
    save_training_state(&state, &base).expect("save base checkpoint");

    let feat_fp = feature_fingerprint(env);
    let default = env.default_flow().final_qor;
    let mut session = InferSession::new(&model, &params);
    let mut log = String::new();
    for seed in 0..4u64 {
        let (selection, log_probs) = session.sample_logged(env, &mut StdRng::seed_from_u64(seed));
        let realized = env.evaluate(&selection).final_qor;
        let record = ExpRecord {
            design: key.to_string(),
            feat_fp,
            model: "champion".into(),
            policy_version: 3,
            policy_fp: 0xbeef,
            rho: config.rho,
            fanout_cap: config.fanout_cap,
            seed,
            selection: selection.iter().map(|e| e.index() as u32).collect(),
            log_probs,
            reward_tns_ps: realized.tns_ps,
            base_tns_ps: default.tns_ps,
            wns_delta_ps: f64::from(realized.wns_ps - default.wns_ps),
        };
        let _ = writeln!(log, "{}", record.to_jsonl());
    }
    pins.pin("retrain.log", log.as_bytes());
    let log_path = dir.join("log.jsonl");
    std::fs::write(&log_path, &log).expect("write log");

    let cfg = RetrainConfig {
        steps: 2,
        batch: 4,
        ..RetrainConfig::default()
    };
    let report = retrain(&base, &log_path, &out, &cfg).expect("retrain");
    assert_eq!(report.replay_failures, 0, "{report:?}");
    pins.pin(
        "retrain.state",
        &verify_manifest(&out).expect("retrained checkpoint verifies"),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_pin_matches_the_committed_file() {
    let mut pins = Pins::default();
    let envs = suite(&mut pins);
    let by_name = |name: &str| {
        envs.iter()
            .find(|e| e.design().spec.name == name)
            .expect("suite block")
    };
    epgnn(&mut pins, by_name("block7"));
    inference(
        &mut pins,
        &[by_name("block2"), by_name("block7"), by_name("block15")],
    );
    training(&mut pins, &[by_name("block1"), by_name("block3")]);
    retraining(&mut pins);

    let computed = pins.render();
    let committed = include_str!("pins.txt");
    if computed != committed {
        let moved: Vec<&str> = computed
            .lines()
            .filter(|line| !committed.lines().any(|c| c == *line))
            .collect();
        panic!(
            "{} pin(s) moved or are new: {moved:?}\n\
             If the change is intended, replace tests/pins.txt with:\n{computed}",
            moved.len()
        );
    }
}

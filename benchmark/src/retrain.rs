//! The retrain path: a base checkpoint and a fixed experience log written
//! through an `ExpSink` during set-up, `rl_ccd_exp::retrain` over them, and
//! the staged replay of the same work through its public pieces.

use crate::design::Picked;
use crate::ledger::Ledger;
use crate::stats::{median, Fnv};
use crate::train::ms_since;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{
    load_training_state, save_training_state, verify_manifest, InferSession, RlCcd, RlConfig,
    TrainingState,
};
use rl_ccd_exp::{
    build_env, feature_fingerprint, retrain, ExpRecord, ExpSink, ReplayBuffer, RetrainConfig,
    RetrainReport,
};
use rl_ccd_netlist::EndpointId;
use rl_ccd_nn::{Adam, GradSet};
use rl_ccd_serve::{DesignKey, ExperienceEvent, ExperienceHook};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The policy version the base checkpoint carries and the log was
/// "served" by (any fixed value; records must match the checkpoint).
const BASE_VERSION: usize = 3;

/// The retrain inputs on disk.
#[derive(Debug)]
pub struct RetrainInputs {
    pub base_dir: PathBuf,
    pub log_path: PathBuf,
    pub records: usize,
    /// Mean trajectory length of the logged records.
    pub mean_steps: f64,
    pub ingest_records_per_s: f64,
}

/// Writes the base checkpoint and builds the log `L0`: `records` sampled
/// trajectories over `designs` (round-robin, seeds derived from `seed`)
/// pushed through an [`ExpSink`], which realises each reward with a flow
/// run and appends the record.
pub fn write_inputs(
    dir: &Path,
    designs: &[Picked],
    config: &RlConfig,
    seed: u64,
    records: usize,
) -> RetrainInputs {
    std::fs::create_dir_all(dir).expect("create retrain work dir");
    let (model, params) = RlCcd::init(config.clone());
    let base_dir = dir.join("base");
    let state = TrainingState {
        next_iteration: BASE_VERSION,
        seed_base: config.seed,
        best_reward: -1.0e12,
        best_mean: -1.0e12,
        stale: 0,
        best_selection: vec![],
        params: params.clone(),
        adam: Adam::new(config.learning_rate),
        history: vec![],
        faults: vec![],
    };
    save_training_state(&state, &base_dir).expect("save base checkpoint");

    let mut session = InferSession::new(&model, &params);
    let events: Vec<ExperienceEvent> = (0..records)
        .map(|i| {
            let design = &designs[i % designs.len()];
            let sample_seed = seed.wrapping_mul(0x1_0000).wrapping_add(i as u64);
            let (selection, log_probs) =
                session.sample_logged(&design.env, &mut StdRng::seed_from_u64(sample_seed));
            ExperienceEvent {
                design: design.key.clone(),
                model: "champion".into(),
                version: BASE_VERSION,
                fingerprint: 0x00C0_FFEE,
                rho: config.rho,
                fanout_cap: config.fanout_cap,
                seed: sample_seed,
                selection,
                log_probs,
            }
        })
        .collect();

    let mean_steps =
        events.iter().map(|e| e.selection.len()).sum::<usize>() as f64 / records as f64;
    let log_path = dir.join("L0.jsonl");
    let sink = ExpSink::with_capacity(&log_path, records + 1).expect("open experience log");
    let t = Instant::now();
    for event in events {
        sink.on_sample(event);
    }
    let report = sink.finish().expect("first finish returns the report");
    let ingest_s = t.elapsed().as_secs_f64();
    RetrainInputs {
        base_dir,
        log_path,
        records: report.written as usize,
        mean_steps,
        ingest_records_per_s: report.written as f64 / ingest_s,
    }
}

/// One measured `retrain()` call.
#[derive(Debug)]
pub struct RetrainPhase {
    pub wall_s: f64,
    pub trajectories: usize,
    pub report: RetrainReport,
    pub state_fp: Fnv,
    pub errors: Vec<String>,
}

impl RetrainPhase {
    pub fn records_per_s(&self) -> f64 {
        self.trajectories as f64 / self.wall_s
    }
}

pub fn retrain_config(seed: u64, steps: usize) -> RetrainConfig {
    RetrainConfig {
        seed,
        steps,
        batch: 8,
        ..RetrainConfig::default()
    }
}

/// Runs `retrain()` from the inputs into `out_dir` and checks the report
/// and the committed checkpoint.
pub fn retrain_phase(inputs: &RetrainInputs, out_dir: &Path, cfg: &RetrainConfig) -> RetrainPhase {
    let started = Instant::now();
    let result = retrain(&inputs.base_dir, &inputs.log_path, out_dir, cfg);
    let wall_s = started.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    let mut state_fp = Fnv::default();
    let report = match result {
        Ok(report) => {
            if report.records_loaded != inputs.records {
                errors.push(format!(
                    "retrain loaded {} records, the log holds {}",
                    report.records_loaded, inputs.records
                ));
            }
            if report.replay_failures != 0 {
                errors.push(format!("{} replay failures", report.replay_failures));
            }
            match verify_manifest(out_dir) {
                Ok(bytes) => {
                    state_fp.bytes(&bytes);
                }
                Err(e) => errors.push(format!("retrained checkpoint fails verification: {e}")),
            }
            report
        }
        Err(e) => {
            errors.push(format!("retrain failed: {e}"));
            RetrainReport::default()
        }
    };
    RetrainPhase {
        wall_s,
        trajectories: cfg.steps * cfg.batch,
        report,
        state_fp,
        errors,
    }
}

/// The pieces of a retrain, each timed on its own (ms unless named).
#[derive(Clone, Debug, Default)]
pub struct StagedRetrain {
    pub checkpoint_load_ms: f64,
    pub checkpoint_save_ms: f64,
    pub log_load_ms: f64,
    pub record_codec_us: f64,
    pub buffer_push_us: f64,
    pub rebuild_env_ms: f64,
    pub designs: usize,
    pub teacher_forced_ms: f64,
    pub backward_ms: f64,
    pub update_ms: f64,
}

/// Replays what `retrain()` does through its public pieces: load the
/// checkpoint, parse and admit the log, rebuild and fingerprint each
/// distinct design, then `trajectories` teacher-forced replays with their
/// backward passes and one update per `batch`, and the final commit.
pub fn staged_retrain(
    inputs: &RetrainInputs,
    scratch: &Path,
    config: &RlConfig,
    cfg: &RetrainConfig,
) -> StagedRetrain {
    let mut s = StagedRetrain::default();
    let t = Instant::now();
    let state = load_training_state(&inputs.base_dir).expect("base checkpoint loads");
    s.checkpoint_load_ms = ms_since(t);

    let t = Instant::now();
    let text = std::fs::read_to_string(&inputs.log_path).expect("read L0");
    let records: Vec<ExpRecord> = text
        .lines()
        .map(|line| ExpRecord::parse(line).expect("own log parses"))
        .collect();
    s.log_load_ms = ms_since(t);
    let codec: Vec<f64> = text
        .lines()
        .map(|line| {
            let t = Instant::now();
            black_box(ExpRecord::parse(line).expect("own log parses"));
            ms_since(t) * 1e3
        })
        .collect();
    s.record_codec_us = median(&codec);

    let mut buffer = ReplayBuffer::new(BASE_VERSION, cfg.max_staleness);
    let pushes: Vec<f64> = records
        .iter()
        .map(|record| {
            let record = record.clone();
            let t = Instant::now();
            black_box(buffer.push(record));
            ms_since(t) * 1e3
        })
        .collect();
    s.buffer_push_us = median(&pushes);

    let mut envs = BTreeMap::new();
    let mut rebuilds = Vec::new();
    for record in &records {
        if envs.contains_key(&record.design) {
            continue;
        }
        let key: DesignKey = record.design.parse().expect("logged design key parses");
        let t = Instant::now();
        let env = build_env(&key, config.fanout_cap).expect("logged design rebuilds");
        let fp = feature_fingerprint(&env);
        rebuilds.push(ms_since(t));
        assert_eq!(
            fp, record.feat_fp,
            "rebuilt design differs from the logged one"
        );
        envs.insert(record.design.clone(), env);
    }
    s.rebuild_env_ms = median(&rebuilds);
    s.designs = envs.len();

    let (model, _) = RlCcd::init(config.clone());
    let mut params = state.params.clone();
    let mut adam = state.adam.clone();
    let (mut forced, mut backward, mut update) = (Vec::new(), Vec::new(), Vec::new());
    for step in 0..cfg.steps {
        let mut grads = GradSet::new();
        for j in 0..cfg.batch {
            let record = &records[(step * cfg.batch + j) % records.len()];
            let actions: Vec<EndpointId> = record
                .selection
                .iter()
                .map(|&e| EndpointId::new(e as usize))
                .collect();
            let t = Instant::now();
            let rollout = model
                .replay_trajectory(&params, &envs[&record.design], &actions)
                .expect("a logged trajectory replays");
            forced.push(ms_since(t));
            let t = Instant::now();
            let mut gradients = rollout.tape.backward(rollout.total_log_prob);
            let mut local = GradSet::new();
            local.accumulate(&rollout.binding, &mut gradients);
            drop(gradients);
            drop(rollout);
            backward.push(ms_since(t));
            grads.merge(local);
        }
        let t = Instant::now();
        grads.average();
        grads.clip_global_norm(cfg.grad_clip);
        adam.step(&mut params, &grads);
        update.push(ms_since(t));
    }
    s.teacher_forced_ms = median(&forced);
    s.backward_ms = median(&backward);
    s.update_ms = median(&update);

    let t = Instant::now();
    save_training_state(
        &TrainingState {
            params,
            adam,
            ..state
        },
        scratch,
    )
    .expect("save staged checkpoint");
    s.checkpoint_save_ms = ms_since(t);
    s
}

/// The retrain ledger: `retrain()`'s wall divided among the staged pieces
/// at the counts the real call made.
pub fn retrain_ledger(
    phase: &RetrainPhase,
    staged: &StagedRetrain,
    records: usize,
    cfg: &RetrainConfig,
) -> Ledger {
    let trajectories = (cfg.steps * cfg.batch) as f64;
    let mut ledger = Ledger::new("retrain", phase.wall_s * 1e3);
    ledger
        // retrain() reads the checkpoint twice: once for the optimiser
        // state, once through the model registry.
        .row("core.checkpoint.load", 2.0 * staged.checkpoint_load_ms)
        .row("exp.record.parse", staged.log_load_ms)
        .row(
            "exp.buffer.push",
            records as f64 * staged.buffer_push_us / 1e3,
        )
        .row(
            "exp.rebuild.env",
            staged.designs as f64 * staged.rebuild_env_ms,
        )
        .row(
            "core.replay.teacher_forced",
            trajectories * staged.teacher_forced_ms,
        )
        .row("nn.tape.backward", trajectories * staged.backward_ms)
        .row("nn.update", cfg.steps as f64 * staged.update_ms)
        .row("core.checkpoint.save", staged.checkpoint_save_ms);
    ledger
}

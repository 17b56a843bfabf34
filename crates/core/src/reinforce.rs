//! REINFORCE training (paper Eq. 7, Algorithm 1) on a fault-tolerant
//! runtime.
//!
//! Each iteration collects a mini-batch of parallel trajectories, scores
//! every one with a full flow run (terminal reward = final TNS), converts
//! rewards to standardized advantages (a batch-mean baseline — plain
//! REINFORCE is too noisy without one), and ascends
//! `Σ advantage · Σ_t log π(a_t|s_t)` with Adam. Training stops when the
//! best reward has not improved for `patience` consecutive iterations
//! (paper: 3) or the iteration cap is hit.
//!
//! # Fault tolerance
//!
//! The paper trains on an 8-worker CPU farm where long runs must survive
//! worker failures. Three layers make that true here:
//!
//! 1. **Rollout supervision** — rollouts run under
//!    [`LocalExecutor`]'s supervision (in-process, or inside each
//!    `rl-ccd-dist` worker); a panicked or non-finite rollout is
//!    quarantined with a [`RolloutFault`] record and the iteration
//!    proceeds if at least [`RlConfig::effective_quorum`] workers survive,
//!    aborting with [`TrainError::QuorumLost`] otherwise.
//! 2. **Update guards + soft restart** — [`reinforce_update`] validates
//!    the merged gradient and the post-step parameters/optimizer moments
//!    for finiteness; a divergent step is rolled back to the pre-step
//!    snapshot (kept in memory) and the learning rate is halved, so one
//!    bad batch can never destroy a run.
//! 3. **Atomic resumable checkpoints** — every `checkpoint_every`
//!    iterations the full [`TrainingState`] is committed via temp file +
//!    fsync + rename with a checksum manifest; [`resume_train_with`] continues
//!    a killed run bit-for-bit (rollout seeds are a pure function of the
//!    config seed and the iteration index, so nothing is lost with the
//!    process).

use crate::agent::RlCcd;
use crate::checkpoint::{
    load_training_state, save_training_state, training_state_exists, write_torn_training_state,
    CheckpointError, TrainingState,
};
use crate::config::RlConfig;
use crate::env::CcdEnv;
use crate::executor::{LocalExecutor, RolloutExecutor, RolloutRequest};
use crate::fault::{FaultKind, FaultPlan, RolloutFault};
use rl_ccd_flow::FlowResult;
use rl_ccd_netlist::EndpointId;
use rl_ccd_nn::{Adam, GradSet, ParamSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Per-iteration training telemetry.
#[derive(Clone, Debug, PartialEq)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Mean batch reward (TNS ps) over surviving rollouts
    /// (`-inf` when every rollout of the iteration was quarantined).
    pub mean_reward: f64,
    /// Best reward within this batch (`-inf` on an all-quarantined batch).
    pub batch_best: f64,
    /// Reward of the deterministic greedy trajectory *after* this
    /// iteration's update — the policy-quality curve of Fig. 6.
    pub greedy_reward: f64,
    /// Best reward seen so far across training.
    pub best_so_far: f64,
    /// Trajectory lengths of surviving rollouts.
    pub steps: Vec<usize>,
    /// Rewards of surviving rollouts, in worker order.
    pub rewards: Vec<f64>,
}

/// Everything a finished training run produces.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    /// Final parameters.
    pub params: ParamSet,
    /// The best flow result observed.
    pub best_result: FlowResult,
    /// The selection that produced it.
    pub best_selection: Vec<EndpointId>,
    /// Telemetry per iteration (the curves of Fig. 6).
    pub history: Vec<IterationStats>,
    /// Every quarantined rollout and guarded update across the run.
    pub faults: Vec<RolloutFault>,
}

/// Typed training failure. `Send + Sync`, so it crosses thread boundaries.
#[derive(Debug)]
pub enum TrainError {
    /// Fewer rollouts than the quorum survived an iteration.
    QuorumLost {
        /// The iteration that lost quorum.
        iteration: usize,
        /// How many rollouts survived.
        survivors: usize,
        /// How many were required.
        quorum: usize,
        /// The faults that destroyed the batch.
        faults: Vec<RolloutFault>,
    },
    /// Checkpoint I/O or validation failed.
    Checkpoint(CheckpointError),
    /// A resumed state was produced under a different master seed, so the
    /// rollout seed stream would diverge from the original run.
    SeedMismatch {
        /// Seed the checkpoint was trained with.
        expected: u64,
        /// Seed the resuming config carries.
        found: u64,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::QuorumLost {
                iteration,
                survivors,
                quorum,
                faults,
            } => write!(
                f,
                "iteration {iteration} lost quorum: {survivors} of {quorum} required rollouts survived ({} faults)",
                faults.len()
            ),
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            TrainError::SeedMismatch { expected, found } => write!(
                f,
                "resume seed mismatch: checkpoint was trained with seed {expected}, config has {found}"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Runtime options of one training run that are not model
/// hyper-parameters: warm-start parameters, checkpoint cadence, and the
/// test-only fault-injection hook.
#[derive(Clone, Debug, Default)]
pub struct TrainSession {
    /// Pre-trained parameters to start from (transfer learning); `None`
    /// trains from scratch.
    pub initial: Option<ParamSet>,
    /// Directory for periodic [`TrainingState`] checkpoints. `None`
    /// disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Commit the training state every this many iterations (0 disables
    /// periodic writes even when a directory is set).
    pub checkpoint_every: usize,
    /// Test-only deterministic fault injection; [`FaultPlan::none`] (the
    /// default) injects nothing.
    pub fault_plan: FaultPlan,
}

impl TrainSession {
    /// A session that checkpoints into `dir` every `every` iterations.
    pub fn checkpointed(dir: impl Into<PathBuf>, every: usize) -> Self {
        Self {
            checkpoint_dir: Some(dir.into()),
            checkpoint_every: every,
            ..Self::default()
        }
    }
}

/// The live loop state — exactly what a [`TrainingState`] persists, plus
/// the champion flow result (recomputable from the selection, so it is
/// not checkpointed).
struct LoopState {
    next_iteration: usize,
    params: ParamSet,
    adam: Adam,
    best_reward: f64,
    best_result: FlowResult,
    best_selection: Vec<EndpointId>,
    best_mean: f64,
    stale: usize,
    history: Vec<IterationStats>,
    faults: Vec<RolloutFault>,
}

impl LoopState {
    fn snapshot(&self, next_iteration: usize, config: &RlConfig) -> TrainingState {
        TrainingState {
            next_iteration,
            seed_base: config.seed,
            best_reward: self.best_reward,
            best_mean: self.best_mean,
            stale: self.stale,
            best_selection: self.best_selection.clone(),
            params: self.params.clone(),
            adam: self.adam.clone(),
            history: self.history.clone(),
            faults: self.faults.clone(),
        }
    }
}

/// Trains RL-CCD with full runtime control: warm start, periodic atomic
/// checkpoints, quorum supervision, and (in tests) fault injection.
///
/// # Errors
/// [`TrainError::QuorumLost`] when too few rollouts survive an iteration,
/// [`TrainError::Checkpoint`] when a checkpoint cannot be written.
pub fn try_train(
    env: &CcdEnv,
    config: &RlConfig,
    session: TrainSession,
) -> Result<TrainOutcome, TrainError> {
    try_train_with(env, config, session, &mut LocalExecutor)
}

/// [`try_train`] with an explicit [`RolloutExecutor`]: rollouts run
/// wherever the executor puts them (in-process threads, worker processes
/// over TCP, …) while the trainer stays bit-identical — rollouts are pure
/// functions of `(params, env, seed)` and gradients are reduced in slot
/// order regardless of completion order.
///
/// # Errors
/// Same contract as [`try_train`].
pub fn try_train_with(
    env: &CcdEnv,
    config: &RlConfig,
    session: TrainSession,
    executor: &mut dyn RolloutExecutor,
) -> Result<TrainOutcome, TrainError> {
    let (model, fresh) = RlCcd::init(config.clone());
    let params = session.initial.clone().unwrap_or(fresh);
    // The native flow (empty selection) seeds the champion: the tool's own
    // result is always available, so RL-CCD never reports anything worse.
    let default_flow = env.default_flow();
    let state = LoopState {
        next_iteration: 0,
        params,
        adam: Adam::new(config.learning_rate),
        best_reward: default_flow.final_qor.tns_ps,
        best_result: default_flow,
        best_selection: Vec::new(),
        best_mean: f64::NEG_INFINITY,
        stale: 0,
        history: Vec::new(),
        faults: Vec::new(),
    };
    run_training(env, config, &model, state, &session, executor)
}

/// Resumes a run from the [`TrainingState`] committed in `dir` and
/// continues training (checkpointing back into the same directory), with
/// an explicit [`RolloutExecutor`]. Because per-worker rollout seeds are
/// pure functions of the config seed and the absolute iteration index, a
/// kill at any iteration followed by resume — with any executor and any
/// worker count — reproduces the uninterrupted run bit-for-bit.
///
/// # Errors
/// [`TrainError::Checkpoint`] when the state fails to load or validate
/// (including champion endpoints out of range for this design), and
/// [`TrainError::SeedMismatch`] when `config.seed` differs from the seed
/// the checkpoint was produced under.
pub fn resume_train_with(
    env: &CcdEnv,
    config: &RlConfig,
    dir: &Path,
    mut session: TrainSession,
    executor: &mut dyn RolloutExecutor,
) -> Result<TrainOutcome, TrainError> {
    let state = load_training_state(dir)?;
    if state.seed_base != config.seed {
        return Err(TrainError::SeedMismatch {
            expected: state.seed_base,
            found: config.seed,
        });
    }
    let endpoint_count = env.design().netlist.endpoints().len();
    if let Some(bad) = state
        .best_selection
        .iter()
        .find(|e| e.index() >= endpoint_count)
    {
        return Err(TrainError::Checkpoint(CheckpointError::OutOfRange {
            index: bad.index(),
            max: endpoint_count,
        }));
    }
    let (model, _) = RlCcd::init(config.clone());
    // The champion flow result is deterministic in the selection, so it is
    // recomputed rather than stored (an empty selection is the native flow).
    let best_result = env.evaluate(&state.best_selection);
    session.checkpoint_dir = Some(dir.to_path_buf());
    let state = LoopState {
        next_iteration: state.next_iteration,
        params: state.params,
        adam: state.adam,
        best_reward: state.best_reward,
        best_result,
        best_selection: state.best_selection,
        best_mean: state.best_mean,
        stale: state.stale,
        history: state.history,
        faults: state.faults,
    };
    run_training(env, config, &model, state, &session, executor)
}

/// Resumes from `dir` when it holds a committed state, otherwise starts a
/// fresh run checkpointing into `dir`, with an explicit
/// [`RolloutExecutor`] (this is what `Session::train` uses): re-running
/// an interrupted job just picks up where it stopped.
///
/// # Errors
/// Propagates [`TrainError`] from the underlying run.
pub fn train_or_resume_with(
    env: &CcdEnv,
    config: &RlConfig,
    dir: &Path,
    mut session: TrainSession,
    executor: &mut dyn RolloutExecutor,
) -> Result<TrainOutcome, TrainError> {
    if training_state_exists(dir) {
        resume_train_with(env, config, dir, session, executor)
    } else {
        session.checkpoint_dir = Some(dir.to_path_buf());
        try_train_with(env, config, session, executor)
    }
}

/// Learning-rate factor applied after a divergent update is rolled back.
const DIVERGENCE_LR_DECAY: f32 = 0.5;

/// What [`reinforce_update`] did with one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The rewards' population std was ≤ 1e-9 (or undefined): there is no
    /// advantage, so no gradient was drawn and nothing moved.
    Degenerate,
    /// The merged gradient was non-finite — every input was finite, so an
    /// overflow in the merge or clip arithmetic — and the step was skipped.
    NonFiniteGradient,
    /// Adam's step left non-finite parameters or moments: both were
    /// restored from the pre-step snapshot and the learning rate halved, so
    /// a pathological batch cannot repeatedly diverge the run.
    Diverged,
    /// Adam stepped.
    Stepped,
}

/// One REINFORCE step (Eq. 7 with a standardized batch-mean baseline):
/// the update both online training and offline retraining take.
///
/// `rewards[i]` pairs with the `i`-th item of `grads`: that trajectory's
/// unscaled `∇ Σ_t log π(a_t|s_t)` and its weight (1 online, the clamped
/// importance weight offline). Advantages use the population std; each
/// gradient is scaled by `−(advantage · weight)` and merged in order, then
/// averaged, clipped to `grad_clip` in global norm, and handed to Adam
/// behind the two non-finite guards of [`UpdateOutcome`]. `grads` is
/// iterated only when the batch is not degenerate, so a lazy iterator runs
/// no backward pass for a batch that cannot learn.
pub fn reinforce_update(
    params: &mut ParamSet,
    adam: &mut Adam,
    grad_clip: f32,
    rewards: &[f64],
    grads: impl IntoIterator<Item = (GradSet, f32)>,
) -> UpdateOutcome {
    let n = rewards.len() as f64;
    let mean = rewards.iter().sum::<f64>() / n;
    let std = (rewards.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n).sqrt();
    if std.is_nan() || std <= 1e-9 {
        return UpdateOutcome::Degenerate;
    }
    let mut merged = GradSet::new();
    for (&reward, (mut g, weight)) in rewards.iter().zip(grads) {
        let advantage = ((reward - mean) / std) as f32;
        g.scale(-(advantage * weight));
        merged.merge(g);
    }
    merged.average();
    rl_ccd_obs::gauge!("train.update.grad_norm", merged.global_norm());
    merged.clip_global_norm(grad_clip);
    if !merged.all_finite() {
        return UpdateOutcome::NonFiniteGradient;
    }
    let last_good = (params.clone(), adam.clone());
    adam.step(params, &merged);
    if !params.all_finite() || !adam.state_is_finite() {
        (*params, *adam) = last_good;
        adam.decay_lr(DIVERGENCE_LR_DECAY);
        return UpdateOutcome::Diverged;
    }
    UpdateOutcome::Stepped
}

/// The supervised training loop shared by fresh and resumed runs, and by
/// every executor. Gradient reduction iterates survivors sorted by slot,
/// so the merged update is fixed by seed index — never by the order an
/// executor happened to complete rollouts in.
fn run_training(
    env: &CcdEnv,
    config: &RlConfig,
    model: &RlCcd,
    mut s: LoopState,
    session: &TrainSession,
    executor: &mut dyn RolloutExecutor,
) -> Result<TrainOutcome, TrainError> {
    let quorum = config.effective_quorum();
    let mut train_span = rl_ccd_obs::span!(
        "train.run",
        start_iteration = s.next_iteration,
        max_iterations = config.max_iterations,
        workers = config.workers,
        seed = config.seed,
    );
    for iteration in s.next_iteration..config.max_iterations {
        // A resumed state may already be exhausted (the original run
        // stopped right after this checkpoint was written).
        if s.stale >= config.patience {
            break;
        }
        let mut iter_span = rl_ccd_obs::span!("train.iteration", iteration = iteration);
        let pairs: Vec<(usize, u64)> = (0..config.workers.max(1))
            .map(|w| {
                let seed = config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((iteration * 1009 + w) as u64);
                (w, seed)
            })
            .collect();
        let mut batch = executor.run_batch(&RolloutRequest {
            iteration,
            pairs: &pairs,
            params: &s.params,
            model,
            env,
            config,
            plan: &session.fault_plan,
        });
        // The reduction-order pin: whatever order the executor returned,
        // gradients merge in slot (= seed) order.
        batch.rollouts.sort_by_key(|r| r.slot);
        s.faults.extend(batch.faults.iter().cloned());
        let survivors = batch.rollouts;
        if survivors.len() < quorum {
            // Abort cleanly, leaving a resumable checkpoint of the state
            // *before* this iteration so a fixed environment can continue.
            if session.checkpoint_every > 0 {
                if let Some(dir) = &session.checkpoint_dir {
                    save_training_state(&s.snapshot(iteration, config), dir)?;
                }
            }
            return Err(TrainError::QuorumLost {
                iteration,
                survivors: survivors.len(),
                quorum,
                faults: batch.faults,
            });
        }

        let mut improved = false;
        let (mean, batch_best, steps, rewards) = if survivors.is_empty() {
            // Degenerate batch (possible only with the quorum explicitly
            // disabled): no rewards exist, so the mean/variance of the
            // empty set is undefined — record the skip instead of letting
            // a 0/0 NaN poison the run.
            s.faults.push(RolloutFault {
                iteration,
                worker: 0,
                seed: 0,
                kind: FaultKind::EmptyBatch,
                detail: "all rollouts quarantined; update skipped".into(),
            });
            (f64::NEG_INFINITY, f64::NEG_INFINITY, Vec::new(), Vec::new())
        } else {
            let rewards: Vec<f64> = survivors.iter().map(|r| r.reward).collect();
            let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
            let batch_best = rewards.iter().copied().fold(f64::NEG_INFINITY, f64::max);

            // Track the champion selection. Executed rollouts carry only
            // the reward (flow results do not cross process boundaries);
            // the champion's FlowResult is recomputed once per improving
            // iteration — evaluate is deterministic in the selection, so
            // this is the exact result the rollout's worker saw.
            let mut champion: Option<&crate::executor::ExecutedRollout> = None;
            for r in &survivors {
                if r.reward > s.best_reward {
                    s.best_reward = r.reward;
                    champion = Some(r);
                    improved = true;
                }
            }
            if let Some(r) = champion {
                s.best_selection = r.selected.clone();
                s.best_result = env.evaluate(&s.best_selection);
            }
            let steps = survivors.iter().map(|r| r.steps).collect();

            // Workers already computed ∇Σlogπ; each enters the update at
            // weight 1.
            let update = reinforce_update(
                &mut s.params,
                &mut s.adam,
                config.grad_clip,
                &rewards,
                survivors.into_iter().map(|r| (r.log_prob_grads, 1.0)),
            );
            let guarded = match update {
                UpdateOutcome::NonFiniteGradient => {
                    Some("merged gradient non-finite; step skipped".to_string())
                }
                UpdateOutcome::Diverged => Some(format!(
                    "post-step state non-finite; restored snapshot, lr -> {}",
                    s.adam.lr
                )),
                UpdateOutcome::Degenerate | UpdateOutcome::Stepped => None,
            };
            if let Some(detail) = guarded {
                rl_ccd_obs::counter!("train.update.guarded", 1);
                s.faults.push(RolloutFault {
                    iteration,
                    worker: 0,
                    seed: 0,
                    kind: FaultKind::NonFiniteUpdate,
                    detail,
                });
            }
            (mean, batch_best, steps, rewards)
        };

        // Greedy policy evaluation after the update (the learning curve).
        let (greedy, greedy_result) = {
            let _span = rl_ccd_obs::span!("train.greedy_eval", iteration = iteration);
            let greedy = crate::infer::select_endpoints(model, &s.params, env);
            let greedy_result = env.evaluate(&greedy);
            (greedy, greedy_result)
        };
        let greedy_reward = greedy_result.final_qor.tns_ps;
        if greedy_reward > s.best_reward {
            s.best_reward = greedy_reward;
            s.best_result = greedy_result;
            s.best_selection = greedy.clone();
            improved = true;
        }

        iter_span.record("mean_reward", mean);
        iter_span.record("batch_best", batch_best);
        iter_span.record("greedy_reward", greedy_reward);
        iter_span.record("best_so_far", s.best_reward);
        rl_ccd_obs::gauge!("train.iteration.mean_reward", mean);
        rl_ccd_obs::gauge!("train.iteration.greedy_reward", greedy_reward);
        rl_ccd_obs::gauge!("train.iteration.best_so_far", s.best_reward);
        rl_ccd_obs::counter!("train.iterations", 1);
        s.history.push(IterationStats {
            iteration,
            mean_reward: mean,
            batch_best,
            greedy_reward,
            best_so_far: s.best_reward,
            steps,
            rewards,
        });

        // Progress = a new champion *or* a better batch mean (the policy is
        // still learning even when the single best trajectory stands).
        if mean > s.best_mean + 1e-9 {
            s.best_mean = mean;
            improved = true;
        }
        s.stale = if improved { 0 } else { s.stale + 1 };

        // Periodic atomic checkpoint at the iteration boundary.
        if session.checkpoint_every > 0 && (iteration + 1) % session.checkpoint_every == 0 {
            if let Some(dir) = &session.checkpoint_dir {
                let snapshot = s.snapshot(iteration + 1, config);
                if session.fault_plan.tears_checkpoint_after(iteration) {
                    write_torn_training_state(&snapshot, dir)?;
                } else {
                    save_training_state(&snapshot, dir)?;
                }
            }
        }

        if s.stale >= config.patience {
            break;
        }
    }

    train_span.record("iterations", s.history.len());
    train_span.record("best_reward", s.best_reward);
    train_span.record("faults", s.faults.len());
    Ok(TrainOutcome {
        params: s.params,
        best_result: s.best_result,
        best_selection: s.best_selection,
        history: s.history,
        faults: s.faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_flow::FlowRecipe;
    use rl_ccd_netlist::{generate, DesignSpec, TechNode};
    use rl_ccd_nn::Tensor;

    fn env() -> CcdEnv {
        let d = generate(&DesignSpec::new("train", 500, TechNode::N7, 77));
        CcdEnv::new(d, FlowRecipe::default(), 24)
    }

    #[test]
    fn training_runs_and_tracks_best() {
        let env = env();
        let cfg = RlConfig::fast();
        let out = try_train(&env, &cfg, TrainSession::default()).unwrap();
        assert!(!out.history.is_empty());
        assert!(out.history.len() <= cfg.max_iterations);
        assert!(out.best_result.final_qor.tns_ps <= 0.0);
        assert!(out.faults.is_empty(), "no faults without injection");
        // best_so_far is monotone non-decreasing.
        for w in out.history.windows(2) {
            assert!(w[1].best_so_far >= w[0].best_so_far);
        }
        // Every iteration kept all workers (nothing quarantined).
        for h in &out.history {
            assert_eq!(h.rewards.len(), cfg.workers);
            assert!(h.rewards.iter().all(|r| r.is_finite()));
        }
        // Parameters moved (training actually updated something).
        let (_, fresh) = RlCcd::init(cfg);
        let moved = fresh
            .iter()
            .any(|(name, t)| out.params.get(name) != Some(t));
        assert!(moved, "parameters never changed");
    }

    #[test]
    fn early_stop_respects_patience() {
        let env = env();
        let mut cfg = RlConfig::fast();
        cfg.max_iterations = 12;
        cfg.patience = 1;
        let out = try_train(&env, &cfg, TrainSession::default()).unwrap();
        // With patience 1 the loop stops as soon as one iteration fails to
        // improve, so it must terminate well before the cap in practice;
        // at minimum it cannot exceed the cap.
        assert!(out.history.len() <= 12);
    }

    #[test]
    fn training_is_deterministic() {
        let env = env();
        let cfg = RlConfig::fast();
        let a = try_train(&env, &cfg, TrainSession::default()).unwrap();
        let b = try_train(&env, &cfg, TrainSession::default()).unwrap();
        assert_eq!(a.best_selection, b.best_selection);
        assert_eq!(
            a.best_result.final_qor.tns_ps,
            b.best_result.final_qor.tns_ps
        );
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn all_faulted_batch_without_quorum_is_skipped_not_nan() {
        let env = env();
        let mut cfg = RlConfig::fast();
        cfg.max_iterations = 2;
        cfg.patience = 2;
        cfg.quorum = Some(0); // disable the quorum to reach the degenerate path
        let plan = FaultPlan::none()
            .with_worker_panic(0, 0)
            .with_worker_panic(0, 1);
        let out = try_train(
            &env,
            &cfg,
            TrainSession {
                fault_plan: plan,
                ..TrainSession::default()
            },
        )
        .expect("quorum disabled: must complete");
        // Iteration 0 is a logged no-op: -inf sentinels, no NaN anywhere.
        assert_eq!(out.history[0].mean_reward, f64::NEG_INFINITY);
        assert!(out.history[0].rewards.is_empty());
        assert!(out.history.iter().all(|h| !h.mean_reward.is_nan()));
        assert!(out
            .faults
            .iter()
            .any(|f| f.kind == FaultKind::EmptyBatch && f.iteration == 0));
        assert!(out.params.all_finite());
    }

    fn one_param(value: f32) -> ParamSet {
        let mut params = ParamSet::new();
        params.insert("w", Tensor::from_vec(1, 1, vec![value]));
        params
    }

    fn grad(value: f32) -> GradSet {
        let mut g = GradSet::new();
        g.set("w", Tensor::from_vec(1, 1, vec![value]));
        g
    }

    fn param_bits(params: &ParamSet) -> Vec<u32> {
        params
            .iter()
            .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn adam_bytes(adam: &Adam) -> Vec<u8> {
        let mut bytes = Vec::new();
        adam.save(&mut bytes).expect("in-memory write");
        bytes
    }

    #[test]
    fn degenerate_batch_draws_no_gradient() {
        let (mut params, mut adam) = (one_param(1.0), Adam::new(1e-3));
        let untouched = |_: usize| -> (GradSet, f32) { panic!("gradient drawn") };
        for rewards in [&[-3.0, -3.0][..], &[]] {
            let update = reinforce_update(
                &mut params,
                &mut adam,
                5.0,
                rewards,
                (0..rewards.len()).map(untouched),
            );
            assert_eq!(update, UpdateOutcome::Degenerate);
        }
        assert_eq!(adam.steps(), 0);
    }

    #[test]
    fn overflowing_merge_skips_the_step_bit_for_bit() {
        let (mut params, mut adam) = (one_param(1.0), Adam::new(1e-3));
        let (params0, adam0) = (param_bits(&params), adam_bytes(&adam));
        // Advantages are −1 and +1, so both scaled gradients are +f32::MAX
        // and their sum overflows.
        let update = reinforce_update(
            &mut params,
            &mut adam,
            5.0,
            &[0.0, 1.0],
            [(grad(f32::MAX), 1.0), (grad(-f32::MAX), 1.0)],
        );
        assert_eq!(update, UpdateOutcome::NonFiniteGradient);
        assert_eq!(param_bits(&params), params0);
        assert_eq!(adam_bytes(&adam), adam0);
    }

    #[test]
    fn divergent_step_restores_params_and_moments_and_halves_the_lr() {
        let (mut params, mut adam) = (one_param(1.0e38), Adam::new(1e-3));
        // A merged gradient of −1 raises `w`; the first step gives Adam
        // non-zero moments to restore.
        let batch = || [(grad(-1.0), 1.0), (grad(1.0), 1.0)];
        let rewards = [0.0, 1.0];
        let first = reinforce_update(&mut params, &mut adam, 5.0, &rewards, batch());
        assert_eq!(first, UpdateOutcome::Stepped);
        adam.lr = f32::MAX;
        let (params0, mut expected) = (param_bits(&params), adam.clone());
        expected.lr = f32::MAX / 2.0;
        let update = reinforce_update(&mut params, &mut adam, 5.0, &rewards, batch());
        assert_eq!(update, UpdateOutcome::Diverged);
        assert_eq!(param_bits(&params), params0);
        assert_eq!(adam_bytes(&adam), adam_bytes(&expected));
        assert_eq!(adam.lr.to_bits(), (f32::MAX / 2.0).to_bits());
    }

    #[test]
    fn quorum_loss_is_a_typed_error() {
        let env = env();
        let mut cfg = RlConfig::fast(); // 2 workers -> quorum 1
        cfg.max_iterations = 2;
        let plan = FaultPlan::none()
            .with_worker_panic(0, 0)
            .with_nan_reward(0, 1);
        let err = try_train(
            &env,
            &cfg,
            TrainSession {
                fault_plan: plan,
                ..TrainSession::default()
            },
        )
        .expect_err("all workers faulted: quorum must be lost");
        match err {
            TrainError::QuorumLost {
                iteration,
                survivors,
                quorum,
                faults,
            } => {
                assert_eq!((iteration, survivors, quorum), (0, 0, 1));
                assert_eq!(faults.len(), 2);
            }
            other => panic!("unexpected error {other}"),
        }
    }
}
